//! Robust estimators: exact-rank percentiles and medians over slices.

/// Exact nearest-rank percentile of an ascending slice: the smallest
/// element with at least `p` percent of the samples at or below it.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One slice of a measured window: an equal op count, its wall time and
/// the raw latencies of the requests that completed in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStats {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p95_us: f64,
}

/// Reduce one slice. `lat_ns` is consumed as scratch (sorted in place).
pub fn reduce_slice(ops: u64, wall_ns: u64, lat_ns: &mut [u32]) -> SliceStats {
    lat_ns.sort_unstable();
    SliceStats {
        ops_per_s: ops as f64 / (wall_ns as f64 / 1e9),
        p50_us: percentile_sorted(lat_ns, 50.0) as f64 / 1e3,
        p95_us: percentile_sorted(lat_ns, 95.0) as f64 / 1e3,
    }
}

/// Median of the first third and of the last third of a series, for the
/// stationarity check (a drifting workload has no meaningful median).
pub fn thirds(values: &[f64]) -> (f64, f64) {
    let k = (values.len() / 3).max(1);
    (median(&values[..k]), median(&values[values.len() - k..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 95.0), 95);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        // 7 samples: p50 → rank ceil(3.5)=4, p95 → rank ceil(6.65)=7
        let w = [10u32, 20, 30, 40, 50, 60, 70];
        assert_eq!(percentile_sorted(&w, 50.0), 40);
        assert_eq!(percentile_sorted(&w, 95.0), 70);
        assert_eq!(percentile_sorted(&[5u32], 95.0), 5);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn slice_reduction_on_a_known_vector() {
        // 1000 ops in 0.5 s, latencies 1..=1000 µs shuffled by stride
        let mut lat: Vec<u32> = (0..1000u32).map(|i| ((i * 7) % 1000 + 1) * 1000).collect();
        let s = reduce_slice(1000, 500_000_000, &mut lat);
        assert_eq!(s.ops_per_s, 2000.0);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p95_us, 950.0);
    }

    #[test]
    fn median_of_slices_ignores_an_outlier_slice() {
        let mut rates = vec![100.0; 19];
        rates.push(10.0); // one stalled slice
        assert_eq!(median(&rates), 100.0);
        let (a, b) = thirds(&[1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]);
        assert_eq!((a, b), (1.0, 9.0));
    }
}
