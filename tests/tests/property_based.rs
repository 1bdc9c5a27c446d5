//! Property-based tests (proptest) on the core data structures and
//! invariants: distributed pointers, property-value codecs, constraints,
//! histograms and the DHT under arbitrary operation sequences. (The
//! holder codec's properties are unit tests of `gda`'s holder module.)

use proptest::prelude::*;

use gda::DPtr;
use gdi::{CmpOp, Constraint, Datatype, LabelId, PTypeId, PropertyValue, Subconstraint};
use server::LatencyHist;

// ---------------------------------------------------------------------
// DPtr
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn dptr_roundtrips(rank in 0usize..=u16::MAX as usize, off in 0u64..(1u64 << 48)) {
        let p = DPtr::new(rank, off);
        prop_assert_eq!(p.rank(), rank);
        prop_assert_eq!(p.offset(), off);
        prop_assert_eq!(DPtr::from_raw(p.raw()), p);
    }
}

// ---------------------------------------------------------------------
// Property values
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn u64_value_roundtrip(v in any::<u64>()) {
        let pv = PropertyValue::U64(v);
        prop_assert_eq!(
            PropertyValue::decode(Datatype::Uint64, &pv.encode()).unwrap(),
            pv
        );
    }

    #[test]
    fn f64vec_roundtrip(v in prop::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 2..32)) {
        let pv = PropertyValue::F64Vec(v);
        prop_assert_eq!(
            PropertyValue::decode(Datatype::Double, &pv.encode()).unwrap(),
            pv
        );
    }

    #[test]
    fn text_roundtrip(s in ".{0,64}") {
        let pv = PropertyValue::Text(s);
        prop_assert_eq!(
            PropertyValue::decode(Datatype::Char, &pv.encode()).unwrap(),
            pv
        );
    }

    #[test]
    fn cmp_total_is_total_and_antisymmetric(a in any::<u64>(), b in any::<u64>()) {
        use std::cmp::Ordering;
        let x = PropertyValue::U64(a);
        let y = PropertyValue::U64(b);
        let xy = x.cmp_total(&y);
        let yx = y.cmp_total(&x);
        prop_assert_eq!(xy, yx.reverse());
        if a == b {
            prop_assert_eq!(xy, Ordering::Equal);
        }
    }
}

// ---------------------------------------------------------------------
// Constraints (DNF semantics)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Elem {
    labels: Vec<LabelId>,
    props: Vec<(PTypeId, u64)>,
}

impl gdi::constraint::ElementView for Elem {
    fn has_label(&self, label: LabelId) -> bool {
        self.labels.contains(&label)
    }
    fn properties(&self, ptype: PTypeId) -> Vec<PropertyValue> {
        self.props
            .iter()
            .filter(|(p, _)| *p == ptype)
            .map(|(_, v)| PropertyValue::U64(*v))
            .collect()
    }
}

fn arb_elem() -> impl Strategy<Value = Elem> {
    (
        prop::collection::vec(1u32..8, 0..4),
        prop::collection::vec((3u32..8, any::<u64>()), 0..5),
    )
        .prop_map(|(ls, ps)| Elem {
            labels: ls.into_iter().map(LabelId).collect(),
            props: ps.into_iter().map(|(p, v)| (PTypeId(p), v)).collect(),
        })
}

fn arb_sub() -> impl Strategy<Value = Subconstraint> {
    (
        prop::collection::vec((1u32..8, prop::bool::ANY), 0..3),
        prop::collection::vec(
            (
                3u32..8,
                prop_oneof![
                    Just(CmpOp::Eq),
                    Just(CmpOp::Ne),
                    Just(CmpOp::Lt),
                    Just(CmpOp::Le),
                    Just(CmpOp::Gt),
                    Just(CmpOp::Ge)
                ],
                any::<u64>(),
            ),
            0..3,
        ),
    )
        .prop_map(|(ls, ps)| {
            let mut s = Subconstraint::new();
            for (l, present) in ls {
                s = if present {
                    s.with_label(LabelId(l))
                } else {
                    s.without_label(LabelId(l))
                };
            }
            for (p, op, v) in ps {
                s = s.with_prop(PTypeId(p), op, PropertyValue::U64(v));
            }
            s
        })
}

proptest! {
    #[test]
    fn dnf_disjunction_is_or_of_conjunctions(
        subs in prop::collection::vec(arb_sub(), 1..4),
        e in arb_elem()
    ) {
        let c = subs.iter().fold(Constraint::any(), |c, s| c.or(s.clone()));
        let want = subs.iter().any(|s| s.eval(&e));
        prop_assert_eq!(c.eval(&e), want);
    }

    #[test]
    fn adding_a_true_subconstraint_makes_constraint_true(
        subs in prop::collection::vec(arb_sub(), 0..3),
        e in arb_elem()
    ) {
        let mut c = Constraint::default();
        for s in subs {
            c = c.or(s);
        }
        let c = c.or(Subconstraint::new()); // trivially true conjunction
        prop_assert!(c.eval(&e));
    }

    #[test]
    fn empty_constraint_matches_all(e in arb_elem()) {
        prop_assert!(Constraint::any().eval(&e));
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn histogram_count_and_mean(samples in prop::collection::vec(1.0f64..1e9, 1..200)) {
        let mut h = LatencyHist::new();
        for &s in &samples {
            h.add(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean_ns() - mean).abs() < 1e-6 * mean.max(1.0));
        // percentiles are monotone in p
        let p50 = h.percentile_ns(50.0);
        let p90 = h.percentile_ns(90.0);
        let p100 = h.percentile_ns(100.0);
        prop_assert!(p50 <= p90 && p90 <= p100);
        // max is within the top bucket bound
        prop_assert!(h.max_ns() <= p100);
    }

    #[test]
    fn histogram_merge_equals_bulk_add(
        a in prop::collection::vec(1.0f64..1e9, 0..100),
        b in prop::collection::vec(1.0f64..1e9, 0..100)
    ) {
        let mut ha = LatencyHist::new();
        let mut hb = LatencyHist::new();
        let mut hall = LatencyHist::new();
        for &s in &a { ha.add(s); hall.add(s); }
        for &s in &b { hb.add(s); hall.add(s); }
        ha.merge(&hb);
        // bucket counts and max must be identical; the mean only up to
        // floating-point summation order
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.buckets(), hall.buckets());
        prop_assert_eq!(ha.max_ns(), hall.max_ns());
        let scale = hall.mean_ns().abs().max(1.0);
        prop_assert!((ha.mean_ns() - hall.mean_ns()).abs() < 1e-9 * scale);
    }

    /// A percentile is a bucket's upper edge, clamped: it never reports
    /// more than the largest sample (a lone 100 ns sample is p50 = 100,
    /// not the bucket edge 128).
    #[test]
    fn histogram_percentiles_never_exceed_the_max(
        samples in prop::collection::vec(0.0f64..1e9, 1..200),
        p in 0.0f64..100.0
    ) {
        let mut h = LatencyHist::new();
        for &s in &samples {
            h.add(s);
        }
        for p in [p, 100.0] {
            prop_assert!(h.percentile_ns(p) <= h.max_ns(), "p{} = {} > max {}", p, h.percentile_ns(p), h.max_ns());
        }
    }
}

// ---------------------------------------------------------------------
// Generator invariants
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn edge_partitions_tile_the_stream(scale in 4u32..9, seed in any::<u64>(), nranks in 1usize..7) {
        let spec = graphgen::GraphSpec { scale, edge_factor: 4, seed, lpg: graphgen::LpgConfig::bare() };
        let whole = spec.edges_for_rank(0, 1);
        let parts: Vec<(u64, u64)> = (0..nranks).flat_map(|r| spec.edges_for_rank(r, nranks)).collect();
        prop_assert_eq!(whole, parts);
    }

    #[test]
    fn scramble_is_bijective_for_any_seed(scale in 4u32..12, seed in any::<u64>()) {
        let s = graphgen::KroneckerSampler::new(scale, seed);
        let n = 1u64 << scale;
        let mut seen = vec![false; n as usize];
        for v in 0..n {
            let x = s.scramble(v) as usize;
            prop_assert!(!seen[x]);
            seen[x] = true;
        }
    }
}
