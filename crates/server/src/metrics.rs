//! Live service metrics: per-rank throughput, latency percentiles and
//! abort rates, plus the fabric-level [`rma::RankReport`] counters
//! (requests served, batches drained, simulated busy time) collected when
//! serving stops. [`ServerMetrics::snapshot`] lists every counter of both
//! kinds by name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use rma::RankReport;

/// Log2-bucketed nanosecond histogram (64 buckets), mergeable.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: [u64; 64],
    count: u64,
    sum_ns: f64,
    max_ns: f64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
        }
    }
}

impl LatencyHist {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, ns: f64) {
        let b = (ns.max(1.0) as u64).ilog2().min(63) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }

    pub fn max_ns(&self) -> f64 {
        self.max_ns
    }

    /// Upper bound of the bucket containing the p-th percentile sample,
    /// clamped to the largest observed sample — a bucket's power-of-two
    /// ceiling must never report a percentile above `max_ns` (e.g. a
    /// single 100 ns sample used to report p99 = 128).
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return ((1u64 << (i + 1).min(63)) as f64).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Counters one serving rank updates while draining (shared with the
/// metrics snapshotting side).
#[derive(Debug, Default)]
pub(crate) struct RankCounters {
    pub submitted: AtomicU64,
    pub rejected: AtomicU64,
    pub committed: AtomicU64,
    pub aborted: AtomicU64,
    /// Requests shed at drain time because they outlived the configured
    /// per-op deadline (resolved [`crate::OpOutcome::DeadlineExceeded`],
    /// never executed).
    pub deadline_misses: AtomicU64,
    /// Requests answered from the idempotency dedup window instead of
    /// re-executing (a retried token whose outcome was already decided).
    pub dedup_hits: AtomicU64,
    pub latency: Mutex<LatencyHist>,
}

impl RankCounters {
    /// Count a group of decided ops — `(committed, submit → now)` each —
    /// with one histogram lock and one add per counter.
    pub fn complete(&self, ops: impl Iterator<Item = (bool, Duration)>) {
        let (mut total, mut committed) = (0u64, 0u64);
        {
            let mut latency = self.latency.lock();
            for (ok, waited) in ops {
                total += 1;
                committed += ok as u64;
                latency.add(waited.as_nanos() as f64);
            }
        }
        self.committed.fetch_add(committed, Ordering::Relaxed);
        self.aborted.fetch_add(total - committed, Ordering::Relaxed);
    }
}

/// Snapshot of one rank's service state.
#[derive(Debug, Clone)]
pub struct RankMetrics {
    pub rank: usize,
    pub submitted: u64,
    pub rejected: u64,
    pub committed: u64,
    pub aborted: u64,
    /// Requests shed unexecuted because they outlived the per-op
    /// deadline ([`crate::ServerOptions::deadline`]).
    pub deadline_misses: u64,
    /// Requests answered from the idempotency dedup window without
    /// re-execution.
    pub dedup_hits: u64,
    pub queue_depth: usize,
    /// Client-observed **wall-clock** latency (submit → ack), including
    /// queueing and host scheduling. This is the serving-path SLO view;
    /// it is *not* on the simulated clock that sim-throughput uses (the
    /// engine-side simulated latencies are the Fig. 5 rows of `gdi-bench`'s
    /// `paper` table).
    pub latency: LatencyHist,
    /// Fabric counters of the serve phase (filled after serving stops).
    pub fabric: Option<RankReport>,
}

impl RankMetrics {
    pub fn abort_fraction(&self) -> f64 {
        let total = self.committed + self.aborted;
        if total == 0 {
            0.0
        } else {
            self.aborted as f64 / total as f64
        }
    }
}

/// What a crash recovery did, aggregated over ranks (built from
/// `gda::persist::RankRecovery` by [`crate::GdiServer::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// Checkpoint id the recovery restored from (0 = genesis).
    pub snapshot_id: u64,
    /// Snapshot bytes restored across all ranks.
    pub snapshot_bytes: u64,
    /// Redo-log bytes replayed across all ranks.
    pub log_bytes: u64,
    /// Redo records parsed across all ranks.
    pub records: u64,
    /// Records applied (the rest were idempotently skipped).
    pub applied: u64,
    /// Records that failed to apply (should be zero).
    pub errors: u64,
    /// Slowest rank's simulated restore+replay seconds.
    pub max_sim_restore_s: f64,
    /// Slowest rank's wall-clock restore+replay seconds.
    pub max_wall_restore_s: f64,
    /// Ranks that finished restoring so far.
    pub ranks_restored: usize,
    /// `Some(P)` when this recovery **resharded** a `P`-rank snapshot
    /// onto a different live rank count (elastic restore).
    pub resharded_from: Option<usize>,
}

/// Whole-server snapshot: per-rank plus aggregates.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// One entry per fabric rank.
    pub per_rank: Vec<RankMetrics>,
    /// Wall-clock seconds since the server started accepting requests.
    pub wall_elapsed_s: f64,
    /// Successful collective checkpoints triggered through the server.
    pub checkpoints: u64,
    /// Collective maintenance passes submitted through the server
    /// (explicit [`crate::GdiServer::maintenance`] calls plus passes
    /// scheduled by `ServerOptions::maintenance_interval`).
    pub maintenance_runs: u64,
    /// Crash-recovery stats, when this server was booted via
    /// [`crate::GdiServer::recover`].
    pub recovery: Option<RecoverySummary>,
    /// Is the server currently in degraded read-only mode (entered on a
    /// failed checkpoint or observed store write errors; exits on the
    /// next successful checkpoint)?
    pub degraded: bool,
    /// Times the server *entered* degraded read-only mode.
    pub degraded_entries: u64,
    /// Write submissions rejected with [`crate::SubmitError::ReadOnly`]
    /// while degraded.
    pub write_rejects: u64,
    /// Retries performed by [`crate::Session::execute_idempotent`].
    pub retries: u64,
    /// Storage-side fault injections fired on the shared fault plane
    /// (see `gda::faults`); 0 when persistence is off or no fault armed.
    pub fault_hits: u64,
    /// Fabric execution backend the serve loops ran on (`Sim` = LogGP
    /// virtual time, `Wall` = real clock). `None` until the first serve
    /// loop starts.
    pub backend: Option<rma::BackendKind>,
}

impl ServerMetrics {
    pub fn committed(&self) -> u64 {
        self.per_rank.iter().map(|r| r.committed).sum()
    }

    pub fn aborted(&self) -> u64 {
        self.per_rank.iter().map(|r| r.aborted).sum()
    }

    pub fn rejected(&self) -> u64 {
        self.per_rank.iter().map(|r| r.rejected).sum()
    }

    pub fn abort_fraction(&self) -> f64 {
        let (c, a) = (self.committed(), self.aborted());
        if c + a == 0 {
            0.0
        } else {
            a as f64 / (c + a) as f64
        }
    }

    /// Deadline-shed requests over all ranks.
    pub fn deadline_misses(&self) -> u64 {
        self.per_rank.iter().map(|r| r.deadline_misses).sum()
    }

    /// Idempotency dedup-window hits over all ranks.
    pub fn dedup_hits(&self) -> u64 {
        self.per_rank.iter().map(|r| r.dedup_hits).sum()
    }

    /// Merged latency histogram over all ranks.
    pub fn latency(&self) -> LatencyHist {
        let mut h = LatencyHist::new();
        for r in &self.per_rank {
            h.merge(&r.latency);
        }
        h
    }

    /// The fabric-level counters summed over all serving ranks (reports
    /// are captured when serving stops; sim time is the maximum): read
    /// the fields — `fabric_total().cache_hits`, `.scan_builds`, … —
    /// instead of one accessor per counter.
    pub fn fabric_total(&self) -> RankReport {
        let mut total = RankReport::default();
        for report in self.per_rank.iter().filter_map(|r| r.fabric.as_ref()) {
            total.merge(report);
        }
        total
    }

    /// Every counter as one name → value list: the server's own
    /// (`server.*`), then the rows of [`ServerMetrics::fabric_total`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut rows = vec![
            (
                "server.submitted",
                self.per_rank.iter().map(|r| r.submitted).sum(),
            ),
            ("server.rejected", self.rejected()),
            ("server.committed", self.committed()),
            ("server.aborted", self.aborted()),
            ("server.deadline_misses", self.deadline_misses()),
            ("server.dedup_hits", self.dedup_hits()),
            ("server.checkpoints", self.checkpoints),
            ("server.maintenance_runs", self.maintenance_runs),
            ("server.degraded_entries", self.degraded_entries),
            ("server.write_rejects", self.write_rejects),
            ("server.retries", self.retries),
            ("server.fault_hits", self.fault_hits),
        ];
        rows.extend(self.fabric_total().counters());
        MetricsSnapshot { rows }
    }
}

/// Counters by dotted name ([`ServerMetrics::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, server counters first, then the fabric table's
    /// rows in table order.
    pub rows: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// One flat JSON object, `{"server.submitted":12,…}`, in row order.
    /// The names are plain identifiers and dots, so nothing is escaped.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .rows
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_monotone() {
        let mut h = LatencyHist::new();
        for i in 1..=1000u64 {
            h.add(i as f64 * 100.0);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile_ns(50.0);
        let p95 = h.percentile_ns(95.0);
        let p99 = h.percentile_ns(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(h.mean_ns() > 0.0);
        assert!(h.max_ns() >= 100_000.0 - 1e-9);
    }

    /// Regression: a reported percentile used to be the bucket's
    /// power-of-two upper bound, exceeding `max_ns` (a single 100 ns
    /// sample reported p99 = 128).
    #[test]
    fn percentile_never_exceeds_max() {
        let mut h = LatencyHist::new();
        h.add(100.0);
        assert_eq!(h.percentile_ns(99.0), 100.0);
        let mut h = LatencyHist::new();
        for i in 0..500u64 {
            h.add((i * 37 % 9000) as f64 + 1.0);
        }
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert!(
                h.percentile_ns(p) <= h.max_ns(),
                "p{p} = {} > max {}",
                h.percentile_ns(p),
                h.max_ns()
            );
        }
        // monotonicity survives the clamp
        assert!(h.percentile_ns(50.0) <= h.percentile_ns(99.0));
    }

    #[test]
    fn histogram_merge() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.add(10.0);
        b.add(1e6);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max_ns(), 1e6);
    }
}
