//! Per-rank counters: one table.
//!
//! Every counter a rank keeps is one row of the `counters!` table below:
//! its [`RankReport`] field, its [`Counter`] variant, its dotted export
//! name and its doc line. The table generates the enum and the report
//! fields; the live per-rank cells, [`RankReport::merge`] and
//! [`RankReport::counters`] walk its rows. A new counter is one row here
//! plus its [`crate::RankCtx::count`] calls.
//!
//! The figure harnesses use these counters both for reporting and for
//! cost-model extrapolation to machine sizes beyond the host (§6.8
//! extreme-scale runs).

use std::cell::Cell;

macro_rules! counters {
    ($( $(#[doc = $doc:literal])* $field:ident: $variant:ident = $name:literal, )*) => {
        /// One per-rank counter: a row of the table in [`crate::stats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $(#[doc = $doc])* $variant, )*
        }

        impl Counter {
            /// Every counter, in table order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),*];

            /// The dotted export name (`rma.puts`, `cache.hits`, …).
            pub fn name(self) -> &'static str {
                match self {
                    $( Counter::$variant => $name, )*
                }
            }
        }

        /// An owned, sendable summary of a rank's counters and clocks.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct RankReport {
            $( $(#[doc = $doc])* pub $field: u64, )*
            /// Always 0: the redo-tail view patch is gone (a stale view is
            /// rebuilt). The field stays because the frozen `benchmark/`
            /// reads it; a `[benchmark]` PR may drop both.
            pub scan_patches: u64,
            /// Final simulated time of the rank in nanoseconds (0 on a
            /// wall-backend run — the wall backend never charges the sim
            /// clock).
            pub sim_time_ns: f64,
            /// Final real elapsed time of the rank in nanoseconds, measured
            /// from the start of the enclosing `Fabric::run`. Filled on both
            /// backends (on `Sim` it prices the simulator itself); the
            /// authoritative runtime of a wall-backend run.
            pub wall_time_ns: f64,
        }

        impl RankReport {
            /// The value of counter `c`.
            pub fn get(&self, c: Counter) -> u64 {
                match c {
                    $( Counter::$variant => self.$field, )*
                }
            }

            fn slot(&mut self, c: Counter) -> &mut u64 {
                match c {
                    $( Counter::$variant => &mut self.$field, )*
                }
            }
        }
    };
}

counters! {
    /// Remote one-sided puts issued by this rank.
    puts: Puts = "rma.puts",
    /// Remote one-sided gets issued by this rank.
    gets: Gets = "rma.gets",
    /// Remote atomics (aget, aput, CAS, fetch-and-add/sub).
    atomics: Atomics = "rma.atomics",
    /// Flushes towards any target.
    flushes: Flushes = "rma.flushes",
    /// Payload bytes of the remote puts.
    bytes_put: BytesPut = "rma.bytes_put",
    /// Payload bytes of the remote gets.
    bytes_get: BytesGet = "rma.bytes_get",
    /// Collectives entered (barriers included).
    collectives: Collectives = "rma.collectives",
    /// Bytes this rank contributed to collectives.
    coll_bytes: CollBytes = "rma.coll_bytes",
    /// One-sided ops that targeted this rank's own windows.
    local_ops: LocalOps = "rma.local_ops",
    /// Fabric quiesces (checkpoint drain barriers) this rank entered.
    quiesces: Quiesces = "rma.quiesces",
    /// Faults fired against this rank by the fault plane (injected
    /// errors, torn writes, bit flips, latency hits).
    fault_injections: FaultInjections = "rma.fault_injections",
    /// Service-queue drains performed by this rank (server layer).
    batches_drained: BatchesDrained = "drain.batches",
    /// Requests dequeued across all drains (server layer).
    requests_served: RequestsServed = "drain.requests",
    /// Translation-cache hits (GDA epoch-validated app-id cache).
    cache_hits: CacheHits = "cache.hits",
    /// Translation-cache misses (full DHT chain walk paid).
    cache_misses: CacheMisses = "cache.misses",
    /// Translation-cache entries invalidated by an epoch bump.
    cache_invalidations: CacheInvalidations = "cache.invalidations",
    /// Durable redo-log appends issued by this rank (persistence layer).
    log_appends: LogAppends = "persist.log_appends",
    /// Redo-log payload bytes written by this rank.
    log_bytes: LogBytes = "persist.log_bytes",
    /// Redo records this rank logged as whole holder images (creates,
    /// collective writes, every put while the store is flagged
    /// unlogged) instead of splices over the version they overwrote.
    redo_whole_records: RedoWholeRecords = "persist.redo_whole_records",
    /// Delta (incremental) checkpoints this rank took part in: each
    /// sealed its redo log instead of writing an image.
    delta_checkpoints: DeltaCheckpoints = "persist.delta_checkpoints",
    /// Logical objects this rank re-materialized during a recovery
    /// (onto any rank count).
    reshard_objects: ReshardObjects = "recovery.objects",
    /// Holder payload bytes moved into this rank by a recovery.
    reshard_bytes: ReshardBytes = "recovery.bytes",
    /// OLAP scan-view builds (full raw-window sweeps) on this rank.
    scan_builds: ScanBuilds = "scan.builds",
    /// OLAP jobs that reused a cached scan view (epoch unchanged).
    scan_reuses: ScanReuses = "scan.reuses",
    /// Live holders decoded by scan builds on this rank.
    scan_holders: ScanHolders = "scan.holders",
    /// Holder payload bytes lifted out of raw images by scans.
    scan_bytes: ScanBytes = "scan.bytes",
    /// Declarative-query executions started on this rank.
    query_execs: QueryExecs = "query.execs",
    /// Bindings surviving query stages on this rank (post-filter rows).
    query_rows: QueryRows = "query.rows",
    /// Adjacency entries inspected by query expand stages on this rank.
    query_expands: QueryExpands = "query.expands",
    /// Bytes routed through query stage-level exchanges by this rank.
    query_bytes: QueryBytes = "query.bytes",
    /// Snapshot epochs pinned by read-only transactions (MVCC path).
    snapshot_pins: SnapshotPins = "mvcc.snapshot_pins",
    /// Lock-free snapshot object reads served off version chains.
    snapshot_reads: SnapshotReads = "mvcc.snapshot_reads",
    /// Read-epoch watermark advances published by commits on this rank.
    watermark_advances: WatermarkAdvances = "mvcc.watermark_advances",
    /// Overwritten holder versions archived onto version chains.
    version_archives: VersionArchives = "mvcc.version_archives",
    /// Bytes of archive records written onto version chains (header and
    /// undo bytes; each record is the undo of one overwrite).
    archive_bytes: ArchiveBytes = "mvcc.archive_bytes",
    /// Archived versions a rank freed off its retire list at commit
    /// (the snapshot floor had passed their commit epoch; `gda::db`).
    chain_truncations: ChainTruncations = "mvcc.chain_truncations",
    /// Collective maintenance passes this rank completed (vacuum +
    /// compaction + free-list rebuild + verify; `gda::maint`).
    maintenance_passes: MaintenancePasses = "maint.passes",
    /// Archived versions the maintenance pass freed off this rank's
    /// retire list, drained to the agreed snapshot floor.
    vacuumed_versions: VacuumedVersions = "maint.vacuumed_versions",
    /// Holder chains rewritten contiguously by the compactor.
    compacted_chains: CompactedChains = "maint.compacted_chains",
    /// Continuation blocks relocated by chain compaction.
    compacted_blocks: CompactedBlocks = "maint.compacted_blocks",
    /// Bytes of published snapshot-chain data checksum-verified online.
    verified_bytes: VerifiedBytes = "maint.verified_bytes",
    /// Snapshot-chain files that failed online verification.
    verify_errors: VerifyErrors = "maint.verify_errors",
}

/// Live per-rank counters, one cell per [`Counter`] (single-writer: the
/// owning rank thread).
#[derive(Debug)]
pub(crate) struct CommStats([Cell<u64>; Counter::ALL.len()]);

impl CommStats {
    pub(crate) fn new() -> Self {
        Self(std::array::from_fn(|_| Cell::new(0)))
    }

    #[inline]
    pub(crate) fn add(&self, c: Counter, n: u64) {
        let cell = &self.0[c as usize];
        cell.set(cell.get() + n);
    }

    /// An owned snapshot, clocks at 0.
    pub(crate) fn snapshot(&self) -> RankReport {
        let mut r = RankReport::default();
        for &c in Counter::ALL {
            *r.slot(c) = self.0[c as usize].get();
        }
        r
    }
}

impl RankReport {
    /// Every counter as `(export name, value)`, in table order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(|&c| (c.name(), self.get(c)))
    }

    /// Element-wise accumulation: counters sum, clocks take the max.
    pub fn merge(&mut self, other: &RankReport) {
        for &c in Counter::ALL {
            *self.slot(c) += other.get(c);
        }
        self.sim_time_ns = self.sim_time_ns.max(other.sim_time_ns);
        self.wall_time_ns = self.wall_time_ns.max(other.wall_time_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricBuilder;

    /// Every row is its own cell and its own field: `count(c, 3)` moves
    /// exactly row `c` of the snapshot, and no two rows share an export
    /// name.
    #[test]
    fn counters_accumulate() {
        let fabric = FabricBuilder::new(1).window(64).build();
        fabric.run(|ctx| {
            for &c in Counter::ALL {
                let before = ctx.stats_snapshot();
                ctx.count(c, 3);
                let after = ctx.stats_snapshot();
                for &d in Counter::ALL {
                    let moved = after.get(d) - before.get(d);
                    assert_eq!(
                        moved,
                        if d == c { 3 } else { 0 },
                        "count({c:?}) moved {d:?}"
                    );
                }
            }
        });
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "export names are unique");
        assert_eq!(
            Counter::RedoWholeRecords.name(),
            "persist.redo_whole_records"
        );
        assert_eq!(Counter::ArchiveBytes.name(), "mvcc.archive_bytes");
    }

    /// A merge sums every row and keeps the larger of each clock.
    #[test]
    fn merge_sums_and_maxes() {
        let (mut a, mut b) = (RankReport::default(), RankReport::default());
        for (i, &c) in Counter::ALL.iter().enumerate() {
            *a.slot(c) = i as u64;
            *b.slot(c) = 100 * i as u64;
        }
        (a.sim_time_ns, a.wall_time_ns) = (5.0, 1.0);
        (b.sim_time_ns, b.wall_time_ns) = (3.0, 2.0);
        a.merge(&b);
        for (i, (name, v)) in a.counters().enumerate() {
            assert_eq!(name, Counter::ALL[i].name());
            assert_eq!(v, 101 * i as u64, "merge sums {name}");
        }
        assert_eq!((a.sim_time_ns, a.wall_time_ns), (5.0, 2.0));
    }
}
