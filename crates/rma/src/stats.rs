//! Per-rank communication statistics.
//!
//! Every one-sided operation and collective is counted. The figure harnesses
//! use these counters both for reporting and for cost-model extrapolation to
//! machine sizes beyond the host (§6.8 extreme-scale runs).

use std::cell::Cell;

/// Mutable per-rank counters (single-writer: the owning rank thread).
#[derive(Debug, Default)]
pub struct CommStats {
    puts: Cell<u64>,
    gets: Cell<u64>,
    atomics: Cell<u64>,
    flushes: Cell<u64>,
    bytes_put: Cell<u64>,
    bytes_get: Cell<u64>,
    collectives: Cell<u64>,
    coll_bytes: Cell<u64>,
    local_ops: Cell<u64>,
    batches_drained: Cell<u64>,
    requests_served: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    cache_invalidations: Cell<u64>,
    log_appends: Cell<u64>,
    log_bytes: Cell<u64>,
    quiesces: Cell<u64>,
    reshard_objects: Cell<u64>,
    reshard_bytes: Cell<u64>,
    scan_builds: Cell<u64>,
    scan_reuses: Cell<u64>,
    scan_holders: Cell<u64>,
    scan_bytes: Cell<u64>,
    query_execs: Cell<u64>,
    query_rows: Cell<u64>,
    query_expands: Cell<u64>,
    query_bytes: Cell<u64>,
    snapshot_pins: Cell<u64>,
    snapshot_reads: Cell<u64>,
    watermark_advances: Cell<u64>,
    version_archives: Cell<u64>,
    chain_truncations: Cell<u64>,
    maintenance_passes: Cell<u64>,
    vacuumed_versions: Cell<u64>,
    compacted_chains: Cell<u64>,
    compacted_blocks: Cell<u64>,
    verified_bytes: Cell<u64>,
    verify_errors: Cell<u64>,
    delta_checkpoints: Cell<u64>,
    delta_chunks: Cell<u64>,
    fault_injections: Cell<u64>,
}

impl CommStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record_put(&self, remote: bool, bytes: usize) {
        if remote {
            self.puts.set(self.puts.get() + 1);
            self.bytes_put.set(self.bytes_put.get() + bytes as u64);
        } else {
            self.local_ops.set(self.local_ops.get() + 1);
        }
    }

    #[inline]
    pub fn record_get(&self, remote: bool, bytes: usize) {
        if remote {
            self.gets.set(self.gets.get() + 1);
            self.bytes_get.set(self.bytes_get.get() + bytes as u64);
        } else {
            self.local_ops.set(self.local_ops.get() + 1);
        }
    }

    #[inline]
    pub fn record_atomic(&self, remote: bool) {
        if remote {
            self.atomics.set(self.atomics.get() + 1);
        } else {
            self.local_ops.set(self.local_ops.get() + 1);
        }
    }

    #[inline]
    pub fn record_flush(&self) {
        self.flushes.set(self.flushes.get() + 1);
    }

    /// Record one service-queue drain that dequeued `n` requests (the
    /// server layer's per-rank serve loop).
    #[inline]
    pub fn record_drain(&self, n: usize) {
        self.batches_drained.set(self.batches_drained.get() + 1);
        self.requests_served
            .set(self.requests_served.get() + n as u64);
    }

    /// Record one translation-cache probe (GDA's epoch-validated app-id →
    /// `DPtr` cache): a hit avoided a remote chain walk, a miss paid it.
    #[inline]
    pub fn record_cache_probe(&self, hit: bool) {
        if hit {
            self.cache_hits.set(self.cache_hits.get() + 1);
        } else {
            self.cache_misses.set(self.cache_misses.get() + 1);
        }
    }

    /// Record one translation-cache entry dropped because its owner
    /// rank's epoch moved (a remote insert/delete invalidated it).
    #[inline]
    pub fn record_cache_invalidation(&self) {
        self.cache_invalidations
            .set(self.cache_invalidations.get() + 1);
    }

    /// Record one durable redo-log append of `bytes` payload (the commit
    /// path of a persistence-enabled engine).
    #[inline]
    pub fn record_log_write(&self, bytes: usize) {
        self.log_appends.set(self.log_appends.get() + 1);
        self.log_bytes.set(self.log_bytes.get() + bytes as u64);
    }

    /// Record one fabric quiesce (drain barrier: all outstanding one-sided
    /// traffic flushed machine-wide — the checkpoint entry barrier).
    #[inline]
    pub fn record_quiesce(&self) {
        self.quiesces.set(self.quiesces.get() + 1);
    }

    /// Record an elastic-reshard redistribution on this rank: `objects`
    /// logical objects re-materialized here, `bytes` of holder payload
    /// moved into this rank's windows (the restore-path equivalent of
    /// the redo-log counters).
    #[inline]
    pub fn record_reshard(&self, objects: u64, bytes: u64) {
        self.reshard_objects
            .set(self.reshard_objects.get() + objects);
        self.reshard_bytes.set(self.reshard_bytes.get() + bytes);
    }

    /// Record one OLAP scan-view **build** on this rank: `holders` live
    /// holders decoded out of raw window images, `bytes` of holder
    /// payload lifted (the zero-transaction analytics path of
    /// `gda::scan`).
    #[inline]
    pub fn record_scan_build(&self, holders: u64, bytes: u64) {
        self.scan_builds.set(self.scan_builds.get() + 1);
        self.scan_holders.set(self.scan_holders.get() + holders);
        self.scan_bytes.set(self.scan_bytes.get() + bytes);
    }

    /// Record one OLAP job that **reused** a cached scan view (its epoch
    /// stamp revalidated, so no sweep ran).
    #[inline]
    pub fn record_scan_reuse(&self) {
        self.scan_reuses.set(self.scan_reuses.get() + 1);
    }

    /// Record one declarative-query execution started on this rank (the
    /// `query` crate's collective executor).
    #[inline]
    pub fn record_query_exec(&self) {
        self.query_execs.set(self.query_execs.get() + 1);
    }

    /// Record one executed query stage on this rank: `rows` surviving
    /// bindings, `expanded` adjacency entries inspected, `bytes` routed
    /// through stage-level exchanges. Pure accounting — the underlying
    /// gets/collectives were already charged by the fabric ops.
    #[inline]
    pub fn record_query_stage(&self, rows: u64, expanded: u64, bytes: u64) {
        self.query_rows.set(self.query_rows.get() + rows);
        self.query_expands.set(self.query_expands.get() + expanded);
        self.query_bytes.set(self.query_bytes.get() + bytes);
    }

    /// Record one snapshot pin: a read-only transaction registered a
    /// snapshot epoch at `begin` (MVCC read path of the `gda` crate).
    #[inline]
    pub fn record_snapshot_pin(&self) {
        self.snapshot_pins.set(self.snapshot_pins.get() + 1);
    }

    /// Record one lock-free snapshot object read served off a validated
    /// version chain (possibly after walking archived versions).
    #[inline]
    pub fn record_snapshot_read(&self) {
        self.snapshot_reads.set(self.snapshot_reads.get() + 1);
    }

    /// Record one read-epoch watermark advance published by a commit
    /// (the in-order `CAS e-1 → e` on rank 0's watermark word).
    #[inline]
    pub fn record_watermark_advance(&self) {
        self.watermark_advances
            .set(self.watermark_advances.get() + 1);
    }

    /// Record one overwritten holder version archived onto its object's
    /// version chain by a committing writer.
    #[inline]
    pub fn record_version_archive(&self) {
        self.version_archives.set(self.version_archives.get() + 1);
    }

    /// Record archived versions freed by one commit-time chain
    /// truncation below the snapshot floor.
    #[inline]
    pub fn record_chain_truncation(&self, versions: u64) {
        self.chain_truncations
            .set(self.chain_truncations.get() + versions);
    }

    /// Record one completed collective maintenance pass on this rank
    /// (the background vacuum/compaction/verify cycle of `gda::maint`).
    #[inline]
    pub fn record_maintenance_pass(&self) {
        self.maintenance_passes
            .set(self.maintenance_passes.get() + 1);
    }

    /// Record archived versions freed by the background MVCC vacuum
    /// (distinct from commit-path truncation).
    #[inline]
    pub fn record_vacuum(&self, versions: u64) {
        self.vacuumed_versions
            .set(self.vacuumed_versions.get() + versions);
    }

    /// Record one holder chain rewritten contiguously by the
    /// maintenance compactor (`blocks` continuation blocks relocated).
    #[inline]
    pub fn record_compaction(&self, blocks: u64) {
        self.compacted_chains.set(self.compacted_chains.get() + 1);
        self.compacted_blocks
            .set(self.compacted_blocks.get() + blocks);
    }

    /// Record `bytes` of published snapshot-chain data re-read by the
    /// online checksum verifier, `errors` of whose files failed.
    #[inline]
    pub fn record_verify(&self, bytes: u64, errors: u64) {
        self.verified_bytes.set(self.verified_bytes.get() + bytes);
        self.verify_errors.set(self.verify_errors.get() + errors);
    }

    /// Record one delta (incremental) checkpoint image written by this
    /// rank, covering `chunks` dirty chunks.
    #[inline]
    pub fn record_delta_checkpoint(&self, chunks: u64) {
        self.delta_checkpoints.set(self.delta_checkpoints.get() + 1);
        self.delta_chunks.set(self.delta_chunks.get() + chunks);
    }

    /// Record one fault fired against this rank by the fault plane
    /// (`crate::faults`) — an injected error, torn write, bit flip or
    /// latency hit observed at a fabric or storage fault point.
    #[inline]
    pub fn record_fault_injection(&self) {
        self.fault_injections.set(self.fault_injections.get() + 1);
    }

    #[inline]
    pub fn record_collective(&self, bytes: usize) {
        self.collectives.set(self.collectives.get() + 1);
        self.coll_bytes.set(self.coll_bytes.get() + bytes as u64);
    }

    /// Produce an owned snapshot.
    pub fn snapshot(&self) -> RankReport {
        RankReport {
            puts: self.puts.get(),
            gets: self.gets.get(),
            atomics: self.atomics.get(),
            flushes: self.flushes.get(),
            bytes_put: self.bytes_put.get(),
            bytes_get: self.bytes_get.get(),
            collectives: self.collectives.get(),
            coll_bytes: self.coll_bytes.get(),
            local_ops: self.local_ops.get(),
            batches_drained: self.batches_drained.get(),
            requests_served: self.requests_served.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_invalidations: self.cache_invalidations.get(),
            log_appends: self.log_appends.get(),
            log_bytes: self.log_bytes.get(),
            quiesces: self.quiesces.get(),
            reshard_objects: self.reshard_objects.get(),
            reshard_bytes: self.reshard_bytes.get(),
            scan_builds: self.scan_builds.get(),
            scan_reuses: self.scan_reuses.get(),
            scan_patches: 0,
            scan_holders: self.scan_holders.get(),
            scan_bytes: self.scan_bytes.get(),
            query_execs: self.query_execs.get(),
            query_rows: self.query_rows.get(),
            query_expands: self.query_expands.get(),
            query_bytes: self.query_bytes.get(),
            snapshot_pins: self.snapshot_pins.get(),
            snapshot_reads: self.snapshot_reads.get(),
            watermark_advances: self.watermark_advances.get(),
            version_archives: self.version_archives.get(),
            chain_truncations: self.chain_truncations.get(),
            maintenance_passes: self.maintenance_passes.get(),
            vacuumed_versions: self.vacuumed_versions.get(),
            compacted_chains: self.compacted_chains.get(),
            compacted_blocks: self.compacted_blocks.get(),
            verified_bytes: self.verified_bytes.get(),
            verify_errors: self.verify_errors.get(),
            delta_checkpoints: self.delta_checkpoints.get(),
            delta_chunks: self.delta_chunks.get(),
            fault_injections: self.fault_injections.get(),
            sim_time_ns: 0.0,
            wall_time_ns: 0.0,
        }
    }
}

/// An owned, sendable summary of a rank's communication behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankReport {
    pub puts: u64,
    pub gets: u64,
    pub atomics: u64,
    pub flushes: u64,
    pub bytes_put: u64,
    pub bytes_get: u64,
    pub collectives: u64,
    pub coll_bytes: u64,
    pub local_ops: u64,
    /// Service-queue drains performed by this rank (server layer).
    pub batches_drained: u64,
    /// Requests dequeued across all drains (server layer).
    pub requests_served: u64,
    /// Translation-cache hits (GDA epoch-validated app-id cache).
    pub cache_hits: u64,
    /// Translation-cache misses (full DHT chain walk paid).
    pub cache_misses: u64,
    /// Translation-cache entries invalidated by an epoch bump.
    pub cache_invalidations: u64,
    /// Durable redo-log appends issued by this rank (persistence layer).
    pub log_appends: u64,
    /// Redo-log payload bytes written by this rank.
    pub log_bytes: u64,
    /// Fabric quiesces (checkpoint drain barriers) this rank entered.
    pub quiesces: u64,
    /// Logical objects this rank re-materialized during an elastic
    /// reshard (restore onto a different rank count).
    pub reshard_objects: u64,
    /// Holder payload bytes moved into this rank by an elastic reshard.
    pub reshard_bytes: u64,
    /// OLAP scan-view builds (full raw-window sweeps) on this rank.
    pub scan_builds: u64,
    /// OLAP jobs that reused a cached scan view (epoch unchanged).
    pub scan_reuses: u64,
    /// Always 0: the redo-tail view patch is gone (a stale view is
    /// rebuilt). The field stays because the frozen `benchmark/` reads
    /// it; a `[benchmark]` PR may drop both.
    pub scan_patches: u64,
    /// Live holders decoded by scan builds on this rank.
    pub scan_holders: u64,
    /// Holder payload bytes lifted out of raw images by scans.
    pub scan_bytes: u64,
    /// Declarative-query executions started on this rank.
    pub query_execs: u64,
    /// Bindings surviving query stages on this rank (post-filter rows).
    pub query_rows: u64,
    /// Adjacency entries inspected by query expand stages on this rank.
    pub query_expands: u64,
    /// Bytes routed through query stage-level exchanges by this rank.
    pub query_bytes: u64,
    /// Snapshot epochs pinned by read-only transactions (MVCC path).
    pub snapshot_pins: u64,
    /// Lock-free snapshot object reads served off version chains.
    pub snapshot_reads: u64,
    /// Read-epoch watermark advances published by commits on this rank.
    pub watermark_advances: u64,
    /// Overwritten holder versions archived onto version chains.
    pub version_archives: u64,
    /// Archived versions freed by commit-time chain truncation.
    pub chain_truncations: u64,
    /// Collective maintenance passes this rank completed (vacuum +
    /// compaction + free-list rebuild + verify; `gda::maint`).
    pub maintenance_passes: u64,
    /// Archived versions freed by the background MVCC vacuum.
    pub vacuumed_versions: u64,
    /// Holder chains rewritten contiguously by the compactor.
    pub compacted_chains: u64,
    /// Continuation blocks relocated by chain compaction.
    pub compacted_blocks: u64,
    /// Bytes of published snapshot-chain data checksum-verified online.
    pub verified_bytes: u64,
    /// Snapshot-chain files that failed online verification.
    pub verify_errors: u64,
    /// Delta (incremental) checkpoint images written by this rank.
    pub delta_checkpoints: u64,
    /// Dirty chunks shipped by those delta images.
    pub delta_chunks: u64,
    /// Faults fired against this rank by the fault plane (injected
    /// errors, torn writes, bit flips, latency hits).
    pub fault_injections: u64,
    /// Final simulated time of the rank in nanoseconds (0 on a
    /// wall-backend run — the wall backend never charges the sim clock).
    pub sim_time_ns: f64,
    /// Final real elapsed time of the rank in nanoseconds, measured from
    /// the start of the enclosing `Fabric::run`. Filled on both backends
    /// (on `Sim` it prices the simulator itself); the authoritative
    /// runtime of a wall-backend run.
    pub wall_time_ns: f64,
}

impl RankReport {
    /// Total remote messages injected by this rank.
    pub fn messages(&self) -> u64 {
        self.puts + self.gets + self.atomics + self.flushes
    }

    /// Total remote bytes moved by this rank (puts + gets + collectives).
    pub fn bytes(&self) -> u64 {
        self.bytes_put + self.bytes_get + self.coll_bytes
    }

    /// Element-wise accumulation (max for sim time).
    pub fn merge(&mut self, other: &RankReport) {
        self.puts += other.puts;
        self.gets += other.gets;
        self.atomics += other.atomics;
        self.flushes += other.flushes;
        self.bytes_put += other.bytes_put;
        self.bytes_get += other.bytes_get;
        self.collectives += other.collectives;
        self.coll_bytes += other.coll_bytes;
        self.local_ops += other.local_ops;
        self.batches_drained += other.batches_drained;
        self.requests_served += other.requests_served;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.log_appends += other.log_appends;
        self.log_bytes += other.log_bytes;
        self.quiesces += other.quiesces;
        self.reshard_objects += other.reshard_objects;
        self.reshard_bytes += other.reshard_bytes;
        self.scan_builds += other.scan_builds;
        self.scan_reuses += other.scan_reuses;
        self.scan_holders += other.scan_holders;
        self.scan_bytes += other.scan_bytes;
        self.query_execs += other.query_execs;
        self.query_rows += other.query_rows;
        self.query_expands += other.query_expands;
        self.query_bytes += other.query_bytes;
        self.snapshot_pins += other.snapshot_pins;
        self.snapshot_reads += other.snapshot_reads;
        self.watermark_advances += other.watermark_advances;
        self.version_archives += other.version_archives;
        self.chain_truncations += other.chain_truncations;
        self.maintenance_passes += other.maintenance_passes;
        self.vacuumed_versions += other.vacuumed_versions;
        self.compacted_chains += other.compacted_chains;
        self.compacted_blocks += other.compacted_blocks;
        self.verified_bytes += other.verified_bytes;
        self.verify_errors += other.verify_errors;
        self.delta_checkpoints += other.delta_checkpoints;
        self.delta_chunks += other.delta_chunks;
        self.fault_injections += other.fault_injections;
        self.sim_time_ns = self.sim_time_ns.max(other.sim_time_ns);
        self.wall_time_ns = self.wall_time_ns.max(other.wall_time_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = CommStats::new();
        s.record_put(true, 64);
        s.record_put(false, 8);
        s.record_get(true, 128);
        s.record_atomic(true);
        s.record_atomic(false);
        s.record_flush();
        s.record_collective(32);
        s.record_cache_probe(true);
        s.record_cache_probe(true);
        s.record_cache_probe(false);
        s.record_cache_invalidation();
        let r = s.snapshot();
        assert_eq!(r.cache_hits, 2);
        assert_eq!(r.cache_misses, 1);
        assert_eq!(r.cache_invalidations, 1);
        assert_eq!(r.puts, 1);
        assert_eq!(r.gets, 1);
        assert_eq!(r.atomics, 1);
        assert_eq!(r.flushes, 1);
        assert_eq!(r.local_ops, 2);
        assert_eq!(r.bytes_put, 64);
        assert_eq!(r.bytes_get, 128);
        assert_eq!(r.collectives, 1);
        assert_eq!(r.coll_bytes, 32);
        assert_eq!(r.messages(), 4);
        assert_eq!(r.bytes(), 64 + 128 + 32);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = RankReport {
            puts: 1,
            sim_time_ns: 5.0,
            ..Default::default()
        };
        let b = RankReport {
            puts: 2,
            sim_time_ns: 3.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.puts, 3);
        assert_eq!(a.sim_time_ns, 5.0);
    }
}
