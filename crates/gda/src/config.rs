//! GDA configuration and window layout.
//!
//! GDA uses four symmetric windows per rank (§5.5 describes the first
//! three; the fourth hosts the internal DHT index of §5.7):
//!
//! | window | contents |
//! |---|---|
//! | **data**   | the BGDL block pool: `blocks_per_rank` fixed-size blocks |
//! | **usage**  | the free-list links: word *i* = next free block after *i* |
//! | **system** | word 0 = tagged free-list head; word *i* = RW lock of block *i*; then the commit-stamp counter (persistence), the topology-epoch word (OLAP scan views), the commit-epoch counter + read-epoch watermark (rank 0, MVCC) and the per-rank min-active-snapshot word |
//! | **index**  | DHT: word 0 = tagged heap free head; word 1 = epoch word (`delete:32 \| insert:32`); buckets; 3-word heap entries |

use rma::{BackendKind, CostModel, Fabric, FabricBuilder, WinId};

/// Window id of the data window.
pub const WIN_DATA: WinId = WinId(0);
/// Window id of the usage (free-list) window.
pub const WIN_USAGE: WinId = WinId(1);
/// Window id of the system (head + locks) window.
pub const WIN_SYSTEM: WinId = WinId(2);
/// Window id of the internal-index (DHT) window.
pub const WIN_INDEX: WinId = WinId(3);

/// Tunable GDA parameters.
#[derive(Debug, Clone, Copy)]
pub struct GdaConfig {
    /// BGDL block size in bytes (tunable communication/storage tradeoff,
    /// §5.5). Must be a multiple of 8 and at least 64.
    pub block_size: usize,
    /// Number of blocks in each rank's data window (block 0 is reserved so
    /// that offset 0 can serve as the null `DPtr`).
    pub blocks_per_rank: usize,
    /// Buckets of the internal DHT per rank.
    pub dht_buckets_per_rank: usize,
    /// Heap entries (3 words each) of the internal DHT per rank.
    pub dht_heap_per_rank: usize,
    /// Maximum resident entries of the per-rank, epoch-validated
    /// app-id → `DPtr` translation cache in front of `Dht::lookup` (see
    /// `gda::cache`).
    pub translation_cache_capacity: usize,
}

impl Default for GdaConfig {
    fn default() -> Self {
        Self {
            block_size: 512,
            blocks_per_rank: 8192,
            dht_buckets_per_rank: 4096,
            dht_heap_per_rank: 8192,
            translation_cache_capacity: 8192,
        }
    }
}

impl GdaConfig {
    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            block_size: 128,
            blocks_per_rank: 256,
            dht_buckets_per_rank: 64,
            dht_heap_per_rank: 256,
            translation_cache_capacity: 128,
        }
    }

    /// Size a configuration to hold roughly `vertices` vertices and `edges`
    /// edge records per rank with property payload `payload_hint` bytes per
    /// vertex.
    pub fn sized_for(vertices: usize, edges: usize, payload_hint: usize) -> Self {
        let mut cfg = Self::default();
        let per_vertex = 80 + payload_hint + 8;
        let edge_bytes = edges * crate::holder::EDGE_RECORD_BYTES * 2;
        let bytes = vertices * per_vertex + edge_bytes;
        // ×3 headroom for version-chain archives: each is the undo of one
        // overwrite (`holder::Archive`, usually one block, up to the whole
        // previous version when an overwrite rewrote all of it), kept
        // until the snapshot floor passes it. The headroom costs address space, not memory:
        // a window page is resident only once a block in it has been
        // written
        let blocks = (bytes / (cfg.block_size - 16)).max(64) * 3 + vertices * 2;
        cfg.blocks_per_rank = blocks.next_power_of_two();
        cfg.dht_buckets_per_rank = (vertices.max(16)).next_power_of_two();
        cfg.dht_heap_per_rank = (vertices.max(16) * 2).next_power_of_two();
        cfg.translation_cache_capacity = (vertices.max(64) * 2).next_power_of_two();
        cfg
    }

    /// Validate invariants.
    pub fn validate(&self) {
        assert!(self.block_size >= 64, "block size too small");
        assert!(
            self.block_size.is_multiple_of(8),
            "block size must be word aligned"
        );
        assert!(self.blocks_per_rank >= 2, "need at least one usable block");
        assert!(self.dht_buckets_per_rank >= 1);
        assert!(self.dht_heap_per_rank >= 1);
    }

    /// Bytes of the data window.
    pub fn data_bytes(&self) -> usize {
        (self.blocks_per_rank + 1) * self.block_size
    }

    /// Bytes of the usage window.
    pub fn usage_bytes(&self) -> usize {
        (self.blocks_per_rank + 1) * 8
    }

    /// Bytes of the system window (head word + one lock word per block +
    /// the commit-stamp counter word + the topology-epoch word + the
    /// commit-epoch counter + the read-epoch watermark + the per-rank
    /// min-active-snapshot word + the per-rank watermark shadow).
    pub fn system_bytes(&self) -> usize {
        (self.blocks_per_rank + 7) * 8
    }

    /// System-window word index of the per-rank **commit-stamp
    /// counter**: a monotone counter the persistence layer `fadd`s to
    /// version every persisted holder write, making object versions
    /// strictly monotone across delete/recreate incarnations (the
    /// redo-replay ordering authority; see `gda::persist`).
    pub fn stamp_word(&self) -> usize {
        self.blocks_per_rank + 1
    }

    /// System-window word index of the per-rank **topology-epoch
    /// counter**: bumped once per commit (and once per collective bulk
    /// load) on every rank whose window received a *topology* change —
    /// vertex created/deleted or an edge list mutated. Property- and
    /// vertex-label-only commits leave it alone. The epoch stamp that
    /// validates cached OLAP scan views (see `gda::scan`): a view built
    /// from rank `r`'s raw windows is trustworthy exactly while `r`'s
    /// topology word is unchanged.
    pub fn topo_word(&self) -> usize {
        self.blocks_per_rank + 2
    }

    /// System-window word index of the **commit-epoch counter** (live on
    /// rank 0 only): every local read-write commit `fadd`s it to allocate
    /// its commit epoch `e`. Collective (bulk-load) transactions allocate
    /// no epoch — their holders stay at epoch 0, visible to every
    /// snapshot.
    pub fn epoch_counter_word(&self) -> usize {
        self.blocks_per_rank + 3
    }

    /// System-window word index of the global **read-epoch watermark**
    /// (live on rank 0 only): the highest commit epoch whose writes —
    /// and those of *all* lower epochs — are fully flushed. Commits
    /// publish their epoch in order (spin until `W == e-1`, then CAS),
    /// so a snapshot pinned at `s = W` observes the exact committed
    /// state as of epoch `s`.
    pub fn watermark_word(&self) -> usize {
        self.blocks_per_rank + 4
    }

    /// System-window word index of this rank's **min-active-snapshot**
    /// word: the smallest snapshot epoch any live read-only transaction
    /// on the rank has pinned. `u64::MAX` = none active; `0` = a pin is
    /// in progress (registration marker — a reclaim skips the round).
    /// An archive reclaim takes the minimum over all ranks (and the
    /// watermark) as the version-retention floor.
    pub fn snap_word(&self) -> usize {
        self.blocks_per_rank + 5
    }

    /// System-window word index of this rank's **watermark shadow**: a
    /// rank-local replica of the global read-epoch watermark. The
    /// in-order publication section refreshes every rank's shadow
    /// *before* the authoritative CAS on rank 0, so at any instant
    /// `shadow ≥ W` on every rank — which lets a snapshot pin read its
    /// local shadow (one local atomic instead of a remote round trip)
    /// and still pin an epoch no reclaim floor can have passed.
    /// Writers pay `P` shadow stores per commit; pins are free of
    /// network latency — the right trade for read-mostly traffic.
    pub fn wmark_shadow_word(&self) -> usize {
        self.blocks_per_rank + 6
    }

    /// Bytes of the index window (tagged heap head + epoch word + buckets
    /// + heap).
    pub fn index_bytes(&self) -> usize {
        (2 + self.dht_buckets_per_rank + 3 * (self.dht_heap_per_rank + 1)) * 8
    }

    /// Build a fabric with the four GDA windows registered. The execution
    /// backend follows the process default (`GDI_FABRIC_BACKEND`, else
    /// simulated); use [`GdaConfig::build_fabric_on`] to pin one.
    pub fn build_fabric(&self, nranks: usize, cost: CostModel) -> Fabric {
        self.validate();
        self.fabric_builder(nranks, cost).build()
    }

    /// Like [`GdaConfig::build_fabric`] but pinned to an explicit fabric
    /// execution backend, ignoring `GDI_FABRIC_BACKEND`.
    pub fn build_fabric_on(&self, nranks: usize, cost: CostModel, backend: BackendKind) -> Fabric {
        self.validate();
        self.fabric_builder(nranks, cost).backend(backend).build()
    }

    /// Like [`GdaConfig::build_fabric`] with an optional backend pin and
    /// an optional shared fault-injection plane (see [`crate::faults`]):
    /// the shape [`crate::persist::recover`] uses so the fabric it boots
    /// probes the same registry as the persistence store.
    pub fn build_fabric_shared(
        &self,
        nranks: usize,
        cost: CostModel,
        backend: Option<BackendKind>,
        faults: Option<std::sync::Arc<rma::FaultPlane>>,
    ) -> Fabric {
        self.validate();
        let mut b = self.fabric_builder(nranks, cost);
        if let Some(backend) = backend {
            b = b.backend(backend);
        }
        if let Some(plane) = faults {
            b = b.faults(plane);
        }
        b.build()
    }

    fn fabric_builder(&self, nranks: usize, cost: CostModel) -> FabricBuilder {
        FabricBuilder::new(nranks)
            .cost(cost)
            .window(self.data_bytes())
            .window(self.usage_bytes())
            .window(self.system_bytes())
            .window(self.index_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        GdaConfig::default().validate();
        GdaConfig::tiny().validate();
    }

    #[test]
    fn window_sizing() {
        let c = GdaConfig::tiny();
        assert_eq!(c.data_bytes(), 257 * 128);
        assert_eq!(c.usage_bytes(), 257 * 8);
        assert_eq!(c.system_bytes(), 263 * 8);
        assert_eq!(c.stamp_word(), 257);
        assert_eq!(c.topo_word(), 258);
        assert_eq!(c.epoch_counter_word(), 259);
        assert_eq!(c.watermark_word(), 260);
        assert_eq!(c.snap_word(), 261);
        assert_eq!(c.wmark_shadow_word(), 262);
        assert_eq!(c.index_bytes(), (2 + 64 + 3 * 257) * 8);
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn misaligned_block_size_rejected() {
        let c = GdaConfig {
            block_size: 100,
            ..GdaConfig::tiny()
        };
        c.validate();
    }

    #[test]
    fn fabric_builds_with_windows() {
        let c = GdaConfig::tiny();
        let f = c.build_fabric(2, CostModel::zero());
        assert_eq!(f.nranks(), 2);
        f.run(|ctx| {
            assert_eq!(ctx.win_len_bytes(WIN_DATA), c.data_bytes());
            assert_eq!(ctx.win_len_bytes(WIN_USAGE), c.usage_bytes());
            assert_eq!(ctx.win_len_bytes(WIN_SYSTEM), c.system_bytes());
            assert_eq!(ctx.win_len_bytes(WIN_INDEX), c.index_bytes());
        });
    }

    #[test]
    fn sized_for_scales_with_input() {
        let small = GdaConfig::sized_for(100, 1000, 32);
        let big = GdaConfig::sized_for(10_000, 100_000, 32);
        assert!(big.blocks_per_rank > small.blocks_per_rank);
        assert!(big.dht_buckets_per_rank > small.dht_buckets_per_rank);
    }
}
