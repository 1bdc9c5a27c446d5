//! Checkpoint I/O streams: the memory bound as a deterministic test.
//!
//! A counting global allocator (this file is its own test binary, so no
//! other suite runs under it) measures the peak of live heap bytes over
//! each persistence step of a database whose windows total ≥ 64 MiB:
//!
//! * a full checkpoint, a delta checkpoint and a verification of the
//!   published chain each stay within **4 MiB** of the level they
//!   started at — no window image, no file image, no per-chunk buffers;
//! * a whole recovery — reading the chain back, replay, the fabric it
//!   boots, the closing checkpoint — stays within **1.5 × the windows +
//!   4 MiB**: the snapshot images are dropped before the fabric
//!   allocates its windows, and no whole-file buffer or patch vector
//!   sits beside either;
//! * decoders handed counts far beyond what their input could back
//!   (checksum re-sealed, so the parser is reached) answer with a typed
//!   error having allocated next to nothing.
//!
//! The tests share the process-wide counters, so they serialize on one
//! lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gda::persist::{recover, Checksum, PersistStore};
use gda::{GdaConfig, GdaDb, GdaRank, PersistOptions};
use gdi::{AccessMode, AppVertexId, GdiError};
use rma::CostModel;

/// Live and peak heap bytes of the whole process.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters beside the
// calls touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and this allocator is `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the tests of this binary: the counters are process-wide.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const MIB: usize = 1 << 20;
/// What a streaming step may hold: two strip-sized buffers and change.
const STREAM_BUDGET: usize = 4 * MIB;

/// Run `f`; return its result and by how much the live heap peaked
/// above the level `f` started at.
fn peak_over<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// A unique, self-cleaning persistence directory for one test.
struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gda-ckpt-memory-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn create_vertices(eng: &GdaRank, ids: std::ops::Range<u64>) {
    let ids: Vec<u64> = ids.collect();
    for batch in ids.chunks(500) {
        let tx = eng.begin(AccessMode::ReadWrite);
        for id in batch {
            tx.create_vertex(AppVertexId(*id)).unwrap();
        }
        tx.commit().unwrap();
    }
}

#[test]
fn checkpoint_verify_and_restore_stream_through_bounded_memory() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // data 64 MiB + usage 1 MiB + system 1 MiB + a small index window
    let cfg = GdaConfig {
        block_size: 512,
        blocks_per_rank: 128 * 1024,
        dht_buckets_per_rank: 8 * 1024,
        dht_heap_per_rank: 32 * 1024,
        ..GdaConfig::tiny()
    };
    let window_bytes =
        cfg.data_bytes() + cfg.usage_bytes() + cfg.system_bytes() + cfg.index_bytes();
    assert!(window_bytes >= 64 * MIB);
    let td = TestDir::new("stream");
    {
        let (db, fabric) = GdaDb::with_fabric("mem", cfg, 1, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            create_vertices(&eng, 0..20_000);

            let (id, peak) = peak_over(|| eng.checkpoint().unwrap());
            let report = store.last_checkpoint().unwrap();
            assert!(id == 1 && report.full);
            assert!(report.per_rank_bytes[0] as usize > MIB, "{report:?}");
            assert!(peak <= STREAM_BUDGET, "full checkpoint held {peak} bytes");

            create_vertices(&eng, 20_000..23_000);
            let (id, peak) = peak_over(|| eng.checkpoint().unwrap());
            let report = store.last_checkpoint().unwrap();
            assert!(id == 2 && !report.full);
            assert!(report.per_rank_chunks[0] >= 3_000, "{report:?}");
            assert!(peak <= STREAM_BUDGET, "delta checkpoint held {peak} bytes");

            let ((bytes, errors), peak) = peak_over(|| store.verify_chain(0));
            assert_eq!(errors, 0);
            assert!(bytes as usize > MIB);
            assert!(
                peak <= STREAM_BUDGET,
                "chain verification held {peak} bytes"
            );

            // a redo tail for the recovery below
            create_vertices(&eng, 23_000..23_500);
        });
    }
    // the whole recovery: fold the chain into one image per window,
    // read the tail, lift and replay the objects, drop the images, build
    // the fabric, materialize, take the closing full checkpoint
    let (rec, peak) = peak_over(|| {
        let (db, fabric, plan) = recover(PersistOptions::new(&td.0), CostModel::zero()).unwrap();
        assert_eq!(plan.snapshot_id(), 2);
        let mut recs = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let rec = plan.restore_rank(&eng).unwrap();
            let tx = eng.begin(AccessMode::ReadOnly);
            for id in [0u64, 19_999, 22_999, 23_499] {
                tx.translate_vertex_id(AppVertexId(id)).unwrap();
            }
            tx.commit().unwrap();
            rec
        });
        recs.pop().expect("one rank")
    });
    assert_eq!(rec.errors, 0);
    assert!(rec.records > 0 && rec.final_checkpoint == 3);
    eprintln!("recovery peak: {peak} bytes for {window_bytes} bytes of windows");
    // the images and the windows never coexist
    assert!(
        peak <= window_bytes * 3 / 2 + STREAM_BUDGET,
        "recovery held {peak} bytes for {window_bytes} bytes of windows"
    );
}

/// Overwrite `value` at byte `at` of the snapshot or manifest at `path`
/// and re-seal its trailing checksum.
fn plant(path: &Path, at: usize, value: &[u8]) -> Vec<u8> {
    let pristine = std::fs::read(path).unwrap();
    let mut file = pristine.clone();
    file[at..at + value.len()].copy_from_slice(value);
    let body = file.len() - 8;
    let sum = Checksum::of(&file[..body]);
    file[body..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, file).unwrap();
    pristine
}

/// Recover from `dir` and restore its single rank.
fn recover_and_restore(dir: &Path) -> Result<gda::RankRecovery, GdiError> {
    let (db, fabric, plan) = recover(PersistOptions::new(dir), CostModel::zero())?;
    let db: Arc<GdaDb> = db;
    fabric
        .run(|ctx| plan.restore_rank(&db.attach(ctx)))
        .pop()
        .expect("one rank")
}

/// Byte offsets into the v7 layouts (`docs/ARCHITECTURE.md`).
mod layout {
    /// Snapshot header: magic, version, id, rank, nranks, config, kind.
    pub const SNAP_HEADER: usize = 8 + 4 + 8 + 4 + 4 + 58 + 1;
    /// A full image's first window length (`u64`).
    pub const FULL_FIRST_WINDOW_LEN: usize = SNAP_HEADER;
    /// A delta's first window: base id and chunk size come first, the
    /// window length (`u64`) precedes the run count (`u32`).
    pub const DELTA_FIRST_RUN_COUNT: usize = SNAP_HEADER + 8 + 4 + 8;
    /// Manifest: magic, version, id, then the name (`u32` length +
    /// bytes), the rank count and the chain length (`u32`).
    pub fn manifest_chain_len(name: &str) -> usize {
        8 + 4 + 8 + 4 + name.len() + 4
    }
    /// Redo frame: length, checksum; the payload's generation, then its
    /// record count (`u32`).
    pub const FRAME_RECORD_COUNT: usize = 4 + 8 + 8;
}

#[test]
fn hostile_counts_are_refused_before_anything_is_allocated_for_them() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = GdaConfig::tiny();
    let td = TestDir::new("hostile");
    let store: Arc<PersistStore> = {
        let (db, fabric) = GdaDb::with_fabric("h", cfg, 1, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let node = eng.create_label("Node").unwrap();
            eng.create_index("nodes", vec![node], vec![]).unwrap();
            let tx = eng.begin(AccessMode::ReadWrite);
            for id in 0..10 {
                let v = tx.create_vertex(AppVertexId(id)).unwrap();
                tx.add_label(v, node).unwrap();
            }
            tx.commit().unwrap();
            assert_eq!(eng.checkpoint().unwrap(), 1);
            create_vertices(&eng, 10..12);
            assert_eq!(eng.checkpoint().unwrap(), 2);
            create_vertices(&eng, 12..14);
        });
        store
    };
    assert_eq!(store.chain(), vec![1, 2]);
    let full = td.0.join("ckpt-1/rank-0.snap");
    let delta = td.0.join("ckpt-2/rank-0.snap");
    let manifest = td.0.join("ckpt-2/manifest.bin");
    let log = td.0.join("redo-rank-0.log");
    // every window of this database is < 64 KiB: a parse that stays
    // within a few strips of memory allocated nothing for the counts
    // planted below, each of which claims ≥ 256 MiB
    let budget = 2 * MIB;
    let snapshot_len = std::fs::metadata(&delta).unwrap().len() as usize;
    // the delta's posting section: [indexes u32][id u32][count u64]
    // [10 labelled vertices × 16][trailer 8]
    let posting_count = snapshot_len - 8 - 10 * 16 - 8;
    let cases: [(&str, &Path, usize, Vec<u8>); 5] = [
        (
            "window length",
            &full,
            layout::FULL_FIRST_WINDOW_LEN,
            (1u64 << 40).to_le_bytes().to_vec(),
        ),
        (
            "delta run count",
            &delta,
            layout::DELTA_FIRST_RUN_COUNT,
            u32::MAX.to_le_bytes().to_vec(),
        ),
        (
            "posting count",
            &delta,
            posting_count,
            (1u64 << 28).to_le_bytes().to_vec(),
        ),
        (
            "index count",
            &delta,
            posting_count - 8,
            (1u32 << 28).to_le_bytes().to_vec(),
        ),
        (
            "manifest chain length",
            &manifest,
            layout::manifest_chain_len("h"),
            (1u32 << 28).to_le_bytes().to_vec(),
        ),
    ];
    for (what, path, at, value) in cases {
        let pristine = plant(path, at, &value);
        let (outcome, peak) = peak_over(|| recover_and_restore(&td.0));
        std::fs::write(path, pristine).unwrap();
        assert!(
            matches!(outcome, Err(GdiError::Io(_))),
            "{what}: expected a typed I/O error, got {outcome:?}"
        );
        assert!(peak <= budget, "{what}: parsing held {peak} bytes");
    }

    // a redo frame claiming 2²⁸ records is a corrupt frame: replay stops
    // in front of it (and truncates it away) instead of reserving room
    let mut frames = std::fs::read(&log).unwrap();
    let at = layout::FRAME_RECORD_COUNT;
    frames[at..at + 4].copy_from_slice(&(1u32 << 28).to_le_bytes());
    let payload_len = u32::from_le_bytes(frames[..4].try_into().unwrap()) as usize;
    let sum = Checksum::of(&frames[12..12 + payload_len]);
    frames[4..12].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&log, frames).unwrap();
    let (outcome, peak) = peak_over(|| recover_and_restore(&td.0));
    let rec = outcome.expect("a corrupt log frame is a torn tail, not a failure");
    assert_eq!((rec.records, rec.log_bytes), (0, 0));
    assert!(peak <= budget, "redo parsing held {peak} bytes");
}
