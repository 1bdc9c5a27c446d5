//! Checkpoint I/O streams: the memory bound as a deterministic test.
//!
//! A counting global allocator (this file is its own test binary, so no
//! other suite runs under it) measures the peak of live heap bytes over
//! each persistence step of a database whose windows total ≥ 64 MiB:
//!
//! * a full checkpoint, a delta checkpoint and a verification of the
//!   published chain each stay within **4 MiB** of the level they
//!   started at — no window image, no file image, no per-chunk buffers;
//!   the delta seals, and the verification streams, a redo segment
//!   larger than that budget;
//! * a whole recovery — reading the chain back, replay, the fabric it
//!   boots, the closing checkpoint — stays within **1.5 × the windows +
//!   4 MiB**: the snapshot's records go straight into the object map (no
//!   window image is ever built), and no whole-file buffer or patch
//!   vector sits beside it;
//! * decoders handed counts far beyond what their input could back
//!   (checksum re-sealed, so the parser is reached) answer with a typed
//!   error — or, for a frame at the end of the live log, a torn tail —
//!   having allocated next to nothing.
//!
//! The tests share the process-wide counters, so they serialize on one
//! lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use gda::persist::{recover_with_topology, Checksum, PersistStore};
use gda::{GdaConfig, GdaDb, GdaRank, PersistOptions};
use gdi::{
    AccessMode, AppVertexId, Datatype, EntityType, GdiError, Multiplicity, PropertyValue, SizeType,
};
use rma::{CostModel, WinId};

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
    let td = TestDir::new("stream");
    let window_bytes = {
        let (db, fabric) = GdaDb::with_fabric("mem", cfg, 1, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&td.0)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            create_vertices(&eng, 0..20_000);
            let blob = eng
                .create_ptype(
                    "blob",
                    Datatype::Byte,
                    EntityType::Vertex,
                    Multiplicity::Single,
                    SizeType::NoLimit,
                    0,
                )
                .unwrap();

            let (id, peak) = peak_over(|| eng.checkpoint().unwrap());
            let report = store.last_checkpoint().unwrap();
            assert!(id == 1 && report.full);
            assert!(report.per_rank_bytes[0] as usize > MIB, "{report:?}");
            assert!(peak <= STREAM_BUDGET, "full checkpoint held {peak} bytes");

            // 3 000 creates carrying a 2 KiB blob each: a segment larger
            // than the budget the delta and the verification stay within
            let payload = PropertyValue::Bytes(vec![0x5A; 2048]);
            for batch in (20_000..23_000).collect::<Vec<u64>>().chunks(100) {
                let tx = eng.begin(AccessMode::ReadWrite);
                for id in batch {
                    let v = tx.create_vertex(AppVertexId(*id)).unwrap();
                    tx.add_property(v, blob, &payload).unwrap();
                }
                tx.commit().unwrap();
            }
            let (id, peak) = peak_over(|| eng.checkpoint().unwrap());
            let report = store.last_checkpoint().unwrap();
            assert!(id == 2 && !report.full);
            // the delta sealed the creates' frames and wrote its manifest
            // alone
            let segment = std::fs::metadata(td.0.join("ckpt-2/redo-rank-0.seg")).unwrap();
            assert!(segment.len() as usize > STREAM_BUDGET, "{segment:?}");
            assert!(report.per_rank_bytes[0] < 4096, "{report:?}");
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
            // the engine's four windows (`gda::config`)
            (0..4).map(|w| ctx.win_len_bytes(WinId(w))).sum::<usize>()
        })[0]
    };
    assert!(window_bytes >= 64 * MIB);
    // the whole recovery: read the base's records and the redo history,
    // replay onto the objects, build the fabric, materialize, take the
    // closing full checkpoint
    let (rec, peak) = peak_over(|| {
        let (db, fabric, mut recs) =
            recover_with_topology(PersistOptions::new(&td.0), CostModel::zero(), None).unwrap();
        assert_eq!(recs[0].snapshot_id, 2);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let tx = eng.begin(AccessMode::ReadOnly);
            for id in [0u64, 19_999, 22_999, 23_499] {
                tx.translate_vertex_id(AppVertexId(id)).unwrap();
            }
            tx.commit().unwrap();
        });
        recs.pop().expect("one rank")
    });
    assert_eq!(rec.errors, 0);
    assert!(rec.records > 0 && rec.final_checkpoint == 3);
    eprintln!("recovery peak: {peak} bytes for {window_bytes} bytes of windows");
    // no window image beside the windows
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
    let (_, _, mut recs) =
        recover_with_topology(PersistOptions::new(dir), CostModel::zero(), None)?;
    Ok(recs.pop().expect("one rank"))
}

/// Byte offsets into the v11 layouts (`docs/ARCHITECTURE.md`).
mod layout {
    /// Snapshot header: magic, version, id, rank, nranks.
    pub const SNAP_HEADER: usize = 8 + 4 + 8 + 4 + 4;
    /// The first record's holder length (`u32`), after its primary.
    pub const FIRST_RECORD_LEN: usize = SNAP_HEADER + 8;
    /// The record count (`u64`), this many bytes before the file's end:
    /// it and the trailing checksum.
    pub const RECORD_COUNT_FROM_END: usize = 8 + 8;
    /// Manifest: magic, version, id, then the name (`u32` length +
    /// bytes), the rank count and the chain length (`u32`).
    pub fn manifest_chain_len(name: &str) -> usize {
        8 + 4 + 8 + 4 + name.len() + 4
    }
    /// Redo frame: length, checksum; the payload's generation, then its
    /// record count (`u32`).
    pub const FRAME_RECORD_COUNT: usize = 4 + 8 + 8;
}

/// A one-rank database with a labelled index, checkpointed into the
/// chain `[1 (full), 2 (delta)]` — the delta's segment holds the frame
/// of 2 creates — with a live log (2 more creates) behind it.
fn small_chain(td: &TestDir) -> Arc<PersistStore> {
    let (db, fabric) = GdaDb::with_fabric("h", GdaConfig::tiny(), 1, CostModel::zero());
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
    assert_eq!(store.chain(), vec![1, 2]);
    store
}

#[test]
fn hostile_counts_are_refused_before_anything_is_allocated_for_them() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let td = TestDir::new("hostile");
    small_chain(&td);
    let full = td.0.join("ckpt-1/rank-0.snap");
    let manifest = td.0.join("ckpt-2/manifest.bin");
    // every window of this database is < 64 KiB: a parse that stays
    // within a few strips of memory allocated nothing for the counts
    // planted below, each of which claims ≥ 256 MiB
    let budget = 2 * MIB;
    let snapshot_len = std::fs::metadata(&full).unwrap().len() as usize;
    // the image's posting section: [indexes u32][id u32][count u64]
    // [10 labelled vertices × 16], then [record count u64][trailer 8]
    let posting_count = snapshot_len - layout::RECORD_COUNT_FROM_END - 10 * 16 - 8;
    let cases: [(&str, &Path, usize, Vec<u8>); 5] = [
        (
            "record length",
            &full,
            layout::FIRST_RECORD_LEN,
            (1u32 << 28).to_le_bytes().to_vec(),
        ),
        (
            "record count",
            &full,
            snapshot_len - layout::RECORD_COUNT_FROM_END,
            (1u64 << 28).to_le_bytes().to_vec(),
        ),
        (
            "posting count",
            &full,
            posting_count,
            (1u64 << 28).to_le_bytes().to_vec(),
        ),
        (
            "index count",
            &full,
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

    // a redo frame claiming 2²⁸ records is a corrupt frame: the parser
    // stops in front of it instead of reserving room. At the end of the
    // live log that is a torn tail — the history ends there, the log is
    // cut there and nothing behind it replays. Inside a sealed segment
    // it is corruption of checkpointed commits — recovery refuses with a
    // typed error and leaves the directory as it found it.
    for file in ["ckpt-2/redo-rank-0.seg", "redo-rank-0.log"] {
        let td = TestDir::new("hostile-frame");
        small_chain(&td);
        let path = td.0.join(file);
        let mut frames = std::fs::read(&path).unwrap();
        let at = layout::FRAME_RECORD_COUNT;
        frames[at..at + 4].copy_from_slice(&(1u32 << 28).to_le_bytes());
        let payload_len = u32::from_le_bytes(frames[..4].try_into().unwrap()) as usize;
        let sum = Checksum::of(&frames[12..12 + payload_len]);
        frames[4..12].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, frames).unwrap();
        let before = listing(&td.0);
        let (outcome, peak) = peak_over(|| recover_and_restore(&td.0));
        if file.ends_with(".seg") {
            assert!(
                matches!(&outcome, Err(GdiError::Io(e)) if e.contains("sealed redo segment")),
                "{file}: expected a typed I/O error, got {outcome:?}"
            );
            assert!(
                listing(&td.0) == before,
                "a refused recovery changed the directory"
            );
        } else {
            let rec = outcome.expect("a torn live log ends the history, it is not a failure");
            assert_eq!(
                rec.records, 2,
                "{file}: the segment replays, the live log does not"
            );
        }
        assert!(peak <= budget, "{file}: redo parsing held {peak} bytes");
    }
}

/// Every file under `dir` with its bytes, sorted by path.
fn listing(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for e in std::fs::read_dir(&d).unwrap().flatten() {
            if e.path().is_dir() {
                dirs.push(e.path());
            } else {
                files.push((e.path(), std::fs::read(e.path()).unwrap()));
            }
        }
    }
    files.sort();
    files
}
