//! Faults *during* recovery, and what a recovery leaves behind.
//!
//! A recovery reads every shard's snapshot chain and redo log before
//! the fabric exists, rebuilds the logical state on a fresh fabric and
//! commits only through its closing full checkpoint. So:
//!
//! * a flipped bit in a redo log ends that log's tail in front of the
//!   flipped frame — the recovered state equals a recovery of the same
//!   directory with that log cut there;
//! * an unreadable log, snapshot piece or manifest is a typed `Io`
//!   error that leaves the directory byte-identical, and a retry
//!   without the fault recovers the uninterrupted state;
//! * a failed closing checkpoint or redistribution fails the recovery
//!   with a typed error, leaves `CURRENT`, the snapshot directories and the logs
//!   byte-identical, and a second recovery equals the uninterrupted
//!   run — at the snapshot's own rank count too;
//! * a torn log tail the closing checkpoint fails to truncate is cut by
//!   the recovery, so the commits served after it survive the next
//!   crash;
//! * a recovery that crashes before it serves leaves a directory whose
//!   recovery equals it: recover, crash, recover equals recover;
//! * at the snapshot's own rank count the config stays the snapshot's;
//! * after a recovery, every rank's free blocks plus the blocks its
//!   live holders reach add up to the pool.
//!
//! Each case runs at `P ∈ {1, 2}` and, where the topology matters, at
//! one `Q ≠ P`; under both fabric backends (CI sets
//! `GDI_FABRIC_BACKEND`).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gda::faults::{self, FaultMode, FaultPlane};
use gda::persist::{audit_image, recover_with_topology, PersistOptions};
use gda::{GdaConfig, GdaDb};
use gdi::GdiError;
use gdi_tests::harness::{
    apply_ops, free_plus_live_blocks, install_ptype, read_state, reference_state, ReadState, WlOp,
};
use rma::CostModel;
use workloads::scratch::ScratchDir;

/// Application ids the script touches.
const IDS: u64 = 12;

/// Before the checkpoint: every vertex, a ring of edges, and three
/// rounds of updates, so each vertex carries archived versions into the
/// snapshot.
fn ops_before() -> Vec<WlOp> {
    (0..IDS)
        .map(WlOp::Create)
        .chain((0..IDS).map(|v| WlOp::AddEdge(v, (v + 1) % IDS)))
        .chain((0..3).flat_map(|r| (0..IDS).map(move |v| WlOp::SetProp(v, 100 * r + v))))
        .collect()
}

/// The redo tail: overwrites of vertices whose archives are in the
/// snapshot, more edges, a delete and a recreate.
fn ops_after() -> Vec<WlOp> {
    (0..IDS)
        .map(|v| WlOp::SetProp(v, 7_000 + v))
        .chain((0..IDS).map(|v| WlOp::AddEdge(v, (v + 5) % IDS)))
        .chain([WlOp::Delete(3), WlOp::Create(3), WlOp::SetProp(3, 33)])
        .collect()
}

fn all_ops() -> Vec<WlOp> {
    ops_before().into_iter().chain(ops_after()).collect()
}

/// The targets each case recovers onto from `p` ranks: the snapshot's
/// own rank count and one other.
fn targets(p: usize) -> [usize; 2] {
    [p, p + 1]
}

/// Run the script at `p` ranks with a checkpoint between its halves,
/// check the block pool while the database still serves, then crash.
fn crashed_dir(p: usize, cfg: GdaConfig, dir: &Path) {
    crash_after(p, cfg, dir, None);
}

/// [`crashed_dir`]; with `torn = Some(op)`, the crash then hits rank
/// `p - 1` mid-way through the redo append of `op` (routed there): a
/// torn frame ends that rank's log and `op` is not durable.
fn crash_after(p: usize, cfg: GdaConfig, dir: &Path, torn: Option<WlOp>) {
    let plane = FaultPlane::shared();
    let (db, fabric) = GdaDb::with_fabric("recovery-faults", cfg, p, CostModel::zero());
    db.enable_persistence(PersistOptions {
        faults: Some(plane.clone()),
        ..PersistOptions::new(dir)
    })
    .unwrap();
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = install_ptype(&eng);
        apply_ops(&eng, &ops_before(), ptype);
        eng.checkpoint().unwrap();
        apply_ops(&eng, &ops_after(), ptype);
        assert_eq!(
            free_plus_live_blocks(&eng),
            eng.cfg().blocks_per_rank,
            "the pool is whole before the crash"
        );
        if let Some(op) = torn {
            if ctx.rank() == 0 {
                plane.arm_at(
                    faults::REDO_APPEND,
                    Some(p - 1),
                    0,
                    1,
                    FaultMode::TornWrite(10),
                );
            }
            ctx.barrier();
            apply_ops(&eng, &[op], ptype);
        }
    });
    // drop: the crash
}

/// Recover `dir` onto `q` ranks through `opts`: rank 0's read state, or
/// the recovery's error.
fn recover_at(opts: PersistOptions, q: usize) -> Result<ReadState, GdiError> {
    let (db, fabric, recs) = recover_with_topology(opts, CostModel::zero(), Some(q))?;
    let mut per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = &recs[ctx.rank()];
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        assert_eq!(
            free_plus_live_blocks(&eng),
            eng.cfg().blocks_per_rank,
            "rank {} leaks or double-books blocks after recovery",
            ctx.rank()
        );
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        read_state(&eng, IDS, ptype)
    });
    Ok(per_rank.swap_remove(0))
}

/// Recover `dir` onto `q` ranks and read, without serving: rank 0's read
/// state and every rank's image audit (the objects it compared).
fn recovered_image(dir: &Path, q: usize) -> (ReadState, Vec<u64>) {
    let (db, fabric, _) =
        recover_with_topology(PersistOptions::new(dir), CostModel::zero(), Some(q)).unwrap();
    let per_rank = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let ptype = eng.meta().ptype_from_name("val").unwrap();
        (read_state(&eng, IDS, ptype), audit_image(&eng).unwrap())
    });
    let audits = per_rank.iter().map(|(_, n)| *n).collect();
    (per_rank.into_iter().next().unwrap().0, audits)
}

fn with_fault(dir: &Path, point: &str, rank: Option<usize>, mode: FaultMode) -> PersistOptions {
    let plane: Arc<FaultPlane> = FaultPlane::shared();
    plane.arm_at(point, rank, 0, 1, mode);
    PersistOptions {
        faults: Some(plane),
        ..PersistOptions::new(dir)
    }
}

/// Every file under `dir` with its bytes, sorted by path.
fn listing(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for e in fs::read_dir(&d).unwrap().flatten() {
            if e.path().is_dir() {
                dirs.push(e.path());
            } else {
                files.push((e.path(), fs::read(e.path()).unwrap()));
            }
        }
    }
    files.sort();
    files
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for e in fs::read_dir(src).unwrap().flatten() {
        let to = dst.join(e.file_name());
        if e.path().is_dir() {
            copy_dir(&e.path(), &to);
        } else {
            fs::copy(e.path(), &to).unwrap();
        }
    }
}

/// Start of the frame of `log` that holds byte `at`: frames are
/// `[payload_len u32][checksum u64][payload]`.
fn frame_start(log: &[u8], at: usize) -> usize {
    let mut pos = 0;
    loop {
        let len = u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 12 + len;
        if at < end {
            return pos;
        }
        pos = end;
    }
}

#[test]
fn redo_read_bitflip_equals_the_log_cut_before_the_flipped_frame() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let base = ScratchDir::new("rf-flip");
        crashed_dir(p, cfg, base.path());
        let log_rank = p - 1;
        let log_path = |dir: &Path| dir.join(format!("redo-rank-{log_rank}.log"));
        let log = fs::read(log_path(base.path())).unwrap();
        let at = log.len() / 2;
        let cut = frame_start(&log, at);
        assert!(cut > 0, "P={p}: the flip must leave a non-empty prefix");
        for q in targets(p) {
            // reference: the same directory, that log cut at the frame
            let reference = ScratchDir::new("rf-flip-ref");
            copy_dir(base.path(), reference.path());
            fs::write(log_path(reference.path()), &log[..cut]).unwrap();
            let want = recover_at(PersistOptions::new(reference.path()), q).unwrap();

            let work = ScratchDir::new("rf-flip-work");
            copy_dir(base.path(), work.path());
            let opts = with_fault(
                work.path(),
                faults::REDO_READ,
                Some(log_rank),
                FaultMode::BitFlip(at * 8 + 3),
            );
            let got = recover_at(opts, q).unwrap();
            assert_eq!(got, want, "P={p} Q={q}: the flipped frame's tail survived");
            assert_ne!(
                got,
                reference_state(p, cfg, &all_ops(), IDS),
                "P={p} Q={q}: the flip must cost the frames from it on"
            );
        }
    }
}

#[test]
fn read_errors_are_typed_and_leave_the_directory_untouched() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let want = reference_state(p, cfg, &all_ops(), IDS);
        for q in targets(p) {
            for (point, rank) in [
                (faults::REDO_READ, Some(p - 1)),
                (faults::SNAP_READ, Some(p - 1)),
                (faults::MANIFEST_READ, None),
            ] {
                let dir = ScratchDir::new("rf-read-error");
                crashed_dir(p, cfg, dir.path());
                let before = listing(dir.path());
                let opts = with_fault(dir.path(), point, rank, FaultMode::Error);
                let err = recover_at(opts, q).err();
                assert!(
                    matches!(err, Some(GdiError::Io(_))),
                    "P={p} Q={q} {point}: expected a typed I/O error, got {err:?}"
                );
                assert!(
                    listing(dir.path()) == before,
                    "P={p} Q={q} {point}: a failed recovery changed the directory"
                );
                let got = recover_at(PersistOptions::new(dir.path()), q).unwrap();
                assert_eq!(got, want, "P={p} Q={q} {point}: the retry diverged");
            }
        }
    }
}

/// A recovery commits only through its closing full checkpoint, at the
/// snapshot's own rank count as much as at another: a failure there, or
/// in the redistribution before it, fails the recovery with a typed
/// error and changes nothing on disk.
#[test]
fn a_failed_recovery_commit_fails_every_rank_and_changes_nothing() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let want = reference_state(p, cfg, &all_ops(), IDS);
        for point in [faults::SNAP_WRITE, faults::RESHARD_REDISTRIBUTE] {
            let dir = ScratchDir::new("rf-commit");
            crashed_dir(p, cfg, dir.path());
            let before = listing(dir.path());
            let opts = with_fault(dir.path(), point, Some(p - 1), FaultMode::Error);
            let err = recover_at(opts, p).err();
            assert!(
                matches!(err, Some(GdiError::Io(_))),
                "P={p} {point}: expected a typed I/O error, got {err:?}"
            );
            assert!(
                listing(dir.path()) == before,
                "P={p} {point}: CURRENT, a snapshot directory or a log changed"
            );
            let got = recover_at(PersistOptions::new(dir.path()), p).unwrap();
            assert_eq!(got, want, "P={p} {point}: the second recovery diverged");
        }
    }
}

/// A crash leaves a torn frame at the end of a log, and the recovery's
/// closing checkpoint then fails to truncate that log (`redo.rotate`).
/// The recovery still cuts the log to the prefix it replayed, so the
/// commits served after it land where the next replay reads them.
#[test]
fn a_torn_tail_behind_a_failed_truncation_strands_no_later_commit() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let torn_id = (0..IDS)
            .find(|&v| gda::owner_rank(gdi::AppVertexId(v), p) == p - 1)
            .unwrap();
        let base = ScratchDir::new("rf-torn");
        crash_after(p, cfg, base.path(), Some(WlOp::SetProp(torn_id, 99_999)));
        let later: Vec<WlOp> = (0..IDS).map(|v| WlOp::SetProp(v, 50_000 + v)).collect();
        let want = reference_state(p, cfg, &[all_ops(), later.clone()].concat(), IDS);
        let log = |dir: &Path| dir.join(format!("redo-rank-{}.log", p - 1));
        for q in targets(p) {
            let work = ScratchDir::new("rf-torn-work");
            copy_dir(base.path(), work.path());
            let opts = with_fault(
                work.path(),
                faults::REDO_ROTATE,
                Some(p - 1),
                FaultMode::Error,
            );
            let (db, fabric, recs) =
                recover_with_topology(opts, CostModel::zero(), Some(q)).unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                let rec = &recs[ctx.rank()];
                if ctx.rank() == p - 1 {
                    // the truncation failed; the cut kept the valid prefix
                    assert!(rec.log_bytes > 0, "P={p} Q={q}: {rec:?}");
                    let on_disk = fs::metadata(log(work.path())).unwrap().len();
                    assert_eq!(
                        on_disk, rec.log_bytes,
                        "P={p} Q={q}: the torn tail survived"
                    );
                }
                ctx.barrier();
                let ptype = eng.meta().ptype_from_name("val").unwrap();
                apply_ops(&eng, &later, ptype);
            });
            drop((db, fabric, recs)); // the second crash
            let got = recover_at(PersistOptions::new(work.path()), q).unwrap();
            assert_eq!(
                got, want,
                "P={p} Q={q}: commits after the recovery were lost"
            );
        }
    }
}

/// Recover, crash, recover equals recover: the database a recovery
/// returns is dropped without serving, and recovering the directory
/// again reads back the same state, with the same image audit on every
/// rank — onto the snapshot's own rank count and onto another.
#[test]
fn recover_crash_recover_equals_recover() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let base = ScratchDir::new("rf-twice");
        crashed_dir(p, cfg, base.path());
        let want = reference_state(p, cfg, &all_ops(), IDS);
        for q in targets(p) {
            let work = ScratchDir::new("rf-twice-work");
            copy_dir(base.path(), work.path());
            let first = recovered_image(work.path(), q);
            assert_eq!(first.0, want, "P={p} Q={q}: the first recovery diverged");
            assert!(
                first.1.iter().sum::<u64>() > 0,
                "P={p} Q={q}: audited nothing"
            );
            // the first recovery's database is dropped: the crash
            let second = recovered_image(work.path(), q);
            assert_eq!(second, first, "P={p} Q={q}: the second recovery differs");
        }
    }
}

/// At the snapshot's own rank count a recovery keeps the snapshot's
/// config, even when a rank's pool is more than half full: every object
/// stays on its rank, and the data fit there before.
#[test]
fn a_same_topology_recovery_keeps_the_config() {
    let mut cfg = GdaConfig::tiny();
    cfg.blocks_per_rank = 64;
    let per_rank = 40; // one block per created vertex
    for p in [1usize, 2] {
        let ids = (per_rank * p) as u64;
        let ops: Vec<WlOp> = (0..ids).map(WlOp::Create).collect();
        let dir = ScratchDir::new("rf-config");
        {
            let (db, fabric) = GdaDb::with_fabric("rf-config", cfg, p, CostModel::zero());
            db.enable_persistence(PersistOptions::new(dir.path()))
                .unwrap();
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let ptype = install_ptype(&eng);
                let (head, tail) = ops.split_at(ops.len() / 2);
                apply_ops(&eng, head, ptype);
                eng.checkpoint().unwrap();
                apply_ops(&eng, tail, ptype);
            });
        }
        let want = reference_state(p, cfg, &ops, ids);
        let (db, fabric, _) =
            recover_with_topology(PersistOptions::new(dir.path()), CostModel::zero(), None)
                .unwrap();
        assert_eq!(db.cfg.blocks_per_rank, cfg.blocks_per_rank, "P={p}");
        assert_eq!(db.cfg.dht_heap_per_rank, cfg.dht_heap_per_rank, "P={p}");
        let states = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let free = eng.audit_pool().unwrap().free;
            assert!(
                2 * (cfg.blocks_per_rank - free) > cfg.blocks_per_rank,
                "P={p}: rank {} must be more than half full, {free} of {} free",
                ctx.rank(),
                cfg.blocks_per_rank
            );
            let ptype = eng.meta().ptype_from_name("val").unwrap();
            read_state(&eng, ids, ptype)
        });
        assert_eq!(states[0], want, "P={p}");
    }
}

/// Every live holder, its archives and its heavy-edge holders are
/// reachable and every other block is free, on every rank, after a
/// recovery whose tail overwrote vertices with archives in the
/// snapshot (checked inside `recover_at`).
#[test]
fn recovery_keeps_the_block_pool_whole() {
    let cfg = GdaConfig::tiny();
    for p in [1usize, 2] {
        let base = ScratchDir::new("rf-pool");
        crashed_dir(p, cfg, base.path());
        for q in targets(p) {
            let work = ScratchDir::new("rf-pool-work");
            copy_dir(base.path(), work.path());
            recover_at(PersistOptions::new(work.path()), q).unwrap();
            // and once more from the recovery's own checkpoint
            recover_at(PersistOptions::new(work.path()), q).unwrap();
        }
    }
}
