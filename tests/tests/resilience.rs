//! Service-layer resilience regression tests: degraded read-only mode
//! (entered on a failed checkpoint or an erroring store, exited by the
//! next successful checkpoint), per-op deadlines, and idempotent retry
//! over the dedup window — all driven through injected faults on the
//! shared fault plane (`gda::faults`).

use std::sync::Arc;
use std::time::Duration;

use gda::faults::{self, FaultMode, PERSISTENT};
use gda::persist::PersistOptions;
use gda::{GdaConfig, GdaDb};
use gdi::AppVertexId;
use rma::{CostModel, Fabric};
use server::{GdiServer, Op, OpOutcome, OpReply, ServerOptions, SubmitError};
use workloads::scratch::ScratchDir;

fn add(v: u64) -> Op {
    Op::AddVertex {
        v: AppVertexId(v),
        label: None,
        prop: None,
    }
}

fn count(v: u64) -> Op {
    Op::CountEdges { v: AppVertexId(v) }
}

/// Boot a tiny persistence-enabled database and serve it while `body`
/// drives sessions against the server.
fn with_server(
    name: &str,
    dir: Option<&std::path::Path>,
    opts: ServerOptions,
    body: impl FnOnce(&GdiServer, &Arc<GdaDb>),
) {
    let cfg = GdaConfig::tiny();
    let nranks = 2;
    let db = GdaDb::new(name, cfg, nranks);
    if let Some(dir) = dir {
        db.enable_persistence(PersistOptions::new(dir))
            .expect("fresh persistence dir");
    }
    let fabric = cfg.build_fabric(nranks, CostModel::zero());
    fabric.run(|ctx| {
        db.attach(ctx).init_collective();
    });
    let srv = GdiServer::new(db.clone(), opts);
    serve(&srv, fabric, || body(&srv, &db));
}

/// Serve `srv` on `fabric` while `body` drives it. The serve loops end
/// even when `body` panics, so a failed assertion fails the test
/// instead of hanging it.
fn serve<T>(srv: &GdiServer, fabric: Fabric, body: impl FnOnce() -> T) -> T {
    std::thread::scope(|scope| {
        let ranks = scope.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
        outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// A failed collective checkpoint (injected manifest-write fault) must
/// flip the server into degraded read-only mode: reads keep serving with
/// zero aborts, writes are rejected with the typed [`SubmitError::ReadOnly`],
/// and the first *successful* checkpoint exits degradation.
#[test]
fn failed_checkpoint_degrades_to_read_only_until_checkpoint_succeeds() {
    let dir = ScratchDir::new("resilience-degraded");
    with_server(
        "degraded",
        Some(dir.path()),
        ServerOptions::default(),
        |srv, db| {
            let session = srv.session();
            for v in 1..=8 {
                assert!(matches!(
                    session.execute(add(v)),
                    Ok(OpOutcome::Committed(_))
                ));
            }
            srv.checkpoint().expect("healthy checkpoint");
            assert!(!srv.degraded());

            // every manifest write on rank 0 now fails: the next
            // checkpoint vote aborts on all ranks
            let store = db.persistence().expect("persistence enabled");
            store.fault_plane().arm_at(
                faults::MANIFEST_WRITE,
                Some(0),
                0,
                PERSISTENT,
                FaultMode::Error,
            );
            assert!(srv.checkpoint().is_err());
            assert!(srv.degraded(), "failed checkpoint must degrade");

            // reads keep serving — zero read aborts
            for v in 1..=8 {
                assert_eq!(
                    session.execute(count(v)).expect("reads pass admission"),
                    OpOutcome::Committed(OpReply::Count(0)),
                    "degraded reads must not abort"
                );
            }
            // writes are rejected with the typed error, unexecuted
            assert!(matches!(
                session.execute(add(99)),
                Err(SubmitError::ReadOnly)
            ));
            let m = srv.metrics();
            assert!(m.degraded);
            assert_eq!(m.degraded_entries, 1);
            assert!(m.write_rejects >= 1, "{m:?}");
            assert!(m.fault_hits >= 1, "injected fault must be visible");

            // the repaired store exits degradation on the next
            // successful checkpoint; writes are accepted again
            store.fault_plane().disarm_all();
            srv.checkpoint().expect("checkpoint after repair");
            assert!(!srv.degraded());
            assert!(matches!(
                session.execute(add(99)),
                Ok(OpOutcome::Committed(_))
            ));
        },
    );
}

/// Redo-log append errors observed on the store (commits whose
/// durability silently failed) must also degrade the server — and the
/// exit checkpoint captures the lost tail in a fresh full image, even
/// with a chain it could extend (a delta would seal a log without the
/// lost commit): after a crash, recovery finds it.
#[test]
fn store_write_errors_degrade_to_read_only() {
    let dir = ScratchDir::new("resilience-logerr");
    with_server(
        "logerr",
        Some(dir.path()),
        ServerOptions::default(),
        |srv, db| {
            let session = srv.session();
            assert!(matches!(
                session.execute(add(1)),
                Ok(OpOutcome::Committed(_))
            ));
            assert!(srv.checkpoint().expect("the base").full);
            let store = db.persistence().expect("persistence enabled");
            store
                .fault_plane()
                .arm_at(faults::REDO_APPEND, None, 0, PERSISTENT, FaultMode::Error);
            // this commit lands in memory but its redo append fails;
            // the serve loop's health observer must notice the error
            assert!(matches!(
                session.execute(add(2)),
                Ok(OpOutcome::Committed(_))
            ));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !srv.degraded() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(srv.degraded(), "store errors must degrade the server");
            assert!(matches!(
                session.execute(add(3)),
                Err(SubmitError::ReadOnly)
            ));
            assert!(matches!(
                session.execute(count(1)),
                Ok(OpOutcome::Committed(_))
            ));
            // repair + checkpoint: the image covers the lost tail,
            // degradation exits, writes flow again
            store.fault_plane().disarm_all();
            let exit = srv.checkpoint().expect("exit checkpoint");
            assert!(exit.full, "a lost append forces a full image");
            assert!(!srv.degraded());
            assert!(matches!(
                session.execute(add(3)),
                Ok(OpOutcome::Committed(_))
            ));
        },
    );
    // the crash: recovery finds the commit whose append failed, and the
    // one logged after the exit checkpoint
    let (srv, fabric) = GdiServer::recover(
        PersistOptions::new(dir.path()),
        CostModel::zero(),
        ServerOptions::default(),
    )
    .expect("recover");
    serve(&srv, fabric, || {
        let session = srv.session();
        for v in 1..=3 {
            let reply = session.execute(count(v));
            assert!(
                matches!(reply, Ok(OpOutcome::Committed(OpReply::Count(0)))),
                "vertex {v} lost: {reply:?}"
            );
        }
    });
}

/// A retried idempotency token must never double-apply: the serving
/// rank answers the retry from the dedup window instead of re-executing.
#[test]
fn idempotent_retry_never_double_applies() {
    with_server("idem", None, ServerOptions::default(), |srv, _db| {
        let session = srv.session();
        for v in [1, 2] {
            assert!(matches!(
                session.execute(add(v)),
                Ok(OpOutcome::Committed(_))
            ));
        }
        let edge = Op::AddEdge {
            from: AppVertexId(1),
            to: AppVertexId(2),
            label: None,
        };
        let first = session
            .execute_idempotent(edge.clone(), 42, 3)
            .expect("accepted");
        assert!(first.is_committed(), "{first:?}");
        // same token again — the "ack was lost, client retries" path
        let second = session.execute_idempotent(edge, 42, 3).expect("accepted");
        assert_eq!(second, first, "retry must return the recorded outcome");
        // the edge was applied exactly once
        assert_eq!(
            session.execute(count(1)).expect("read"),
            OpOutcome::Committed(OpReply::Count(1)),
            "token retry double-applied the edge"
        );
        assert!(srv.metrics().dedup_hits() >= 1);
    });
}

/// With a zero deadline every request outlives its budget in the queue
/// and must be shed *unexecuted* as `DeadlineExceeded`; the idempotent
/// helper burns its whole retry budget on the undecided outcome.
#[test]
fn zero_deadline_sheds_everything_unexecuted() {
    let opts = ServerOptions {
        deadline: Some(Duration::ZERO),
        ..ServerOptions::default()
    };
    with_server("deadline", None, opts, |srv, _db| {
        let session = srv.session();
        assert_eq!(
            session.execute(add(7)).expect("accepted"),
            OpOutcome::DeadlineExceeded
        );
        assert_eq!(
            session.execute(count(7)).expect("accepted"),
            OpOutcome::DeadlineExceeded
        );
        let out = session
            .execute_idempotent(add(8), 7, 2)
            .expect("accepted each attempt");
        assert_eq!(out, OpOutcome::DeadlineExceeded);
        let m = srv.metrics();
        assert!(m.deadline_misses() >= 5, "{m:?}");
        assert_eq!(m.retries, 2, "bounded retry budget");
        assert_eq!(m.committed(), 0, "nothing may have executed");
    });
}
