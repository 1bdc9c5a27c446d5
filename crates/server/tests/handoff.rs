//! Real-thread tests of the serving path's hand-offs (session → rank
//! queue, rank → session ticket, `submit_olap` → serve loops), on both
//! fabric backends: a closed-loop torture run that would expose a lost
//! wake, exactly-once acknowledgement while the queues close or a serve
//! loop panics under the producers' feet, and the CPU an idle server
//! burns.
//!
//! A lost wake does not hang these tests — a sleeping waiter re-checks
//! its condition after `rma::wait::SAFETY_TIMEOUT` (1 s) — it shows as
//! one op that took a second; the latency gates are far above scheduling
//! noise and far below that nap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gda::{GdaConfig, GdaDb};
use gdi::{AppVertexId, GdiError};
use rma::{BackendKind, CostModel, Fabric};
use server::{GdiServer, Op, OpOutcome, ServerOptions, SubmitError, Ticket};

const BACKENDS: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Wall];
const RANKS: usize = 2;
/// Vertices `1..=BASE` exist before any test traffic.
const BASE: u64 = 16;

/// A two-rank database holding the base vertices, and its fabric.
fn boot(name: &str, backend: BackendKind) -> (Arc<GdaDb>, Fabric) {
    let cfg = GdaConfig::sized_for(16_384, 1_024, 16);
    let (db, fabric) = GdaDb::with_fabric_on(name, cfg, RANKS, CostModel::default(), backend);
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
    });
    (db, fabric)
}

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

fn add_base_vertices(server: &GdiServer) {
    let session = server.session();
    for v in 1..=BASE {
        let out = session.execute(add(v)).expect("accepted");
        assert!(out.is_committed(), "{out:?}");
    }
}

/// Hand-off torture: one session, one op in flight, 200 000 reads
/// alternating between the two ranks. Every op is two hand-offs with
/// nothing else going on; back to back they complete in the poll and
/// yield phases of the waits, so every 1 024 ops the client thinks for
/// 100 µs first — both serve loops fall asleep and the next push has to
/// wake one.
#[test]
fn closed_loop_reads_never_stall() {
    for backend in BACKENDS {
        let (db, fabric) = boot("handoff-loop", backend);
        let server = GdiServer::new(db, ServerOptions::default());
        std::thread::scope(|s| {
            let srv = &server;
            let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
            add_base_vertices(&server);
            let session = server.session();
            let t0 = Instant::now();
            let mut slowest = Duration::ZERO;
            for i in 0..200_000u64 {
                if i % 1024 == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let op_t0 = Instant::now();
                let out = session.execute(count(1 + i % BASE)).expect("accepted");
                slowest = slowest.max(op_t0.elapsed());
                assert!(out.is_committed(), "{out:?}");
            }
            let total = t0.elapsed();
            server.shutdown();
            ranks.join().expect("serving fabric panicked");
            assert!(
                slowest < Duration::from_millis(50),
                "{backend:?}: an op took {slowest:?}"
            );
            assert!(total < Duration::from_secs(120), "{backend:?}: {total:?}");
        });
    }
}

/// What one producer saw: the tickets it was given, in submission order.
struct Produced {
    accepted: Vec<Ticket>,
    refused: u64,
}

/// Eight producers, 10 000 ops each, a window of 64 in flight per
/// producer; mostly reads of base vertices, every eighth op a create of
/// a vertex of the producer's own. A producer stops at the first refusal
/// (the server is going down). `accepted_so_far` lets the test body time
/// its intervention mid-stream.
fn produce(server: &GdiServer, accepted_so_far: &AtomicU64) -> Vec<Produced> {
    std::thread::scope(|s| {
        let producers: Vec<_> = (0..8u64)
            .map(|p| {
                s.spawn(move || {
                    let session = server.session();
                    let mut out = Produced {
                        accepted: Vec::new(),
                        refused: 0,
                    };
                    for i in 0..10_000u64 {
                        let op = if i % 8 == 0 {
                            add(1_000_000 * (p + 1) + i)
                        } else {
                            count(1 + (p + i) % BASE)
                        };
                        match session.submit(op) {
                            Ok(ticket) => {
                                out.accepted.push(ticket);
                                accepted_so_far.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(SubmitError::ShuttingDown) => {
                                out.refused += 1;
                                break;
                            }
                            Err(e) => panic!("blocking admission refused with {e:?}"),
                        }
                        // keep at most 64 unresolved: wait for the ticket
                        // 64 submissions back
                        if let Some(old) = out.accepted.len().checked_sub(64) {
                            out.accepted[old].wait();
                        }
                    }
                    out
                })
            })
            .collect();
        producers
            .into_iter()
            .map(|p| p.join().expect("producer panicked"))
            .collect()
    })
}

/// Every accepted ticket resolves, to one outcome that never changes.
/// Returns `(committed, aborted)` as the clients saw them. These op
/// streams cannot abort on their own (reads of live vertices, creates of
/// fresh ones), so the only abort is the drop guard's: an orphan of a
/// serve loop that died.
fn resolve_all(produced: &[Produced]) -> (u64, u64) {
    let (mut committed, mut aborted) = (0, 0);
    for p in produced {
        for ticket in &p.accepted {
            let first = ticket.wait();
            match &first {
                OpOutcome::Committed(_) => committed += 1,
                OpOutcome::Aborted(e) => {
                    assert_eq!(*e, GdiError::TransactionClosed);
                    aborted += 1;
                }
                other => panic!("unexpected outcome {other:?}"),
            }
            assert_eq!(ticket.try_get(), Some(first.clone()));
            assert_eq!(ticket.clone().wait(), first);
        }
    }
    (committed, aborted)
}

/// Exactly-once under a racing close: `shutdown` lands while eight
/// producers are mid-stream. Everything accepted before the close is
/// executed and acknowledged once; everything after is refused; and the
/// server's books balance against the clients'.
#[test]
fn racing_shutdown_acknowledges_every_accepted_op_once() {
    for backend in BACKENDS {
        let (db, fabric) = boot("handoff-close", backend);
        let server = GdiServer::new(db, ServerOptions::default());
        let accepted_so_far = AtomicU64::new(0);
        let produced = std::thread::scope(|s| {
            let srv = &server;
            let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
            add_base_vertices(&server);
            let closer = s.spawn(|| {
                while accepted_so_far.load(Ordering::Relaxed) < 20_000 {
                    std::thread::yield_now();
                }
                server.shutdown();
            });
            let produced = produce(&server, &accepted_so_far);
            closer.join().expect("closer panicked");
            ranks.join().expect("serving fabric panicked");
            produced
        });
        let accepted: u64 = produced.iter().map(|p| p.accepted.len() as u64).sum();
        let refused: u64 = produced.iter().map(|p| p.refused).sum();
        assert!(accepted >= 20_000 && refused >= 1, "{accepted} / {refused}");
        let (committed, aborted) = resolve_all(&produced);
        // a drained shutdown executes everything it accepted, and every
        // op here is a read of a live vertex or a create of a fresh one
        assert_eq!((committed, aborted), (accepted, 0), "{backend:?}");
        let m = server.metrics();
        assert_eq!(m.committed(), BASE + committed, "{backend:?}");
        assert_eq!(m.aborted(), 0, "{backend:?}");
        assert_eq!(
            m.per_rank.iter().map(|r| r.submitted).sum::<u64>(),
            m.committed() + m.aborted() + m.rejected() + m.deadline_misses() + m.dedup_hits(),
            "{backend:?}: {m:?}"
        );
        // a push refused by a closing queue is counted as rejected; one
        // refused at the door is not counted at all
        assert!(m.rejected() <= refused, "{backend:?}");
        assert_eq!(m.latency().count(), m.committed(), "{backend:?}");
    }
}

/// Exactly-once under a panicking serve loop: a collective job panics on
/// rank 1 while eight producers are mid-stream. The panic guard closes
/// every queue and resolves what rank 1 still held; rank 0 collapses at
/// the poisoned barrier and does the same. No ticket is left pending, no
/// op is acknowledged twice, and whatever the server counted as executed
/// the clients saw.
#[test]
fn panicking_serve_loop_resolves_every_accepted_ticket() {
    for backend in BACKENDS {
        let (db, fabric) = boot("handoff-panic", backend);
        let server = GdiServer::new(db, ServerOptions::default());
        let accepted_so_far = AtomicU64::new(0);
        let produced = std::thread::scope(|s| {
            let srv = &server;
            let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
            add_base_vertices(&server);
            let saboteur = s.spawn(|| {
                while accepted_so_far.load(Ordering::Relaxed) < 20_000 {
                    std::thread::yield_now();
                }
                server
                    .submit_olap(|eng| {
                        if eng.rank() == 1 {
                            panic!("injected serve-loop failure");
                        }
                        0.0
                    })
                    .expect("the server was still accepting");
            });
            let produced = produce(&server, &accepted_so_far);
            saboteur.join().expect("saboteur panicked");
            let collapse = ranks.join().expect_err("the fabric must report the panic");
            let msg = collapse
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| collapse.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("injected"), "first panic lost: {msg:?}");
            produced
        });
        let accepted: u64 = produced.iter().map(|p| p.accepted.len() as u64).sum();
        assert!(accepted >= 20_000, "{accepted}");
        let (committed, aborted) = resolve_all(&produced);
        assert_eq!(committed + aborted, accepted, "{backend:?}");
        // orphans resolve through the request's drop guard, which the
        // serve loop's counters never see
        let m = server.metrics();
        assert_eq!(m.committed(), BASE + committed, "{backend:?}");
        assert_eq!(m.aborted(), 0, "{backend:?}");
        assert!(server.submit_olap(|_| 0.0).is_err(), "{backend:?}");
    }
}

/// `utime + stime` of one thread of this process, in clock ticks
/// (10 ms each on Linux).
#[cfg(target_os = "linux")]
fn thread_cpu_ticks(tid: &str) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("task stat");
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

/// Idle cost: a serving two-rank server with no traffic. Each serve loop
/// yields for a few µs after its last op and then sleeps; over a second
/// of silence a rank may use at most 2 % of a core (2 ticks) — a loop
/// that polled on an interval, or spun, would use far more.
#[cfg(target_os = "linux")]
#[test]
fn idle_server_costs_no_cpu() {
    for backend in BACKENDS {
        let (db, fabric) = boot("handoff-idle", backend);
        let server = GdiServer::new(db, ServerOptions::default());
        let (tid_tx, tid_rx) = std::sync::mpsc::channel::<String>();
        std::thread::scope(|s| {
            let srv = &server;
            let ranks = s.spawn(move || {
                fabric.run(|ctx| {
                    let me = std::fs::read_link("/proc/thread-self").expect("thread-self");
                    let tid = me.file_name().expect("tid").to_string_lossy().into_owned();
                    tid_tx.send(tid).expect("test thread listens");
                    srv.serve_rank(ctx)
                })
            });
            let tids: Vec<String> = (0..RANKS).map(|_| tid_rx.recv().expect("tid")).collect();
            // some traffic on both ranks first, so the silence starts
            // from a loop that has been busy
            add_base_vertices(&server);
            std::thread::sleep(Duration::from_millis(50));
            let before: Vec<u64> = tids.iter().map(|t| thread_cpu_ticks(t)).collect();
            std::thread::sleep(Duration::from_secs(1));
            for (tid, before) in tids.iter().zip(before) {
                let used = thread_cpu_ticks(tid) - before;
                assert!(used <= 2, "{backend:?}: an idle rank used {used} ticks");
            }
            // and it still answers at once
            let t0 = Instant::now();
            let out = server.session().execute(count(1)).expect("accepted");
            assert!(out.is_committed(), "{out:?}");
            assert!(
                t0.elapsed() < Duration::from_millis(50),
                "{:?}",
                t0.elapsed()
            );
            server.shutdown();
            ranks.join().expect("serving fabric panicked");
        });
    }
}
