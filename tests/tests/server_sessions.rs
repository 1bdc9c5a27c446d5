//! Integration tests of the `server` service layer: concurrent-session
//! stress (exactly-once acknowledgement, no double-apply), group-commit
//! vs single-commit equivalence, what one drain decides (a duplicated
//! create, a missing read), OLAP jobs, admission control, the
//! ≥1000-session sustain check, translation-cache churn staleness and
//! a replay property against a sequential model.

use std::collections::BTreeMap;
use std::sync::Arc;

use gda::GdaDb;
use gdi::{AccessMode, AppVertexId, EdgeOrientation, GdiError};
use graphgen::{sized_config, GraphSpec, LpgConfig};
use proptest::prelude::*;
use rma::{BackendKind, CostModel, Counter};
use server::{
    AdmissionPolicy, GdiServer, Op, OpOutcome, OpReply, RoutePolicy, ServeSummary, ServerOptions,
};
use workloads::oltp::Mix;
use workloads::traffic::{load_and_serve, TrafficConfig};

fn spec(scale: u32, seed: u64) -> GraphSpec {
    GraphSpec {
        scale,
        edge_factor: 4,
        seed,
        lpg: LpgConfig::default(),
    }
}

/// A config with headroom for `extra` server-inserted vertices/edges.
fn server_cfg(s: &GraphSpec, nranks: usize, extra: usize) -> gda::GdaConfig {
    let mut cfg = sized_config(s, nranks);
    cfg.blocks_per_rank += (extra * 4).next_power_of_two();
    cfg.dht_heap_per_rank += (extra * 2).next_power_of_two();
    cfg
}

/// ≥64 concurrent sessions hammering a small graph with the
/// write-intensive mix: every session must observe exactly one outcome
/// per accepted op (no lost acks), and the server-side counters must
/// agree with the client-side ones (no double ack / double count).
#[test]
fn stress_64_sessions_conflicting_writes_exactly_once() {
    let s = spec(7, 11);
    let nranks = 4;
    let sessions = 64;
    let ops = 12;
    let db_cfg = server_cfg(&s, nranks, sessions * ops);
    let (db, fabric) = GdaDb::with_fabric("stress", db_cfg, nranks, CostModel::default());

    let cfg = TrafficConfig {
        sessions,
        ops_per_session: ops,
        mix: Mix::WRITE_INTENSIVE,
        seed: 99,
        workers: 8,
    };
    let run = load_and_serve(&db, &fabric, ServerOptions::default(), &s, &cfg);

    // client side: every session got exactly one ack per accepted op
    assert_eq!(run.traffic.per_session.len(), sessions);
    for (i, sr) in run.traffic.per_session.iter().enumerate() {
        assert_eq!(
            sr.acks + sr.rejected,
            ops as u64,
            "session {i}: acks {} + rejected {} != ops {ops}",
            sr.acks,
            sr.rejected
        );
        assert_eq!(
            sr.committed + sr.aborted + sr.indeterminate,
            sr.acks,
            "session {i}: outcome accounting broken"
        );
    }
    // blocking admission never sheds
    assert_eq!(run.traffic.rejected(), 0);
    assert_eq!(run.traffic.acks(), (sessions * ops) as u64);

    // server side agrees with client side
    let committed: u64 = run.metrics.committed();
    let aborted: u64 = run.metrics.aborted();
    assert_eq!(committed, run.traffic.committed(), "commit ack mismatch");
    // server counters fold commit-uncertain outcomes into "not committed"
    assert_eq!(
        aborted,
        run.traffic.aborted() + run.traffic.indeterminate(),
        "abort ack mismatch"
    );
    // the serve loops really did drain in batches
    let executed: u64 = run.summaries.iter().map(|r| r.executed).sum();
    assert_eq!(executed, (sessions * ops) as u64);
    assert!(committed > 0, "a write-intensive run must commit something");
}

/// Double-apply detector: sessions concurrently add fan-out edges from
/// one hub vertex; afterwards the hub's out-degree must equal exactly
/// the number of *committed* AddEdge acks — a lost ack or a re-applied
/// op would break the count.
#[test]
fn committed_edge_acks_match_stored_degree() {
    let s = spec(7, 5);
    let nranks = 4;
    let sessions = 48u64;
    let db_cfg = server_cfg(&s, nranks, 4096);
    let (db, fabric) = GdaDb::with_fabric("hub", db_cfg, nranks, CostModel::default());

    // load
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, &s);
    });

    let hub = AppVertexId(0);
    let n = s.n_vertices();
    let before: usize = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadOnly);
            let h = tx.translate_vertex_id(hub).unwrap();
            let d = tx.edge_count(h, EdgeOrientation::Outgoing).unwrap();
            tx.commit().unwrap();
            d
        } else {
            0
        }
    })[0];

    // serve: each session adds 6 distinct edges hub -> (spread targets)
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    let mut committed_adds = 0u64;
    std::thread::scope(|scope| {
        let srv = &server;
        let fab = &fabric;
        let ranks = scope.spawn(move || fab.run(|ctx| srv.serve_rank(ctx)));
        let mut handles = Vec::new();
        for sid in 0..sessions {
            let srv = server.clone();
            handles.push(scope.spawn(move || {
                let session = srv.session();
                let mut committed = 0u64;
                for k in 0..6u64 {
                    let target = AppVertexId((1 + sid * 6 + k) % n);
                    let out = session
                        .execute(Op::AddEdge {
                            from: hub,
                            to: target,
                            label: None,
                        })
                        .expect("submission accepted");
                    if out.is_committed() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        for h in handles {
            committed_adds += h.join().expect("session thread panicked");
        }
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
    });

    let after: usize = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadOnly);
            let h = tx.translate_vertex_id(hub).unwrap();
            let d = tx.edge_count(h, EdgeOrientation::Outgoing).unwrap();
            tx.commit().unwrap();
            d
        } else {
            0
        }
    })[0];

    assert_eq!(
        after - before,
        committed_adds as usize,
        "stored out-degree delta must equal committed AddEdge acks \
         (lost ack or double-apply otherwise)"
    );
}

/// Group commit and one-transaction-per-request serving must reach the
/// same final state on a conflict-free workload (and commit everything).
#[test]
fn group_commit_equals_single_commit_on_disjoint_writes() {
    let s = spec(7, 21);
    let nranks = 4;
    let sessions = 32u64;
    let per = 4u64; // creates per session

    let extract = |opts: ServerOptions, name: &str| -> Vec<(u64, usize)> {
        let db_cfg = server_cfg(&s, nranks, 4096);
        let (db, fabric) = GdaDb::with_fabric(name, db_cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            graphgen::load_into(&eng, &s);
        });
        let n = s.n_vertices();
        let server = GdiServer::new(db.clone(), opts);
        std::thread::scope(|scope| {
            let srv = &server;
            let fab = &fabric;
            let ranks = scope.spawn(move || fab.run(|ctx| srv.serve_rank(ctx)));
            let mut handles = Vec::new();
            for sid in 0..sessions {
                let srv = server.clone();
                handles.push(scope.spawn(move || {
                    let session = srv.session();
                    for k in 0..per {
                        let v = AppVertexId(n + 1 + sid * per + k);
                        let out = session
                            .execute(Op::AddVertex {
                                v,
                                label: None,
                                prop: None,
                            })
                            .unwrap();
                        assert!(
                            out.is_committed(),
                            "disjoint create must commit, got {out:?}"
                        );
                        // link the new vertex to a deterministic base one
                        let out = session
                            .execute(Op::AddEdge {
                                from: v,
                                to: AppVertexId((sid * per + k) % n),
                                label: None,
                            })
                            .unwrap();
                        assert!(out.is_committed(), "disjoint edge must commit");
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            srv.shutdown();
            ranks.join().unwrap();
        });

        // canonical state: (app id, out-degree) of every server-created
        // vertex, in app-id order
        let states = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            let mut out = Vec::new();
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadOnly);
                for sid in 0..sessions {
                    for k in 0..per {
                        let app = n + 1 + sid * per + k;
                        let v = tx
                            .translate_vertex_id(AppVertexId(app))
                            .expect("created vertex must exist");
                        let d = tx.edge_count(v, EdgeOrientation::Outgoing).unwrap();
                        out.push((app, d));
                    }
                }
                tx.commit().unwrap();
            }
            out
        });
        let mut state = states.into_iter().next().unwrap();
        state.sort_unstable();
        state
    };

    let grouped = extract(ServerOptions::default(), "grouped");
    let single = extract(
        ServerOptions {
            max_batch: 1,
            ..ServerOptions::default()
        },
        "single",
    );
    assert_eq!(
        grouped, single,
        "group commit must produce the same state as per-request commits"
    );
    assert!(grouped.iter().all(|&(_, d)| d == 1));
}

/// A loaded two-rank database for the one-drain tests, on the backend
/// `GDI_FABRIC_BACKEND` names …
fn loaded_pair(name: &str) -> (GraphSpec, Arc<GdaDb>, rma::Fabric) {
    loaded_pair_on(name, BackendKind::from_env())
}

/// … or on the one given.
fn loaded_pair_on(name: &str, backend: BackendKind) -> (GraphSpec, Arc<GdaDb>, rma::Fabric) {
    let s = spec(6, 31);
    let db_cfg = server_cfg(&s, 2, 64);
    let (db, fabric) = GdaDb::with_fabric_on(name, db_cfg, 2, CostModel::default(), backend);
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, &s);
    });
    (s, db, fabric)
}

/// Submit every op before any rank serves, so the serving rank's first
/// drain holds them all, then serve until each ticket resolves. Returns
/// the outcomes in submission order, how many drains each rank ran and
/// every rank's summary.
fn serve_one_drain(
    db: &Arc<GdaDb>,
    fabric: &rma::Fabric,
    ops: &[Op],
) -> (Vec<OpOutcome>, Vec<u64>, Vec<ServeSummary>) {
    serve_one_drain_routed(db, fabric, RoutePolicy::Owner, ops)
}

/// [`serve_one_drain`] under a routing policy: `Owner` asserts that one
/// rank owns every op, `SessionAffine` sends them all to session 0's
/// rank, 0, whoever owns their vertices.
fn serve_one_drain_routed(
    db: &Arc<GdaDb>,
    fabric: &rma::Fabric,
    route: RoutePolicy,
    ops: &[Op],
) -> (Vec<OpOutcome>, Vec<u64>, Vec<ServeSummary>) {
    let opts = ServerOptions {
        route,
        ..ServerOptions::default()
    };
    let server = GdiServer::new(db.clone(), opts);
    let rank = server.route(&ops[0]);
    assert!(
        route == RoutePolicy::SessionAffine || ops.iter().all(|op| server.route(op) == rank),
        "one rank owns every op"
    );
    let session = server.session();
    let tickets: Vec<_> = ops
        .iter()
        .map(|op| session.submit(op.clone()).unwrap())
        .collect();
    std::thread::scope(|scope| {
        let srv = &server;
        let ranks = scope.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let outcomes = tickets.iter().map(|t| t.wait()).collect();
        srv.shutdown();
        let summaries = ranks.join().expect("serving fabric panicked");
        let drains = summaries.iter().map(|s| s.batches).collect();
        (outcomes, drains, summaries)
    })
}

/// Two `AddVertex` ops with one app id in one drain, among other creates
/// for the same rank: exactly one of the two commits, the other aborts,
/// and the vertex exists once.
#[test]
fn duplicate_creates_in_one_drain_commit_once() {
    let (s, db, fabric) = loaded_pair("dup-drain");
    let live_blocks = || -> usize {
        let per_rank = fabric.run(|ctx| {
            let audit = db.attach(ctx).audit_pool().unwrap();
            audit.live + audit.retired
        });
        per_rank.iter().sum()
    };
    let before = live_blocks();
    // fresh ids, all owned by rank 0 (`app % 2`); `dup` is created twice
    let fresh = |k: u64| AppVertexId(s.n_vertices() + 2 * k);
    let dup = fresh(1);
    let create = |v| Op::AddVertex {
        v,
        label: None,
        prop: None,
    };
    let ops = [
        create(fresh(0)),
        create(dup),
        create(fresh(2)),
        create(dup),
        create(fresh(3)),
    ];
    let (outs, drains, _) = serve_one_drain(&db, &fabric, &ops);
    assert_eq!(drains, vec![1, 0], "one drain held every op");

    for i in [0, 2, 4] {
        assert!(outs[i].is_committed(), "distinct create {i}: {:?}", outs[i]);
    }
    let dup_outs = [&outs[1], &outs[3]];
    assert_eq!(
        dup_outs.iter().filter(|o| o.is_committed()).count(),
        1,
        "exactly one create of the duplicated id commits: {dup_outs:?}"
    );
    assert!(
        dup_outs.iter().any(|o| matches!(o, OpOutcome::Aborted(_))),
        "the other one aborts: {dup_outs:?}"
    );
    let found = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let tx = eng.begin(AccessMode::ReadOnly);
        let found = tx.translate_vertex_id(dup).is_ok();
        tx.commit().unwrap();
        found
    });
    assert!(found.iter().all(|&f| f), "the duplicated id resolves");
    // an empty vertex is one block: four distinct vertices, four blocks
    assert_eq!(live_blocks() - before, 4, "the vertex exists once");
}

/// A read drain of an existing, a missing and an existing vertex: the
/// missing one aborts with `NotFound`, the other two commit.
#[test]
fn missing_vertex_in_a_read_drain_aborts_alone() {
    let (s, db, fabric) = loaded_pair("read-drain");
    // ids 0 and 2 exist; the first id past the graph does not, and all
    // three are owned by rank 0
    let count = |v| Op::CountEdges { v: AppVertexId(v) };
    let ops = [count(0), count(s.n_vertices()), count(2)];
    let (outs, drains, _) = serve_one_drain(&db, &fabric, &ops);
    assert_eq!(drains, vec![1, 0], "one drain held every op");
    assert!(outs[0].is_committed(), "{:?}", outs[0]);
    assert!(
        matches!(outs[1], OpOutcome::Aborted(GdiError::NotFound(_))),
        "{:?}",
        outs[1]
    );
    assert!(outs[2].is_committed(), "{:?}", outs[2]);
}

/// Where the engine placed the vertices `0..n`, as rank 0 sees them:
/// per vertex, the rank of its holder and the remote reads (gets and
/// atomics) its translation costs rank 0 — none when its DHT chain is on
/// rank 0, two (bucket head, entry) when it heads a chain on rank 1, more
/// when it sits deeper in one.
fn placements(db: &Arc<GdaDb>, fabric: &rma::Fabric, n: u64) -> Vec<(usize, u64)> {
    fabric
        .run(|ctx| {
            let eng = db.attach(ctx);
            let tx = eng.begin(AccessMode::ReadOnly);
            let out: Vec<_> = (0..n)
                .filter(|_| ctx.rank() == 0)
                .map(|v| {
                    let s0 = ctx.stats_snapshot();
                    let id = tx
                        .translate_vertex_id(AppVertexId(v))
                        .expect("loaded vertex");
                    let s1 = ctx.stats_snapshot();
                    let remote = s1.gets - s0.gets + s1.atomics - s0.atomics;
                    (id.rank(), remote)
                })
                .collect();
            tx.commit().expect("read-only commit");
            out
        })
        .swap_remove(0)
}

/// The three read kinds in turn, about the vertices `vs`.
fn mixed_reads(db: &Arc<GdaDb>, fabric: &rma::Fabric, vs: &[u64]) -> Vec<Op> {
    let p0 = fabric.run(|ctx| db.attach(ctx).meta().ptype_from_name("P0"))[0];
    let p0 = p0.expect("the generator's first property type");
    (vs.iter().enumerate())
        .map(|(i, &v)| {
            let v = AppVertexId(v);
            match i % 4 {
                0 => Op::GetVertexProps { v, ptype: Some(p0) },
                1 => Op::CountEdges { v },
                2 => Op::GetEdges { v },
                _ => Op::GetVertexProps { v, ptype: None },
            }
        })
        .collect()
}

/// Each op served alone, as a drain of one.
fn served_alone(
    db: &Arc<GdaDb>,
    fabric: &rma::Fabric,
    route: RoutePolicy,
    ops: &[Op],
) -> Vec<OpOutcome> {
    (ops.iter())
        .map(|op| {
            serve_one_drain_routed(db, fabric, route, std::slice::from_ref(op))
                .0
                .remove(0)
        })
        .collect()
}

/// On Sim, a read group pays one latency per DHT chain level and one per
/// block level, not one chain of them per op: a drain of 8 reads of
/// vertices on rank 0, whose DHT chains all sit on rank 1, costs less
/// than 3× a drain of one of them (one after another it was ≈ 8×), and
/// every read answers what it answers alone. Each of the 8 is alone in
/// its DHT bucket, so no chain's depth hangs on the order a concurrent
/// bulk load linked its entries in.
#[test]
fn read_drain_is_one_round_per_level() {
    let (s, db, fabric) = loaded_pair_on("read-rounds", BackendKind::Sim);
    let vs: Vec<u64> = (placements(&db, &fabric, s.n_vertices())
        .into_iter()
        .zip(0..))
    .filter(|&((holder, remote), _)| holder == 0 && remote == 2)
    .map(|(_, v)| v)
    .take(8)
    .collect();
    assert_eq!(vs.len(), 8);
    let ops = mixed_reads(&db, &fabric, &vs);
    let (outs, drains, group) = serve_one_drain(&db, &fabric, &ops);
    assert_eq!(drains, vec![1, 0], "one drain held every op");
    assert!(outs.iter().all(|o| o.is_committed()), "{outs:?}");
    assert_eq!(outs, served_alone(&db, &fabric, RoutePolicy::Owner, &ops));
    let (_, _, one) = serve_one_drain(&db, &fabric, &ops[..1]);
    let (group_ns, one_ns) = (group[0].sim_read_ns, one[0].sim_read_ns);
    assert_eq!((group[0].read_ops, one[0].read_ops), (8, 1));
    assert!(
        group_ns < 3.0 * one_ns,
        "8 reads took {group_ns} simulated ns, 1 read {one_ns}"
    );
}

/// On both backends, a read drain with a repeated id, a missing id and
/// ids whose DHT chains and holders sit on the other rank answers
/// exactly what one-op drains answer: the missing id aborts with
/// `NotFound`, the rest commit.
#[test]
fn read_drain_answers_equal_one_op_drains() {
    for backend in [BackendKind::Sim, BackendKind::Wall] {
        let (s, db, fabric) = loaded_pair_on("read-diff", backend);
        let n = s.n_vertices();
        // session-affine: rank 0 serves them all, whoever owns them.
        // Holder and DHT chain both on rank 1, both on rank 0, the holder
        // alone on rank 1; then repeats and a missing id
        let placed = placements(&db, &fabric, n);
        let pick = |holder: usize, remote_chain: bool, k: usize| -> Vec<u64> {
            (0..n)
                .filter(|&v| {
                    let (h, remote) = placed[v as usize];
                    h == holder && (remote > 0) == remote_chain
                })
                .take(k)
                .collect()
        };
        let mut vs = pick(1, true, 3);
        vs.extend(pick(0, false, 2));
        vs.extend(pick(1, false, 2));
        assert_eq!(vs.len(), 7, "{backend}: every placement present");
        vs.extend([vs[0], n, vs[3], vs[0]]);
        let ops = mixed_reads(&db, &fabric, &vs);
        let route = RoutePolicy::SessionAffine;
        let (outs, drains, _) = serve_one_drain_routed(&db, &fabric, route, &ops);
        assert_eq!(drains, vec![1, 0], "{backend}: one drain held every op");
        assert_eq!(outs, served_alone(&db, &fabric, route, &ops), "{backend}");
        for (v, out) in vs.iter().zip(&outs) {
            if *v == n {
                assert!(
                    matches!(out, OpOutcome::Aborted(GdiError::NotFound(_))),
                    "{out:?}"
                );
            } else {
                assert!(out.is_committed(), "{backend}: vertex {v}: {out:?}");
            }
        }
    }
}

/// A collective OLAP job runs between interactive batches and returns a
/// scalar to the submitting session.
#[test]
fn olap_job_rendezvous_during_serving() {
    let s = spec(7, 3);
    let nranks = 3;
    let db_cfg = server_cfg(&s, nranks, 512);
    let (db, fabric) = GdaDb::with_fabric("olap", db_cfg, nranks, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, &s);
    });

    let n = s.n_vertices();
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    std::thread::scope(|scope| {
        let srv = &server;
        let fab = &fabric;
        let ranks = scope.spawn(move || fab.run(|ctx| srv.serve_rank(ctx)));

        // interactive traffic on the side
        let session = server.session();
        for i in 0..20u64 {
            session
                .execute(Op::CountEdges {
                    v: AppVertexId(i % n),
                })
                .unwrap();
        }
        // collective job: every rank resolves the vertices it owns, the
        // allreduced total must cover the whole graph
        let ticket = server
            .submit_olap(move |eng| {
                let tx = eng.begin(AccessMode::ReadOnly);
                let mut local = 0u64;
                for app in 0..n {
                    let id = AppVertexId(app);
                    if gda::owner_rank(id, eng.nranks()) == eng.rank()
                        && tx.translate_vertex_id(id).is_ok()
                    {
                        local += 1;
                    }
                }
                tx.commit().unwrap();
                eng.ctx().allreduce_sum_u64(local) as f64
            })
            .unwrap();
        let out = ticket.wait();
        match out {
            OpOutcome::Committed(server::OpReply::Scalar(total)) => {
                assert_eq!(total as u64, n, "OLAP job must see every vertex");
            }
            other => panic!("unexpected OLAP outcome {other:?}"),
        }
        server.shutdown();
        ranks.join().unwrap();
    });
}

/// Reject-mode admission control sheds load instead of blocking, and the
/// shed/served accounting stays exact.
#[test]
fn admission_control_sheds_overload() {
    let s = spec(7, 8);
    let nranks = 2;
    let db_cfg = server_cfg(&s, nranks, 2048);
    let (db, fabric) = GdaDb::with_fabric("shed", db_cfg, nranks, CostModel::default());

    let opts = ServerOptions {
        queue_capacity: 4, // tiny queues → guaranteed overload
        admission: AdmissionPolicy::Reject,
        ..ServerOptions::default()
    };
    let cfg = TrafficConfig {
        sessions: 32,
        ops_per_session: 10,
        mix: Mix::READ_INTENSIVE,
        seed: 12,
        workers: 8,
    };
    let run = load_and_serve(&db, &fabric, opts, &s, &cfg);

    let total = (cfg.sessions * cfg.ops_per_session) as u64;
    assert_eq!(run.traffic.acks() + run.traffic.rejected(), total);
    assert_eq!(
        run.traffic.acks(),
        run.traffic.committed() + run.traffic.aborted() + run.traffic.indeterminate()
    );
    // server-side shed counter agrees with the client view
    assert_eq!(run.metrics.rejected(), run.traffic.rejected());
}

/// Acceptance check: ≥1000 concurrent sessions on a 4-rank fabric, no
/// deadlock, no dropped response.
#[test]
fn sustains_1000_sessions_on_4_ranks() {
    let s = spec(8, 17);
    let nranks = 4;
    let sessions = 1000;
    let ops = 3;
    let db_cfg = server_cfg(&s, nranks, sessions * ops);
    let (db, fabric) = GdaDb::with_fabric("big", db_cfg, nranks, CostModel::default());

    let cfg = TrafficConfig {
        sessions,
        ops_per_session: ops,
        mix: Mix::LINKBENCH,
        seed: 7,
        workers: 16,
    };
    let run = load_and_serve(&db, &fabric, ServerOptions::default(), &s, &cfg);

    assert_eq!(run.traffic.per_session.len(), sessions);
    assert_eq!(run.traffic.rejected(), 0, "blocking admission never sheds");
    assert_eq!(run.traffic.acks(), (sessions * ops) as u64);
    assert!(run.traffic.committed() > 0);
    // latency metrics captured something sensible
    let lat = run.metrics.latency();
    assert_eq!(lat.count(), (sessions * ops) as u64);
    assert!(lat.percentile_ns(50.0) <= lat.percentile_ns(99.0));
    // fabric drain counters flowed through the counter table (rma::Counter)
    let drained: u64 = run
        .metrics
        .per_rank
        .iter()
        .filter_map(|r| r.fabric.as_ref().map(|f| f.requests_served))
        .sum();
    assert_eq!(drained, (sessions * ops) as u64);
}

/// The exported snapshot names every counter once: each server counter
/// with its field's value, each row of the fabric table with
/// `fabric_total()`'s, and `to_json()` emits every name exactly once with
/// that value.
#[test]
fn registry_snapshot_names_every_counter() {
    let s = spec(7, 5);
    let nranks = 2;
    let (sessions, ops) = (8, 20);
    let db_cfg = server_cfg(&s, nranks, sessions * ops);
    let (db, fabric) = GdaDb::with_fabric("registry", db_cfg, nranks, CostModel::default());
    let cfg = TrafficConfig {
        sessions,
        ops_per_session: ops,
        mix: Mix::LINKBENCH,
        seed: 3,
        workers: 4,
    };
    let m = load_and_serve(&db, &fabric, ServerOptions::default(), &s, &cfg).metrics;
    let total = m.fabric_total();
    assert!(
        m.committed() > 0 && total.requests_served > 0,
        "traffic was served"
    );

    let mut expected = vec![
        (
            "server.submitted",
            m.per_rank.iter().map(|r| r.submitted).sum(),
        ),
        ("server.rejected", m.rejected()),
        ("server.committed", m.committed()),
        ("server.aborted", m.aborted()),
        ("server.deadline_misses", m.deadline_misses()),
        ("server.dedup_hits", m.dedup_hits()),
        ("server.checkpoints", m.checkpoints),
        ("server.maintenance_runs", m.maintenance_runs),
        ("server.degraded_entries", m.degraded_entries),
        ("server.write_rejects", m.write_rejects),
        ("server.retries", m.retries),
        ("server.fault_hits", m.fault_hits),
    ];
    expected.extend(Counter::ALL.iter().map(|&c| (c.name(), total.get(c))));
    let snap = m.snapshot();
    assert_eq!(snap.rows, expected);
    let mut names: Vec<&str> = snap.rows.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), snap.rows.len(), "names are unique");
    assert!(
        names.contains(&"persist.redo_whole_records"),
        "the whole-image fallback rate is exported"
    );
    assert!(
        names.contains(&"mvcc.archive_bytes"),
        "the bytes archived per overwrite are exported"
    );

    let json = snap.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert_eq!(
        json.matches(':').count(),
        snap.rows.len(),
        "one field per row"
    );
    for (name, value) in &snap.rows {
        let key = format!("\"{name}\":");
        assert_eq!(json.matches(&key).count(), 1, "{name} once");
        let rest = &json[json.find(&key).expect("present") + key.len()..];
        let end = rest.find([',', '}']).expect("terminated");
        assert_eq!(rest[..end].parse::<u64>(), Ok(*value), "{name}");
    }
}

/// Translation churn: concurrent sessions add, read, delete and re-read
/// their own (disjoint) vertices while also reading the shared base
/// graph and racing edges against other sessions' churn. Translation
/// must never be stale: a read of a vertex whose delete was acknowledged
/// must abort, a read of a just-added vertex and of any base vertex must
/// commit.
#[test]
fn churn_sessions_never_serve_stale_translations() {
    let s = spec(7, 31);
    let nranks = 4;
    let sessions = 16u64;
    let cycles = 8u64;
    let db_cfg = server_cfg(&s, nranks, (sessions * cycles * 4) as usize);
    let (db, fabric) = GdaDb::with_fabric("churn", db_cfg, nranks, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, &s);
    });

    let n = s.n_vertices();
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    std::thread::scope(|scope| {
        let srv = &server;
        let fab = &fabric;
        let ranks = scope.spawn(move || fab.run(|ctx| srv.serve_rank(ctx)));
        let mut handles = Vec::new();
        for sid in 0..sessions {
            let srv = server.clone();
            handles.push(scope.spawn(move || {
                let session = srv.session();
                for c in 0..cycles {
                    let v = AppVertexId(n + 1 + sid * 1000 + c);
                    let out = session
                        .execute(Op::AddVertex {
                            v,
                            label: None,
                            prop: None,
                        })
                        .unwrap();
                    assert!(out.is_committed(), "fresh add must commit: {out:?}");
                    // a read straight after the acknowledged add (same
                    // owner rank, FIFO): a stale *negative* translation
                    // would abort it
                    let out = session.execute(Op::CountEdges { v }).unwrap();
                    assert!(out.is_committed(), "read-after-add aborted: {out:?}");
                    // racing edge against a neighbour session's churned
                    // vertex: either outcome is legal, but the ack must
                    // arrive (no wedge, no panic)
                    let peer = AppVertexId(n + 1 + ((sid + 1) % sessions) * 1000 + c);
                    let _ = session
                        .execute(Op::AddEdge {
                            from: v,
                            to: peer,
                            label: None,
                        })
                        .unwrap();
                    let out = session.execute(Op::DeleteVertex { v }).unwrap();
                    assert!(out.is_committed(), "own delete must commit: {out:?}");
                    // the acknowledged delete must be visible: a stale
                    // *positive* translation would let this read commit
                    let out = session.execute(Op::CountEdges { v }).unwrap();
                    assert!(
                        !out.is_committed(),
                        "read-after-delete served a stale translation: {out:?}"
                    );
                    // base vertices are never deleted: always readable
                    let base = AppVertexId((sid * cycles + c) % n);
                    let out = session.execute(Op::CountEdges { v: base }).unwrap();
                    assert!(out.is_committed(), "base read aborted: {out:?}");
                }
            }));
        }
        for h in handles {
            h.join().expect("churn session panicked");
        }
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
    });
}

/// Property: a single closed-loop session applying an arbitrary op
/// sequence observes exactly the outcomes (and leaves exactly the final
/// state) of a sequential model of that sequence.
#[derive(Debug, Clone)]
enum POp {
    Add(u64),
    Del(u64),
    Read(u64),
    Edge(u64, u64),
}

/// Every live `app id → neighbour app ids` (one entry per edge record,
/// so a directed self-loop lists its vertex twice), read on rank 0
/// through the uncached diagnostic path.
fn live_adjacency(db: &GdaDb, fabric: &rma::Fabric, upto: u64) -> BTreeMap<u64, Vec<u64>> {
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let mut out = BTreeMap::new();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadOnly);
            for app in 0..upto {
                if eng.peek_translate(AppVertexId(app)).is_some() {
                    let id = tx.translate_vertex_id(AppVertexId(app)).unwrap();
                    let nbrs = tx.neighbors(id, EdgeOrientation::Any, None).unwrap();
                    let apps = nbrs.iter().map(|&t| tx.vertex_app_id(t).unwrap().0);
                    out.insert(app, apps.collect());
                }
            }
            tx.commit().unwrap();
        }
        out
    });
    states.into_iter().next().unwrap()
}

/// `(app id, degree)` of every live vertex.
fn degrees(adj: &BTreeMap<u64, Vec<u64>>) -> Vec<(u64, usize)> {
    adj.iter().map(|(&app, nbrs)| (app, nbrs.len())).collect()
}

/// Run `ops` through a fresh server; returns the initial adjacency, the
/// per-op replies (`None` for an abort) and the final adjacency.
#[allow(clippy::type_complexity)]
fn replay(
    ops: &[POp],
    s: &GraphSpec,
) -> (
    BTreeMap<u64, Vec<u64>>,
    Vec<Option<OpReply>>,
    BTreeMap<u64, Vec<u64>>,
) {
    let nranks = 2;
    let db_cfg = server_cfg(s, nranks, 4 * ops.len() + 64);
    let (db, fabric) = GdaDb::with_fabric("prop-replay", db_cfg, nranks, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, s);
    });
    let upto = s.n_vertices() + 64;
    let initial = live_adjacency(&db, &fabric, upto);
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    let mut outcomes = Vec::with_capacity(ops.len());
    std::thread::scope(|scope| {
        let srv = &server;
        let fab = &fabric;
        let ranks = scope.spawn(move || fab.run(|ctx| srv.serve_rank(ctx)));
        let session = server.session();
        for op in ops {
            let op = match *op {
                POp::Add(v) => Op::AddVertex {
                    v: AppVertexId(v),
                    label: None,
                    prop: None,
                },
                POp::Del(v) => Op::DeleteVertex { v: AppVertexId(v) },
                POp::Read(v) => Op::CountEdges { v: AppVertexId(v) },
                POp::Edge(a, b) => Op::AddEdge {
                    from: AppVertexId(a),
                    to: AppVertexId(b),
                    label: None,
                },
            };
            outcomes.push(match session.execute(op).unwrap() {
                OpOutcome::Committed(reply) => Some(reply),
                OpOutcome::Aborted(_) => None,
                other => panic!("a lone session got {other:?}"),
            });
        }
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
    });
    (initial, outcomes, live_adjacency(&db, &fabric, upto))
}

/// The sequential model: an add commits iff its id is absent; a delete,
/// read or edge commits iff its ids are present. A delete drops the
/// vertex's mirror records at its neighbours.
fn model(adj: &mut BTreeMap<u64, Vec<u64>>, op: &POp) -> Option<OpReply> {
    match *op {
        POp::Add(v) => {
            if adj.contains_key(&v) {
                return None;
            }
            adj.insert(v, Vec::new());
            Some(OpReply::Unit)
        }
        POp::Del(v) => {
            for u in adj.remove(&v)? {
                if u != v {
                    let mirror = adj.get_mut(&u).expect("neighbours are live");
                    let at = mirror.iter().position(|&w| w == v).expect("mirror record");
                    mirror.remove(at);
                }
            }
            Some(OpReply::Unit)
        }
        POp::Read(v) => adj.get(&v).map(|nbrs| OpReply::Count(nbrs.len())),
        POp::Edge(a, b) => {
            if !adj.contains_key(&a) || !adj.contains_key(&b) {
                return None;
            }
            adj.get_mut(&a).unwrap().push(b);
            adj.get_mut(&b).unwrap().push(a);
            Some(OpReply::Unit)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn server_replay_matches_sequential_model(
        raw_ops in prop::collection::vec((0u8..4, 0u64..24, 0u64..24), 1..32)
    ) {
        let s = spec(6, 13);
        let n = s.n_vertices();
        // map the raw tuples onto ops over a mixed id space: base-graph
        // ids (always present initially) and fresh ids (created/deleted
        // by the sequence itself)
        let id = |x: u64, fresh: bool| if fresh { n + 1 + (x % 24) } else { x % n };
        let ops: Vec<POp> = raw_ops
            .iter()
            .map(|&(k, x, y)| match k {
                0 => POp::Add(id(x, true)),
                1 => POp::Del(id(x, y % 2 == 0)),
                2 => POp::Read(id(x, y % 2 == 0)),
                _ => POp::Edge(id(x, y % 3 == 0), id(y, x % 3 == 0)),
            })
            .collect();
        let (mut want, got, state) = replay(&ops, &s);
        let expected: Vec<Option<OpReply>> = ops.iter().map(|op| model(&mut want, op)).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(degrees(&state), degrees(&want));
    }
}
