//! Integration tests of the `server` service layer: concurrent-session
//! stress (exactly-once acknowledgement, no double-apply), group-commit
//! vs single-commit equivalence, OLAP jobs, admission control, the
//! ≥1000-session sustain check, translation-cache churn staleness and
//! the cached-vs-uncached equivalence property.

use gda::GdaDb;
use gdi::{AccessMode, AppVertexId, EdgeOrientation};
use graphgen::{sized_config, GraphSpec, LpgConfig};
use proptest::prelude::*;
use rma::{CostModel, Counter};
use server::{AdmissionPolicy, GdiServer, Op, OpOutcome, ServerOptions};
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
    let single = extract(ServerOptions::unbatched(), "single");
    assert_eq!(
        grouped, single,
        "group commit must produce the same state as per-request commits"
    );
    assert!(grouped.iter().all(|&(_, d)| d == 1));
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
                    if gda::dptr::owner_rank(id, eng.nranks()) == eng.rank()
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

/// Translation-cache churn: concurrent sessions add, read, delete and
/// re-read their own (disjoint) vertices while also reading the shared
/// base graph and racing edges against other sessions' churn. The cache
/// must never serve a stale translation: a read of a vertex whose delete
/// was acknowledged must abort, a read of a just-added vertex and of any
/// base vertex must commit.
#[test]
fn churn_sessions_never_serve_stale_translations() {
    let s = spec(7, 31);
    let nranks = 4;
    let sessions = 16u64;
    let cycles = 8u64;
    let db_cfg = server_cfg(&s, nranks, (sessions * cycles * 4) as usize);
    assert!(db_cfg.translation_cache, "cache must be on for this test");
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
                    // owner rank, FIFO): a stale *negative* cache entry
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
                    // *positive* cache entry would let this read commit
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

    // the cache was actually in play, and its counters flowed through
    // the fabric reports into the server metrics
    let m = server.metrics().fabric_total();
    assert!(m.cache_hits > 0, "translation cache never hit during churn");
    assert!(m.cache_misses > 0);
}

/// Property: a single closed-loop session applying an arbitrary op
/// sequence observes *identical* outcomes (and leaves identical final
/// state) whether the translation cache is on or off.
#[derive(Debug, Clone)]
enum POp {
    Add(u64),
    Del(u64),
    Read(u64),
    Edge(u64, u64),
}

/// Run `ops` through a fresh server; returns per-op outcome summaries
/// and the final `(app id, out-degree)` state of every live vertex.
fn replay(ops: &[POp], s: &GraphSpec, cached: bool) -> (Vec<String>, Vec<(u64, usize)>) {
    let nranks = 2;
    let mut db_cfg = server_cfg(s, nranks, 4 * ops.len() + 64);
    db_cfg.translation_cache = cached;
    let name = if cached { "prop-cached" } else { "prop-raw" };
    let (db, fabric) = GdaDb::with_fabric(name, db_cfg, nranks, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        graphgen::load_into(&eng, s);
    });
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
            outcomes.push(format!("{:?}", session.execute(op).unwrap()));
        }
        srv.shutdown();
        ranks.join().expect("serving fabric panicked");
    });
    // canonical final state through the *uncached* diagnostic path
    let n = s.n_vertices();
    let states = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let mut out = Vec::new();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadOnly);
            for app in 0..(n + 64) {
                if eng.peek_translate(AppVertexId(app)).is_some() {
                    let id = tx.translate_vertex_id(AppVertexId(app)).unwrap();
                    let d = tx.edge_count(id, EdgeOrientation::Any).unwrap();
                    out.push((app, d));
                }
            }
            tx.commit().unwrap();
        }
        out
    });
    (outcomes, states.into_iter().next().unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_and_uncached_replays_are_identical(
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
        let (out_cached, state_cached) = replay(&ops, &s, true);
        let (out_raw, state_raw) = replay(&ops, &s, false);
        prop_assert_eq!(out_cached, out_raw);
        prop_assert_eq!(state_cached, state_raw);
    }
}
