//! Server-level background maintenance: explicit collective passes
//! ([`GdiServer::maintenance`]), scheduled passes between drain cycles
//! ([`ServerOptions::maintenance_interval`]), and the maintenance
//! counters surfaced through [`server::ServerMetrics`].

use gda::{GdaConfig, GdaDb};
use gdi::{AppVertexId, Datatype, EntityType, Multiplicity, PTypeId, PropertyValue, SizeType};
use rma::CostModel;
use server::{GdiServer, Op, ServerOptions};

/// Register a byte-blob vertex property type collectively and return it.
fn setup_blob_ptype(db: &std::sync::Arc<GdaDb>, fabric: &rma::Fabric) -> PTypeId {
    let ids = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let pt = if ctx.rank() == 0 {
            eng.create_ptype(
                "blob",
                Datatype::Byte,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::NoLimit,
                0,
            )
            .unwrap()
            .0 as u64
        } else {
            0
        };
        let pt = ctx.allreduce_max_u64(pt);
        eng.refresh_meta();
        pt
    });
    PTypeId(ids[0] as u32)
}

#[test]
fn explicit_maintenance_reclaims_mvcc_garbage_while_serving() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("srv-maint", cfg, 2, CostModel::default());
    let blob = setup_blob_ptype(&db, &fabric);
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    let mut report = None;
    std::thread::scope(|s| {
        let srv = &server;
        let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let session = server.session();
        for v in 1..=4u64 {
            let out = session
                .execute(Op::AddVertex {
                    v: AppVertexId(v),
                    label: None,
                    prop: None,
                })
                .unwrap();
            assert!(out.is_committed(), "{out:?}");
        }
        // every overwrite puts its archive on its rank's retire list; a
        // commit reclaims only once the list outgrows max(P, 2 × what
        // its last reclaim kept), so the remainder is the vacuum's
        for round in 0..6u64 {
            for v in 1..=4u64 {
                let out = session
                    .execute(Op::UpdateVertexProp {
                        v: AppVertexId(v),
                        ptype: blob,
                        value: PropertyValue::Bytes(vec![round as u8; 8]),
                    })
                    .unwrap();
                assert!(out.is_committed(), "{out:?}");
            }
        }
        report = Some(server.maintenance().unwrap());
        server.shutdown();
        ranks.join().unwrap();
    });
    let report = report.unwrap();
    assert!(report.vacuumed_versions >= 1, "{report:?}");
    assert!(report.vacuumed_blocks >= 1, "{report:?}");
    assert_eq!(report.verify_errors, 0, "{report:?}");

    let m = server.metrics();
    assert_eq!(m.maintenance_runs, 1);
    // engine-level counters: one collective pass counted once per rank
    let fabric = m.fabric_total();
    assert_eq!(fabric.maintenance_passes, 2);
    assert!(fabric.vacuumed_versions >= report.vacuumed_versions);
    assert_eq!(fabric.verify_errors, 0);
    // the overwritten vertices stay readable after the vacuum
    assert!(m.committed() >= 4 + 24);
}

#[test]
fn scheduled_maintenance_runs_between_drain_cycles() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("srv-maint-sched", cfg, 2, CostModel::default());
    let blob = setup_blob_ptype(&db, &fabric);
    let opts = ServerOptions {
        maintenance_interval: Some(1),
        max_batch: 4,
        ..ServerOptions::default()
    };
    let server = GdiServer::new(db.clone(), opts);
    std::thread::scope(|s| {
        let srv = &server;
        let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let session = server.session();
        // even app ids route to rank 0, so rank 0 drains batches and
        // its cadence fires after each one
        let out = session
            .execute(Op::AddVertex {
                v: AppVertexId(2),
                label: None,
                prop: None,
            })
            .unwrap();
        assert!(out.is_committed(), "{out:?}");
        for round in 0..8u64 {
            let out = session
                .execute(Op::UpdateVertexProp {
                    v: AppVertexId(2),
                    ptype: blob,
                    value: PropertyValue::Bytes(vec![round as u8; 8]),
                })
                .unwrap();
            assert!(out.is_committed(), "{out:?}");
        }
        server.shutdown();
        ranks.join().unwrap();
    });
    let m = server.metrics();
    assert!(m.maintenance_runs >= 1, "cadence never fired: {m:?}");
    // every scheduled run executed collectively on both ranks
    let fabric = m.fabric_total();
    assert_eq!(fabric.maintenance_passes, 2 * m.maintenance_runs);
    assert_eq!(fabric.verify_errors, 0);
    // the passes freed the hot vertex's archives without touching its
    // live version (all later reads committed above)
    assert!(fabric.vacuumed_versions >= 1, "{m:?}");
}

/// Passes that each reclaim a growing multi-block holder's archives and
/// compact its chain keep every block accounted for: after each one,
/// free + live + retired is the whole pool on both ranks, and no block
/// is freed twice ("free-list cycle during vacuum"). Fifty edge inserts
/// on one vertex grow exactly such a holder.
#[test]
fn repeated_maintenance_keeps_the_block_pool_whole() {
    let cfg = GdaConfig {
        blocks_per_rank: 1024,
        ..GdaConfig::tiny()
    };
    let (db, fabric) = GdaDb::with_fabric("srv-maint-twice", cfg, 2, CostModel::default());
    fabric.run(|ctx| db.attach(ctx).init_collective());
    let server = GdiServer::new(db.clone(), ServerOptions::default());
    let mut passes = Vec::new();
    std::thread::scope(|s| {
        let srv = &server;
        let ranks = s.spawn(move || fabric.run(|ctx| srv.serve_rank(ctx)));
        let session = server.session();
        for v in 1..=64u64 {
            let out = session
                .execute(Op::AddVertex {
                    v: AppVertexId(v),
                    label: None,
                    prop: None,
                })
                .unwrap();
            assert!(out.is_committed(), "{out:?}");
        }
        // each rank's free + live + retired blocks, by collective job
        let pool_blocks = || {
            let sums = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let sink = sums.clone();
            server
                .submit_olap(move |eng| {
                    // collective: count before taking the lock
                    let sum = gdi_tests::harness::free_plus_live_blocks(eng);
                    sink.lock().push(sum);
                    0.0
                })
                .unwrap()
                .wait();
            let sums = sums.lock().clone();
            sums
        };
        // every commit archives the previous version of vertex 2 (even
        // ids live on rank 0) and grows its holder across more blocks
        for round in 0..3u64 {
            for i in 0..50u64 {
                let out = session
                    .execute(Op::AddEdge {
                        from: AppVertexId(2),
                        to: AppVertexId(3 + (round * 50 + i) % 60),
                        label: None,
                    })
                    .unwrap();
                assert!(out.is_committed(), "{out:?}");
            }
            let report = server.maintenance().unwrap();
            let pool = pool_blocks();
            passes.push((report, pool.clone()));
            // a broken pool panics the next pass on its rank thread,
            // which would hang this one: stop and fail below instead
            if pool != [cfg.blocks_per_rank; 2] {
                break;
            }
        }
        server.shutdown();
        ranks.join().unwrap();
    });
    for (report, pool) in &passes {
        assert!(report.vacuumed_versions >= 1, "{report:?}");
        assert_eq!(pool, &[cfg.blocks_per_rank; 2], "after {report:?}");
    }
    assert_eq!(passes.len(), 3);
    assert_eq!(server.metrics().maintenance_runs, 3);
}
