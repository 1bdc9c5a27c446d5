//! Failure-injection tests: resource exhaustion, conflicting workloads and
//! recovery behaviour. A transaction that hits an error must leave the
//! database exactly as it found it (atomicity) and release every resource
//! (no leaked blocks, locks, or DHT entries).

use gda::blocks::BlockManager;
use gda::{GdaConfig, GdaDb};
use gdi::{
    AccessMode, AppVertexId, CmpOp, Constraint, Datatype, EdgeOrientation, EntityType, GdiError,
    Multiplicity, PropertyValue, SizeType, Subconstraint,
};
use rma::CostModel;

/// A pool so small that a handful of vertices exhausts it.
fn starved_cfg() -> GdaConfig {
    GdaConfig {
        block_size: 128,
        blocks_per_rank: 8,
        dht_buckets_per_rank: 8,
        dht_heap_per_rank: 8,
        max_lock_retries: 8,
        ..GdaConfig::tiny()
    }
}

#[test]
fn out_of_blocks_fails_cleanly_and_recovers() {
    let cfg = starved_cfg();
    let (db, fabric) = GdaDb::with_fabric("oom", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();

        // exhaust the pool inside one transaction
        let tx = eng.begin(AccessMode::ReadWrite);
        let mut created = 0u64;
        loop {
            match tx.create_vertex(AppVertexId(created + 1)) {
                Ok(_) => created += 1,
                Err(GdiError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(created < 100, "pool should have been exhausted");
        }
        assert!(created > 0);
        tx.abort(); // give everything back

        // full capacity must be available again
        let bm = BlockManager::new(ctx, cfg);
        assert_eq!(bm.count_free(0), cfg.blocks_per_rank);

        // and a committed transaction of the same size succeeds now
        let tx = eng.begin(AccessMode::ReadWrite);
        for i in 0..created {
            tx.create_vertex(AppVertexId(1000 + i)).unwrap();
        }
        tx.commit().unwrap();
    });
}

#[test]
fn dht_heap_exhaustion_surfaces_at_commit() {
    // heap of 8 entries, but plenty of blocks: creating more vertices than
    // DHT entries must fail at the insert step without corrupting the map
    let cfg = GdaConfig {
        blocks_per_rank: 128,
        ..starved_cfg()
    };
    let (db, fabric) = GdaDb::with_fabric("dhtoom", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let mut committed = 0;
        for i in 0..20u64 {
            let tx = eng.begin(AccessMode::ReadWrite);
            if tx.create_vertex(AppVertexId(i)).is_ok() && tx.commit().is_ok() {
                committed += 1;
            }
        }
        assert!(
            committed >= cfg.dht_heap_per_rank.min(8),
            "committed {committed}"
        );
        // every committed vertex is still resolvable
        let tx = eng.begin(AccessMode::ReadOnly);
        let mut found = 0;
        for i in 0..20u64 {
            if tx.translate_vertex_id(AppVertexId(i)).is_ok() {
                found += 1;
            }
        }
        tx.commit().unwrap();
        assert_eq!(found, committed);
    });
}

#[test]
fn failed_transactions_leave_no_partial_writes() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("atomic", cfg, 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let age = if ctx.rank() == 0 {
            eng.create_ptype(
                "a",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .ok()
        } else {
            None
        };
        ctx.barrier();
        eng.refresh_meta();
        let age = age.unwrap_or_else(|| eng.meta().ptype_from_name("a").unwrap());
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(AppVertexId(1)).unwrap();
            tx.add_property(v, age, &PropertyValue::U64(100)).unwrap();
            let w = tx.create_vertex(AppVertexId(2)).unwrap();
            tx.add_edge(v, w, None, true).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();

        // rank 1 starts a multi-object mutation and aborts midway
        if ctx.rank() == 1 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
            let w = tx.translate_vertex_id(AppVertexId(2)).unwrap();
            tx.update_property(v, age, &PropertyValue::U64(999))
                .unwrap();
            tx.delete_edge(tx.edges(v, EdgeOrientation::Outgoing).unwrap()[0])
                .unwrap();
            tx.delete_vertex(w).unwrap();
            tx.abort(); // none of the above may be visible
        }
        ctx.barrier();

        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(AppVertexId(1)).unwrap();
        assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(100)));
        assert_eq!(tx.edge_count(v, EdgeOrientation::Outgoing).unwrap(), 1);
        assert!(tx.translate_vertex_id(AppVertexId(2)).is_ok());
        tx.commit().unwrap();
    });
}

#[test]
fn lock_conflict_storm_never_corrupts_edges() {
    // many ranks add/delete edges between the same two hot vertices; after
    // the storm both endpoints must agree on the edge count
    let cfg = GdaConfig {
        blocks_per_rank: 2048,
        dht_buckets_per_rank: 64,
        dht_heap_per_rank: 256,
        ..GdaConfig::tiny()
    };
    let (db, fabric) = GdaDb::with_fabric("storm", cfg, 6, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(AppVertexId(1)).unwrap();
            tx.create_vertex(AppVertexId(2)).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();
        let mut net_added = 0i64;
        for round in 0..30 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let r = (|| {
                let a = tx.translate_vertex_id(AppVertexId(1))?;
                let b = tx.translate_vertex_id(AppVertexId(2))?;
                if round % 3 == 0 {
                    // try deleting one of our previously added edges
                    let es = tx.edges(a, EdgeOrientation::Outgoing)?;
                    if let Some(&e) = es.first() {
                        tx.delete_edge(e)?;
                        return Ok::<i64, GdiError>(-1);
                    }
                }
                tx.add_edge(a, b, None, true)?;
                Ok(1)
            })();
            match r {
                Ok(delta) => {
                    if tx.commit().is_ok() {
                        net_added += delta;
                    }
                }
                Err(_) => tx.abort(),
            }
        }
        ctx.barrier();
        let total: u64 = ctx.allreduce_sum_u64(net_added.max(0) as u64)
            - ctx.allreduce_sum_u64((-net_added).max(0) as u64);
        let tx = eng.begin(AccessMode::ReadOnly);
        let a = tx.translate_vertex_id(AppVertexId(1)).unwrap();
        let b = tx.translate_vertex_id(AppVertexId(2)).unwrap();
        let out_a = tx.edge_count(a, EdgeOrientation::Outgoing).unwrap() as u64;
        let in_b = tx.edge_count(b, EdgeOrientation::Incoming).unwrap() as u64;
        tx.commit().unwrap();
        assert_eq!(out_a, in_b, "mirror invariant broken");
        assert_eq!(out_a, total, "edge count diverged from committed ops");
    });
}

/// Checkpoint under resource exhaustion: a checkpoint that fails while
/// writing (injected, modeling a full log device) must leave the
/// previous snapshot usable and the database serving — including under
/// the same storage pressure the rest of this suite exercises — and a
/// recovery anchored at the previous snapshot must see every commit,
/// even those made *after* the failed attempt.
#[test]
fn failed_checkpoint_under_oom_keeps_serving_and_recovers() {
    use gda::persist::{recover, PersistOptions};

    let dir = std::env::temp_dir().join(format!("gda-fi-ckpt-oom-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // a starved pool: the serving-path commits below run close to the
    // same OutOfMemory edge the other tests in this file probe
    let cfg = GdaConfig {
        blocks_per_rank: 24,
        dht_buckets_per_rank: 16,
        dht_heap_per_rank: 24,
        ..starved_cfg()
    };
    {
        let (db, fabric) = GdaDb::with_fabric("ckptoom", cfg, 2, CostModel::zero());
        let store = db.enable_persistence(PersistOptions::new(&dir)).unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..6u64 {
                    tx.create_vertex(AppVertexId(i)).unwrap();
                }
                tx.commit().unwrap();
            }
            ctx.barrier();
            // a good checkpoint, then a failing one (disk exhaustion)
            assert_eq!(eng.checkpoint().unwrap(), 1);
            if ctx.rank() == 0 {
                store.fault_plane().arm_at(
                    gda::faults::MANIFEST_WRITE,
                    Some(0),
                    0,
                    1,
                    gda::faults::FaultMode::Error,
                );
            }
            assert!(eng.checkpoint().is_err(), "injected failure surfaces");
            // the failed attempt left no partial state: CURRENT still
            // points at the good snapshot, no half-written directory
            assert_eq!(store.current(), 1);
            assert!(!store.ckpt_dir_exists(2));
            ctx.barrier();
            // the database keeps serving, including transactions that
            // themselves hit resource exhaustion and roll back cleanly
            if ctx.rank() == 1 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let mut i = 100u64;
                loop {
                    match tx.create_vertex(AppVertexId(i)) {
                        Ok(_) => i += 1,
                        Err(GdiError::OutOfMemory) => break,
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
                tx.abort(); // exhaustion rolls back, pool refills
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(50)).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
        });
    }
    // recovery is anchored at the previous (good) snapshot; the commits
    // made after the failed checkpoint replay from the redo tail
    let (db, fabric, plan) = recover(PersistOptions::new(&dir), CostModel::zero()).unwrap();
    assert_eq!(plan.snapshot_id(), 1);
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0);
        let tx = eng.begin(AccessMode::ReadOnly);
        for i in (0..6u64).chain([50]) {
            tx.translate_vertex_id(AppVertexId(i))
                .unwrap_or_else(|e| panic!("vertex {i} lost after failed checkpoint: {e}"));
        }
        assert!(tx.translate_vertex_id(AppVertexId(100)).is_err(), "aborted");
        tx.commit().unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn constraint_filtered_neighbors() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("cnstr", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let car = eng.create_label("Car").unwrap();
        let owns = eng.create_label("OWNS").unwrap();
        let color = eng
            .create_ptype(
                "color",
                Datatype::Uint64,
                EntityType::Vertex,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let p = tx.create_vertex(AppVertexId(1)).unwrap();
        for (id, c, labeled) in [(10u64, 1u64, true), (11, 2, true), (12, 1, false)] {
            let v = tx.create_vertex(AppVertexId(id)).unwrap();
            if labeled {
                tx.add_label(v, car).unwrap();
            }
            tx.add_property(v, color, &PropertyValue::U64(c)).unwrap();
            tx.add_edge(p, v, Some(owns), true).unwrap();
        }
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let p = tx.translate_vertex_id(AppVertexId(1)).unwrap();
        // red (color == 1) cars only
        let red_cars = Constraint::from_sub(Subconstraint::new().with_label(car).with_prop(
            color,
            CmpOp::Eq,
            PropertyValue::U64(1),
        ));
        let found = tx
            .neighbors_matching(p, EdgeOrientation::Outgoing, Some(owns), &red_cars)
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(tx.vertex_app_id(found[0]).unwrap(), AppVertexId(10));
        // everything reachable without the constraint
        assert_eq!(
            tx.neighbors_matching(p, EdgeOrientation::Outgoing, Some(owns), &Constraint::any())
                .unwrap()
                .len(),
            3
        );
        tx.commit().unwrap();
    });
}

#[test]
fn read_only_collective_with_concurrent_local_writers_stays_alive() {
    // collective readers skip locks (paper's optimized path); verify the
    // defensive decode keeps them alive even while local writers churn
    let cfg = GdaConfig {
        blocks_per_rank: 4096,
        dht_buckets_per_rank: 256,
        dht_heap_per_rank: 1024,
        ..GdaConfig::tiny()
    };
    let (db, fabric) = GdaDb::with_fabric("mixed", cfg, 4, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            for i in 0..64u64 {
                tx.create_vertex(AppVertexId(i)).unwrap();
            }
            tx.commit().unwrap();
        }
        ctx.barrier();
        // ranks 0-1 write; ranks 2-3 read through local transactions (with
        // read locks, serializable), everyone stays consistent
        for round in 0..25u64 {
            if ctx.rank() < 2 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let r = (|| {
                    let v =
                        tx.translate_vertex_id(AppVertexId((round * 7 + ctx.rank() as u64) % 64))?;
                    let w = tx.translate_vertex_id(AppVertexId((round * 13 + 1) % 64))?;
                    tx.add_edge(v, w, None, true)?;
                    Ok::<(), GdiError>(())
                })();
                match r {
                    Ok(()) => {
                        let _ = tx.commit();
                    }
                    Err(_) => tx.abort(),
                }
            } else {
                let tx = eng.begin(AccessMode::ReadOnly);
                let r = (|| {
                    let v = tx.translate_vertex_id(AppVertexId(round % 64))?;
                    let _ = tx.edge_count(v, EdgeOrientation::Any)?;
                    Ok::<(), GdiError>(())
                })();
                drop(r);
                let _ = tx.commit();
            }
        }
        ctx.barrier();
    });
}
