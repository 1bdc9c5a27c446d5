//! End-to-end transaction tests for the GDA engine: CRUD, ACID behaviour,
//! conflicts, collective transactions, indexes and bulk load.

use std::time::{Duration, Instant};

use gda::faults::{self, FaultMode};
use gda::{EdgeSpec, GdaConfig, GdaDb, PersistOptions, VertexSpec};
use gdi::{
    AccessMode, AppVertexId, CmpOp, Constraint, Datatype, EdgeOrientation, EntityType, GdiError,
    LabelId, Multiplicity, PropertyValue, SizeType, Subconstraint, TxStatus,
};
use rma::CostModel;

fn app(i: u64) -> AppVertexId {
    AppVertexId(i)
}

/// Helper: run a closure on a fresh single-rank database.
fn single_rank(f: impl Fn(&gda::GdaRank) + Sync) {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("t", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        f(&eng);
    });
}

/// Helper: standard metadata (Person label, age/name ptypes).
fn std_meta(eng: &gda::GdaRank) -> (LabelId, gdi::PTypeId, gdi::PTypeId) {
    let person = eng.create_label("Person").unwrap();
    let age = eng
        .create_ptype(
            "age",
            Datatype::Uint64,
            EntityType::Vertex,
            Multiplicity::Single,
            SizeType::Fixed,
            1,
        )
        .unwrap();
    let name = eng
        .create_ptype(
            "name",
            Datatype::Char,
            EntityType::VertexEdge,
            Multiplicity::Single,
            SizeType::NoLimit,
            0,
        )
        .unwrap();
    (person, age, name)
}

#[test]
fn create_read_vertex_roundtrip() {
    single_rank(|eng| {
        let (person, age, name) = std_meta(eng);
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_label(v, person).unwrap();
        tx.add_property(v, age, &PropertyValue::U64(33)).unwrap();
        tx.add_property(v, name, &PropertyValue::Text("Ada".into()))
            .unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(app(1)).unwrap();
        assert_eq!(tx.vertex_app_id(v).unwrap(), app(1));
        assert_eq!(tx.labels(v).unwrap(), vec![person]);
        assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(33)));
        assert_eq!(
            tx.property(v, name).unwrap(),
            Some(PropertyValue::Text("Ada".into()))
        );
        assert_eq!(tx.ptypes(v).unwrap().len(), 2);
        tx.commit().unwrap();
    });
}

#[test]
fn uncommitted_changes_invisible_and_abort_discards() {
    single_rank(|eng| {
        let (_, age, _) = std_meta(eng);
        {
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(app(7)).unwrap();
            tx.add_property(v, age, &PropertyValue::U64(1)).unwrap();
            tx.abort();
        }
        let tx = eng.begin(AccessMode::ReadOnly);
        assert_eq!(
            tx.translate_vertex_id(app(7)).unwrap_err(),
            GdiError::NotFound("vertex (application id)")
        );
        tx.commit().unwrap();
    });
}

#[test]
fn dropped_transaction_auto_aborts() {
    single_rank(|eng| {
        {
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(app(9)).unwrap();
            // dropped without commit
        }
        let tx = eng.begin(AccessMode::ReadOnly);
        assert!(tx.translate_vertex_id(app(9)).is_err());
        // block pool not leaked: we can still create plenty of vertices
        tx.commit().unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        for i in 100..130 {
            tx.create_vertex(app(i)).unwrap();
        }
        tx.commit().unwrap();
    });
}

#[test]
fn read_only_transactions_reject_writes() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        tx.create_vertex(app(1)).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(app(1)).unwrap();
        assert_eq!(
            tx.add_label(v, LabelId(1)).unwrap_err(),
            GdiError::NotFound("label")
        );
        // a real write op on a read-only tx is transaction critical
        let err = tx.delete_vertex(v).unwrap_err();
        assert_eq!(err, GdiError::ReadOnlyViolation);
        assert_eq!(tx.status(), TxStatus::Aborted);
    });
}

#[test]
fn duplicate_app_id_rejected() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        tx.create_vertex(app(5)).unwrap();
        tx.commit().unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        assert_eq!(
            tx.create_vertex(app(5)).unwrap_err(),
            GdiError::AlreadyExists("vertex (application id)")
        );
        tx.abort();
    });
}

#[test]
fn update_and_remove_properties() {
    single_rank(|eng| {
        let (_, age, _) = std_meta(eng);
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_property(v, age, &PropertyValue::U64(30)).unwrap();
        // Single multiplicity: second add fails, update succeeds
        assert_eq!(
            tx.add_property(v, age, &PropertyValue::U64(31))
                .unwrap_err(),
            GdiError::AlreadyExists("single-valued property")
        );
        tx.update_property(v, age, &PropertyValue::U64(31)).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.translate_vertex_id(app(1)).unwrap();
        assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(31)));
        assert_eq!(tx.remove_properties(v, age).unwrap(), 1);
        assert_eq!(tx.property(v, age).unwrap(), None);
        tx.commit().unwrap();
    });
}

#[test]
fn property_type_validation() {
    single_rank(|eng| {
        let (_, age, _) = std_meta(eng);
        let edge_only = eng
            .create_ptype(
                "weight",
                Datatype::Double,
                EntityType::Edge,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        let bounded = eng
            .create_ptype(
                "tag",
                Datatype::Byte,
                EntityType::Vertex,
                Multiplicity::Multi,
                SizeType::Limited,
                4,
            )
            .unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        // wrong entity type
        assert_eq!(
            tx.add_property(v, edge_only, &PropertyValue::F64(1.0))
                .unwrap_err(),
            GdiError::TypeMismatch
        );
        // datatype misalignment: 3 bytes into a u64 property
        assert_eq!(
            tx.add_property(v, age, &PropertyValue::Bytes(vec![1, 2, 3]))
                .unwrap_err(),
            GdiError::TypeMismatch
        );
        // size limit
        assert_eq!(
            tx.add_property(v, bounded, &PropertyValue::Bytes(vec![0; 5]))
                .unwrap_err(),
            GdiError::SizeExceeded
        );
        tx.add_property(v, bounded, &PropertyValue::Bytes(vec![0; 4]))
            .unwrap();
        // unknown ptype
        assert_eq!(
            tx.add_property(v, gdi::PTypeId(999), &PropertyValue::U64(0))
                .unwrap_err(),
            GdiError::NotFound("property type")
        );
        tx.commit().unwrap();
    });
}

#[test]
fn edges_directed_and_undirected() {
    single_rank(|eng| {
        let knows = eng.create_label("KNOWS").unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let a = tx.create_vertex(app(1)).unwrap();
        let b = tx.create_vertex(app(2)).unwrap();
        let c = tx.create_vertex(app(3)).unwrap();
        tx.add_edge(a, b, Some(knows), true).unwrap();
        tx.add_edge(a, c, None, false).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let a = tx.translate_vertex_id(app(1)).unwrap();
        let b = tx.translate_vertex_id(app(2)).unwrap();
        let c = tx.translate_vertex_id(app(3)).unwrap();
        assert_eq!(tx.edge_count(a, EdgeOrientation::Outgoing).unwrap(), 1);
        assert_eq!(tx.edge_count(a, EdgeOrientation::Undirected).unwrap(), 1);
        assert_eq!(tx.edge_count(a, EdgeOrientation::Any).unwrap(), 2);
        assert_eq!(tx.edge_count(b, EdgeOrientation::Incoming).unwrap(), 1);
        assert_eq!(tx.edge_count(c, EdgeOrientation::Undirected).unwrap(), 1);
        assert_eq!(
            tx.neighbors(a, EdgeOrientation::Outgoing, None).unwrap(),
            vec![b]
        );
        assert_eq!(
            tx.neighbors(a, EdgeOrientation::Outgoing, Some(knows))
                .unwrap(),
            vec![b]
        );
        assert!(tx
            .neighbors(a, EdgeOrientation::Outgoing, Some(LabelId(999)))
            .unwrap()
            .is_empty());
        // endpoints and labels through edge UIDs
        let es = tx.edges(a, EdgeOrientation::Outgoing).unwrap();
        assert_eq!(es.len(), 1);
        assert_eq!(tx.edge_endpoints(es[0]).unwrap(), (a, b));
        assert_eq!(tx.edge_labels(es[0]).unwrap(), vec![knows]);
        // reverse view from b
        let es_b = tx.edges(b, EdgeOrientation::Incoming).unwrap();
        assert_eq!(tx.edge_endpoints(es_b[0]).unwrap(), (a, b));
        tx.commit().unwrap();
    });
}

#[test]
fn delete_edge_removes_both_records() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let a = tx.create_vertex(app(1)).unwrap();
        let b = tx.create_vertex(app(2)).unwrap();
        let e = tx.add_edge(a, b, None, true).unwrap();
        tx.delete_edge(e).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let a = tx.translate_vertex_id(app(1)).unwrap();
        let b = tx.translate_vertex_id(app(2)).unwrap();
        assert_eq!(tx.edge_count(a, EdgeOrientation::Any).unwrap(), 0);
        assert_eq!(tx.edge_count(b, EdgeOrientation::Any).unwrap(), 0);
        tx.commit().unwrap();
    });
}

#[test]
fn delete_vertex_cleans_neighbours() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let hub = tx.create_vertex(app(1)).unwrap();
        let mut spokes = Vec::new();
        for i in 2..=5 {
            let s = tx.create_vertex(app(i)).unwrap();
            tx.add_edge(hub, s, None, true).unwrap();
            spokes.push(s);
        }
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadWrite);
        let hub = tx.translate_vertex_id(app(1)).unwrap();
        tx.delete_vertex(hub).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        assert!(tx.translate_vertex_id(app(1)).is_err());
        for i in 2..=5 {
            let s = tx.translate_vertex_id(app(i)).unwrap();
            assert_eq!(
                tx.edge_count(s, EdgeOrientation::Any).unwrap(),
                0,
                "spoke {i}"
            );
        }
        tx.commit().unwrap();
    });
}

#[test]
fn self_loops() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        let e = tx.add_edge(v, v, None, true).unwrap();
        assert_eq!(tx.edge_count(v, EdgeOrientation::Outgoing).unwrap(), 1);
        assert_eq!(tx.edge_count(v, EdgeOrientation::Incoming).unwrap(), 1);
        tx.delete_edge(e).unwrap();
        assert_eq!(tx.edge_count(v, EdgeOrientation::Any).unwrap(), 0);
        tx.commit().unwrap();
    });
}

#[test]
fn heavy_edge_properties_and_second_label() {
    single_rank(|eng| {
        let owns = eng.create_label("OWNS").unwrap();
        let since = eng.create_label("SINCE_2020").unwrap();
        let weight = eng
            .create_ptype(
                "weight",
                Datatype::Double,
                EntityType::Edge,
                Multiplicity::Single,
                SizeType::Fixed,
                1,
            )
            .unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let a = tx.create_vertex(app(1)).unwrap();
        let b = tx.create_vertex(app(2)).unwrap();
        let e = tx.add_edge(a, b, Some(owns), true).unwrap();
        tx.set_edge_property(e, weight, &PropertyValue::F64(2.5))
            .unwrap();
        tx.add_edge_label(e, since).unwrap();
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let a = tx.translate_vertex_id(app(1)).unwrap();
        let es = tx.edges(a, EdgeOrientation::Outgoing).unwrap();
        assert_eq!(es.len(), 1);
        assert_eq!(
            tx.edge_property(es[0], weight).unwrap(),
            Some(PropertyValue::F64(2.5))
        );
        let labels = tx.edge_labels(es[0]).unwrap();
        assert!(labels.contains(&owns) && labels.contains(&since));
        tx.commit().unwrap();
    });
}

#[test]
fn large_vertex_spills_to_many_blocks() {
    single_rank(|eng| {
        let (_, _, name) = std_meta(eng);
        let big_text = "x".repeat(1000); // >> 128-byte blocks
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_property(v, name, &PropertyValue::Text(big_text.clone()))
            .unwrap();
        for i in 10..40 {
            let u = tx.create_vertex(app(i)).unwrap();
            tx.add_edge(v, u, None, true).unwrap();
        }
        tx.commit().unwrap();

        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(app(1)).unwrap();
        assert_eq!(
            tx.property(v, name).unwrap(),
            Some(PropertyValue::Text(big_text))
        );
        assert_eq!(tx.edge_count(v, EdgeOrientation::Outgoing).unwrap(), 30);
        tx.commit().unwrap();
    });
}

#[test]
fn distributed_crud_across_ranks() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("d", cfg, 4, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let knows = if ctx.rank() == 0 {
            Some(eng.create_label("KNOWS").unwrap())
        } else {
            None
        };
        ctx.barrier();
        eng.refresh_meta();
        let knows = knows.unwrap_or_else(|| eng.meta().label_from_name("KNOWS").unwrap());

        // each rank creates a disjoint slice of vertices (ownership is
        // round-robin, so most creations are remote)
        let base = ctx.rank() as u64 * 100;
        let tx = eng.begin(AccessMode::ReadWrite);
        for i in 0..10 {
            tx.create_vertex(app(base + i)).unwrap();
        }
        tx.commit().unwrap();
        ctx.barrier();

        // cross-rank edges: rank r connects its vertices to rank r+1's.
        // Every rank write-locks its own vertex, then its peer's, and
        // holds both to commit — a ring, so a bounded-retry abort is the
        // designed outcome (§3.3), and the client's part is to run the
        // transaction again.
        let peer = ((ctx.rank() + 1) % ctx.nranks()) as u64 * 100;
        'retry: loop {
            let tx = eng.begin(AccessMode::ReadWrite);
            for i in 0..10 {
                let a = tx.translate_vertex_id(app(base + i)).unwrap();
                let b = tx.translate_vertex_id(app(peer + i)).unwrap();
                match tx.add_edge(a, b, Some(knows), true) {
                    Ok(_) => {}
                    Err(GdiError::LockConflict) => {
                        assert_eq!(tx.status(), TxStatus::Aborted);
                        continue 'retry;
                    }
                    Err(e) => panic!("add_edge: {e:?}"),
                }
            }
            tx.commit().unwrap();
            break;
        }
        ctx.barrier();

        // everyone verifies the full ring
        let tx = eng.begin(AccessMode::ReadOnly);
        for r in 0..ctx.nranks() as u64 {
            for i in 0..10 {
                let v = tx.translate_vertex_id(app(r * 100 + i)).unwrap();
                assert_eq!(tx.edge_count(v, EdgeOrientation::Outgoing).unwrap(), 1);
                assert_eq!(tx.edge_count(v, EdgeOrientation::Incoming).unwrap(), 1);
            }
        }
        tx.commit().unwrap();
    });
}

/// No rank serves a translation another rank's commit retired: every
/// rank caches every id (positive and negative), then each rank deletes
/// some of its own vertices and creates new ones through transactions.
/// After a barrier every rank's cached answer must equal the uncached DHT
/// walk for every id — including ids a peer deleted or created after
/// this rank had cached them.
#[test]
fn cross_rank_translations_never_go_stale() {
    const PER_RANK: u64 = 40;
    let cfg = GdaConfig::tiny();
    let (db, fabric) =
        GdaDb::with_fabric_on("stale", cfg, 3, CostModel::default(), rma::BackendKind::Sim);
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let all = 0..ctx.nranks() as u64 * PER_RANK;
        let mine = ctx.rank() as u64 * PER_RANK;
        let tx = eng.begin(AccessMode::ReadWrite);
        for i in 0..30 {
            tx.create_vertex(app(mine + i)).unwrap();
        }
        tx.commit().unwrap();
        ctx.barrier();
        // every rank caches every id, ids 30.. of each slice as absent
        let tx = eng.begin(AccessMode::ReadOnly);
        for id in all.clone() {
            assert_eq!(tx.translate_vertex_id(app(id)).is_ok(), id % PER_RANK < 30);
        }
        tx.commit().unwrap();
        ctx.barrier();
        for i in (0..30).step_by(3) {
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(app(mine + i)).unwrap();
            tx.delete_vertex(v).unwrap();
            tx.commit().unwrap();
        }
        let tx = eng.begin(AccessMode::ReadWrite);
        for i in 30..PER_RANK {
            tx.create_vertex(app(mine + i)).unwrap();
        }
        tx.commit().unwrap();
        ctx.barrier();
        let tx = eng.begin(AccessMode::ReadOnly);
        for id in all {
            let (live, i) = (eng.peek_translate(app(id)).is_some(), id % PER_RANK);
            assert_eq!(live, i >= 30 || i % 3 != 0, "id {id}");
            assert_eq!(
                tx.translate_vertex_id(app(id)).is_ok(),
                live,
                "rank {} serves a stale translation of {id}",
                ctx.rank()
            );
        }
        tx.commit().unwrap();
    });
}

/// A deleting commit returns the object's blocks to the owner's pool
/// before it releases the object's write lock, which goes with the rest
/// after the redo append. A create on the owner rank that pops the freed
/// primary in that gap must take another block, not fail on the lock.
/// A stalled redo append holds the gap open for a second, and the
/// create starts once the stall has begun.
#[test]
fn a_create_takes_another_block_while_a_deleting_commit_holds_the_lock() {
    const STALL: Duration = Duration::from_secs(1);
    let dir = std::env::temp_dir().join(format!("gda-delete-create-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (db, fabric) = GdaDb::with_fabric_on(
        "gap",
        GdaConfig::tiny(),
        2,
        CostModel::default(),
        rma::BackendKind::Sim,
    );
    let store = db.enable_persistence(PersistOptions::new(&dir)).unwrap();
    // both vertices live on rank 1: the victim's primary is the top of
    // rank 1's pool once the delete frees it
    let (victim, newcomer) = (app(1), app(3));
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(victim).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();
        let freed = eng.peek_translate(victim).unwrap();
        assert_eq!(freed.rank(), 1);
        ctx.barrier();
        if ctx.rank() == 0 {
            store.fault_plane().arm_at(
                faults::REDO_APPEND,
                Some(0),
                0,
                1,
                FaultMode::Latency(STALL.as_nanos() as u64),
            );
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.translate_vertex_id(victim).unwrap();
            tx.delete_vertex(v).unwrap();
            tx.commit().unwrap();
        } else {
            // the fault fires once the delete has freed the chain, and
            // its count is read under the plane's lock: from here on the
            // primary is pooled and still write-locked for the stall
            let start = Instant::now();
            while store.fault_plane().fired_at(faults::REDO_APPEND) == 0 {
                assert!(start.elapsed() < 10 * STALL, "the delete never committed");
                std::thread::yield_now();
            }
            let start = Instant::now();
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(newcomer).unwrap();
            assert!(start.elapsed() < STALL, "the create waited out the stall");
            assert_ne!(v, freed, "the create took the still-locked primary");
            // (the commit itself publishes after the delete's epoch, so
            // it waits for the stalled commit whatever block it holds)
            tx.commit().unwrap();
        }
        ctx.barrier();
        assert!(eng.peek_translate(victim).is_none());
        assert!(eng.peek_translate(newcomer).is_some());
    });
    assert_eq!(store.fault_plane().fired(), 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_conflicts_abort_not_corrupt() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("c", cfg, 4, CostModel::zero());
    let counts = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let age = if ctx.rank() == 0 {
            eng.create_ptype(
                "n",
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
        let age = age.unwrap_or_else(|| eng.meta().ptype_from_name("n").unwrap());
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(app(1)).unwrap();
            tx.add_property(v, age, &PropertyValue::U64(0)).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();
        // all ranks increment the same counter property; conflicts abort
        let mut committed = 0u64;
        for _ in 0..25 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let r = (|| {
                let v = tx.translate_vertex_id(app(1))?;
                let cur = tx.property(v, age)?.and_then(|p| p.as_u64()).unwrap_or(0);
                tx.update_property(v, age, &PropertyValue::U64(cur + 1))?;
                Ok::<(), GdiError>(())
            })();
            match r {
                Ok(()) => {
                    if tx.commit().is_ok() {
                        committed += 1;
                    }
                }
                Err(_) => { /* aborted by conflict */ }
            }
        }
        ctx.barrier();
        let total = ctx.allreduce_sum_u64(committed);
        // serializability: final value equals number of committed updates
        let tx = eng.begin(AccessMode::ReadOnly);
        let v = tx.translate_vertex_id(app(1)).unwrap();
        let fin = tx.property(v, age).unwrap().unwrap().as_u64().unwrap();
        tx.commit().unwrap();
        assert_eq!(fin, total, "lost or phantom update");
        committed
    });
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "no transaction ever committed");
}

/// The interleaving `write_conflicts_abort_not_corrupt` only hits by
/// luck, forced: a writer reads a value lock-free, another transaction
/// commits an overwrite, and only then does the first declare its write
/// intent. It must lose (first committer wins) — continuing on the
/// refetched holder would commit `stale + 1` over the other's update.
#[test]
fn write_after_a_concurrent_commit_conflicts() {
    single_rank(|eng| {
        let (_, age, _) = std_meta(eng);
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_property(v, age, &PropertyValue::U64(10)).unwrap();
        tx.commit().unwrap();

        let slow = eng.begin(AccessMode::ReadWrite);
        let seen = slow.property(v, age).unwrap().unwrap().as_u64().unwrap();
        let fast = eng.begin(AccessMode::ReadWrite);
        fast.update_property(v, age, &PropertyValue::U64(seen + 1))
            .unwrap();
        fast.commit().unwrap();
        assert_eq!(
            slow.update_property(v, age, &PropertyValue::U64(seen + 1)),
            Err(GdiError::LockConflict)
        );
        drop(slow);

        let tx = eng.begin(AccessMode::ReadOnly);
        assert_eq!(
            tx.property(v, age).unwrap(),
            Some(PropertyValue::U64(11)),
            "the committed update survives, the stale one left no trace"
        );
        tx.commit().unwrap();
        // an unrelated later writer is not affected
        let tx = eng.begin(AccessMode::ReadWrite);
        tx.update_property(v, age, &PropertyValue::U64(12)).unwrap();
        tx.commit().unwrap();
    });
}

#[test]
fn collective_read_transaction_scans_index() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("i", cfg, 4, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (person, age) = if ctx.rank() == 0 {
            let p = eng.create_label("Person").unwrap();
            let a = eng
                .create_ptype(
                    "age",
                    Datatype::Uint64,
                    EntityType::Vertex,
                    Multiplicity::Single,
                    SizeType::Fixed,
                    1,
                )
                .unwrap();
            (Some(p), Some(a))
        } else {
            (None, None)
        };
        ctx.barrier();
        eng.refresh_meta();
        let person = person.unwrap_or_else(|| eng.meta().label_from_name("Person").unwrap());
        let age = age.unwrap_or_else(|| eng.meta().ptype_from_name("age").unwrap());
        let index = if ctx.rank() == 0 {
            Some(eng.create_index("people", vec![person], vec![age]).unwrap())
        } else {
            None
        };
        let index = gda::IndexId(ctx.bcast(0, index.map(|i| i.0)));
        ctx.barrier();

        // rank 0 populates 40 persons with ages 0..40
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            for i in 0..40u64 {
                let v = tx.create_vertex(app(i)).unwrap();
                tx.add_label(v, person).unwrap();
                tx.add_property(v, age, &PropertyValue::U64(i)).unwrap();
            }
            tx.commit().unwrap();
        }
        ctx.barrier();

        // collective OLSP query: count persons with age > 30 (Listing 3)
        let tx = eng.begin_collective(AccessMode::ReadOnly);
        let cnstr = Constraint::from_sub(Subconstraint::new().with_label(person).with_prop(
            age,
            CmpOp::Gt,
            PropertyValue::U64(30),
        ));
        let local = tx.local_index_scan(index, &cnstr).unwrap().len() as u64;
        tx.commit().unwrap();
        let total = ctx.allreduce_sum_u64(local);
        assert_eq!(total, 9, "ages 31..=39");
    });
}

#[test]
fn bulk_load_roundtrip() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("b", cfg, 4, CostModel::default());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let person = if ctx.rank() == 0 {
            Some(eng.create_label("Person").unwrap())
        } else {
            None
        };
        ctx.barrier();
        eng.refresh_meta();
        let person = person.unwrap_or_else(|| eng.meta().label_from_name("Person").unwrap());

        // rank r contributes vertices [r*25, r*25+25) and a ring of edges
        let base = ctx.rank() as u64 * 25;
        let vs: Vec<VertexSpec> = (base..base + 25)
            .map(|i| VertexSpec::new(i).with_label(person))
            .collect();
        let es: Vec<EdgeSpec> = (base..base + 25)
            .map(|i| EdgeSpec {
                from: app(i),
                to: app((i + 1) % 100),
                label: person.0,
                directed: true,
            })
            .collect();
        let rep = eng.bulk_load(vs, es).unwrap();
        let total_v = ctx.allreduce_sum_u64(rep.vertices as u64);
        let total_he = ctx.allreduce_sum_u64(rep.half_edges as u64);
        assert_eq!(total_v, 100);
        assert_eq!(total_he, 200, "each edge lands at two endpoints");
        assert_eq!(rep.dangling_edges, 0);

        // ring is traversable
        let tx = eng.begin(AccessMode::ReadOnly);
        let mut cur = tx.translate_vertex_id(app(0)).unwrap();
        for _ in 0..100 {
            let nbrs = tx.neighbors(cur, EdgeOrientation::Outgoing, None).unwrap();
            assert_eq!(nbrs.len(), 1);
            cur = nbrs[0];
        }
        assert_eq!(tx.vertex_app_id(cur).unwrap(), app(0));
        tx.commit().unwrap();
    });
}

#[test]
fn bulk_load_reports_duplicates_and_dangling() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("bd", cfg, 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (vs, es) = if ctx.rank() == 0 {
            (
                vec![VertexSpec::new(1), VertexSpec::new(1)], // duplicate
                vec![EdgeSpec {
                    from: app(1),
                    to: app(999),
                    label: 0,
                    directed: true,
                }],
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let rep = eng.bulk_load(vs, es).unwrap();
        let dup = ctx.allreduce_sum_u64(rep.duplicate_vertices as u64);
        let dangling = ctx.allreduce_sum_u64(rep.dangling_edges as u64);
        assert_eq!(dup, 1);
        assert_eq!(dangling, 2, "both half-edges dangle");
    });
}

#[test]
fn stale_metadata_aborts_commit() {
    let cfg = GdaConfig::tiny();
    let (db, fabric) = GdaDb::with_fabric("s", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let l = eng.create_label("A").unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_label(v, l).unwrap(); // transaction now relies on metadata
                                     // concurrent metadata change (as if from another process):
                                     // bumps the epoch mid-transaction
        eng.create_label("B").unwrap();
        assert_eq!(tx.commit().unwrap_err(), GdiError::StaleMetadata);
        // the vertex never became visible
        let tx = eng.begin(AccessMode::ReadOnly);
        assert!(tx.translate_vertex_id(app(1)).is_err());
        tx.commit().unwrap();
    });
}

#[test]
fn volatile_ids_stay_valid_within_transaction() {
    // edge slots (EdgeUid offsets) are volatile across transactions but
    // stable within one, even after deletions (tombstones)
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        let others: Vec<_> = (2..6).map(|i| tx.create_vertex(app(i)).unwrap()).collect();
        let e0 = tx.add_edge(v, others[0], None, true).unwrap();
        let e1 = tx.add_edge(v, others[1], None, true).unwrap();
        let e2 = tx.add_edge(v, others[2], None, true).unwrap();
        tx.delete_edge(e1).unwrap();
        // e0 and e2 still resolve to the right endpoints
        assert_eq!(tx.edge_endpoints(e0).unwrap(), (v, others[0]));
        assert_eq!(tx.edge_endpoints(e2).unwrap(), (v, others[2]));
        assert!(tx.edge_endpoints(e1).is_err());
        tx.commit().unwrap();
    });
}

#[test]
fn operations_on_closed_transaction_fail() {
    single_rank(|eng| {
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        let _ = v;
        tx.commit().unwrap();
        let tx2 = eng.begin(AccessMode::ReadWrite);
        tx2.abort();
        // new handle needed; aborted tx cannot be reused (moved), checked
        // via status on a fresh one we abort through an error instead:
        let tx3 = eng.begin(AccessMode::ReadOnly);
        let v = tx3.translate_vertex_id(app(1)).unwrap();
        let _ = tx3.delete_vertex(v); // read-only violation aborts tx3
        assert_eq!(tx3.status(), TxStatus::Aborted);
        assert_eq!(
            tx3.labels(v).unwrap_err(),
            GdiError::TransactionClosed,
            "aborted transaction must reject further operations"
        );
    });
}

#[test]
fn many_parallel_databases() {
    let reg = gda::DbRegistry::default();
    let cfg = GdaConfig::tiny();
    let db1 = reg.create("one", cfg, 2).unwrap();
    let db2 = reg.create("two", cfg, 2).unwrap();
    let f1 = cfg.build_fabric(2, CostModel::zero());
    let f2 = cfg.build_fabric(2, CostModel::zero());
    f1.run(|ctx| {
        let eng = db1.attach(ctx);
        eng.init_collective();
        if ctx.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            tx.create_vertex(app(1)).unwrap();
            tx.commit().unwrap();
        }
        ctx.barrier();
    });
    f2.run(|ctx| {
        let eng = db2.attach(ctx);
        eng.init_collective();
        let tx = eng.begin(AccessMode::ReadOnly);
        // databases are fully isolated
        assert!(tx.translate_vertex_id(app(1)).is_err());
        tx.commit().unwrap();
    });
}

/// The pipelined candidate prefetch behind `neighbors_matching` must
/// keep the sequential path's semantics: identical results against
/// per-candidate fetching. Under MVCC a read-only probe is
/// snapshot-pinned, so a write lock held on a candidate neither
/// blocks nor aborts it — the probe sees the pinned (pre-update)
/// version instead.
#[test]
fn neighbors_matching_batched_prefetch_semantics() {
    single_rank(|eng| {
        let (person, age, _) = std_meta(eng);
        let tx = eng.begin(AccessMode::ReadWrite);
        let hub = tx.create_vertex(app(1)).unwrap();
        let mut nbrs = Vec::new();
        for i in 2..8u64 {
            let v = tx.create_vertex(app(i)).unwrap();
            tx.add_label(v, person).unwrap();
            tx.add_property(v, age, &PropertyValue::U64(i * 10))
                .unwrap();
            tx.add_edge(hub, v, None, true).unwrap();
            nbrs.push(v);
        }
        tx.commit().unwrap();

        // batched filter result ≡ per-candidate reference
        let young = Constraint::from_sub(Subconstraint::new().with_prop(
            age,
            CmpOp::Lt,
            PropertyValue::U64(50),
        ));
        let tx = eng.begin(AccessMode::ReadOnly);
        let got = tx
            .neighbors_matching(hub, EdgeOrientation::Outgoing, None, &young)
            .unwrap();
        let mut want = Vec::new();
        for &v in &nbrs {
            if tx.property(v, age).unwrap() == Some(PropertyValue::U64(20))
                || tx.property(v, age).unwrap() == Some(PropertyValue::U64(30))
                || tx.property(v, age).unwrap() == Some(PropertyValue::U64(40))
            {
                want.push(v);
            }
        }
        assert_eq!(got, want);
        tx.commit().unwrap();

        // a write lock held elsewhere on one candidate no longer
        // disturbs the probe: the snapshot-pinned read bypasses the
        // lock table and resolves every candidate at its pinned
        // (pre-update) version
        let blocker = eng.begin(AccessMode::ReadWrite);
        blocker
            .update_property(nbrs[1], age, &PropertyValue::U64(99))
            .unwrap(); // holds the write lock on nbrs[1]
        let probe = eng.begin(AccessMode::ReadOnly);
        let during = probe
            .neighbors_matching(hub, EdgeOrientation::Outgoing, None, &young)
            .unwrap();
        assert_eq!(during, want, "snapshot probe neither blocks nor aborts");
        probe.commit().unwrap();

        // a probe that pins *before* the writer commits keeps resolving
        // the candidate at its archived pre-update version afterwards,
        // whether its first touch is the batch (`neighbors_matching`) or
        // a single read (`property`)
        let (batch, single) = (
            eng.begin(AccessMode::ReadOnly),
            eng.begin(AccessMode::ReadOnly),
        );
        blocker.commit().unwrap();
        let got = batch
            .neighbors_matching(hub, EdgeOrientation::Outgoing, None, &young)
            .unwrap();
        assert_eq!(got, want, "batch first touch reads the archive");
        for probe in [batch, single] {
            assert_eq!(
                probe.property(nbrs[1], age).unwrap(),
                Some(PropertyValue::U64(30))
            );
            probe.commit().unwrap();
        }

        // with the lock released the probe succeeds again (and sees the
        // committed update)
        let tx = eng.begin(AccessMode::ReadOnly);
        let after = tx
            .neighbors_matching(hub, EdgeOrientation::Outgoing, None, &young)
            .unwrap();
        assert_eq!(after.len(), want.len() - 1, "updated vertex now filtered");
        tx.commit().unwrap();
    });
}

/// A writer's `neighbors_matching` touches its candidates one by one
/// into its cache; it must answer what a reader answers. Two ranks on
/// Sim, a hub on rank 0 whose eight candidates alternate between the
/// ranks: a read-only, a local read-write and a collective read-write
/// transaction return the same set, and a local writer's call while
/// another writer holds one candidate's write lock reads that candidate
/// lock-free at its committed version and commits.
#[test]
fn writer_neighbors_matching_answers_as_a_reader() {
    let (db, fabric) = GdaDb::with_fabric_on(
        "nm",
        GdaConfig::tiny(),
        2,
        CostModel::default(),
        rma::BackendKind::Sim,
    );
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let made = (ctx.rank() == 0).then(|| {
            let (_, age, _) = std_meta(&eng);
            let tx = eng.begin(AccessMode::ReadWrite);
            let hub = tx.create_vertex(app(1)).unwrap();
            let mut nbrs = Vec::new();
            for i in 2..10u64 {
                let v = tx.create_vertex(app(i)).unwrap();
                tx.add_property(v, age, &PropertyValue::U64(i * 10))
                    .unwrap();
                tx.add_edge(hub, v, None, true).unwrap();
                nbrs.push(v.raw());
            }
            tx.commit().unwrap();
            (age.0, hub.raw(), nbrs)
        });
        let (age, hub, nbrs) = ctx.bcast(0, made);
        eng.refresh_meta();
        let (age, hub) = (gdi::PTypeId(age), gda::DPtr::from_raw(hub));
        let nbrs: Vec<gda::DPtr> = nbrs.into_iter().map(gda::DPtr::from_raw).collect();
        let ranks: std::collections::HashSet<usize> = nbrs.iter().map(|v| v.rank()).collect();
        assert_eq!(ranks.len(), 2, "candidates on both ranks");
        let young = Constraint::from_sub(Subconstraint::new().with_prop(
            age,
            CmpOp::Lt,
            PropertyValue::U64(50),
        ));
        let matching = |tx: &gda::Transaction| {
            tx.neighbors_matching(hub, EdgeOrientation::Outgoing, None, &young)
                .unwrap()
        };
        let want = nbrs[..3].to_vec(); // ages 20, 30 and 40

        for mode in [AccessMode::ReadOnly, AccessMode::ReadWrite] {
            let tx = eng.begin(mode);
            assert_eq!(matching(&tx), want, "local {mode:?}");
            tx.commit().unwrap();
        }
        let tx = eng.begin_collective(AccessMode::ReadWrite);
        assert_eq!(matching(&tx), want, "collective read-write");
        tx.commit().unwrap();
        ctx.barrier();

        if ctx.rank() == 0 {
            // another writer holds the write lock on a candidate of each rank
            let blocker = eng.begin(AccessMode::ReadWrite);
            for &v in &nbrs[1..3] {
                blocker
                    .update_property(v, age, &PropertyValue::U64(99))
                    .unwrap();
            }
            let writer = eng.begin(AccessMode::ReadWrite);
            assert_eq!(matching(&writer), want, "committed versions, lock-free");
            assert_eq!(writer.status(), TxStatus::Active);
            writer.commit().unwrap();
            blocker.commit().unwrap();
            let tx = eng.begin(AccessMode::ReadWrite);
            assert_eq!(matching(&tx), want[..1], "the blocker's update is seen");
            tx.commit().unwrap();
        }
        ctx.barrier();
    });
}

/// A lock-free read handed an id — or meeting a continuation link —
/// that names a rank that does not exist or storage past the data
/// window reports the stale id it is; the parent commit panicked in the
/// fabric's window table ("index out of bounds: the len is 1 but the
/// index is 7") and in `Window::span`.
#[test]
fn lock_free_reads_of_hostile_ids_are_not_found() {
    single_rank(|eng| {
        let (person, _, name) = std_meta(eng);
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        tx.add_label(v, person).unwrap();
        let long = PropertyValue::Text("x".repeat(400)); // a multi-block holder
        tx.add_property(v, name, &long).unwrap();
        tx.commit().unwrap();

        let stale = Err(GdiError::NotFound("object (stale internal id)"));
        let no_rank = gda::DPtr::new(7, v.offset());
        let off_window = gda::DPtr::new(0, (1 << 40) + 64);
        for mode in [AccessMode::ReadOnly, AccessMode::ReadWrite] {
            // (a writer's first *read* of an object is lock-free too)
            let tx = eng.begin(mode);
            assert_eq!(tx.labels(no_rank), stale);
            assert_eq!(tx.labels(off_window), stale);
            assert_eq!(tx.labels(v), Ok(vec![person]));
            tx.commit().unwrap();
        }
        // the vertex's first link, pointed at each of them
        for bad in [no_rank, off_window] {
            eng.ctx().put_bytes(
                gda::config::WIN_DATA,
                0,
                v.offset() as usize,
                &bad.raw().to_le_bytes(),
            );
            let tx = eng.begin(AccessMode::ReadOnly);
            assert_eq!(tx.labels(v), stale);
            tx.commit().unwrap();
        }
    });
}

// ---------------------------------------------------------------------
// Which reads take the byte path (`gda::tx` module docs): every read of
// a read-only transaction, none of a writer's — observable only through
// what a read returns, so each test sets up a case where the wrong path
// returns the wrong value.
// ---------------------------------------------------------------------

/// Two ranks, Person label + age, a `people` index, and Person vertices
/// `0..n` with `age = id`, chained `i → i + 1` (round-robin ownership
/// puts half on each rank).
fn two_rank_people(n: u64, f: impl Fn(&gda::GdaRank, LabelId, gdi::PTypeId, gda::IndexId) + Sync) {
    let (db, fabric) = GdaDb::with_fabric("paths", GdaConfig::tiny(), 2, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ids = (ctx.rank() == 0).then(|| {
            let (person, age, _) = std_meta(&eng);
            let index = eng.create_index("people", vec![person], vec![age]).unwrap();
            let tx = eng.begin(AccessMode::ReadWrite);
            let mut prev = None;
            for i in 0..n {
                let v = tx.create_vertex(app(i)).unwrap();
                tx.add_label(v, person).unwrap();
                tx.add_property(v, age, &PropertyValue::U64(i)).unwrap();
                if let Some(prev) = prev.replace(v) {
                    tx.add_edge(prev, v, None, true).unwrap();
                }
            }
            tx.commit().unwrap();
            (person.0, age.0, index.0)
        });
        let (person, age, index) = ctx.bcast(0, ids);
        eng.refresh_meta();
        f(
            &eng,
            LabelId(person),
            gdi::PTypeId(age),
            gda::IndexId(index),
        );
    });
}

/// A collective read-**write** transaction keeps the decoded cache: it
/// sees its own label and property writes through `has_label`,
/// `property` and `local_index_scan` (the window still holds the old
/// bytes until commit). The collective read-only transaction after it
/// reads the committed bytes.
#[test]
fn collective_writer_reads_its_own_writes() {
    two_rank_people(8, |eng, person, age, index| {
        let vip = (eng.rank() == 0).then(|| eng.create_label("Vip").unwrap().0);
        let vip = LabelId(eng.ctx().bcast(0, vip));
        eng.refresh_meta();
        let old = Constraint::from_sub(Subconstraint::new().with_label(person).with_prop(
            age,
            CmpOp::Ge,
            PropertyValue::U64(100),
        ));
        let mine = |tx: &gda::Transaction| -> Vec<u64> {
            let mut apps: Vec<u64> = tx
                .local_index_scan(index, &old)
                .unwrap()
                .iter()
                .map(|p| p.app_id.0)
                .collect();
            apps.sort_unstable();
            apps
        };

        let tx = eng.begin_collective(AccessMode::ReadWrite);
        assert!(mine(&tx).is_empty(), "nobody is 100 yet");
        // every rank ages the vertices it owns by 100 and knights them
        let own: Vec<u64> = (0..8).filter(|i| i % 2 == eng.rank() as u64).collect();
        for &i in &own {
            let v = tx.translate_vertex_id(app(i)).unwrap();
            assert_eq!(v.rank(), eng.rank(), "round-robin ownership");
            tx.update_property(v, age, &PropertyValue::U64(100 + i))
                .unwrap();
            tx.add_label(v, vip).unwrap();
            assert_eq!(
                tx.property(v, age).unwrap(),
                Some(PropertyValue::U64(100 + i))
            );
            assert!(tx.has_label(v, vip).unwrap());
            assert_eq!(tx.labels(v).unwrap(), vec![person, vip]);
        }
        assert_eq!(mine(&tx), own, "the scan filters on the written values");
        tx.commit().unwrap();

        let tx = eng.begin_collective(AccessMode::ReadOnly);
        assert_eq!(mine(&tx), own);
        for &i in &own {
            let v = tx.translate_vertex_id(app(i)).unwrap();
            assert!(tx.has_label(v, vip).unwrap());
            assert_eq!(
                tx.property(v, age).unwrap(),
                Some(PropertyValue::U64(100 + i))
            );
        }
        tx.commit().unwrap();
    });
}

/// A pinned local read-only transaction reads its snapshot version of a
/// local vertex it first touches *after* an overwrite committed — labels,
/// properties, neighbours and the index filter alike. (The window holds
/// the new bytes; only the validated version-chain walk finds the old.)
#[test]
fn pinned_reader_keeps_its_snapshot_of_a_local_vertex() {
    single_rank(|eng| {
        let (person, age, _) = std_meta(eng);
        let index = eng.create_index("people", vec![person], vec![age]).unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let v = tx.create_vertex(app(1)).unwrap();
        let w = tx.create_vertex(app(2)).unwrap();
        tx.add_label(v, person).unwrap();
        tx.add_property(v, age, &PropertyValue::U64(1)).unwrap();
        tx.commit().unwrap();

        let pinned = eng.begin(AccessMode::ReadOnly);
        let writer = eng.begin(AccessMode::ReadWrite);
        writer
            .update_property(v, age, &PropertyValue::U64(2))
            .unwrap();
        writer.remove_label(v, person).unwrap();
        writer.add_edge(v, w, None, true).unwrap();
        writer.commit().unwrap();

        assert_eq!(
            pinned.property(v, age).unwrap(),
            Some(PropertyValue::U64(1))
        );
        assert!(pinned.has_label(v, person).unwrap());
        assert!(pinned
            .neighbors(v, EdgeOrientation::Outgoing, None)
            .unwrap()
            .is_empty());
        pinned.commit().unwrap();

        // a reader that begins now sees the overwrite (index postings are
        // maintained at commit: `v` lost its label and its posting)
        let tx = eng.begin(AccessMode::ReadOnly);
        assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(2)));
        assert!(!tx.has_label(v, person).unwrap());
        assert_eq!(
            tx.neighbors(v, EdgeOrientation::Outgoing, None).unwrap(),
            vec![w]
        );
        assert!(tx
            .local_index_scan(index, &Constraint::any())
            .unwrap()
            .is_empty());
        tx.commit().unwrap();
    });
}

/// In a collective read-only transaction a vertex is read from bytes by
/// its owner and by everyone else alike: both ranks must report the same
/// labels, properties, app ids and neighbours for every vertex, and the
/// generated values.
#[test]
fn collective_reader_agrees_with_the_owner_on_remote_vertices() {
    two_rank_people(10, |eng, person, age, _| {
        let tx = eng.begin_collective(AccessMode::ReadOnly);
        let mut seen = Vec::new();
        let mut local = 0;
        for i in 0..10u64 {
            let v = tx.translate_vertex_id(app(i)).unwrap();
            local += (v.rank() == eng.rank()) as usize;
            let out = tx.neighbors(v, EdgeOrientation::Outgoing, None).unwrap();
            let next: Vec<u64> = out
                .iter()
                .map(|&n| tx.vertex_app_id(n).unwrap().0)
                .collect();
            assert_eq!(next, if i < 9 { vec![i + 1] } else { vec![] });
            assert_eq!(tx.vertex_app_id(v).unwrap(), app(i));
            assert_eq!(tx.property(v, age).unwrap(), Some(PropertyValue::U64(i)));
            assert_eq!(tx.properties(v, age).unwrap().len(), 1);
            assert_eq!(tx.ptypes(v).unwrap(), vec![age]);
            seen.push((
                tx.labels(v).unwrap(),
                tx.has_label(v, person).unwrap(),
                tx.edge_count(v, EdgeOrientation::Any).unwrap(),
                out,
            ));
        }
        assert_eq!(
            local, 5,
            "each rank owns half, reads the other half remotely"
        );
        tx.commit().unwrap();
        let all = eng.ctx().allgatherv(seen);
        assert_eq!(all[0], all[1], "owner and remote reader disagree");
    });
}

/// The byte path keeps nothing but the chain it read last: consecutive
/// reads of one local vertex fetch its blocks once, a read of another
/// vertex in between fetches them again.
#[test]
fn consecutive_byte_reads_of_one_vertex_fetch_it_once() {
    two_rank_people(8, |eng, person, age, _| {
        let tx = eng.begin_collective(AccessMode::ReadOnly);
        let own: Vec<gda::DPtr> = (0..8)
            .map(|i| tx.translate_vertex_id(app(i)).unwrap())
            .filter(|v| v.rank() == eng.rank())
            .collect();
        let (v, w) = (own[0], own[1]);
        let fetched = |f: &dyn Fn()| {
            let before = eng.ctx().stats_snapshot().local_ops;
            f();
            eng.ctx().stats_snapshot().local_ops - before
        };
        let once = fetched(&|| assert!(tx.has_label(v, person).unwrap()));
        assert!(once > 0);
        // `v` is what the buffers hold: no further fetch
        let again = fetched(&|| {
            assert!(tx.property(v, age).unwrap().is_some());
            tx.neighbors(v, EdgeOrientation::Any, None).unwrap();
            assert_eq!(tx.labels(v).unwrap(), vec![person]);
        });
        assert_eq!(again, 0);
        // `w` displaces it
        assert!(fetched(&|| assert!(tx.has_label(w, person).unwrap())) > 0);
        assert_eq!(fetched(&|| assert!(tx.has_label(v, person).unwrap())), once);
        tx.commit().unwrap();
    });
}
