//! An archive is the undo of one overwrite, not a copy of the version.
//!
//! A commit that overwrites a version links the new one to a record of
//! the bytes the overwrite replaced (`crate::holder::Archive`); a pinned
//! reader rewinds the live version it copied one record at a time. These
//! directed cases pin what follows from that: an overwrite of a large
//! holder costs one block, not the holder's chain; readers pinned
//! between length-changing overwrites (edges added and removed, labels,
//! a value that grows and shrinks) each rewind to their own version; an
//! overwrite no snapshot versions (a collective writer) ends the chain
//! it can no longer be rewound through; and a hostile record is a
//! `NotFound`, never a panic. A record goes back to the pool once the
//! snapshot floor passes the commit that wrote it — never while a
//! reader pinned below that commit could still rewind through it, and
//! also when the write-back it was written for failed.

use crate::blocks::BlockManager;
use crate::config::WIN_DATA;
use crate::hio::{read_chain, BLOCK_PAYLOAD_OFFSET};
use crate::holder::{Archive, Holder};
use crate::{DPtr, GdaConfig, GdaDb, GdaRank, Transaction};
use gdi::{
    AccessMode, AppVertexId, Datatype, EdgeOrientation, EntityType, GdiError, LabelId,
    Multiplicity, PTypeId, PropertyValue, SizeType,
};

/// Overwrites a pinned reader rewinds through in the directed cases.
const OVERWRITES: u64 = 12;
use rma::CostModel;

/// The hub's application id; its neighbours are `1..=SPOKES`.
const HUB: u64 = 100;
/// Edge records enough to spread the hub over five 128-byte blocks.
const SPOKES: u64 = 20;

/// Run `body` on a fresh one-rank database holding the hub, its
/// neighbours and an edge hub → each, with the `val` (u64) and `name`
/// (text) properties and the `Tag` label installed.
fn with_hub(body: impl Fn(&GdaRank, DPtr, Meta) + Sync) {
    let (db, fabric) = GdaDb::with_fabric("undo", GdaConfig::tiny(), 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let ptype = |name, dt, size, count| {
            let m = Multiplicity::Single;
            eng.create_ptype(name, dt, EntityType::Vertex, m, size, count)
                .unwrap()
        };
        let meta = Meta {
            val: ptype("val", Datatype::Uint64, SizeType::Fixed, 1),
            name: ptype("name", Datatype::Char, SizeType::NoLimit, 0),
            tag: eng.create_label("Tag").unwrap(),
        };
        let tx = eng.begin(AccessMode::ReadWrite);
        let hub = tx.create_vertex(AppVertexId(HUB)).unwrap();
        tx.add_property(hub, meta.val, &PropertyValue::U64(0))
            .unwrap();
        for s in 1..=SPOKES {
            let to = tx.create_vertex(AppVertexId(s)).unwrap();
            tx.add_edge(hub, to, None, true).unwrap();
        }
        tx.commit().unwrap();
        let (_, blocks) = read_chain(ctx, eng.cfg(), hub).unwrap();
        assert!(blocks.len() >= 5, "the hub spans {} blocks", blocks.len());
        body(&eng, hub, meta);
    });
}

#[derive(Clone, Copy)]
struct Meta {
    val: PTypeId,
    name: PTypeId,
    tag: LabelId,
}

/// Free blocks in rank 0's pool.
fn free_blocks(eng: &GdaRank) -> usize {
    BlockManager::new(eng.ctx(), *eng.cfg()).count_free(0)
}

/// One committed write transaction running `f`.
fn write(eng: &GdaRank, f: impl FnOnce(&Transaction)) {
    let tx = eng.begin(AccessMode::ReadWrite);
    f(&tx);
    tx.commit().unwrap();
}

/// The hub's `val`, sorted out-neighbour app ids, labels and `name`, as
/// `tx` reads them.
type State = (
    Option<PropertyValue>,
    Vec<u64>,
    Vec<LabelId>,
    Option<PropertyValue>,
);

fn state(tx: &Transaction, hub: DPtr, meta: Meta) -> State {
    let mut nbrs: Vec<u64> = (tx.neighbors(hub, EdgeOrientation::Outgoing, None).unwrap())
        .into_iter()
        .map(|v| tx.vertex_app_id(v).unwrap().0)
        .collect();
    nbrs.sort_unstable();
    (
        tx.property(hub, meta.val).unwrap(),
        nbrs,
        tx.labels(hub).unwrap(),
        tx.property(hub, meta.name).unwrap(),
    )
}

/// Records on the hub's version chain, walked from the live holder (safe
/// while a reader pinned before them holds every record).
fn chain_len(eng: &GdaRank, hub: DPtr) -> usize {
    let (bytes, _) = read_chain(eng.ctx(), eng.cfg(), hub).unwrap();
    let (mut cur, mut n) = (Holder::version_of(&bytes).unwrap().1, 0);
    while cur != 0 {
        let (record, _) = read_chain(eng.ctx(), eng.cfg(), DPtr::from_raw(cur)).unwrap();
        cur = Archive::parse(&record).unwrap().prev;
        n += 1;
    }
    n
}

/// Blocks of the hub's and the spokes' live chains.
fn live_blocks(eng: &GdaRank, hub: DPtr) -> usize {
    let tx = eng.begin(AccessMode::ReadOnly);
    let spokes = (1..=SPOKES).map(|s| tx.translate_vertex_id(AppVertexId(s)).unwrap());
    let chains = spokes.chain([hub]).collect::<Vec<_>>();
    tx.commit().unwrap();
    let blocks = |v| read_chain(eng.ctx(), eng.cfg(), v).unwrap().1.len();
    chains.into_iter().map(blocks).sum()
}

/// The record at the head of the hub's version chain, and where it is.
fn head_record(eng: &GdaRank, hub: DPtr) -> (DPtr, Archive) {
    let (bytes, _) = read_chain(eng.ctx(), eng.cfg(), hub).unwrap();
    let head = DPtr::from_raw(Holder::version_of(&bytes).unwrap().1);
    let (record, blocks) = read_chain(eng.ctx(), eng.cfg(), head).unwrap();
    assert_eq!(blocks.len(), 1, "a value update's record fits one block");
    (head, Archive::parse(&record).unwrap())
}

/// N overwrites of a five-block holder take N blocks from the pool —
/// one record each, all kept: the reader pinned before them holds the
/// snapshot floor below every one — where a copy of the pre-image took
/// five. The reader still reads the first version, through all N
/// records.
#[test]
fn overwrites_of_a_multi_block_hub_take_one_block_each() {
    with_hub(|eng, hub, meta| {
        let n = OVERWRITES;
        let pinned = eng.begin(AccessMode::ReadOnly);
        let first = state(&pinned, hub, meta);
        // (B evicts the hub from the reader's buffers)
        let spoke = pinned.translate_vertex_id(AppVertexId(1)).unwrap();
        pinned.labels(spoke).unwrap();
        let (free, stats) = (free_blocks(eng), eng.ctx().stats_snapshot());
        for i in 1..=n {
            write(eng, |tx| {
                tx.update_property(hub, meta.val, &PropertyValue::U64(i))
                    .unwrap()
            });
        }
        let after = eng.ctx().stats_snapshot();
        assert_eq!(
            free - free_blocks(eng),
            n as usize,
            "one block per overwrite"
        );
        assert_eq!(after.version_archives - stats.version_archives, n);
        let archived = after.archive_bytes - stats.archive_bytes;
        assert!(archived <= n * 56, "{archived} B for {n} value updates");
        assert_eq!(
            state(&pinned, hub, meta),
            first,
            "rewound through {n} records"
        );
        pinned.commit().unwrap();
        let fresh = eng.begin(AccessMode::ReadOnly);
        assert_eq!(
            fresh.property(hub, meta.val).unwrap(),
            Some(PropertyValue::U64(n))
        );
        fresh.commit().unwrap();
    });
}

/// A reader pinned before each of a run of length-changing overwrites —
/// an edge added, one removed (compaction shifts the entry section), a
/// label added and removed, a text value set, grown and shrunk — reads
/// exactly the version it pinned, however many records it rewinds.
#[test]
fn pinned_readers_rewind_length_changing_overwrites() {
    with_hub(|eng, hub, meta| {
        type Step = Box<dyn Fn(&Transaction)>;
        let text = |s: &str| PropertyValue::Text(s.to_string());
        let spoke = |tx: &Transaction, s| tx.translate_vertex_id(AppVertexId(s)).unwrap();
        let unlink = move |tx: &Transaction, s: u64| {
            let to = spoke(tx, s);
            let out = tx.edges(hub, EdgeOrientation::Outgoing).unwrap();
            let e = (out.into_iter())
                .find(|&e| tx.edge_endpoints(e).unwrap().1 == to)
                .unwrap();
            tx.delete_edge(e).unwrap();
        };
        let steps: Vec<Step> = vec![
            Box::new(move |tx| {
                tx.add_edge(hub, spoke(tx, 7), None, true).unwrap();
            }),
            Box::new(move |tx| unlink(tx, 1)),
            Box::new(move |tx| tx.add_label(hub, meta.tag).unwrap()),
            Box::new(move |tx| tx.add_property(hub, meta.name, &text("ab")).unwrap()),
            Box::new(move |tx| unlink(tx, 7)),
            Box::new(move |tx| {
                tx.update_property(hub, meta.name, &text(&"x".repeat(300)))
                    .unwrap()
            }),
            Box::new(move |tx| tx.remove_label(hub, meta.tag).unwrap()),
            Box::new(move |tx| tx.update_property(hub, meta.name, &text("c")).unwrap()),
            Box::new(move |tx| unlink(tx, SPOKES)),
            Box::new(move |tx| {
                tx.remove_properties(hub, meta.name).unwrap();
            }),
        ];
        let mut readers = Vec::new();
        for step in &steps {
            let tx = eng.begin(AccessMode::ReadOnly);
            let pinned = state(&tx, hub, meta);
            readers.push((tx, pinned));
            write(eng, |tx| step(tx));
        }
        assert_eq!(
            chain_len(eng, hub),
            steps.len(),
            "the first pin holds every record"
        );
        // newest pin first: each reads a different version
        for (i, (tx, pinned)) in readers.into_iter().enumerate().rev() {
            let other = tx.translate_vertex_id(AppVertexId(2)).unwrap();
            tx.labels(other).unwrap();
            assert_eq!(
                state(&tx, hub, meta),
                pinned,
                "reader pinned before step {i}"
            );
            tx.commit().unwrap();
        }
        let fresh = eng.begin(AccessMode::ReadOnly);
        let (_, nbrs, labels, name) = state(&fresh, hub, meta);
        let want: Vec<u64> = (2..SPOKES).collect();
        assert_eq!((nbrs, labels, name), (want, vec![], None));
        fresh.commit().unwrap();
    });
}

/// An overwrite that no snapshot versions — a collective writer's,
/// which assumes no concurrent reader — unlinks the hub's records: they
/// undo the version it replaced, not the one it wrote, so no later
/// rewind may start from it. They go back to the pool with the next
/// reclaim.
#[test]
fn a_collective_overwrite_ends_the_undo_chain() {
    with_hub(|eng, hub, meta| {
        for i in 1..=2 {
            write(eng, |tx| {
                tx.update_property(hub, meta.val, &PropertyValue::U64(i))
                    .unwrap()
            });
        }
        let free = free_blocks(eng);
        let tx = eng.begin_collective(AccessMode::ReadWrite);
        tx.update_property(hub, meta.val, &PropertyValue::U64(9))
            .unwrap();
        tx.commit().unwrap();
        let live = read_chain(eng.ctx(), eng.cfg(), hub).unwrap().0;
        let (_, prev) = Holder::version_of(&live).unwrap();
        assert_eq!(prev, 0, "the chain ends at the live version");
        assert_eq!(free_blocks(eng), free, "records wait for a reclaim");
        let rep = eng.maintenance();
        assert_eq!(rep.vacuumed_versions, 2, "{rep:?}");
        assert_eq!(free_blocks(eng), free + 2, "both records freed");
        let fresh = eng.begin(AccessMode::ReadOnly);
        assert_eq!(
            fresh.property(hub, meta.val).unwrap(),
            Some(PropertyValue::U64(9))
        );
        fresh.commit().unwrap();
    });
}

/// Every word of a record's header, overwritten with a hostile value
/// while a pinned reader needs it: the read returns a value or
/// `NotFound`, never a panic — and once the record is restored the
/// reader reads its version again.
#[test]
fn hostile_archive_records_are_not_found_never_a_panic() {
    with_hub(|eng, hub, meta| {
        let pinned = eng.begin(AccessMode::ReadOnly);
        let first = pinned.property(hub, meta.val).unwrap();
        write(eng, |tx| {
            tx.update_property(hub, meta.val, &PropertyValue::U64(5))
                .unwrap()
        });
        let (head, _) = head_record(eng, hub);
        let base = head.offset() as usize + BLOCK_PAYLOAD_OFFSET;
        let mut good = [0u8; 48];
        eng.ctx().get_bytes(WIN_DATA, 0, base, &mut good);
        let other = pinned.translate_vertex_id(AppVertexId(1)).unwrap();
        // (the version word at 24 is the block stamp's twin: a read of
        // it torn away from the stamp retries until it gives up)
        for at in (0..48).step_by(4).filter(|at| !(24..32).contains(at)) {
            for hostile in [0u32, 1, 47, 49, 0xFF, u32::MAX] {
                eng.ctx()
                    .put_bytes(WIN_DATA, 0, base + at, &hostile.to_le_bytes());
                pinned.labels(other).unwrap();
                match pinned.property(hub, meta.val) {
                    Ok(_) | Err(GdiError::NotFound(_)) => {}
                    Err(e) => panic!("word {at} = {hostile:#x}: {e:?}"),
                }
                eng.ctx().put_bytes(WIN_DATA, 0, base, &good);
            }
        }
        pinned.labels(other).unwrap();
        assert_eq!(pinned.property(hub, meta.val).unwrap(), first);
        pinned.commit().unwrap();
    });
}

/// A reader pinned before a dozen overwrites reads its version after
/// every one of them, across the reclaims commits and maintenance passes
/// run meanwhile: none frees a record the pin can still rewind through.
/// Once it unpins, one pass returns the pool to exactly the live blocks.
#[test]
fn a_reader_pinned_across_overwrites_keeps_its_version_until_it_unpins() {
    with_hub(|eng, hub, meta| {
        let pinned = eng.begin(AccessMode::ReadOnly);
        let first = state(&pinned, hub, meta);
        let spoke = pinned.translate_vertex_id(AppVertexId(1)).unwrap();
        for i in 1..=OVERWRITES {
            write(eng, |tx| {
                tx.update_property(hub, meta.val, &PropertyValue::U64(i))
                    .unwrap()
            });
            if i % 4 == 0 {
                assert_eq!(eng.maintenance().vacuumed_versions, 0);
            }
            // (B evicts the hub from the reader's buffers)
            pinned.labels(spoke).unwrap();
            assert_eq!(state(&pinned, hub, meta), first, "after overwrite {i}");
        }
        assert_eq!(chain_len(eng, hub), OVERWRITES as usize);
        pinned.commit().unwrap();
        let rep = eng.maintenance();
        assert_eq!(rep.vacuumed_versions, OVERWRITES, "{rep:?}");
        assert_eq!(
            free_blocks(eng) + live_blocks(eng, hub),
            eng.cfg().blocks_per_rank,
            "the pool is the live blocks and the free ones"
        );
    });
}

/// A write-back that runs out of blocks after its commit archived the
/// pre-image leaks nothing: the record goes back with the next reclaim,
/// and the blocks acquired to grow the holder go back at once. The pool
/// has exactly two free blocks: the record takes one, and growing the
/// holder from one block to three gets one and fails on the next.
#[test]
fn a_failed_write_back_leaks_no_block() {
    let cfg = GdaConfig {
        blocks_per_rank: 4,
        ..GdaConfig::tiny()
    };
    let (db, fabric) = GdaDb::with_fabric("leak", cfg, 1, CostModel::zero());
    fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (m, size) = (Multiplicity::Single, SizeType::NoLimit);
        let blob = eng
            .create_ptype("blob", Datatype::Byte, EntityType::Vertex, m, size, 0)
            .unwrap();
        let tx = eng.begin(AccessMode::ReadWrite);
        let ids: Vec<DPtr> = (1..=2u64)
            .map(|a| tx.create_vertex(AppVertexId(a)).unwrap())
            .collect();
        tx.commit().unwrap();
        assert_eq!(free_blocks(&eng), 2);
        let tx = eng.begin(AccessMode::ReadWrite);
        tx.add_property(ids[0], blob, &PropertyValue::Bytes(vec![7; 200]))
            .unwrap();
        assert_eq!(tx.commit(), Err(GdiError::OutOfMemory));
        eng.maintenance();
        let live: usize = (ids.iter())
            .map(|&v| read_chain(ctx, eng.cfg(), v).unwrap().1.len())
            .sum();
        assert_eq!(live, 2, "the failed write left the holder as it was");
        assert_eq!(
            free_blocks(&eng) + live,
            cfg.blocks_per_rank,
            "free + live == capacity"
        );
        let tx = eng.begin(AccessMode::ReadOnly);
        assert_eq!(tx.property(ids[0], blob).unwrap(), None);
        tx.commit().unwrap();
    });
}
