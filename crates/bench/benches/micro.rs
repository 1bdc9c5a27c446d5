//! Criterion micro-benchmarks of GDA's performance-critical building
//! blocks (§5), each through the public routine that exercises it: an
//! uncached DHT lookup, a write lock taken and released, transaction
//! begin/commit (block acquire/release and DHT insert/delete included),
//! and collective primitives. These are the wall-clock counterparts of
//! the work–depth table in `gda::analysis`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use gda::{GdaConfig, GdaDb};
use gdi::{AccessMode, AppVertexId, PropertyValue};
use rma::{CostModel, FabricBuilder};

fn bench_translate(c: &mut Criterion) {
    let cfg = GdaConfig {
        blocks_per_rank: 1 << 15,
        dht_buckets_per_rank: 1 << 14,
        dht_heap_per_rank: 1 << 16,
        ..GdaConfig::default()
    };
    let (db, fabric) = GdaDb::with_fabric("translate", cfg, 1, CostModel::zero());
    c.bench_function("dht_lookup_hit", |b| {
        let b = parking_lot::Mutex::new(b);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            for k in 0..10_000u64 {
                tx.create_vertex(AppVertexId(k)).unwrap();
            }
            tx.commit().unwrap();
            let mut k = 0u64;
            b.lock().iter(|| {
                k = (k + 7) % 10_000;
                black_box(eng.peek_translate(AppVertexId(black_box(k))))
            });
        });
    });
}

fn bench_write_lock(c: &mut Criterion) {
    let (db, fabric) = GdaDb::with_fabric("lock", GdaConfig::default(), 1, CostModel::zero());
    c.bench_function("tx_prepare_write_abort", |b| {
        let b = parking_lot::Mutex::new(b);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let tx = eng.begin(AccessMode::ReadWrite);
            let v = tx.create_vertex(AppVertexId(1)).unwrap();
            tx.commit().unwrap();
            b.lock().iter(|| {
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.prepare_write(black_box(v)).unwrap();
                tx.abort();
            });
        });
    });
}

fn bench_transactions(c: &mut Criterion) {
    let cfg = GdaConfig {
        blocks_per_rank: 1 << 15,
        dht_heap_per_rank: 1 << 16,
        dht_buckets_per_rank: 1 << 14,
        ..GdaConfig::default()
    };
    let (db, fabric) = GdaDb::with_fabric("bench", cfg, 1, CostModel::zero());
    c.bench_function("tx_create_delete_vertex_commit", |b| {
        let b = parking_lot::Mutex::new(b);
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let mut id = 0u64;
            // resource-balanced: each iteration creates AND deletes, so the
            // block pool and DHT heap never exhaust regardless of the
            // iteration count criterion chooses
            b.lock().iter(|| {
                id += 1;
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(black_box(id))).unwrap();
                tx.commit().unwrap();
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(id)).unwrap();
                tx.delete_vertex(v).unwrap();
                tx.commit().unwrap();
            });
        });
    });
    let (db2, fabric2) = GdaDb::with_fabric("bench2", cfg, 1, CostModel::zero());
    c.bench_function("tx_read_vertex", |b| {
        let b = parking_lot::Mutex::new(b);
        fabric2.run(|ctx| {
            let eng = db2.attach(ctx);
            eng.init_collective();
            let age = eng
                .create_ptype(
                    "age",
                    gdi::Datatype::Uint64,
                    gdi::EntityType::Vertex,
                    gdi::Multiplicity::Single,
                    gdi::SizeType::Fixed,
                    1,
                )
                .unwrap_or_else(|_| eng.meta().ptype_from_name("age").unwrap());
            {
                // idempotent preload: criterion may invoke this closure
                // several times against the same database
                let tx = eng.begin(AccessMode::ReadWrite);
                for i in 0..1000u64 {
                    if let Ok(v) = tx.create_vertex(AppVertexId(i)) {
                        tx.add_property(v, age, &PropertyValue::U64(i)).unwrap();
                    }
                }
                tx.commit().unwrap();
            }
            let mut i = 0u64;
            b.lock().iter(|| {
                i = (i + 13) % 1000;
                let tx = eng.begin(AccessMode::ReadOnly);
                let v = tx.translate_vertex_id(AppVertexId(black_box(i))).unwrap();
                black_box(tx.property(v, age).unwrap());
                tx.commit().unwrap();
            });
        });
    });
}

fn bench_collectives(c: &mut Criterion) {
    for nranks in [2usize, 4] {
        let fabric = FabricBuilder::new(nranks).cost(CostModel::zero()).build();
        c.bench_function(&format!("allreduce_sum_p{nranks}"), |b| {
            let b = parking_lot::Mutex::new(b);
            fabric.run(|ctx| {
                if ctx.rank() == 0 {
                    b.lock()
                        .iter(|| black_box(ctx.allreduce_sum_u64(black_box(1))));
                } else {
                    // peers keep answering until rank 0 signals completion
                    loop {
                        let v = ctx.allreduce_sum_u64(0);
                        if v == u64::MAX {
                            break;
                        }
                    }
                }
                if ctx.rank() == 0 {
                    ctx.allreduce_sum_u64(u64::MAX); // release peers
                }
            });
        });
    }
}

fn bench_generator(c: &mut Criterion) {
    let spec = graphgen::GraphSpec::new(14, 99);
    c.bench_function("kronecker_edge_sample", |b| {
        let s = graphgen::KroneckerSampler::new(spec.scale, spec.seed);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(s.edge(black_box(i)))
        })
    });
    c.bench_function("lpg_vertex_assignment", |b| {
        let lpg = graphgen::LpgConfig::default();
        let mut v = 0u64;
        b.iter_batched(
            || {
                v += 1;
                v
            },
            |v| {
                black_box(lpg.vertex_label_indices(7, v));
                black_box(lpg.vertex_props(7, v));
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_translate, bench_write_lock, bench_transactions, bench_collectives, bench_generator
);
criterion_main!(benches);
