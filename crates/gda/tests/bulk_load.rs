//! Bulk load against a sequential reference.
//!
//! A bulk load routes every half-edge to its endpoint's owner, so the
//! order a vertex's edge records end up in is a contract, not an accident
//! of the routing: source rank first, then the order that rank passed its
//! edges, the from-half of an edge before its to-half. These tests build
//! that order sequentially and compare every loaded holder with it —
//! labels, properties and each edge record's target, label and direction —
//! on both backends and P ∈ {1, 2, 4}.

use std::collections::BTreeMap;

use gda::{BulkReport, DPtr, EdgeSpec, GdaConfig, GdaDb, GdaRank, VertexSpec};
use gdi::{AccessMode, AppVertexId, Direction, EdgeOrientation, LabelId, PTypeId};
use graphgen::load::{edge_spec, install_metadata, vertex_spec};
use graphgen::{sized_config, GraphSpec};
use rma::{BackendKind, CostModel};

const BACKENDS: [BackendKind; 2] = [BackendKind::Sim, BackendKind::Wall];
const RANKS: [usize; 3] = [1, 2, 4];

/// What one vertex's holder must hold.
#[derive(Debug, Default)]
struct Expect {
    /// Labels in entry order, each once.
    labels: Vec<LabelId>,
    /// Encoded property values in entry order.
    props: Vec<(PTypeId, Vec<u8>)>,
    /// `(target app, label, direction)` in record order.
    edges: Vec<(u64, u32, Direction)>,
}

/// The sequential reference: the vertices, first copy of an app id wins,
/// then every edge of every source rank in rank order.
#[derive(Debug, Default)]
struct Reference(BTreeMap<u64, Expect>);

impl Reference {
    fn vertex(&mut self, v: &VertexSpec) {
        self.0.entry(v.app.0).or_insert_with(|| {
            let mut labels = Vec::new();
            for l in &v.labels {
                if !labels.contains(l) {
                    labels.push(*l);
                }
            }
            Expect {
                labels,
                props: (v.props.iter())
                    .map(|(p, val)| (*p, val.encode()))
                    .collect(),
                edges: Vec::new(),
            }
        });
    }

    /// Attach both halves of `e`; returns how many dangled.
    fn edge(&mut self, e: &EdgeSpec) -> usize {
        let (fd, td) = if e.directed {
            (Direction::Out, Direction::In)
        } else {
            (Direction::Undirected, Direction::Undirected)
        };
        let mut dangling = 0;
        for (local, remote, dir) in [(e.from, e.to, fd), (e.to, e.from, td)] {
            if !self.0.contains_key(&remote.0) {
                dangling += 1;
                continue;
            }
            match self.0.get_mut(&local.0) {
                Some(x) => x.edges.push((remote.0, e.label, dir)),
                None => dangling += 1,
            }
        }
        dangling
    }
}

/// Compare every holder this rank owns with `reference`, as a
/// read-only transaction reads it: labels in entry order, each
/// p-type's values in entry order, and every edge record's target,
/// label and direction in record order.
fn check_holders(eng: &GdaRank, reference: &Reference) {
    let tx = eng.begin(AccessMode::ReadOnly);
    let ptr: BTreeMap<u64, DPtr> = reference
        .0
        .keys()
        .map(|&app| (app, tx.translate_vertex_id(AppVertexId(app)).unwrap()))
        .collect();
    let me = eng.rank();
    for (&app, want) in &reference.0 {
        let dp = ptr[&app];
        if dp.rank() != me {
            continue;
        }
        assert_eq!(tx.vertex_app_id(dp).unwrap(), AppVertexId(app));
        // (entries of one p-type keep their order under a stable sort)
        let mut want_props = want.props.clone();
        want_props.sort_by_key(|(p, _)| *p);
        let mut ptypes: Vec<PTypeId> = want_props.iter().map(|(p, _)| *p).collect();
        ptypes.dedup();
        let props = tx.with_entries(dp, |scan| {
            let raw = |p| scan.properties_raw(p).map(move |v| (p, v.to_vec()));
            ptypes.iter().flat_map(|&p| raw(p)).collect::<Vec<_>>()
        });
        assert_eq!(
            (
                tx.labels(dp).unwrap(),
                tx.ptypes(dp).unwrap(),
                props.unwrap()
            ),
            (want.labels.clone(), ptypes, want_props),
            "vertex {app}: labels and properties"
        );
        let edges: Vec<(DPtr, u32, Direction)> = (tx.edges(dp, EdgeOrientation::Any).unwrap())
            .into_iter()
            .map(|e| {
                let dir = tx.edge_direction(e).unwrap();
                let (from, to) = tx.edge_endpoints(e).unwrap();
                let label = tx.edge_labels(e).unwrap().first().map_or(0, |l| l.0);
                (if dir == Direction::In { from } else { to }, label, dir)
            })
            .collect();
        let want_edges: Vec<(DPtr, u32, Direction)> = (want.edges.iter())
            .map(|&(to, label, dir)| (ptr[&to], label, dir))
            .collect();
        assert_eq!(edges, want_edges, "vertex {app}: edge records");
    }
    tx.commit().unwrap();
}

/// The report summed over all ranks.
fn total(eng: &GdaRank, rep: BulkReport) -> BulkReport {
    let sum = |n: usize| eng.ctx().allreduce_sum_u64(n as u64) as usize;
    BulkReport {
        vertices: sum(rep.vertices),
        half_edges: sum(rep.half_edges),
        dangling_edges: sum(rep.dangling_edges),
        duplicate_vertices: sum(rep.duplicate_vertices),
    }
}

/// Edges rank `src` adds to its generated share: self-loops (half of
/// them undirected) and runs of one repeated edge.
fn extra_edges(src: usize, n: u64, label: LabelId) -> Vec<EdgeSpec> {
    let mut out = Vec::new();
    for i in 0..8u64 {
        let v = (src as u64 * 37 + i * 11) % n;
        out.push(EdgeSpec {
            from: AppVertexId(v),
            to: AppVertexId(v),
            label: if i % 2 == 0 { label.0 } else { 0 },
            directed: i % 2 == 0,
        });
        for k in 0..3 {
            out.push(EdgeSpec {
                from: AppVertexId(v),
                to: AppVertexId((v + 1 + i) % n),
                label: if k == 1 { label.0 } else { 0 },
                directed: i % 3 != 0,
            });
        }
    }
    out
}

#[test]
fn bulk_load_keeps_arrival_order() {
    let spec = GraphSpec::new(8, 35);
    let n = spec.n_vertices();
    for backend in BACKENDS {
        for p in RANKS {
            let (db, fabric) = GdaDb::with_fabric_on(
                "order",
                sized_config(&spec, p),
                p,
                CostModel::zero(),
                backend,
            );
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                let meta = install_metadata(&eng, &spec.lpg);
                let edges_of = |src: usize| -> Vec<EdgeSpec> {
                    let mut es: Vec<EdgeSpec> = spec
                        .edges_for_rank(src, p)
                        .into_iter()
                        .map(|(u, v)| edge_spec(&spec, &meta, u, v))
                        .collect();
                    es.extend(extra_edges(src, n, meta.label(3)));
                    es
                };
                // each rank passes the vertices its right neighbour owns
                let vertices_of = |src: usize| -> Vec<VertexSpec> {
                    spec.vertices_for_rank((src + 1) % p, p)
                        .into_iter()
                        .map(|app| vertex_spec(&spec, &meta, app))
                        .collect()
                };
                let mut reference = Reference::default();
                for src in 0..p {
                    vertices_of(src).iter().for_each(|v| reference.vertex(v));
                }
                let mut edge_count = 0;
                for src in 0..p {
                    for e in edges_of(src) {
                        assert_eq!(reference.edge(&e), 0);
                        edge_count += 1;
                    }
                }

                let me = ctx.rank();
                let rep = eng.bulk_load(vertices_of(me), edges_of(me)).unwrap();
                let sum = total(&eng, rep);
                assert_eq!(sum.vertices as u64, n);
                assert_eq!(sum.half_edges, 2 * edge_count);
                assert_eq!((sum.dangling_edges, sum.duplicate_vertices), (0, 0));
                check_holders(&eng, &reference);
            });
        }
    }
}

#[test]
fn a_second_bulk_load_attaches_to_the_first() {
    let v = |app: u64, label: LabelId| VertexSpec::new(app).with_label(label);
    let e = |from: u64, to: u64, label: u32, directed: bool| EdgeSpec {
        from: AppVertexId(from),
        to: AppVertexId(to),
        label,
        directed,
    };
    for backend in BACKENDS {
        for p in RANKS {
            let (db, fabric) =
                GdaDb::with_fabric_on("again", GdaConfig::tiny(), p, CostModel::zero(), backend);
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    eng.create_label("A").unwrap();
                    eng.create_label("B").unwrap();
                }
                ctx.barrier();
                eng.refresh_meta();
                let label = |name| eng.meta().label_from_name(name).unwrap();
                let (a, b) = (label("A"), label("B"));
                let (me, last) = (ctx.rank(), p - 1);

                // first load: vertices 0..20, a ring and a chord per rank
                let first_v: Vec<VertexSpec> = (0..20)
                    .filter(|i| i % p as u64 == me as u64)
                    .map(|i| v(i, a))
                    .collect();
                let first_e = |src: usize| -> Vec<EdgeSpec> {
                    (0..20)
                        .filter(|i| i % p as u64 == src as u64)
                        .flat_map(|i| [e(i, (i + 1) % 20, a.0, true), e(i, (i + 7) % 20, 0, false)])
                        .collect()
                };
                // second load: vertices 20..30, a duplicate of vertex 5,
                // and vertex 25 a second time from the last rank — behind
                // its owner's copy in routed order, so the first copy wins
                let mut second_v: Vec<VertexSpec> = (20..30)
                    .filter(|i| i % p as u64 == me as u64)
                    .map(|i| v(i, a))
                    .collect();
                if me == 0 {
                    second_v.push(v(5, b));
                }
                if me == last {
                    second_v.push(v(25, b));
                }
                // old–old, old–new, new–old, new–new and an old self-loop
                // from every rank; rank 0 adds three edges with an unknown
                // endpoint (two halves dangle each)
                let second_e = |src: usize| -> Vec<EdgeSpec> {
                    let s = src as u64;
                    let mut es = vec![
                        e(3 + s, 11, b.0, true),
                        e(8, 21 + s, 0, true),
                        e(23, 9 + s, a.0, false),
                        e(21 + s, 24, 0, true),
                        e(4, 4, b.0, false),
                        e(12, 27, 0, true),
                    ];
                    if src == 0 {
                        es.extend([
                            e(10, 999, 0, true),
                            e(999, 26, 0, true),
                            e(998, 999, 0, false),
                        ]);
                    }
                    es
                };

                let mut reference = Reference::default();
                for i in 0..20 {
                    reference.vertex(&v(i, a));
                }
                for src in 0..p {
                    for x in first_e(src) {
                        assert_eq!(reference.edge(&x), 0);
                    }
                }
                let rep = eng.bulk_load(first_v, first_e(me)).unwrap();
                let sum = total(&eng, rep);
                assert_eq!(sum.vertices, 20);
                assert_eq!(sum.half_edges, 2 * 2 * 20);
                check_holders(&eng, &reference);

                for i in 20..30 {
                    reference.vertex(&v(i, a));
                }
                let mut dangling = 0;
                let mut attached = 0;
                for src in 0..p {
                    for x in second_e(src) {
                        let d = reference.edge(&x);
                        dangling += d;
                        attached += 2 - d;
                    }
                }
                let rep = eng.bulk_load(second_v, second_e(me)).unwrap();
                let sum = total(&eng, rep);
                assert_eq!(sum.vertices, 10);
                assert_eq!(sum.duplicate_vertices, 2, "vertex 5 and the second 25");
                assert_eq!(dangling, 6);
                assert_eq!(sum.dangling_edges, dangling);
                assert_eq!(sum.half_edges, attached);
                check_holders(&eng, &reference);
            });
        }
    }
}
