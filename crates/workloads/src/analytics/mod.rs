//! OLAP graph analytics in collective transactions (§4, Fig. 6).
//!
//! Every algorithm follows the paper's pattern (Listing 2): each rank
//! processes its local partition of the vertex set and ranks exchange
//! per-iteration values with collective communication (`alltoallv`,
//! `allreduce`).
//!
//! All algorithms consume a [`CsrView`] — the per-rank CSR mirror of the
//! local partition (`gda::scan`). Two builders produce one:
//!
//! * the **tx-based builder** ([`build_view`] / [`build_view_indexed`]):
//!   a collective read transaction fetching adjacency through GDI, one
//!   `neighbors` call per vertex — the reference path, kept as the
//!   differential oracle;
//! * the **scan builder** ([`scan_view`], or `GdaRank::olap_view` for
//!   the cached variant): one sweep of the raw storage windows, no
//!   transactions, no DHT translations — the fast path.
//!
//! Either way the view numbers its rows and the remote vertices they
//! point at (its *ghosts*) densely, once, so a kernel's state is a flat
//! array over `view.halo_len()` slots and an exchange is "ship the ghost
//! slice, fold what arrives through the mirror list"
//! (`CsrView::push_ghosts`) or its reverse (`CsrView::pull_ghosts`):
//! values only, one collective per iteration, no id on the wire and no
//! lookup on either side.

pub mod iterative;
pub mod lcc;
pub mod traversal;

pub use iterative::{cdlp, pagerank, wcc, wcc_converged};
pub use lcc::lcc;
pub use traversal::{bfs, khop, BfsResult};

use std::rc::Rc;

pub use gda::{CsrView, ScanPartition};
use gda::{DPtr, GdaRank, Transaction};
use gdi::{AccessMode, AppVertexId, EdgeOrientation};

/// The adjacency rows of one cached vertex, read through the
/// transaction: neighbors in record order with their inline edge labels
/// (0 = unlabeled) — the exact rows the scan layer decodes from raw
/// blocks, so the two builders are comparable edge for edge.
fn tx_adjacency(tx: &Transaction, vid: DPtr, orient: EdgeOrientation) -> Vec<(DPtr, u32)> {
    tx.edges(vid, orient)
        .unwrap()
        .into_iter()
        .map(|e| {
            let (o, t) = tx.edge_endpoints(e).unwrap();
            let nbr = if o == vid { t } else { o };
            let lbl = tx.edge_labels(e).unwrap().first().map(|l| l.0).unwrap_or(0);
            (nbr, lbl)
        })
        .collect()
}

/// The one parameterized tx-based builder behind [`build_view`] and
/// [`build_view_indexed`]: fetch every `(app, vid)` item's holder
/// through the open collective transaction, assemble the CSR and resolve
/// its halo (collective, like the transaction around it).
fn build_view_from(eng: &GdaRank, tx: &Transaction, items: Vec<(u64, DPtr)>) -> CsrView {
    let mut apps = Vec::with_capacity(items.len());
    let mut vids = Vec::with_capacity(items.len());
    let mut out = Vec::with_capacity(items.len());
    let mut any = Vec::with_capacity(items.len());
    for (app, vid) in items {
        apps.push(app);
        vids.push(vid);
        out.push(tx_adjacency(tx, vid, EdgeOrientation::Outgoing));
        any.push(tx_adjacency(tx, vid, EdgeOrientation::Any));
    }
    CsrView::from_adjacency(eng, apps, vids, out, any)
}

/// Collective: build the local view from this rank's partition of an
/// explicit index (`GDI_GetLocalVerticesOfIndex`) — the paper's entry
/// point for OLAP scans (Listings 2/3). Unlike [`build_view`], no DHT
/// translation is needed: postings already carry internal ids, and the
/// holders live in local memory.
pub fn build_view_indexed(eng: &GdaRank, index: gda::IndexId) -> CsrView {
    let tx = eng.begin_collective(AccessMode::ReadOnly);
    let mut postings = eng.local_index_vertices(index);
    postings.sort_by_key(|p| p.app_id);
    let view = build_view_from(
        eng,
        &tx,
        postings
            .into_iter()
            .map(|p| (p.app_id.0, p.vertex))
            .collect(),
    );
    tx.commit().expect("read-only collective commit");
    view
}

/// Collective: build the local view of the given app-id partition by
/// translating ids and fetching adjacency through a collective read
/// transaction (the tx-based reference path — the scan layer's
/// differential oracle). The partition must follow ownership, as
/// `GraphSpec::vertices_for_rank` and a scan view's `apps` do.
pub fn build_view(eng: &GdaRank, apps: &[u64]) -> CsrView {
    let tx = eng.begin_collective(AccessMode::ReadOnly);
    let items = apps
        .iter()
        .map(|&app| {
            let vid = tx
                .translate_vertex_id(AppVertexId(app))
                .expect("view vertex must exist");
            (app, vid)
        })
        .collect();
    let view = build_view_from(eng, &tx, items);
    tx.commit().expect("read-only collective commit");
    view
}

/// Collective: the zero-transaction scan build of this rank's partition
/// (every live local vertex) — one raw-window sweep, no caching. Use
/// `GdaRank::olap_view` for the epoch-validated cached variant.
pub fn scan_view(eng: &GdaRank) -> Rc<CsrView> {
    gda::scan::build_view(eng, ScanPartition::LocalAll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gda::GdaDb;
    use graphgen::{load_into, sized_config, GraphSpec};
    use rma::CostModel;

    /// A root with edges: the first endpoint of the first generated edge.
    fn root_with_edges(spec: &GraphSpec) -> u64 {
        spec.edges_for_rank(0, 1)[0].0
    }

    #[test]
    fn view_covers_partition_and_degrees() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 3,
            lpg: graphgen::LpgConfig::bare(),
        };
        let nranks = 2;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("v", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let (_, _) = load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            assert_eq!(view.len(), apps.len());
            // out-degree sum over all ranks equals m
            let total = ctx.allreduce_sum_u64(view.out_edges() as u64);
            assert_eq!(total, spec.n_edges());
            // each vid and app id resolves back
            for (i, vid) in view.vids.iter().enumerate() {
                assert_eq!(view.row_of(*vid), Some(i));
                assert_eq!(view.row_of_app(view.apps[i]), Some(i));
            }
        });
    }

    /// The scan builder and the tx builder must produce logically
    /// identical views — the in-crate differential oracle (the full
    /// churn-driven proptest lives in `gdi-tests`).
    #[test]
    fn scan_view_matches_tx_view() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 9,
            lpg: graphgen::LpgConfig::default(),
        };
        let nranks = 3;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("sv", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let (meta, _) = load_into(&eng, &spec);
            let scan = scan_view(&eng);
            let tx_view = build_view(&eng, &scan.apps.clone());
            assert!(scan.logical_eq(&tx_view), "scan view diverges from tx view");
            // the indexed tx builder agrees too (same partition: the
            // generator installs an index over all vertices)
            if let Some(ix) = meta.all_index {
                let ix_view = build_view_indexed(&eng, ix);
                assert!(scan.logical_eq(&ix_view));
            }
            // cached variant: second call reuses, still identical
            let v1 = eng.olap_view();
            let v2 = eng.olap_view();
            assert!(std::rc::Rc::ptr_eq(&v1, &v2));
            assert!(v1.logical_eq(&tx_view));
        });
    }

    /// ROADMAP 3(b), pinned: every kernel runs **one collective per
    /// iteration / round / level** — the scalar each used to allreduce
    /// beside its exchange (dangling mass, "anyone active", frontier
    /// size) rides the exchange.
    #[test]
    fn kernels_run_one_collective_per_iteration() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 21,
            lpg: graphgen::LpgConfig::bare(),
        };
        let nranks = 3;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("coll", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let view = scan_view(&eng);
            let collectives = |f: &dyn Fn()| {
                let before = ctx.stats_snapshot().collectives;
                f();
                ctx.stats_snapshot().collectives - before
            };
            // PageRank: the vertex count once, then one per iteration
            for iters in [1, 4, 10] {
                let n = collectives(&|| {
                    pagerank(&eng, &view, iters, 0.85);
                });
                assert_eq!(n, 1 + iters as u64, "pagerank, {iters} iterations");
            }
            for iters in [1, 5] {
                let n = collectives(&|| {
                    cdlp(&eng, &view, iters);
                });
                assert_eq!(n, iters as u64, "cdlp, {iters} rounds");
            }
            // WCC: one per round while labels still move; converged, the
            // rounds that moved a label plus the two that notice none did
            for iters in [1, 2] {
                let n = collectives(&|| {
                    wcc(&eng, &view, iters);
                });
                assert_eq!(n, iters as u64, "wcc, {iters} rounds");
            }
            let mut moving = 0;
            while ctx.allreduce_any(wcc(&eng, &view, moving) != wcc(&eng, &view, moving + 1)) {
                moving += 1;
            }
            let n = collectives(&|| {
                wcc_converged(&eng, &view);
            });
            assert_eq!(n, moving as u64 + 2, "wcc to convergence");
            // BFS: one per level, the level past the deepest included
            // (that is the exchange that finds the frontier empty)
            let root = root_with_edges(&spec);
            let levels = bfs(&eng, &view, root).levels;
            let n = collectives(&|| {
                bfs(&eng, &view, root);
            });
            assert!(levels >= 2, "the test graph is deeper than the k-hop below");
            assert_eq!(n, levels as u64 + 2, "bfs, {levels} levels");
            let n = collectives(&|| {
                khop(&eng, &view, root, 2);
            });
            assert_eq!(n, 3, "2-hop: levels 0, 1 and the count of level 2");
        });
    }
}
