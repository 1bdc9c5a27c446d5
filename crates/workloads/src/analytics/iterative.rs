//! Iterative value-propagation analytics: PageRank, CDLP, WCC (Fig. 6a/6b).
//!
//! All three follow the same bulk-synchronous skeleton the paper's OLAP
//! evaluation uses: per iteration, every rank sweeps its rows into a
//! flat array over the view's halo (rows + ghosts), one halo exchange
//! moves the ghost values between their holders and their owners, and
//! local state is updated — **one collective per iteration**, with the
//! scalar every rank needs (dangling mass, "anything still active")
//! riding the exchange. The iteration counts match the paper's
//! parameters (PR: `i=10, d=0.85`; CDLP/WCC: `i=5`).

use gda::GdaRank;

use super::CsrView;

/// PageRank with `iters` power iterations and damping factor `damping`
/// (paper: `i=10, df=0.85`). Returns the local vertices' scores, parallel
/// to `view.apps`. Dangling mass is redistributed uniformly, so scores sum
/// to 1 across all ranks.
pub fn pagerank(eng: &GdaRank, view: &CsrView, iters: usize, damping: f64) -> Vec<f64> {
    let ctx = eng.ctx();
    let n = view.len();
    let n_global = ctx.allreduce_sum_u64(n as u64) as f64;
    let mut pr = vec![1.0 / n_global; n];
    // contributions per target: local ones land on their row, remote
    // ones are combined on the target's ghost before they travel (the
    // combining optimization real systems use to cut message volume)
    let mut acc = vec![0.0f64; view.halo_len()];

    for _ in 0..iters {
        acc.fill(0.0);
        let mut dangling = 0.0f64;
        for (i, &score) in pr.iter().enumerate() {
            let out = view.out(i);
            if out.is_empty() {
                dangling += score;
            } else {
                let share = score / out.len() as f64;
                for &t in out {
                    acc[t as usize] += share;
                }
            }
        }
        ctx.charge_cpu(view.out_edges() as u64 + n as u64 + 1);
        // the dangling-mass allreduce rides the exchange
        let global_dangling: f64 = view
            .push_ghosts(ctx, &mut acc, 1, dangling, |a, b| *a += b)
            .iter()
            .sum();

        let base = (1.0 - damping) / n_global + damping * global_dangling / n_global;
        for (v, a) in pr.iter_mut().zip(&acc) {
            *v = base + damping * a;
        }
    }
    pr
}

/// Community Detection using Label Propagation (CDLP), `iters` synchronous
/// rounds (paper: `i=5`). Every vertex adopts the most frequent label among
/// its neighbors (ties broken towards the smallest label), starting from
/// its own app id — the LDBC Graphalytics definition.
///
/// A round *pulls*: owners ship their rows' labels to the ghosts that
/// mirror them, then every row reads its neighbours' labels where they
/// lie. Edge records are symmetric (an edge is a record on both of its
/// endpoints, and both are removed together), so the labels a row reads
/// over its records are exactly the labels its neighbours would have
/// sent it over theirs.
pub fn cdlp(eng: &GdaRank, view: &CsrView, iters: usize) -> Vec<u64> {
    let ctx = eng.ctx();
    let n = view.len();
    let mut labels = vec![0u64; view.halo_len()];
    labels[..n].copy_from_slice(&view.apps);
    let mut next = vec![0u64; n];
    let mut heard: Vec<u64> = Vec::new();

    for _ in 0..iters {
        view.pull_ghosts(ctx, &mut labels, 1);
        ctx.charge_cpu(view.any_edges() as u64 + 1);
        for (i, slot) in next.iter_mut().enumerate() {
            heard.clear();
            heard.extend(view.any(i).iter().map(|&t| labels[t as usize]));
            heard.sort_unstable();
            // most frequent label, ties to the minimum: the first
            // longest run of the sorted labels
            let mut best = (0usize, labels[i]);
            for run in heard.chunk_by(|a, b| a == b) {
                if run.len() > best.0 {
                    best = (run.len(), run[0]);
                }
            }
            *slot = best.1;
        }
        labels[..n].copy_from_slice(&next);
    }
    labels.truncate(n);
    labels
}

/// Weakly Connected Components by iterative minimum-label propagation,
/// `iters` rounds (paper: `i=5`). Returns the component label (minimum
/// reachable app id within the horizon) per local vertex. With
/// `iters >= diameter` the labels are the exact WCC ids.
///
/// Only rows whose label fell in the previous round are *active*: every
/// other row's neighbours already heard its label. A round pushes the
/// labels the active rows held at its start, so after any number of
/// rounds the labels equal those of plain synchronous propagation; the
/// rounds end early once no rank has an active row left.
pub fn wcc(eng: &GdaRank, view: &CsrView, iters: usize) -> Vec<u64> {
    let ctx = eng.ctx();
    let n = view.len();
    let mut comp: Vec<u64> = view.apps.clone();
    let mut active: Vec<u32> = (0..n as u32).collect();
    // the smallest label each halo slot heard this round
    let mut heard = vec![u64::MAX; view.halo_len()];

    for _ in 0..iters {
        heard.fill(u64::MAX);
        let mut edges = 0;
        for &i in &active {
            let c = comp[i as usize];
            let nbrs = view.any(i as usize);
            edges += nbrs.len();
            for &t in nbrs {
                let h = &mut heard[t as usize];
                *h = (*h).min(c);
            }
        }
        ctx.charge_cpu(edges as u64 + 1);
        // "is anyone still active" rides the exchange
        let busy = view.push_ghosts(ctx, &mut heard, 1, active.len() as u64, |a, b| {
            *a = (*a).min(b)
        });
        if busy.iter().all(|&a| a == 0) {
            break;
        }
        active.clear();
        for (i, (c, &h)) in comp.iter_mut().zip(&heard).enumerate() {
            if h < *c {
                *c = h;
                active.push(i as u32);
            }
        }
    }
    comp
}

/// Run WCC to convergence (for exact component counts in tests/benches).
pub fn wcc_converged(eng: &GdaRank, view: &CsrView) -> Vec<u64> {
    wcc(eng, view, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::build_view;
    use gda::GdaDb;
    use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
    use rma::CostModel;

    fn spec() -> GraphSpec {
        GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 21,
            lpg: LpgConfig::bare(),
        }
    }

    fn undirected_adj(spec: &GraphSpec) -> Vec<Vec<usize>> {
        let n = spec.n_vertices() as usize;
        let mut adj = vec![Vec::new(); n];
        for (u, v) in spec.edges_for_rank(0, 1) {
            adj[u as usize].push(v as usize);
            adj[v as usize].push(u as usize);
        }
        adj
    }

    #[test]
    fn pagerank_sums_to_one_and_matches_reference() {
        let spec = spec();
        let nranks = 4;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("pr", cfg, nranks, CostModel::default());
        // sequential reference PageRank on the raw edge list
        let n = spec.n_vertices() as usize;
        let mut out_adj = vec![Vec::new(); n];
        for (u, v) in spec.edges_for_rank(0, 1) {
            out_adj[u as usize].push(v as usize);
        }
        let iters = 10;
        let d = 0.85;
        let mut want = vec![1.0 / n as f64; n];
        for _ in 0..iters {
            let mut next = vec![0.0; n];
            let mut dangling = 0.0;
            for v in 0..n {
                if out_adj[v].is_empty() {
                    dangling += want[v];
                } else {
                    let share = want[v] / out_adj[v].len() as f64;
                    for &w in &out_adj[v] {
                        next[w] += d * share;
                    }
                }
            }
            for x in next.iter_mut() {
                *x += (1.0 - d) / n as f64 + d * dangling / n as f64;
            }
            want = next;
        }

        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let pr = pagerank(&eng, &view, iters, d);
            let local_sum: f64 = pr.iter().sum();
            let total = ctx.allreduce_sum_f64(local_sum);
            assert!((total - 1.0).abs() < 1e-9, "sum {total}");
            for (i, &app) in view.apps.iter().enumerate() {
                assert!(
                    (pr[i] - want[app as usize]).abs() < 1e-12,
                    "vertex {app}: {} vs {}",
                    pr[i],
                    want[app as usize]
                );
            }
        });
    }

    #[test]
    fn wcc_matches_union_find() {
        let spec = spec();
        let nranks = 3;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("wcc", cfg, nranks, CostModel::default());
        // reference components via union-find
        let n = spec.n_vertices() as usize;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (u, v) in spec.edges_for_rank(0, 1) {
            let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
            if ru != rv {
                parent[ru.max(rv)] = ru.min(rv);
            }
        }
        // canonical component label = min vertex id in component
        let mut want = vec![0u64; n];
        for (v, w) in want.iter_mut().enumerate() {
            *w = find(&mut parent, v) as u64;
        }

        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let comp = wcc_converged(&eng, &view);
            for (i, &app) in view.apps.iter().enumerate() {
                assert_eq!(comp[i], want[app as usize], "vertex {app}");
            }
        });
    }

    #[test]
    fn cdlp_matches_sequential_simulation() {
        let spec = spec();
        let nranks = 2;
        let iters = 5;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("cdlp", cfg, nranks, CostModel::default());
        // sequential synchronous CDLP with identical tie-breaking
        let adj = undirected_adj(&spec);
        let n = adj.len();
        let mut want: Vec<u64> = (0..n as u64).collect();
        for _ in 0..iters {
            let mut next = want.clone();
            for v in 0..n {
                if adj[v].is_empty() {
                    continue;
                }
                let mut freq: std::collections::HashMap<u64, u64> = Default::default();
                for &w in &adj[v] {
                    *freq.entry(want[w]).or_insert(0) += 1;
                }
                let best = freq
                    .into_iter()
                    .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                    .unwrap()
                    .0;
                next[v] = best;
            }
            want = next;
        }

        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let labels = cdlp(&eng, &view, iters);
            for (i, &app) in view.apps.iter().enumerate() {
                assert_eq!(labels[i], want[app as usize], "vertex {app}");
            }
        });
    }
}
