//! Local Clustering Coefficient (Fig. 6b).
//!
//! The paper singles out LCC as the most expensive OLAP workload
//! (`O(n + m^{3/2})` vs `O(n + m)` for BFS, §6.5). This distributed
//! implementation uses the pair-query formulation: for every local vertex
//! `v` and every unordered neighbor pair `(w1, w2)` it asks the owner of
//! `w1` whether `w2 ∈ N(w1)`; positive answers are counted as triangles
//! through `v`. Queries travel in one `alltoallv`, answers in a second —
//! two collective rounds total.

use rustc_hash::FxHashSet;

use gda::{DPtr, GdaRank};

use super::CsrView;

/// Compute the local clustering coefficient of every local vertex
/// (parallel to `view.apps`). The graph is treated as undirected with
/// parallel edges deduplicated, per the LDBC Graphalytics definition.
pub fn lcc(eng: &GdaRank, view: &CsrView) -> Vec<f64> {
    let ctx = eng.ctx();
    let nranks = ctx.nranks();

    // deduplicated undirected neighborhoods (excluding self-loops), as
    // internal ids: a pair query names a vertex its receiver never saw
    let nbr_sets: Vec<FxHashSet<u64>> = (0..view.len())
        .map(|i| {
            view.any(i)
                .iter()
                .filter(|&&t| t as usize != i)
                .map(|&t| view.target(t).raw())
                .collect()
        })
        .collect();

    // queries: (w1, w2, origin_vertex_local_idx), sent to the owner of w1
    let mut queries: Vec<Vec<(u64, u64, u32)>> = vec![Vec::new(); nranks];
    for (i, set) in nbr_sets.iter().enumerate() {
        let mut sorted: Vec<u64> = set.iter().copied().collect();
        sorted.sort_unstable();
        for (a_pos, &w1) in sorted.iter().enumerate() {
            for &w2 in &sorted[a_pos + 1..] {
                queries[DPtr::from_raw(w1).rank()].push((w1, w2, i as u32));
            }
        }
    }
    ctx.charge_cpu(queries.iter().map(Vec::len).sum::<usize>() as u64 + view.len() as u64 + 1);
    let recv = ctx.alltoallv(queries);

    // answer: does w2 ∈ N(w1)? route hits back to the asker's rank
    let mut answers: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    for (asker_rank, row) in recv.into_iter().enumerate() {
        for (w1, w2, origin_idx) in row {
            let w1 = DPtr::from_raw(w1);
            let i = view
                .row_of(w1)
                .unwrap_or_else(|| panic!("lcc: queried vertex {w1} is not a row of this rank"));
            if nbr_sets[i].contains(&w2) {
                answers[asker_rank].push(origin_idx);
            }
        }
    }
    ctx.charge_cpu(answers.iter().map(Vec::len).sum::<usize>() as u64 + 1);
    let hits = ctx.alltoallv(answers);

    let mut triangles = vec![0u64; view.len()];
    for idx in hits.into_iter().flatten() {
        triangles[idx as usize] += 1;
    }
    (0..view.len())
        .map(|i| {
            let d = nbr_sets[i].len() as u64;
            if d < 2 {
                0.0
            } else {
                2.0 * triangles[i] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::build_view;
    use gda::GdaDb;
    use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
    use rma::CostModel;
    use std::collections::HashSet;

    /// Brute-force reference LCC over the raw edge list.
    fn reference_lcc(spec: &GraphSpec) -> Vec<f64> {
        let n = spec.n_vertices() as usize;
        let mut nbrs: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for (u, v) in spec.edges_for_rank(0, 1) {
            if u != v {
                nbrs[u as usize].insert(v as usize);
                nbrs[v as usize].insert(u as usize);
            }
        }
        (0..n)
            .map(|v| {
                let d = nbrs[v].len();
                if d < 2 {
                    return 0.0;
                }
                let ns: Vec<usize> = nbrs[v].iter().copied().collect();
                let mut t = 0u64;
                for i in 0..ns.len() {
                    for j in i + 1..ns.len() {
                        if nbrs[ns[i]].contains(&ns[j]) {
                            t += 1;
                        }
                    }
                }
                2.0 * t as f64 / (d * (d - 1)) as f64
            })
            .collect()
    }

    #[test]
    fn lcc_matches_bruteforce() {
        let spec = GraphSpec {
            scale: 6,
            edge_factor: 6,
            seed: 31,
            lpg: LpgConfig::bare(),
        };
        let want = reference_lcc(&spec);
        let nranks = 3;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("lcc", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let got = lcc(&eng, &view);
            for (i, &app) in view.apps.iter().enumerate() {
                assert!(
                    (got[i] - want[app as usize]).abs() < 1e-12,
                    "vertex {app}: {} vs {}",
                    got[i],
                    want[app as usize]
                );
            }
            // sanity: at least one vertex participates in a triangle
            let any = ctx.allreduce_any(got.iter().any(|&c| c > 0.0));
            assert!(any, "no triangles in the test graph");
        });
    }
}
