//! BFS and k-hop neighborhood queries (Fig. 6e/6f).
//!
//! Level-synchronous distributed BFS in the Graph500 style: per level, each
//! rank expands its local frontier over the view's dense adjacency, marks
//! what it reaches in one `seen` array over rows and ghosts, and ships each
//! newly seen ghost to its owner — once, as its position in the owner's
//! ghost slice — with one `alltoallv`. The level's frontier size rides the
//! same exchange, so the ranks agree on the visit count and on termination
//! without a second collective. Edges are traversed in both directions
//! (Graph500 treats the Kronecker graph as undirected).

use gda::GdaRank;

use super::CsrView;

/// Result of a BFS / k-hop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsResult {
    /// Vertices reached (including the root).
    pub visited: u64,
    /// Levels expanded (root = level 0).
    pub levels: u32,
}

/// Full BFS from `root_app`.
pub fn bfs(eng: &GdaRank, view: &CsrView, root_app: u64) -> BfsResult {
    bounded_bfs(eng, view, root_app, u32::MAX)
}

/// k-hop neighborhood query: number of distinct vertices within `k` hops
/// of `root_app` (the paper's 2-/3-/4-hop workloads, Fig. 6e).
pub fn khop(eng: &GdaRank, view: &CsrView, root_app: u64, k: u32) -> u64 {
    bounded_bfs(eng, view, root_app, k).visited
}

fn bounded_bfs(eng: &GdaRank, view: &CsrView, root_app: u64, max_levels: u32) -> BfsResult {
    let ctx = eng.ctx();
    let nranks = ctx.nranks();
    let n = view.len();
    let mut seen = vec![false; view.halo_len()];
    let mut frontier: Vec<u32> = Vec::new();
    if let Some(i) = view.row_of_app(root_app) {
        seen[i] = true;
        frontier.push(i as u32);
    }
    let mut visited = 0u64;
    let mut levels = 0u32;

    for depth in 0.. {
        // expand: local discoveries join the next frontier directly, a
        // ghost seen for the first time goes to its owner. Every row to a
        // peer starts with this level's local frontier size.
        let mut outbox: Vec<Vec<u32>> = vec![vec![frontier.len() as u32]; nranks];
        let mut next: Vec<u32> = Vec::new();
        if depth < max_levels {
            for &i in &frontier {
                for &t in view.any(i as usize) {
                    if !std::mem::replace(&mut seen[t as usize], true) {
                        if (t as usize) < n {
                            next.push(t);
                        } else {
                            let owner = view.target(t).rank();
                            outbox[owner].push(t - view.ghost_range(owner).start as u32);
                        }
                    }
                }
            }
        }
        ctx.charge_cpu(frontier.len() as u64 + 1);
        let mut level_size = 0u64;
        for (r, inbox) in ctx.alltoallv(outbox).into_iter().enumerate() {
            level_size += inbox[0] as u64;
            for &pos in &inbox[1..] {
                let i = view.mirror(r)[pos as usize];
                if !std::mem::replace(&mut seen[i as usize], true) {
                    next.push(i);
                }
            }
        }
        if depth == 0 {
            assert!(level_size == 1, "BFS root {root_app} not found");
        }
        if level_size == 0 {
            break;
        }
        visited += level_size;
        levels = depth;
        if depth >= max_levels {
            break;
        }
        frontier = next;
    }
    BfsResult { visited, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::build_view;
    use gda::GdaDb;
    use graphgen::{load_into, sized_config, GraphSpec, LpgConfig};
    use rma::CostModel;
    use std::collections::{HashSet, VecDeque};

    fn spec() -> GraphSpec {
        GraphSpec {
            scale: 6,
            edge_factor: 4,
            seed: 11,
            lpg: LpgConfig::bare(),
        }
    }

    /// Sequential reference BFS over the raw edge list (undirected).
    fn reference_bfs(spec: &GraphSpec, root: u64, max_levels: u32) -> (u64, u32) {
        let n = spec.n_vertices() as usize;
        let mut adj = vec![Vec::new(); n];
        for (u, v) in spec.edges_for_rank(0, 1) {
            adj[u as usize].push(v as usize);
            adj[v as usize].push(u as usize);
        }
        let mut seen = HashSet::new();
        let mut q = VecDeque::new();
        seen.insert(root as usize);
        q.push_back((root as usize, 0u32));
        let mut levels = 0;
        while let Some((v, d)) = q.pop_front() {
            if d >= max_levels {
                continue;
            }
            for &w in &adj[v] {
                if seen.insert(w) {
                    levels = levels.max(d + 1);
                    q.push_back((w, d + 1));
                }
            }
        }
        (seen.len() as u64, levels)
    }

    #[test]
    fn bfs_matches_reference() {
        let spec = spec();
        let nranks = 4;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("bfs", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            for root in [0u64, 5, 17] {
                let got = bfs(&eng, &view, root);
                let (want_visited, want_levels) = reference_bfs(&spec, root, u32::MAX);
                assert_eq!(got.visited, want_visited, "root {root}");
                assert_eq!(got.levels, want_levels, "root {root}");
            }
        });
    }

    #[test]
    fn khop_matches_reference_and_is_monotone() {
        let spec = spec();
        let nranks = 2;
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("khop", cfg, nranks, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), ctx.nranks());
            let view = build_view(&eng, &apps);
            let mut prev = 0;
            for k in 1..=4 {
                let got = khop(&eng, &view, 3, k);
                let (want, _) = reference_bfs(&spec, 3, k);
                assert_eq!(got, want, "k={k}");
                assert!(got >= prev, "k-hop counts must be monotone");
                prev = got;
            }
        });
    }

    #[test]
    fn isolated_root_visits_itself() {
        // scale-6 Kronecker has isolated vertices; find one and BFS from it
        let spec = spec();
        let mut deg = vec![0u64; spec.n_vertices() as usize];
        for (u, v) in spec.edges_for_rank(0, 1) {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let isolated = deg.iter().position(|&d| d == 0).expect("none isolated") as u64;
        let cfg = sized_config(&spec, 1);
        let (db, fabric) = GdaDb::with_fabric("iso", cfg, 1, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            load_into(&eng, &spec);
            let apps = spec.vertices_for_rank(ctx.rank(), 1);
            let view = build_view(&eng, &apps);
            let r = bfs(&eng, &view, isolated);
            assert_eq!(r.visited, 1);
            assert_eq!(r.levels, 0);
        });
    }
}
