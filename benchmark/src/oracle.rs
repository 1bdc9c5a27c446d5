//! Sequential oracles over the generated edge list: what the served
//! replies and the analytic kernels are checked against.

use std::collections::HashMap;

use graphgen::GraphSpec;

/// Undirected CSR of the generated graph (the traversal kernels treat
/// the Kronecker graph as undirected, Graph500 style).
pub struct Oracle {
    off: Vec<u32>,
    tgt: Vec<u32>,
}

impl Oracle {
    pub fn new(spec: &GraphSpec) -> Self {
        let n = spec.n_vertices() as usize;
        let edges = spec.edges_for_rank(0, 1);
        let mut off = vec![0u32; n + 1];
        for &(u, v) in &edges {
            off[u as usize + 1] += 1;
            off[v as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut fill = off.clone();
        let mut tgt = vec![0u32; off[n] as usize];
        for &(u, v) in &edges {
            tgt[fill[u as usize] as usize] = v as u32;
            fill[u as usize] += 1;
            tgt[fill[v as usize] as usize] = u as u32;
            fill[v as usize] += 1;
        }
        Self { off, tgt }
    }

    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    /// Incident edge records of `v` (a self-loop counts twice, as the
    /// engine stores one record per direction).
    pub fn degree(&self, v: u64) -> u32 {
        self.off[v as usize + 1] - self.off[v as usize]
    }

    fn nbrs(&self, v: usize) -> &[u32] {
        &self.tgt[self.off[v] as usize..self.off[v + 1] as usize]
    }

    /// The highest-degree vertex: certainly in the giant component.
    pub fn hub(&self) -> u64 {
        (0..self.n() as u64)
            .max_by_key(|&v| (self.degree(v), u64::MAX - v))
            .unwrap_or(0)
    }

    /// A vertex of ordinary degree (closest to the mean, lowest id wins):
    /// the point-lookup query models a lookup around an ordinary entity.
    pub fn typical(&self) -> u64 {
        let mean = (self.tgt.len() / self.n().max(1)) as i64;
        (0..self.n() as u64)
            .filter(|&v| self.degree(v) > 0)
            .min_by_key(|&v| ((self.degree(v) as i64 - mean).abs(), v))
            .unwrap_or(0)
    }

    /// Vertices within `max_levels` hops of `root`, the root included.
    pub fn bfs(&self, root: u64, max_levels: u32) -> u64 {
        let mut seen = vec![false; self.n()];
        seen[root as usize] = true;
        let mut frontier = vec![root as usize];
        let mut visited = 1u64;
        let mut level = 0;
        while !frontier.is_empty() && level < max_levels {
            let mut next = Vec::new();
            for &v in &frontier {
                for &w in self.nbrs(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        next.push(w as usize);
                    }
                }
            }
            visited += next.len() as u64;
            frontier = next;
            level += 1;
        }
        visited
    }

    /// Weakly connected components of the generated graph.
    pub fn components(&self) -> u64 {
        let mut seen = vec![false; self.n()];
        let mut count = 0;
        let mut stack = Vec::new();
        for s in 0..self.n() {
            if seen[s] {
                continue;
            }
            count += 1;
            seen[s] = true;
            stack.push(s);
            while let Some(v) = stack.pop() {
                for &w in self.nbrs(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w as usize);
                    }
                }
            }
        }
        count
    }
}

/// Components among the live fresh vertices (`edges` may name deleted
/// ones; a delete removes the vertex with its incident edges).
pub fn fresh_components(alive: impl Iterator<Item = u64>, edges: &[(u64, u64)]) -> u64 {
    let index: HashMap<u64, usize> = alive.enumerate().map(|(i, v)| (v, i)).collect();
    let mut parent: Vec<usize> = (0..index.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut count = index.len() as u64;
    for (u, v) in edges {
        if let (Some(&a), Some(&b)) = (index.get(u), index.get(v)) {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
                count -= 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degrees_sum_to_twice_the_edges_and_bfs_is_bounded() {
        let spec = GraphSpec::new(8, 3);
        let o = Oracle::new(&spec);
        let total: u64 = (0..o.n() as u64).map(|v| o.degree(v) as u64).sum();
        assert_eq!(total, 2 * spec.n_edges());
        let hub = o.hub();
        assert_eq!(o.bfs(hub, 0), 1);
        assert!(o.bfs(hub, 1) > 1);
        assert!(o.bfs(hub, 2) >= o.bfs(hub, 1));
        // the hub's component plus the rest account for every vertex
        assert!(o.bfs(hub, u32::MAX) + o.components() - 1 <= o.n() as u64);
        assert!(o.degree(o.typical()) > 0);
    }

    #[test]
    fn fresh_components_ignore_deleted_endpoints() {
        let alive = [10u64, 11, 12, 13];
        let edges = [(10, 11), (11, 10), (12, 99), (13, 12)];
        assert_eq!(fresh_components(alive.into_iter(), &edges), 2);
        assert_eq!(fresh_components(std::iter::empty(), &edges), 0);
    }
}
