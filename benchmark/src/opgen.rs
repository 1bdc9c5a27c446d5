//! Seeded op streams. The program under test receives only the ops
//! generated here; the same seed gives the same stream.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdi::{AppVertexId, PropertyValue};
use graphgen::kronecker::hash3;
use graphgen::{GraphSpec, LpgMeta};
use server::Op;
use workloads::oltp::{Mix, OpKind};

/// Vertices in the read-mostly hot set: fits the two ranks' translation
/// caches (2 × 8 192 entries) with room for the uniform tail.
pub const HOT_SET: usize = 8192;

/// Write-heavy mix on a stationary graph. Weights in `OpKind::ALL`
/// order: inserts and deletes balance, each session deletes its own
/// oldest insert, and every added edge ends at one of the session's own
/// inserts, so it leaves again with that vertex. Table 3's Write
/// Intensive grows vertices and edge lists through a run, and its
/// throughput falls with them: it has no stable median.
pub const WRITE_STEADY: Mix = Mix {
    name: "write steady",
    weights: [0.10, 0.0, 0.10, 0.10, 0.10, 0.40, 0.20],
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Table-3 Read Mostly; keys 80 % from a fixed hot set, 20 % uniform.
    ReadMostly,
    /// [`WRITE_STEADY`]; uniform keys; updates overwrite a property the
    /// vertex already has, with a self-checking value; edges run from a
    /// generated vertex to one the session inserted.
    WriteSteady,
    /// Table-3 LinkBench weights; reads hit the generated graph, writes
    /// touch only vertices the stream itself created, so the generated
    /// graph stays what the sequential oracles compute on.
    LinkBenchFresh,
}

/// An update value that proves which `(vertex, property)` it was written
/// to: high half random, low half a hash of the target and that half.
pub fn tagged_value(v: u64, pidx: usize, r: u32) -> u64 {
    ((r as u64) << 32) | (hash3(v, pidx as u64, r as u64) & 0xffff_ffff)
}

pub fn is_tagged(v: u64, pidx: usize, value: u64) -> bool {
    tagged_value(v, pidx, (value >> 32) as u32) == value
}

struct SessionGen {
    next_new: u64,
    /// Fresh vertices this session created and has not deleted, oldest
    /// first.
    alive: VecDeque<u64>,
}

pub struct OpGen {
    profile: Profile,
    mix: Mix,
    rng: SmallRng,
    spec: GraphSpec,
    meta: LpgMeta,
    hot: Vec<u64>,
    sessions: Vec<SessionGen>,
    /// Edges between fresh vertices (acknowledged), for the WCC oracle.
    pub fresh_edges: Vec<(u64, u64)>,
    /// FNV-style hash of every op generated so far.
    pub hash: u64,
    pub generated: u64,
}

impl OpGen {
    pub fn new(
        profile: Profile,
        spec: GraphSpec,
        meta: LpgMeta,
        sessions: usize,
        seed: u64,
    ) -> Self {
        let rng = SmallRng::seed_from_u64(seed ^ 0x6f_7067_656e);
        let n = spec.n_vertices();
        // which vertices are popular is a property of the dataset, not of
        // the request stream: drawn from the graph's seed
        let mut popular = SmallRng::seed_from_u64(spec.seed ^ 0x68_6f74);
        let hot = (0..HOT_SET.min(n as usize))
            .map(|_| popular.gen_range(0..n))
            .collect();
        // fresh ids above the generated graph, disjoint between sessions
        let span = 1u64 << 32;
        Self {
            profile,
            mix: match profile {
                Profile::ReadMostly => Mix::READ_MOSTLY,
                Profile::WriteSteady => WRITE_STEADY,
                Profile::LinkBenchFresh => Mix::LINKBENCH,
            },
            rng,
            spec,
            meta,
            hot,
            sessions: (0..sessions as u64)
                .map(|s| SessionGen {
                    next_new: n + 1 + s * span,
                    alive: VecDeque::new(),
                })
                .collect(),
            fresh_edges: Vec::new(),
            hash: 0xcbf2_9ce4_8422_2325,
            generated: 0,
        }
    }

    fn key(&mut self) -> u64 {
        let n = self.spec.n_vertices();
        if self.profile == Profile::ReadMostly && self.rng.gen_range(0..10u32) < 8 {
            self.hot[self.rng.gen_range(0..self.hot.len())]
        } else {
            self.rng.gen_range(0..n)
        }
    }

    fn add_vertex(&mut self, session: usize) -> Op {
        let s = &mut self.sessions[session];
        let app = s.next_new;
        s.next_new += 1;
        Op::AddVertex {
            v: AppVertexId(app),
            label: Some(self.meta.label(app as usize % self.meta.labels.len())),
            prop: Some((self.meta.ptype(0), PropertyValue::U64(app))),
        }
    }

    /// The next op of `session`.
    pub fn next(&mut self, session: usize) -> Op {
        let kind = self.mix.sample(&mut self.rng);
        let fresh_writes = self.profile == Profile::LinkBenchFresh;
        let op = match kind {
            OpKind::GetVertexProps => {
                let nptypes = self.meta.ptypes.len();
                Op::GetVertexProps {
                    v: AppVertexId(self.key()),
                    ptype: Some(self.meta.ptype(self.rng.gen_range(0..nptypes))),
                }
            }
            OpKind::CountEdges => Op::CountEdges {
                v: AppVertexId(self.key()),
            },
            OpKind::GetEdges => Op::GetEdges {
                v: AppVertexId(self.key()),
            },
            OpKind::AddVertex => self.add_vertex(session),
            OpKind::DeleteVertex => match self.sessions[session].alive.pop_front() {
                Some(app) => Op::DeleteVertex {
                    v: AppVertexId(app),
                },
                None => self.add_vertex(session),
            },
            OpKind::UpdateVertexProp if fresh_writes => {
                let alive = &self.sessions[session].alive;
                if alive.is_empty() {
                    self.add_vertex(session)
                } else {
                    let app = alive[self.rng.gen_range(0..alive.len())];
                    Op::UpdateVertexProp {
                        v: AppVertexId(app),
                        ptype: self.meta.ptype(0),
                        // small: stays below every query threshold
                        value: PropertyValue::U64(self.rng.gen::<u32>() as u64),
                    }
                }
            }
            OpKind::UpdateVertexProp => {
                let v = self.key();
                let props = self.spec.lpg.vertex_props(self.spec.seed, v);
                let (pidx, _) = props[self.rng.gen_range(0..props.len())];
                Op::UpdateVertexProp {
                    v: AppVertexId(v),
                    ptype: self.meta.ptype(pidx),
                    value: PropertyValue::U64(tagged_value(v, pidx, self.rng.gen())),
                }
            }
            OpKind::AddEdge if fresh_writes => {
                let alive = &self.sessions[session].alive;
                if alive.len() < 2 {
                    self.add_vertex(session)
                } else {
                    let i = self.rng.gen_range(0..alive.len());
                    let j = (i + 1 + self.rng.gen_range(0..alive.len() - 1)) % alive.len();
                    Op::AddEdge {
                        from: AppVertexId(alive[i]),
                        to: AppVertexId(alive[j]),
                        label: None,
                    }
                }
            }
            OpKind::AddEdge => {
                let nlabels = self.meta.labels.len();
                let label = Some(self.meta.label(self.rng.gen_range(0..nlabels)));
                let from = AppVertexId(self.key());
                let alive = &self.sessions[session].alive;
                if self.profile == Profile::ReadMostly {
                    let n = self.spec.n_vertices();
                    let to = AppVertexId(self.rng.gen_range(0..n));
                    Op::AddEdge { from, to, label }
                } else if alive.is_empty() {
                    self.add_vertex(session)
                } else {
                    let to = AppVertexId(alive[self.rng.gen_range(0..alive.len())]);
                    Op::AddEdge { from, to, label }
                }
            }
        };
        self.fold(&op);
        op
    }

    fn fold(&mut self, op: &Op) {
        let words: [u64; 4] = match op {
            Op::GetVertexProps { v, ptype } => [0, v.0, ptype.map_or(0, |p| p.0 as u64 + 1), 0],
            Op::CountEdges { v } => [1, v.0, 0, 0],
            Op::GetEdges { v } => [2, v.0, 0, 0],
            Op::AddVertex { v, label, .. } => [3, v.0, label.map_or(0, |l| l.0 as u64 + 1), 0],
            Op::DeleteVertex { v } => [4, v.0, 0, 0],
            Op::UpdateVertexProp { v, ptype, value } => [
                5,
                v.0,
                ptype.0 as u64,
                match value {
                    PropertyValue::U64(x) => *x,
                    _ => 0,
                },
            ],
            Op::AddEdge { from, to, label } => {
                [6, from.0, to.0, label.map_or(0, |l| l.0 as u64 + 1)]
            }
        };
        for w in words {
            self.hash = (self.hash ^ w).wrapping_mul(0x100_0000_01b3);
        }
        self.generated += 1;
    }

    /// Tell the generator how `op` of `session` resolved: only committed
    /// inserts become delete/update/edge targets.
    pub fn acked(&mut self, session: usize, op: &Op, committed: bool) {
        match op {
            Op::AddVertex { v, .. } if committed => self.sessions[session].alive.push_back(v.0),
            // an aborted delete leaves the vertex alive, still the oldest
            Op::DeleteVertex { v } if !committed => self.sessions[session].alive.push_front(v.0),
            Op::AddEdge { from, to, .. }
                if committed && self.profile == Profile::LinkBenchFresh =>
            {
                self.fresh_edges.push((from.0, to.0))
            }
            _ => {}
        }
    }

    /// Fresh vertices alive now, per session.
    pub fn alive(&self) -> impl Iterator<Item = u64> + '_ {
        self.sessions.iter().flat_map(|s| s.alive.iter().copied())
    }

    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    pub fn meta(&self) -> &LpgMeta {
        &self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdi::{LabelId, PTypeId};

    fn gen(profile: Profile, seed: u64) -> OpGen {
        let spec = GraphSpec::new(10, 7);
        let meta = LpgMeta {
            labels: (1..=spec.lpg.num_labels as u32).map(LabelId).collect(),
            ptypes: (1..=spec.lpg.num_ptypes as u32).map(PTypeId).collect(),
            all_index: None,
        };
        OpGen::new(profile, spec, meta, 4, seed)
    }

    fn drive(g: &mut OpGen, ops: usize) {
        for i in 0..ops {
            let op = g.next(i % 4);
            g.acked(i % 4, &op, true);
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for profile in [
            Profile::ReadMostly,
            Profile::WriteSteady,
            Profile::LinkBenchFresh,
        ] {
            let (mut a, mut b, mut c) = (gen(profile, 1), gen(profile, 1), gen(profile, 2));
            drive(&mut a, 5000);
            drive(&mut b, 5000);
            drive(&mut c, 5000);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.generated, 5000);
            assert_ne!(a.hash, c.hash);
        }
    }

    #[test]
    fn write_steady_keeps_the_vertex_count_stationary() {
        let mut g = gen(Profile::WriteSteady, 3);
        drive(&mut g, 40_000);
        // inserts and deletes carry equal weight: the live set is a
        // random walk around zero, far below the 4 000 inserts issued
        assert!(g.alive().count() < 800, "{}", g.alive().count());
        // and every added edge ends at a live insert of its own session
        let n = g.spec().n_vertices();
        for i in 0..1000 {
            if let Op::AddEdge { from, to, .. } = g.next(i % 4) {
                assert!(from.0 < n && to.0 > n);
            }
        }
    }

    #[test]
    fn linkbench_fresh_writes_never_touch_generated_vertices() {
        let mut g = gen(Profile::LinkBenchFresh, 5);
        let n = g.spec().n_vertices();
        for i in 0..20_000 {
            let op = g.next(i % 4);
            if !op.is_read() {
                let touched = match &op {
                    Op::AddEdge { from, to, .. } => from.0.min(to.0),
                    other => other.routing_vertex().0,
                };
                assert!(touched > n, "{op:?}");
            }
            g.acked(i % 4, &op, true);
        }
        assert!(!g.fresh_edges.is_empty());
    }

    #[test]
    fn tagged_values_verify_only_against_their_target() {
        let v = tagged_value(17, 3, 0xdead_beef);
        assert!(is_tagged(17, 3, v));
        assert!(!is_tagged(18, 3, v));
        assert!(!is_tagged(17, 4, v));
        assert!(!is_tagged(17, 3, v ^ 1));
    }
}
