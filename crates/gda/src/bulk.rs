//! Collective bulk data ingestion (`GDI_BulkLoadVertices` /
//! `GDI_BulkLoadEdges`, the BULK workload class of §2/Table 2).
//!
//! Bulk load is a collective: every rank contributes a batch of vertex and
//! edge specifications; the batches are routed to the round-robin owner
//! ranks with all-to-all collectives, materialized into holders locally,
//! registered in the internal DHT and the explicit indexes, and written to
//! blocks — without per-object transactions or locks. Like MPI-IO
//! collective writes, the operation assumes the database is quiescent
//! (no concurrent transactions), which is what makes it so much faster
//! than transactional inserts for massive ingestion.

use rustc_hash::FxHashMap;

use gdi::{AppVertexId, Direction, GdiError, GdiResult, LabelId, PTypeId, PropertyValue};

use crate::db::GdaRank;
use crate::dptr::{owner_rank, DPtr};
use crate::hio;
use crate::holder::{EdgeRecord, Holder};

/// Specification of one vertex to ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexSpec {
    /// The application vertex id.
    pub app: AppVertexId,
    /// Labels to attach.
    pub labels: Vec<LabelId>,
    /// Property entries to attach.
    pub props: Vec<(PTypeId, PropertyValue)>,
}

impl VertexSpec {
    /// A bare vertex with the given application id.
    pub fn new(app: u64) -> Self {
        Self {
            app: AppVertexId(app),
            labels: Vec::new(),
            props: Vec::new(),
        }
    }

    /// Attach a label (builder).
    pub fn with_label(mut self, l: LabelId) -> Self {
        self.labels.push(l);
        self
    }

    /// Attach a property entry (builder).
    pub fn with_prop(mut self, p: PTypeId, v: PropertyValue) -> Self {
        self.props.push((p, v));
        self
    }
}

/// Specification of one edge to ingest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSpec {
    /// Origin application vertex id.
    pub from: AppVertexId,
    /// Target application vertex id.
    pub to: AppVertexId,
    /// Lightweight edge label (0 = unlabeled).
    pub label: u32,
    /// Directed (`from → to`) or undirected.
    pub directed: bool,
}

/// Half-edge routed to one endpoint's owner.
#[derive(Debug, Clone, Copy)]
struct HalfEdge {
    local: AppVertexId,
    remote: AppVertexId,
    label: u32,
    dir: Direction,
}

/// Outcome of a bulk load on this rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkReport {
    /// Vertices materialized on this rank.
    pub vertices: usize,
    /// Half-edges attached on this rank.
    pub half_edges: usize,
    /// Half-edges dropped because an endpoint app id was unknown.
    pub dangling_edges: usize,
    /// Vertices dropped as duplicates of an existing app id.
    pub duplicate_vertices: usize,
}

impl<'d, 'c, 'f> GdaRank<'d, 'c, 'f> {
    /// Collective bulk ingestion. Every rank passes its share of vertices
    /// and edges (any rank may pass any subset; routing is internal).
    pub fn bulk_load(
        &self,
        vertices: Vec<VertexSpec>,
        edges: Vec<EdgeSpec>,
    ) -> GdiResult<BulkReport> {
        let nranks = self.nranks();
        let me = self.rank();
        let mut report = BulkReport::default();
        // bulk writes bypass the redo log: only a full image makes them
        // durable
        self.note_unlogged();

        // ---- phase 1: route vertices to their owners -------------------
        let mut vrows: Vec<Vec<VertexSpec>> = vec![Vec::new(); nranks];
        for v in vertices {
            vrows[owner_rank(v.app, nranks)].push(v);
        }
        let received = self.ctx().alltoallv(vrows);

        // ---- phase 2: materialize local holders -------------------------
        let mut local: FxHashMap<u64, (DPtr, Holder)> = FxHashMap::default();
        for spec in received.into_iter().flatten() {
            if local.contains_key(&spec.app.0) || self.dht.lookup(spec.app.0).is_some() {
                report.duplicate_vertices += 1;
                continue;
            }
            let primary = self.bm.acquire(me)?;
            let mut h = Holder::new_vertex(spec.app.0);
            for l in spec.labels {
                h.add_label(l);
            }
            for (p, v) in spec.props {
                h.add_property(p, v.encode());
            }
            // quiet insert: one epoch bump per rank after the loop
            // replaces millions of per-vertex bumps
            self.dht.insert_quiet(spec.app.0, primary.raw())?;
            local.insert(spec.app.0, (primary, h));
            report.vertices += 1;
        }
        // collective: every rank bumps its own word before the barrier,
        // so all cached negative entries are retired machine-wide
        self.dht.bump_own_insert_epoch();
        self.ctx().barrier();

        // ---- phase 3: route half-edges to endpoint owners ----------------
        let mut erows: Vec<Vec<(u64, u64, u32, u8)>> = vec![Vec::new(); nranks];
        for e in edges {
            let (fd, td) = if e.directed {
                (Direction::Out, Direction::In)
            } else {
                (Direction::Undirected, Direction::Undirected)
            };
            erows[owner_rank(e.from, nranks)].push((e.from.0, e.to.0, e.label, fd as u8));
            erows[owner_rank(e.to, nranks)].push((e.to.0, e.from.0, e.label, td as u8));
        }
        let halves = self.ctx().alltoallv(erows);

        // ---- phase 4: attach half-edges ---------------------------------
        for (l, r, lbl, d) in halves.into_iter().flatten() {
            let he = HalfEdge {
                local: AppVertexId(l),
                remote: AppVertexId(r),
                label: lbl,
                dir: Direction::from_u8(d).ok_or(GdiError::InvalidArgument("direction"))?,
            };
            let remote_ptr = if let Some((dp, _)) = local.get(&he.remote.0) {
                Some(*dp)
            } else {
                self.dht.lookup(he.remote.0).map(DPtr::from_raw)
            };
            let Some(remote_ptr) = remote_ptr else {
                report.dangling_edges += 1;
                continue;
            };
            match local.get_mut(&he.local.0) {
                Some((_, h)) => {
                    h.push_edge(EdgeRecord::lightweight(remote_ptr, he.label, he.dir));
                    report.half_edges += 1;
                }
                None => {
                    // endpoint owned here but created in an earlier bulk
                    // load: fetch, modify, rewrite
                    if let Some(raw) = self.dht.lookup(he.local.0) {
                        let dp = DPtr::from_raw(raw);
                        let (bytes, mut blocks) = hio::read_chain(self.ctx(), self.cfg(), dp)?;
                        let mut h = Holder::decode(&bytes);
                        h.push_edge(EdgeRecord::lightweight(remote_ptr, he.label, he.dir));
                        hio::write_chain(self.ctx(), &self.bm, &h.encode(), &mut blocks)?;
                        report.half_edges += 1;
                    } else {
                        report.dangling_edges += 1;
                    }
                }
            }
        }

        // ---- phase 5: write holders + index postings ---------------------
        // every published holder needs a nonzero owner-rank version
        // stamp: validated snapshot reads reject a zero seqlock stamp,
        // and replay orders by version. Bulk-loaded holders keep
        // commit_epoch 0 — visible to every snapshot.
        for (app, (primary, h)) in &mut local {
            h.version = self.next_version_stamp(*primary);
            let mut blocks = vec![*primary];
            hio::write_chain(self.ctx(), &self.bm, &h.encode(), &mut blocks)?;
            self.indexes()
                .reindex_vertex(*primary, AppVertexId(*app), Some(&h.labels()));
        }
        self.ctx().flush(me);
        // one topology-epoch bump per rank closes the bulk load (all
        // writes of a bulk load land in the local window), so cached
        // OLAP scan views revalidate against the new graph
        self.bump_topology_epoch(me);
        self.ctx().barrier();
        Ok(report)
    }
}
