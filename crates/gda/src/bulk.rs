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
//!
//! The graph is never held twice. Construction follows kernel 1 of the
//! Graph 500 specification: sort the edge list, then build each adjacency
//! exactly once. The received vertices stay as their specifications, one
//! slot each; every inbox row of half-edges is re-keyed in place to
//! `(slot, arrival index)` and sorted. Phase 5 then walks the slots in
//! order, takes each vertex's run from every row in source-rank order,
//! and builds, encodes, writes and drops its holder before the next one.
//! A vertex's edges keep the arrival order: source rank first, then the
//! order the source passed its edges, the from-half before the to-half.
//! An endpoint created by an earlier bulk load (or a transaction) is
//! patched by reading, extending and rewriting its holder.

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

/// A half-edge routed to one endpoint's owner: 24 bytes. On the wire
/// `key` is the local endpoint's app id; phase 4 overwrites it in place
/// with `slot << 32 | arrival index`, so sorting a row by `key` groups
/// it by vertex and keeps the arrival order inside each group.
#[derive(Debug, Clone, Copy)]
struct Half {
    key: u64,
    /// App id of the other endpoint.
    remote: u64,
    /// `label << 8 | direction`.
    tag: u64,
}

impl Half {
    /// The key of a half-edge whose local endpoint is not one of this
    /// load's vertices: it sorts behind every slot.
    const EARLIER: u64 = u64::MAX;

    fn new(local: AppVertexId, remote: AppVertexId, label: u32, dir: Direction) -> Self {
        Self {
            key: local.0,
            remote: remote.0,
            tag: (label as u64) << 8 | dir as u64,
        }
    }

    fn slot(&self) -> u64 {
        self.key >> 32
    }

    /// The edge record this half-edge becomes, pointing at `target`.
    fn record(&self, target: DPtr) -> GdiResult<EdgeRecord> {
        let dir =
            Direction::from_u8(self.tag as u8).ok_or(GdiError::InvalidArgument("direction"))?;
        Ok(EdgeRecord::lightweight(target, (self.tag >> 8) as u32, dir))
    }
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

        // ---- phase 2: register local vertices, one slot each -----------
        let mut vertices: Vec<(DPtr, VertexSpec)> =
            Vec::with_capacity(received.iter().map(Vec::len).sum());
        let mut slot_of: FxHashMap<u64, u32> = FxHashMap::default();
        slot_of.reserve(vertices.capacity());
        for spec in received.into_iter().flatten() {
            if slot_of.contains_key(&spec.app.0) || self.dht.lookup(spec.app.0).is_some() {
                report.duplicate_vertices += 1;
                continue;
            }
            // a slot and an arrival index share one key word, and the
            // all-ones key marks an earlier endpoint
            let slot = u32::try_from(vertices.len())
                .ok()
                .filter(|&s| s < u32::MAX)
                .ok_or(GdiError::SizeExceeded)?;
            let primary = self.bm.acquire(me)?;
            self.dht.insert(spec.app.0, primary.raw())?;
            slot_of.insert(spec.app.0, slot);
            vertices.push((primary, spec));
            report.vertices += 1;
        }
        // every rank's vertices are in the DHT before phase 4 looks up
        // remote endpoints
        self.ctx().barrier();

        // ---- phase 3: route half-edges to endpoint owners ----------------
        // (a counting pass sizes every row exactly)
        let mut sizes = vec![0usize; nranks];
        for e in &edges {
            sizes[owner_rank(e.from, nranks)] += 1;
            sizes[owner_rank(e.to, nranks)] += 1;
        }
        let mut erows: Vec<Vec<Half>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for e in edges {
            let (fd, td) = if e.directed {
                (Direction::Out, Direction::In)
            } else {
                (Direction::Undirected, Direction::Undirected)
            };
            erows[owner_rank(e.from, nranks)].push(Half::new(e.from, e.to, e.label, fd));
            erows[owner_rank(e.to, nranks)].push(Half::new(e.to, e.from, e.label, td));
        }
        let mut rows = self.ctx().alltoallv(erows);

        // ---- phase 4: key every half-edge by slot, sort each row ---------
        let mut earlier: Vec<Half> = Vec::new();
        for row in &mut rows {
            if row.len() > u32::MAX as usize {
                return Err(GdiError::SizeExceeded);
            }
            for (arrival, half) in row.iter_mut().enumerate() {
                match slot_of.get(&half.key) {
                    Some(&slot) => half.key = (slot as u64) << 32 | arrival as u64,
                    None => {
                        earlier.push(*half);
                        half.key = Half::EARLIER;
                    }
                }
            }
            row.sort_unstable_by_key(|h| h.key);
            let keep = row.partition_point(|h| h.key != Half::EARLIER);
            row.truncate(keep);
        }
        // the other endpoint's primary, or `None` if it is unknown
        let resolve = |vertices: &[(DPtr, VertexSpec)], remote: u64| match slot_of.get(&remote) {
            Some(&slot) => Some(vertices[slot as usize].0),
            None => self.dht.lookup(remote).map(DPtr::from_raw),
        };

        // ---- phase 5: build, write and index one holder at a time --------
        // every published holder needs a nonzero owner-rank version
        // stamp: validated snapshot reads reject a zero seqlock stamp,
        // and replay orders by version. Bulk-loaded holders keep
        // commit_epoch 0 — visible to every snapshot.
        let mut cursors = vec![0usize; rows.len()];
        for slot in 0..vertices.len() {
            let mut h = Holder::new_vertex(vertices[slot].1.app.0);
            for (row, cur) in rows.iter().zip(&mut cursors) {
                while let Some(half) = row.get(*cur).filter(|next| next.slot() == slot as u64) {
                    *cur += 1;
                    match resolve(&vertices, half.remote) {
                        Some(target) => {
                            h.push_edge(half.record(target)?);
                            report.half_edges += 1;
                        }
                        None => report.dangling_edges += 1,
                    }
                }
            }
            let (primary, ref mut spec) = vertices[slot];
            for l in std::mem::take(&mut spec.labels) {
                h.add_label(l);
            }
            for (p, v) in std::mem::take(&mut spec.props) {
                h.add_property(p, &v.encode());
            }
            h.set_version(self.next_version_stamp(primary));
            let mut blocks = vec![primary];
            hio::write_chain(self.ctx(), &self.bm, h.bytes(), &mut blocks)?;
            let labels: Vec<_> = h.entry_scan().labels().collect();
            self.indexes()
                .reindex_vertex(primary, AppVertexId(h.app_id()), Some(&labels));
        }
        drop(rows);

        // endpoints owned here but created earlier: fetch, modify, rewrite
        for half in earlier {
            let Some(target) = resolve(&vertices, half.remote) else {
                report.dangling_edges += 1;
                continue;
            };
            let Some(raw) = self.dht.lookup(half.key) else {
                report.dangling_edges += 1;
                continue;
            };
            let dp = DPtr::from_raw(raw);
            let (bytes, mut blocks) = hio::read_chain(self.ctx(), self.cfg(), dp)?;
            let mut h = Holder::from_bytes(bytes).ok_or(hio::STALE)?;
            h.push_edge(half.record(target)?);
            hio::write_chain(self.ctx(), &self.bm, h.bytes(), &mut blocks)?;
            report.half_edges += 1;
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
