//! Zero-transaction OLAP scan layer: epoch-validated CSR snapshots
//! built from raw window sweeps, under one dense halo numbering.
//!
//! The collective tx-based view builders (`workloads::analytics`) open a
//! read transaction and call `neighbors` once per vertex — paying DHT
//! translation, holder-chain pointer chasing and transaction bookkeeping
//! for every local vertex on every OLAP job. This module is the paper's
//! "scan the storage, skip the protocol" alternative: analytics read
//! adjacency at memory bandwidth straight out of the storage windows.
//!
//! ## The sweep protocol
//!
//! Building a [`CsrView`] is collective:
//!
//! 1. every rank decodes **its own DHT partition** out of the raw
//!    index-window bytes (`crate::dht::decode_partition` — one local
//!    sequential read, no remote chain walks);
//! 2. one `alltoallv` routes the decoded `(app id, primary)` pairs to
//!    the rank owning each primary block, so a view's rows follow
//!    ownership and cover every live local vertex — structurally, there
//!    is no other partition;
//! 3. each rank sorts its pairs by app id — that order *is* the row
//!    numbering — fills the block → row table, and reads every live
//!    holder's chain **block by block out of its own data window** into
//!    one reused chain buffer (`crate::hio::read_chain_into`): only
//!    live blocks are touched and nothing window-sized is allocated;
//! 4. each serialized holder is validated exactly as
//!    `Holder::from_bytes` validates it (`Holder::scan_edges`) and
//!    its live edge records are appended straight to the CSR arrays
//!    under the dense numbering below — no copy, no per-row vectors;
//! 5. one `alltoallv` of ghost-id lists resolves the halo.
//!
//! ## Dense numbering and halo exchange
//!
//! Edge targets are not stored as 64-bit pointers. A view numbers the
//! vertices it can see once, per view generation:
//!
//! * a **row** `0 .. n` is a live local vertex (ascending app id);
//! * a **ghost** `n .. n + g` is a distinct *remote* edge target, in
//!   ascending `DPtr` order — which groups the ghosts by owner rank into
//!   one contiguous slice per peer ([`CsrView::ghost_range`]);
//! * the **mirror list** `mirror(r)` names, for peer `r`, *this* rank's
//!   rows that `r` holds as ghosts, in `r`'s ghost order.
//!
//! Local targets become rows through the block → row table (`DPtr`
//! offset ÷ block size, no hashing); ghosts are numbered while the rows
//! are assembled; the mirror lists are what the collective **halo
//! resolution** produces — every rank sends each owner the ids behind
//! its ghost slice, the owner answers nothing and keeps the rows they
//! name. After that a kernel's exchange is *values only*: **push** ships
//! the ghost slice of a halo-sized array to its owners, who fold what
//! arrives into their rows through the mirror list
//! ([`CsrView::push_ghosts`]: PageRank, WCC, GNN aggregation); **pull**
//! runs the same lists backwards ([`CsrView::pull_ghosts`]: CDLP). No id
//! travels and neither side looks anything up.
//!
//! Ghost and mirror lists of *different* ranks name each other, so
//! resolution happens whenever **any** rank's rows changed: a rank that
//! revalidated its own rows while a peer rebuilt must still re-resolve —
//! its mirror lists name the peer's old ghost order. It always runs
//! inside a collective that exists anyway (the end of a build, the
//! [`GdaRank::olap_view`] rendezvous, the tx-based oracle builders),
//! never hidden inside a kernel. An edge whose target is a row of no
//! rank's view is a broken invariant and panics there, with the pointer.
//!
//! ## Epoch validation
//!
//! The view is stamped with its rank's **topology-epoch word**
//! (`crate::config::GdaConfig::topo_word`): commits bump it once per
//! touched rank when (and only when) they change membership or an edge
//! list, so property-only writes (a GNN layer's feature updates) never
//! retire a view. One epoch read per OLAP job revalidates a cached
//! view; when the epoch moved, the rank rebuilds its rows by a fresh
//! sweep — there is no incremental maintenance. Like the collective
//! read-only transactions it replaces, the scan layer assumes OLAP jobs
//! do not run concurrently with mutating transactions (§5.6's optimized
//! read path).

use std::ops::Range;
use std::rc::Rc;

use rustc_hash::FxHashMap;

use gdi::EdgeOrientation;
use rma::{Counter, RankCtx};

use crate::config::GdaConfig;
use crate::db::GdaRank;
use crate::dht;
use crate::dptr::DPtr;
use crate::hio::{self, Source};
use crate::holder::{EdgeScan, Holder};

/// One edge as the tx-based builders hand it over: `(target,
/// lightweight label)`.
pub(crate) type ScanEdge = (DPtr, u32);

/// Which vertices a scan view covers on this rank. One variant is left;
/// the enum stays only because the frozen `benchmark/` names it (a
/// `[benchmark]` PR may drop both).
#[derive(Debug, Clone, Copy)]
pub enum ScanPartition {
    /// Every live vertex whose primary block lives on this rank (the
    /// natural OLAP partition; equals the round-robin app partition).
    /// The only partition there is: rows that follow ownership are what
    /// makes every edge target resolvable to a row somewhere.
    LocalAll,
}

/// "No row here" in the block → row table.
const NO_ROW: u32 = u32::MAX;

/// A per-rank CSR mirror of the local graph partition, built by one
/// sweep of the raw storage windows — the zero-transaction OLAP read
/// path. Rows are sorted by application id; edge targets are **halo
/// ids** (`< len()`: a local row, otherwise a ghost — see the module
/// docs), so kernels index flat arrays of [`CsrView::halo_len`] entries
/// and exchange them with [`CsrView::push_ghosts`] /
/// [`CsrView::pull_ghosts`].
#[derive(Debug, Clone)]
pub struct CsrView {
    /// Application ids of the covered vertices (ascending).
    pub apps: Vec<u64>,
    /// Internal ids, parallel to `apps`.
    pub vids: Vec<DPtr>,
    out_off: Vec<u32>,
    out_tgt: Vec<u32>,
    out_lbl: Vec<u32>,
    any_off: Vec<u32>,
    any_tgt: Vec<u32>,
    any_lbl: Vec<u32>,
    /// The rank whose partition the rows are.
    rank: usize,
    block_size: u64,
    /// Data-window block index → row ([`NO_ROW`] elsewhere).
    row_of_block: Vec<u32>,
    /// Internal ids of the ghost slots, ascending (= grouped by owner).
    ghost_ids: Vec<DPtr>,
    /// `ghost_off[r] .. ghost_off[r + 1]`: the ghosts rank `r` owns.
    ghost_off: Vec<u32>,
    /// `mirror[r]`: this rank's rows behind rank `r`'s ghosts, in `r`'s
    /// ghost order (filled by [`resolve`]).
    mirror: Vec<Vec<u32>>,
    /// This rank's topology-epoch word, observed before the sweep.
    stamp: u64,
}

impl CsrView {
    /// Number of covered vertices (rows).
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// Number of ghost slots: distinct remote edge targets.
    pub(crate) fn ghosts(&self) -> usize {
        self.ghost_ids.len()
    }

    /// Rows plus ghosts: the length of a kernel's per-vertex array.
    pub fn halo_len(&self) -> usize {
        self.len() + self.ghosts()
    }

    /// Outgoing neighbors of row `i` as halo ids (directed `Out`
    /// records only, like `Transaction::neighbors(_, Outgoing, None)`).
    #[inline]
    pub fn out(&self, i: usize) -> &[u32] {
        &self.out_tgt[self.out_off[i] as usize..self.out_off[i + 1] as usize]
    }

    /// All neighbors of row `i` as halo ids (any orientation, in record
    /// order).
    #[inline]
    pub fn any(&self, i: usize) -> &[u32] {
        &self.any_tgt[self.any_off[i] as usize..self.any_off[i + 1] as usize]
    }

    /// Per-edge labels parallel to [`CsrView::out`] (0 = unlabeled).
    #[inline]
    pub fn out_labels(&self, i: usize) -> &[u32] {
        &self.out_lbl[self.out_off[i] as usize..self.out_off[i + 1] as usize]
    }

    /// Per-edge labels parallel to [`CsrView::any`] (0 = unlabeled).
    #[inline]
    pub fn any_labels(&self, i: usize) -> &[u32] {
        &self.any_lbl[self.any_off[i] as usize..self.any_off[i + 1] as usize]
    }

    /// Local out-degree sum (diagnostics): the final CSR offset.
    pub fn out_edges(&self) -> usize {
        self.out_tgt.len()
    }

    /// Local any-orientation degree sum (message-volume accounting).
    pub fn any_edges(&self) -> usize {
        self.any_tgt.len()
    }

    /// The internal id behind halo id `h` (a row's or a ghost's).
    #[inline]
    pub fn target(&self, h: u32) -> DPtr {
        let h = h as usize;
        match h.checked_sub(self.len()) {
            None => self.vids[h],
            Some(g) => self.ghost_ids[g],
        }
    }

    /// The data-window block `v` points into (a shift for the usual
    /// power-of-two block sizes; this runs once per local edge record of
    /// a build).
    #[inline]
    fn block_of(&self, v: DPtr) -> usize {
        let block = if self.block_size.is_power_of_two() {
            v.offset() >> self.block_size.trailing_zeros()
        } else {
            v.offset() / self.block_size
        };
        block as usize
    }

    /// The row of internal id `v`, if it is one: a table lookup on the
    /// block index, no hashing.
    #[inline]
    pub fn row_of(&self, v: DPtr) -> Option<usize> {
        if v.rank() != self.rank {
            return None;
        }
        let row = *self.row_of_block.get(self.block_of(v))?;
        (row != NO_ROW && self.vids[row as usize] == v).then_some(row as usize)
    }

    /// The halo id of internal id `v` on this rank: its row, or the
    /// ghost that stands for it (binary search over the ascending ghost
    /// ids). `None` when it is neither — no local edge leads to it.
    pub fn halo_of(&self, v: DPtr) -> Option<u32> {
        if v.rank() == self.rank {
            return self.row_of(v).map(|row| row as u32);
        }
        let g = self.ghost_ids.binary_search(&v).ok()?;
        Some((self.len() + g) as u32)
    }

    /// The row of application id `app`, if it is one (binary search over
    /// the sorted `apps`).
    pub fn row_of_app(&self, app: u64) -> Option<usize> {
        self.apps.binary_search(&app).ok()
    }

    /// The halo ids of the ghosts rank `r` owns: one contiguous range
    /// (empty for this rank itself).
    #[inline]
    pub fn ghost_range(&self, r: usize) -> Range<usize> {
        let n = self.len();
        n + self.ghost_off[r] as usize..n + self.ghost_off[r + 1] as usize
    }

    /// This rank's rows that rank `r` holds as ghosts, in `r`'s ghost
    /// order.
    #[inline]
    pub fn mirror(&self, r: usize) -> &[u32] {
        &self.mirror[r]
    }

    /// Halo **push**: ship every peer its slice of `halo`'s ghost part
    /// (`k` values per slot) with `rider` appended, and fold what
    /// arrives into this rank's rows through the mirror lists with
    /// `combine`. Returns every rank's rider, in rank order — a scalar
    /// allreduce riding the exchange. Values only: no id travels, no
    /// lookup on either side. Collective.
    pub fn push_ghosts<T: Copy + Send + Sync + 'static>(
        &self,
        ctx: &RankCtx,
        halo: &mut [T],
        k: usize,
        rider: T,
        combine: impl Fn(&mut T, T),
    ) -> Vec<T> {
        debug_assert_eq!(halo.len(), self.halo_len() * k);
        let rows = (0..self.mirror.len())
            .map(|r| {
                let g = self.ghost_range(r);
                let mut row = Vec::with_capacity(g.len() * k + 1);
                row.extend_from_slice(&halo[g.start * k..g.end * k]);
                row.push(rider);
                row
            })
            .collect();
        let mut riders = Vec::with_capacity(self.mirror.len());
        for (r, row) in ctx.alltoallv(rows).into_iter().enumerate() {
            let (vals, rider) = row.split_at(row.len() - 1);
            assert_eq!(
                vals.len(),
                self.mirror[r].len() * k,
                "halo push from rank {r}: its view is of another generation"
            );
            for (&m, vals) in self.mirror[r].iter().zip(vals.chunks_exact(k)) {
                for (a, &b) in halo[m as usize * k..][..k].iter_mut().zip(vals) {
                    combine(a, b);
                }
            }
            riders.push(rider[0]);
        }
        riders
    }

    /// Halo **pull**: the reverse exchange — every owner ships its rows'
    /// values through the mirror lists and they land in the ghost part
    /// of `halo` (`k` values per slot). Collective.
    pub fn pull_ghosts<T: Copy + Send + Sync + 'static>(
        &self,
        ctx: &RankCtx,
        halo: &mut [T],
        k: usize,
    ) {
        debug_assert_eq!(halo.len(), self.halo_len() * k);
        let rows = self
            .mirror
            .iter()
            .map(|mirror| {
                let mut row = Vec::with_capacity(mirror.len() * k);
                for &m in mirror {
                    row.extend_from_slice(&halo[m as usize * k..][..k]);
                }
                row
            })
            .collect();
        for (r, row) in ctx.alltoallv(rows).into_iter().enumerate() {
            let g = self.ghost_range(r);
            assert_eq!(
                row.len(),
                g.len() * k,
                "halo pull from rank {r}: its view is of another generation"
            );
            halo[g.start * k..g.end * k].copy_from_slice(&row);
        }
    }

    /// Logical equality with another view: same vertices, same internal
    /// ids, same adjacency (targets and labels, in record order). The
    /// differential-oracle comparison between the scan-built and the
    /// tx-built view. Ghosts are numbered in `DPtr` order, so equal
    /// graphs have equal arrays.
    pub fn logical_eq(&self, other: &CsrView) -> bool {
        self.apps == other.apps
            && self.vids == other.vids
            && self.ghost_ids == other.ghost_ids
            && self.out_off == other.out_off
            && self.out_tgt == other.out_tgt
            && self.out_lbl == other.out_lbl
            && self.any_off == other.any_off
            && self.any_tgt == other.any_tgt
            && self.any_lbl == other.any_lbl
    }

    /// Collective: build a view directly from per-vertex adjacency rows
    /// (the tx-based oracle path; also useful in tests) and resolve its
    /// halo against the peers' views built in the same call. Rows must
    /// be parallel to `apps`/`vids`, must be owned by this rank, and are
    /// re-sorted by app id.
    pub fn from_adjacency(
        eng: &GdaRank,
        apps: Vec<u64>,
        vids: Vec<DPtr>,
        out: Vec<Vec<ScanEdge>>,
        any: Vec<Vec<ScanEdge>>,
    ) -> CsrView {
        assert_eq!(apps.len(), vids.len());
        assert_eq!(apps.len(), out.len());
        assert_eq!(apps.len(), any.len());
        let mut order: Vec<usize> = (0..apps.len()).collect();
        order.sort_by_key(|&i| apps[i]);
        let mut asm = Assembler::new(
            eng.cfg(),
            eng.rank(),
            order.iter().map(|&i| (apps[i], vids[i])),
        );
        for i in order {
            out[i].iter().for_each(|&(t, l)| asm.out_edge(t, l));
            any[i].iter().for_each(|&(t, l)| asm.any_edge(t, l));
            asm.end_row();
        }
        let mut view = asm.finish(eng.nranks());
        resolve(eng.ctx(), &mut view);
        view
    }
}

/// An edge target that is a row of no rank's view: the graph's
/// symmetric edge records are broken, or a view does not cover its
/// rank's partition.
fn no_row(t: DPtr) -> ! {
    panic!("scan view: edge target {t} is a row of no rank's view")
}

/// The one row-assembly routine behind the sweep and
/// [`CsrView::from_adjacency`]: the rows are fixed up front (that is
/// what numbers local targets), edges are appended row by row, and
/// [`Assembler::finish`] puts the ghosts in their canonical order.
struct Assembler {
    view: CsrView,
    /// Raw pointer of a remote target → provisional ghost number (first
    /// appearance).
    ghost_of: FxHashMap<u64, u32>,
}

impl Assembler {
    /// Start a view of `rank`'s partition over `rows` — `(app id,
    /// internal id)`, ascending by app id, every one owned by `rank`.
    fn new(cfg: &GdaConfig, rank: usize, rows: impl Iterator<Item = (u64, DPtr)>) -> Self {
        let (apps, vids): (Vec<u64>, Vec<DPtr>) = rows.unzip();
        debug_assert!(
            apps.windows(2).all(|w| w[0] < w[1]),
            "rows ascend by app id"
        );
        let n = apps.len();
        let mut view = CsrView {
            apps,
            vids,
            out_off: Vec::with_capacity(n + 1),
            out_tgt: Vec::new(),
            out_lbl: Vec::new(),
            any_off: Vec::with_capacity(n + 1),
            any_tgt: Vec::new(),
            any_lbl: Vec::new(),
            rank,
            block_size: cfg.block_size as u64,
            row_of_block: vec![NO_ROW; cfg.blocks_per_rank + 1],
            ghost_ids: Vec::new(),
            ghost_off: Vec::new(),
            mirror: Vec::new(),
            stamp: 0,
        };
        view.out_off.push(0);
        view.any_off.push(0);
        for (i, v) in view.vids.iter().enumerate() {
            assert_eq!(
                v.rank(),
                rank,
                "scan view rows follow ownership: {v} is not on rank {rank}"
            );
            let block = view.block_of(*v);
            *view
                .row_of_block
                .get_mut(block)
                .unwrap_or_else(|| panic!("scan view: row {v} lies outside the data window")) =
                i as u32;
        }
        Assembler {
            view,
            ghost_of: FxHashMap::default(),
        }
    }

    /// The halo id of edge target `t`: its row when local (table
    /// lookup), a ghost otherwise (one probe per remote record — the
    /// only hashing left, and it happens once per view generation).
    #[inline]
    fn halo_id(&mut self, t: DPtr) -> u32 {
        if t.rank() == self.view.rank {
            return self.view.row_of(t).unwrap_or_else(|| no_row(t)) as u32;
        }
        let next = self.view.ghost_ids.len() as u32;
        let g = *self.ghost_of.entry(t.raw()).or_insert(next);
        if g == next {
            self.view.ghost_ids.push(t);
        }
        self.view.apps.len() as u32 + g
    }

    /// Append an edge to `t` to the current row's out list.
    fn out_edge(&mut self, t: DPtr, label: u32) {
        let h = self.halo_id(t);
        self.view.out_tgt.push(h);
        self.view.out_lbl.push(label);
    }

    /// Append an edge to `t` to the current row's any list.
    fn any_edge(&mut self, t: DPtr, label: u32) {
        let h = self.halo_id(t);
        self.view.any_tgt.push(h);
        self.view.any_lbl.push(label);
    }

    /// Append a validated serialized holder's live edge records — the
    /// records `Transaction::neighbors` returns for the `Any` and, of
    /// those, the `Outgoing` orientation, in slot order. A record is
    /// numbered once for both lists.
    fn push_records(&mut self, scan: &EdgeScan) {
        for (_, r) in scan.live() {
            let h = self.halo_id(r.target);
            self.view.any_tgt.push(h);
            self.view.any_lbl.push(r.label);
            if EdgeOrientation::Outgoing.matches(r.dir) {
                self.view.out_tgt.push(h);
                self.view.out_lbl.push(r.label);
            }
        }
    }

    /// Close the current row.
    fn end_row(&mut self) {
        self.view.out_off.push(self.view.out_tgt.len() as u32);
        self.view.any_off.push(self.view.any_tgt.len() as u32);
    }

    /// Renumber the ghosts into ascending `DPtr` order (grouped by
    /// owner, and independent of the order edges were seen in) and hand
    /// the view over, its halo still unresolved.
    fn finish(self, nranks: usize) -> CsrView {
        let mut view = self.view;
        let n = view.len();
        debug_assert_eq!(view.out_off.len(), n + 1, "one end_row per row");
        let mut order: Vec<u32> = (0..view.ghost_ids.len() as u32).collect();
        order.sort_unstable_by_key(|&g| view.ghost_ids[g as usize]);
        // rows keep their ids, so the pass over the edges is one
        // unconditional table lookup each
        let mut renumber: Vec<u32> = (0..(n + order.len()) as u32).collect();
        for (new, &old) in order.iter().enumerate() {
            renumber[n + old as usize] = (n + new) as u32;
        }
        for t in view.out_tgt.iter_mut().chain(view.any_tgt.iter_mut()) {
            *t = renumber[*t as usize];
        }
        view.ghost_ids = order.iter().map(|&g| view.ghost_ids[g as usize]).collect();
        view.ghost_off = (0..=nranks)
            .map(|r| view.ghost_ids.partition_point(|g| g.rank() < r) as u32)
            .collect();
        view
    }
}

/// Collective: **resolve the halo** of `view` against the peers' views
/// of the same generation — one `alltoallv` of each rank's ghost-id
/// lists leaves every owner with its mirror lists (see the module
/// docs). Every rank calls this whenever *any* rank's rows changed.
fn resolve(ctx: &RankCtx, view: &mut CsrView) {
    let n = view.len();
    let asks = (0..ctx.nranks())
        .map(|r| {
            let g = view.ghost_range(r);
            view.ghost_ids[g.start - n..g.end - n]
                .iter()
                .map(|t| t.raw())
                .collect()
        })
        .collect();
    let asked: Vec<Vec<u64>> = ctx.alltoallv(asks);
    ctx.charge_cpu((view.ghosts() + asked.iter().map(Vec::len).sum::<usize>()) as u64 + 1);
    view.mirror = asked
        .into_iter()
        .map(|ids| {
            ids.into_iter()
                .map(|raw| {
                    let t = DPtr::from_raw(raw);
                    view.row_of(t).unwrap_or_else(|| no_row(t)) as u32
                })
                .collect()
        })
        .collect();
}

/// Collective: build a fresh [`CsrView`] for `part` by the raw-window
/// sweep protocol (see the module docs). Every rank must call this
/// together.
pub fn build_view(eng: &GdaRank, part: ScanPartition) -> Rc<CsrView> {
    let ScanPartition::LocalAll = part;
    Rc::new(build_collective(eng, None))
}

/// The collective build, optionally short-circuiting this rank's sweep
/// with a still-valid cached view: the rank keeps serving the DHT
/// exchange so peers can find their partitions, and re-resolves its
/// halo against their new rows.
pub(crate) fn build_collective(eng: &GdaRank, reuse: Option<CsrView>) -> CsrView {
    let ctx = eng.ctx();
    let cfg = eng.cfg();
    ctx.barrier();

    // every `(app, primary)` pair whose primary this rank owns, out of
    // the raw index windows
    let mine = dht::owned_entries(ctx, cfg);

    // a still-valid cached view skips its own sweep entirely (reuse
    // accounting is the caller's — `GdaRank::olap_view`)
    let mut view = reuse.unwrap_or_else(|| sweep(eng, mine));
    // the exchange also closes the build: no rank leaves before every
    // rank has finished reading its window
    resolve(ctx, &mut view);
    view
}

/// This rank's sweep: rows from the routed `(app, primary)` pairs, edges
/// straight from the holders' bytes in the local data window.
fn sweep(eng: &GdaRank, mut mine: Vec<(u64, u64)>) -> CsrView {
    let ctx = eng.ctx();
    let cfg = eng.cfg();
    // -- epoch stamp, observed *before* any data is read -----------------
    let stamp = eng.topology_epoch(eng.rank());

    // -- rows ascend by app id; edges are appended in that order ----------
    mine.sort_unstable_by_key(|&(app, _)| app);
    let mut asm = Assembler::new(
        cfg,
        eng.rank(),
        mine.iter().map(|&(app, raw)| (app, DPtr::from_raw(raw))),
    );
    let mut block = vec![0u8; cfg.block_size];
    let mut chain = Vec::new();
    let mut scanned_bytes = 0u64;
    for &(app, raw) in &mine {
        let vid = DPtr::from_raw(raw);
        hio::read_chain_into(&Source::Live(ctx), cfg, vid, &mut block, &mut chain)
            .unwrap_or_else(|_| panic!("scan sweep: holder of app {app} at {vid} undecodable"));
        scanned_bytes += chain.len() as u64;
        let scan = Holder::scan_edges(&chain)
            .unwrap_or_else(|| panic!("scan sweep: holder of app {app} at {vid} corrupt"));
        asm.push_records(&scan);
        asm.end_row();
    }
    ctx.charge_cpu(scanned_bytes / 8 + mine.len() as u64 + 1);
    ctx.count(Counter::ScanBuilds, 1);
    ctx.count(Counter::ScanHolders, mine.len() as u64);
    ctx.count(Counter::ScanBytes, scanned_bytes);
    CsrView {
        stamp,
        ..asm.finish(eng.nranks())
    }
}

/// Revalidate a cached view with one topology-epoch read: `true` when
/// its rank's word has not moved since the build.
pub(crate) fn revalidate(eng: &GdaRank, view: &CsrView) -> bool {
    eng.topology_epoch(view.rank) == view.stamp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::GdaDb;
    use gdi::{AccessMode, AppVertexId};
    use proptest::prelude::*;
    use rma::CostModel;

    /// Build the tx-based oracle view over `apps` (collective).
    fn oracle_view(eng: &GdaRank, apps: &[u64]) -> CsrView {
        let tx = eng.begin_collective(AccessMode::ReadOnly);
        let mut vids = Vec::new();
        let mut out = Vec::new();
        let mut any = Vec::new();
        for &app in apps {
            let vid = tx.translate_vertex_id(AppVertexId(app)).unwrap();
            vids.push(vid);
            out.push(
                tx.neighbors(vid, EdgeOrientation::Outgoing, None)
                    .unwrap()
                    .into_iter()
                    .map(|t| (t, 0u32))
                    .collect(),
            );
            any.push(
                tx.neighbors(vid, EdgeOrientation::Any, None)
                    .unwrap()
                    .into_iter()
                    .map(|t| (t, 0u32))
                    .collect(),
            );
        }
        tx.commit().unwrap();
        CsrView::from_adjacency(eng, apps.to_vec(), vids, out, any)
    }

    /// Adjacency-only equality (labels ignored — the oracle helper
    /// stores zeros), through the internal ids behind the halo ids.
    fn adjacency_eq(a: &CsrView, b: &CsrView) -> bool {
        let ptrs = |v: &CsrView, hs: &[u32]| hs.iter().map(|&h| v.target(h)).collect::<Vec<_>>();
        a.apps == b.apps
            && a.vids == b.vids
            && (0..a.len()).all(|i| {
                ptrs(a, a.out(i)) == ptrs(b, b.out(i)) && ptrs(a, a.any(i)) == ptrs(b, b.any(i))
            })
    }

    /// A small deterministic cross-rank graph: ring + chords over app
    /// ids `0 .. n`, built through ordinary transactions by rank 0.
    fn build_graph(eng: &GdaRank, n: u64) {
        build_graph_at(eng, 0, n)
    }

    /// [`build_graph`] over app ids `base .. base + n`.
    fn build_graph_at(eng: &GdaRank, base: u64, n: u64) {
        if eng.rank() == 0 {
            let tx = eng.begin(AccessMode::ReadWrite);
            let vids: Vec<DPtr> = (base..base + n)
                .map(|app| tx.create_vertex(AppVertexId(app)).unwrap())
                .collect();
            for i in 0..n {
                tx.add_edge(vids[i as usize], vids[((i + 1) % n) as usize], None, true)
                    .unwrap();
                if i % 3 == 0 {
                    tx.add_edge(vids[i as usize], vids[((i + 5) % n) as usize], None, false)
                        .unwrap();
                }
            }
            tx.commit().unwrap();
        }
        eng.ctx().barrier();
    }

    #[test]
    fn local_all_sweep_matches_tx_oracle() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-eq", cfg, 3, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            build_graph(&eng, 24);
            let scan = build_view(&eng, ScanPartition::LocalAll);
            // this rank's round-robin partition, ascending
            let apps: Vec<u64> = (0..24)
                .filter(|a| crate::rankmap::vertex_owner(AppVertexId(*a), 3) == ctx.rank())
                .collect();
            assert_eq!(scan.apps, apps);
            let want = oracle_view(&eng, &apps);
            assert!(
                adjacency_eq(&scan, &want),
                "scan view diverges from tx view"
            );
            // same graph, same numbering: the dense arrays agree too
            assert!(scan.logical_eq(&want));
            // degree sum across ranks covers every record
            let total = ctx.allreduce_sum_u64(scan.out_edges() as u64);
            let want_total = ctx.allreduce_sum_u64(want.out_edges() as u64);
            assert_eq!(total, want_total);
        });
    }

    /// The halo's shape on a real cross-rank graph: ghosts ascend (so
    /// every owner's ghosts are one contiguous slice), this rank owns
    /// none of them, and `mirror(r)` on the owner lists exactly the rows
    /// behind `r`'s ghosts, in `r`'s order.
    #[test]
    fn ghosts_group_by_owner_and_mirrors_name_their_rows() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-halo", cfg, 3, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            build_graph(&eng, 24);
            let view = build_view(&eng, ScanPartition::LocalAll);
            let (n, me) = (view.len(), ctx.rank());
            let ghosts: Vec<DPtr> = (n..view.halo_len())
                .map(|h| view.target(h as u32))
                .collect();
            assert!(ghosts.windows(2).all(|w| w[0] < w[1]), "ghosts ascend");
            assert!(view.ghost_range(me).is_empty(), "own vertices are rows");
            let mut covered = 0;
            for r in 0..ctx.nranks() {
                let g = view.ghost_range(r);
                assert_eq!(g.start, n + covered, "slices are contiguous");
                covered += g.len();
                assert!(g.clone().all(|h| view.target(h as u32).rank() == r));
            }
            assert_eq!(covered, view.ghosts());
            // every ghost is some edge's target, every remote target a ghost
            let mut used: Vec<u32> = (0..n)
                .flat_map(|i| view.any(i).iter().copied())
                .filter(|&h| h as usize >= n)
                .collect();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used, (n as u32..view.halo_len() as u32).collect::<Vec<_>>());
            // mirror lists: rank r publishes the ids behind its ghost
            // slices; the owner's mirror(r) must name those very rows
            let mine: Vec<Vec<u64>> = (0..ctx.nranks())
                .map(|r| {
                    view.ghost_range(r)
                        .map(|h| view.target(h as u32).raw())
                        .collect()
                })
                .collect();
            for (r, theirs) in ctx.allgather(mine).into_iter().enumerate() {
                let named: Vec<u64> = view
                    .mirror(r)
                    .iter()
                    .map(|&row| view.vids[row as usize].raw())
                    .collect();
                assert_eq!(named, theirs[me], "mirror({r}) on rank {me}");
            }
            // a push of "1 per ghost" therefore counts, on each row, the
            // peers that hold it as a ghost; a pull brings app ids back
            let mut held = vec![0u64; view.halo_len()];
            held[n..].fill(1);
            let riders = view.push_ghosts(ctx, &mut held, 1, me as u64, |a, b| *a += b);
            assert_eq!(riders, (0..ctx.nranks() as u64).collect::<Vec<_>>());
            for (row, &h) in held[..n].iter().enumerate() {
                let holders = (0..ctx.nranks())
                    .filter(|&r| view.mirror(r).contains(&(row as u32)))
                    .count();
                assert_eq!(h, holders as u64);
            }
            let mut ids = vec![0u64; view.halo_len()];
            for (slot, v) in ids.iter_mut().zip(&view.vids) {
                *slot = v.raw();
            }
            view.pull_ghosts(ctx, &mut ids, 1);
            for (h, &id) in ids.iter().enumerate() {
                assert_eq!(id, view.target(h as u32).raw());
            }
        });
    }

    /// Multi-edges keep their multiplicity, self-loops point at their own
    /// row, and a single rank has no ghosts and nothing to exchange.
    #[test]
    fn multi_edges_self_loops_and_the_single_rank() {
        for nranks in [1, 2] {
            let cfg = GdaConfig::tiny();
            let (db, fabric) = GdaDb::with_fabric("scan-multi", cfg, nranks, CostModel::default());
            fabric.run(|ctx| {
                let eng = db.attach(ctx);
                eng.init_collective();
                if ctx.rank() == 0 {
                    let tx = eng.begin(AccessMode::ReadWrite);
                    let v: Vec<DPtr> = (0..4)
                        .map(|a| tx.create_vertex(AppVertexId(a)).unwrap())
                        .collect();
                    for _ in 0..3 {
                        tx.add_edge(v[0], v[1], None, true).unwrap(); // triple edge
                    }
                    tx.add_edge(v[2], v[2], None, true).unwrap(); // self-loop
                    tx.add_edge(v[0], v[2], None, true).unwrap();
                    tx.commit().unwrap();
                }
                ctx.barrier();
                let view = build_view(&eng, ScanPartition::LocalAll);
                let want = oracle_view(&eng, &view.apps.clone());
                assert!(adjacency_eq(&view, &want));
                if let Some(row) = view.row_of_app(0) {
                    let v1 = eng.peek_translate(AppVertexId(1)).unwrap();
                    let to_1 = view.out(row).iter().filter(|&&h| view.target(h) == v1);
                    assert_eq!(to_1.count(), 3, "a triple edge is three records");
                    assert_eq!(view.out(row).len(), 4);
                }
                if let Some(row) = view.row_of_app(2) {
                    let loops = view.any(row).iter().filter(|&&h| h as usize == row).count();
                    assert_eq!(
                        loops, 2,
                        "a self-loop is an Out and an In record on its row"
                    );
                    assert_eq!(view.out(row), &[row as u32]);
                }
                if nranks == 1 {
                    assert_eq!(view.ghosts(), 0);
                    assert_eq!(view.halo_len(), view.len());
                    assert!(view.mirror(0).is_empty());
                    // the exchange still answers, with nothing in it
                    let mut vals = vec![7u64; view.halo_len()];
                    let riders = view.push_ghosts(ctx, &mut vals, 1, 5, |a, b| *a += b);
                    assert_eq!(riders, vec![5]);
                    assert!(vals.iter().all(|&v| v == 7));
                } else {
                    assert!(ctx.allreduce_sum_u64(view.ghosts() as u64) > 0);
                }
            });
        }
    }

    /// An edge whose target is in no view is refused at resolution, by
    /// name — not three kernels later.
    #[test]
    #[should_panic(expected = "is a row of no rank's view")]
    fn dangling_edge_target_panics_at_resolution() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-dangling", cfg, 1, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let bs = cfg.block_size as u64;
            CsrView::from_adjacency(
                &eng,
                vec![1],
                vec![DPtr::new(0, bs)],
                vec![vec![(DPtr::new(0, 2 * bs), 0)]],
                vec![vec![(DPtr::new(0, 2 * bs), 0)]],
            );
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `row_of` / `row_of_app` against a hash-map model: random
        /// rows at random blocks, probed with hits, misses, other
        /// ranks' pointers, unaligned offsets and out-of-window offsets.
        #[test]
        fn row_lookups_agree_with_a_hash_map_model(
            blocks in prop::collection::vec(1u64..256, 0..40),
            probes in prop::collection::vec((0usize..3, 0u64..40_000, 0u64..500), 1..60),
        ) {
            let cfg = GdaConfig::tiny();
            let bs = cfg.block_size as u64;
            let mut blocks = blocks;
            blocks.sort_unstable();
            blocks.dedup();
            // app ids ascend with the row but are unrelated to the block
            let rows: Vec<(u64, DPtr)> = blocks
                .iter()
                .enumerate()
                .map(|(i, &b)| (3 * i as u64 + 1, DPtr::new(1, (b * 7 % 256).max(1) * bs)))
                .collect();
            let mut seen = std::collections::HashSet::new();
            let rows: Vec<(u64, DPtr)> = rows.into_iter().filter(|r| seen.insert(r.1)).collect();
            let mut asm = Assembler::new(&cfg, 1, rows.iter().copied());
            for _ in &rows {
                asm.end_row();
            }
            let view = asm.finish(3);
            let by_ptr: std::collections::HashMap<u64, usize> =
                rows.iter().enumerate().map(|(i, r)| (r.1.raw(), i)).collect();
            let by_app: std::collections::HashMap<u64, usize> =
                rows.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
            for (i, r) in rows.iter().enumerate() {
                prop_assert_eq!(view.row_of(r.1), Some(i));
                prop_assert_eq!(view.row_of_app(r.0), Some(i));
            }
            for (rank, off, app) in probes {
                let p = DPtr::new(rank, off);
                prop_assert_eq!(view.row_of(p), by_ptr.get(&p.raw()).copied());
                prop_assert_eq!(view.row_of_app(app), by_app.get(&app).copied());
            }
        }
    }

    #[test]
    fn olap_view_reuses_until_topology_changes() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-epoch", cfg, 2, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            build_graph(&eng, 12);
            let v1 = eng.olap_view();
            let v2 = eng.olap_view();
            assert!(
                Rc::ptr_eq(&v1, &v2),
                "unchanged epoch must reuse the mirror"
            );
            // a property write must NOT invalidate (topology unchanged)
            if ctx.rank() == 0 {
                eng.create_label("L").unwrap();
            }
            ctx.barrier();
            eng.refresh_meta();
            let lbl = eng.meta().label_from_name("L").unwrap();
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let v = tx.translate_vertex_id(AppVertexId(3)).unwrap();
                tx.add_label(v, lbl).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
            let v3 = eng.olap_view();
            assert!(
                Rc::ptr_eq(&v2, &v3),
                "vertex-label/property writes must not retire the view"
            );
            // an edge mutation MUST invalidate, and the rebuilt view
            // must carry the new edge — a stale read is impossible
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                let a = tx.translate_vertex_id(AppVertexId(2)).unwrap();
                let b = tx.translate_vertex_id(AppVertexId(7)).unwrap();
                tx.add_edge(a, b, Some(lbl), true).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
            let v4 = eng.olap_view();
            assert!(!Rc::ptr_eq(&v3, &v4), "edge mutation must invalidate");
            let apps: Vec<u64> = v4.apps.clone();
            let want = oracle_view(&eng, &apps);
            assert!(adjacency_eq(&v4, &want));
            // the new edge is labeled — visible through the scan labels
            if let Some(row) = v4.row_of_app(2) {
                assert!(v4.out_labels(row).contains(&lbl.0));
            }
        });
    }

    /// The stale-halo hazard at its smallest: a vertex with a *small*
    /// app id appears on rank 1, touching no one. Rank 0's epoch does
    /// not move and its rows stand; rank 1 rebuilds and every one of its
    /// rows shifts down by one under rank 0's ghosts. Rank 0 must take
    /// part in the resolution all the same — re-announce its ghosts —
    /// or rank 1's mirror list names nothing, or the old rows.
    #[test]
    fn a_reusing_rank_re_resolves_when_a_peer_rebuilt() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-stale-halo", cfg, 2, CostModel::default());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            build_graph_at(&eng, 10, 12);
            let check = |view: &CsrView| {
                let want = oracle_view(&eng, &view.apps.clone());
                assert!(view.logical_eq(&want));
                for r in 0..ctx.nranks() {
                    assert_eq!(view.mirror(r), want.mirror(r), "stale mirror({r})");
                }
            };
            let v1 = eng.olap_view();
            check(&v1);
            assert_eq!(crate::rankmap::vertex_owner(AppVertexId(1), 2), 1);
            if ctx.rank() == 0 {
                let tx = eng.begin(AccessMode::ReadWrite);
                tx.create_vertex(AppVertexId(1)).unwrap();
                tx.commit().unwrap();
            }
            ctx.barrier();
            let before = ctx.stats_snapshot();
            let v2 = eng.olap_view();
            let after = ctx.stats_snapshot();
            if ctx.rank() == 0 {
                assert_eq!(
                    after.scan_reuses,
                    before.scan_reuses + 1,
                    "rank 0's rows stand"
                );
                assert_eq!(after.scan_builds, before.scan_builds);
                assert_eq!(v1.mirror(1), v2.mirror(1));
            } else {
                assert_eq!(after.scan_builds, before.scan_builds + 1, "rank 1 rebuilds");
                let shifted: Vec<u32> = v1.mirror(0).iter().map(|row| row + 1).collect();
                assert_eq!(
                    v2.mirror(0),
                    shifted,
                    "rank 1's rows moved under rank 0's ghosts"
                );
            }
            check(&v2);
        });
    }

    #[test]
    fn bulk_load_bumps_topology_epoch() {
        let cfg = GdaConfig::tiny();
        let (db, fabric) = GdaDb::with_fabric("scan-bulk", cfg, 2, CostModel::zero());
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            build_graph(&eng, 8);
            let v1 = eng.olap_view();
            // a bulk load after the view must retire it
            let vs = if ctx.rank() == 0 {
                vec![
                    crate::bulk::VertexSpec::new(100),
                    crate::bulk::VertexSpec::new(101),
                ]
            } else {
                Vec::new()
            };
            let es = if ctx.rank() == 0 {
                vec![crate::bulk::EdgeSpec {
                    from: AppVertexId(100),
                    to: AppVertexId(101),
                    label: 0,
                    directed: true,
                }]
            } else {
                Vec::new()
            };
            eng.bulk_load(vs, es).unwrap();
            let v2 = eng.olap_view();
            assert!(!Rc::ptr_eq(&v1, &v2), "bulk load must invalidate views");
            let total: u64 = ctx.allreduce_sum_u64(v2.len() as u64);
            assert_eq!(total, 10, "bulk-loaded vertices missing from the view");
            let want = oracle_view(&eng, &v2.apps.clone());
            assert!(adjacency_eq(&v2, &want));
        });
    }
}
