//! Holder ⇄ block translation: the BGDL write-back/fetch paths.
//!
//! A serialized holder is stored as a chain of fixed-size blocks. Every
//! block starts with the 8-byte `DPtr` of the next block (NULL for the
//! last) and an 8-byte **version stamp**; the rest is payload. A holder
//! that fits one block therefore costs **one** remote operation to fetch —
//! the paper's headline property of BGDL ("one only needs a single remote
//! operation to fetch the data of a vertex that fits in one block").
//! Larger holders pay one operation per extra block.
//!
//! ### The stamp word and lock-free snapshot reads
//!
//! The stamp word carries the holder's `version` (the rank-unique commit
//! stamp) and makes each block a **seqlock**: [`overwrite_chain`]
//! republishes a live chain in three flushed phases (stamp := 0 →
//! payload → stamp := v), so a lock-free reader that copies a block and
//! then re-reads the stamp word observes equal non-zero stamps *iff* the
//! copy is untorn — payload bytes only ever change while the zero stamp
//! is visible. A validated read retries transient failures (a writer
//! finishes its finite three phases, so retries terminate) and never
//! blocks the writer; structural failures surface as the usual
//! stale-internal-id `NotFound`. Locked readers, collective read-only
//! transactions and the quiesced recovery replay read plain copies,
//! which ignore stamps.
//!
//! The *primary block* is the identity of the object: its `DPtr` is the
//! internal vertex/edge id, and it never changes across resizes — resizing
//! acquires/releases only continuation blocks (always on the primary's
//! rank, keeping a vertex's storage server-local as in the paper's layout).

use gdi::{GdiError, GdiResult};
use rma::RankCtx;
use rustc_hash::FxHashSet;

use crate::blocks::BlockManager;
use crate::config::{GdaConfig, WIN_DATA};
use crate::dptr::DPtr;
use crate::holder::{le_u64, Holder};

/// Byte offset of a block's payload (after the chain pointer and the
/// version-stamp word).
pub(crate) const BLOCK_PAYLOAD_OFFSET: usize = 16;
/// Byte offset of a block's version-stamp word.
pub(crate) const BLOCK_STAMP_OFFSET: usize = 8;

/// Payload bytes per block (block minus the chain pointer and stamp).
#[inline]
pub(crate) fn payload_per_block(cfg: &GdaConfig) -> usize {
    cfg.block_size - BLOCK_PAYLOAD_OFFSET
}

/// The version stamp a serialized holder's blocks are written with: the
/// holder's own `version` field, read off the encoded bytes (offset 24,
/// after total_len/num_edges/entries_bytes/flags/app_id).
#[inline]
pub(crate) fn stamp_of(bytes: &[u8]) -> u64 {
    // (0 for bytes too short to hold the word)
    le_u64(bytes, 24)
}

/// Number of blocks needed for a serialized holder of `total_len` bytes.
#[inline]
pub(crate) fn blocks_needed(cfg: &GdaConfig, total_len: usize) -> usize {
    total_len.div_ceil(payload_per_block(cfg)).max(1)
}

/// Write `bytes` (a serialized holder) into the block chain `blocks`,
/// resizing the chain as needed. `blocks[0]` (the primary block) must
/// already exist and is never replaced; continuation blocks are acquired on
/// and released to the primary's rank.
pub(crate) fn write_chain(
    ctx: &RankCtx,
    bm: &BlockManager,
    bytes: &[u8],
    blocks: &mut Vec<DPtr>,
) -> GdiResult<()> {
    debug_assert!(!blocks.is_empty(), "write_chain needs a primary block");
    let cfg_payload = bm.block_size() - BLOCK_PAYLOAD_OFFSET;
    let needed = bytes.len().div_ceil(cfg_payload).max(1);
    let target = blocks[0].rank();
    while blocks.len() < needed {
        blocks.push(bm.acquire(target)?);
    }
    // (surplus blocks go back last first)
    for surplus in blocks.drain(needed..).rev() {
        bm.release(surplus);
    }
    let stamp = stamp_of(bytes);
    // non-blocking puts: block writes of one holder overlap (§5.1)
    ctx.begin_nb_batch();
    let mut buf = vec![0u8; bm.block_size()];
    for (i, dp) in blocks.iter().enumerate() {
        let next = blocks.get(i + 1).copied().unwrap_or(DPtr::NULL);
        buf[..8].copy_from_slice(&next.raw().to_le_bytes());
        buf[8..16].copy_from_slice(&stamp.to_le_bytes());
        let start = i * cfg_payload;
        let end = ((i + 1) * cfg_payload).min(bytes.len());
        let chunk = &bytes[start..end];
        buf[16..16 + chunk.len()].copy_from_slice(chunk);
        for b in buf[16 + chunk.len()..].iter_mut() {
            *b = 0;
        }
        ctx.put_bytes(WIN_DATA, dp.rank(), dp.offset() as usize, &buf);
    }
    ctx.end_nb_batch();
    ctx.flush(target);
    Ok(())
}

/// [`write_chain`] for a chain that lock-free snapshot readers may be
/// traversing **right now** — the MVCC write-back path for objects that
/// already exist. Republishes in three flushed phases (the per-block
/// seqlock protocol):
///
/// 1. stamp := 0 on every *old* block (readers now retry);
/// 2. next pointers + payload, leaving the stamp word untouched;
/// 3. stamp := the new version on every block.
///
/// Payload bytes therefore only ever change while a flushed zero stamp
/// is visible, so a reader whose before/after stamp reads agree on a
/// non-zero value holds an untorn copy. The chain is resized *before*
/// phase 1: a resize failure (block exhaustion) must not strand zeroed
/// stamps, or readers would retry forever. It returns the blocks it
/// acquired and leaves `blocks` as it found them.
pub(crate) fn overwrite_chain(
    ctx: &RankCtx,
    bm: &BlockManager,
    bytes: &[u8],
    blocks: &mut Vec<DPtr>,
) -> GdiResult<()> {
    debug_assert!(!blocks.is_empty(), "overwrite_chain needs a primary block");
    let cfg_payload = bm.block_size() - BLOCK_PAYLOAD_OFFSET;
    let needed = bytes.len().div_ceil(cfg_payload).max(1);
    let target = blocks[0].rank();
    let old_blocks = blocks.clone();
    while blocks.len() < needed {
        match bm.acquire(target) {
            Ok(dp) => blocks.push(dp),
            Err(e) => {
                // nothing is written yet: the old chain stands, and the
                // blocks acquired for it so far go back to the pool
                for dp in blocks.drain(old_blocks.len()..).rev() {
                    bm.release(dp);
                }
                return Err(e);
            }
        }
    }
    // surplus blocks are zeroed in phase 1 (still owned) but handed
    // back only after phase 3 — releasing first would let another
    // writer acquire one and have its freshly published stamp clobbered
    // by our phase-1 put
    let surplus = if blocks.len() > needed {
        blocks.split_off(needed)
    } else {
        Vec::new()
    };
    // phase 1: invalidate every block a reader could already reach
    let zero = 0u64.to_le_bytes();
    ctx.begin_nb_batch();
    for dp in &old_blocks {
        ctx.put_bytes(
            WIN_DATA,
            dp.rank(),
            dp.offset() as usize + BLOCK_STAMP_OFFSET,
            &zero,
        );
    }
    ctx.end_nb_batch();
    ctx.flush(target);
    // phase 2: next pointers + payload (stamp words stay zero; fresh
    // continuation blocks are unreachable until the primary's next
    // pointer lands, which this same phase publishes before phase 3
    // re-arms the stamps)
    ctx.begin_nb_batch();
    let mut payload_buf = vec![0u8; cfg_payload];
    for (i, dp) in blocks.iter().enumerate() {
        let next = blocks.get(i + 1).copied().unwrap_or(DPtr::NULL);
        ctx.put_bytes(
            WIN_DATA,
            dp.rank(),
            dp.offset() as usize,
            &next.raw().to_le_bytes(),
        );
        let start = i * cfg_payload;
        let end = ((i + 1) * cfg_payload).min(bytes.len());
        let chunk = &bytes[start..end];
        payload_buf[..chunk.len()].copy_from_slice(chunk);
        for b in payload_buf[chunk.len()..].iter_mut() {
            *b = 0;
        }
        ctx.put_bytes(
            WIN_DATA,
            dp.rank(),
            dp.offset() as usize + BLOCK_PAYLOAD_OFFSET,
            &payload_buf,
        );
        // a freshly acquired block starts with whatever stamp its
        // previous occupant left — zero it so phase 3 is its first
        // valid publication
        if i >= old_blocks.len() {
            ctx.put_bytes(
                WIN_DATA,
                dp.rank(),
                dp.offset() as usize + BLOCK_STAMP_OFFSET,
                &zero,
            );
        }
    }
    ctx.end_nb_batch();
    ctx.flush(target);
    // phase 3: publish the new stamp
    let stamp = stamp_of(bytes).to_le_bytes();
    ctx.begin_nb_batch();
    for dp in blocks.iter() {
        ctx.put_bytes(
            WIN_DATA,
            dp.rank(),
            dp.offset() as usize + BLOCK_STAMP_OFFSET,
            &stamp,
        );
    }
    ctx.end_nb_batch();
    ctx.flush(target);
    for dp in surplus {
        bm.release(dp);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Reading a chain. Every structural rule lives in `Cursor`; the two
// drivers below (`walk`, `walk_levels`) only decide when blocks are
// fetched, and the `read_chain*` entry points only pick a `Source` and
// who owns the buffers.
// Who calls which: docs/ARCHITECTURE.md, "Reading a holder chain".
// ---------------------------------------------------------------------

pub(crate) const STALE: GdiError = GdiError::NotFound("object (stale internal id)");

/// The bounds a chain must stay inside: block geometry from the config,
/// window length and rank count from where the blocks are read.
struct Shape {
    block: usize,
    payload: usize,
    /// `payload × blocks_per_rank`: a holder cannot outgrow its rank's
    /// pool, so a longer `total_len` is garbage — and the cap on what a
    /// walk may reserve for bytes it has not seen yet.
    max_total: usize,
    win_len: usize,
    nranks: usize,
}

/// Where a walk's blocks come from.
pub(crate) enum Source<'a> {
    /// One blocking `get` per block: locked and quiesced readers and
    /// collective read-only transactions, which no writer can race.
    Live(&'a RankCtx<'a>),
    /// Lock-free: the block copy and a re-read of its stamp word.
    Validated(&'a RankCtx<'a>),
}

impl<'a> Source<'a> {
    fn ctx(&self) -> &'a RankCtx<'a> {
        let (Source::Live(ctx) | Source::Validated(ctx)) = self;
        ctx
    }

    fn shape(&self, cfg: &GdaConfig) -> Shape {
        let (payload, ctx) = (payload_per_block(cfg), self.ctx());
        Shape {
            block: cfg.block_size,
            payload,
            max_total: payload * cfg.blocks_per_rank,
            win_len: ctx.win_len_bytes(WIN_DATA),
            nranks: ctx.nranks(),
        }
    }

    /// Copy the block at `dp` (which [`Cursor::aim`] vouched for) into
    /// `buf`; a validating source returns the stamp word as re-read
    /// **after** the copy, the seqlock's second observation.
    fn fetch(&self, dp: DPtr, buf: &mut [u8]) -> u64 {
        let off = dp.offset() as usize;
        match self {
            Source::Live(ctx) => {
                ctx.get_bytes(WIN_DATA, dp.rank(), off, buf);
                0
            }
            Source::Validated(ctx) => {
                // The copy and the re-read ride one injection round
                // (§5.1 non-blocking overlap): same-target one-sided
                // reads complete in issue order, so the re-read still
                // observes the stamp *after* the copy — the validated
                // read costs one network latency, not two, which is
                // what keeps it cheaper than a lock/unlock round-trip
                // pair. (Data transfers execute immediately in shared
                // memory, so the order also holds inside an enclosing
                // per-level batch.)
                let mut again = [0u8; 8];
                ctx.begin_nb_batch();
                ctx.get_bytes(WIN_DATA, dp.rank(), off, buf);
                ctx.get_bytes(WIN_DATA, dp.rank(), off + BLOCK_STAMP_OFFSET, &mut again);
                ctx.end_nb_batch();
                u64::from_le_bytes(again)
            }
        }
    }
}

/// The cursor's answer after every block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Fetch the block [`Cursor::aim`] names next.
    More,
    /// The holder's bytes are complete.
    Done,
    /// Structurally implausible: the symptom of a *stale internal id*
    /// whose storage was reclaimed and reused while the caller still
    /// held the id (GDI's volatile ids, §3.4, make this a condition
    /// transactions must tolerate).
    Stale,
    /// Validated walks only: a writer is mid-publication (or the object
    /// moved on between two blocks). Transient — read again.
    Torn,
}

/// One chain walk's state and **every structural rule of a chain**:
/// where the next block may lie, how long the holder may be, how much
/// of each block is payload and — for a validated walk — the seqlock
/// checks of the module docs.
struct Cursor {
    /// The primary's rank; continuation blocks never leave it.
    rank: usize,
    next: DPtr,
    depth: usize,
    total: usize,
    /// The stamp the primary was published under (validated walks).
    stamp: u64,
    validate: bool,
}

impl Cursor {
    fn new(primary: DPtr, validate: bool) -> Self {
        debug_assert!(!primary.is_null());
        Cursor {
            rank: primary.rank(),
            next: primary,
            depth: 0,
            total: 0,
            stamp: 0,
            validate,
        }
    }

    /// The block to fetch next, if the link to it holds up: on the
    /// primary's rank, that rank exists, and the whole block lies inside
    /// the data window.
    fn aim(&self, shape: &Shape) -> Result<DPtr, Step> {
        let dp = self.next;
        if dp.is_null() {
            // the chain ends before `total` bytes. Behind a primary
            // whose copy validated that means the object moved on
            // between blocks — retry
            return Err(if self.validate {
                Step::Torn
            } else {
                Step::Stale
            });
        }
        // (a link that validated under the primary's stamp was written
        // by that publication, so a malformed one is never transient)
        if dp.rank() != self.rank
            || self.rank >= shape.nranks
            || dp.offset() as usize + shape.block > shape.win_len
        {
            return Err(Step::Stale);
        }
        Ok(dp)
    }

    /// Fetch the block the cursor aims at from `src` into `block`, report
    /// it to `visit` and take it: how the walk stands afterwards.
    #[inline]
    fn advance(
        &mut self,
        src: &Source<'_>,
        shape: &Shape,
        block: &mut [u8],
        out: &mut Vec<u8>,
        visit: impl FnOnce(DPtr),
    ) -> Step {
        match self.aim(shape) {
            Ok(dp) => {
                let reread = src.fetch(dp, block);
                visit(dp);
                self.take(shape, block, reread, out)
            }
            Err(end) => end,
        }
    }

    /// Account for `block`, the copy of the block [`Cursor::aim`] named
    /// (`reread` as returned by [`Source::fetch`]), appending its payload
    /// to `out`.
    fn take(&mut self, shape: &Shape, block: &[u8], reread: u64, out: &mut Vec<u8>) -> Step {
        let word = |at: usize| le_u64(block, at);
        if self.validate {
            // untorn iff both stamp observations agree on a non-zero
            // value; a continuation under another stamp than the
            // primary's is a concurrent resize
            let seen = word(BLOCK_STAMP_OFFSET);
            if seen == 0 || seen != reread || (self.depth > 0 && seen != self.stamp) {
                return Step::Torn;
            }
            self.stamp = seen;
        }
        if self.depth == 0 {
            let total = Holder::peek_total_len(&block[BLOCK_PAYLOAD_OFFSET..]);
            if total < crate::holder::HEADER_BYTES || total > shape.max_total {
                return Step::Stale;
            }
            self.total = total;
            // (a fresh allocation, not `reserve`: growing would copy the
            // stale bytes along, and on an empty vector it takes the
            // allocator's cold path — 10 of a one-block read's 85 ns)
            out.clear();
            if out.capacity() < total {
                *out = Vec::with_capacity(total);
            }
        }
        // (no separate depth cap: every block but the last adds a full
        // payload, so `total ≤ max_total` ends the walk within
        // `blocks_per_rank` blocks, cycles included)
        let take = shape.payload.min(self.total - out.len());
        out.extend_from_slice(&block[BLOCK_PAYLOAD_OFFSET..][..take]);
        self.next = DPtr::from_raw(word(0));
        self.depth += 1;
        debug_assert!(self.depth * shape.payload <= shape.max_total);
        if out.len() < self.total {
            return Step::More;
        }
        // the assembled bytes must be the publication the stamp names
        if self.validate && stamp_of(out) != self.stamp {
            return Step::Torn;
        }
        Step::Done
    }
}

/// Driver 1: walk one chain block by block, each fetch completing
/// before the next is aimed. Holder bytes land in `out`, every block
/// taken is reported to `visit`; returns how the walk ended (never
/// [`Step::More`]).
fn walk(
    src: &Source<'_>,
    cfg: &GdaConfig,
    primary: DPtr,
    block_buf: &mut [u8],
    out: &mut Vec<u8>,
    mut visit: impl FnMut(DPtr),
) -> Step {
    debug_assert_eq!(block_buf.len(), cfg.block_size);
    let shape = src.shape(cfg);
    let mut cur = Cursor::new(primary, matches!(src, Source::Validated(_)));
    let mut step = Step::More;
    while step == Step::More {
        step = cur.advance(src, &shape, block_buf, out, &mut visit);
    }
    step
}

/// A level walk's buffers, reused from walk to walk: one block and per chain its cursor,
/// how it ended and its bytes (chain `i` in `bytes[i]`; later entries are spare).
#[derive(Default)]
pub(crate) struct ChainBufs {
    block: Vec<u8>,
    walks: Vec<(Cursor, Step)>,
    pub(crate) bytes: Vec<Vec<u8>>,
}

/// Driver 2: walk many chains at once, **pipelining** the block reads: per chain
/// *depth level*, every outstanding block is prefetched ([`RankCtx::prefetch`], so on
/// Wall the level's cache misses overlap), then issued inside one non-blocking batch,
/// so the level costs a single network latency instead of one blocking round trip
/// per chain hop (§5.1's non-blocking overlap, applied across objects). Level 0
/// fetches all primary blocks, level `k` the `k`-th continuation block of every
/// chain still incomplete. The last chain left walks on alone, as [`walk`] does.
/// Leaves chain `i`'s cursor, how its walk ended and its bytes at index `i` of
/// `bufs` — a hostile chain ends only its own walk.
fn walk_levels(src: &Source<'_>, cfg: &GdaConfig, primaries: &[DPtr], bufs: &mut ChainBufs) {
    let (ctx, shape) = (src.ctx(), src.shape(cfg));
    let validate = matches!(src, Source::Validated(_));
    let fresh = |&p| (Cursor::new(p, validate), Step::More);
    let (block, walks, bytes) = (&mut bufs.block, &mut bufs.walks, &mut bufs.bytes);
    block.resize(cfg.block_size, 0);
    walks.clear();
    walks.extend(primaries.iter().map(fresh));
    bytes.resize_with(bytes.len().max(primaries.len()), Vec::new);
    let mut live = primaries.len();
    while live > 1 {
        for (cur, step) in walks.iter() {
            if let (Step::More, Ok(dp)) = (step, cur.aim(&shape)) {
                ctx.prefetch(WIN_DATA, dp.rank(), dp.offset() as usize, shape.block);
            }
        }
        ctx.begin_nb_batch();
        for ((cur, step), out) in walks.iter_mut().zip(bytes.iter_mut()) {
            if *step == Step::More {
                *step = cur.advance(src, &shape, block, out, |_| {});
                live -= usize::from(*step != Step::More);
            }
        }
        ctx.end_nb_batch();
    }
    // the last chain left has nothing to overlap with: it walks on alone
    if let Some(i) = walks.iter().position(|(_, step)| *step == Step::More) {
        let ((cur, step), out) = (&mut walks[i], &mut bytes[i]);
        while *step == Step::More {
            *step = cur.advance(src, &shape, block, out, |_| {});
        }
    }
}

/// Fetch the full serialized holder starting at `primary` with blocking
/// gets, ignoring stamps: the reader of everyone no writer can race
/// (lock holders, maintenance, the quiesced recovery replay). Returns
/// the holder bytes and the chain's block addresses, or — on any
/// structural implausibility — the stale-internal-id
/// `GDI_ERROR_NOT_FOUND` that transactions must tolerate (§3.4).
pub(crate) fn read_chain(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primary: DPtr,
) -> GdiResult<(Vec<u8>, Vec<DPtr>)> {
    let (mut block_buf, mut bytes, mut blocks) =
        (vec![0u8; cfg.block_size], Vec::new(), Vec::new());
    let src = Source::Live(ctx);
    let visit = |dp| blocks.push(dp);
    match walk(&src, cfg, primary, &mut block_buf, &mut bytes, visit) {
        Step::Done => Ok((bytes, blocks)),
        _ => Err(STALE),
    }
}

/// Retries before a lock-free validated read reports the chain as
/// structurally unreadable. Transient seqlock failures resolve as soon
/// as the writer's three flushed phases finish, so this bound is only
/// ever reached if a writer died mid-overwrite (a process-fatal
/// condition everywhere else too).
const VALIDATE_RETRIES: usize = 100_000;

/// Copy the chain at `primary` out of `src` into caller-owned, reused
/// buffers — `block_buf` (one block) and `out`, which receives the
/// holder bytes — with no per-chain allocation and no block list. The
/// one buffered entry point: the `scan` sweep and every read of a
/// read-only transaction (`crate::tx`) go through it. A validated
/// source retries a torn copy until one is untorn (see the module docs
/// for the seqlock argument), so the bytes are exactly one atomic
/// publication; it never blocks the writer and never reports a
/// *conflict*. Structural implausibility is the ordinary
/// stale-internal-id `NotFound`.
pub(crate) fn read_chain_into(
    src: &Source<'_>,
    cfg: &GdaConfig,
    primary: DPtr,
    block_buf: &mut [u8],
    out: &mut Vec<u8>,
) -> GdiResult<()> {
    for attempt in 0..VALIDATE_RETRIES {
        if attempt > 0 {
            // a torn read means a writer is mid-publication; on an
            // oversubscribed host it may be descheduled — yield so it
            // can finish instead of charge-spinning validated copies
            std::thread::yield_now();
        }
        // (only a validated walk ever tears)
        match walk(src, cfg, primary, block_buf, out, |_| {}) {
            Step::Done => return Ok(()),
            Step::Stale => return Err(STALE),
            _ => {}
        }
    }
    Err(GdiError::NotFound(
        "object (snapshot validation did not converge)",
    ))
}

/// Many chains from `src` into reused buffers ([`ChainBufs`]): one level-pipelined
/// pass. A validated pass retries a chain torn by a concurrent overwrite — rare — on
/// its own ([`read_chain_into`]), the single walk a lone chain takes from the start.
/// `each` sees every chain in input order: its index and its bytes, or why it did
/// not read.
pub(crate) fn read_chains_into(
    src: &Source<'_>,
    cfg: &GdaConfig,
    primaries: &[DPtr],
    bufs: &mut ChainBufs,
    mut each: impl FnMut(usize, GdiResult<&mut Vec<u8>>),
) {
    if let [primary] = *primaries {
        bufs.block.resize(cfg.block_size, 0);
        if bufs.bytes.is_empty() {
            bufs.bytes.push(Vec::new());
        }
        let out = &mut bufs.bytes[0];
        let read = read_chain_into(src, cfg, primary, &mut bufs.block, out);
        return each(0, read.map(|()| out));
    }
    walk_levels(src, cfg, primaries, bufs);
    let (block, walks, bytes) = (&mut bufs.block, &mut bufs.walks, &mut bufs.bytes);
    for (i, ((&p, (_, step)), out)) in primaries.iter().zip(walks).zip(bytes).enumerate() {
        let read = match step {
            Step::Done => Ok(()),
            Step::Stale => Err(STALE),
            // (only a validated walk tears)
            _ => read_chain_into(src, cfg, p, block, out),
        };
        each(i, read.map(|()| out));
    }
}

/// Release every block of a chain (object deletion).
pub(crate) fn free_chain(bm: &BlockManager, blocks: &[DPtr]) {
    for dp in blocks {
        bm.release(*dp);
    }
}

/// One chain of the live set, as [`walk_live`] hands it over.
pub(crate) struct LiveChain<'a> {
    /// The primary block: the object's internal id.
    pub(crate) primary: DPtr,
    /// Application vertex id (an edge holder's own field).
    pub(crate) app_id: u64,
    /// A heavyweight edge's holder rather than a vertex's?
    pub(crate) is_edge: bool,
    /// The serialized holder.
    pub(crate) bytes: &'a [u8],
    /// Its blocks, in chain order.
    pub(crate) blocks: &'a [DPtr],
}

/// **The live set**: every holder chain a recovery lifts — so exactly
/// the chains a full checkpoint writes as records and the image and
/// pool audits count. Collective, quiesced: hands `visit` every chain
/// of the live set this rank stores, each once.
///
/// The vertex chains are the DHT's entries ([`dht::owned_entries`]
/// routes each to its primary's rank); the rest are the heavyweight
/// edge holders a live edge record of one of them names. An edge holder
/// stored on another rank than the vertex naming it takes a second
/// exchange, which every rank joins whatever its own walk found.
/// Nothing follows `prev`: archives are never part of the live set.
///
/// Fails on a chain that does not read, on a vertex that is not the
/// object its DHT entry names, and on an edge record that points at a
/// vertex holder — on this rank alone, so callers vote on the outcome.
///
/// [`dht::owned_entries`]: crate::dht::owned_entries
pub(crate) fn walk_live(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    mut visit: impl FnMut(&LiveChain<'_>),
) -> GdiResult<()> {
    // both mirrors of a heavyweight edge name the same holder, and the
    // two may be walked on different ranks
    let mut seen = FxHashSet::default();
    let vertices = crate::dht::owned_entries(ctx, cfg);
    let first = walk_chains(ctx, cfg, &mut seen, vertices, Vec::new(), &mut visit);
    let mut rows = vec![Vec::new(); ctx.nranks()];
    for dp in first.as_deref().unwrap_or_default() {
        rows[dp.rank()].push(dp.raw());
    }
    let routed = ctx.alltoallv(rows).into_iter().flatten();
    let routed = routed.map(DPtr::from_raw).collect();
    let second = walk_chains(ctx, cfg, &mut seen, Vec::new(), routed, &mut visit);
    match first.and(second) {
        Ok(rest) => {
            debug_assert!(rest.is_empty(), "routed holders are all local");
            Ok(())
        }
        Err(e) => Err(GdiError::Io(format!("live set: {e}"))),
    }
}

/// One step of [`walk_live`] on this rank: the vertex chains `vertices`
/// names (DHT entries: app id and primary, all stored here), then every
/// edge-holder chain in `holders` or named by a live edge record of one
/// of those vertices and not yet `seen`. Returns the named edge holders
/// stored on other ranks, unwalked.
fn walk_chains(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    seen: &mut FxHashSet<u64>,
    vertices: Vec<(u64, u64)>,
    mut holders: Vec<DPtr>,
    visit: &mut impl FnMut(&LiveChain<'_>),
) -> Result<Vec<DPtr>, &'static str> {
    let src = Source::Live(ctx);
    let mut block_buf = vec![0u8; cfg.block_size];
    let (mut bytes, mut blocks) = (Vec::new(), Vec::new());
    let mut lift = |primary: DPtr, bytes: &mut Vec<u8>, blocks: &mut Vec<DPtr>| {
        blocks.clear();
        let visit = |dp| blocks.push(dp);
        walk(&src, cfg, primary, &mut block_buf, bytes, visit) == Step::Done
    };
    for (app, raw) in vertices {
        let primary = DPtr::from_raw(raw);
        debug_assert_eq!(primary.rank(), ctx.rank(), "vertices are routed here");
        if !lift(primary, &mut bytes, &mut blocks) {
            return Err("unreadable vertex chain");
        }
        let scan = Holder::scan_edges(&bytes).ok_or("undecodable vertex holder")?;
        if scan.app_id != app || scan.is_edge {
            return Err("DHT entry does not match its holder");
        }
        holders.extend(
            scan.live()
                .map(|(_, r)| r.edge_holder)
                .filter(|h| !h.is_null()),
        );
        visit(&LiveChain {
            primary,
            app_id: app,
            is_edge: false,
            bytes: &bytes,
            blocks: &blocks,
        });
    }
    let mut foreign = Vec::new();
    for primary in holders {
        if primary.rank() != ctx.rank() {
            foreign.push(primary);
            continue;
        }
        if !seen.insert(primary.raw()) {
            continue;
        }
        if !lift(primary, &mut bytes, &mut blocks) {
            return Err("unreadable edge-holder chain");
        }
        let scan = Holder::scan_edges(&bytes).ok_or("undecodable edge holder")?;
        if !scan.is_edge {
            return Err("edge record points at a non-edge holder");
        }
        visit(&LiveChain {
            primary,
            app_id: scan.app_id,
            is_edge: true,
            bytes: &bytes,
            blocks: &blocks,
        });
    }
    Ok(foreign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holder::EdgeRecord;
    use gdi::{Direction, LabelId, PTypeId};
    use rma::CostModel;

    fn with_pool(f: impl Fn(&RankCtx, &BlockManager, &GdaConfig) + Sync) {
        let cfg = GdaConfig::tiny();
        let fabric = cfg.build_fabric(1, CostModel::zero());
        fabric.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            f(ctx, &bm, &cfg);
        });
    }

    fn big_holder(edges: usize, props: usize) -> Holder {
        let mut h = Holder::new_vertex(7);
        h.add_label(LabelId(3));
        for i in 0..edges {
            h.push_edge(EdgeRecord::lightweight(
                DPtr::new(0, 128 * (i as u64 + 1)),
                4,
                Direction::Out,
            ));
        }
        for i in 0..props {
            h.add_property(PTypeId(3 + i as u32), &[i as u8; 13]);
        }
        h
    }

    #[test]
    fn single_block_roundtrip() {
        with_pool(|ctx, bm, cfg| {
            let h = big_holder(1, 1);
            assert_eq!(blocks_needed(cfg, h.bytes().len()), 1);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, h.bytes(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            let (bytes, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(found, blocks);
            assert_eq!(bytes, h.bytes());
        });
    }

    #[test]
    fn multi_block_roundtrip() {
        with_pool(|ctx, bm, cfg| {
            let h = big_holder(40, 10); // well beyond one 128 B block
            let need = blocks_needed(cfg, h.bytes().len());
            assert!(need > 3);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, h.bytes(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), need);
            let (bytes, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(found.len(), need);
            assert_eq!(bytes, h.bytes());
        });
    }

    #[test]
    fn grow_then_shrink_keeps_primary_and_frees_surplus() {
        with_pool(|ctx, bm, cfg| {
            let free0 = bm.count_free(0);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];

            let big = big_holder(60, 5);
            write_chain(ctx, bm, big.bytes(), &mut blocks).unwrap();
            let grown = blocks.len();
            assert!(grown > 1);
            assert_eq!(bm.count_free(0), free0 - grown);

            let small = big_holder(0, 0);
            write_chain(ctx, bm, small.bytes(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0], primary, "primary identity must be stable");
            assert_eq!(bm.count_free(0), free0 - 1);

            let (bytes, _) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(bytes, small.bytes());

            free_chain(bm, &blocks);
            assert_eq!(bm.count_free(0), free0);
        });
    }

    #[test]
    fn exact_boundary_sizes() {
        with_pool(|ctx, bm, cfg| {
            let payload = payload_per_block(cfg);
            // craft holders whose encodings straddle block boundaries
            for extra in [0usize, 1, 7, 8] {
                let mut h = Holder::new_vertex(1);
                // entries grow in 8-byte steps; find a property payload that
                // makes the encoding land near k * payload
                let base = h.bytes().len();
                let want = payload * 2 + extra * 8;
                if want > base + 8 {
                    h.add_property(PTypeId(3), &vec![0xCD; want - base - 8]);
                }
                let primary = bm.acquire(0).unwrap();
                let mut blocks = vec![primary];
                write_chain(ctx, bm, h.bytes(), &mut blocks).unwrap();
                let (bytes, _) = read_chain(ctx, cfg, primary).unwrap();
                assert_eq!(bytes, h.bytes(), "extra={extra}");
                free_chain(bm, &blocks);
            }
        });
    }

    /// One chain through [`walk`] over the live window, the blocks it
    /// visits included: the walk [`walk_live`] runs per chain.
    fn read_chain_bytes(
        ctx: &RankCtx,
        cfg: &GdaConfig,
        primary: DPtr,
    ) -> Option<(Vec<u8>, Vec<DPtr>)> {
        let (mut block_buf, mut bytes, mut blocks) =
            (vec![0u8; cfg.block_size], Vec::new(), Vec::new());
        let visit = |dp| blocks.push(dp);
        let step = walk(
            &Source::Live(ctx),
            cfg,
            primary,
            &mut block_buf,
            &mut bytes,
            visit,
        );
        (step == Step::Done).then_some((bytes, blocks))
    }

    /// The live-set walk's chain reader must reproduce exactly what the
    /// live fetch path reads — it is what a full checkpoint writes.
    #[test]
    fn offline_chain_read_matches_live_read() {
        with_pool(|ctx, bm, cfg| {
            // (published versions: a validated read refuses stamp 0)
            let (mut small, mut large) = (big_holder(1, 1), big_holder(40, 10));
            small.set_version(1);
            large.set_version(2);
            let mut primaries = Vec::new();
            for h in [&small, &large] {
                let primary = bm.acquire(0).unwrap();
                let mut blocks = vec![primary];
                write_chain(ctx, bm, h.bytes(), &mut blocks).unwrap();
                primaries.push(primary);
            }
            let (mut block, mut reused) = (vec![0u8; cfg.block_size], Vec::new());
            let sources = [Source::Live(ctx), Source::Validated(ctx)];
            let mut buffered = |src: &Source<'_>, primary| {
                read_chain_into(src, cfg, primary, &mut block, &mut reused).map(|()| reused.clone())
            };
            for (h, primary) in [&small, &large].into_iter().zip(&primaries) {
                let (live_bytes, live_blocks) = read_chain(ctx, cfg, *primary).unwrap();
                let (img_bytes, img_blocks) =
                    read_chain_bytes(ctx, cfg, *primary).expect("live-set read");
                assert_eq!(img_bytes, live_bytes);
                assert_eq!(img_blocks, live_blocks);
                assert_eq!(img_bytes, h.bytes());
                // the buffered reader: same bytes, block by block from
                // the window, into buffers that are reused
                for src in &sources {
                    assert_eq!(buffered(src, *primary), Ok(live_bytes.clone()));
                }
            }
            // a never-written block decodes to None, not garbage
            let free = bm.acquire(0).unwrap();
            assert!(read_chain_bytes(ctx, cfg, free).is_none());
            // neither does a pointer past the window's end
            let beyond = DPtr::new(0, ctx.win_len_bytes(WIN_DATA) as u64);
            assert!(read_chain_bytes(ctx, cfg, beyond).is_none());
            for src in &sources {
                // (the validated copy of a never-published block tears
                // until it gives up: a `NotFound` of its own)
                assert!(matches!(buffered(src, free), Err(GdiError::NotFound(_))));
                assert_eq!(buffered(src, beyond), Err(STALE));
            }
        });
    }

    /// [`read_chains_into`] from `src` into fresh buffers: each chain's
    /// bytes, in input order.
    fn read_group(
        src: &Source<'_>,
        cfg: &GdaConfig,
        primaries: &[DPtr],
    ) -> Vec<GdiResult<Vec<u8>>> {
        let mut out = Vec::new();
        let mut bufs = ChainBufs::default();
        read_chains_into(src, cfg, primaries, &mut bufs, |_, read| {
            out.push(read.map(|bytes| bytes.clone()))
        });
        out
    }

    /// A lock-free snapshot fetch of one chain — [`read_chains_into`]'s
    /// one-primary case from the validated source — with the stamp its
    /// bytes were published under.
    fn read_snapshot(ctx: &RankCtx, cfg: &GdaConfig, primary: DPtr) -> GdiResult<(Vec<u8>, u64)> {
        let read = read_group(&Source::Validated(ctx), cfg, &[primary]).remove(0);
        read.map(|bytes| {
            let stamp = stamp_of(&bytes);
            (bytes, stamp)
        })
    }

    /// The pipelined multi-chain fetch, plain and validated, must return
    /// byte-identical results to per-chain [`read_chain`] calls, isolate
    /// a stale slot to its own result, and — being level-batched — pay
    /// fewer network latencies than the blocking loop.
    #[test]
    fn read_chains_matches_sequential_and_pipelines() {
        let cfg = GdaConfig::tiny();
        let fabric = cfg.build_fabric(2, CostModel::default());
        fabric.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            if ctx.rank() == 0 {
                // a mix of single- and multi-block holders on rank 1
                // (published versions: a validated read refuses stamp 0)
                let mut holders: Vec<Holder> =
                    vec![big_holder(1, 0), big_holder(25, 3), big_holder(8, 1)];
                let mut primaries = Vec::new();
                for (version, h) in (1..).zip(&mut holders) {
                    h.set_version(version);
                    let primary = bm.acquire(1).unwrap();
                    let mut blocks = vec![primary];
                    write_chain(ctx, &bm, h.bytes(), &mut blocks).unwrap();
                    primaries.push(primary);
                }
                let free = bm.acquire(1).unwrap();
                let (mut block, mut out) = (vec![0u8; cfg.block_size], Vec::new());
                for src in [Source::Live(ctx), Source::Validated(ctx)] {
                    let t0 = ctx.now_ns();
                    let mut sequential = Vec::new();
                    for &p in &primaries {
                        read_chain_into(&src, &cfg, p, &mut block, &mut out).unwrap();
                        sequential.push(out.clone());
                    }
                    let t_seq = ctx.now_ns() - t0;
                    for (bytes, &p) in sequential.iter().zip(&primaries) {
                        assert_eq!(*bytes, read_chain(ctx, &cfg, p).unwrap().0);
                    }
                    let t1 = ctx.now_ns();
                    let batched = read_group(&src, &cfg, &primaries);
                    let t_bat = ctx.now_ns() - t1;
                    for (got, want) in batched.iter().zip(&sequential) {
                        assert_eq!(got.as_ref().expect("chain fetch"), want);
                    }
                    // a LogGP-model relation: at wall scale both loops are
                    // nanoseconds of shared-memory reads and the ordering
                    // is scheduler noise
                    if ctx.backend() == rma::BackendKind::Sim {
                        assert!(
                            t_bat < t_seq,
                            "pipelined fetch {t_bat} !< sequential {t_seq}"
                        );
                    }
                    // a never-written block fails alone, not the whole batch
                    let mixed = read_group(&src, &cfg, &[primaries[0], free, primaries[2]]);
                    assert!(mixed[0].is_ok());
                    assert!(mixed[1].is_err());
                    assert!(mixed[2].is_ok());
                }
            }
            ctx.barrier();
        });
    }

    /// The validated lock-free fetch must agree with the plain fetch on
    /// quiescent chains, across the three-phase republish, including
    /// grow and shrink resizes.
    #[test]
    fn validated_read_tracks_seqlock_overwrites() {
        with_pool(|ctx, bm, cfg| {
            let mut h = big_holder(25, 3);
            h.set_version(7);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, h.bytes(), &mut blocks).unwrap();
            let (bytes, stamp) = read_snapshot(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 7);
            assert_eq!(bytes, h.bytes());

            // grow through the seqlock republish
            let mut h2 = big_holder(60, 5);
            h2.set_version(8);
            overwrite_chain(ctx, bm, h2.bytes(), &mut blocks).unwrap();
            assert!(blocks.len() > 1);
            let (bytes, stamp) = read_snapshot(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 8);
            assert_eq!(bytes, h2.bytes());
            let (plain, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(plain, bytes);
            assert_eq!(&found, &blocks);

            // shrink: surplus returns to the pool only after publication
            let free_before = bm.count_free(0);
            let mut h3 = big_holder(0, 0);
            h3.set_version(9);
            overwrite_chain(ctx, bm, h3.bytes(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0], primary, "primary identity must be stable");
            assert!(bm.count_free(0) > free_before);
            let (bytes, stamp) = read_snapshot(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 9);
            assert_eq!(bytes, h3.bytes());
        });
    }

    #[test]
    fn cross_rank_chain() {
        let cfg = GdaConfig::tiny();
        let fabric = cfg.build_fabric(2, CostModel::zero());
        fabric.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            if ctx.rank() == 0 {
                // rank 0 creates a multi-block holder on rank 1
                let h = big_holder(30, 4);
                let primary = bm.acquire(1).unwrap();
                let mut blocks = vec![primary];
                write_chain(ctx, &bm, h.bytes(), &mut blocks).unwrap();
                assert!(blocks.iter().all(|b| b.rank() == 1));
                let (bytes, _) = read_chain(ctx, &cfg, primary).unwrap();
                assert_eq!(bytes, h.bytes());
            }
            ctx.barrier();
        });
    }
    // -----------------------------------------------------------------
    // Hostile chains: whatever a block holds, every reader answers with
    // a typed error / `None` or with bytes — never a panic.
    // -----------------------------------------------------------------

    /// Two ranks; rank 0 lays down three chains in its own window — a
    /// one-block holder, the five-block `victim`, another one-block
    /// holder — and hands them to `f`.
    fn with_victim(f: impl Fn(&RankCtx, &GdaConfig, [DPtr; 3], &[DPtr]) + Sync) {
        let cfg = GdaConfig::tiny();
        let fabric = cfg.build_fabric(2, CostModel::zero());
        fabric.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            if ctx.rank() == 0 {
                let mut chains = Vec::new();
                for (version, edges) in [(11, 1), (12, 20), (13, 2)] {
                    let mut h = big_holder(edges, 0);
                    h.set_version(version);
                    let mut blocks = vec![bm.acquire(0).unwrap()];
                    write_chain(ctx, &bm, h.bytes(), &mut blocks).unwrap();
                    chains.push(blocks);
                }
                assert_eq!(chains[1].len(), 5);
                let primaries = [chains[0][0], chains[1][0], chains[2][0]];
                f(ctx, &cfg, primaries, &chains[1]);
            }
            ctx.barrier();
        });
    }

    /// What every entry point makes of `primaries[1]` (the two group
    /// reads see it between its intact neighbours, which must read fine
    /// whatever the middle slot holds), as holder bytes or `None`; typed
    /// errors are checked on the way. Order: the readers that consult no
    /// stamp — `read_chain`, `read_chains_into` over the three chains,
    /// `read_chain_into` from the live window, `read_chain_bytes` (the
    /// live-set walk) — then the validated ones: `read_chain_into`,
    /// `read_chains_into` of the one chain (`read_snapshot`) and over the
    /// three.
    fn all_readers(ctx: &RankCtx, cfg: &GdaConfig, primaries: [DPtr; 3]) -> [Option<Vec<u8>>; 7] {
        fn bytes<T>(r: GdiResult<(Vec<u8>, T)>) -> Option<Vec<u8>> {
            match r {
                Ok((bytes, _)) => Some(bytes),
                Err(GdiError::NotFound(_)) => None,
                Err(e) => panic!("untyped chain failure: {e:?}"),
            }
        }
        let group = |src: Source<'_>| {
            let mut reads = read_group(&src, cfg, &primaries);
            for neighbour in [0, 2] {
                assert!(
                    reads[neighbour].is_ok(),
                    "a hostile chain poisons only its slot"
                );
            }
            bytes(reads.swap_remove(1).map(|b| (b, ())))
        };
        let buffered = |src: Source<'_>| {
            let (mut block, mut out) = (vec![0u8; cfg.block_size], Vec::new());
            bytes(
                read_chain_into(&src, cfg, primaries[1], &mut block, &mut out).map(|()| (out, ())),
            )
        };
        [
            bytes(read_chain(ctx, cfg, primaries[1])),
            group(Source::Live(ctx)),
            buffered(Source::Live(ctx)),
            read_chain_bytes(ctx, cfg, primaries[1]).map(|(bytes, _)| bytes),
            buffered(Source::Validated(ctx)),
            bytes(read_snapshot(ctx, cfg, primaries[1])),
            group(Source::Validated(ctx)),
        ]
    }

    /// A continuation link — or a primary handed to a lock-free read —
    /// that leaves the primary's rank, names a rank that does not exist,
    /// or reaches past the data window is a stale internal id to every
    /// live reader (the parent commit died in `Window::span` and in the
    /// fabric's window table instead).
    #[test]
    fn links_off_rank_or_off_window_are_stale_ids() {
        with_victim(|ctx, cfg, primaries, victim| {
            let win = ctx.win_len_bytes(WIN_DATA) as u64;
            let hostile = [
                DPtr::new(7, victim[2].offset()),              // no such rank
                DPtr::new(1, victim[2].offset()),              // not the primary's rank
                DPtr::new(0, win - cfg.block_size as u64 + 8), // straddles the window's end
                DPtr::new(0, (1 << 40) + 64),                  // far outside
            ];
            for bad in hostile {
                // as the victim's second link …
                let link_at = victim[1].offset() as usize;
                ctx.put_bytes(WIN_DATA, 0, link_at, &bad.raw().to_le_bytes());
                assert_eq!(all_readers(ctx, cfg, primaries), [const { None }; 7]);
                assert_eq!(read_chain(ctx, cfg, primaries[1]).err(), Some(STALE));
                assert_eq!(read_snapshot(ctx, cfg, primaries[1]).err(), Some(STALE));
                ctx.put_bytes(WIN_DATA, 0, link_at, &victim[2].raw().to_le_bytes());
                // … and as a fabricated primary (but for the one that is
                // somebody's address: a never-written block on rank 1)
                if bad.rank() == 1 {
                    continue;
                }
                assert_eq!(read_chain(ctx, cfg, bad).err(), Some(STALE));
                assert_eq!(read_snapshot(ctx, cfg, bad).err(), Some(STALE));
                for src in [Source::Live(ctx), Source::Validated(ctx)] {
                    assert_eq!(read_group(&src, cfg, &[bad]).remove(0).err(), Some(STALE));
                    // (in a group, through the level walk)
                    let group = read_group(&src, cfg, &[bad, primaries[0]]);
                    assert_eq!(group[0], Err(STALE));
                    assert!(group[1].is_ok());
                }
            }
            let (bytes, blocks) = read_chain(ctx, cfg, primaries[1]).expect("link restored");
            assert_eq!((stamp_of(&bytes), &blocks[..]), (12, victim));
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// One hostile word anywhere in the victim's chain — a link that
        /// cycles, crosses ranks, leaves the window or is unaligned, a
        /// NULL before the end, a `total_len` below the header, above
        /// the pool or beyond the chain, a zeroed or foreign stamp —
        /// through the cursor and through every entry point: bytes of
        /// the announced length or a typed refusal, at most
        /// `blocks_per_rank` blocks visited, at most `payload ×
        /// blocks_per_rank` bytes reserved.
        #[test]
        fn hostile_chain_words_never_panic_any_reader(
            slot in 0usize..11,
            kind in 0usize..9,
            raw in proptest::prelude::any::<u64>(),
        ) {
            with_victim(|ctx, cfg, primaries, victim| {
                let max_total = payload_per_block(cfg) * cfg.blocks_per_rank;
                let good = read_chain(ctx, cfg, primaries[1]).unwrap().0;
                let (win, len) = (ctx.win_len_bytes(WIN_DATA) as u64, good.len());
                let hostile: u64 = match kind {
                    0 => 0, // NULL / zero stamp / zero length
                    1 => victim[raw as usize % 5].raw(), // a cycle (or a skip)
                    2 => DPtr::new(raw as usize % 9, victim[2].offset()).raw(), // other ranks
                    3 => DPtr::new(0, win - raw % 128).raw(), // around the window's end
                    4 => victim[3].raw() + 1 + raw % 127, // unaligned
                    5 => raw % 48, // below the header
                    6 => max_total as u64 + 1 + raw % 1000, // above the pool
                    7 => (len + 1) as u64 + raw % (max_total - len) as u64, // beyond the chain
                    _ => raw,
                };
                // the word: a block's link (slots 0–4), a block's stamp
                // (5–9), or the length the primary announces (10)
                let (block, field, width) = match slot {
                    0..=4 => (slot, 0, 8),
                    5..=9 => (slot - 5, BLOCK_STAMP_OFFSET, 8),
                    _ => (0, BLOCK_PAYLOAD_OFFSET, 4),
                };
                let at = victim[block].offset() as usize + field;
                let word = if width == 4 { hostile & u64::from(u32::MAX) } else { hostile };
                ctx.put_bytes(WIN_DATA, 0, at, &word.to_le_bytes()[..width]);

                // the cursor itself, with what it visits and reserves
                let (mut buf, mut out) = (vec![0u8; cfg.block_size], Vec::new());
                let (src, mut visited) = (Source::Live(ctx), 0);
                let step = walk(&src, cfg, primaries[1], &mut buf, &mut out, |_| visited += 1);
                assert!(visited <= cfg.blocks_per_rank, "{visited} blocks visited");
                assert!(out.capacity() <= max_total, "{} bytes reserved", out.capacity());
                let mut head = [0u8; 4];
                ctx.get_bytes(WIN_DATA, 0, primaries[1].offset() as usize + 16, &mut head);
                let announced = Holder::peek_total_len(&head);
                let walked = (step == Step::Done).then_some(out);
                if let Some(bytes) = &walked {
                    assert_eq!(bytes.len(), announced);
                }

                // the plain readers consult no stamp and agree with the
                // cursor's walk word for word; a validated read returns
                // only what they find, and never a chain whose stamps
                // disagree
                let [plain @ .., buffered, one, batched] = all_readers(ctx, cfg, primaries);
                assert!(plain.iter().all(|p| *p == walked), "{plain:?} != {walked:?}");
                assert!(one.is_none() || one == walked);
                assert_eq!(one, batched);
                assert_eq!(one, buffered);
                if field == BLOCK_STAMP_OFFSET {
                    assert_eq!(walked, Some(good));
                    assert_eq!(one.is_some(), word == 12, "stamp {word} on block {block}");
                }
            });
        }
    }
}
