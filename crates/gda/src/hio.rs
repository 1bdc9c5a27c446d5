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
//! is visible. [`read_chain_validated`] retries transient failures
//! (a writer finishes its finite three phases, so retries terminate)
//! and never blocks the writer; structural failures surface as the
//! usual stale-internal-id `NotFound`. Locked readers and the quiesced
//! recovery replay use the plain [`read_chain`], which ignores stamps.
//!
//! The *primary block* is the identity of the object: its `DPtr` is the
//! internal vertex/edge id, and it never changes across resizes — resizing
//! acquires/releases only continuation blocks (always on the primary's
//! rank, keeping a vertex's storage server-local as in the paper's layout).

use gdi::{GdiError, GdiResult};
use rma::RankCtx;

use crate::blocks::BlockManager;
use crate::config::{GdaConfig, WIN_DATA};
use crate::dptr::DPtr;
use crate::holder::Holder;

/// Byte offset of a block's payload (after the chain pointer and the
/// version-stamp word).
pub const BLOCK_PAYLOAD_OFFSET: usize = 16;
/// Byte offset of a block's version-stamp word.
pub const BLOCK_STAMP_OFFSET: usize = 8;

/// Payload bytes per block (block minus the chain pointer and stamp).
#[inline]
pub fn payload_per_block(cfg: &GdaConfig) -> usize {
    cfg.block_size - BLOCK_PAYLOAD_OFFSET
}

/// The version stamp a serialized holder's blocks are written with: the
/// holder's own `version` field, read off the encoded bytes (offset 24,
/// after total_len/num_edges/entries_bytes/flags/app_id).
#[inline]
fn stamp_of(bytes: &[u8]) -> u64 {
    if bytes.len() >= 32 {
        u64::from_le_bytes(bytes[24..32].try_into().unwrap())
    } else {
        0
    }
}

/// Number of blocks needed for a serialized holder of `total_len` bytes.
#[inline]
pub fn blocks_needed(cfg: &GdaConfig, total_len: usize) -> usize {
    total_len.div_ceil(payload_per_block(cfg)).max(1)
}

/// Write `bytes` (a serialized holder) into the block chain `blocks`,
/// resizing the chain as needed. `blocks[0]` (the primary block) must
/// already exist and is never replaced; continuation blocks are acquired on
/// and released to the primary's rank.
pub fn write_chain(
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
    while blocks.len() > needed {
        let surplus = blocks.pop().unwrap();
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
/// stamps, or readers would retry forever.
pub fn overwrite_chain(
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
        blocks.push(bm.acquire(target)?);
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

/// Fetch the full serialized holder starting at `primary`, following the
/// chain. Returns the holder bytes and the chain's block addresses.
///
/// Fails with `GDI_ERROR_NOT_FOUND` when the bytes are structurally
/// implausible — the symptom of a *stale internal id* whose storage was
/// reclaimed and reused while the caller still held the id (GDI's volatile
/// ids, §3.4, make this a condition transactions must tolerate).
pub fn read_chain(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primary: DPtr,
) -> GdiResult<(Vec<u8>, Vec<DPtr>)> {
    debug_assert!(!primary.is_null());
    let payload = payload_per_block(cfg);
    let max_total = payload * cfg.blocks_per_rank;
    let mut block_buf = vec![0u8; cfg.block_size];
    ctx.get_bytes(
        WIN_DATA,
        primary.rank(),
        primary.offset() as usize,
        &mut block_buf,
    );
    let mut next = DPtr::from_raw(u64::from_le_bytes(block_buf[..8].try_into().unwrap()));
    let total = Holder::peek_total_len(&block_buf[16..]);
    if total < crate::holder::HEADER_BYTES || total > max_total {
        return Err(GdiError::NotFound("object (stale internal id)"));
    }
    let mut bytes = Vec::with_capacity(total);
    bytes.extend_from_slice(&block_buf[16..16 + payload.min(total)]);
    let mut blocks = vec![primary];
    while bytes.len() < total {
        if next.is_null() || blocks.len() > cfg.blocks_per_rank {
            return Err(GdiError::NotFound("object (stale internal id)"));
        }
        ctx.get_bytes(
            WIN_DATA,
            next.rank(),
            next.offset() as usize,
            &mut block_buf,
        );
        blocks.push(next);
        let take = payload.min(total - bytes.len());
        bytes.extend_from_slice(&block_buf[16..16 + take]);
        next = DPtr::from_raw(u64::from_le_bytes(block_buf[..8].try_into().unwrap()));
    }
    Ok((bytes, blocks))
}

/// Retries before a lock-free validated read reports the chain as
/// structurally unreadable. Transient seqlock failures resolve as soon
/// as the writer's three flushed phases finish, so this bound is only
/// ever reached if a writer died mid-overwrite (a process-fatal
/// condition everywhere else too).
const VALIDATE_RETRIES: usize = 100_000;

/// Lock-free **snapshot fetch** of the chain at `primary`: the MVCC
/// read path. Copies each block, then re-reads its stamp word; a block
/// is untorn iff both stamp observations agree on a non-zero value (see
/// the module docs for the seqlock argument), and the whole chain must
/// carry the primary's stamp — a mixed-stamp chain is a concurrent
/// resize and is retried. On success the assembled holder bytes carry a
/// `version` field equal to the returned stamp, so the bytes are
/// exactly one atomic publication.
///
/// Returns the holder bytes and the stamp they were published under.
/// Never blocks the writer and never reports a *conflict*: transient
/// invalidity retries, structural implausibility is the ordinary
/// stale-internal-id `NotFound`.
pub fn read_chain_validated(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primary: DPtr,
) -> GdiResult<(Vec<u8>, u64)> {
    debug_assert!(!primary.is_null());
    let payload = payload_per_block(cfg);
    let max_total = payload * cfg.blocks_per_rank;
    let mut block_buf = vec![0u8; cfg.block_size];
    let mut stamp_buf = [0u8; 8];
    // one validated block copy; None = torn/in-flight (retry). The
    // block copy and the stamp re-read ride one injection round (§5.1
    // non-blocking overlap): same-target one-sided reads complete in
    // issue order, so the re-read still observes the stamp *after* the
    // copy — the validated read costs one network latency, not two,
    // which is what keeps it cheaper than a lock/unlock round-trip pair
    let mut read_block = |dp: DPtr, buf: &mut Vec<u8>| -> Option<(DPtr, u64)> {
        ctx.begin_nb_batch();
        ctx.get_bytes(WIN_DATA, dp.rank(), dp.offset() as usize, buf);
        let s1 = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        ctx.get_bytes(
            WIN_DATA,
            dp.rank(),
            dp.offset() as usize + BLOCK_STAMP_OFFSET,
            &mut stamp_buf,
        );
        ctx.end_nb_batch();
        let s2 = u64::from_le_bytes(stamp_buf);
        if s1 == 0 || s1 != s2 {
            return None;
        }
        let next = DPtr::from_raw(u64::from_le_bytes(buf[..8].try_into().unwrap()));
        Some((next, s1))
    };
    'retry: for attempt in 0..VALIDATE_RETRIES {
        if attempt > 0 {
            // a torn read means a writer is mid-publication; on an
            // oversubscribed host it may be descheduled — yield so it
            // can finish instead of charge-spinning validated copies
            std::thread::yield_now();
        }
        let Some((mut next, stamp)) = read_block(primary, &mut block_buf) else {
            continue 'retry;
        };
        let total = Holder::peek_total_len(&block_buf[16..]);
        if total < crate::holder::HEADER_BYTES || total > max_total {
            return Err(GdiError::NotFound("object (stale internal id)"));
        }
        let mut bytes = Vec::with_capacity(total);
        bytes.extend_from_slice(&block_buf[16..16 + payload.min(total)]);
        let mut depth = 1usize;
        while bytes.len() < total {
            if next.is_null() || depth > cfg.blocks_per_rank {
                // the primary's copy validated, so a broken chain here
                // means the object moved on between blocks — retry
                continue 'retry;
            }
            let Some((n, s)) = read_block(next, &mut block_buf) else {
                continue 'retry;
            };
            if s != stamp {
                continue 'retry; // continuation republished under a newer version
            }
            let take = payload.min(total - bytes.len());
            bytes.extend_from_slice(&block_buf[16..16 + take]);
            next = n;
            depth += 1;
        }
        // the assembled bytes must be the publication the stamp names
        if bytes.len() >= 32 && u64::from_le_bytes(bytes[24..32].try_into().unwrap()) != stamp {
            continue 'retry;
        }
        return Ok((bytes, stamp));
    }
    Err(GdiError::NotFound(
        "object (snapshot validation did not converge)",
    ))
}

/// Batched lock-free validated fetch: [`read_chain_validated`]'s
/// seqlock protocol applied across many chains with
/// [`read_chains`]-style level pipelining. One optimistic pipelined
/// pass validates every block copy (stamp re-read after the copy, all
/// stamps equal to the chain's primary stamp, assembled bytes naming
/// that stamp); chains torn by a concurrent overwrite — rare — fall
/// back to the per-chain retry loop. Per-primary results preserve
/// input order.
pub fn read_chains_validated(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primaries: &[DPtr],
) -> Vec<GdiResult<(Vec<u8>, u64)>> {
    let payload = payload_per_block(cfg);
    let max_total = payload * cfg.blocks_per_rank;
    struct VChain {
        bytes: Vec<u8>,
        stamp: u64,
        next: DPtr,
        depth: usize,
        total: usize,
        torn: bool,
        failed: bool,
    }
    let mut chains: Vec<VChain> = primaries
        .iter()
        .map(|&p| {
            debug_assert!(!p.is_null());
            VChain {
                bytes: Vec::new(),
                stamp: 0,
                next: p,
                depth: 0,
                total: usize::MAX,
                torn: false,
                failed: false,
            }
        })
        .collect();
    let mut block_buf = vec![0u8; cfg.block_size];
    let mut stamp_buf = [0u8; 8];
    loop {
        let pending: Vec<usize> = chains
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.torn && !c.failed && (c.depth == 0 || c.bytes.len() < c.total))
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        // one latency for the whole level; data transfers execute
        // immediately (shared memory), so the copy-then-stamp-re-read
        // order the seqlock needs is preserved inside the batch
        ctx.begin_nb_batch();
        for &i in &pending {
            let c = &mut chains[i];
            let dp = c.next;
            if dp.is_null() || c.depth >= cfg.blocks_per_rank {
                // primary validated but the chain broke mid-walk: the
                // object moved on between blocks — treat as torn
                c.torn = true;
                continue;
            }
            ctx.get_bytes(WIN_DATA, dp.rank(), dp.offset() as usize, &mut block_buf);
            let s1 = u64::from_le_bytes(block_buf[8..16].try_into().unwrap());
            ctx.get_bytes(
                WIN_DATA,
                dp.rank(),
                dp.offset() as usize + BLOCK_STAMP_OFFSET,
                &mut stamp_buf,
            );
            let s2 = u64::from_le_bytes(stamp_buf);
            if s1 == 0 || s1 != s2 || (c.depth > 0 && s1 != c.stamp) {
                c.torn = true;
                continue;
            }
            c.next = DPtr::from_raw(u64::from_le_bytes(block_buf[..8].try_into().unwrap()));
            if c.depth == 0 {
                c.stamp = s1;
                let total = Holder::peek_total_len(&block_buf[16..]);
                if total < crate::holder::HEADER_BYTES || total > max_total {
                    c.failed = true;
                    continue;
                }
                c.total = total;
                c.bytes.reserve(total);
            }
            c.depth += 1;
            let take = payload.min(c.total - c.bytes.len());
            c.bytes.extend_from_slice(&block_buf[16..16 + take]);
        }
        ctx.end_nb_batch();
    }
    primaries
        .iter()
        .zip(chains)
        .map(|(&p, c)| {
            if c.failed {
                return Err(GdiError::NotFound("object (stale internal id)"));
            }
            // assembled bytes must be the publication the stamp names
            if c.torn
                || c.bytes.len() < 32
                || u64::from_le_bytes(c.bytes[24..32].try_into().unwrap()) != c.stamp
            {
                // concurrent overwrite tore this chain: per-chain retry
                return read_chain_validated(ctx, cfg, p);
            }
            Ok((c.bytes, c.stamp))
        })
        .collect()
}

/// Fetch many holders at once, **pipelining** the block reads: per
/// chain *depth level*, every outstanding block is issued inside one
/// non-blocking batch, so the whole level costs a single network
/// latency instead of one blocking round trip per chain hop (§5.1's
/// non-blocking overlap, applied across objects). Level 0 fetches all
/// primary blocks, level `k` the `k`-th continuation block of every
/// chain still incomplete; the deepest chain bounds the number of
/// rounds.
///
/// Per-primary results preserve input order and fail individually with
/// the same structural checks as [`read_chain`] — a stale internal id
/// poisons only its own slot.
pub fn read_chains(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primaries: &[DPtr],
) -> Vec<GdiResult<(Vec<u8>, Vec<DPtr>)>> {
    let payload = payload_per_block(cfg);
    let max_total = payload * cfg.blocks_per_rank;
    struct Chain {
        bytes: Vec<u8>,
        blocks: Vec<DPtr>,
        next: DPtr,
        total: usize,
        failed: bool,
    }
    let mut chains: Vec<Chain> = primaries
        .iter()
        .map(|&p| {
            debug_assert!(!p.is_null());
            Chain {
                bytes: Vec::new(),
                blocks: Vec::new(),
                next: p,
                total: usize::MAX,
                failed: false,
            }
        })
        .collect();
    let mut block_buf = vec![0u8; cfg.block_size];
    loop {
        let pending: Vec<usize> = chains
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.failed && (c.blocks.is_empty() || c.bytes.len() < c.total))
            .map(|(i, _)| i)
            .collect();
        if pending.is_empty() {
            break;
        }
        // one latency for the whole level: every block read of this
        // round overlaps inside the non-blocking batch
        ctx.begin_nb_batch();
        for &i in &pending {
            let c = &mut chains[i];
            let dp = c.next;
            if dp.is_null() || c.blocks.len() >= cfg.blocks_per_rank {
                c.failed = true;
                continue;
            }
            ctx.get_bytes(WIN_DATA, dp.rank(), dp.offset() as usize, &mut block_buf);
            c.next = DPtr::from_raw(u64::from_le_bytes(block_buf[..8].try_into().unwrap()));
            if c.blocks.is_empty() {
                // primary block: learn the chain's total length
                let total = Holder::peek_total_len(&block_buf[16..]);
                if total < crate::holder::HEADER_BYTES || total > max_total {
                    c.failed = true;
                    continue;
                }
                c.total = total;
                c.bytes.reserve(total);
            }
            c.blocks.push(dp);
            let take = payload.min(c.total - c.bytes.len());
            c.bytes.extend_from_slice(&block_buf[16..16 + take]);
        }
        ctx.end_nb_batch();
    }
    chains
        .into_iter()
        .map(|c| {
            if c.failed {
                Err(GdiError::NotFound("object (stale internal id)"))
            } else {
                Ok((c.bytes, c.blocks))
            }
        })
        .collect()
}

/// Release every block of a chain (object deletion).
pub fn free_chain(bm: &BlockManager, blocks: &[DPtr]) {
    for dp in blocks {
        bm.release(*dp);
    }
}

/// The structural chain walk behind [`read_chain_bytes`] and
/// [`read_chain_local`]: follow the chain at `primary` inside one rank's
/// data window of `win_len` bytes, fetching every block through `fetch`
/// (`(byte offset, block buffer)`) and appending its payload to `out`.
/// `None` on any structural implausibility: a block outside the window
/// or on another rank, a total length outside `[header, pool]`, a chain
/// that ends early or outgrows the pool.
fn walk_chain(
    cfg: &GdaConfig,
    primary: DPtr,
    win_len: usize,
    mut fetch: impl FnMut(usize, &mut [u8]),
    block_buf: &mut [u8],
    out: &mut Vec<u8>,
    mut visit: impl FnMut(DPtr),
) -> Option<()> {
    debug_assert!(!primary.is_null());
    debug_assert_eq!(block_buf.len(), cfg.block_size);
    let payload = payload_per_block(cfg);
    let max_total = payload * cfg.blocks_per_rank;
    let mut block = |dp: DPtr, buf: &mut [u8]| -> Option<DPtr> {
        let off = dp.offset() as usize;
        if dp.rank() != primary.rank() || off + cfg.block_size > win_len {
            return None;
        }
        fetch(off, buf);
        Some(DPtr::from_raw(u64::from_le_bytes(
            buf[..8].try_into().unwrap(),
        )))
    };
    let mut next = block(primary, block_buf)?;
    if block_buf.len() < BLOCK_PAYLOAD_OFFSET + crate::holder::HEADER_BYTES.min(payload) {
        return None;
    }
    let total = Holder::peek_total_len(&block_buf[BLOCK_PAYLOAD_OFFSET..]);
    if total < crate::holder::HEADER_BYTES || total > max_total {
        return None;
    }
    out.clear();
    out.reserve(total);
    out.extend_from_slice(&block_buf[BLOCK_PAYLOAD_OFFSET..][..payload.min(total)]);
    visit(primary);
    let mut nblocks = 1usize;
    while out.len() < total {
        if next.is_null() || nblocks > cfg.blocks_per_rank {
            return None;
        }
        let cur = next;
        next = block(cur, block_buf)?;
        visit(cur);
        nblocks += 1;
        let take = payload.min(total - out.len());
        out.extend_from_slice(&block_buf[BLOCK_PAYLOAD_OFFSET..][..take]);
    }
    Some(())
}

/// Offline variant of [`read_chain`] over a raw **data-window byte
/// image** (a snapshot's first window): follows the chain inside the
/// image without a live fabric. Chains are rank-local (continuation
/// blocks always live on the primary's rank), so one rank's image
/// suffices. Returns `None` on any structural implausibility — the
/// caller decides whether that is corruption or a vacated block.
///
/// Recovery primitive for **elastic resharding**: the logical holder
/// contents are lifted out of `P` snapshot images and re-materialized
/// on `Q` ranks at fresh addresses.
pub fn read_chain_bytes(
    cfg: &GdaConfig,
    data: &[u8],
    primary: DPtr,
) -> Option<(Vec<u8>, Vec<DPtr>)> {
    let mut block_buf = vec![0u8; cfg.block_size];
    let mut bytes = Vec::new();
    let mut blocks = Vec::new();
    walk_chain(
        cfg,
        primary,
        data.len(),
        |off, buf| buf.copy_from_slice(&data[off..off + cfg.block_size]),
        &mut block_buf,
        &mut bytes,
        |dp| blocks.push(dp),
    )?;
    Some((bytes, blocks))
}

/// [`read_chain_bytes`] against this rank's **live data window**: the
/// same structural checks, but every block is read where it lies (one
/// local `get` each) into a caller-owned block buffer and the holder
/// bytes land in the reused `out` — no window image, no per-chain
/// allocation. The OLAP scan sweep's reader (`crate::scan`); like every
/// unlocked read it assumes no concurrent writer.
pub fn read_chain_local(
    ctx: &RankCtx,
    cfg: &GdaConfig,
    primary: DPtr,
    block_buf: &mut [u8],
    out: &mut Vec<u8>,
) -> Option<()> {
    debug_assert_eq!(primary.rank(), ctx.rank());
    walk_chain(
        cfg,
        primary,
        ctx.win_len_bytes(WIN_DATA),
        |off, buf| ctx.get_bytes(WIN_DATA, primary.rank(), off, buf),
        block_buf,
        out,
        |_| {},
    )
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
            h.add_property(PTypeId(3 + i as u32), vec![i as u8; 13]);
        }
        h
    }

    #[test]
    fn single_block_roundtrip() {
        with_pool(|ctx, bm, cfg| {
            let h = big_holder(1, 1);
            assert_eq!(blocks_needed(cfg, h.encoded_len()), 1);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, &h.encode(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            let (bytes, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(found, blocks);
            assert_eq!(Holder::decode(&bytes), h);
        });
    }

    #[test]
    fn multi_block_roundtrip() {
        with_pool(|ctx, bm, cfg| {
            let h = big_holder(40, 10); // well beyond one 128 B block
            let need = blocks_needed(cfg, h.encoded_len());
            assert!(need > 3);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, &h.encode(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), need);
            let (bytes, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(found.len(), need);
            assert_eq!(Holder::decode(&bytes), h);
        });
    }

    #[test]
    fn grow_then_shrink_keeps_primary_and_frees_surplus() {
        with_pool(|ctx, bm, cfg| {
            let free0 = bm.count_free(0);
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];

            let big = big_holder(60, 5);
            write_chain(ctx, bm, &big.encode(), &mut blocks).unwrap();
            let grown = blocks.len();
            assert!(grown > 1);
            assert_eq!(bm.count_free(0), free0 - grown);

            let small = big_holder(0, 0);
            write_chain(ctx, bm, &small.encode(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0], primary, "primary identity must be stable");
            assert_eq!(bm.count_free(0), free0 - 1);

            let (bytes, _) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(Holder::decode(&bytes), small);

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
                let base = h.encoded_len();
                let want = payload * 2 + extra * 8;
                if want > base + 8 {
                    h.add_property(PTypeId(3), vec![0xCD; want - base - 8]);
                }
                let primary = bm.acquire(0).unwrap();
                let mut blocks = vec![primary];
                write_chain(ctx, bm, &h.encode(), &mut blocks).unwrap();
                let (bytes, _) = read_chain(ctx, cfg, primary).unwrap();
                assert_eq!(Holder::decode(&bytes), h, "extra={extra}");
                free_chain(bm, &blocks);
            }
        });
    }

    /// The offline chain reader must reproduce exactly what the live
    /// fetch path reads — it is the seed of a resharded restore.
    #[test]
    fn offline_chain_read_matches_live_read() {
        with_pool(|ctx, bm, cfg| {
            let small = big_holder(1, 1);
            let large = big_holder(40, 10);
            let mut primaries = Vec::new();
            for h in [&small, &large] {
                let primary = bm.acquire(0).unwrap();
                let mut blocks = vec![primary];
                write_chain(ctx, bm, &h.encode(), &mut blocks).unwrap();
                primaries.push(primary);
            }
            let mut image = vec![0u8; ctx.win_len_bytes(WIN_DATA)];
            ctx.get_bytes(WIN_DATA, 0, 0, &mut image);
            let (mut block, mut reused) = (vec![0u8; cfg.block_size], Vec::new());
            for (h, primary) in [&small, &large].into_iter().zip(&primaries) {
                let (live_bytes, live_blocks) = read_chain(ctx, cfg, *primary).unwrap();
                let (img_bytes, img_blocks) =
                    read_chain_bytes(cfg, &image, *primary).expect("offline read");
                assert_eq!(img_bytes, live_bytes);
                assert_eq!(img_blocks, live_blocks);
                assert_eq!(Holder::decode(&img_bytes), *h);
                // the scan sweep's reader: same bytes, block by block
                // from the window, into buffers that are reused
                read_chain_local(ctx, cfg, *primary, &mut block, &mut reused).expect("local read");
                assert_eq!(reused, live_bytes);
            }
            // a never-written block decodes to None, not garbage
            let free = bm.acquire(0).unwrap();
            assert!(read_chain_bytes(cfg, &image, free).is_none());
            assert!(read_chain_local(ctx, cfg, free, &mut block, &mut reused).is_none());
            // neither does a pointer past the window's end
            let beyond = DPtr::new(0, image.len() as u64);
            assert!(read_chain_bytes(cfg, &image, beyond).is_none());
            assert!(read_chain_local(ctx, cfg, beyond, &mut block, &mut reused).is_none());
        });
    }

    /// The pipelined multi-chain fetch must return byte-identical
    /// results to per-chain [`read_chain`] calls, isolate a stale slot
    /// to its own result, and — being level-batched — pay fewer network
    /// latencies than the blocking loop.
    #[test]
    fn read_chains_matches_sequential_and_pipelines() {
        let cfg = GdaConfig::tiny();
        let fabric = cfg.build_fabric(2, CostModel::default());
        fabric.run(|ctx| {
            let bm = BlockManager::new(ctx, cfg);
            bm.init_collective();
            if ctx.rank() == 0 {
                // a mix of single- and multi-block holders on rank 1
                let holders: Vec<Holder> =
                    vec![big_holder(1, 0), big_holder(25, 3), big_holder(8, 1)];
                let mut primaries = Vec::new();
                for h in &holders {
                    let primary = bm.acquire(1).unwrap();
                    let mut blocks = vec![primary];
                    write_chain(ctx, &bm, &h.encode(), &mut blocks).unwrap();
                    primaries.push(primary);
                }
                let t0 = ctx.now_ns();
                let mut sequential = Vec::new();
                for &p in &primaries {
                    sequential.push(read_chain(ctx, &cfg, p).unwrap());
                }
                let t_seq = ctx.now_ns() - t0;
                let t1 = ctx.now_ns();
                let batched = read_chains(ctx, &cfg, &primaries);
                let t_bat = ctx.now_ns() - t1;
                for (got, want) in batched.iter().zip(&sequential) {
                    let (bytes, blocks) = got.as_ref().expect("chain fetch");
                    assert_eq!((bytes, blocks), (&want.0, &want.1));
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
                let free = bm.acquire(1).unwrap();
                let mixed = read_chains(ctx, &cfg, &[primaries[0], free, primaries[2]]);
                assert!(mixed[0].is_ok());
                assert!(mixed[1].is_err());
                assert!(mixed[2].is_ok());
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
            h.version = 7;
            let primary = bm.acquire(0).unwrap();
            let mut blocks = vec![primary];
            write_chain(ctx, bm, &h.encode(), &mut blocks).unwrap();
            let (bytes, stamp) = read_chain_validated(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 7);
            assert_eq!(Holder::decode(&bytes), h);

            // grow through the seqlock republish
            let mut h2 = big_holder(60, 5);
            h2.version = 8;
            overwrite_chain(ctx, bm, &h2.encode(), &mut blocks).unwrap();
            assert!(blocks.len() > 1);
            let (bytes, stamp) = read_chain_validated(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 8);
            assert_eq!(Holder::decode(&bytes), h2);
            let (plain, found) = read_chain(ctx, cfg, primary).unwrap();
            assert_eq!(plain, bytes);
            assert_eq!(&found, &blocks);

            // shrink: surplus returns to the pool only after publication
            let free_before = bm.count_free(0);
            let mut h3 = big_holder(0, 0);
            h3.version = 9;
            overwrite_chain(ctx, bm, &h3.encode(), &mut blocks).unwrap();
            assert_eq!(blocks.len(), 1);
            assert_eq!(blocks[0], primary, "primary identity must be stable");
            assert!(bm.count_free(0) > free_before);
            let (bytes, stamp) = read_chain_validated(ctx, cfg, primary).unwrap();
            assert_eq!(stamp, 9);
            assert_eq!(Holder::decode(&bytes), h3);
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
                write_chain(ctx, &bm, &h.encode(), &mut blocks).unwrap();
                assert!(blocks.iter().all(|b| b.rank() == 1));
                let (bytes, _) = read_chain(ctx, &cfg, primary).unwrap();
                assert_eq!(Holder::decode(&bytes), h);
            }
            ctx.barrier();
        });
    }
}
