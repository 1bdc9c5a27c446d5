//! The per-rank snapshot file codec (format v8): written and read in one
//! pass each, through `O(strip)` memory. Only a chain's base — a full
//! checkpoint — has snapshot files; a delta is its sealed redo segments
//! (`persist/mod.rs`, "Incremental (delta) checkpoints").
//!
//! ```text
//! header    magic[8] version:u32 | id:u64 rank:u32 nranks:u32 | config | kind:u8 = 0
//! windows   2 × window (data, index):  len:u64, then runs  zeros:u32 data:u32
//!           data×8 bytes until `len` is covered (counts are in words; a zero
//!           run longer than u32::MAX words is split into several runs with
//!           data = 0); the data window carries its live blocks only, every
//!           other block reads as zeros
//! postings  indexes:u32, then per index  id:u32 count:u64 (vertex:u64 app:u64)×count
//! trailer   checksum:u64 over every byte before it
//! ```
//!
//! The kind byte is the v7 full-image kind, kept so a v8 file is a v7
//! full image in all but its version word; any other value is refused.
//!
//! **A snapshot holds exactly the bytes recovery lifts.** Recovery reads
//! the DHT partition out of the index image and, through it, every live
//! holder chain out of the data image ([`hio::walk_live`]); it never
//! reads the free lists (usage window), the lock and counter words
//! (system window), a free block or an MVCC archive. So no file carries
//! the usage or system window, and the data window is zero outside the
//! live set ([`live_blocks`], the same walk over the live window).
//!
//! The **writer** pushes these sections through a buffered file handle
//! that feeds the [`Checksum`] on the way, zero-run-length encoding strip
//! by strip straight out of the window; no window, and no file, is ever
//! materialized in memory. The **reader** first streams the whole file
//! through the checksum ([`verify_file`] — also the maintenance
//! verifier), and only then decodes it, reading the data runs straight
//! into the zero-initialized window image. One decoder
//! ([`read_rank_snapshot`]) serves recovery at every rank count.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use gdi::{AppVertexId, GdiError, GdiResult};
use rma::{RankCtx, WinId};

use super::format::{
    check_file_header, io_err, Checksum, Dec, Enc, FILE_HEADER_BYTES, FORMAT_VERSION,
    MANIFEST_MAGIC, SNAP_MAGIC,
};
use super::{decode_cfg, encode_cfg, parse_log, publish_tmp, PersistStore};
use crate::config::{GdaConfig, WIN_DATA, WIN_INDEX};
use crate::db::GdaRank;
use crate::dht;
use crate::dptr::DPtr;
use crate::faults::{self, FaultMode};
use crate::hio::{self, LiveChain, Source};
use crate::index::{IndexId, Posting};

/// Bytes of window moved per step of a snapshot write, and of file per
/// step of a checksum pass: the one buffer a checkpoint or a verify
/// holds. A constant, not an option: it has to be a multiple of the
/// word size, large enough that a `write(2)` per strip is noise (a
/// 134 MB window is 512 of them) and small enough to stay in the L2
/// cache between the window copy, the run scan, the checksum and the
/// write — 64 KiB, 256 KiB and 1 MiB measure within 5 % of each other
/// on the benchmark host, and nothing a deployment knows would pick a
/// better value.
pub const STRIP_BYTES: usize = 256 * 1024;

/// The windows snapshot files carry, in file order (which is `WinId`
/// order): the block pool and the DHT partition. Recovery rebuilds the
/// free lists and the system words; it never reads them.
const SNAPSHOT_WINDOWS: [WinId; 2] = [WIN_DATA, WIN_INDEX];

/// The snapshot-kind byte every file carries: a self-contained full image.
const SNAP_FULL: u8 = 0;

/// The byte lengths of [`SNAPSHOT_WINDOWS`] under `cfg`.
pub(super) fn window_bytes(cfg: &GdaConfig) -> [usize; 2] {
    [cfg.data_bytes(), cfg.index_bytes()]
}

// ---------------------------------------------------------------------
// the live set
// ---------------------------------------------------------------------

/// The blocks of one rank's data window that hold a live chain: the
/// only data blocks a full image carries.
pub(crate) struct LiveBlocks {
    block: usize,
    bits: Vec<u64>,
}

impl LiveBlocks {
    fn new(cfg: &GdaConfig) -> Self {
        Self {
            block: cfg.block_size,
            bits: vec![0; (cfg.blocks_per_rank + 1).div_ceil(64)],
        }
    }

    fn insert(&mut self, dp: DPtr) {
        let b = dp.offset() as usize / self.block;
        self.bits[b / 64] |= 1 << (b % 64);
    }

    fn contains(&self, b: usize) -> bool {
        self.bits
            .get(b / 64)
            .is_some_and(|w| w & (1 << (b % 64)) != 0)
    }

    /// Zero every byte of `buf` — the window bytes from offset `off` on —
    /// that lies outside a live block.
    fn clear_dead(&self, off: usize, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let b = (off + pos) / self.block;
            let end = ((b + 1) * self.block - off).min(buf.len());
            if !self.contains(b) {
                buf[pos..end].fill(0);
            }
            pos = end;
        }
    }
}

/// Collective, quiesced: hand `visit` every chain of the live set this
/// rank stores — every chain [`hio::walk_live`] finds from the DHT,
/// walked by the rank that stores it. [`dht::owned_entries`] routes each
/// vertex to its primary's rank; an edge holder named by a vertex on
/// another rank takes a second exchange (every rank joins it, whatever
/// its own walk found).
pub(crate) fn walk_local_live(
    eng: &GdaRank,
    mut visit: impl FnMut(&LiveChain<'_>),
) -> GdiResult<()> {
    let (ctx, cfg, me) = (eng.ctx(), eng.cfg(), eng.rank());
    let here = |rank: usize| (rank == me).then_some(Source::Live(ctx));
    let vertices = dht::owned_entries(ctx, cfg)
        .into_iter()
        .map(|(app, raw)| (app, DPtr::from_raw(raw)));
    let first = hio::walk_live(cfg, here, vertices, [], &mut visit);
    let mut rows = vec![Vec::new(); eng.nranks()];
    for dp in first.as_deref().unwrap_or_default() {
        rows[dp.rank()].push(dp.raw());
    }
    let routed = ctx.alltoallv(rows).into_iter().flatten();
    let second = hio::walk_live(cfg, here, [], routed.map(DPtr::from_raw), &mut visit);
    match first.and(second) {
        Ok(rest) => {
            debug_assert!(rest.is_empty(), "routed holders are all local");
            Ok(())
        }
        Err(e) => Err(GdiError::Io(format!("live set: {e}"))),
    }
}

/// Collective, quiesced: this rank's live blocks, every block of every
/// chain [`walk_local_live`] visits.
pub(crate) fn live_blocks(eng: &GdaRank) -> GdiResult<LiveBlocks> {
    let mut live = LiveBlocks::new(eng.cfg());
    walk_local_live(eng, |c| c.blocks.iter().for_each(|dp| live.insert(*dp)))?;
    Ok(live)
}

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

/// Where snapshot bytes land: the tmp file, the running checksum and
/// the byte count. An armed [`FaultMode::TornWrite`] lets only the
/// first `k` bytes reach the file; the rest are summed and counted but
/// dropped, so the write runs (and is charged) to its end and fails
/// there.
struct Sink {
    file: File,
    sum: Checksum,
    bytes: u64,
    torn_left: Option<usize>,
}

impl Sink {
    fn land(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.bytes += buf.len() as u64;
        let n = match &mut self.torn_left {
            Some(left) => {
                let n = buf.len().min(*left);
                *left -= n;
                n
            }
            None => buf.len(),
        };
        self.file.write_all(&buf[..n])
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.sum.update(buf);
        self.land(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(()) // `File` buffers nothing in user space
    }
}

/// The streaming snapshot writer: typed little-endian puts into a
/// strip-sized buffer in front of the [`Sink`].
struct SnapWriter {
    out: BufWriter<Sink>,
}

impl SnapWriter {
    fn new(file: File, torn_at: Option<usize>) -> Self {
        let sink = Sink {
            file,
            sum: Checksum::new(),
            bytes: 0,
            torn_left: torn_at,
        };
        Self {
            out: BufWriter::with_capacity(STRIP_BYTES, sink),
        }
    }

    fn put(&mut self, bytes: &[u8]) -> GdiResult<()> {
        self.out
            .write_all(bytes)
            .map_err(|e| io_err("write snapshot", e))
    }
    fn u32(&mut self, v: u32) -> GdiResult<()> {
        self.put(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> GdiResult<()> {
        self.put(&v.to_le_bytes())
    }

    /// One run of a full image: the `zeros` words pending since the last
    /// data run (split where the count would not fit a `u32`), then
    /// `data`. Resets `zeros`.
    fn run(&mut self, zeros: &mut u64, data: &[u8]) -> GdiResult<()> {
        const MAX: u64 = u32::MAX as u64;
        while *zeros > MAX {
            self.u32(u32::MAX)?;
            self.u32(0)?;
            *zeros -= MAX;
        }
        self.u32(*zeros as u32)?;
        self.u32((data.len() / 8) as u32)?;
        *zeros = 0;
        self.put(data)
    }

    /// Flush, append the trailing checksum, and hand back the file with
    /// the total byte count.
    fn finish(self) -> GdiResult<(File, u64)> {
        let mut sink = self
            .out
            .into_inner()
            .map_err(|e| io_err("write snapshot", e.into_error()))?;
        let trailer = sink.sum.finish().to_le_bytes();
        sink.land(&trailer)
            .map_err(|e| io_err("write snapshot", e))?;
        Ok((sink.file, sink.bytes))
    }
}

/// Number of leading 8-byte words of `bytes` that are zero (`zero`) or
/// non-zero (`!zero`).
fn leading_words(bytes: &[u8], zero: bool) -> usize {
    let words = bytes.chunks_exact(8);
    let n = words.len();
    words
        .into_iter()
        .position(|w| (w == [0u8; 8]) != zero)
        .unwrap_or(n)
}

/// Stream this rank's instance of `win` as a zero-run-length-encoded
/// full image, one strip at a time, every block outside `live` (when
/// given) as zeros. A zero run carries over strip boundaries; a data run
/// ends at one (its length precedes its bytes).
fn write_full_window(
    ctx: &RankCtx,
    win: WinId,
    live: Option<&LiveBlocks>,
    w: &mut SnapWriter,
    strip: &mut [u8],
) -> GdiResult<()> {
    let len = ctx.win_len_bytes(win);
    w.u64(len as u64)?;
    let mut zeros = 0u64;
    let mut off = 0;
    while off < len {
        let buf = &mut strip[..STRIP_BYTES.min(len - off)];
        ctx.get_bytes(win, ctx.rank(), off, buf);
        if let Some(live) = live {
            live.clear_dead(off, buf);
        }
        off += buf.len();
        let mut rest: &[u8] = buf;
        while !rest.is_empty() {
            let z = leading_words(rest, true);
            zeros += z as u64;
            rest = &rest[z * 8..];
            let d = leading_words(rest, false);
            if d > 0 {
                w.run(&mut zeros, &rest[..d * 8])?;
                rest = &rest[d * 8..];
            }
        }
    }
    if zeros > 0 {
        w.run(&mut zeros, &[])?;
    }
    Ok(())
}

/// Write one rank's snapshot file — the index window whole, the data
/// window's `live` blocks — to a tmp file, then rename it into place.
/// Returns the file's bytes.
pub(super) fn write_rank_snapshot(
    eng: &GdaRank,
    store: &PersistStore,
    id: u64,
    dir: &Path,
    live: &LiveBlocks,
) -> GdiResult<u64> {
    let ctx = eng.ctx();
    let me = eng.rank();
    let torn_at = match store.probe_fault(faults::SNAP_WRITE, me) {
        Some(FaultMode::Error) => {
            return Err(GdiError::Io("injected checkpoint failure".into()));
        }
        Some(FaultMode::TornWrite(k)) => Some(k),
        _ => None,
    };
    let path = dir.join(format!("rank-{me}.snap"));
    let tmp = path.with_extension("tmp");
    let file = File::create(&tmp).map_err(|e| io_err("create snapshot tmp", e))?;
    let mut w = SnapWriter::new(file, torn_at);

    let mut head = Enc::default();
    head.buf.extend_from_slice(SNAP_MAGIC);
    head.u32(FORMAT_VERSION);
    head.u64(id);
    head.u32(me as u32);
    head.u32(eng.nranks() as u32);
    encode_cfg(&mut head, eng.cfg());
    head.u8(SNAP_FULL);
    w.put(&head.buf)?;

    let mut strip = vec![0u8; STRIP_BYTES];
    for win in SNAPSHOT_WINDOWS {
        let live = (win == WIN_DATA).then_some(live);
        write_full_window(ctx, win, live, &mut w, &mut strip)?;
    }
    drop(strip);

    let postings = eng.indexes().export_rank(me);
    w.u32(postings.len() as u32)?;
    for (ix, ps) in &postings {
        w.u32(ix.0)?;
        w.u64(ps.len() as u64)?;
        for p in ps {
            w.u64(p.vertex.raw())?;
            w.u64(p.app_id.0)?;
        }
    }
    let (file, bytes) = w.finish()?;
    // charge the device write to the simulated clock (sequential append
    // bandwidth, same device model as the redo log)
    ctx.charge_ns(ctx.cost_model().log_write(bytes as usize));
    if torn_at.is_some() {
        // crash mid-write: the tmp file keeps its partial bytes, the
        // rename never happens, and the checkpoint aborts collectively
        return Err(GdiError::Io("injected torn snapshot write".into()));
    }
    publish_tmp(file, &tmp, &path, store.opts.sync)?;
    Ok(bytes)
}

// ---------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------

/// One rank's decoded snapshot file: the window images (in
/// [`SNAPSHOT_WINDOWS`] order: data, index) plus the rank's index
/// postings. Recovery lifts the logical contents out of the images;
/// nothing puts them back into windows verbatim.
pub(crate) struct RankSnapshot {
    pub(crate) windows: Vec<Vec<u8>>,
    pub(crate) postings: Vec<(IndexId, Vec<Posting>)>,
    pub(crate) bytes: u64,
}

impl RankSnapshot {
    /// The data-window image: every live chain, zeros elsewhere.
    pub(crate) fn data(&self) -> &[u8] {
        &self.windows[0]
    }

    /// The index-window image: the rank's DHT partition.
    pub(crate) fn index(&self) -> &[u8] {
        &self.windows[1]
    }
}

/// Stream the `what` file (`"snapshot"`/`"manifest"`) at `path` through
/// its checks without decoding it: the fixed header (magic, then
/// version), then the [`Checksum`] of everything before the trailer
/// against the trailer. `flip` applies an injected
/// [`FaultMode::BitFlip`] to the bytes as they are read. Returns the
/// file's length.
pub(super) fn verify_file(
    path: &Path,
    magic: &[u8; 8],
    what: &str,
    flip: Option<usize>,
) -> GdiResult<u64> {
    let read_err = |e| io_err(&format!("read {what}"), e);
    let mut file = File::open(path).map_err(read_err)?;
    let len = file.metadata().map_err(read_err)?.len();
    if len < (FILE_HEADER_BYTES + 8) as u64 {
        return Err(GdiError::Io(format!("{what} too short")));
    }
    // the byte `faults::flip_bit` would hit in a whole-file buffer
    let flip = flip.map(|k| {
        let bit = k as u64 % (len * 8);
        (bit / 8, 1u8 << (bit % 8))
    });
    let mut pos = 0u64;
    let mut read = |buf: &mut [u8]| -> GdiResult<()> {
        file.read_exact(buf).map_err(read_err)?;
        if let Some((at, mask)) = flip {
            if (pos..pos + buf.len() as u64).contains(&at) {
                buf[(at - pos) as usize] ^= mask;
            }
        }
        pos += buf.len() as u64;
        Ok(())
    };
    let mut head = [0u8; FILE_HEADER_BYTES];
    read(&mut head)?;
    check_file_header(&head, magic, what)?;
    let mut sum = Checksum::new();
    sum.update(&head);
    let mut strip = vec![0u8; STRIP_BYTES];
    let mut left = len - (FILE_HEADER_BYTES + 8) as u64;
    while left > 0 {
        let buf = &mut strip[..(STRIP_BYTES as u64).min(left) as usize];
        read(buf)?;
        sum.update(buf);
        left -= buf.len() as u64;
    }
    let mut trailer = [0u8; 8];
    read(&mut trailer)?;
    if sum.finish() != u64::from_le_bytes(trailer) {
        return Err(GdiError::Io(format!("{what} checksum mismatch")));
    }
    Ok(len)
}

/// Decode one full window image of `want` bytes (the layout's length
/// for this window — checked before the image is allocated).
fn read_full_window<R: Read>(d: &mut Dec<R>, want: usize) -> GdiResult<Vec<u8>> {
    if d.u64()? != want as u64 {
        return Err(GdiError::Io("snapshot window size mismatch".into()));
    }
    let mut img = vec![0u8; want];
    let mut pos = 0usize;
    while pos < want {
        let zeros = d.u32()? as u64 * 8;
        let data = d.u32()? as u64 * 8;
        if zeros + data == 0 || zeros + data > (want - pos) as u64 {
            return Err(GdiError::Io("sparse window run overflows".into()));
        }
        pos += zeros as usize;
        d.fill(&mut img[pos..pos + data as usize])?;
        pos += data as usize;
    }
    Ok(img)
}

/// Decode a file's posting section; every count is checked against the
/// bytes that remain before anything is allocated for it.
fn read_postings<R: Read>(d: &mut Dec<R>) -> GdiResult<Vec<(IndexId, Vec<Posting>)>> {
    let nix = d.u32()? as u64;
    let mut postings = Vec::with_capacity(d.count(nix, 12)?);
    for _ in 0..nix {
        let ix = IndexId(d.u32()?);
        let n = d.u64()?;
        let mut ps = Vec::with_capacity(d.count(n, 16)?);
        for _ in 0..n {
            let vertex = DPtr::from_raw(d.u64()?);
            let app_id = AppVertexId(d.u64()?);
            ps.push(Posting { vertex, app_id });
        }
        postings.push((ix, ps));
    }
    Ok(postings)
}

/// Verify, then decode, the snapshot file of full checkpoint `id`, shard
/// `rank`. `layout` is the config the shard was written under — no live
/// fabric needed. Recovery reads every shard's chain base through here.
pub(crate) fn read_rank_snapshot(
    store: &PersistStore,
    id: u64,
    rank: usize,
    layout: &GdaConfig,
    nranks: usize,
) -> GdiResult<RankSnapshot> {
    let path = store.ckpt_dir(id).join(format!("rank-{rank}.snap"));
    let flip = match store.probe_fault(faults::SNAP_READ, rank) {
        Some(FaultMode::BitFlip(k)) => Some(k),
        Some(_) => return Err(GdiError::Io("injected snapshot read failure".into())),
        None => None,
    };
    // the whole file is checksum-clean before any byte of it is decoded
    let file_len = verify_file(&path, SNAP_MAGIC, "snapshot", flip)?;
    let file = File::open(&path).map_err(|e| io_err("read snapshot", e))?;
    let mut d = Dec::new(BufReader::with_capacity(STRIP_BYTES, file), file_len - 8);
    d.array::<FILE_HEADER_BYTES>()?;
    if d.u64()? != id || d.u32()? as usize != rank || d.u32()? as usize != nranks {
        return Err(GdiError::Io("rank snapshot identity mismatch".into()));
    }
    let cfg = decode_cfg(&mut d)?;
    if cfg.block_size != layout.block_size
        || cfg.blocks_per_rank != layout.blocks_per_rank
        || cfg.dht_buckets_per_rank != layout.dht_buckets_per_rank
        || cfg.dht_heap_per_rank != layout.dht_heap_per_rank
    {
        return Err(GdiError::Io("snapshot layout does not match config".into()));
    }
    if d.u8()? != SNAP_FULL {
        return Err(GdiError::Io("unknown snapshot kind".into()));
    }
    let mut windows = Vec::with_capacity(SNAPSHOT_WINDOWS.len());
    for want in window_bytes(layout) {
        windows.push(read_full_window(&mut d, want)?);
    }
    let postings = read_postings(&mut d)?;
    if d.left() != 0 {
        return Err(GdiError::Io("trailing bytes in rank snapshot".into()));
    }
    Ok(RankSnapshot {
        windows,
        postings,
        bytes: file_len,
    })
}

/// The body of [`PersistStore::verify_chain`]: every file of the
/// published chain that belongs to `rank` — the base's snapshot file
/// through [`verify_file`], every sealed segment streamed frame by frame
/// through a strip-sized buffer, and (rank 0) every manifest. A segment
/// whose frames stop short of its end counts as one error.
pub(super) fn verify_rank_chain(store: &PersistStore, rank: usize) -> (u64, u64) {
    let mut bytes = 0u64;
    let mut errors = 0u64;
    let mut check =
        |path: &Path, magic: &[u8; 8], what: &str| match verify_file(path, magic, what, None) {
            Ok(len) => bytes += len,
            Err(_) => {
                errors += 1;
                bytes += fs::metadata(path).map_or(0, |m| m.len());
            }
        };
    let chain = store.chain();
    if let Some(&base) = chain.first() {
        let path = store.ckpt_dir(base).join(format!("rank-{rank}.snap"));
        check(&path, SNAP_MAGIC, "snapshot");
    }
    if rank == 0 {
        for &id in &chain {
            check(
                &store.ckpt_dir(id).join("manifest.bin"),
                MANIFEST_MAGIC,
                "manifest",
            );
        }
    }
    for &id in chain.iter().skip(1) {
        let segment = File::open(store.segment_path(id, rank))
            .and_then(|file| Ok((file.metadata()?.len(), file)));
        match segment {
            Ok((len, file)) => {
                // every frame is checked and decoded; none is kept
                let frames = BufReader::with_capacity(STRIP_BYTES, file);
                let (_, valid) = parse_log(frames, len, u64::MAX);
                bytes += len;
                errors += u64::from(valid != len);
            }
            // a rank that logged nothing in the interval sealed nothing
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => errors += 1,
        }
    }
    (bytes, errors)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use rma::{CostModel, FabricBuilder};

    const WIN: WinId = WinId(0);

    /// Run `f` on the single rank of a fabric whose one window holds
    /// `image`.
    fn with_window<T: Send>(image: &[u8], f: impl Fn(&RankCtx) -> T + Sync) -> T {
        let fabric = FabricBuilder::new(1)
            .cost(CostModel::zero())
            .window(image.len())
            .build();
        let mut out = fabric.run(|ctx| {
            ctx.put_bytes(WIN, 0, 0, image);
            f(ctx)
        });
        out.pop().expect("one rank")
    }

    /// Stream something through a [`SnapWriter`] into a scratch file and
    /// return the file's bytes, checksum trailer verified and removed.
    fn written(tag: &str, fill: impl FnOnce(&mut SnapWriter, &mut [u8])) -> Vec<u8> {
        let dir = crate::persist::tests::TestDir::new(tag);
        fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("piece");
        let mut w = SnapWriter::new(File::create(&path).unwrap(), None);
        fill(&mut w, &mut vec![0u8; STRIP_BYTES]);
        let (_, bytes) = w.finish().unwrap();
        let mut file = fs::read(&path).unwrap();
        assert_eq!(file.len() as u64, bytes);
        let trailer = file.split_off(file.len() - 8);
        assert_eq!(
            u64::from_le_bytes(trailer.try_into().unwrap()),
            Checksum::of(&file)
        );
        file
    }

    /// Encode `image` as a full window, check the decoder gives it back
    /// and consumes exactly what was written; returns the encoded size.
    pub(in crate::persist) fn full_roundtrip(image: &[u8]) -> usize {
        let enc = with_window(image, |ctx| {
            written("codec-full", |w, strip| {
                write_full_window(ctx, WIN, None, w, strip).unwrap()
            })
        });
        let mut d = Dec::over(&enc);
        let back = read_full_window(&mut d, image.len()).unwrap();
        assert!(back == image, "full image did not round-trip");
        assert_eq!(d.left(), 0);
        enc.len()
    }

    #[test]
    fn full_image_edge_cases_roundtrip() {
        // all-zero: the length and one zero run
        assert_eq!(full_roundtrip(&vec![0u8; 3 * STRIP_BYTES]), 8 + 8);
        // a window shorter than a strip, data up to its last word
        let mut short = vec![0u8; 1024];
        short[8] = 1;
        short[512] = 2;
        short[1016..].fill(0xFF);
        full_roundtrip(&short);
        // every word data: one run per strip
        let dense: Vec<u8> = (0..2 * STRIP_BYTES + 64)
            .map(|i| (i % 251) as u8 | 1)
            .collect();
        assert_eq!(full_roundtrip(&dense), 8 + dense.len() + 3 * 8);
        // a zero run spanning several strips stays ONE run: first and
        // last word data, everything between zero
        let mut gap = vec![0u8; 3 * STRIP_BYTES + 64];
        gap[0] = 7;
        let last = gap.len() - 8;
        gap[last] = 9;
        assert_eq!(full_roundtrip(&gap), 8 + (8 + 8) + (8 + 8));
        // data straddling a strip boundary, zeros on both sides
        let mut straddle = vec![0u8; 2 * STRIP_BYTES];
        straddle[STRIP_BYTES - 24..STRIP_BYTES + 40].fill(0x5A);
        assert_eq!(full_roundtrip(&straddle), 8 + (8 + 24) + (8 + 40) + 8);
        // the empty window: a length and nothing else
        assert_eq!(full_roundtrip(&[]), 8);
    }

    #[test]
    fn zero_runs_split_at_u32_max_instead_of_wrapping() {
        let enc = written("codec-split", |w, _| {
            let mut zeros = 2 * u32::MAX as u64 + 5;
            w.run(&mut zeros, &[0xAB; 16]).unwrap();
            assert_eq!(zeros, 0);
        });
        let mut d = Dec::over(&enc);
        let mut runs = Vec::new();
        for _ in 0..3 {
            runs.push((d.u32().unwrap(), d.u32().unwrap()));
        }
        assert_eq!(runs, vec![(u32::MAX, 0), (u32::MAX, 0), (5, 2)]);
        assert_eq!(d.left(), 16);
    }

    /// Little-endian concatenation of 32-bit fields.
    fn u32s(fields: &[u32]) -> Vec<u8> {
        fields.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    #[test]
    fn hostile_window_sections_are_typed_errors() {
        let full = |len: u64, runs: &[u32], want: usize| {
            let mut b = len.to_le_bytes().to_vec();
            b.extend(u32s(runs));
            b.resize(b.len() + 64, 0xAA);
            read_full_window(&mut Dec::over(&b), want)
        };
        assert!(full(64, &[0, 8], 64).is_ok());
        // a length that is not the layout's is refused before any
        // allocation, however large it claims to be
        assert!(full(u64::MAX, &[0, 8], 64).is_err());
        assert!(full(72, &[0, 9], 64).is_err());
        // runs that overflow the window, make no progress, or promise
        // more data than the file holds
        assert!(full(64, &[1, 8], 64).is_err());
        assert!(full(64, &[u32::MAX, u32::MAX], 64).is_err());
        assert!(full(64, &[0, 0], 64).is_err());
        assert!(full(1 << 20, &[0, 1 << 17], 1 << 20).is_err());

        let postings = |fields: &[u32]| read_postings(&mut Dec::over(&u32s(fields)));
        assert!(postings(&[1, 7, 1, 0, 5, 0, 6, 0]).is_ok());
        assert!(
            postings(&[u32::MAX]).is_err(),
            "index count beyond the input"
        );
        assert!(
            postings(&[1, 7, u32::MAX, u32::MAX]).is_err(),
            "posting count beyond the input"
        );
        assert!(
            postings(&[1, 7, 2, 0, 5, 0, 6, 0]).is_err(),
            "one posting short"
        );
    }
}
