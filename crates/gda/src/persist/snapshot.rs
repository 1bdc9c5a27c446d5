//! The per-rank snapshot file codec (format v6): written and read in one
//! pass each, through `O(strip)` memory.
//!
//! ```text
//! header    magic[8] version:u32 | id:u64 rank:u32 nranks:u32 | config | kind:u8
//! full      4 × window:  len:u64, then runs  zeros:u32 data:u32 data×8 bytes
//!           until `len` is covered (counts are in words; a zero run longer
//!           than u32::MAX words is split into several runs with data = 0)
//! delta     base:u64 chunk:u32, then 4 × window:  len:u64 runs:u32, then runs
//!           first_chunk:u32 n_chunks:u32 bytes — the bytes of chunks
//!           first .. first+n, cut at the window's end
//! postings  indexes:u32, then per index  id:u32 count:u64 (vertex:u64 app:u64)×count
//! trailer   checksum:u64 over every byte before it
//! ```
//!
//! The **writer** pushes these sections through a buffered file handle
//! that feeds the [`Checksum`] on the way: a full image is zero-run-length
//! encoded strip by strip straight out of the window, a delta copies runs
//! of adjacent dirty chunks straight out of the window; no window, and
//! no file, is ever materialized in memory. The **reader** first streams
//! the whole file through the checksum ([`verify_file`] — also the
//! maintenance verifier), and only then decodes it: a full image's data
//! runs are read straight into the zero-initialized window image, a
//! delta's runs straight into the image they patch. One decoder
//! ([`read_rank_snapshot_chain`]) serves recovery at every rank count.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use gdi::{AppVertexId, GdiError, GdiResult};
use rma::{RankCtx, WinId};

use super::format::{
    check_file_header, io_err, Checksum, Dec, Enc, FILE_HEADER_BYTES, FORMAT_VERSION,
    MANIFEST_MAGIC, SNAP_MAGIC,
};
use super::{decode_cfg, encode_cfg, publish_tmp, PersistStore};
use crate::config::{GdaConfig, WIN_DATA, WIN_INDEX, WIN_SYSTEM, WIN_USAGE};
use crate::db::GdaRank;
use crate::dptr::DPtr;
use crate::faults::{self, FaultMode};
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

/// The engine's windows in the order snapshot files carry them (which
/// is `WinId` order, the order the fabric tracks dirty bitmaps in).
pub(super) const ALL_WINDOWS: [WinId; 4] = [WIN_DATA, WIN_USAGE, WIN_SYSTEM, WIN_INDEX];

/// Snapshot-kind byte: a self-contained full image.
const SNAP_FULL: u8 = 0;
/// Snapshot-kind byte: a delta patch over the previous chain member.
const SNAP_DELTA: u8 = 1;

/// The byte lengths of [`ALL_WINDOWS`] under `cfg`.
pub(super) fn window_bytes(cfg: &GdaConfig) -> [usize; 4] {
    [
        cfg.data_bytes(),
        cfg.usage_bytes(),
        cfg.system_bytes(),
        cfg.index_bytes(),
    ]
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
/// full image, one strip at a time. A zero run carries over strip
/// boundaries; a data run ends at one (its length precedes its bytes).
fn write_full_window(
    ctx: &RankCtx,
    win: WinId,
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

/// Stream the dirty part of this rank's instance of `win`: every run of
/// adjacent set bits in `bitmap` as one `(first chunk, chunk count)`
/// header and the bytes of that range, copied straight from the window.
/// Returns the number of chunks shipped.
fn write_delta_window(
    ctx: &RankCtx,
    win: WinId,
    bitmap: &[u64],
    w: &mut SnapWriter,
    strip: &mut [u8],
) -> GdiResult<u64> {
    let chunk = ctx.dirty_chunk_bytes();
    let len = ctx.win_len_bytes(win);
    let runs = || rma::dirty::set_runs(bitmap, len.div_ceil(chunk));
    w.u64(len as u64)?;
    w.u32(runs().count() as u32)?;
    let mut shipped = 0u64;
    for (first, n) in runs() {
        w.u32(first as u32)?;
        w.u32(n as u32)?;
        let end = ((first + n) * chunk).min(len);
        let mut off = first * chunk;
        while off < end {
            let buf = &mut strip[..STRIP_BYTES.min(end - off)];
            ctx.get_bytes(win, ctx.rank(), off, buf);
            w.put(buf)?;
            off += buf.len();
        }
        shipped += n as u64;
    }
    Ok(shipped)
}

/// What a delta checkpoint ships for one rank: the chain member it
/// patches and the drained dirty bitmaps (one per window, in
/// [`ALL_WINDOWS`] order).
pub(super) struct DeltaSpec<'a> {
    pub(super) base: u64,
    pub(super) bitmaps: &'a [Vec<u64>],
}

/// Write one rank's snapshot file — a self-contained full image, or
/// (with `delta`) only the chunks whose dirty bits are set — to a tmp
/// file, then rename it into place. Returns `(file bytes, chunks
/// shipped)`; a full image reports 0 chunks.
pub(super) fn write_rank_snapshot(
    eng: &GdaRank,
    store: &PersistStore,
    id: u64,
    dir: &Path,
    delta: Option<&DeltaSpec<'_>>,
) -> GdiResult<(u64, u64)> {
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
    match delta {
        None => head.u8(SNAP_FULL),
        Some(d) => {
            head.u8(SNAP_DELTA);
            head.u64(d.base);
            head.u32(ctx.dirty_chunk_bytes() as u32);
        }
    }
    w.put(&head.buf)?;

    let mut strip = vec![0u8; STRIP_BYTES];
    let mut shipped = 0u64;
    for win in ALL_WINDOWS {
        match delta {
            None => write_full_window(ctx, win, &mut w, &mut strip)?,
            Some(d) => {
                shipped += write_delta_window(ctx, win, &d.bitmaps[win.0], &mut w, &mut strip)?
            }
        }
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
    Ok((bytes, shipped))
}

// ---------------------------------------------------------------------
// reader
// ---------------------------------------------------------------------

/// One rank's decoded snapshot chain: the four window images (in
/// [`ALL_WINDOWS`] order: data, usage, system, index) plus the rank's
/// index postings. Recovery lifts the logical contents out of the
/// images; nothing puts them back into windows verbatim.
pub(crate) struct RankSnapshot {
    pub(crate) windows: Vec<Vec<u8>>,
    pub(crate) postings: Vec<(IndexId, Vec<Posting>)>,
    pub(crate) bytes: u64,
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

/// Decode one window's delta runs straight into the image they patch.
fn patch_delta_window<R: Read>(d: &mut Dec<R>, chunk: u64, img: &mut [u8]) -> GdiResult<()> {
    let len = img.len() as u64;
    if d.u64()? != len {
        return Err(GdiError::Io("delta window size mismatch".into()));
    }
    for _ in 0..d.u32()? {
        let first = d.u32()? as u64;
        let n = d.u32()? as u64;
        // `first` and `chunk` are 32-bit values, so the product cannot
        // overflow; every chunk of the run must start inside the window
        let off = first * chunk;
        if n == 0 || off >= len || n > (len - off).div_ceil(chunk) {
            return Err(GdiError::Io("delta chunk out of window bounds".into()));
        }
        let end = (off + n * chunk).min(len);
        d.fill(&mut img[off as usize..end as usize])?;
    }
    Ok(())
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

/// Verify, then decode, the snapshot file of checkpoint `id`, shard
/// `rank`, onto `snap`: the chain base (`prev == None`) must be a full
/// image and fills `snap.windows`; every later member must be a delta
/// on `prev` and patches them in place. `layout` is the config the
/// shard was written under — no live fabric needed.
fn fold_snapshot_file(
    store: &PersistStore,
    id: u64,
    rank: usize,
    layout: &GdaConfig,
    nranks: usize,
    prev: Option<u64>,
    snap: &mut RankSnapshot,
) -> GdiResult<()> {
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
    match (d.u8()?, prev) {
        (SNAP_FULL, None) => {
            for want in window_bytes(layout) {
                snap.windows.push(read_full_window(&mut d, want)?);
            }
        }
        (SNAP_DELTA, Some(prev)) => {
            if d.u64()? != prev {
                return Err(GdiError::Io("delta does not chain onto predecessor".into()));
            }
            let chunk = d.u32()? as u64;
            if chunk < 8 {
                return Err(GdiError::Io("bad delta chunk size".into()));
            }
            for img in &mut snap.windows {
                patch_delta_window(&mut d, chunk, img)?;
            }
        }
        (SNAP_FULL, Some(_)) => {
            return Err(GdiError::Io("snapshot chain member is not a delta".into()))
        }
        (SNAP_DELTA, None) => {
            return Err(GdiError::Io(
                "snapshot chain base is not a full image".into(),
            ))
        }
        _ => return Err(GdiError::Io("unknown snapshot kind".into())),
    }
    // every file carries the rank's full posting set: the last one wins
    snap.postings = read_postings(&mut d)?;
    if d.left() != 0 {
        return Err(GdiError::Io("trailing bytes in rank snapshot".into()));
    }
    snap.bytes += file_len;
    Ok(())
}

/// Fold the published snapshot chain into one logical rank image: the
/// full base restores every window verbatim, each delta overlays its
/// dirty runs in chain order, and the *last* file's postings win.
/// Recovery reads every shard through here.
pub(crate) fn read_rank_snapshot_chain(
    store: &PersistStore,
    chain: &[u64],
    rank: usize,
    layout: &GdaConfig,
    nranks: usize,
) -> GdiResult<RankSnapshot> {
    if chain.is_empty() {
        return Err(GdiError::Io("empty snapshot chain".into()));
    }
    let mut snap = RankSnapshot {
        windows: Vec::with_capacity(ALL_WINDOWS.len()),
        postings: Vec::new(),
        bytes: 0,
    };
    let mut prev = None;
    for &id in chain {
        fold_snapshot_file(store, id, rank, layout, nranks, prev, &mut snap)?;
        prev = Some(id);
    }
    Ok(snap)
}

/// The body of [`PersistStore::verify_chain`]: every file of the
/// published chain that belongs to `rank` through [`verify_file`].
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
    for id in store.chain() {
        let dir = store.ckpt_dir(id);
        check(
            &dir.join(format!("rank-{rank}.snap")),
            SNAP_MAGIC,
            "snapshot",
        );
        if rank == 0 {
            check(&dir.join("manifest.bin"), MANIFEST_MAGIC, "manifest");
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
    /// `image`, with dirty tracking at `chunk` bytes and a clean map.
    fn with_window<T: Send>(image: &[u8], chunk: usize, f: impl Fn(&RankCtx) -> T + Sync) -> T {
        let fabric = FabricBuilder::new(1)
            .cost(CostModel::zero())
            .dirty_chunk(chunk)
            .window(image.len())
            .build();
        let mut out = fabric.run(|ctx| {
            ctx.put_bytes(WIN, 0, 0, image);
            ctx.take_dirty(0);
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
        let enc = with_window(image, 64, |ctx| {
            written("codec-full", |w, strip| {
                write_full_window(ctx, WIN, w, strip).unwrap()
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

    #[test]
    fn delta_runs_roundtrip_up_to_the_last_partial_chunk() {
        const CHUNK: usize = 64;
        // ten whole chunks and a partial eleventh of 24 bytes
        let base: Vec<u8> = (0..10 * CHUNK + 24).map(|i| (i % 200) as u8).collect();
        let (enc, shipped, now) = with_window(&base, CHUNK, |ctx| {
            ctx.put_bytes(WIN, 0, 3, &[0xEE; 5]); // chunk 0
            ctx.put_bytes(WIN, 0, 3 * CHUNK + 60, &[0xDD; 2 * CHUNK]); // chunks 3..=5
            ctx.put_u64(WIN, 0, (8 * CHUNK) / 8, 0x1234); // chunk 8
            ctx.put_bytes(WIN, 0, 9 * CHUNK + 1, &[0xCC; CHUNK + 20]); // chunks 9..=10
            let bitmap = ctx.take_dirty(0).remove(0);
            let mut shipped = 0;
            let enc = written("codec-delta", |w, strip| {
                shipped = write_delta_window(ctx, WIN, &bitmap, w, strip).unwrap();
            });
            let mut now = vec![0u8; base.len()];
            ctx.get_bytes(WIN, 0, 0, &mut now);
            (enc, shipped, now)
        });
        assert_eq!(shipped, 1 + 3 + 1 + 2);
        // len, run count, three run headers, 1 + 3 + 3 chunks of bytes
        // of which the last is the partial one
        assert_eq!(enc.len(), 8 + 4 + 3 * 8 + 6 * CHUNK + 24);
        let mut img = base.clone();
        let mut d = Dec::over(&enc);
        patch_delta_window(&mut d, CHUNK as u64, &mut img).unwrap();
        assert_eq!(d.left(), 0);
        assert!(
            img == now && img != base,
            "delta did not reproduce the window"
        );
    }

    #[test]
    fn a_delta_run_longer_than_a_strip_is_copied_in_pieces() {
        const CHUNK: usize = 512;
        let base = vec![1u8; 2 * STRIP_BYTES + 3 * CHUNK];
        let (enc, shipped) = with_window(&base, CHUNK, |ctx| {
            let fresh = vec![2u8; base.len() - CHUNK];
            ctx.put_bytes(WIN, 0, CHUNK, &fresh);
            let bitmap = ctx.take_dirty(0).remove(0);
            let mut shipped = 0;
            let enc = written("codec-long", |w, strip| {
                shipped = write_delta_window(ctx, WIN, &bitmap, w, strip).unwrap();
            });
            (enc, shipped)
        });
        assert_eq!(shipped as usize, base.len() / CHUNK - 1);
        let mut img = base.clone();
        patch_delta_window(&mut Dec::over(&enc), CHUNK as u64, &mut img).unwrap();
        assert!(img[..CHUNK].iter().all(|b| *b == 1) && img[CHUNK..].iter().all(|b| *b == 2));
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

        let delta = |len: u64, fields: &[u32], img: &mut [u8]| {
            let mut b = len.to_le_bytes().to_vec();
            b.extend(u32s(fields));
            b.resize(b.len() + 256, 0xBB);
            patch_delta_window(&mut Dec::over(&b), 64, img)
        };
        let mut img = vec![0u8; 3 * 64 + 8];
        delta(200, &[1, 2, 2], &mut img).unwrap();
        assert!(img[..128].iter().all(|b| *b == 0) && img[128..].iter().all(|b| *b == 0xBB));
        assert!(delta(208, &[0], &mut img).is_err(), "wrong window length");
        assert!(
            delta(200, &[1, 4, 1], &mut img).is_err(),
            "starts past the end"
        );
        assert!(
            delta(200, &[1, 3, 2], &mut img).is_err(),
            "second chunk past the end"
        );
        assert!(delta(200, &[1, 0, 0], &mut img).is_err(), "empty run");
        assert!(delta(200, &[1, u32::MAX, u32::MAX], &mut img).is_err());
        assert!(
            delta(200, &[u32::MAX, 0, 1], &mut img).is_err(),
            "count outruns the file"
        );

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
