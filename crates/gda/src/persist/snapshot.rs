//! The per-rank snapshot file codec (format v12; its layout dates from v11): written and read in one
//! pass each, through `O(strip)` memory. Only a chain's base — a full
//! checkpoint — has snapshot files; a delta is its sealed redo segments
//! (`persist/mod.rs`, "Incremental (delta) checkpoints").
//!
//! ```text
//! header    magic[8] version:u32 | id:u64 rank:u32 nranks:u32
//! records   per live chain  primary:u64 len:u32 holder[len]
//! postings  indexes:u32, then per index  id:u32 count:u64 (vertex:u64 app:u64)×count
//! count     records:u64
//! trailer   checksum:u64 over every byte before it
//! ```
//!
//! **A snapshot is the live set as records.** Recovery needs the `(old
//! primary, holder bytes)` pair of every live chain and the index
//! postings, nothing else: not where a holder's blocks sat in the window
//! (BGDL blocks decide how a holder sits in an RMA window, not how it is
//! stored), not the DHT (recovery inserts every vertex afresh), not the
//! free lists, the lock and counter words, a free block or an MVCC
//! archive. So a full checkpoint writes one record per chain
//! [`hio::walk_live`] visits, as it visits it, and recovery reads the
//! records straight into its object map (`persist/recover.rs`, which
//! also checks what the records say about each other). The header
//! carries no config: the manifest does.
//!
//! The record count comes last because the writer learns it only when
//! its walk ends; the reader, which has the whole file, reads it first.
//!
//! The **writer** pushes these sections through a buffered file handle
//! that feeds the [`Checksum`] on the way; no file is ever materialized
//! in memory. The **reader** first streams the whole file through the
//! checksum ([`verify_file`] — also the maintenance verifier), and only
//! then decodes it, handing each record to its caller. Every count and
//! length is checked against the bytes that remain before anything is
//! allocated for it, and a record whose primary is not on the file's
//! rank is refused.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use gdi::{AppVertexId, GdiError, GdiResult};

use super::format::{
    check_file_header, io_err, Checksum, Dec, FILE_HEADER_BYTES, FORMAT_VERSION, MANIFEST_MAGIC,
    SNAP_MAGIC,
};
use super::{parse_log, publish_tmp, PersistStore};
use crate::db::GdaRank;
use crate::dptr::DPtr;
use crate::faults::{self, FaultMode};
use crate::hio;
use crate::index::{IndexId, Posting};

/// Bytes of file per step of a snapshot write or of a checksum pass:
/// the one buffer a checkpoint or a verify holds. A constant, not an
/// option: large enough that a `write(2)` per strip is noise and small
/// enough to stay in the L2 cache between the copy, the checksum and
/// the write — 64 KiB, 256 KiB and 1 MiB measure within 5 % of each
/// other on the benchmark host, and nothing a deployment knows would
/// pick a better value.
pub const STRIP_BYTES: usize = 256 * 1024;

/// Bytes of a record's frame in front of its holder: primary and length.
const RECORD_HEAD_BYTES: u64 = 12;

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

    /// The header of shard `rank` of `nranks` of full checkpoint `id`.
    fn header(&mut self, id: u64, rank: usize, nranks: usize) -> GdiResult<()> {
        self.put(SNAP_MAGIC)?;
        self.u32(FORMAT_VERSION)?;
        self.u64(id)?;
        self.u32(rank as u32)?;
        self.u32(nranks as u32)
    }

    /// One record: the chain's primary, its holder's length, its holder.
    fn record(&mut self, primary: DPtr, holder: &[u8]) -> GdiResult<()> {
        let len = u32::try_from(holder.len())
            .map_err(|_| GdiError::Io("holder too long for a snapshot record".into()))?;
        self.u64(primary.raw())?;
        self.u32(len)?;
        self.put(holder)
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

/// Collective, quiesced: write this rank's snapshot file — a record per
/// chain of its live set, as [`hio::walk_live`] visits it, then its
/// index postings — to a tmp file, then rename it into place. Returns
/// the file's bytes. A rank whose file fails (or whose `snap.write`
/// fault fires) still walks to the end, so every rank leaves the walk's
/// exchange together; the checkpoint votes on the outcome.
pub(super) fn write_rank_snapshot(
    eng: &GdaRank,
    store: &PersistStore,
    id: u64,
    dir: &Path,
) -> GdiResult<u64> {
    let ctx = eng.ctx();
    let me = eng.rank();
    let fault = store.probe_fault(faults::SNAP_WRITE, me);
    let torn_at = match fault {
        Some(FaultMode::TornWrite(k)) => Some(k),
        _ => None,
    };
    let path = dir.join(format!("rank-{me}.snap"));
    let tmp = path.with_extension("tmp");
    let mut out = match fault {
        Some(FaultMode::Error) => Err(GdiError::Io("injected checkpoint failure".into())),
        _ => File::create(&tmp)
            .map_err(|e| io_err("create snapshot tmp", e))
            .and_then(|file| {
                let mut w = SnapWriter::new(file, torn_at);
                w.header(id, me, eng.nranks())?;
                Ok(w)
            }),
    };
    let mut records = 0u64;
    let walked = hio::walk_live(ctx, eng.cfg(), |c| {
        if let Ok(w) = &mut out {
            records += 1;
            if let Err(e) = w.record(c.primary, c.bytes) {
                out = Err(e);
            }
        }
    });
    walked?;
    let mut w = out?;
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
    w.u64(records)?;
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

/// What one rank's snapshot file holds besides its records (which
/// [`read_rank_snapshot`] hands over one by one): the rank's index
/// postings, and the file's length.
pub(crate) struct RankSnapshot {
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
/// `rank` of `nranks`, handing `record` each record's primary and holder
/// bytes in file order (its error ends the read). No live fabric needed:
/// recovery reads every shard's chain base through here.
pub(crate) fn read_rank_snapshot(
    store: &PersistStore,
    id: u64,
    rank: usize,
    nranks: usize,
    mut record: impl FnMut(DPtr, Vec<u8>) -> GdiResult<()>,
) -> GdiResult<RankSnapshot> {
    let path = store.ckpt_dir(id).join(format!("rank-{rank}.snap"));
    let flip = match store.probe_fault(faults::SNAP_READ, rank) {
        Some(FaultMode::BitFlip(k)) => Some(k),
        Some(_) => return Err(GdiError::Io("injected snapshot read failure".into())),
        None => None,
    };
    // the whole file is checksum-clean before any byte of it is decoded
    let file_len = verify_file(&path, SNAP_MAGIC, "snapshot", flip)?;
    let read_err = |e| io_err("read snapshot", e);
    let mut file = File::open(&path).map_err(read_err)?;
    // (verify_file vouched for at least the 20 bytes of header and trailer)
    let mut count = [0u8; 8];
    file.seek(SeekFrom::Start(file_len - 16))
        .and_then(|_| file.read_exact(&mut count))
        .and_then(|()| file.rewind())
        .map_err(read_err)?;
    let mut d = Dec::new(BufReader::with_capacity(STRIP_BYTES, file), file_len - 16);
    d.array::<FILE_HEADER_BYTES>()?;
    if d.u64()? != id || d.u32()? as usize != rank || d.u32()? as usize != nranks {
        return Err(GdiError::Io("rank snapshot identity mismatch".into()));
    }
    let records = d.count(u64::from_le_bytes(count), RECORD_HEAD_BYTES)?;
    for _ in 0..records {
        let primary = DPtr::from_raw(d.u64()?);
        if primary.is_null() || primary.rank() != rank {
            return Err(GdiError::Io("snapshot record off its shard's rank".into()));
        }
        let len = d.u32()?;
        let mut holder = vec![0u8; d.count(len.into(), 1)?];
        d.fill(&mut holder)?;
        record(primary, holder)?;
    }
    let postings = read_postings(&mut d)?;
    if d.left() != 0 {
        return Err(GdiError::Io("trailing bytes in rank snapshot".into()));
    }
    Ok(RankSnapshot {
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
mod tests {
    use super::*;
    use crate::persist::{tests::TestDir, PersistOptions};

    /// A records file through the writer and back through the reader at
    /// its edge cases: no record at all, and a holder longer than two
    /// strips (it crosses the write buffer and the read buffer) after a
    /// short one. The file is exactly header + Σ(12 + holder) + postings
    /// + count + trailer.
    #[test]
    fn full_image_edge_cases_roundtrip() {
        let dir = TestDir::new("codec-records");
        let store = PersistStore::new(PersistOptions::new(&dir.0), 2, 0, Vec::new());
        fs::create_dir_all(store.ckpt_dir(1)).unwrap();
        let big: Vec<u8> = (0..2 * STRIP_BYTES + 5).map(|i| (i % 251) as u8).collect();
        let short = (DPtr::new(1, 512), vec![7u8; 3]);
        for records in [vec![], vec![short, (DPtr::new(1, 1024), big)]] {
            let file = File::create(store.ckpt_dir(1).join("rank-1.snap")).unwrap();
            let mut w = SnapWriter::new(file, None);
            w.header(1, 1, 2).unwrap();
            for (primary, holder) in &records {
                w.record(*primary, holder).unwrap();
            }
            w.u32(0).unwrap();
            w.u64(records.len() as u64).unwrap();
            let (_, bytes) = w.finish().unwrap();
            let held: usize = records.iter().map(|(_, h)| 12 + h.len()).sum();
            assert_eq!(bytes as usize, 28 + held + 4 + 8 + 8);
            let mut back = Vec::new();
            let snap = read_rank_snapshot(&store, 1, 1, 2, |primary, holder| {
                back.push((primary, holder));
                Ok(())
            })
            .unwrap();
            assert!(back == records, "the records did not round-trip");
            assert!(snap.postings.is_empty());
            assert_eq!(snap.bytes, bytes);
        }
    }

    /// Little-endian concatenation of 32-bit fields.
    fn u32s(fields: &[u32]) -> Vec<u8> {
        fields.iter().flat_map(|f| f.to_le_bytes()).collect()
    }

    #[test]
    fn hostile_posting_sections_are_typed_errors() {
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
