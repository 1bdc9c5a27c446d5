//! The redo codec: what a committed transaction appends to its rank's
//! log, and how a log is read back.
//!
//! A frame is one commit: `[payload_len u32][checksum u64][payload]`,
//! the payload being the checkpoint generation the frame was appended
//! under, a record count and the records. A record is either a
//! [`RedoRecord::Put`] — an object's post-commit body as a byte
//! [`Splice`] over the version it overwrote, or over nothing (a whole
//! image) — or a [`RedoRecord::Delete`]. `persist/recover.rs` replays
//! them; the store in `persist/mod.rs` appends, seals and cuts the logs.

use std::io::Read;

use gdi::{GdiError, GdiResult};

use super::format::{Checksum, Dec, Enc};
use crate::holder::{le_u32, le_u64, Splice, EDGE_RECORD_BYTES};

/// One logical effect of a committed transaction, as appended to the
/// committing rank's redo log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RedoRecord {
    /// The object at `primary` has (new) post-commit state: the holder
    /// [`crate::holder::apply_splice`] makes of `splice` over the
    /// object's state at version `base` — or, `None`, over nothing.
    Put {
        /// Raw `DPtr` of the object's primary block (its internal id).
        primary: u64,
        /// Application vertex id (0 for edge holders).
        app_id: u64,
        /// Is this a heavyweight-edge holder?
        is_edge: bool,
        /// Post-commit holder version (strictly monotone per live
        /// object; replay applies only newer records).
        version: u64,
        /// The version the splice patches: the pre-image the committing
        /// writer overwrote. `None`: a whole image (a create, a
        /// collective writer's write, any write while the store is
        /// flagged unlogged).
        base: Option<u64>,
        /// The holder's body against `base`'s.
        splice: Splice,
    },
    /// The object at `primary` was deleted by the commit.
    Delete {
        /// Raw `DPtr` of the deleted object's primary block.
        primary: u64,
        /// Application vertex id (0 for edge holders).
        app_id: u64,
        /// Was this a heavyweight-edge holder?
        is_edge: bool,
        /// Version of the holder when it was deleted (replay deletes
        /// only objects at or below this version).
        version: u64,
    },
}

/// Record tags: a whole-image put, a delete, a put patching a base.
const TAG_WHOLE: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_PATCH: u8 = 3;

impl RedoRecord {
    fn encode(&self, enc: &mut Enc) {
        match self {
            RedoRecord::Put {
                primary,
                app_id,
                is_edge,
                version,
                base,
                splice,
            } => {
                enc.u8(if base.is_some() { TAG_PATCH } else { TAG_WHOLE });
                enc.u64(*primary);
                enc.u64(*app_id);
                enc.u8(*is_edge as u8);
                enc.u64(*version);
                if let Some(base) = base {
                    enc.u64(*base);
                    enc.u32(splice.at);
                    enc.u32(splice.cut);
                }
                enc.u32(splice.num_edges);
                enc.bytes(&splice.bytes);
            }
            RedoRecord::Delete {
                primary,
                app_id,
                is_edge,
                version,
            } => {
                enc.u8(TAG_DELETE);
                enc.u64(*primary);
                enc.u64(*app_id);
                enc.u8(*is_edge as u8);
                enc.u64(*version);
            }
        }
    }

    fn decode(dec: &mut Dec<&[u8]>) -> GdiResult<Self> {
        let tag = dec.u8()?;
        let primary = dec.u64()?;
        let app_id = dec.u64()?;
        let is_edge = dec.u8()? != 0;
        let version = dec.u64()?;
        let put = |base: Option<u64>, at, cut, dec: &mut Dec<&[u8]>| {
            let num_edges = dec.u32()?;
            let bytes = dec.bytes()?;
            // a whole image is checked here; a patch when it meets its
            // base (`holder::apply_splice`)
            let edges = u64::from(num_edges) * EDGE_RECORD_BYTES as u64;
            if base.is_none() && edges > bytes.len() as u64 {
                return Err(GdiError::Io("redo put: edge records past its body".into()));
            }
            let splice = Splice {
                at,
                cut,
                bytes,
                num_edges,
            };
            Ok(RedoRecord::Put {
                primary,
                app_id,
                is_edge,
                version,
                base,
                splice,
            })
        };
        match tag {
            TAG_WHOLE => put(None, 0, 0, dec),
            TAG_PATCH => {
                let base = dec.u64()?;
                let (at, cut) = (dec.u32()?, dec.u32()?);
                put(Some(base), at, cut, dec)
            }
            TAG_DELETE => Ok(RedoRecord::Delete {
                primary,
                app_id,
                is_edge,
                version,
            }),
            _ => Err(GdiError::Io("unknown redo record tag".into())),
        }
    }
}

/// Bytes of a redo frame's header: `[payload_len u32][checksum u64]`.
pub(super) const FRAME_HEADER_BYTES: usize = 12;

/// Smallest encoded [`RedoRecord`] (a delete: tag, primary, app id,
/// edge flag, version) — what bounds a frame's record count by its
/// payload length.
const MIN_RECORD_BYTES: u64 = 26;

/// Frame a batch of records (one committed transaction) for the log:
/// `[payload_len u32][checksum u64][payload]`, where the payload starts
/// with the checkpoint generation the frame was appended under. A full
/// checkpoint truncates the log at publish, so the generation is what
/// lets replay reject frames that predate the chain's base when a
/// truncation failed or the process crashed between publish and
/// truncate.
pub(super) fn encode_frame(records: &[RedoRecord], generation: u64) -> Vec<u8> {
    let payload_estimate: usize = records
        .iter()
        .map(|r| match r {
            // base, at, cut, num_edges, length word
            RedoRecord::Put { splice, .. } => MIN_RECORD_BYTES as usize + 24 + splice.bytes.len(),
            RedoRecord::Delete { .. } => MIN_RECORD_BYTES as usize,
        })
        .sum();
    // the header is reserved up front and patched once the payload
    // behind it is complete: one buffer, no copy
    let mut e = Enc::default();
    e.buf.reserve(FRAME_HEADER_BYTES + 12 + payload_estimate);
    e.buf.resize(FRAME_HEADER_BYTES, 0);
    e.u64(generation);
    e.u32(records.len() as u32);
    for r in records {
        r.encode(&mut e);
    }
    let (head, payload) = e.buf.split_at_mut(FRAME_HEADER_BYTES);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&Checksum::of(payload).to_le_bytes());
    e.buf
}

/// Decode one checksum-clean frame payload: its generation and records.
fn decode_frame(payload: &[u8]) -> GdiResult<(u64, Vec<RedoRecord>)> {
    let mut dec = Dec::over(payload);
    let generation = dec.u64()?;
    let count = dec.u32()? as u64;
    let mut frame = Vec::with_capacity(dec.count(count, MIN_RECORD_BYTES)?);
    for _ in 0..count {
        frame.push(RedoRecord::decode(&mut dec)?);
    }
    Ok((generation, frame))
}

/// Parse a log of `len` bytes into records, one frame at a time,
/// stopping at the first torn or corrupt frame: a frame length past the
/// log (checked before anything is allocated for it), a checksum
/// mismatch, or a payload that does not decode (a record count past the
/// payload, a record's byte length past the frame, a whole image whose
/// edge records overrun its body). Frames stamped with a generation
/// below `min_gen` parse but contribute no records: they describe
/// commits already captured by the image being replayed onto. Returns
/// the records and the byte length of the valid prefix (a recovery cuts
/// the live log there before anything appends to it again:
/// `PersistStore::cut_log`).
pub(super) fn parse_log(mut log: impl Read, len: u64, min_gen: u64) -> (Vec<RedoRecord>, u64) {
    let mut records = Vec::new();
    let mut payload = Vec::new();
    let mut head = [0u8; FRAME_HEADER_BYTES];
    let mut pos = 0u64;
    while log.read_exact(&mut head).is_ok() {
        let n = le_u32(&head, 0);
        let sum = le_u64(&head, 4);
        let end = pos + FRAME_HEADER_BYTES as u64 + u64::from(n);
        if end > len {
            break; // torn tail
        }
        payload.resize(n as usize, 0);
        if log.read_exact(&mut payload).is_err() || Checksum::of(&payload) != sum {
            break; // corrupt frame
        }
        let Ok((generation, frame)) = decode_frame(&payload) else {
            break;
        };
        if generation >= min_gen {
            records.extend(frame);
        }
        pos = end;
    }
    (records, pos)
}

/// A whole-image put of `bytes` (a serialized holder) — what a test
/// writes where the commit path would log a create.
#[cfg(test)]
pub(super) fn whole(primary: u64, app_id: u64, version: u64, bytes: &[u8]) -> RedoRecord {
    RedoRecord::Put {
        primary,
        app_id,
        is_edge: false,
        version,
        base: None,
        splice: crate::holder::splice(&[], bytes),
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::dptr::DPtr;
    use crate::holder::{splice, Holder, HEADER_BYTES};

    /// [`parse_log`] over an in-memory log.
    pub(crate) fn parse(log: &[u8], min_gen: u64) -> (Vec<RedoRecord>, usize) {
        let (records, valid) = parse_log(log, log.len() as u64, min_gen);
        (records, valid as usize)
    }

    #[test]
    fn redo_frame_roundtrip_and_torn_tail() {
        let mut pre = Holder::new_vertex(7);
        pre.add_property(gdi::PTypeId(3), &[1, 2, 3, 4, 5]);
        let mut post = pre.clone();
        post.set_property(gdi::PTypeId(3), &[1, 2, 9, 4, 5]);
        let records = vec![
            whole(DPtr::new(1, 256).raw(), 7, 3, pre.bytes()),
            RedoRecord::Put {
                primary: DPtr::new(1, 256).raw(),
                app_id: 7,
                is_edge: false,
                version: 4,
                base: Some(3),
                splice: splice(pre.bytes(), post.bytes()),
            },
            RedoRecord::Delete {
                primary: DPtr::new(0, 128).raw(),
                app_id: 9,
                is_edge: true,
                version: 11,
            },
        ];
        let mut log = encode_frame(&records[..2], 3);
        log.extend_from_slice(&encode_frame(&records[2..], 4));
        let full_len = log.len();
        let (parsed, len) = parse(&log, 0);
        assert_eq!(parsed, records);
        assert_eq!(len, full_len);
        // torn tail: drop the final byte — the last frame is ignored
        let (parsed, len) = parse(&log[..full_len - 1], 0);
        assert_eq!(parsed, records[..2]);
        assert!(len < full_len);
        // corrupt checksum: flip a payload byte of frame 2
        let mut bad = log.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let (parsed, _) = parse(&bad, 0);
        assert_eq!(parsed, records[..2]);
        // generation filter: frames below min_gen parse (their bytes
        // count toward the valid prefix) but contribute no records
        let (parsed, len) = parse(&log, 4);
        assert_eq!(parsed, records[2..]);
        assert_eq!(len, full_len);
        let (parsed, len) = parse(&log, 5);
        assert!(parsed.is_empty());
        assert_eq!(len, full_len);
    }

    /// A value update's put is the changed bytes plus the record's
    /// fixed fields — not the holder.
    #[test]
    fn a_patch_is_smaller_than_its_holder() {
        let mut pre = Holder::new_vertex(7);
        for i in 0..32 {
            pre.push_edge(crate::holder::EdgeRecord::lightweight(
                DPtr::new(0, 128 * i),
                0,
                gdi::Direction::Out,
            ));
        }
        pre.add_property(gdi::PTypeId(3), &5u64.to_le_bytes());
        let mut post = pre.clone();
        post.set_property(gdi::PTypeId(3), &6u64.to_le_bytes());
        let rec = RedoRecord::Put {
            primary: 1,
            app_id: 7,
            is_edge: false,
            version: 2,
            base: Some(1),
            splice: splice(pre.bytes(), post.bytes()),
        };
        let frame = encode_frame(&[rec], 1).len();
        let image = encode_frame(&[whole(1, 7, 2, post.bytes())], 1).len();
        assert!(frame < 80, "{frame} B");
        assert!(image > HEADER_BYTES + 32 * EDGE_RECORD_BYTES, "{image} B");
    }
}
