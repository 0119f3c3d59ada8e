//! The append-only segment record format and the torn-tail-tolerant scan.
//!
//! A segment file is a sequence of frames:
//!
//! ```text
//! frame:   payload_len u32 | crc32 u32 | payload
//! payload: participant_len u16 | participant utf8 | epoch u64 | kind u8
//!          [base_epoch u64 when kind = delta] | body_len u32 | body
//! ```
//!
//! All integers little-endian. A frame is assembled once, in place
//! ([`write_frame`]): head reserved, body written behind the payload head by the
//! caller, length and checksum patched in — or the frame withdrawn, if the
//! caller rejects the body it wrote. A crash can tear at most the **tail** of
//! the last segment: frames are appended in order, an fsync covers every frame
//! written to its file before it, and a segment is fsynced before its successor
//! is created, so every frame in front of one whose `put` returned is intact.
//! [`scan`] decodes frames until the first
//! length/CRC/structure failure and reports how many clean bytes it consumed —
//! the torn record is rejected wholesale (no panic, no zero-fill), mirroring
//! the wire layer's truncation handling.

use genealog_spe::codec::{put_framed, CodecError, Decode, Encode, Reader};

use crate::codec::crc32;

/// How a record's body relates to earlier records of the same participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// `body` is a complete snapshot (byte container or opaque bytes).
    Full,
    /// `body` is an incremental diff against the participant's snapshot for
    /// `base_epoch` (see [`crate::incremental`]).
    Delta {
        /// The epoch whose reconstructed container the delta applies to.
        base_epoch: u64,
    },
}

/// One durable snapshot record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The committing participant (operator name, scoped by the backend).
    pub participant: String,
    /// The epoch the snapshot belongs to.
    pub epoch: u64,
    /// Full snapshot or incremental delta.
    pub kind: RecordKind,
    /// The snapshot (or delta) bytes.
    pub body: Vec<u8>,
}

const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Bytes in front of a frame's payload: `payload_len u32 | crc32 u32`.
const FRAME_HEAD: usize = 8;

/// A frame never adds more than this to the participant name and the body it
/// carries (frame head, name length, epoch, kind, base epoch, body length).
pub(crate) const FRAME_OVERHEAD: usize = FRAME_HEAD + 2 + 8 + 1 + 8 + 4;

/// Appends a record's frame payload, the body written in place by `body` (the
/// participant name carries a `u16` length, unlike the codec's `String`).
fn put_payload<R>(
    out: &mut Vec<u8>,
    participant: &str,
    epoch: u64,
    kind: RecordKind,
    body: impl FnOnce(&mut Vec<u8>) -> R,
) -> R {
    (participant.len() as u16).encode(out);
    out.extend_from_slice(participant.as_bytes());
    epoch.encode(out);
    match kind {
        RecordKind::Full => KIND_FULL.encode(out),
        RecordKind::Delta { base_epoch } => {
            KIND_DELTA.encode(out);
            base_epoch.encode(out);
        }
    }
    put_framed(out, body)
}

impl Encode for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        put_payload(out, &self.participant, self.epoch, self.kind, |b| {
            b.extend_from_slice(&self.body);
        });
    }
}

impl Decode for Record {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let participant_len = usize::from(u16::decode(r)?);
        let participant = std::str::from_utf8(r.take(participant_len)?)
            .map_err(|_| CodecError::Invalid("participant name is not utf-8"))?
            .to_owned();
        let epoch = u64::decode(r)?;
        let kind = match u8::decode(r)? {
            KIND_FULL => RecordKind::Full,
            KIND_DELTA => RecordKind::Delta {
                base_epoch: u64::decode(r)?,
            },
            tag => {
                return Err(CodecError::Tag {
                    what: "record kind",
                    tag,
                })
            }
        };
        Ok(Record {
            participant,
            epoch,
            kind,
            body: r.bytes()?.to_vec(),
        })
    }
}

/// Appends one CRC-framed record to `out`, assembled in place: the frame head
/// is reserved, `body` writes the record body straight behind the payload head
/// (a snapshot copied once, or a delta streamed by
/// [`incremental::diff_into`](crate::incremental::diff_into)), then length and
/// checksum are patched in. `body` returns whether to keep what it wrote: a
/// rejected frame is withdrawn — `out` truncated back to where the frame began,
/// no checksum paid for — and `false` is returned.
pub fn write_frame(
    out: &mut Vec<u8>,
    participant: &str,
    epoch: u64,
    kind: RecordKind,
    body: impl FnOnce(&mut Vec<u8>) -> bool,
) -> bool {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEAD]);
    if !put_payload(out, participant, epoch, kind, body) {
        out.truncate(at);
        return false;
    }
    let payload = at + FRAME_HEAD;
    let len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..payload].copy_from_slice(&crc.to_le_bytes());
    true
}

/// Encodes one record as a CRC-framed segment frame.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut frame =
        Vec::with_capacity(FRAME_OVERHEAD + record.participant.len() + record.body.len());
    write_frame(
        &mut frame,
        &record.participant,
        record.epoch,
        record.kind,
        |b| {
            b.extend_from_slice(&record.body);
            true
        },
    );
    frame
}

/// Reads the frame at the front of `bytes`: the record and the frame's length.
fn read_frame(bytes: &[u8]) -> Result<(Record, usize), CodecError> {
    let mut frame = Reader::new(bytes);
    let payload_len = u32::decode(&mut frame)? as usize;
    let expected_crc = u32::decode(&mut frame)?;
    let payload = frame.take(payload_len)?;
    if crc32(payload) != expected_crc {
        return Err(CodecError::Invalid("segment frame checksum mismatch"));
    }
    let mut reader = Reader::new(payload);
    let record = Record::decode(&mut reader)?;
    reader.finish()?;
    Ok((record, 8 + payload_len))
}

/// Decodes the frame starting at `at`. Returns the record and the offset of
/// the next frame; `None` when the bytes at `at` are not one intact frame
/// (torn tail, flipped bits, or end of input).
pub fn decode_frame(bytes: &[u8], at: usize) -> Option<(Record, usize)> {
    let (record, len) = read_frame(bytes.get(at..)?).ok()?;
    Some((record, at + len))
}

/// The outcome of scanning one segment's bytes.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every intact record, in append order.
    pub records: Vec<Record>,
    /// Bytes consumed by intact frames (the clean prefix length).
    pub clean_bytes: usize,
    /// Whether bytes remained after the clean prefix — a torn or corrupt tail.
    pub torn: bool,
}

/// Scans a segment, stopping cleanly at the first torn or corrupt frame.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        match decode_frame(bytes, at) {
            Some((record, next)) => {
                records.push(record);
                at = next;
            }
            None => break,
        }
    }
    ScanOutcome {
        records,
        clean_bytes: at,
        torn: at < bytes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Record {
        Record {
            participant: format!("agg[{}]", i % 3),
            epoch: i,
            kind: if i % 4 == 3 {
                RecordKind::Delta { base_epoch: i - 1 }
            } else {
                RecordKind::Full
            },
            body: (0..(i as u8).wrapping_mul(7)).collect(),
        }
    }

    #[test]
    fn roundtrips_a_log_of_records() {
        let records: Vec<Record> = (0..10).map(sample).collect();
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_record(r));
        }
        let outcome = scan(&log);
        assert!(!outcome.torn);
        assert_eq!(outcome.clean_bytes, log.len());
        assert_eq!(outcome.records, records);
    }

    #[test]
    fn a_rejected_frame_is_withdrawn_whole() {
        let mut log = encode_record(&sample(5));
        let kept = log.clone();
        let rejected = write_frame(&mut log, "agg[0]", 6, RecordKind::Full, |b| {
            b.extend_from_slice(&[9; 300]);
            false
        });
        assert!(!rejected);
        assert_eq!(log, kept);
        assert_eq!(scan(&log).records, vec![sample(5)]);
    }

    #[test]
    fn truncation_keeps_the_clean_prefix_and_rejects_the_torn_record() {
        let records: Vec<Record> = (0..6).map(sample).collect();
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            log.extend_from_slice(&encode_record(r));
            boundaries.push(log.len());
        }
        for cut in 0..log.len() {
            let outcome = scan(&log[..cut]);
            // The scan recovers exactly the records whose frames fit before the cut.
            let intact = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(outcome.records.len(), intact, "cut at {cut}");
            assert_eq!(outcome.records[..], records[..intact]);
            assert_eq!(outcome.torn, cut != boundaries[intact]);
        }
    }

    #[test]
    fn bit_flip_in_payload_is_rejected_by_crc() {
        let mut frame = encode_record(&sample(2));
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(decode_frame(&frame, 0).is_none());
        // And the scan stops without panicking or inventing data.
        let outcome = scan(&frame);
        assert!(outcome.records.is_empty());
        assert!(outcome.torn);
    }
}
