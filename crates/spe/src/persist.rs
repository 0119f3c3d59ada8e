//! Byte-canonical persistence of window-store snapshots.
//!
//! The checkpoint path commits [`Snapshot::Inline`](crate::state::Snapshot)
//! window-store snapshots by default — cheap `Arc` shares that cannot leave the
//! process. A [`WindowPersister`] turns such a snapshot into a **canonical byte
//! container** (and back), which is what lets a durable backend carry aggregate
//! state — including each operator's slice of the provenance graph — across a
//! process death.
//!
//! The container layout (`GLWS`, version 1) is deliberately dumb so that a
//! store can diff two epochs without knowing the key, payload or metadata types:
//!
//! ```text
//! "GLWS" | version u8 | watermark_ms u64 | late_tuples u64 | entry_count u32
//! entry*: start_ms u64 | key_len u32 | key bytes | occ_count u32
//!         occ*: occ_len u32 | occ bytes
//! ```
//!
//! Entries appear in deterministic order (window start ascending, then encoded
//! group key in `K: Ord` order), one entry per open window-instance buffer.
//! Because [`WindowStore::insert`](crate::window::WindowStore::insert) only ever
//! *appends* occurrences to a live buffer and
//! [`close_up_to`](crate::window::WindowStore::close_up_to) removes whole
//! entries, a surviving entry's occurrence list in epoch `e+1` is an extension
//! of its list in epoch `e` — the prefix property incremental snapshot diffs
//! rely on (see `genealog-store`).
//!
//! Keys, payloads and every integer go through the one value codec
//! ([`crate::codec`]): a type that is [`Encode`] + [`Decode`] — i.e. shippable
//! over a link — is durable in a window buffer too. The container walk (entry
//! loop, occurrence framing, `ts | stimulus | payload`) is written once,
//! [`encode_snapshot`] / [`decode_snapshot`]; the persisters differ only in the
//! hook that writes an occurrence's metadata behind its payload. Torn, truncated
//! or trailing bytes decode to a [`CodecError`] — never a panic, never zero-fill.

use std::sync::Arc;

use crate::codec::{put_bytes, CodecError, Decode, Encode, Reader};
use crate::time::Timestamp;
use crate::tuple::GTuple;
use crate::window::WindowStoreSnapshot;

/// Leading magic of an encoded window-store container.
pub const CONTAINER_MAGIC: [u8; 4] = *b"GLWS";
/// Container format version.
pub const CONTAINER_VERSION: u8 = 1;
/// Fixed container header: magic + version + watermark + late count + entry count.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Appends an occurrence list: `occ_count u32 | (occ_len u32 | occ bytes)*`.
pub fn put_occurrences<O: AsRef<[u8]>>(out: &mut Vec<u8>, occurrences: &[O]) {
    (occurrences.len() as u32).encode(out);
    for occ in occurrences {
        put_bytes(out, occ.as_ref());
    }
}

/// Reads an occurrence list written by [`put_occurrences`], borrowing the records.
///
/// # Errors
/// [`CodecError`] when the list is cut or its count cannot fit the input.
pub fn read_occurrences<'a>(reader: &mut Reader<'a>) -> Result<Vec<&'a [u8]>, CodecError> {
    // Every occurrence occupies at least its own length prefix, so the checked
    // count bounds the reservation by the size of the input itself.
    let count = reader.count(4)?;
    let mut occurrences = Vec::with_capacity(count);
    for _ in 0..count {
        occurrences.push(reader.bytes()?);
    }
    Ok(occurrences)
}

/// Incrementally builds one canonical container.
#[derive(Debug)]
pub struct ContainerWriter {
    buf: Vec<u8>,
    entries: u32,
}

impl ContainerWriter {
    /// Starts a container with the snapshot-level header.
    pub fn new(watermark_ms: u64, late_tuples: u64) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(&CONTAINER_MAGIC);
        buf.push(CONTAINER_VERSION);
        watermark_ms.encode(&mut buf);
        late_tuples.encode(&mut buf);
        0u32.encode(&mut buf); // entry count, patched in finish()
        ContainerWriter { buf, entries: 0 }
    }

    /// Appends one window-instance buffer: its start, encoded key and the
    /// already-encoded occurrence records in buffer order.
    pub fn entry<O: AsRef<[u8]>>(&mut self, start_ms: u64, key: &[u8], occurrences: &[O]) {
        self.entries += 1;
        start_ms.encode(&mut self.buf);
        put_bytes(&mut self.buf, key);
        put_occurrences(&mut self.buf, occurrences);
    }

    /// Seals the container (patches the entry count) and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let count = self.entries.to_le_bytes();
        self.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&count);
        self.buf
    }
}

/// One parsed window-instance buffer, borrowing the container's bytes.
#[derive(Debug)]
pub struct ContainerEntry<'a> {
    /// Window start, in milliseconds.
    pub start_ms: u64,
    /// The encoded group key.
    pub key: &'a [u8],
    /// The encoded occurrence records, in buffer order.
    pub occurrences: Vec<&'a [u8]>,
}

/// A fully parsed container.
#[derive(Debug)]
pub struct Container<'a> {
    /// The snapshot's watermark, in milliseconds.
    pub watermark_ms: u64,
    /// The snapshot's late-tuple count.
    pub late_tuples: u64,
    /// The window-instance buffers, in encoded order.
    pub entries: Vec<ContainerEntry<'a>>,
}

/// Whether `bytes` start like an encoded window-store container.
pub fn is_container(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN && bytes[..4] == CONTAINER_MAGIC && bytes[4] == CONTAINER_VERSION
}

/// Parses a container.
///
/// # Errors
/// [`CodecError`] for anything torn or malformed, trailing bytes included.
pub fn parse_container(bytes: &[u8]) -> Result<Container<'_>, CodecError> {
    if !is_container(bytes) {
        return Err(CodecError::Invalid("not a GLWS version 1 container"));
    }
    let mut reader = Reader::new(&bytes[5..]);
    let watermark_ms = u64::decode(&mut reader)?;
    let late_tuples = u64::decode(&mut reader)?;
    // An entry is at least `start_ms | key_len | occ_count`.
    let entry_count = reader.count(16)?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        entries.push(ContainerEntry {
            start_ms: u64::decode(&mut reader)?,
            key: reader.bytes()?,
            occurrences: read_occurrences(&mut reader)?,
        });
    }
    reader.finish()?;
    Ok(Container {
        watermark_ms,
        late_tuples,
        entries,
    })
}

/// The container walk, encode side: one entry per window-instance buffer, each
/// occurrence `ts | stimulus | payload` followed by whatever `meta` appends for
/// the occurrence's metadata. `None` as soon as `meta` refuses an occurrence.
pub fn encode_snapshot<K: Encode, T: Encode, M>(
    snapshot: &WindowStoreSnapshot<K, T, M>,
    meta: impl Fn(&M, &mut Vec<u8>) -> Option<()>,
) -> Option<Vec<u8>> {
    let mut writer = ContainerWriter::new(snapshot.watermark().as_millis(), snapshot.late_tuples());
    let mut key_buf = Vec::new();
    for (start, key, occurrences) in snapshot.entries() {
        key_buf.clear();
        key.encode(&mut key_buf);
        let occ_bytes = occurrences
            .iter()
            .map(|t| {
                let mut b = Vec::new();
                t.ts.encode(&mut b);
                t.stimulus.encode(&mut b);
                t.data.encode(&mut b);
                meta(&t.meta, &mut b)?;
                Some(b)
            })
            .collect::<Option<Vec<_>>>()?;
        writer.entry(start.as_millis(), &key_buf, &occ_bytes);
    }
    Some(writer.finish())
}

/// The container walk, decode side: the inverse of [`encode_snapshot`], with
/// `meta` reading back what the encode hook appended. Keys and occurrences must
/// fill their framed bytes exactly.
///
/// # Errors
/// [`CodecError`] for a malformed container, key or occurrence.
pub fn decode_snapshot<K: Decode + Ord, T: Decode, M>(
    bytes: &[u8],
    meta: impl Fn(&mut Reader<'_>) -> Result<M, CodecError>,
) -> Result<WindowStoreSnapshot<K, T, M>, CodecError> {
    let container = parse_container(bytes)?;
    let mut entries = Vec::with_capacity(container.entries.len());
    for entry in &container.entries {
        let mut reader = Reader::new(entry.key);
        let key = K::decode(&mut reader)?;
        reader.finish()?;
        let tuples = entry
            .occurrences
            .iter()
            .map(|occ| {
                let mut r = Reader::new(occ);
                let tuple = GTuple::new(
                    Timestamp::decode(&mut r)?,
                    u64::decode(&mut r)?,
                    T::decode(&mut r)?,
                    meta(&mut r)?,
                );
                r.finish()?;
                Ok(Arc::new(tuple))
            })
            .collect::<Result<Vec<_>, CodecError>>()?;
        entries.push((Timestamp::from_millis(entry.start_ms), key, tuples));
    }
    Ok(WindowStoreSnapshot::from_parts(
        entries,
        container.late_tuples,
        Timestamp::from_millis(container.watermark_ms),
    ))
}

/// Byte codec for one aggregate operator's window-store snapshot.
///
/// Registered type-erased on a
/// [`CheckpointConfig`](crate::state::CheckpointConfig); the Aggregate operator
/// looks its persister up by the snapshot's concrete `(K, T, M)` type at
/// barrier-commit time. `encode` may return `None` when the buffered state
/// cannot be carried across a process boundary (e.g. provenance pointers into
/// non-terminal upstream tuples); the operator then falls back to the inline,
/// process-local snapshot.
pub trait WindowPersister<K, T, M>: Send + Sync {
    /// Encodes a snapshot into a canonical container, or `None` when the state
    /// is not byte-encodable.
    fn encode(&self, snapshot: &WindowStoreSnapshot<K, T, M>) -> Option<Vec<u8>>;
    /// Decodes a container produced by [`encode`](WindowPersister::encode).
    fn decode(&self, bytes: &[u8]) -> Option<WindowStoreSnapshot<K, T, M>>;
}

/// Persister for provenance-free window state (`M = ()`): an occurrence is just
/// `ts | stimulus | payload`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlainWindowPersister;

impl<K, T> WindowPersister<K, T, ()> for PlainWindowPersister
where
    K: Encode + Decode + Ord,
    T: Encode + Decode,
{
    fn encode(&self, snapshot: &WindowStoreSnapshot<K, T, ()>) -> Option<Vec<u8>> {
        encode_snapshot(snapshot, |(), _| Some(()))
    }

    fn decode(&self, bytes: &[u8]) -> Option<WindowStoreSnapshot<K, T, ()>> {
        decode_snapshot(bytes, |_| Ok(())).ok()
    }
}
