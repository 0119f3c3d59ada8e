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
//!
//! The encode runs on the operator's thread at every barrier, so it does each
//! byte's work once: keys and occurrences are written straight into the
//! container behind a back-patched length prefix ([`put_framed`]) — no buffer
//! per occurrence, no buffer per key — and the finished `Vec` is trimmed to
//! `capacity == len`, because the backend keeps it for as long as the epoch
//! lives. The number of allocations does not depend on how many occurrences are
//! buffered (`tests/checkpoint_allocs.rs`). A store that diffs two epochs reads
//! them back the same way, through [`RawContainer`]: one pass, occurrence
//! records left framed, nothing collected.

use std::sync::Arc;

use crate::codec::{put_bytes, put_framed, CodecError, Decode, Encode, Reader};
use crate::time::Timestamp;
use crate::tuple::GTuple;
use crate::window::WindowStoreSnapshot;

/// Leading magic of an encoded window-store container.
pub const CONTAINER_MAGIC: [u8; 4] = *b"GLWS";
/// Container format version.
pub const CONTAINER_VERSION: u8 = 1;
/// Fixed container header: magic + version + watermark + late count + entry count.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Reads an occurrence list — `occ_count u32 | (occ_len u32 | occ bytes)*`, as
/// [`ContainerWriter::entry_with`] lays it out — borrowing the records.
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

    /// Appends one window-instance buffer, written in place: `key` writes the
    /// encoded group key (framed here), `occurrences` writes `count` occurrence
    /// records, each behind its own `u32` length ([`put_framed`] / [`put_bytes`]).
    /// The one place the entry layout is spelled. Returns what `occurrences`
    /// returned.
    pub fn entry_with<R>(
        &mut self,
        start_ms: u64,
        key: impl FnOnce(&mut Vec<u8>),
        count: u32,
        occurrences: impl FnOnce(&mut Vec<u8>) -> R,
    ) -> R {
        self.entries += 1;
        start_ms.encode(&mut self.buf);
        put_framed(&mut self.buf, key);
        count.encode(&mut self.buf);
        occurrences(&mut self.buf)
    }

    /// Appends one window-instance buffer: its start, encoded key and the
    /// already-encoded occurrence records in buffer order.
    pub fn entry<O: AsRef<[u8]>>(&mut self, start_ms: u64, key: &[u8], occurrences: &[O]) {
        self.entry_with(
            start_ms,
            |b| b.extend_from_slice(key),
            occurrences.len() as u32,
            |b| {
                occurrences
                    .iter()
                    .for_each(|occ| put_bytes(b, occ.as_ref()))
            },
        );
    }

    /// Seals the container (patches the entry count) and returns its bytes,
    /// trimmed to `capacity == len`: a state backend retains them per epoch.
    pub fn finish(mut self) -> Vec<u8> {
        let count = self.entries.to_le_bytes();
        self.buf[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&count);
        self.buf.shrink_to_fit();
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

/// One window-instance buffer as it lies in a container, its occurrence records
/// left framed (`count` times `occ_len u32 | occ bytes`): what a diff compares
/// with one `memcmp` and copies with one `extend_from_slice`.
#[derive(Debug, Clone, Copy)]
pub struct RawEntry<'a> {
    /// Window start, in milliseconds.
    pub start_ms: u64,
    /// The encoded group key.
    pub key: &'a [u8],
    /// Number of occurrence records.
    pub count: u32,
    /// The framed occurrence records, back to back.
    pub occurrences: &'a [u8],
}

/// A single-pass, allocation-free read of a container: the header, then the
/// entries in encoded order. `Clone` is a cursor copy, for looking ahead.
#[derive(Debug, Clone)]
pub struct RawContainer<'a> {
    /// The snapshot's watermark, in milliseconds.
    pub watermark_ms: u64,
    /// The snapshot's late-tuple count.
    pub late_tuples: u64,
    entries_left: usize,
    rest: &'a [u8],
}

impl<'a> RawContainer<'a> {
    /// Reads the container header.
    ///
    /// # Errors
    /// [`CodecError`] when `bytes` are not a `GLWS` version 1 container or the
    /// entry count cannot fit them.
    pub fn open(bytes: &'a [u8]) -> Result<Self, CodecError> {
        if !is_container(bytes) {
            return Err(CodecError::Invalid("not a GLWS version 1 container"));
        }
        let mut reader = Reader::new(&bytes[5..]);
        let watermark_ms = u64::decode(&mut reader)?;
        let late_tuples = u64::decode(&mut reader)?;
        // An entry is at least `start_ms | key_len | occ_count`.
        let entries_left = reader.count(16)?;
        Ok(RawContainer {
            watermark_ms,
            late_tuples,
            entries_left,
            rest: &bytes[HEADER_LEN..],
        })
    }

    /// Number of entries not yet read.
    pub fn entries_left(&self) -> usize {
        self.entries_left
    }

    /// The next entry, or `None` behind the last one.
    ///
    /// # Errors
    /// [`CodecError`] for a torn entry, or for bytes behind the last entry.
    pub fn next_entry(&mut self) -> Result<Option<RawEntry<'a>>, CodecError> {
        let mut reader = Reader::new(self.rest);
        if self.entries_left == 0 {
            return reader.finish().map(|()| None);
        }
        let start_ms = u64::decode(&mut reader)?;
        let key = reader.bytes()?;
        let count = reader.count(4)? as u32;
        let occ_at = self.rest.len() - reader.remaining();
        for _ in 0..count {
            reader.bytes()?;
        }
        let end = self.rest.len() - reader.remaining();
        let occurrences = &self.rest[occ_at..end];
        self.rest = &self.rest[end..];
        self.entries_left -= 1;
        Ok(Some(RawEntry {
            start_ms,
            key,
            count,
            occurrences,
        }))
    }
}

/// Parses a container, splitting every occurrence record out (the decode side;
/// a diff reads through [`RawContainer`] instead and splits nothing).
///
/// # Errors
/// [`CodecError`] for anything torn or malformed, trailing bytes included.
pub fn parse_container(bytes: &[u8]) -> Result<Container<'_>, CodecError> {
    let mut raw = RawContainer::open(bytes)?;
    let mut entries = Vec::with_capacity(raw.entries_left());
    while let Some(entry) = raw.next_entry()? {
        let mut records = Reader::new(entry.occurrences);
        entries.push(ContainerEntry {
            start_ms: entry.start_ms,
            key: entry.key,
            occurrences: (0..entry.count)
                .map(|_| records.bytes())
                .collect::<Result<_, _>>()?,
        });
    }
    Ok(Container {
        watermark_ms: raw.watermark_ms,
        late_tuples: raw.late_tuples,
        entries,
    })
}

/// The container walk, encode side: one entry per window-instance buffer, each
/// occurrence `ts | stimulus | payload` followed by whatever `meta` appends for
/// the occurrence's metadata. `None` as soon as `meta` refuses an occurrence.
///
/// Keys and occurrences are written in place behind back-patched length
/// prefixes; the only allocations are the container's own.
pub fn encode_snapshot<K: Encode, T: Encode, M>(
    snapshot: &WindowStoreSnapshot<K, T, M>,
    meta: impl Fn(&M, &mut Vec<u8>) -> Option<()>,
) -> Option<Vec<u8>> {
    let mut writer = ContainerWriter::new(snapshot.watermark().as_millis(), snapshot.late_tuples());
    let mut sized = false;
    for (start, key, occurrences) in snapshot.entries() {
        let entry_at = writer.buf.len();
        let count = occurrences.len() as u32;
        writer.entry_with(
            start.as_millis(),
            |b| key.encode(b),
            count,
            |buf| {
                for tuple in occurrences {
                    let occ_at = buf.len();
                    put_framed(buf, |b| {
                        tuple.ts.encode(b);
                        tuple.stimulus.encode(b);
                        tuple.data.encode(b);
                        meta(&tuple.meta, b)
                    })?;
                    if !sized {
                        // Size the container from its first entry head and
                        // occurrence: exact when keys and occurrences are
                        // fixed-width, otherwise a guess — ordinary growth covers
                        // a low one, a high one is address space never written to
                        // — that `finish` trims either way. Saturating and
                        // fallible: a guess the allocator refuses is not taken.
                        sized = true;
                        let heads = snapshot.entries().count().saturating_mul(occ_at - entry_at);
                        let records = snapshot
                            .buffered_tuples()
                            .saturating_mul(buf.len() - occ_at);
                        let written = buf.len() - HEADER_LEN;
                        let _ = buf.try_reserve_exact(
                            heads.saturating_add(records).saturating_sub(written),
                        );
                    }
                }
                Some(())
            },
        )?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use crate::window::{WindowSpec, WindowStore};

    /// The walk [`encode_snapshot`] replaced — one `Vec` per occurrence, handed
    /// to the writer as a list — kept as the reference for its bytes.
    fn encode_by_collecting<K: Encode, T: Encode, M>(
        snapshot: &WindowStoreSnapshot<K, T, M>,
        meta: impl Fn(&M, &mut Vec<u8>) -> Option<()>,
    ) -> Option<Vec<u8>> {
        let mut writer =
            ContainerWriter::new(snapshot.watermark().as_millis(), snapshot.late_tuples());
        for (start, key, occurrences) in snapshot.entries() {
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
            writer.entry(start.as_millis(), &key.to_bytes(), &occ_bytes);
        }
        Some(writer.finish())
    }

    /// Variable-width keys, payloads and metadata: nothing the in-place walk
    /// sizes its buffer from stays true past the first occurrence.
    fn ragged_store(n: u64) -> WindowStore<String, Vec<u64>, u64> {
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        let mut store = WindowStore::new(spec);
        for i in 0..n {
            let key = "k".repeat(1 + (i % 5) as usize);
            let data = (0..i % 7).collect();
            store.insert(
                key,
                Arc::new(GTuple::new(Timestamp::from_secs(i / 3), i, data, i)),
            );
        }
        store.close_up_to(Timestamp::from_secs(n / 6));
        store
    }

    fn ragged_meta(meta: &u64, out: &mut Vec<u8>) -> Option<()> {
        out.extend(std::iter::repeat_n(0xA5, (*meta % 4) as usize));
        Some(())
    }

    #[test]
    fn in_place_walk_writes_the_bytes_the_collecting_walk_wrote() {
        for n in [0, 1, 2, 17, 400] {
            let snapshot = ragged_store(n).snapshot();
            let bytes = encode_snapshot(&snapshot, ragged_meta).unwrap();
            assert_eq!(
                bytes,
                encode_by_collecting(&snapshot, ragged_meta).unwrap(),
                "{n} tuples"
            );
            assert_eq!(bytes.capacity(), bytes.len(), "{n} tuples");
        }
    }

    #[test]
    fn an_outsized_first_occurrence_only_costs_a_trimmed_guess() {
        // The sizing extrapolates from the first occurrence; here that guess is
        // some 400x what the container needs (and must not outlive `finish`).
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(8)).unwrap();
        let mut store: WindowStore<u8, Vec<u8>, ()> = WindowStore::new(spec);
        for i in 0..2_000u64 {
            let data = vec![7; if i == 0 { 64 << 10 } else { 1 }];
            store.insert(
                (i % 4) as u8,
                Arc::new(GTuple::new(Timestamp::from_secs(1), i, data, ())),
            );
        }
        let snapshot = store.snapshot();
        let plain = |(): &(), _: &mut Vec<u8>| Some(());
        let bytes = encode_snapshot(&snapshot, plain).unwrap();
        assert_eq!(bytes, encode_by_collecting(&snapshot, plain).unwrap());
        assert_eq!(bytes.capacity(), bytes.len());
        assert!(bytes.len() < 200 << 10, "{} bytes", bytes.len());
    }

    #[test]
    fn a_refused_occurrence_refuses_the_snapshot() {
        let snapshot = ragged_store(40).snapshot();
        let refuse_one = |meta: &u64, _: &mut Vec<u8>| (*meta != 25).then_some(());
        assert!(encode_snapshot(&snapshot, refuse_one).is_none());
        assert!(encode_by_collecting(&snapshot, refuse_one).is_none());
    }

    #[test]
    fn raw_and_parsed_reads_agree() {
        let bytes = encode_snapshot(&ragged_store(60).snapshot(), ragged_meta).unwrap();
        let parsed = parse_container(&bytes).unwrap();
        let mut raw = RawContainer::open(&bytes).unwrap();
        assert_eq!(raw.entries_left(), parsed.entries.len());
        for entry in &parsed.entries {
            let got = raw.next_entry().unwrap().unwrap();
            assert_eq!((got.start_ms, got.key), (entry.start_ms, entry.key));
            assert_eq!(got.count as usize, entry.occurrences.len());
            let mut framed = Vec::new();
            for occ in &entry.occurrences {
                put_bytes(&mut framed, occ);
            }
            assert_eq!(got.occurrences, framed);
        }
        assert!(raw.next_entry().unwrap().is_none());
        for cut in 0..bytes.len() {
            let torn = RawContainer::open(&bytes[..cut]).and_then(|mut raw| {
                while raw.next_entry()?.is_some() {}
                Ok(())
            });
            assert!(torn.is_err(), "cut {cut}");
        }
    }
}
