//! Incremental cross-epoch window snapshots: diff and reconstruct.
//!
//! A `GLWS` container (see `genealog_spe::persist`) encodes one epoch's window
//! store canonically. Between consecutive epochs the store mutates in exactly
//! two ways — occurrences are **appended** to surviving window-instance buffers
//! and whole buffers are **retired** when windows close — so a diff only needs
//! three per-entry modes:
//!
//! ```text
//! delta: "GLWD" | version u8 | base_epoch u64 | watermark_ms u64
//!        late_tuples u64 | entry_count u32
//! entry: start_ms u64 | key_len u32 | key | mode u8
//!        mode 0 (unchanged): —                       (copy the base buffer)
//!        mode 1 (appended):  base_count u32 | added_count u32
//!                            added*: occ_len u32 | occ bytes
//!        mode 2 (full):      occ_count u32 | occ*: occ_len u32 | occ bytes
//! ```
//!
//! Entries retired since the base epoch simply do not appear (new entries use
//! mode 2). [`apply`] replays the delta's entry order through the canonical
//! container writer, so the reconstruction is **byte-identical** to the full
//! snapshot the diff was taken from — pinned by proptest at the workspace root.

use std::collections::HashMap;

use genealog_spe::codec::{put_bytes, CodecError, Decode, Encode, Reader};
use genealog_spe::persist::{
    parse_container, put_occurrences, read_occurrences, Container, ContainerWriter,
};

/// Leading magic of an incremental window-snapshot delta.
pub const DELTA_MAGIC: [u8; 4] = *b"GLWD";
/// Delta format version.
pub const DELTA_VERSION: u8 = 1;

const MODE_UNCHANGED: u8 = 0;
const MODE_APPENDED: u8 = 1;
const MODE_FULL: u8 = 2;

/// Whether `bytes` start like an encoded delta.
pub fn is_delta(bytes: &[u8]) -> bool {
    bytes.len() > 5 && bytes[..4] == DELTA_MAGIC && bytes[4] == DELTA_VERSION
}

/// A container's buffers by `(start, key)`.
fn by_buffer<'a, 'c>(container: &'c Container<'a>) -> HashMap<(u64, &'a [u8]), &'c Vec<&'a [u8]>> {
    container
        .entries
        .iter()
        .map(|e| ((e.start_ms, e.key), &e.occurrences))
        .collect()
}

/// Encodes `next` as a delta against `prev` (the container committed for
/// `base_epoch`). `None` when either buffer is not a parseable container —
/// the caller then falls back to a full record.
pub fn diff(prev: &[u8], base_epoch: u64, next: &[u8]) -> Option<Vec<u8>> {
    let prev = parse_container(prev).ok()?;
    let next = parse_container(next).ok()?;
    let prev_entries = by_buffer(&prev);

    let mut out = Vec::new();
    out.extend_from_slice(&DELTA_MAGIC);
    DELTA_VERSION.encode(&mut out);
    base_epoch.encode(&mut out);
    next.watermark_ms.encode(&mut out);
    next.late_tuples.encode(&mut out);
    (next.entries.len() as u32).encode(&mut out);
    for entry in &next.entries {
        entry.start_ms.encode(&mut out);
        put_bytes(&mut out, entry.key);
        match prev_entries.get(&(entry.start_ms, entry.key)) {
            // A surviving buffer whose prefix is byte-equal to the base buffer:
            // ship only what was appended (possibly nothing).
            Some(base_occs) if entry.occurrences.starts_with(base_occs) => {
                if base_occs.len() == entry.occurrences.len() {
                    MODE_UNCHANGED.encode(&mut out);
                } else {
                    MODE_APPENDED.encode(&mut out);
                    (base_occs.len() as u32).encode(&mut out);
                    put_occurrences(&mut out, &entry.occurrences[base_occs.len()..]);
                }
            }
            // New buffer, or one that mutated in a way appends cannot express.
            _ => {
                MODE_FULL.encode(&mut out);
                put_occurrences(&mut out, &entry.occurrences);
            }
        }
    }
    Some(out)
}

/// The base epoch a delta applies to; `None` for non-delta bytes.
pub fn delta_base_epoch(delta: &[u8]) -> Option<u64> {
    if !is_delta(delta) {
        return None;
    }
    u64::from_bytes(&delta[5..]).ok()
}

/// Applies `delta` to the full container of its base epoch, reconstructing the
/// full container of the delta's epoch — byte-identical to what [`diff`] was
/// given as `next`. `None` on any structural mismatch (wrong base, torn delta,
/// missing buffers): corruption is rejected, never papered over.
pub fn apply(base: &[u8], delta: &[u8]) -> Option<Vec<u8>> {
    reconstruct(base, delta).ok()
}

fn reconstruct(base: &[u8], delta: &[u8]) -> Result<Vec<u8>, CodecError> {
    if !is_delta(delta) {
        return Err(CodecError::Invalid("not a GLWD version 1 delta"));
    }
    let base = parse_container(base)?;
    let base_entries = by_buffer(&base);
    let missing = CodecError::Invalid("delta names a buffer its base lacks");

    let mut r = Reader::new(&delta[5..]);
    let _base_epoch = u64::decode(&mut r)?;
    let mut writer = ContainerWriter::new(u64::decode(&mut r)?, u64::decode(&mut r)?);
    // An entry is at least `start_ms | key_len | mode`.
    for _ in 0..r.count(13)? {
        let start_ms = u64::decode(&mut r)?;
        let key = r.bytes()?;
        match u8::decode(&mut r)? {
            MODE_UNCHANGED => {
                let occs = base_entries.get(&(start_ms, key)).ok_or(missing)?;
                writer.entry(start_ms, key, occs);
            }
            MODE_APPENDED => {
                let base_count = u32::decode(&mut r)? as usize;
                let occs = base_entries.get(&(start_ms, key)).ok_or(missing)?;
                if occs.len() != base_count {
                    return Err(CodecError::Invalid("delta and base disagree on a buffer"));
                }
                let mut all: Vec<&[u8]> = occs.to_vec();
                all.extend(read_occurrences(&mut r)?);
                writer.entry(start_ms, key, &all);
            }
            MODE_FULL => writer.entry(start_ms, key, &read_occurrences(&mut r)?),
            tag => {
                return Err(CodecError::Tag {
                    what: "delta entry mode",
                    tag,
                })
            }
        }
    }
    r.finish()?;
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::persist::{PlainWindowPersister, WindowPersister};
    use genealog_spe::time::{Duration, Timestamp};
    use genealog_spe::tuple::GTuple;
    use genealog_spe::window::{WindowSpec, WindowStore};
    use std::sync::Arc;

    /// Drives one window store through `epochs` barriers, returning the full
    /// container of each epoch.
    fn containers(epochs: u64, per_epoch: u64) -> Vec<Vec<u8>> {
        let spec = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        let mut store: WindowStore<u32, (u32, i64), ()> = WindowStore::new(spec);
        let p = PlainWindowPersister;
        let mut out = Vec::new();
        let mut i = 0u64;
        for _ in 0..epochs {
            for _ in 0..per_epoch {
                let t = Arc::new(GTuple::new(
                    Timestamp::from_secs(i),
                    i,
                    ((i % 3) as u32, i as i64),
                    (),
                ));
                store.insert((i % 3) as u32, t);
                i += 1;
            }
            // Watermark lag closes old windows while new ones stay open.
            store.close_up_to(Timestamp::from_secs(i.saturating_sub(6)));
            out.push(
                WindowPersister::<u32, (u32, i64), ()>::encode(&p, &store.snapshot()).unwrap(),
            );
        }
        out
    }

    #[test]
    fn diff_then_apply_reconstructs_byte_identical_containers() {
        let containers = containers(8, 5);
        for pair in containers.windows(2) {
            let delta = diff(&pair[0], 0, &pair[1]).unwrap();
            assert!(is_delta(&delta));
            assert_eq!(apply(&pair[0], &delta).unwrap(), pair[1]);
        }
    }

    #[test]
    fn deltas_are_smaller_than_full_containers_for_appends() {
        let containers = containers(6, 8);
        let (prev, next) = (&containers[4], &containers[5]);
        let delta = diff(prev, 4, next).unwrap();
        assert!(
            delta.len() < next.len(),
            "delta {} bytes, full {} bytes",
            delta.len(),
            next.len()
        );
    }

    #[test]
    fn torn_delta_is_rejected_cleanly() {
        let containers = containers(3, 6);
        let delta = diff(&containers[1], 1, &containers[2]).unwrap();
        for cut in 0..delta.len() {
            assert!(apply(&containers[1], &delta[..cut]).is_none(), "cut {cut}");
        }
        assert!(apply(&containers[1], &delta).is_some());
    }

    #[test]
    fn base_epoch_is_recoverable_from_the_delta() {
        let containers = containers(2, 4);
        let delta = diff(&containers[0], 7, &containers[1]).unwrap();
        assert_eq!(delta_base_epoch(&delta), Some(7));
        assert_eq!(delta_base_epoch(&containers[0]), None);
    }
}
