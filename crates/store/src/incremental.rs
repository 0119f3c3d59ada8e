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
//!
//! [`diff_into`] runs inside every incremental `put`, so it is a **streaming,
//! lock-step walk** of the two containers ([`RawContainer`]): nothing is parsed
//! into a list, nothing is hashed, nothing is allocated. It leans on how the
//! engine's containers relate — both list their buffers by window start
//! ascending, then group key in `K: Ord` order, each `(start, key)` once; and a
//! window start retires *whole* — so the buffers two epochs share appear in the
//! same relative order, and a base buffer with no partner is either retired or
//! follows a run of new ones. One cursor per container and a look-ahead over
//! that run decide every entry; a surviving buffer costs one `memcmp` of its
//! framed occurrence bytes against the base's (byte prefix ⇔ occurrence-list
//! prefix, because the frames are self-delimiting) and what was appended is one
//! `extend_from_slice`. The deltas are byte-identical to the ones the
//! parse-and-hash diff produced (kept under `#[cfg(test)]` as the reference).
//! For two containers that do *not* share that order the walk still emits a
//! correct delta — a buffer it fails to pair ships in full.

use std::collections::HashMap;

use genealog_spe::codec::{put_bytes, CodecError, Decode, Encode, Reader};
use genealog_spe::persist::{
    parse_container, read_occurrences, Container, ContainerWriter, RawContainer, RawEntry,
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
    let mut out = Vec::new();
    diff_into(prev, base_epoch, next, &mut out).ok()?;
    Some(out)
}

/// The base container's side of the lock-step walk.
struct Base<'a> {
    rest: RawContainer<'a>,
    /// The first base buffer that may still pair with an entry of the next epoch.
    head: Option<RawEntry<'a>>,
    /// How many upcoming entries of the next epoch are already known to be new:
    /// a look-ahead found `head`'s partner that far behind them.
    unpaired: usize,
}

impl<'a> Base<'a> {
    /// The base buffer `entry` continues, if there is one. `next` is the next
    /// epoch's cursor just behind `entry`, for looking ahead.
    fn partner_of(
        &mut self,
        entry: &RawEntry<'_>,
        next: &RawContainer<'_>,
    ) -> Result<Option<RawEntry<'a>>, CodecError> {
        if self.unpaired > 0 {
            self.unpaired -= 1;
            return Ok(None);
        }
        while let Some(base) = self.head {
            if base.start_ms > entry.start_ms {
                break; // `entry` opens a window start the base lacks
            }
            if base.start_ms == entry.start_ms {
                if base.key == entry.key {
                    self.head = self.rest.next_entry()?;
                    return Ok(Some(base));
                }
                if let Some(distance) = distance_to(&base, next.clone())? {
                    // `entry` and the `distance` entries behind it are new keys
                    // in front of the base buffer.
                    self.unpaired = distance;
                    break;
                }
            }
            // The base buffer is gone from the next epoch: retired.
            self.head = self.rest.next_entry()?;
        }
        Ok(None)
    }
}

/// How many entries `rest` yields before the one that continues `base`, looking
/// no further than `base`'s window start; `None` when `base` has no partner.
fn distance_to(
    base: &RawEntry<'_>,
    mut rest: RawContainer<'_>,
) -> Result<Option<usize>, CodecError> {
    let mut distance = 0;
    while let Some(entry) = rest.next_entry()? {
        if entry.start_ms != base.start_ms {
            break;
        }
        if entry.key == base.key {
            return Ok(Some(distance));
        }
        distance += 1;
    }
    Ok(None)
}

/// [`diff`], appended to `out` — a `put` streams the delta straight into the
/// record frame it is assembling.
///
/// # Errors
/// [`CodecError`] when either buffer is not a whole container; `out` then holds
/// a partial delta the caller must truncate away.
pub fn diff_into(
    prev: &[u8],
    base_epoch: u64,
    next: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let mut rest = RawContainer::open(prev)?;
    let head = rest.next_entry()?;
    let mut base = Base {
        rest,
        head,
        unpaired: 0,
    };
    let mut next = RawContainer::open(next)?;

    out.extend_from_slice(&DELTA_MAGIC);
    DELTA_VERSION.encode(out);
    base_epoch.encode(out);
    next.watermark_ms.encode(out);
    next.late_tuples.encode(out);
    (next.entries_left() as u32).encode(out);
    while let Some(entry) = next.next_entry()? {
        entry.start_ms.encode(out);
        put_bytes(out, entry.key);
        match base.partner_of(&entry, &next)? {
            // A surviving buffer whose prefix is byte-equal to the base buffer:
            // ship only what was appended (possibly nothing).
            Some(was)
                if was.count <= entry.count && entry.occurrences.starts_with(was.occurrences) =>
            {
                if was.count == entry.count {
                    MODE_UNCHANGED.encode(out);
                } else {
                    MODE_APPENDED.encode(out);
                    was.count.encode(out);
                    (entry.count - was.count).encode(out);
                    out.extend_from_slice(&entry.occurrences[was.occurrences.len()..]);
                }
            }
            // New buffer, or one that mutated in a way appends cannot express.
            _ => {
                MODE_FULL.encode(out);
                entry.count.encode(out);
                out.extend_from_slice(entry.occurrences);
            }
        }
    }
    // The base must be a whole container too, not just a parseable prefix.
    while base.head.is_some() {
        base.head = base.rest.next_entry()?;
    }
    Ok(())
}

/// The parse-and-hash diff [`diff`] replaced, kept as the reference the
/// streaming walk is pinned against.
#[cfg(test)]
fn diff_by_parsing(prev: &[u8], base_epoch: u64, next: &[u8]) -> Option<Vec<u8>> {
    fn put_occurrences(out: &mut Vec<u8>, occurrences: &[&[u8]]) {
        (occurrences.len() as u32).encode(out);
        for occ in occurrences {
            put_bytes(out, occ);
        }
    }

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
            Some(base_occs) if entry.occurrences.starts_with(base_occs) => {
                if base_occs.len() == entry.occurrences.len() {
                    MODE_UNCHANGED.encode(&mut out);
                } else {
                    MODE_APPENDED.encode(&mut out);
                    (base_occs.len() as u32).encode(&mut out);
                    put_occurrences(&mut out, &entry.occurrences[base_occs.len()..]);
                }
            }
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

    /// A window store as the containers see it, mutated the ways an epoch can
    /// (and a few ways only corruption could): buffers by `(start, key)` in the
    /// engine's order — numeric key order, which is *not* the byte order of the
    /// little-endian encoded key.
    #[derive(Default)]
    struct Model {
        buffers: std::collections::BTreeMap<(u64, u32), Vec<Vec<u8>>>,
        next_occ: u64,
        rng: u64,
    }

    impl Model {
        fn roll(&mut self, n: u64) -> u64 {
            // xorshift64*: deterministic, so a failing seed repeats exactly.
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }

        fn occurrence(&mut self) -> Vec<u8> {
            self.next_occ += 1;
            let len = 4 + self.roll(24) as usize; // variable-width records
            self.next_occ
                .to_le_bytes()
                .iter()
                .cycle()
                .take(len)
                .copied()
                .collect()
        }

        fn pick(&mut self) -> Option<(u64, u32)> {
            let n = self.buffers.len() as u64;
            (n > 0).then(|| {
                let i = self.roll(n) as usize;
                *self.buffers.keys().nth(i).unwrap()
            })
        }

        /// One epoch's worth of mutations.
        fn step(&mut self, epoch: u64) {
            // Sliding windows: the oldest start retires whole, a new one opens.
            if epoch % 3 == 2 {
                if let Some(&(oldest, _)) = self.buffers.keys().next() {
                    self.buffers.retain(|&(start, _), _| start != oldest);
                }
            }
            for _ in 0..self.roll(6) {
                // New buffers: in the newest start, in an old one, in a fresh one.
                let start = 1_000 * (epoch.saturating_sub(self.roll(3)) + self.roll(2));
                let key = self.roll(300) as u32;
                let occ = self.occurrence();
                self.buffers.entry((start, key)).or_default().push(occ);
            }
            for _ in 0..self.roll(8) {
                // Appends to surviving buffers.
                if let Some(at) = self.pick() {
                    for _ in 0..=self.roll(3) {
                        let occ = self.occurrence();
                        self.buffers.get_mut(&at).unwrap().push(occ);
                    }
                }
            }
            match self.roll(4) {
                // A single buffer retired from a surviving window start.
                0 => {
                    if let Some(at) = self.pick() {
                        self.buffers.remove(&at);
                    }
                }
                // A mutated prefix: appends cannot express it (mode 2).
                1 => {
                    if let Some(at) = self.pick() {
                        self.buffers.get_mut(&at).unwrap()[0][0] ^= 0x80;
                    }
                }
                // A buffer that shrank (mode 2 as well).
                2 => {
                    if let Some(at) = self.pick() {
                        let occs = self.buffers.get_mut(&at).unwrap();
                        if occs.len() > 1 {
                            occs.pop();
                        }
                    }
                }
                _ => {}
            }
        }

        fn container(&self, epoch: u64) -> Vec<u8> {
            let mut writer = ContainerWriter::new(epoch * 1_000, epoch / 2);
            for (&(start, key), occs) in &self.buffers {
                writer.entry(start, &key.to_le_bytes(), occs);
            }
            writer.finish()
        }
    }

    #[test]
    fn streaming_diff_equals_the_parse_based_reference() {
        let mut modes = [0u32; 3];
        for seed in 1..=40u64 {
            let mut model = Model {
                rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..Model::default()
            };
            let mut prev = model.container(0);
            for epoch in 1..=25 {
                model.step(epoch);
                let next = model.container(epoch);
                let delta = diff(&prev, epoch - 1, &next).unwrap();
                assert_eq!(
                    delta,
                    diff_by_parsing(&prev, epoch - 1, &next).unwrap(),
                    "seed {seed} epoch {epoch}"
                );
                assert_eq!(
                    apply(&prev, &delta).unwrap(),
                    next,
                    "seed {seed} epoch {epoch}"
                );
                // Count the entry modes the sequence exercised.
                let mut r = Reader::new(&delta[5 + 24..]);
                for _ in 0..r.count(13).unwrap() {
                    r.take(8).unwrap();
                    r.bytes().unwrap();
                    let mode = u8::decode(&mut r).unwrap();
                    modes[usize::from(mode)] += 1;
                    if mode == MODE_APPENDED {
                        r.take(4).unwrap();
                    }
                    if mode != MODE_UNCHANGED {
                        read_occurrences(&mut r).unwrap();
                    }
                }
                prev = next;
            }
        }
        assert!(modes.iter().all(|&n| n > 100), "modes seen: {modes:?}");
    }

    #[test]
    fn streaming_diff_equals_the_reference_on_engine_containers() {
        let containers = containers(12, 7);
        for (epoch, pair) in containers.windows(2).enumerate() {
            assert_eq!(
                diff(&pair[0], epoch as u64, &pair[1]),
                diff_by_parsing(&pair[0], epoch as u64, &pair[1])
            );
        }
    }

    #[test]
    fn buffers_out_of_canonical_order_still_diff_correctly() {
        // Not something the engine writes — the walk may fail to pair a buffer,
        // and then ships it in full; the delta must still reconstruct `next`.
        let occs = |n: u8| (0..n).map(|i| vec![i; 6]).collect::<Vec<_>>();
        let build = |order: &[(u64, u32, u8)]| {
            let mut writer = ContainerWriter::new(1, 0);
            for &(start, key, n) in order {
                writer.entry(start, &key.to_le_bytes(), &occs(n));
            }
            writer.finish()
        };
        let prev = build(&[(0, 1, 2), (0, 2, 2), (0, 3, 2), (8, 1, 1)]);
        let next = build(&[(0, 3, 3), (0, 1, 2), (0, 2, 4), (8, 1, 1), (8, 0, 1)]);
        let delta = diff(&prev, 0, &next).unwrap();
        assert_eq!(apply(&prev, &delta).unwrap(), next);
    }

    #[test]
    fn a_torn_base_or_next_container_yields_no_delta() {
        let containers = containers(3, 6);
        let (prev, next) = (&containers[1], &containers[2]);
        for cut in 0..prev.len() {
            assert!(diff(&prev[..cut], 1, next).is_none(), "base cut {cut}");
        }
        for cut in 0..next.len() {
            assert!(diff(prev, 1, &next[..cut]).is_none(), "next cut {cut}");
        }
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
