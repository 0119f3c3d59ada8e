//! Sliding time windows and the group-by window store used by the Aggregate operator.
//!
//! Windows follow the paper's Aggregate semantics: a sliding time window of size `WS`
//! and advance `WA`, optionally partitioned by a group-by key. Window instances are
//! aligned to multiples of the advance; a tuple with timestamp `ts` belongs to every
//! window `[start, start + WS)` with `start ≡ 0 (mod WA)` and `start ≤ ts < start + WS`.
//! A window is *closed* (its aggregate emitted) once the event-time watermark reaches
//! `start + WS`; the output tuple carries the window start as its timestamp, matching
//! the example of Figure 1 (output `08:00:00` for the window covering
//! `08:00:00–08:02:00`).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::SpeError;
use crate::time::{Duration, Timestamp};
use crate::tuple::GTuple;

/// Size and advance of a sliding time window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window size (`WS`).
    pub size: Duration,
    /// Window advance (`WA`).
    pub advance: Duration,
}

impl WindowSpec {
    /// Creates a window specification.
    ///
    /// # Errors
    /// Returns [`SpeError::InvalidQuery`] if the size or the advance is zero, or if
    /// the advance is larger than the size (which would drop tuples between windows).
    pub fn new(size: Duration, advance: Duration) -> Result<Self, SpeError> {
        if size.is_zero() {
            return Err(SpeError::InvalidQuery(
                "window size must be positive".into(),
            ));
        }
        if advance.is_zero() {
            return Err(SpeError::InvalidQuery(
                "window advance must be positive".into(),
            ));
        }
        if advance > size {
            return Err(SpeError::InvalidQuery(
                "window advance must not exceed the window size".into(),
            ));
        }
        Ok(WindowSpec { size, advance })
    }

    /// A *tumbling* window (advance equal to the size).
    ///
    /// # Errors
    /// Returns [`SpeError::InvalidQuery`] if the size is zero.
    pub fn tumbling(size: Duration) -> Result<Self, SpeError> {
        Self::new(size, size)
    }

    /// The window starts a tuple with timestamp `ts` belongs to, in increasing order:
    /// every multiple of the advance in `(ts - size, ts]`. Computed, not collected,
    /// so assigning a tuple to its windows allocates nothing.
    pub fn window_starts(&self, ts: Timestamp) -> impl Iterator<Item = Timestamp> {
        let (ts, size, advance) = (
            ts.as_millis(),
            self.size.as_millis(),
            self.advance.as_millis(),
        );
        // The earliest window [start, start + size) still containing ts: the first
        // aligned start past ts - size, or the origin.
        let first = ts
            .checked_sub(size)
            .map_or(0, |gap| (gap / advance + 1) * advance);
        let last = ts - ts % advance;
        (first..=last)
            .step_by(advance as usize)
            .map(Timestamp::from_millis)
    }

    /// Number of windows a single tuple participates in.
    pub fn windows_per_tuple(&self) -> u64 {
        self.size.as_millis().div_ceil(self.advance.as_millis())
    }
}

/// A window instance that has been closed by watermark progress, ready for aggregation.
#[derive(Debug)]
pub struct ClosedWindow<K, T, M> {
    /// Start timestamp of the window (also the timestamp of the aggregate output).
    pub start: Timestamp,
    /// The group-by key of this window instance.
    pub key: K,
    /// The tuples assigned to the window, in timestamp order (earliest first).
    pub tuples: Vec<Arc<GTuple<T, M>>>,
}

/// The per-key tuple buffers of one window instance.
type WindowGroups<K, T, M> = BTreeMap<K, Vec<Arc<GTuple<T, M>>>>;

/// Callback that re-materialises one buffered tuple when restoring a snapshot,
/// detaching it from mutable provenance state owned by the run the snapshot was
/// taken from (see [`WindowStore::restore`]).
pub type DetachFn<'a, T, M> = dyn FnMut(&Arc<GTuple<T, M>>) -> Arc<GTuple<T, M>> + 'a;

/// A point-in-time copy of a [`WindowStore`], taken at an epoch barrier.
///
/// The snapshot shares the buffered tuple `Arc`s with the live store (cheap to take);
/// [`WindowStore::restore`] re-materialises them through a caller-supplied *detach*
/// clone so the restored store never aliases mutable metadata of the run the snapshot
/// was taken from (see
/// [`ProvenanceSystem::detach_meta`](crate::provenance::ProvenanceSystem::detach_meta)).
#[derive(Debug)]
pub struct WindowStoreSnapshot<K, T, M> {
    windows: BTreeMap<Timestamp, WindowGroups<K, T, M>>,
    late_tuples: u64,
    watermark: Timestamp,
}

impl<K, T, M> WindowStoreSnapshot<K, T, M> {
    /// Number of tuple references held by the snapshot.
    pub fn buffered_tuples(&self) -> usize {
        self.windows
            .values()
            .flat_map(|g| g.values())
            .map(Vec::len)
            .sum()
    }

    /// The watermark the store had reached when the snapshot was taken.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Number of tuples that had been dropped as late when the snapshot was taken.
    pub fn late_tuples(&self) -> u64 {
        self.late_tuples
    }

    /// Iterates the buffered window-instance buffers in deterministic order
    /// (window start ascending, then group key ascending). This is the byte-codec
    /// seam: a [`WindowPersister`](crate::persist::WindowPersister) walks these
    /// entries to produce a canonical encoding.
    pub fn entries(&self) -> impl Iterator<Item = (Timestamp, &K, &[Arc<GTuple<T, M>>])> {
        self.windows.iter().flat_map(|(start, groups)| {
            groups
                .iter()
                .map(move |(key, tuples)| (*start, key, tuples.as_slice()))
        })
    }
}

impl<K: Ord, T, M> WindowStoreSnapshot<K, T, M> {
    /// Rebuilds a snapshot from decoded parts — the inverse of
    /// [`entries`](WindowStoreSnapshot::entries). Entries with the same
    /// `(start, key)` overwrite; decoders produce each instance buffer once.
    pub fn from_parts<I>(entries: I, late_tuples: u64, watermark: Timestamp) -> Self
    where
        I: IntoIterator<Item = (Timestamp, K, Vec<Arc<GTuple<T, M>>>)>,
    {
        let mut windows: BTreeMap<Timestamp, WindowGroups<K, T, M>> = BTreeMap::new();
        for (start, key, tuples) in entries {
            windows.entry(start).or_default().insert(key, tuples);
        }
        WindowStoreSnapshot {
            windows,
            late_tuples,
            watermark,
        }
    }
}

/// Group-by sliding-window store: assigns tuples to window instances and releases the
/// instances closed by watermark progress, in deterministic order.
#[derive(Debug)]
pub struct WindowStore<K, T, M> {
    spec: WindowSpec,
    /// start -> key -> tuples. Both maps are ordered so closing windows is deterministic.
    windows: BTreeMap<Timestamp, WindowGroups<K, T, M>>,
    late_tuples: u64,
    watermark: Timestamp,
}

impl<K: Ord + Clone, T, M> WindowStore<K, T, M> {
    /// Creates an empty store for the given window specification.
    pub fn new(spec: WindowSpec) -> Self {
        WindowStore {
            spec,
            windows: BTreeMap::new(),
            late_tuples: 0,
            watermark: Timestamp::MIN,
        }
    }

    /// The window specification of the store.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Inserts a tuple under its group key into every window instance it belongs to.
    ///
    /// Tuples older than the current watermark are *late* under deterministic
    /// execution; they are counted and dropped.
    pub fn insert(&mut self, key: K, tuple: Arc<GTuple<T, M>>) {
        if tuple.ts < self.watermark {
            self.late_tuples += 1;
            return;
        }
        for start in self.spec.window_starts(tuple.ts) {
            // Skip window instances that were already closed by a previous watermark.
            if start + self.spec.size <= self.watermark {
                continue;
            }
            self.windows
                .entry(start)
                .or_default()
                .entry(key.clone())
                .or_default()
                .push(Arc::clone(&tuple));
        }
    }

    /// Advances the watermark and returns every window instance whose end is at or
    /// before it, ordered by window start and then by group key.
    pub fn close_up_to(&mut self, watermark: Timestamp) -> Vec<ClosedWindow<K, T, M>> {
        if watermark > self.watermark {
            self.watermark = watermark;
        }
        let mut closed = Vec::new();
        let expired: Vec<Timestamp> = self
            .windows
            .keys()
            .copied()
            .take_while(|&start| start + self.spec.size <= watermark)
            .collect();
        for start in expired {
            if let Some(groups) = self.windows.remove(&start) {
                for (key, tuples) in groups {
                    closed.push(ClosedWindow { start, key, tuples });
                }
            }
        }
        closed
    }

    /// Closes every remaining window instance (used at end-of-stream).
    pub fn close_all(&mut self) -> Vec<ClosedWindow<K, T, M>> {
        self.close_up_to(Timestamp::MAX)
    }

    /// Number of window instances currently open.
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Number of tuples dropped because they arrived behind the watermark.
    pub fn late_tuples(&self) -> u64 {
        self.late_tuples
    }

    /// Number of tuples currently buffered across all open windows.
    pub fn buffered_tuples(&self) -> usize {
        self.windows
            .values()
            .flat_map(|g| g.values())
            .map(Vec::len)
            .sum()
    }

    /// Takes a point-in-time copy of the store (open windows, watermark, late-tuple
    /// count). Buffered tuples are shared by `Arc`, so this is cheap even for large
    /// windows.
    pub fn snapshot(&self) -> WindowStoreSnapshot<K, T, M> {
        WindowStoreSnapshot {
            windows: self.windows.clone(),
            late_tuples: self.late_tuples,
            watermark: self.watermark,
        }
    }

    /// Replaces the store's contents with a snapshot, re-materialising every buffered
    /// tuple through `detach`.
    ///
    /// `detach` must produce a fresh allocation whose mutable metadata is reset; it is
    /// called once per *occurrence* (a tuple buffered in several overlapping sliding
    /// windows is detached per window instance, which keeps each recovered window's
    /// provenance chain self-contained).
    pub fn restore(
        &mut self,
        snapshot: &WindowStoreSnapshot<K, T, M>,
        detach: &mut DetachFn<'_, T, M>,
    ) {
        self.windows = snapshot
            .windows
            .iter()
            .map(|(start, groups)| {
                let groups = groups
                    .iter()
                    .map(|(key, tuples)| (key.clone(), tuples.iter().map(&mut *detach).collect()))
                    .collect();
                (*start, groups)
            })
            .collect();
        self.late_tuples = snapshot.late_tuples;
        self.watermark = snapshot.watermark;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn tup(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(secs(ts), 0, v, ()))
    }

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::new(Duration::from_secs(10), Duration::from_secs(5)).is_ok());
        assert!(WindowSpec::new(Duration::ZERO, Duration::from_secs(5)).is_err());
        assert!(WindowSpec::new(Duration::from_secs(10), Duration::ZERO).is_err());
        assert!(WindowSpec::new(Duration::from_secs(5), Duration::from_secs(10)).is_err());
        let t = WindowSpec::tumbling(Duration::from_secs(30)).unwrap();
        assert_eq!(t.size, t.advance);
    }

    #[test]
    fn window_starts_for_linear_road_aggregate() {
        // WS = 120s, WA = 30s, as in query Q1.
        let spec = WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30)).unwrap();
        assert_eq!(spec.windows_per_tuple(), 4);
        let starts = |ts| spec.window_starts(ts).collect::<Vec<_>>();
        // Tuple at 08:00:01 (simplified to 1s from origin): windows starting at 0 only
        // (earlier starts would be negative).
        assert_eq!(starts(secs(1)), vec![secs(0)]);
        // Tuple at 121s: windows starting at 30, 60, 90, 120.
        assert_eq!(
            starts(secs(121)),
            vec![secs(30), secs(60), secs(90), secs(120)]
        );
        // Tuple exactly on a window boundary belongs to the window starting there.
        assert_eq!(
            starts(secs(120)),
            vec![secs(30), secs(60), secs(90), secs(120)]
        );
    }

    #[test]
    fn tumbling_window_assigns_each_tuple_once() {
        let spec = WindowSpec::tumbling(Duration::from_secs(30)).unwrap();
        let starts = |ts| spec.window_starts(ts).collect::<Vec<_>>();
        assert_eq!(starts(secs(29)), vec![secs(0)]);
        assert_eq!(starts(secs(30)), vec![secs(30)]);
        assert_eq!(spec.windows_per_tuple(), 1);
    }

    /// A size that is not a multiple of the advance: starts in `(ts - size, ts]`.
    #[test]
    fn window_starts_with_a_ragged_size() {
        let spec = WindowSpec::new(Duration::from_millis(100), Duration::from_millis(30)).unwrap();
        let starts = |ms| {
            spec.window_starts(Timestamp::from_millis(ms))
                .map(Timestamp::as_millis)
                .collect::<Vec<_>>()
        };
        assert_eq!(starts(0), vec![0]);
        assert_eq!(starts(99), vec![0, 30, 60, 90]);
        assert_eq!(starts(100), vec![30, 60, 90]);
        assert_eq!(starts(130), vec![60, 90, 120]);
    }

    #[test]
    fn store_groups_by_key_and_closes_on_watermark() {
        let spec = WindowSpec::tumbling(Duration::from_secs(60)).unwrap();
        let mut store: WindowStore<&'static str, i64, ()> = WindowStore::new(spec);
        store.insert("a", tup(1, 10));
        store.insert("a", tup(31, 11));
        store.insert("b", tup(32, 20));
        store.insert("a", tup(61, 12)); // next window
        assert_eq!(store.open_windows(), 2);
        assert_eq!(store.buffered_tuples(), 4);

        // Watermark at 59: nothing closes yet.
        assert!(store.close_up_to(secs(59)).is_empty());
        // Watermark at 60: the [0, 60) window closes; groups in key order.
        let closed = store.close_up_to(secs(60));
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].key, "a");
        assert_eq!(closed[0].tuples.len(), 2);
        assert_eq!(closed[0].start, secs(0));
        assert_eq!(closed[1].key, "b");
        assert_eq!(closed[1].tuples.len(), 1);
        // Remaining window closes with close_all.
        let rest = store.close_all();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].start, secs(60));
        assert_eq!(store.open_windows(), 0);
    }

    #[test]
    fn sliding_store_replicates_tuples_across_overlapping_windows() {
        let spec = WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30)).unwrap();
        let mut store: WindowStore<u32, i64, ()> = WindowStore::new(spec);
        store.insert(1, tup(121, 1));
        // The tuple belongs to 4 windows.
        assert_eq!(store.open_windows(), 4);
        let closed = store.close_up_to(secs(30 + 120));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, secs(30));
    }

    #[test]
    fn late_tuples_are_counted_and_dropped() {
        let spec = WindowSpec::tumbling(Duration::from_secs(10)).unwrap();
        let mut store: WindowStore<u32, i64, ()> = WindowStore::new(spec);
        store.close_up_to(secs(100));
        store.insert(1, tup(5, 1));
        assert_eq!(store.late_tuples(), 1);
        assert_eq!(store.buffered_tuples(), 0);
    }

    #[test]
    fn tuple_not_added_to_already_closed_overlapping_windows() {
        let spec = WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30)).unwrap();
        let mut store: WindowStore<u32, i64, ()> = WindowStore::new(spec);
        // Watermark at 150 closed windows starting at 0 and 30.
        store.close_up_to(secs(150));
        // A tuple at 170 belongs to windows 60, 90, 120, 150 — all still open.
        store.insert(1, tup(170, 1));
        assert_eq!(store.open_windows(), 4);
        // A tuple at 151 belongs to windows 60..150; window 60+120=180 > 150 so all open.
        store.insert(1, tup(151, 2));
        assert_eq!(store.open_windows(), 4);
    }

    #[test]
    fn closed_windows_preserve_insertion_order_within_group() {
        let spec = WindowSpec::tumbling(Duration::from_secs(100)).unwrap();
        let mut store: WindowStore<u32, i64, ()> = WindowStore::new(spec);
        for i in 0..10 {
            store.insert(7, tup(i, i as i64));
        }
        let closed = store.close_all();
        let values: Vec<i64> = closed[0].tuples.iter().map(|t| t.data).collect();
        assert_eq!(values, (0..10).collect::<Vec<i64>>());
    }
}
