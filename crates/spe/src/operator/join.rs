//! The Join operator: keyed (equi-)join of two streams within a time window.
//!
//! For each pair `(tL, tR)` with `|tL.ts − tR.ts| ≤ WS`, equal join keys
//! (`left_key(tL) == right_key(tR)`) and a true residual predicate, the Join emits one
//! output tuple combining the two payloads (§2). The paper's instrumented Join (§4.1)
//! points `U1` at the more recent of the two inputs and `U2` at the older one — that
//! instrumentation is the [`ProvenanceSystem::join_meta`] hook.
//!
//! The two inputs are processed in global timestamp order (left side wins ties), so
//! the sequence of output tuples is deterministic regardless of thread scheduling: the
//! Join is a fan-in like any other, heading its chain, and [`crate::merge`] holds the
//! protocol — release order, barrier alignment, the watermark it purges by, end of
//! stream, waiting. The Join's rule probes on every release, purges at a watermark,
//! commits its windows at a barrier and closes its output with a watermark at the end
//! of time.
//!
//! # Keyed windows
//!
//! Each side retains its processed tuples twice: in a time-ordered deque — the source
//! of truth for purge order and for the checkpoint snapshot — and in a hash index of
//! per-key buckets, each bucket in insertion order. A probe walks only the bucket of
//! its own key, so its cost is the number of same-key tuples retained on the other
//! side, not the size of the other side's window (the multi-stream unfolder of §6 joins
//! on a unique tuple id: a handful of candidates per probe instead of the whole window).
//!
//! The output is the one a nested loop over the whole window would produce, order
//! included: every match of one probe has the probe's key, so all of them live in one
//! bucket, and a bucket is a subsequence of the time-ordered deque — it lists the
//! same-key tuples in the order the deque does. The index is derived state: purge pops
//! the evicted tuple from the front of its bucket (the oldest tuple of the window is
//! the oldest of its key), and a restore rebuilds the buckets from the restored deques.
//! A genuine theta join passes `|_| ()` for both keys: one bucket, scanned in full.
//!
//! Key extractors must be pure — the key of a tuple is recomputed when it is purged.
//!
//! # The stitch
//!
//! [`stitch`] runs the same rule over one probe input and any number of lookup
//! inputs: a probe without a key is resolved alone, a keyed one against every
//! same-key lookup tuple within the window, and the output carries the probe's
//! lineage only. It is the multi-stream unfolder of §6 as one fan-in.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;

use genealog_metrics::{Counter, Gauge};

use crate::channel::{ChannelClosed, StreamReceiver};
use crate::fusion::{PendingChain, Tail};
use crate::merge::{FanIn, FanInput};
use crate::metrics::OpCounters;
use crate::provenance::{detach_tuple, ProvenanceSystem};
use crate::state::{CheckpointHandle, Participant, Snapshot};
use crate::time::{Duration, Timestamp};
use crate::tuple::{GTuple, TupleData};

/// Everything a Join persists at an epoch barrier: both sides' retained time windows
/// and the watermark already emitted downstream. Nothing is pending on either input
/// at an aligned cut, so the inputs need no snapshot.
struct JoinSnapshot<L, R, M> {
    left_window: Vec<Arc<GTuple<L, M>>>,
    right_window: Vec<Arc<GTuple<R, M>>>,
    emitted_watermark: Timestamp,
}

/// What one side of the Join retains for the other side's probes.
struct JoinSide<T, K, M> {
    /// Already-processed tuples in timestamp order: what purge walks and what a
    /// checkpoint snapshots.
    window: VecDeque<Arc<GTuple<T, M>>>,
    /// The same tuples by join key, each bucket in `window` order: what a probe walks.
    index: HashMap<K, VecDeque<Arc<GTuple<T, M>>>>,
}

impl<T, K: Hash + Eq, M> JoinSide<T, K, M> {
    fn new() -> Self {
        JoinSide {
            window: VecDeque::new(),
            index: HashMap::new(),
        }
    }

    /// The retained tuples a probe with `key` has to look at, oldest first.
    fn candidates(&self, key: &K) -> impl Iterator<Item = &Arc<GTuple<T, M>>> {
        self.index.get(key).into_iter().flatten()
    }

    /// Retains a processed tuple under its join key.
    fn retain(&mut self, key: K, tuple: Arc<GTuple<T, M>>) {
        self.index
            .entry(key)
            .or_default()
            .push_back(Arc::clone(&tuple));
        self.window.push_back(tuple);
    }

    /// Replaces the retained tuples with a restored window, rebuilding the index.
    fn restore(
        &mut self,
        tuples: impl Iterator<Item = Arc<GTuple<T, M>>>,
        key_of: &mut impl FnMut(&T) -> K,
    ) {
        self.window.clear();
        self.index.clear();
        for tuple in tuples {
            self.retain(key_of(&tuple.data), tuple);
        }
    }

    fn purge(&mut self, frontier: Timestamp, ws: Duration, key_of: &mut impl FnMut(&T) -> K) {
        while self.window.front().is_some_and(|t| t.ts + ws < frontier) {
            let evicted = self.window.pop_front().expect("checked non-empty");
            // The oldest tuple of the window is the oldest tuple of its key.
            if let Entry::Occupied(mut bucket) = self.index.entry(key_of(&evicted.data)) {
                let dropped = bucket.get_mut().pop_front();
                debug_assert!(dropped.is_some_and(|t| Arc::ptr_eq(&t, &evicted)));
                if bucket.get().is_empty() {
                    bucket.remove();
                }
            }
        }
    }
}

/// The Join's own instruments, beside the tuple counters every operator has: how
/// many tuples each side retains and how many candidates the probes visited
/// (candidates ÷ tuples in is the live "is this join scanning?" number). Probes count
/// into a local; the registry is touched once per pumped batch. Shard instances of
/// one logical join share the instruments, so the gauges move by deltas.
struct JoinInstruments {
    probe_candidates: Arc<Counter>,
    unpublished_candidates: u64,
    /// Per side (left, right): the gauge and this instance's share of it.
    window_tuples: [(Arc<Gauge>, usize); 2],
}

impl JoinInstruments {
    fn new(counters: &OpCounters) -> Self {
        JoinInstruments {
            probe_candidates: counters.counter("genealog_join_probe_candidates_total"),
            unpublished_candidates: 0,
            window_tuples: ["left", "right"].map(|side| {
                let gauge = counters.gauge("genealog_join_window_tuples", &[("side", side)]);
                (gauge, 0)
            }),
        }
    }

    fn publish(&mut self, window: [usize; 2]) {
        if self.unpublished_candidates > 0 {
            self.probe_candidates
                .add(std::mem::take(&mut self.unpublished_candidates));
        }
        for ((gauge, published), retained) in self.window_tuples.iter_mut().zip(window) {
            if retained != *published {
                gauge.adjust(retained as i64 - *published as i64);
                *published = retained;
            }
        }
    }
}

impl Drop for JoinInstruments {
    /// Whichever way the operator stops, its last probes are counted and its
    /// windows, dropped with it, leave the gauges.
    fn drop(&mut self) {
        self.publish([0, 0]);
    }
}

/// The keyed-window rule over one left input and one or more right inputs: both
/// sides' retained windows and the functions that key and resolve their tuples. A
/// Join has one right input and emits through its predicate and `combine`; a
/// [`stitch`] has any number of lookup inputs and emits the probe's resolution.
pub(crate) struct Join<L, R, K, LK, RK, E, P: ProvenanceSystem> {
    left: JoinSide<L, K, P::Meta>,
    right: JoinSide<R, K, P::Meta>,
    window: Duration,
    /// `None`: the tuple matches nothing; it is resolved alone and never retained.
    left_key: LK,
    right_key: RK,
    /// What a left tuple and a partner within the window (`None` for a left tuple
    /// without a key) emit: the output's payload and metadata, or nothing.
    emit: E,
    provenance: P,
    /// The last watermark the fan-in emitted: what a snapshot records and a restored
    /// Join resumes from.
    emitted_watermark: Timestamp,
    /// The operator's checkpoint seat, when the deployment checkpoints.
    checkpoint: Option<Participant>,
    instruments: JoinInstruments,
}

/// What a keyed-window rule emits for a left tuple and one right partner within the
/// window — or for a left tuple without a key, alone (`None`): the output's payload
/// and metadata, or nothing.
pub(crate) trait Emit<L, R, O, P: ProvenanceSystem>:
    FnMut(&P, &Arc<GTuple<L, P::Meta>>, Option<&Arc<GTuple<R, P::Meta>>>) -> Option<(O, P::Meta)>
    + Send
    + 'static
{
}

impl<L, R, O, P: ProvenanceSystem, E> Emit<L, R, O, P> for E where
    E: FnMut(
            &P,
            &Arc<GTuple<L, P::Meta>>,
            Option<&Arc<GTuple<R, P::Meta>>>,
        ) -> Option<(O, P::Meta)>
        + Send
        + 'static
{
}

/// The inputs of a keyed-window rule: the left one, then the right ones.
type JoinInputs<L, R, M> = (FanInput<L, M>, Vec<FanInput<R, M>>);

/// The key of a left tuple the rule retained: only keyed tuples are.
fn retained_key<L, K>(left_key: &mut impl FnMut(&L) -> Option<K>) -> impl FnMut(&L) -> K + '_ {
    |data| left_key(data).expect("only keyed left tuples are retained")
}

impl<L, R, O, K, LK, RK, E, P> FanIn<JoinInputs<L, R, P::Meta>, O, P::Meta>
    for Join<L, R, K, LK, RK, E, P>
where
    L: TupleData,
    R: TupleData,
    O: TupleData,
    K: Hash + Eq + Send + 'static,
    LK: FnMut(&L) -> Option<K> + Send + 'static,
    RK: FnMut(&R) -> K + Send + 'static,
    E: Emit<L, R, O, P>,
    P: ProvenanceSystem,
{
    fn release(
        &mut self,
        inputs: &mut JoinInputs<L, R, P::Meta>,
        side: usize,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        let Join {
            left,
            right,
            window,
            left_key,
            right_key,
            emit,
            provenance,
            instruments,
            ..
        } = self;
        let mut out = |l: &Arc<GTuple<L, P::Meta>>, r: Option<&Arc<GTuple<R, P::Meta>>>| {
            let Some((data, meta)) = emit(provenance, l, r) else {
                return Ok(());
            };
            let (ts, stimulus) = r.map_or((l.ts, l.stimulus), |r| {
                (l.ts.max(r.ts), l.stimulus.max(r.stimulus))
            });
            next.tuple(Arc::new(GTuple::new(ts, stimulus, data, meta)))
        };
        let mut pair = |l: &Arc<GTuple<L, _>>, r: &Arc<GTuple<R, _>>| {
            instruments.unpublished_candidates += 1;
            if l.ts.distance(r.ts) <= *window {
                out(l, Some(r))?;
            }
            Ok(())
        };
        // Probe the other side's bucket, then retain (ties went to the left).
        if side == 0 {
            let tuple = inputs.0.pop();
            let Some(key) = left_key(&tuple.data) else {
                return out(&tuple, None);
            };
            let sent = right.candidates(&key).try_for_each(|r| pair(&tuple, r));
            left.retain(key, tuple);
            sent
        } else {
            let tuple = inputs.1[side - 1].pop();
            let key = right_key(&tuple.data);
            let sent = left.candidates(&key).try_for_each(|l| pair(l, &tuple));
            right.retain(key, tuple);
            sent
        }
    }

    /// No input can still hand over a tuple older than the frontier, so nothing
    /// retained more than a window before it can still be matched.
    fn watermark(
        &mut self,
        frontier: Timestamp,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        let window = self.window;
        self.left
            .purge(frontier, window, &mut retained_key(&mut self.left_key));
        self.right.purge(frontier, window, &mut self.right_key);
        let retained = [self.left.window.len(), self.right.window.len()];
        self.instruments.publish(retained);
        self.emitted_watermark = frontier;
        next.watermark(frontier)
    }

    /// The windows are the only state crossing the cut.
    fn barrier(
        &mut self,
        epoch: u64,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        if let Some(seat) = &self.checkpoint {
            let snapshot = JoinSnapshot {
                left_window: self.left.window.iter().cloned().collect(),
                right_window: self.right.window.iter().cloned().collect(),
                emitted_watermark: self.emitted_watermark,
            };
            seat.commit(epoch, Snapshot::inline(snapshot));
        }
        next.barrier(epoch)
    }

    fn end(&mut self, next: &mut dyn Tail<O, P::Meta>) {
        if next.watermark(Timestamp::MAX).is_ok() {
            next.end();
        }
    }

    fn restored_watermark(&self) -> Timestamp {
        self.emitted_watermark
    }
}

/// The keyed-window rule heading a new chain over `left` and `rights`: the body of
/// [`chain`] and [`stitch`].
#[allow(clippy::too_many_arguments)]
fn keyed_window<L, R, O, K, LK, RK, E, P>(
    name: &str,
    left: StreamReceiver<L, P::Meta>,
    rights: Vec<StreamReceiver<R, P::Meta>>,
    window: Duration,
    left_key: LK,
    right_key: RK,
    emit: E,
    provenance: P,
    checkpoints: CheckpointHandle,
) -> PendingChain<O, P::Meta>
where
    L: TupleData,
    R: TupleData,
    O: TupleData,
    K: Hash + Eq + Send + 'static,
    LK: FnMut(&L) -> Option<K> + Send + 'static,
    RK: FnMut(&R) -> K + Send + 'static,
    E: Emit<L, R, O, P>,
    P: ProvenanceSystem,
{
    assert!(!window.is_zero(), "Join window size must be positive");
    let inputs = (
        FanInput::new(left),
        rights.into_iter().map(FanInput::new).collect(),
    );
    PendingChain::fan_in(name, inputs, move |name, row| {
        let (checkpoint, restored) = Participant::join(&checkpoints, name).unzip();
        let mut join = Join {
            left: JoinSide::new(),
            right: JoinSide::new(),
            window,
            left_key,
            right_key,
            emit,
            provenance,
            emitted_watermark: Timestamp::MIN,
            checkpoint,
            instruments: JoinInstruments::new(&row),
        };
        let restored = restored.flatten();
        if let Some(snapshot) = restored.and_then(|s| s.downcast::<JoinSnapshot<L, R, P::Meta>>()) {
            // Re-stitch the provenance graph slice: every restored window tuple gets
            // a fresh, unset N-cell so recovered chains link only among recovered
            // tuples (see `ProvenanceSystem::detach_meta`).
            let provenance = &join.provenance;
            let (left, right) = (snapshot.left_window.iter(), snapshot.right_window.iter());
            join.left.restore(
                left.map(|t| detach_tuple(provenance, t)),
                &mut retained_key(&mut join.left_key),
            );
            join.right.restore(
                right.map(|t| detach_tuple(provenance, t)),
                &mut join.right_key,
            );
            join.emitted_watermark = snapshot.emitted_watermark;
        }
        join
    })
}

/// A Join heading a new chain over `left` and `right`, with the window size `WS`:
/// pairs with equal `left_key`/`right_key` that also satisfy the residual
/// `predicate` are combined, under [`ProvenanceSystem::join_meta`]. The stages and
/// the tail added to the chain run on the Join's thread; seal it with
/// [`PendingChain::into_channel`] to run the Join on its own. The Join is built on
/// its chain's thread from its node name and ledger row. When `checkpoints` is
/// filled, it takes its checkpoint seat under its node name, restores the windows
/// committed for it, and snapshots both time windows at each aligned cut.
///
/// # Panics
/// Panics if the window size is zero.
#[allow(clippy::too_many_arguments)] // mirrors the paper's Join parameters
pub fn chain<L, R, O, K, LK, RK, PR, CF, P>(
    name: &str,
    left: StreamReceiver<L, P::Meta>,
    right: StreamReceiver<R, P::Meta>,
    window: Duration,
    mut left_key: LK,
    right_key: RK,
    mut predicate: PR,
    mut combine: CF,
    provenance: P,
    checkpoints: CheckpointHandle,
) -> PendingChain<O, P::Meta>
where
    L: TupleData,
    R: TupleData,
    O: TupleData,
    K: Hash + Eq + Send + 'static,
    LK: FnMut(&L) -> K + Send + 'static,
    RK: FnMut(&R) -> K + Send + 'static,
    PR: FnMut(&L, &R) -> bool + Send + 'static,
    CF: FnMut(&L, &R) -> O + Send + 'static,
    P: ProvenanceSystem,
{
    keyed_window(
        name,
        left,
        vec![right],
        window,
        move |l: &L| Some(left_key(l)),
        right_key,
        move |provenance: &P, l: &Arc<GTuple<L, P::Meta>>, r: Option<&Arc<GTuple<R, P::Meta>>>| {
            let r = r?;
            predicate(&l.data, &r.data)
                .then(|| (combine(&l.data, &r.data), provenance.join_meta(l, r)))
        },
        provenance,
        checkpoints,
    )
}

/// A Stitch heading a new chain: the Join's rule over one `probes` input and any
/// number of `lookups` inputs, merged in timestamp order. A probe whose `probe_key`
/// is `None` is resolved alone as it is released (`resolve(probe, None)`); a keyed
/// probe is resolved once with every lookup tuple of its key within `window`,
/// whichever of the two arrives first (`resolve(probe, Some(lookup))`). Lookup
/// tuples are state, not contributors: the output's metadata is
/// [`ProvenanceSystem::map_meta`] of the probe. Windows, purge, instruments and
/// checkpoints are the Join's.
///
/// # Panics
/// Panics if the window size is zero.
#[allow(clippy::too_many_arguments)]
pub fn stitch<L, R, O, K, LK, RK, F, P>(
    name: &str,
    probes: StreamReceiver<L, P::Meta>,
    lookups: Vec<StreamReceiver<R, P::Meta>>,
    window: Duration,
    probe_key: LK,
    lookup_key: RK,
    mut resolve: F,
    provenance: P,
    checkpoints: CheckpointHandle,
) -> PendingChain<O, P::Meta>
where
    L: TupleData,
    R: TupleData,
    O: TupleData,
    K: Hash + Eq + Send + 'static,
    LK: FnMut(&L) -> Option<K> + Send + 'static,
    RK: FnMut(&R) -> K + Send + 'static,
    F: FnMut(&L, Option<&R>) -> O + Send + 'static,
    P: ProvenanceSystem,
{
    keyed_window(
        name,
        probes,
        lookups,
        window,
        probe_key,
        lookup_key,
        move |provenance: &P, l: &Arc<GTuple<L, P::Meta>>, r: Option<&Arc<GTuple<R, P::Meta>>>| {
            let data = resolve(&l.data, r.map(|r| &r.data));
            Some((data, provenance.map_meta(l)))
        },
        provenance,
        checkpoints,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot};
    use crate::operator::tests::run_bare;
    use crate::provenance::NoProvenance;
    use crate::tuple::Element;

    fn tup<T: TupleData>(ts: u64, data: T) -> Arc<GTuple<T, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), ts, data, ()))
    }

    /// Joins (meter_id, daily) with (meter_id, midnight) within one hour, as Q4 does.
    fn run_join(
        left: Vec<Element<(u32, i64), ()>>,
        right: Vec<Element<(u32, i64), ()>>,
        window_secs: u64,
    ) -> Vec<(u64, (u32, i64, i64))> {
        run_checkpointed_join(left, right, window_secs, Default::default())
    }

    fn run_checkpointed_join(
        left: Vec<Element<(u32, i64), ()>>,
        right: Vec<Element<(u32, i64), ()>>,
        window_secs: u64,
        checkpoints: CheckpointHandle,
    ) -> Vec<(u64, (u32, i64, i64))> {
        let (ltx, lrx) = stream_channel(256);
        let (rtx, rrx) = stream_channel(256);
        let out_slot = OutputSlot::<(u32, i64, i64), ()>::new();
        let (otx, mut orx) = stream_channel(256);
        out_slot.connect(otx);
        for el in left {
            ltx.send(el).unwrap();
        }
        ltx.send(Element::End).unwrap();
        for el in right {
            rtx.send(el).unwrap();
        }
        rtx.send(Element::End).unwrap();

        let op = chain(
            "join",
            lrx,
            rrx,
            Duration::from_secs(window_secs),
            |l: &(u32, i64)| l.0,
            |r: &(u32, i64)| r.0,
            |_: &(u32, i64), _: &(u32, i64)| true,
            |l: &(u32, i64), r: &(u32, i64)| (l.0, l.1, r.1),
            NoProvenance,
            checkpoints,
        )
        .into_channel("join", out_slot);
        run_bare(op);
        let mut outputs = Vec::new();
        loop {
            match orx.recv() {
                Element::Tuple(t) => outputs.push((t.ts.as_secs(), t.data)),
                Element::Watermark(_) | Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        outputs
    }

    #[test]
    fn joins_pairs_matching_predicate_within_window() {
        let left = vec![
            Element::Tuple(tup(10, (1u32, 100i64))),
            Element::Tuple(tup(20, (2u32, 200i64))),
        ];
        let right = vec![
            Element::Tuple(tup(15, (1u32, 5i64))),
            Element::Tuple(tup(25, (3u32, 7i64))),
        ];
        let out = run_join(left, right, 60);
        assert_eq!(out, vec![(15, (1, 100, 5))]);
    }

    #[test]
    fn pairs_outside_window_are_not_joined() {
        let left = vec![Element::Tuple(tup(0, (1u32, 1i64)))];
        let right = vec![Element::Tuple(tup(100, (1u32, 2i64)))];
        let out = run_join(left, right, 50);
        assert!(out.is_empty());
    }

    #[test]
    fn pair_exactly_at_window_boundary_is_joined() {
        let left = vec![Element::Tuple(tup(0, (1u32, 1i64)))];
        let right = vec![Element::Tuple(tup(50, (1u32, 2i64)))];
        let out = run_join(left, right, 50);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn output_timestamp_is_the_more_recent_input() {
        let left = vec![Element::Tuple(tup(40, (9u32, 1i64)))];
        let right = vec![Element::Tuple(tup(10, (9u32, 2i64)))];
        let out = run_join(left, right, 100);
        assert_eq!(out, vec![(40, (9, 1, 2))]);
    }

    #[test]
    fn join_handles_many_matches_per_tuple() {
        let left = vec![
            Element::Tuple(tup(10, (1u32, 1i64))),
            Element::Tuple(tup(11, (1u32, 2i64))),
            Element::Tuple(tup(12, (1u32, 3i64))),
        ];
        let right = vec![Element::Tuple(tup(12, (1u32, 9i64)))];
        let out = run_join(left, right, 100);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn output_is_timestamp_ordered() {
        let left: Vec<_> = (0..20)
            .map(|i| Element::Tuple(tup(i * 10, (1u32, i as i64))))
            .collect();
        let right: Vec<_> = (0..20)
            .map(|i| Element::Tuple(tup(i * 10 + 5, (1u32, i as i64))))
            .collect();
        let out = run_join(left, right, 15);
        assert!(!out.is_empty());
        let ts: Vec<u64> = out.iter().map(|&(ts, _)| ts).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn unequal_keys_never_reach_the_predicate() {
        let (ltx, lrx) = stream_channel(16);
        let (rtx, rrx) = stream_channel(16);
        for (tx, key) in [(&ltx, 1u32), (&rtx, 2u32)] {
            tx.send(Element::Tuple(tup(10, (key, 0i64)))).unwrap();
            tx.send(Element::End).unwrap();
        }
        let op = chain(
            "join",
            lrx,
            rrx,
            Duration::from_secs(60),
            |l: &(u32, i64)| l.0,
            |r: &(u32, i64)| r.0,
            |_: &(u32, i64), _: &(u32, i64)| -> bool { panic!("probed across keys") },
            |l: &(u32, i64), r: &(u32, i64)| l.1 + r.1,
            NoProvenance,
            Default::default(),
        )
        .into_channel("join", OutputSlot::<i64, ()>::new());
        let stats = run_bare(op);
        assert_eq!((stats.tuples_in, stats.tuples_out), (2, 0));
    }

    /// While one side waits at a barrier the other runs ahead to its own; what it
    /// retains must still be there for the tuples the waiting side sends after the
    /// cut, which are older than where the running side got to.
    #[test]
    fn side_running_ahead_to_a_barrier_keeps_partners_of_the_waiting_side() {
        let store = crate::state::CheckpointStore::in_memory();
        let handle = CheckpointHandle::default();
        let config = crate::state::CheckpointConfig::new(1, store);
        handle.set(config).expect("fresh handle");
        let out = run_checkpointed_join(
            vec![
                Element::Tuple(tup(10, (1u32, 110i64))),
                Element::Barrier(1),
                Element::Tuple(tup(12, (1u32, 112i64))),
            ],
            vec![
                Element::Tuple(tup(9, (1u32, 9i64))),
                Element::Tuple(tup(20, (1u32, 20i64))),
                Element::Barrier(1),
            ],
            5,
            handle,
        );
        assert_eq!(out, vec![(10, (1, 110, 9)), (12, (1, 112, 9))]);
    }

    /// Killed between two barriers: the replacement restores the windows of epoch 1
    /// and must probe them through a rebuilt index — a restored tuple still in the
    /// window matches, one the restored run has since purged does not, and the purge
    /// takes the right tuple out of a bucket that holds both.
    #[test]
    fn restored_join_probes_and_purges_through_the_rebuilt_index() {
        let store = crate::state::CheckpointStore::in_memory();
        let checkpoints = || {
            let handle = CheckpointHandle::default();
            let config = crate::state::CheckpointConfig::new(1, Arc::clone(&store));
            handle.set(config).expect("fresh handle");
            handle
        };
        // First attempt: epoch 1 cuts after L0, L10 | R1; L11 is joined after the
        // cut and lost with the operator.
        let before = run_checkpointed_join(
            vec![
                Element::Tuple(tup(0, (1u32, 100i64))),
                Element::Tuple(tup(10, (1u32, 110i64))),
                Element::Barrier(1),
                Element::Tuple(tup(11, (1u32, 111i64))),
            ],
            vec![Element::Tuple(tup(1, (1u32, 1i64))), Element::Barrier(1)],
            5,
            checkpoints(),
        );
        assert_eq!(before, vec![(1, (1, 100, 1))]);
        assert_eq!(store.begin_recovery(), Some(1));

        // Second attempt: the sources replay from the cut. R12 is released once the
        // left watermark passes it, by which time the frontier (11) has purged L0
        // and R1 (ts + 5 < 11) but not L10.
        let after = run_checkpointed_join(
            vec![
                Element::Tuple(tup(11, (1u32, 111i64))),
                Element::Watermark(Timestamp::from_secs(16)),
            ],
            vec![Element::Tuple(tup(12, (1u32, 12i64)))],
            5,
            checkpoints(),
        );
        assert_eq!(after, vec![(12, (1, 110, 12)), (12, (1, 111, 12))]);
    }

    /// The stitch over two lookup inputs: an unkeyed probe is resolved alone, a
    /// keyed one with each same-key lookup tuple within the window — one that came
    /// before it and one that came after — and never with one outside the window.
    #[test]
    fn stitch_resolves_probes_alone_or_against_lookups_in_either_order() {
        let (ptx, prx) = stream_channel(16);
        let (l0tx, l0rx) = stream_channel(16);
        let (l1tx, l1rx) = stream_channel(16);
        let probe = |ts: u64, key: Option<u32>| Element::Tuple(tup(ts, (key, ts)));
        for el in [probe(10, None), probe(20, Some(1)), Element::End] {
            ptx.send(el).unwrap();
        }
        let lookup = |ts: u64| Element::Tuple(tup(ts, (1u32, ts as i64)));
        for el in [lookup(5), lookup(60), Element::End] {
            l0tx.send(el).unwrap();
        }
        for el in [lookup(30), Element::End] {
            l1tx.send(el).unwrap();
        }
        let out_slot = OutputSlot::<(u64, Option<i64>), ()>::new();
        let (otx, mut orx) = stream_channel(16);
        out_slot.connect(otx);
        let op = stitch(
            "stitch",
            prx,
            vec![l0rx, l1rx],
            Duration::from_secs(20),
            |p: &(Option<u32>, u64)| p.0,
            |l: &(u32, i64)| l.0,
            |p: &(Option<u32>, u64), l: Option<&(u32, i64)>| (p.1, l.map(|l| l.1)),
            NoProvenance,
            Default::default(),
        )
        .into_channel("stitch", out_slot);
        let stats = run_bare(op);
        assert_eq!((stats.tuples_in, stats.tuples_out), (5, 3));
        let mut outputs = Vec::new();
        loop {
            match orx.recv() {
                Element::Tuple(t) => outputs.push((t.ts.as_secs(), t.data)),
                Element::Watermark(_) | Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(
            outputs,
            [(10, (10, None)), (20, (20, Some(5))), (30, (20, Some(30)))]
        );
    }

    #[test]
    #[should_panic(expected = "window size must be positive")]
    fn zero_window_is_rejected() {
        let (_ltx, lrx) = stream_channel::<i64, ()>(1);
        let (_rtx, rrx) = stream_channel::<i64, ()>(1);
        let _ = chain(
            "join",
            lrx,
            rrx,
            Duration::ZERO,
            |_: &i64| (),
            |_: &i64| (),
            |_: &i64, _: &i64| true,
            |l: &i64, r: &i64| l + r,
            NoProvenance,
            Default::default(),
        );
    }

    #[test]
    fn join_aligns_barriers_and_forwards_one() {
        let (ltx, lrx) = stream_channel::<(u32, i64), ()>(64);
        let (rtx, rrx) = stream_channel::<(u32, i64), ()>(64);
        let out_slot = OutputSlot::<(u32, i64, i64), ()>::new();
        let (otx, mut orx) = stream_channel(64);
        out_slot.connect(otx);
        // Both sides carry a barrier for epoch 1 after their pre-barrier tuple; the
        // join must release the pair first, then forward exactly one barrier.
        ltx.send(Element::Tuple(tup(10, (1u32, 100i64)))).unwrap();
        ltx.send(Element::Barrier(1)).unwrap();
        ltx.send(Element::End).unwrap();
        rtx.send(Element::Tuple(tup(15, (1u32, 5i64)))).unwrap();
        rtx.send(Element::Barrier(1)).unwrap();
        rtx.send(Element::End).unwrap();

        let op = chain(
            "join",
            lrx,
            rrx,
            Duration::from_secs(60),
            |l: &(u32, i64)| l.0,
            |r: &(u32, i64)| r.0,
            |_: &(u32, i64), _: &(u32, i64)| true,
            |l: &(u32, i64), r: &(u32, i64)| (l.0, l.1, r.1),
            NoProvenance,
            Default::default(),
        )
        .into_channel("join", out_slot);
        run_bare(op);
        let mut tuples = Vec::new();
        let mut barriers = Vec::new();
        loop {
            match orx.recv() {
                Element::Tuple(t) => {
                    assert!(barriers.is_empty(), "tuple emitted after the barrier");
                    tuples.push(t.data);
                }
                Element::Barrier(epoch) => barriers.push(epoch),
                Element::Watermark(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(tuples, vec![(1, 100, 5)]);
        assert_eq!(barriers, vec![1]);
    }
}
