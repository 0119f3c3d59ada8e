//! Key-partitioned parallel execution: shuffle exchange, sharded operator instances
//! and a provenance-safe fan-in.
//!
//! The paper's evaluation runs each query as a single chain of operator threads, which
//! caps throughput at one core per operator. This module adds the next scaling axis:
//! a keyed stream is split by a **shuffle exchange** (`PartitionTail`, a deterministic
//! hash partitioner writing to one stream channel per shard), each shard runs its own
//! instance of a stateful operator (Aggregate or Join) with private windows and state,
//! and the shard outputs are reunified by a **canonicalising fan-in** (the keyed
//! merge), which heads the chain behind the region like every fan-in
//! ([`crate::merge`]). The planner ([`crate::planner`]) is the only caller: a
//! stateful operator shards when its logical stream carries
//! [`Parallelism::shards`] or explicit placements.
//!
//! # Why this is provenance-safe
//!
//! GeneaLog's provenance model (instrumented tuples carrying chain pointers) is
//! shard-agnostic as long as per-key order is preserved:
//!
//! * the partitioner *forwards* tuples (the same `Arc`, like Filter and Union — a
//!   type (i) operator in the paper's Definition 3.1), so no metadata is created or
//!   rewritten on the way into a shard;
//! * every key lands on exactly one shard, so each shard's window store sees exactly
//!   the per-key tuple sequence the single-instance operator would see — the
//!   `aggregate_meta` / `join_meta` hooks fire with identical inputs and the `U1`,
//!   `U2` and `N` chain pointers come out identical;
//! * the fan-in forwards the same `Arc`s in a canonical global order (timestamp,
//!   then group key, then per-key emission order), so downstream operators and sinks
//!   observe the same stream — and the same contribution graphs — as the
//!   single-instance plan, for **any** shard count.
//!
//! The canonical order matters: the timestamp-ordered merge
//! ([`DeterministicMerge`](crate::merge::DeterministicMerge)) alone breaks timestamp
//! ties by input index, which would interleave equal-timestamp windows of different
//! keys differently for different shard counts. The keyed merge therefore buffers
//! each equal-timestamp run and stable-sorts it by the operator's group key before
//! releasing it.
//!
//! # Example
//!
//! ```rust
//! use genealog_spe::prelude::*;
//!
//! # fn main() -> Result<(), SpeError> {
//! let plan = LogicalPlan::new(NoProvenance);
//! // Count readings per meter in 1-minute tumbling windows, on 4 parallel shards.
//! let out = plan
//!     .source(
//!         "meters",
//!         VecSource::with_period((0..100u32).map(|i| (i % 8, i as i64)).collect(), 1_000),
//!     )
//!     .aggregate(
//!         "count",
//!         WindowSpec::tumbling(Duration::from_secs(60))?,
//!         |r: &(u32, i64)| r.0,
//!         |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.len() as i64),
//!         |o: &(u32, i64)| o.0,
//!     )
//!     .with(Parallelism::shards(4))
//!     .collecting_sink("sink");
//! plan.deploy()?.wait()?;
//! assert!(!out.is_empty());
//! # Ok(())
//! # }
//! ```

use std::cmp::Ordering as CmpOrdering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::channel::{ChannelClosed, OutputHandle, OutputSlot};
use crate::fusion::{PendingChain, Tail};
use crate::merge::{FanIn, FanInput};
use crate::metrics::OpCounters;
use crate::operator::aggregate::{AggregateStage, WindowView};
use crate::operator::filter::FilterStage;
use crate::operator::join;
use crate::operator::map::MapStage;
use crate::provenance::{MetaData, ProvenanceSystem};
use crate::query::{NodeKind, Query, ShardGroup, ShardPlacement, StreamRef};
use crate::time::{Duration, Timestamp};
use crate::tuple::{GTuple, TupleData};
use crate::window::WindowSpec;

/// Boxed key comparator ordering the payloads of an equal-timestamp run.
pub type KeyComparator<T> = Box<dyn FnMut(&T, &T) -> CmpOrdering + Send>;

/// Number of parallel instances a sharded operator runs with: the planner hint
/// [`LogicalStream::with`](crate::logical::LogicalStream::with) takes. A stateful
/// operator without it runs as the plain single-instance operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    shards: usize,
}

impl Parallelism {
    /// Runs the operator on exactly `n` shards (clamped to at least 1):
    /// `.with(Parallelism::shards(4))`.
    pub const fn shards(n: usize) -> Self {
        Parallelism {
            shards: if n == 0 { 1 } else { n },
        }
    }

    /// The requested shard count, at least 1.
    pub(crate) const fn count(self) -> usize {
        self.shards
    }
}

/// Deterministic shard assignment: hashes `key` and reduces it modulo `shards`.
///
/// The hasher is seeded with a fixed state, so the assignment is stable across runs
/// and processes — a requirement for reproducible sharded execution (and for the
/// byte-identical output guarantee of the shard-equivalence tests).
pub fn shard_of<K: Hash + ?Sized>(key: &K, shards: usize) -> usize {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % shards.max(1) as u64) as usize
}

/// The shuffle-exchange operator, the tail of its chain: routes each tuple to the
/// shard owning its key.
///
/// Partition is a *forwarding* operator (no provenance instrumentation, Definition 3.1
/// type (i)): it moves the input `Arc` to exactly one output, so shard-local operators
/// see the very tuples — and the very metadata — the single-instance plan would see.
/// Watermarks and the end-of-stream marker are broadcast to every shard, which keeps
/// each shard's window-closing schedule identical to the unsharded operator's.
pub(crate) struct PartitionTail<T, M, F> {
    outs: Vec<OutputHandle<T, M>>,
    row: OpCounters,
    /// The shard of a payload: an index below the number of outputs
    /// (out-of-range indices are clamped to the last shard).
    shard_fn: F,
}

impl<T, M, F> PartitionTail<T, M, F> {
    /// Configures a Partition over one output slot per shard; the returned closure
    /// builds it on its chain's thread.
    pub(crate) fn open(
        outputs: Vec<OutputSlot<T, M>>,
        shard_fn: F,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static
    where
        T: TupleData,
        M: MetaData,
        F: Send + 'static,
    {
        move |_, row| PartitionTail {
            outs: outputs.iter().map(OutputSlot::open).collect(),
            row,
            shard_fn,
        }
    }
}

impl<T, M, F> Tail<T, M> for PartitionTail<T, M, F>
where
    F: FnMut(&T) -> usize,
{
    fn tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> {
        let shard = (self.shard_fn)(&tuple.data).min(self.outs.len() - 1);
        // A closed shard means the query is shutting down; losing a key range
        // would corrupt results, so stop the whole exchange.
        self.outs[shard].send_tuple(tuple)?;
        self.row.inc_out();
        Ok(())
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        self.outs
            .iter_mut()
            .try_for_each(|out| out.send_watermark(ts))
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        // Broadcast like watermarks: every shard observes the cut at the same
        // position in its key range, so the shard instances snapshot a consistent
        // global cut.
        self.outs
            .iter_mut()
            .try_for_each(|out| out.send_barrier(epoch))
    }

    fn end(&mut self) {
        for out in &mut self.outs {
            let _ = out.send_end();
        }
    }
}

/// The provenance-safe fan-in's rule, reunifying shard outputs into one canonical
/// stream: it buffers each run of equal-timestamp tuples the merge releases and
/// stable-sorts it by the operator's group key, so the output order is `(timestamp,
/// key, per-key emission order)` for any shard count (see the module docs). Like
/// Union, it *forwards* tuples (same `Arc`), so GeneaLog chain pointers pass
/// through untouched.
///
/// The equal-timestamp run buffer is bounded by the number of tuples the upstream
/// operator emits *at one timestamp* (for an aggregate: at most one window output per
/// group key), not by a channel capacity — canonical ordering requires the whole run
/// before it can be sorted. Extremely skewed workloads (e.g. a join producing
/// quadratically many matches at a single timestamp) pay for that run in memory.
pub(crate) struct KeyedMerge<T, M> {
    cmp: KeyComparator<T>,
    /// The run of equal-timestamp tuples being collected. It is released once the
    /// merge proves its timestamp complete: a later tuple, a strictly later
    /// watermark, an aligned barrier or the end of the inputs.
    run: Vec<Arc<GTuple<T, M>>>,
}

impl<T, M> KeyedMerge<T, M> {
    /// Sorts the buffered equal-timestamp run by key (stable, so per-key emission
    /// order survives) and hands it on.
    fn flush(&mut self, next: &mut dyn Tail<T, M>) -> Result<(), ChannelClosed> {
        let cmp = &mut self.cmp;
        self.run.sort_by(|a, b| cmp(&a.data, &b.data));
        self.run.drain(..).try_for_each(|tuple| next.tuple(tuple))
    }
}

impl<T: TupleData, M: MetaData> FanIn<Vec<FanInput<T, M>>, T, M> for KeyedMerge<T, M> {
    fn release(
        &mut self,
        inputs: &mut Vec<FanInput<T, M>>,
        index: usize,
        next: &mut dyn Tail<T, M>,
    ) -> Result<(), ChannelClosed> {
        let tuple = inputs[index].pop();
        if self.run.first().is_some_and(|head| head.ts != tuple.ts) {
            self.flush(next)?;
        }
        self.run.push(tuple);
        Ok(())
    }

    fn watermark(&mut self, ts: Timestamp, next: &mut dyn Tail<T, M>) -> Result<(), ChannelClosed> {
        // A watermark beyond the run's timestamp proves the run complete. A
        // watermark at or below it must still be forwarded (held tuples have
        // ts >= the watermark, so ordering semantics are preserved).
        if self.run.first().is_some_and(|head| ts > head.ts) {
            self.flush(next)?;
        }
        next.watermark(ts)
    }

    fn barrier(&mut self, epoch: u64, next: &mut dyn Tail<T, M>) -> Result<(), ChannelClosed> {
        // The aligned barrier proves every shard has emitted all outputs for the
        // windows closed before the cut (watermarks precede the barrier on every
        // shard channel), so the held run is complete: flush it and the fan-in
        // crosses the barrier stateless.
        self.flush(next)?;
        next.barrier(epoch)
    }

    fn end(&mut self, next: &mut dyn Tail<T, M>) {
        if self.flush(next).is_ok() {
            next.end();
        }
    }
}

impl<P: ProvenanceSystem> Query<P> {
    /// Adds a shuffle exchange: hash-partitions `input` into `shards` streams, with
    /// all tuples of one key routed to the same shard. Watermarks are broadcast.
    ///
    /// The partitioner forwards tuples without copying or re-instrumenting them, so
    /// provenance metadata passes through untouched.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub(crate) fn partition<T, K, KF>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        shards: usize,
        mut key_fn: KF,
    ) -> Vec<StreamRef<T, P::Meta>>
    where
        T: TupleData,
        K: Hash,
        KF: FnMut(&T) -> K + Send + 'static,
    {
        assert!(shards > 0, "Partition requires at least one shard");
        let node = self.add_node(name, NodeKind::Partition);
        self.set_shard_group(node, name, shards);
        let mut slots = Vec::with_capacity(shards);
        let mut streams = Vec::with_capacity(shards);
        for i in 0..shards {
            let (slot, mut stream) = self.new_output_stream(node, format!("{name}.shard{i}"));
            // The N shard channels are one logical edge split N ways: budget them
            // jointly so the exchange cannot buffer N× the configured capacity.
            stream.capacity_share = shards;
            slots.push(slot);
            streams.push(stream);
        }
        let shard_fn = move |data: &T| shard_of(&key_fn(data), shards);
        self.set_tail(node, input, PartitionTail::open(slots, shard_fn));
        streams
    }

    /// Adds a provenance-safe fan-in over shard outputs: the merged stream is ordered
    /// by `(timestamp, key, per-key emission order)`, `cmp` ordering the keys of an
    /// equal-timestamp run, independent of how many shards produced it.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    pub(crate) fn keyed_merge_cmp<T>(
        &mut self,
        name: &str,
        inputs: Vec<StreamRef<T, P::Meta>>,
        cmp: KeyComparator<T>,
    ) -> StreamRef<T, P::Meta>
    where
        T: TupleData,
    {
        assert!(!inputs.is_empty(), "ShardMerge requires at least one input");
        let node = self.add_node(name, NodeKind::ShardMerge);
        self.set_shard_group(node, name, inputs.len());
        let inputs: Vec<_> = inputs
            .into_iter()
            .map(|stream| FanInput::new(self.attach_input(stream, node)))
            .collect();
        let run = Vec::new();
        let chain = PendingChain::fan_in(name, inputs, move |_, _| KeyedMerge { cmp, run });
        self.open_chain(node, chain)
    }

    /// Lowering core of a placed sharded Aggregate: the exchange and the shard
    /// instances (local threads or remote splices), *without* the fan-in. The
    /// returned shard streams carry the joint capacity share; the planner closes the
    /// region with `keyed_merge_cmp`, after any per-shard stages.
    pub(crate) fn shard_aggregate_streams<I, O, K, KF, AF>(
        &mut self,
        name: &str,
        input: StreamRef<I, P::Meta>,
        spec: WindowSpec,
        key_fn: KF,
        agg_fn: AF,
        placements: Vec<ShardPlacement<P, I, O>>,
    ) -> Vec<StreamRef<O, P::Meta>>
    where
        I: TupleData,
        O: TupleData,
        K: Ord + Hash + Clone + Send + Sync + 'static,
        KF: FnMut(&I) -> K + Clone + Send + 'static,
        AF: FnMut(&WindowView<'_, K, I, P::Meta>) -> O + Clone + Send + 'static,
    {
        assert!(
            !placements.is_empty(),
            "a sharded operator needs at least one shard placement"
        );
        let instances = placements.len();
        let shards = self.partition(
            &format!("{name}.exchange"),
            input,
            instances,
            key_fn.clone(),
        );
        let mut outs = Vec::with_capacity(instances);
        for (i, (shard, placement)) in shards.into_iter().zip(placements).enumerate() {
            let mut stream = match placement {
                ShardPlacement::Local => {
                    let (key_fn, agg_fn) = (key_fn.clone(), agg_fn.clone());
                    let (provenance, checkpoints) =
                        (self.provenance().clone(), self.checkpoint_handle());
                    let aggregate =
                        AggregateStage::open(spec, key_fn, agg_fn, provenance, checkpoints);
                    let group = ShardGroup {
                        name: name.to_string(),
                        instances,
                    };
                    // The shard's chain stays open: per-shard stages chain onto it.
                    self.add_fused_stage(
                        &format!("{name}[{i}]"),
                        NodeKind::ShardedAggregate,
                        Some(group),
                        shard,
                        aggregate,
                    )
                }
                ShardPlacement::Remote(route) => route(self, i, shard),
            };
            // Shard outputs feeding the fan-in are one logical edge, whether the
            // shard ran in-process or on a remote instance.
            stream.capacity_share = instances;
            outs.push(stream);
        }
        outs
    }

    /// Lowering core of a sharded equi-key Join (see `shard_aggregate_streams`):
    /// both inputs are hash-partitioned on their key extractors, so matching pairs
    /// always meet inside one shard, and `instances` local shard instances run
    /// without the fan-in.
    /// Join shards always run in this process — no remote route exists for a
    /// two-input shard.
    #[allow(clippy::too_many_arguments)] // the full join declaration in one place
    pub(crate) fn shard_join_streams<L, R, O, K, LK, RK, PR, CF>(
        &mut self,
        name: &str,
        left: StreamRef<L, P::Meta>,
        right: StreamRef<R, P::Meta>,
        window: Duration,
        left_key: LK,
        right_key: RK,
        predicate: PR,
        combine: CF,
        instances: usize,
    ) -> Vec<StreamRef<O, P::Meta>>
    where
        L: TupleData,
        R: TupleData,
        O: TupleData,
        K: Ord + Hash + Clone + Send + 'static,
        LK: FnMut(&L) -> K + Clone + Send + 'static,
        RK: FnMut(&R) -> K + Clone + Send + 'static,
        PR: FnMut(&L, &R) -> bool + Clone + Send + 'static,
        CF: FnMut(&L, &R) -> O + Clone + Send + 'static,
    {
        assert!(instances > 0, "a sharded operator needs at least one shard");
        let lefts = self.partition(&format!("{name}.lx"), left, instances, left_key.clone());
        let rights = self.partition(&format!("{name}.rx"), right, instances, right_key.clone());
        let mut outs = Vec::with_capacity(instances);
        for (i, (l, r)) in lefts.into_iter().zip(rights).enumerate() {
            let shard_name = format!("{name}[{i}]");
            let node = self.add_node(shard_name.clone(), NodeKind::ShardedJoin);
            self.set_shard_group(node, name, instances);
            let join = join::chain(
                &shard_name,
                self.attach_input(l, node),
                self.attach_input(r, node),
                window,
                left_key.clone(),
                right_key.clone(),
                predicate.clone(),
                combine.clone(),
                self.provenance().clone(),
                self.checkpoint_handle(),
            );
            // The shard's chain stays open: per-shard stages chain onto it.
            let mut stream = self.open_chain(node, join);
            // Shard outputs feeding the fan-in are one logical edge.
            stream.capacity_share = instances;
            outs.push(stream);
        }
        outs
    }

    /// Lowering core of a per-shard Filter (one instance per shard stream, grouped
    /// for reporting; fuses within each shard under the fusion pass).
    ///
    /// Each shard gets its own instance `name[i]` of the predicate; the instances
    /// form a shard group, so the runtime folds their statistics into one report and
    /// DOT exports annotate them with the shard count. Under
    /// [`QueryConfig::fusion`](crate::query::QueryConfig) consecutive per-shard
    /// stages fuse *within* each shard — never across the exchange, and the fan-in
    /// that closes the region heads a chain of its own.
    pub(crate) fn filter_shard_streams<T, F>(
        &mut self,
        name: &str,
        shards: Vec<StreamRef<T, P::Meta>>,
        predicate: F,
    ) -> Vec<StreamRef<T, P::Meta>>
    where
        T: TupleData,
        F: FnMut(&T) -> bool + Clone + Send + 'static,
    {
        assert!(
            !shards.is_empty(),
            "a per-shard Filter requires at least one shard"
        );
        let instances = shards.len();
        shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let stage = FilterStage::new(predicate.clone());
                self.add_fused_stage(
                    &format!("{name}[{i}]"),
                    NodeKind::Filter,
                    Some(ShardGroup {
                        name: name.to_string(),
                        instances,
                    }),
                    shard,
                    move |_, _| stage,
                )
            })
            .collect()
    }

    /// Lowering core of a per-shard Map (see `filter_shard_streams`).
    pub(crate) fn map_shard_streams<I, O, R, F>(
        &mut self,
        name: &str,
        shards: Vec<StreamRef<I, P::Meta>>,
        function: F,
    ) -> Vec<StreamRef<O, P::Meta>>
    where
        I: TupleData,
        O: TupleData,
        R: IntoIterator<Item = O>,
        F: FnMut(&I) -> R + Clone + Send + 'static,
    {
        assert!(
            !shards.is_empty(),
            "a per-shard Map requires at least one shard"
        );
        let instances = shards.len();
        let provenance = self.provenance().clone();
        shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut function = function.clone();
                let stage = MapStage::new(
                    move |tuple: &Arc<GTuple<I, P::Meta>>| function(&tuple.data),
                    provenance.clone(),
                );
                self.add_fused_stage(
                    &format!("{name}[{i}]"),
                    NodeKind::Map,
                    Some(ShardGroup {
                        name: name.to_string(),
                        instances,
                    }),
                    shard,
                    move |_, _| stage,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, StreamReceiver};
    use crate::fusion::FusedOp;
    use crate::logical::{LogicalPlan, LogicalStream};
    use crate::operator::source::VecSource;
    use crate::operator::tests::run_bare;
    use crate::planner::PlannerConfig;
    use crate::provenance::NoProvenance;
    use crate::tuple::Element;

    fn tuple(ts: u64, key: u32, v: i64) -> Arc<GTuple<(u32, i64), ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, (key, v), ()))
    }

    /// A keyed merge on the first field, alone in its chain, writing `output`.
    fn keyed_merge(
        inputs: Vec<StreamReceiver<(u32, i64), ()>>,
        output: OutputSlot<(u32, i64), ()>,
    ) -> FusedOp {
        let cmp: KeyComparator<(u32, i64)> = Box::new(|a, b| a.0.cmp(&b.0));
        let inputs = inputs.into_iter().map(FanInput::new).collect();
        let run = Vec::new();
        PendingChain::fan_in("merge", inputs, move |_, _| KeyedMerge { cmp, run })
            .into_channel("merge", output)
    }

    /// A logical plan with fusion off, so every physical operator reports alone.
    fn unfused_plan() -> LogicalPlan<NoProvenance> {
        LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(false))
    }

    /// `src -> agg`: a count per key in tumbling windows of `window` seconds.
    fn count_per_key(
        plan: &LogicalPlan<NoProvenance>,
        items: Vec<(u32, i64)>,
        window: u64,
    ) -> LogicalStream<NoProvenance, (u32, i64)> {
        plan.source("src", VecSource::with_period(items, 1_000))
            .aggregate(
                "agg",
                WindowSpec::tumbling(Duration::from_secs(window)).unwrap(),
                |t: &(u32, i64)| t.0,
                |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.len() as i64),
                |o: &(u32, i64)| o.0,
            )
    }

    #[test]
    fn parallelism_clamps_zero_to_one_shard() {
        assert_eq!(Parallelism::shards(4).count(), 4);
        assert_eq!(Parallelism::shards(0).count(), 1);
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7] {
            for key in 0u64..100 {
                let a = shard_of(&key, shards);
                assert!(a < shards);
                assert_eq!(a, shard_of(&key, shards), "stable across calls");
            }
        }
        // Keys actually spread over shards (not all on one).
        let hit: std::collections::BTreeSet<usize> = (0u64..64).map(|k| shard_of(&k, 4)).collect();
        assert!(hit.len() > 1, "64 keys must use more than one of 4 shards");
    }

    #[test]
    fn partition_routes_keys_consistently_and_broadcasts_watermarks() {
        let (in_tx, in_rx) = stream_channel(64);
        let slots: Vec<OutputSlot<(u32, i64), ()>> = (0..3).map(|_| OutputSlot::new()).collect();
        let mut rxs = Vec::new();
        for slot in &slots {
            let (tx, rx) = stream_channel(64);
            slot.connect(tx);
            rxs.push(rx);
        }
        for i in 0..12u64 {
            in_tx
                .send(Element::Tuple(tuple(i, (i % 4) as u32, i as i64)))
                .unwrap();
        }
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(12)))
            .unwrap();
        in_tx.send(Element::End).unwrap();

        let partition = PartitionTail::open(slots, |t: &(u32, i64)| shard_of(&t.0, 3));
        let stats = run_bare(FusedOp::tail("part", in_rx, partition));
        assert_eq!(stats.tuples_in, 12);
        assert_eq!(stats.tuples_out, 12);

        let mut key_to_shard: std::collections::BTreeMap<u32, usize> = Default::default();
        let mut total = 0;
        for (shard, rx) in rxs.iter_mut().enumerate() {
            let mut watermarks = 0;
            let mut last_value_per_key: std::collections::BTreeMap<u32, i64> = Default::default();
            loop {
                match rx.recv() {
                    Element::Tuple(t) => {
                        total += 1;
                        let prior = key_to_shard.insert(t.data.0, shard);
                        assert!(
                            prior.is_none_or(|p| p == shard),
                            "key {} seen on two shards",
                            t.data.0
                        );
                        // Per-key order is preserved.
                        if let Some(prev) = last_value_per_key.insert(t.data.0, t.data.1) {
                            assert!(prev < t.data.1);
                        }
                    }
                    Element::Watermark(_) => watermarks += 1,
                    Element::Barrier(_) => {}
                    Element::End => break,
                }
            }
            assert_eq!(watermarks, 1, "watermark broadcast to every shard");
        }
        assert_eq!(total, 12);
    }

    #[test]
    fn keyed_merge_canonicalises_equal_timestamp_runs() {
        // Two shards emit windows with the same timestamp for different keys; shard 1
        // holds the *smaller* key, so the raw merge tie-break (input index) would
        // order keys 2, 1 — the keyed merge must order them 1, 2.
        let (tx0, rx0) = stream_channel::<(u32, i64), ()>(16);
        let (tx1, rx1) = stream_channel::<(u32, i64), ()>(16);
        let out_slot = OutputSlot::new();
        let (out_tx, mut out_rx) = stream_channel(64);
        out_slot.connect(out_tx);

        tx0.send(Element::Tuple(tuple(10, 2, 20))).unwrap();
        tx0.send(Element::Tuple(tuple(10, 4, 40))).unwrap();
        tx0.send(Element::End).unwrap();
        tx1.send(Element::Tuple(tuple(10, 1, 10))).unwrap();
        tx1.send(Element::Tuple(tuple(10, 3, 30))).unwrap();
        tx1.send(Element::End).unwrap();

        let stats = run_bare(keyed_merge(vec![rx0, rx1], out_slot));
        assert_eq!(stats.tuples_in, 4);
        assert_eq!(stats.tuples_out, 4);

        let mut keys = Vec::new();
        loop {
            match out_rx.recv() {
                Element::Tuple(t) => keys.push(t.data.0),
                Element::Watermark(_) | Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn keyed_merge_releases_run_on_strictly_later_watermark() {
        let (tx0, rx0) = stream_channel::<(u32, i64), ()>(16);
        let out_slot = OutputSlot::new();
        let (out_tx, mut out_rx) = stream_channel(64);
        out_slot.connect(out_tx);

        tx0.send(Element::Tuple(tuple(5, 1, 1))).unwrap();
        // A watermark at the run's own timestamp must NOT release it (an equal-ts
        // tuple may still arrive)...
        tx0.send(Element::Watermark(Timestamp::from_secs(5)))
            .unwrap();
        tx0.send(Element::Tuple(tuple(5, 0, 0))).unwrap();
        // ...but a strictly later watermark must.
        tx0.send(Element::Watermark(Timestamp::from_secs(6)))
            .unwrap();
        tx0.send(Element::End).unwrap();

        run_bare(keyed_merge(vec![rx0], out_slot));

        let mut seen: Vec<(bool, u64)> = Vec::new();
        loop {
            match out_rx.recv() {
                Element::Tuple(t) => seen.push((true, t.data.0 as u64)),
                Element::Watermark(ts) => seen.push((false, ts.as_secs())),
                Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        // Watermark 5 forwarded while the run is held; the run (key-sorted: 0 then 1)
        // is flushed before watermark 6 passes it.
        assert_eq!(seen, vec![(false, 5), (true, 0), (true, 1), (false, 6)]);
    }

    #[test]
    fn sharded_aggregate_matches_single_instance_aggregate() {
        // One shard lowers to the plain single-instance aggregate.
        fn run(shards: usize) -> Vec<(u64, u32, i64)> {
            let plan = unfused_plan();
            let items: Vec<(u32, i64)> = (0..64).map(|i| (i % 8, i as i64)).collect();
            let out = count_per_key(&plan, items, 16)
                .with(Parallelism::shards(shards))
                .collecting_sink("sink");
            plan.deploy().unwrap().wait().unwrap();
            out.tuples()
                .iter()
                .map(|t| (t.ts.as_secs(), t.data.0, t.data.1))
                .collect()
        }
        let plain = run(1);
        assert!(!plain.is_empty());
        assert_eq!(
            plain,
            run(4),
            "shard count must not change the output stream"
        );
    }

    #[test]
    fn sharded_join_matches_pairs_within_keys() {
        let plan = unfused_plan();
        let left_items: Vec<(u32, i64)> = (0..16).map(|i| (i % 4, i as i64)).collect();
        let right_items: Vec<(u32, i64)> = (0..16).map(|i| (i % 4, 100 + i as i64)).collect();
        let left = plan.source("left", VecSource::with_period(left_items, 1_000));
        let right = plan.source("right", VecSource::with_period(right_items, 1_000));
        let out = left
            .join(
                "match",
                right,
                Duration::from_secs(2),
                |l: &(u32, i64)| l.0,
                |r: &(u32, i64)| r.0,
                |o: &(u32, i64, i64)| o.0,
                |l: &(u32, i64), r: &(u32, i64)| l.0 == r.0,
                |l: &(u32, i64), r: &(u32, i64)| (l.0, l.1, r.1),
            )
            .with(Parallelism::shards(3))
            .collecting_sink("sink");
        let report = plan.deploy().unwrap().wait().unwrap();
        assert_eq!(report.operator("match").unwrap().instances, 3);
        assert!(!out.is_empty());
        for t in out.tuples() {
            // Combined pairs agree on the key: left value i pairs with right 100 + j
            // where i ≡ j (mod 4).
            assert_eq!(t.data.1 % 4, (t.data.2 - 100) % 4);
        }
    }

    #[test]
    fn shard_group_reports_are_aggregated() {
        let plan = unfused_plan();
        let items: Vec<(u32, i64)> = (0..40).map(|i| (i % 5, i as i64)).collect();
        let out = count_per_key(&plan, items, 10)
            .with(Parallelism::shards(4))
            .collecting_sink("sink");
        let report = plan.deploy().unwrap().wait().unwrap();
        assert!(!out.is_empty());
        // The four shard threads appear as ONE report named after the logical
        // operator, with summed counters covering the whole input.
        let agg = report.operator("agg").expect("aggregated shard report");
        assert_eq!(agg.kind, NodeKind::ShardedAggregate);
        assert_eq!(agg.instances, 4);
        assert_eq!(agg.stats.tuples_in, 40);
        assert_eq!(agg.stats.tuples_out, out.len() as u64);
        assert!(
            report.operator("agg[0]").is_none(),
            "individual shard reports are folded away"
        );
        let exchange = report.operator("agg.exchange").expect("partition report");
        assert_eq!(exchange.kind, NodeKind::Partition);
        assert_eq!(exchange.stats.tuples_in, 40);
        assert_eq!(
            exchange.instances, 1,
            "the exchange is one thread, whatever its fan-out"
        );
    }

    #[test]
    fn shard_channels_are_budgeted_jointly() {
        use crate::query::QueryConfig;
        // The configured per-edge element budget must not be multiplied by the
        // exchange fan-out: the N partition channels (and the N shard-output
        // channels feeding the fan-in) share it, each getting capacity/N rounded up
        // to whole batches (floor one batch).
        let config = QueryConfig::default(); // 1024 elements, batch 32
        for n in [1usize, 2, 4] {
            let plan = unfused_plan();
            let items: Vec<(u32, i64)> = (0..8).map(|i| (i % 4, i as i64)).collect();
            // Explicit placements keep the exchange even for one shard.
            let _ = count_per_key(&plan, items, 4)
                .place::<(u32, i64)>(ShardPlacement::all_local(n))
                .collecting_sink("sink");
            let q = plan.lower().unwrap();

            let facts = q.plan_facts();
            let mut exchange_total = 0usize;
            let mut fanin_total = 0usize;
            for e in &facts.edges {
                let headroom =
                    || crate::channel::batch_budget(e.capacity, e.batch_size) * e.batch_size;
                if facts.node_kind(e.from) == NodeKind::Partition.label() {
                    exchange_total += headroom();
                }
                if facts.node_kind(e.to) == NodeKind::ShardMerge.label() {
                    fanin_total += headroom();
                }
            }
            // 1024 divides evenly by 1, 2 and 4 shards into whole 32-element
            // batches, so the joint headroom is exactly the configured capacity.
            assert_eq!(
                exchange_total, config.channel_capacity,
                "{n}-shard exchange headroom must equal the configured capacity"
            );
            assert_eq!(
                fanin_total, config.channel_capacity,
                "{n}-shard fan-in headroom must equal the configured capacity"
            );
        }
    }

    #[test]
    fn shard_channel_budget_floors_at_one_batch() {
        use crate::query::QueryConfig;
        // 8 shards sharing 100 elements with 32-element batches: each channel
        // floors at one whole batch rather than rounding down to zero.
        let mut q = Query::with_config(
            NoProvenance,
            QueryConfig {
                channel_capacity: 100,
                ..QueryConfig::default()
            },
        );
        let src = q.source(
            "src",
            VecSource::with_period((0..8u32).map(|i| (i, 0i64)).collect(), 1_000),
        );
        let shards = q.partition("part", src, 8, |t: &(u32, i64)| t.0);
        for shard in shards {
            let _ = q.collecting_sink(&format!("sink{}", shard.label()), shard);
        }
        let facts = q.plan_facts();
        for e in &facts.edges {
            if facts.node_kind(e.from) == NodeKind::Partition.label() {
                let headroom =
                    crate::channel::batch_budget(e.capacity, e.batch_size) * e.batch_size;
                assert_eq!(headroom, 32, "one whole batch per shard channel");
            }
        }
    }

    #[test]
    fn shard_local_stages_fuse_within_shards() {
        use crate::query::QueryConfig;
        // partition -> per-shard filter -> per-shard map -> keyed merge: with fusion
        // the stateless stages collapse within each shard (never across the exchange
        // or the fan-in), and the output stream is identical to the unfused plan.
        let run = |fusion: bool| {
            let mut q =
                Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion));
            let items: Vec<(u32, i64)> = (0..64).map(|i| (i % 8, i as i64)).collect();
            let src = q.source("src", VecSource::with_period(items, 1_000));
            let shards = q.partition("part", src, 4, |t: &(u32, i64)| t.0);
            let kept = q.filter_shard_streams("keep", shards, |t: &(u32, i64)| t.1 % 2 == 0);
            let scaled = q.map_shard_streams("scale", kept, |t: &(u32, i64)| vec![(t.0, t.1 * 10)]);
            let cmp = crate::planner::merge_cmp(|t: &(u32, i64)| t.0);
            let merged = q.keyed_merge_cmp("merge", scaled, cmp);
            let out = q.collecting_sink("sink", merged);
            let report = q.deploy().unwrap().wait().unwrap();
            let values: Vec<(u64, u32, i64)> = out
                .tuples()
                .iter()
                .map(|t| (t.ts.as_secs(), t.data.0, t.data.1))
                .collect();
            (report, values)
        };
        let (unfused_report, unfused) = run(false);
        let (fused_report, fused) = run(true);
        assert!(!fused.is_empty());
        assert_eq!(fused, unfused, "shard-local fusion must not change results");
        // Unfused: src, part, 4 keep, 4 scale, merge, sink = 12 threads but the
        // shard groups fold to 6 reports; fused: the exchange seals the source's
        // chain, the 4 keep+scale chains fold into one grouped chain report, and
        // the sink extends the merge's chain.
        assert_eq!(unfused_report.operator_stats().len(), 6);
        assert_eq!(fused_report.operator_stats().len(), 3);
        assert!(fused_report.operator("src+part").is_some());
        assert!(fused_report.operator("merge+sink").is_some());
        let chain = fused_report.operator("keep+scale").expect("fused chain");
        assert_eq!(chain.kind, NodeKind::Fused);
        assert_eq!(chain.instances, 4, "one fused thread per shard");
        assert_eq!(chain.stats.tuples_in, 64);
        assert_eq!(chain.stats.tuples_out, 32);
        // Stage stats are summed across the shard chains under the logical names.
        let keep = fused_report.fused_stage("keep").expect("filter stage");
        assert_eq!(keep.tuples_in, 64);
        assert_eq!(keep.tuples_out, 32);
        let scale = fused_report.fused_stage("scale").expect("map stage");
        assert_eq!(scale.tuples_in, 32);
        assert_eq!(scale.tuples_out, 32);
        // Unfused grouped reports: same totals, reported per logical operator.
        assert_eq!(
            unfused_report.operator("keep").unwrap().stats.tuples_out,
            32
        );
        assert_eq!(unfused_report.operator("scale").unwrap().instances, 4);
    }
}
