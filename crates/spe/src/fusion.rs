//! Physical-plan operator fusion: stateless chains collapsed into one thread.
//!
//! The thread-per-operator runtime pays one bounded channel — a lock, a wake-up and a
//! cache-line hand-off per batch — on **every** edge of the query graph, even between
//! operators that do nothing but forward or cheaply transform tuples. Batching (PR 1)
//! amortises that cost; fusion eliminates it: a contiguous chain of stateless
//! single-input/single-output operators (`filter → map → map …`) is collapsed into a
//! single [`FusedOp`] that runs every stage in one call stack on one thread, with no
//! intermediate channels, batches or back-pressure points. This is the classic
//! operator-chaining pass of production SPEs (Flink's chaining, Arcon's physical plan
//! collapse) applied to this engine's typed query builder.
//!
//! # How a chain is built
//!
//! The query builder keeps, per stateless node, a `PendingChain`: a composition of
//! [`FusedStage`]s rooted at the channel coming out of the nearest *unfusable*
//! upstream operator (a Source, a stateful operator, a Multiplex/Union, a shuffle
//! exchange or a shard merge). Adding another stateless operator on the chain's tail
//! stream extends the composition instead of allocating a channel; anything else —
//! attaching a stateful consumer, a sink, or deploying — seals the chain at its
//! current tail. Because [`StreamRef`](crate::query::StreamRef)s are consumed by
//! value, a chain tail has exactly one consumer by construction, so fusion never has
//! to reason about fan-out (fan-out is an explicit Multiplex, which is a fusion
//! boundary).
//!
//! Fusion composes with sharding: the per-shard streams of a
//! [`partition`](crate::query::Query::partition) are ordinary streams, so the
//! per-shard stateless stages the planner lowers into an open shard region fuse
//! *within* each shard — never across the exchange or the merge fan-in, which
//! are multi-stream operators and therefore natural boundaries.
//!
//! # Why fusion is provenance-transparent
//!
//! GeneaLog's instrumentation lives in the [`ProvenanceSystem`] hooks, and the fused
//! stages call exactly the hooks the standalone operators call, on exactly the same
//! `Arc`s, in exactly the same order: Filter forwards the input `Arc` untouched and
//! Map calls `map_meta(&input)` once per output tuple. The only thing fusion removes
//! is the transport between stages — which never touched metadata in the first place.
//! Contribution sets are therefore byte-identical fused vs unfused (pinned by
//! `tests/fusion.rs`).
//!
//! [`FusedStage`]: crate::operator::FusedStage
//! [`ProvenanceSystem`]: crate::provenance::ProvenanceSystem

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::channel::{ChannelClosed, OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::operator::{FusedStage, Operator, OperatorStats};
use crate::provenance::MetaData;
use crate::query::{NodeId, ShardGroup};
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple, TupleData};

/// Per-stage tuple counters, shared between the running stage closures and the final
/// report so a fused chain can still account for each original operator.
///
/// A chain runs on a single thread; the atomics exist only to make the counters
/// shareable (`Sync`) between the chain and the runtime's reporting path, so relaxed
/// ordering is sufficient.
#[derive(Debug, Default)]
pub struct StageCounters {
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
}

impl StageCounters {
    pub(crate) fn add_in(&self) {
        self.tuples_in.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_out(&self) {
        self.tuples_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of input tuples the stage has processed.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.load(Ordering::Relaxed)
    }

    /// Number of output tuples the stage has emitted.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.load(Ordering::Relaxed)
    }
}

/// Reporting handle of one original operator folded into a fused chain: its logical
/// name plus the live counters of its stage.
#[derive(Debug, Clone)]
pub struct StageInfo {
    /// Logical operator name used in reports (the shard-group name for grouped
    /// stages, the node name otherwise).
    pub name: String,
    /// The stage's tuple counters.
    pub counters: Arc<StageCounters>,
}

impl StageInfo {
    /// Snapshot of the stage counters as an [`OperatorStats`] record.
    pub fn snapshot(&self) -> OperatorStats {
        let mut stats = OperatorStats::new(self.name.clone());
        stats.tuples_in = self.counters.tuples_in();
        stats.tuples_out = self.counters.tuples_out();
        stats
    }
}

/// Runs a sealed chain to completion: pulls elements from the captured head
/// receiver, passes tuples through the composed stages into the tuple sink, forwards
/// watermarks to the watermark sink and epoch barriers to the barrier sink, and
/// returns on end-of-stream or channel close. Stateless stages hold no state across
/// a barrier, so forwarding it through the chain boundary is the entire checkpoint
/// protocol for fused chains.
type ChainDriver<T, M> = Box<
    dyn FnOnce(
            &mut dyn FnMut(Arc<GTuple<T, M>>) -> Result<(), ChannelClosed>,
            &mut dyn FnMut(Timestamp) -> Result<(), ChannelClosed>,
            &mut dyn FnMut(u64) -> Result<(), ChannelClosed>,
        ) + Send,
>;

/// A fused chain under construction, typed by its current tail output `T`.
///
/// The chain owns the receiver of the channel entering its head stage and the output
/// slot of its tail stage; everything between is plain function composition.
pub(crate) struct PendingChain<T: TupleData, M: MetaData> {
    driver: ChainDriver<T, M>,
    /// Counters of the current tail stage. Its `tuples_out` is incremented at the
    /// chain's downstream boundary — at hand-off to the next stage when the chain is
    /// extended, after a successful channel send when it is sealed — so adjacent
    /// stage counters can never disagree about a hand-off, even when a closed
    /// downstream channel aborts processing midway.
    counters: Arc<StageCounters>,
    output: OutputSlot<T, M>,
}

impl<T: TupleData, M: MetaData> PendingChain<T, M> {
    /// Starts a chain at `stage`, pulling input from `rx` (the channel from the
    /// nearest unfusable upstream operator) and writing to `output` until extended.
    pub(crate) fn start<I: TupleData>(
        mut rx: StreamReceiver<I, M>,
        mut stage: Box<dyn FusedStage<I, T, M>>,
        counters: Arc<StageCounters>,
        output: OutputSlot<T, M>,
    ) -> Self {
        let stage_counters = Arc::clone(&counters);
        let driver: ChainDriver<T, M> = Box::new(move |emit, wm, barrier| loop {
            for element in rx.recv_batch() {
                match element {
                    Element::Tuple(tuple) => {
                        stage_counters.add_in();
                        if stage.process(tuple, &mut *emit).is_err() {
                            return;
                        }
                    }
                    Element::Watermark(ts) => {
                        if wm(ts).is_err() {
                            return;
                        }
                    }
                    Element::Barrier(epoch) => {
                        if barrier(epoch).is_err() {
                            return;
                        }
                    }
                    Element::End => return,
                }
            }
        });
        PendingChain {
            driver,
            counters,
            output,
        }
    }

    /// Extends the chain with one more stage. The old tail's output slot is dropped —
    /// the caller has already marked it as bypassed — and `output` becomes the new
    /// downstream boundary.
    pub(crate) fn then<O: TupleData>(
        self,
        mut stage: Box<dyn FusedStage<T, O, M>>,
        counters: Arc<StageCounters>,
        output: OutputSlot<O, M>,
    ) -> PendingChain<O, M> {
        let inner = self.driver;
        let prev = self.counters;
        let stage_counters = Arc::clone(&counters);
        let driver: ChainDriver<O, M> = Box::new(move |emit, wm, barrier| {
            inner(
                &mut |tuple| {
                    // The previous stage's output and this stage's input are the
                    // same hand-off event: count both sides together.
                    prev.add_out();
                    stage_counters.add_in();
                    stage.process(tuple, &mut *emit)
                },
                wm,
                barrier,
            )
        });
        PendingChain {
            driver,
            counters,
            output,
        }
    }
}

/// Type-erased handle to a [`PendingChain`], stored per chain tail in the query
/// builder. `into_any` recovers the typed chain for extension (the extending call
/// site knows the tail's output type statically from its `StreamRef`); `seal` turns
/// the chain into a runnable operator at deployment time.
pub(crate) trait SealableChain: Send {
    /// Recovers the typed chain for a downcast at an extension site.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;

    /// Seals the chain into the operator that runs all stages on one thread. The
    /// tail stage's counters are the chain's own; only the head's are passed in.
    fn seal(self: Box<Self>, name: String, head: Arc<StageCounters>) -> FusedOp;
}

impl<T: TupleData, M: MetaData> SealableChain for PendingChain<T, M> {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }

    fn seal(self: Box<Self>, name: String, head: Arc<StageCounters>) -> FusedOp {
        let driver = self.driver;
        let output = self.output;
        let tail = self.counters;
        let sink_tail = Arc::clone(&tail);
        FusedOp {
            name,
            head,
            tail,
            body: Box::new(move || {
                // Both sinks write to the same handle; the chain calls them strictly
                // sequentially on one thread, so the RefCell never contends.
                let out = std::cell::RefCell::new(output.open());
                driver(
                    &mut |t| {
                        out.borrow_mut().send_tuple(t)?;
                        // Counted only after a successful send: a tuple dropped by
                        // a closed downstream is not part of the chain's output,
                        // matching the standalone operators' accounting.
                        sink_tail.add_out();
                        Ok(())
                    },
                    &mut |ts| out.borrow_mut().send_watermark(ts),
                    &mut |epoch| out.borrow_mut().send_barrier(epoch),
                );
                let _ = out.into_inner().send_end();
            }),
        }
    }
}

/// A fused chain node collected by the query builder: the member nodes, the per-stage
/// reporting handles, the chain's shard group (when all stages belong to shard groups
/// of the same width) and the type-erased pending composition.
pub(crate) struct ChainEntry {
    /// Node ids of the fused stages, in stage order.
    pub(crate) nodes: Vec<NodeId>,
    /// Reporting handle of each stage, in stage order.
    pub(crate) stages: Vec<StageInfo>,
    /// Shard group of the whole chain (`None` for ungrouped chains). Grouped chains
    /// carry the member group names joined with `+`, identical across sibling shard
    /// chains, so the runtime folds the per-shard fused threads into one report.
    pub(crate) group: Option<ShardGroup>,
    /// The composable chain, downcast at extension sites, sealed at deployment.
    pub(crate) pending: Box<dyn SealableChain>,
}

impl ChainEntry {
    /// Whether a stage with the given shard group may extend this chain: both must
    /// be ungrouped, or both grouped with the same shard width (fusing across
    /// different widths would fuse across an exchange, which is never allowed).
    pub(crate) fn accepts(&self, group: Option<&ShardGroup>) -> bool {
        self.group.as_ref().map(|g| g.instances) == group.map(|g| g.instances)
    }

    /// Merges a newly fused stage's shard group into the chain group.
    pub(crate) fn merge_group(&mut self, group: Option<ShardGroup>) {
        self.group = match (self.group.take(), group) {
            (Some(mut current), Some(next)) => {
                current.name.push('+');
                current.name.push_str(&next.name);
                Some(current)
            }
            (None, None) => None,
            // `accepts` rules out grouped/ungrouped mixes.
            _ => unreachable!("fused stage group width mismatch"),
        };
    }
}

/// The fused operator: every stage of one stateless chain running on one thread.
///
/// Its own [`OperatorStats`] report the chain boundary (head input count, tail output
/// count); the per-stage counters of the original operators are reported through the
/// [`StageInfo`]s the runtime received at spawn time.
pub struct FusedOp {
    name: String,
    head: Arc<StageCounters>,
    tail: Arc<StageCounters>,
    body: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for FusedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedOp").field("name", &self.name).finish()
    }
}

impl Operator for FusedOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(self: Box<Self>) -> Result<OperatorStats, SpeError> {
        let this = *self;
        (this.body)();
        let mut stats = OperatorStats::new(this.name);
        stats.tuples_in = this.head.tuples_in();
        stats.tuples_out = this.tail.tuples_out();
        Ok(stats)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::stream_channel;
    use crate::operator::filter::FilterStage;
    use crate::operator::map::MapStage;
    use crate::provenance::NoProvenance;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    /// Runs one stage to completion the way the query builder deploys an unfused
    /// stateless operator: as a sealed chain of length one.
    pub(crate) fn run_stage<I: TupleData, O: TupleData, M: MetaData>(
        name: &str,
        rx: StreamReceiver<I, M>,
        stage: Box<dyn FusedStage<I, O, M>>,
        output: OutputSlot<O, M>,
    ) -> OperatorStats {
        let counters = Arc::new(StageCounters::default());
        let chain = PendingChain::start(rx, stage, Arc::clone(&counters), output);
        let op = Box::new(chain).seal(name.into(), counters);
        Box::new(op).run().unwrap()
    }

    /// Builds filter(even) → map(double) as a two-stage chain and runs it.
    #[test]
    fn two_stage_chain_runs_without_intermediate_channels() {
        let (in_tx, in_rx) = stream_channel::<i64, ()>(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        for i in 0..6i64 {
            in_tx.send(Element::Tuple(tuple(i as u64, i))).unwrap();
        }
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(6)))
            .unwrap();
        in_tx.send(Element::End).unwrap();

        let filter_counters = Arc::new(StageCounters::default());
        let map_counters = Arc::new(StageCounters::default());
        let chain = PendingChain::start(
            in_rx,
            Box::new(FilterStage::new(|v: &i64| v % 2 == 0)),
            Arc::clone(&filter_counters),
            OutputSlot::new(),
        );
        let chain = chain.then(
            Box::new(MapStage::new(|v: &i64| vec![v * 2], NoProvenance)),
            Arc::clone(&map_counters),
            out_slot,
        );
        let op = Box::new(chain).seal("evens+double".into(), Arc::clone(&filter_counters));
        let stats = Box::new(op).run().unwrap();
        assert_eq!(stats.name, "evens+double");
        assert_eq!(stats.tuples_in, 6, "chain input = head stage input");
        assert_eq!(stats.tuples_out, 3, "chain output = tail stage output");
        assert_eq!(filter_counters.tuples_in(), 6);
        assert_eq!(filter_counters.tuples_out(), 3);
        assert_eq!(map_counters.tuples_in(), 3);
        assert_eq!(map_counters.tuples_out(), 3);

        let mut values = Vec::new();
        let mut watermarks = 0;
        loop {
            match out_rx.recv() {
                Element::Tuple(t) => values.push(t.data),
                Element::Watermark(_) => watermarks += 1,
                Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(values, vec![0, 4, 8]);
        assert_eq!(watermarks, 1, "watermarks pass straight through the chain");
    }

    /// A closed downstream channel stops the chain gracefully mid-stream.
    #[test]
    fn chain_stops_when_downstream_closes() {
        let (in_tx, in_rx) = stream_channel::<i64, ()>(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, out_rx) = stream_channel::<i64, ()>(16);
        out_slot.connect(out_tx);
        drop(out_rx);

        in_tx.send(Element::Tuple(tuple(1, 2))).unwrap();
        in_tx.send(Element::End).unwrap();

        let counters = Arc::new(StageCounters::default());
        let chain = PendingChain::start(
            in_rx,
            Box::new(FilterStage::new(|_: &i64| true)),
            Arc::clone(&counters),
            out_slot,
        );
        let op = Box::new(chain).seal("f".into(), Arc::clone(&counters));
        let stats = Box::new(op).run().unwrap();
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 0, "failed send is not counted");
    }

    /// Group compatibility: ungrouped fuses with ungrouped, equal widths fuse, and
    /// the merged group joins the member names.
    #[test]
    fn chain_group_rules() {
        let (_, rx) = stream_channel::<i64, ()>(1);
        let counters = Arc::new(StageCounters::default());
        let chain = PendingChain::<i64, ()>::start(
            rx,
            Box::new(FilterStage::new(|_: &i64| true)),
            counters,
            OutputSlot::new(),
        );
        let mut entry = ChainEntry {
            nodes: vec![0],
            stages: Vec::new(),
            group: Some(ShardGroup {
                name: "pre".into(),
                instances: 2,
            }),
            pending: Box::new(chain),
        };
        let same_width = ShardGroup {
            name: "post".into(),
            instances: 2,
        };
        let other_width = ShardGroup {
            name: "post".into(),
            instances: 4,
        };
        assert!(entry.accepts(Some(&same_width)));
        assert!(!entry.accepts(Some(&other_width)));
        assert!(!entry.accepts(None));
        entry.merge_group(Some(same_width));
        let merged = entry.group.as_ref().unwrap();
        assert_eq!(merged.name, "pre+post");
        assert_eq!(merged.instances, 2);
    }
}
