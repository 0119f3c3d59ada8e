//! Physical-plan operator fusion: a Source or a stateless chain collapsed into one
//! thread.
//!
//! The thread-per-operator runtime pays one bounded channel — a lock, a wake-up and a
//! cache-line hand-off per batch — on **every** edge of the query graph, even between
//! operators that do nothing but forward or cheaply transform tuples. Batching (PR 1)
//! amortises that cost; fusion eliminates it: a contiguous chain of stateless
//! single-input/single-output operators (`filter → map → map …`), headed by the
//! Source that feeds it when there is one, is collapsed into a single [`FusedOp`]
//! that runs every stage in one call stack on one thread, with no intermediate
//! channels, batches or back-pressure points. A tuple a fused filter drops is
//! created, tested and freed on one thread. This is the classic operator-chaining
//! pass of production SPEs (Flink's chaining, Arcon's physical plan collapse) applied
//! to this engine's typed query builder.
//!
//! # How a chain is built
//!
//! The query builder keeps, per Source and per stateless node, a `PendingChain`: a
//! composition of [`FusedStage`]s rooted at a Source's loop or at the channel
//! coming out of the nearest *unfusable* upstream operator (a stateful operator, a
//! Multiplex/Union, a shuffle exchange or a shard merge). Adding another stateless
//! operator on the chain's tail stream extends the composition instead of
//! allocating a channel; anything else — attaching a stateful consumer, a sink, or
//! deploying — seals the chain at its current tail. A Source with nothing fusable
//! behind it, like any stage with fusion off, is a sealed chain of one. Because
//! [`StreamRef`](crate::query::StreamRef)s are consumed by value, a chain tail has
//! exactly one consumer by construction, so fusion never has to reason about fan-out
//! (fan-out is an explicit Multiplex, which is a fusion boundary).
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
//! # Accounting
//!
//! A chain holds no counters. [`Query::deploy`](crate::query::Query::deploy) mints
//! one ledger row per stage ([`crate::metrics`]) and the chain thread receives them
//! through [`Operator::run`]; each layer of the composition resolves its own row
//! once, before the first tuple. A hand-off between two stages is one event —
//! the upstream stage's `tuples_out` and the downstream stage's `tuples_in` are
//! counted together — and the tail's `tuples_out` is counted after a successful
//! channel send, so adjacent rows can never disagree even when a closed downstream
//! aborts processing midway. A Source head has no input and counts only through
//! these hand-offs: its row (stage 0) reads what it injected wherever it runs.
//!
//! [`FusedStage`]: crate::operator::FusedStage
//! [`ProvenanceSystem`]: crate::provenance::ProvenanceSystem

use std::any::Any;
use std::sync::Arc;

use crate::channel::{ChannelClosed, OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::metrics::OpCounters;
use crate::operator::source::{SourceGenerator, SourceOp};
use crate::operator::{FusedStage, Operator};
use crate::provenance::{MetaData, ProvenanceSystem};
use crate::query::{NodeId, ShardGroup};
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple, TupleData};

/// Runs a sealed chain to completion: produces elements at the head — a Source's
/// loop, or the captured receiver of the channel entering the head stage — passes
/// tuples through the composed stages into the tuple sink, forwards watermarks to
/// the watermark sink and epoch barriers to the barrier sink, and returns at the end
/// of the stream or on channel close. Stateless stages hold no state across a
/// barrier, so forwarding it through the chain boundary is the entire checkpoint
/// protocol for fused chains; a Source head commits its replay offset before it
/// emits the barrier, as it does unfused. The first argument is the chain thread's
/// ledger rows, one per stage, head first; a Source head also takes its gauges
/// from it.
type ChainDriver<T, M> = Box<
    dyn FnOnce(
            &OpCounters,
            &mut Emit<'_, T, M>,
            &mut dyn FnMut(Timestamp) -> Result<(), ChannelClosed>,
            &mut dyn FnMut(u64) -> Result<(), ChannelClosed>,
        ) + Send,
>;

/// The tuple sink a chain layer hands its output to: the next stage, or at the
/// tail the chain's output channel.
pub(crate) type Emit<'a, T, M> = dyn FnMut(Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> + 'a;

/// A fused chain under construction, typed by its current tail output `T`.
///
/// The chain owns its head — a Source, or the receiver of the channel entering its
/// head stage — and the output slot of its tail stage; everything between is plain
/// function composition.
pub(crate) struct PendingChain<T: TupleData, M: MetaData> {
    driver: ChainDriver<T, M>,
    /// Stages composed so far: the ledger row of the next stage is at this index.
    stages: usize,
    output: OutputSlot<T, M>,
}

impl<T: TupleData, M: MetaData> PendingChain<T, M> {
    /// Starts a chain at a Source, whose loop drives every stage later fused behind
    /// it; it writes to `output` until extended.
    pub(crate) fn source<G, P>(source: SourceOp<G, P>, output: OutputSlot<T, M>) -> Self
    where
        G: SourceGenerator<Item = T>,
        P: ProvenanceSystem<Meta = M>,
    {
        let driver: ChainDriver<T, M> = Box::new(move |counters, emit, wm, barrier| {
            // A closed downstream ends the source the way it ends any chain.
            let _ = source.run(counters, emit, wm, barrier);
        });
        PendingChain {
            driver,
            stages: 1,
            output,
        }
    }

    /// Starts a chain at `stage`, pulling input from `rx` (the channel from the
    /// nearest unfusable upstream operator) and writing to `output` until extended.
    pub(crate) fn start<I: TupleData>(
        mut rx: StreamReceiver<I, M>,
        mut stage: Box<dyn FusedStage<I, T, M>>,
        output: OutputSlot<T, M>,
    ) -> Self {
        let driver: ChainDriver<T, M> = Box::new(move |counters, emit, wm, barrier| {
            let tuples_in = &*counters.stages()[0].tuples_in;
            loop {
                for element in rx.recv_batch() {
                    match element {
                        Element::Tuple(tuple) => {
                            tuples_in.inc();
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
            }
        });
        PendingChain {
            driver,
            stages: 1,
            output,
        }
    }

    /// Extends the chain with one more stage. The old tail's output slot is dropped —
    /// the caller has already marked it as bypassed — and `output` becomes the new
    /// downstream boundary.
    pub(crate) fn then<O: TupleData>(
        self,
        mut stage: Box<dyn FusedStage<T, O, M>>,
        output: OutputSlot<O, M>,
    ) -> PendingChain<O, M> {
        let (inner, mine) = (self.driver, self.stages);
        let driver: ChainDriver<O, M> = Box::new(move |counters, emit, wm, barrier| {
            let rows = counters.stages();
            let (prev_out, tuples_in) = (&*rows[mine - 1].tuples_out, &*rows[mine].tuples_in);
            inner(
                counters,
                &mut |tuple| {
                    // The previous stage's output and this stage's input are the
                    // same hand-off event: count both sides together.
                    prev_out.inc();
                    tuples_in.inc();
                    stage.process(tuple, &mut *emit)
                },
                wm,
                barrier,
            )
        });
        PendingChain {
            driver,
            stages: mine + 1,
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

    /// Seals the chain into the operator that runs all stages on one thread.
    fn seal(self: Box<Self>, name: String) -> FusedOp;
}

impl<T: TupleData, M: MetaData> SealableChain for PendingChain<T, M> {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }

    fn seal(self: Box<Self>, name: String) -> FusedOp {
        let driver = self.driver;
        let output = self.output;
        FusedOp {
            name,
            body: Box::new(move |counters| {
                let rows = counters.stages();
                let tail_out = &*rows[rows.len() - 1].tuples_out;
                // Both sinks write to the same handle; the chain calls them strictly
                // sequentially on one thread, so the RefCell never contends.
                let out = std::cell::RefCell::new(output.open());
                driver(
                    &counters,
                    &mut |t| {
                        out.borrow_mut().send_tuple(t)?;
                        // Counted only after a successful send: a tuple dropped by
                        // a closed downstream is not part of the chain's output,
                        // matching the standalone operators' accounting.
                        tail_out.inc();
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

/// A fused chain node collected by the query builder: the member nodes, the logical
/// name of each stage, the chain's shard group (when all stages belong to shard
/// groups of the same width) and the type-erased pending composition.
pub(crate) struct ChainEntry {
    /// Node ids of the fused stages, in stage order.
    pub(crate) nodes: Vec<NodeId>,
    /// Logical name of each stage (the shard-group name for grouped stages, the
    /// node name otherwise), in stage order: the tags of the chain's ledger rows.
    pub(crate) stages: Vec<String>,
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

/// The fused operator: every stage of one chain — its head (a Source or a stateless
/// stage) and the stateless stages fused behind it — running on one thread,
/// counting into one ledger row per stage.
pub struct FusedOp {
    name: String,
    body: Box<dyn FnOnce(OpCounters) + Send>,
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

    fn run(self: Box<Self>, counters: OpCounters) -> Result<(), SpeError> {
        (self.body)(counters);
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::stream_channel;
    use crate::operator::filter::FilterStage;
    use crate::operator::map::MapStage;
    use crate::operator::tests::run_bare;
    use crate::operator::OperatorStats;
    use crate::provenance::NoProvenance;
    use genealog_metrics::MetricsRegistry;

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
        let chain = PendingChain::start(rx, stage, output);
        run_bare(Box::new(chain).seal(name.into()))
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

        let chain = PendingChain::start(
            in_rx,
            Box::new(FilterStage::new(|v: &i64| v % 2 == 0)),
            OutputSlot::new(),
        );
        let chain = chain.then(
            Box::new(MapStage::new(|v: &i64| vec![v * 2], NoProvenance)),
            out_slot,
        );
        let op = Box::new(chain).seal("evens+double".into());
        assert_eq!(op.name(), "evens+double");
        let stats = OpCounters::mint(&MetricsRegistry::disabled(), ["evens", "double"]);
        Box::new(op).run(stats.clone()).unwrap();
        assert_eq!(stats.tuples_in(), 6, "chain input = head stage input");
        assert_eq!(stats.tuples_out(), 3, "chain output = tail stage output");
        let [filter_counters, map_counters] = stats.stages() else {
            panic!("one row per stage")
        };
        assert_eq!(filter_counters.tuples_in.get(), 6);
        assert_eq!(filter_counters.tuples_out.get(), 3);
        assert_eq!(map_counters.tuples_in.get(), 3);
        assert_eq!(map_counters.tuples_out.get(), 3);

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

        let chain =
            PendingChain::start(in_rx, Box::new(FilterStage::new(|_: &i64| true)), out_slot);
        let stats = run_bare(Box::new(chain).seal("f".into()));
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 0, "failed send is not counted");
    }

    /// Group compatibility: ungrouped fuses with ungrouped, equal widths fuse, and
    /// the merged group joins the member names.
    #[test]
    fn chain_group_rules() {
        let (_, rx) = stream_channel::<i64, ()>(1);
        let chain = PendingChain::<i64, ()>::start(
            rx,
            Box::new(FilterStage::new(|_: &i64| true)),
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
