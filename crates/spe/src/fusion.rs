//! Chains: every operator runs as a part of *head → stages → one tail*, on one
//! thread, and a chain is the only thing the runtime spawns.
//!
//! * The **head** produces elements: a Source's loop; the *pump*, the one loop that
//!   drives a single-input operator from its input channel; a *fan-in* (Union, Join,
//!   the shard merge: the one loop of [`crate::merge`] with the operator's rule); or
//!   an extension crate's own, such as the Receive of a stream arriving over a link.
//! * The [`FusedStage`]s run behind it in one call stack, with no channel, batch or
//!   back-pressure point between them: a tuple a fused filter drops is created,
//!   tested and freed on one thread. A stage may hold state: the Aggregate is a
//!   stage that closes its windows into the rest of the chain at a watermark,
//!   commits its snapshot before it forwards a barrier and flushes at the end. This
//!   is the operator chaining of production SPEs (Flink chains every forward edge,
//!   stateful or not; Arcon collapses its physical plan the same way).
//! * The [`Tail`] receives every element leaving the last stage and owns the
//!   chain's outputs. The *channel tail* writes the chain's output stream; Sink,
//!   Multiplex, Partition and Send are tails of their own, installed through
//!   [`Query::set_tail`]. A tail commits its state at a barrier, flushes at the end
//!   of the input, and stops the chain once every output it owns has closed; the
//!   chain's input receiver is then dropped, so the upstream producer sees the close
//!   in turn.
//!
//! Every part is built on the chain's thread before the first element, from its own
//! node name (the name it checkpoints under) and its own ledger row (the name its
//! instruments carry).
//!
//! # How a chain is built
//!
//! The query builder keeps, per open chain, a `PendingChain` rooted at a Source or at
//! a channel. Adding a single-input, single-output operator — Filter, Map or
//! Aggregate — on the chain's output stream extends the composition instead of
//! allocating a channel; a tail added there seals it. A chain that is still open at
//! deployment is sealed with the channel tail. With fusion off every operator is a
//! chain of one. A chain breaks only at the input channels of a fan-in, which heads
//! the next chain, and at the output channels of a tail that owns several
//! (Multiplex, Partition). Stream handles are consumed by value, so a chain's output
//! has one consumer by construction. Within a shard region the per-shard stages fuse
//! per shard — behind a sharded aggregate or join, say — never across the exchange;
//! the shard merge heads the chain behind the region.
//!
//! # Why fusion is provenance-transparent
//!
//! Fused stages call exactly the [`ProvenanceSystem`] hooks the standalone
//! operators call, on the same `Arc`s in the same order: Filter forwards the input
//! `Arc` untouched, Map calls `map_meta(&input)` once per output tuple and the
//! Aggregate calls `aggregate_meta` once per closed window. Fusion removes only the
//! transport between stages, which never touched metadata, so contribution sets are
//! byte-identical fused vs unfused (`tests/fusion.rs`).
//!
//! # Accounting
//!
//! A chain holds no counters. [`Query::deploy`](crate::query::Query::deploy) mints
//! one ledger row per stage ([`crate::metrics`]), which the chain thread receives
//! through [`FusedOp::run`] and each part resolves once, before the first tuple.
//! The pump counts the head row's `tuples_in`. A hand-off between two parts is one
//! event — the upstream `tuples_out` and the downstream `tuples_in` count together —
//! and a tail counts its row's `tuples_out` only for sends its outputs accepted (the
//! channel tail, which has no row of its own, counts the last stage's), so adjacent
//! rows never disagree, even when a closed downstream stops the chain midway. A
//! Source, fan-in or Receive head is the chain's first part: its row (stage 0)
//! counts the tuples it takes in — a Source none, a fan-in each one it releases —
//! and the hand-off out of it counts what it emits.
//!
//! [`FusedStage`]: crate::operator::FusedStage
//! [`ProvenanceSystem`]: crate::provenance::ProvenanceSystem
//! [`Query::set_tail`]: crate::query::Query::set_tail

use std::any::Any;
use std::sync::Arc;

use genealog_metrics::Counter;

use crate::channel::{ChannelClosed, OutputHandle, OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::merge::{FanIn, FanInputs};
use crate::metrics::OpCounters;
use crate::operator::source::{SourceGenerator, SourceOp};
use crate::operator::FusedStage;
use crate::provenance::{MetaData, ProvenanceSystem};
use crate::query::{NodeId, ShardGroup};
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple, TupleData};

/// Where the elements leaving a chain's head go: the next stage, or the tail. A
/// tail is built on the chain's thread before the first element, from its node name
/// and ledger row (see [`Query::set_tail`]), and counts that row's `tuples_out` for
/// the sends its outputs accepted. A hook returns [`ChannelClosed`] once every output
/// the tail owns has closed: the chain then stops without calling
/// [`end`](Tail::end).
///
/// [`Query::set_tail`]: crate::query::Query::set_tail
pub trait Tail<T, M> {
    /// Takes one tuple.
    fn tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed>;

    /// Takes a watermark.
    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed>;

    /// Takes an epoch barrier: a stateful tail commits its snapshot for `epoch`
    /// before it forwards the barrier.
    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed>;

    /// Marks the end of one upstream batch. Only a tail that frames its output by
    /// batch (Send) acts on it.
    fn batch_end(&mut self) -> Result<(), ChannelClosed> {
        Ok(())
    }

    /// The input has ended: flush what the tail holds and close its outputs.
    fn end(&mut self);
}

/// The single-input pump: hands every element arriving on `rx` to `next` (the
/// chain's first stage, or its tail), counting each tuple into `tuples_in`, and
/// marks the end of every upstream batch. Returns `Ok` once it has handed on the end
/// of the input and [`ChannelClosed`] as soon as `next` reports that the chain's
/// outputs have closed; either way `rx` is dropped, so the upstream producer sees
/// the close.
fn pump<T, M, N: Tail<T, M> + ?Sized>(
    mut rx: StreamReceiver<T, M>,
    tuples_in: &Counter,
    next: &mut N,
) -> Result<(), ChannelClosed> {
    loop {
        for element in rx.recv_batch() {
            match element {
                Element::Tuple(tuple) => {
                    tuples_in.inc();
                    next.tuple(tuple)?;
                }
                Element::Watermark(ts) => next.watermark(ts)?,
                Element::Barrier(epoch) => next.barrier(epoch)?,
                Element::End => {
                    next.end();
                    return Ok(());
                }
            }
        }
        next.batch_end()?;
    }
}

/// The previous part's `tuples_out` and this part's `tuples_in`, counted together as
/// one hand-off event; `None` when the pump feeds this part and has counted its
/// input.
type Handoff<'a> = Option<(&'a Counter, &'a Counter)>;

/// The hand-off into the part whose row is at `mine`.
fn handoff(counters: &OpCounters, mine: usize) -> Handoff<'_> {
    let rows = counters.stages();
    // The pump counts the input of a pumped chain's first part.
    mine.checked_sub(1)
        .map(|prev| (&*rows[prev].tuples_out, &*rows[mine].tuples_in))
}

fn count(handoff: Handoff<'_>) {
    if let Some((prev_out, tuples_in)) = handoff {
        prev_out.inc();
        tuples_in.inc();
    }
}

/// One stage in front of the rest of its chain.
struct Staged<'a, S, O, M> {
    stage: S,
    handoff: Handoff<'a>,
    next: &'a mut dyn Tail<O, M>,
}

impl<I, O, M, S> Tail<I, M> for Staged<'_, S, O, M>
where
    I: TupleData,
    O: TupleData,
    M: MetaData,
    S: FusedStage<I, O, M>,
{
    fn tuple(&mut self, tuple: Arc<GTuple<I, M>>) -> Result<(), ChannelClosed> {
        count(self.handoff);
        self.stage.process(tuple, self.next)
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        self.stage.watermark(ts, self.next)
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        self.stage.barrier(epoch, self.next)
    }

    fn batch_end(&mut self) -> Result<(), ChannelClosed> {
        self.next.batch_end()
    }

    fn end(&mut self) {
        self.stage.end(self.next);
    }
}

/// A tail behind the chain's last stage, counting the hand-off into its row.
struct HandedOff<'a, X> {
    tail: &'a mut X,
    handoff: Handoff<'a>,
}

impl<T, M, X: Tail<T, M>> Tail<T, M> for HandedOff<'_, X> {
    fn tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> {
        count(self.handoff);
        self.tail.tuple(tuple)
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        self.tail.watermark(ts)
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        self.tail.barrier(epoch)
    }

    fn batch_end(&mut self) -> Result<(), ChannelClosed> {
        self.tail.batch_end()
    }

    fn end(&mut self) {
        self.tail.end();
    }
}

/// The channel tail: writes the chain's output stream.
struct ChannelTail<T, M> {
    out: OutputHandle<T, M>,
    /// The last stage's `tuples_out`.
    tuples_out: Arc<Counter>,
}

impl<T, M> Tail<T, M> for ChannelTail<T, M> {
    fn tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> {
        self.out.send_tuple(tuple)?;
        // Counted only after a successful send: a tuple dropped by a closed
        // downstream is not part of the chain's output.
        self.tuples_out.inc();
        Ok(())
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        self.out.send_watermark(ts)
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        self.out.send_barrier(epoch)
    }

    fn end(&mut self) {
        let _ = self.out.send_end();
    }
}

/// Runs a chain's head through the composed stages into the tail it is given. `Ok`
/// means the chain is done — the end of the input has reached the tail, or the
/// chain's outputs have closed — and an error that the head failed. The first
/// argument is the chain thread's ledger rows, one per part, head first.
type ChainDriver<T, M> =
    Box<dyn FnOnce(&OpCounters, &mut dyn Tail<T, M>) -> Result<(), SpeError> + Send>;

/// A head that stopped without failing: the end of its input reached the tail, or
/// the chain's outputs closed. Either way the chain is done.
fn done(_: Result<(), ChannelClosed>) -> Result<(), SpeError> {
    Ok(())
}

/// A chain under construction — its head and the stages composed so far — typed by
/// what its last stage emits.
pub struct PendingChain<T, M> {
    driver: ChainDriver<T, M>,
    /// Parts composed so far: the ledger row of the next part is at this index.
    stages: usize,
}

impl<T: TupleData, M: MetaData> PendingChain<T, M> {
    /// Starts a chain at a Source, whose loop drives every part later fused
    /// behind it.
    pub(crate) fn source<G, P>(source: SourceOp<G, P>) -> Self
    where
        G: SourceGenerator<Item = T>,
        P: ProvenanceSystem<Meta = M>,
    {
        PendingChain {
            driver: Box::new(move |counters, next| done(source.run(counters, next))),
            stages: 1,
        }
    }

    /// Starts a chain pumped from `rx`: the channel out of the nearest upstream
    /// operator that does not chain.
    pub(crate) fn pumped(rx: StreamReceiver<T, M>) -> Self {
        let driver: ChainDriver<T, M> =
            Box::new(move |counters, next| done(pump(rx, &counters.stages()[0].tuples_in, next)));
        PendingChain { driver, stages: 0 }
    }

    /// Starts a chain at a fan-in over `inputs`, whose rule `open` builds on the
    /// chain's thread from the fan-in's node name and ledger row.
    pub(crate) fn fan_in<I, R>(
        name: &str,
        mut inputs: I,
        open: impl FnOnce(&str, OpCounters) -> R + Send + 'static,
    ) -> Self
    where
        I: FanInputs + Send + 'static,
        R: FanIn<I, T, M>,
    {
        let name = name.to_string();
        let driver: ChainDriver<T, M> = Box::new(move |counters, next| {
            let mut rule = open(&name, counters.row(0));
            let tuples_in = &counters.stages()[0].tuples_in;
            done(crate::merge::drive(&mut inputs, &mut rule, tuples_in, next))
        });
        PendingChain { driver, stages: 1 }
    }

    /// Starts a chain at a head of the caller's own: `head` hands what it produces to
    /// the rest of the chain, counting what it takes in into its ledger row, and
    /// returns `Ok` once its input has ended or the chain's outputs have closed. An
    /// error fails the chain; the chain's outputs close only after `head` returns.
    pub fn head(
        head: impl FnOnce(OpCounters, &mut dyn Tail<T, M>) -> Result<(), SpeError> + Send + 'static,
    ) -> Self {
        PendingChain {
            driver: Box::new(move |counters, next| head(counters.row(0), next)),
            stages: 1,
        }
    }

    /// Extends the chain with the stage `open` builds on the chain's thread from the
    /// stage's node name and ledger row.
    pub fn then<O: TupleData, S: FusedStage<T, O, M>>(
        self,
        name: &str,
        open: impl FnOnce(&str, OpCounters) -> S + Send + 'static,
    ) -> PendingChain<O, M> {
        let (inner, mine, name) = (self.driver, self.stages, name.to_string());
        let driver: ChainDriver<O, M> = Box::new(move |counters, next| {
            let stage = open(&name, counters.row(mine));
            let handoff = handoff(counters, mine);
            inner(
                counters,
                &mut Staged {
                    stage,
                    handoff,
                    next,
                },
            )
        });
        PendingChain {
            driver,
            stages: mine + 1,
        }
    }

    /// Seals the chain with the tail `open` builds on the chain's thread from the
    /// tail's node name and ledger row, the chain's last.
    pub(crate) fn seal<X: Tail<T, M>>(
        self,
        name: String,
        tail: &str,
        open: impl FnOnce(&str, OpCounters) -> X + Send + 'static,
    ) -> FusedOp {
        let (driver, mine) = (self.driver, self.stages);
        let driver = move |counters: &OpCounters, tail: &mut X| {
            let handoff = handoff(counters, mine);
            driver(counters, &mut HandedOff { tail, handoff })
        };
        FusedOp::sealed::<T, M, X>(name, tail.to_string(), driver, open)
    }

    /// Seals the chain, named `name`, with the channel tail: its output stream is
    /// written to `output`.
    pub fn into_channel(self, name: impl Into<String>, output: OutputSlot<T, M>) -> FusedOp {
        let driver = self.driver;
        let driver =
            move |counters: &OpCounters, tail: &mut ChannelTail<T, M>| driver(counters, tail);
        FusedOp::sealed::<T, M, _>(name.into(), String::new(), driver, move |_, row| {
            ChannelTail {
                out: output.open(),
                tuples_out: Arc::clone(&row.stages()[0].tuples_out),
            }
        })
    }
}

/// A chain open for extension, stored per chain in the query builder with the
/// output slot of its last stage: `into_any` recovers the typed chain at an
/// extension site (which knows the output type from its `StreamRef`), `seal` ends
/// it with the channel tail on that slot at deployment time.
pub(crate) trait SealableChain: Send {
    /// Recovers the typed chain and slot for a downcast at an extension site.
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send>;

    /// Seals the chain; an open chain ends in the channel tail.
    fn seal(self: Box<Self>, name: String) -> FusedOp;
}

impl<T: TupleData, M: MetaData> SealableChain for (PendingChain<T, M>, OutputSlot<T, M>) {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }

    fn seal(self: Box<Self>, name: String) -> FusedOp {
        let (chain, output) = *self;
        chain.into_channel(name, output)
    }
}

/// A chain a tail has sealed: only its name is still to come.
pub(crate) struct Sealed(pub(crate) Box<dyn FnOnce(String) -> FusedOp + Send>);

impl SealableChain for Sealed {
    fn into_any(self: Box<Self>) -> Box<dyn Any + Send> {
        self
    }

    fn seal(self: Box<Self>, name: String) -> FusedOp {
        (self.0)(name)
    }
}

/// A chain collected by the query builder: its member nodes, its shard group (when
/// all its parts belong to shard groups of the same width) and the type-erased
/// pending composition.
pub(crate) struct ChainEntry {
    /// Node ids of the chain's parts, head first: deployment tags the chain's
    /// ledger rows with their logical names.
    pub(crate) nodes: Vec<NodeId>,
    /// Shard group of the whole chain (`None` for ungrouped chains). Grouped chains
    /// carry the member group names joined with `+`, identical across sibling shard
    /// chains, so the runtime folds the per-shard fused threads into one report.
    pub(crate) group: Option<ShardGroup>,
    /// The chain, downcast at extension sites while it is open (and taken out
    /// meanwhile), sealed at deployment.
    pub(crate) pending: Option<Box<dyn SealableChain>>,
}

impl ChainEntry {
    /// Whether a part whose input side has the given shard group may extend this
    /// chain: both must be ungrouped, or both grouped with the same shard width
    /// (fusing across different widths would fuse across an exchange, which is
    /// never allowed).
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

/// A sealed chain: its head, the stages fused behind it and its tail, running on
/// one thread (the runtime spawns nothing else) and counting into one ledger row
/// per part.
pub struct FusedOp {
    name: String,
    body: Box<dyn FnOnce(OpCounters) -> Result<(), SpeError> + Send>,
}

impl FusedOp {
    /// A chain that is only a tail: the pump hands every element arriving on `rx`
    /// to the tail `open` builds on the chain's thread, from the chain's name and
    /// its one ledger row (see [`Query::set_tail`](crate::query::Query::set_tail)).
    /// To run a tail outside a query, run this chain with
    /// [`OpCounters::detached`] and read the clone you kept.
    pub fn tail<T: TupleData, M: MetaData, X: Tail<T, M>>(
        name: impl Into<String>,
        rx: StreamReceiver<T, M>,
        open: impl FnOnce(&str, OpCounters) -> X + Send + 'static,
    ) -> FusedOp {
        let name = name.into();
        PendingChain::pumped(rx).seal(name.clone(), &name, open)
    }

    /// A runnable chain: on the chain's thread, `open` builds the tail from the
    /// tail's node name and the chain's last ledger row, then `driver` runs the head
    /// through the stages into it until the input ends, the outputs close or the
    /// head fails. The tail, and with it the chain's outputs, is dropped only after
    /// the head has returned.
    fn sealed<T, M, X>(
        name: String,
        tail: String,
        driver: impl FnOnce(&OpCounters, &mut X) -> Result<(), SpeError> + Send + 'static,
        open: impl FnOnce(&str, OpCounters) -> X + Send + 'static,
    ) -> FusedOp
    where
        X: Tail<T, M>,
    {
        FusedOp {
            name,
            body: Box::new(move |counters| {
                let mut opened = open(&tail, counters.tail_row());
                driver(&counters, &mut opened)
            }),
        }
    }

    /// The chain's name: its parts' logical names joined with `+`, or the one
    /// part's own name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the chain to completion on this thread, counting into `counters`: its
    /// rows of the operator ledger ([`crate::metrics`]), one per part, head first.
    /// The chain only increments; whoever minted the rows keeps a clone and reads it.
    ///
    /// # Errors
    /// Returns the error its head failed with (a Receive over a broken link:
    /// [`SpeError::Runtime`] naming the Receive). A closed downstream is a graceful
    /// stop, not an error.
    pub fn run(self, counters: OpCounters) -> Result<(), SpeError> {
        (self.body)(counters)
    }
}

impl std::fmt::Debug for FusedOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusedOp").field("name", &self.name).finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::stream_channel;
    use crate::operator::aggregate::{AggregateStage, WindowView};
    use crate::operator::filter::FilterStage;
    use crate::operator::map::MapStage;
    use crate::operator::multiplex::MultiplexTail;
    use crate::operator::tests::run_bare;
    use crate::operator::OperatorStats;
    use crate::parallel::PartitionTail;
    use crate::provenance::NoProvenance;
    use crate::time::Duration;
    use crate::window::WindowSpec;
    use genealog_metrics::MetricsRegistry;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    /// Runs one stage to completion the way the query builder deploys an unfused
    /// one: as a chain of length one, sealed with the channel tail.
    pub(crate) fn run_stage<I: TupleData, O: TupleData, M: MetaData, S: FusedStage<I, O, M>>(
        name: &str,
        rx: StreamReceiver<I, M>,
        open: impl FnOnce(&str, OpCounters) -> S + Send + 'static,
        output: OutputSlot<O, M>,
    ) -> OperatorStats {
        let chain = PendingChain::pumped(rx).then(name, open);
        run_bare(Box::new((chain, output)).seal(name.into()))
    }

    /// The closed-downstream contract every tail keeps. The chain `build` makes is
    /// fed `input` while the upstream sender stays open, with outputs that close: it
    /// must return `Ok` by itself, count as output only the `accepted` sends, and
    /// have dropped its input receiver, so the upstream sender gets `ChannelClosed`.
    pub(crate) fn assert_stops_when_outputs_close<T: TupleData, M: MetaData>(
        input: Vec<Element<T, M>>,
        build: impl FnOnce(StreamReceiver<T, M>) -> FusedOp,
        accepted: u64,
    ) {
        let (tx, rx) = stream_channel(input.len() + 1);
        for element in input {
            tx.send(element).unwrap();
        }
        let op = build(rx);
        let counters = OpCounters::detached(op.name());
        let probe = counters.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || done_tx.send(op.run(counters)));
        let ran = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the chain returns by itself");
        assert!(ran.is_ok(), "a closed downstream is a graceful stop");
        assert_eq!(probe.tuples_out(), accepted, "only accepted sends count");
        assert_eq!(
            tx.send(Element::End),
            Err(ChannelClosed),
            "the input receiver is dropped"
        );
    }

    /// An output slot wired to a channel whose receiver is gone.
    fn closed_output() -> OutputSlot<i64, ()> {
        let slot = OutputSlot::new();
        slot.connect(stream_channel(1).0);
        slot
    }

    #[test]
    fn every_tail_stops_when_its_outputs_close() {
        let tuples = |n: u64| {
            (0..n)
                .map(|i| Element::Tuple(tuple(i, i as i64)))
                .collect::<Vec<_>>()
        };

        // The channel tail, behind a stage.
        let slot = closed_output();
        assert_stops_when_outputs_close(
            tuples(3),
            |rx| {
                let chain =
                    PendingChain::pumped(rx).then("f", |_, _| FilterStage::new(|_: &i64| true));
                Box::new((chain, slot)).seal("f".into())
            },
            0,
        );

        // An Aggregate whose watermark closes a window nobody receives.
        let slot = closed_output();
        let mut input = tuples(3);
        input.push(Element::Watermark(Timestamp::from_secs(100)));
        assert_stops_when_outputs_close(
            input,
            |rx| {
                let aggregate = AggregateStage::open(
                    WindowSpec::tumbling(Duration::from_secs(10)).unwrap(),
                    |_: &i64| 0u8,
                    |w: &WindowView<'_, u8, i64, ()>| w.len() as i64,
                    NoProvenance,
                    Default::default(),
                );
                let chain = PendingChain::pumped(rx).then("count", aggregate);
                Box::new((chain, slot)).seal("count".into())
            },
            0,
        );

        // A Multiplex whose outputs have all closed.
        let slots = [closed_output(), closed_output()];
        assert_stops_when_outputs_close(
            tuples(2),
            |rx| FusedOp::tail("mux", rx, MultiplexTail::open(slots.into(), NoProvenance)),
            0,
        );

        // A Partition stops at the first tuple routed to its closed shard 0, having
        // delivered the ones before it to shard 1.
        let live = OutputSlot::new();
        let (tx, _live_rx) = stream_channel(64);
        live.connect(tx);
        let slots = [closed_output(), live];
        assert_stops_when_outputs_close(
            vec![1, 3, 4, 5]
                .into_iter()
                .map(|v| Element::Tuple(tuple(0, v)))
                .collect(),
            |rx| {
                let partition = PartitionTail::open(slots.into(), |v: &i64| (v % 2) as usize);
                FusedOp::tail("part", rx, partition)
            },
            2,
        );
    }

    /// A run of watermarks alone — no tuple — ends a Multiplex whose outputs have
    /// all closed: it does not hold its upstream open until the end of the stream.
    #[test]
    fn multiplex_stops_on_watermarks_once_every_output_closed() {
        let slots = [closed_output(), closed_output()];
        let watermarks = (1..4)
            .map(|s| Element::Watermark(Timestamp::from_secs(s)))
            .collect();
        assert_stops_when_outputs_close(
            watermarks,
            |rx| FusedOp::tail("mux", rx, MultiplexTail::open(slots.into(), NoProvenance)),
            0,
        );
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

        let chain = PendingChain::pumped(in_rx)
            .then("evens", |_, _| FilterStage::new(|v: &i64| v % 2 == 0))
            .then("double", |_, _| {
                MapStage::new(|t: &Arc<GTuple<i64, ()>>| [t.data * 2], NoProvenance)
            });
        let op = Box::new((chain, out_slot)).seal("evens+double".into());
        assert_eq!(op.name(), "evens+double");
        let stats = OpCounters::mint(&MetricsRegistry::disabled(), ["evens", "double"]);
        op.run(stats.clone()).unwrap();
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

    /// Group compatibility: ungrouped fuses with ungrouped, equal widths fuse, and
    /// the merged group joins the member names.
    #[test]
    fn chain_group_rules() {
        let (_, rx) = stream_channel::<i64, ()>(1);
        let chain = PendingChain::<i64, ()>::pumped(rx);
        let mut entry = ChainEntry {
            nodes: vec![0],
            group: Some(ShardGroup {
                name: "pre".into(),
                instances: 2,
            }),
            pending: Some(Box::new((chain, OutputSlot::new()))),
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
