//! The typed query builder.
//!
//! A [`Query`] is a DAG of operators connected by streams. The builder API is typed:
//! every operator-adding method consumes the [`StreamRef`]s of its input streams (so a
//! stream can be consumed exactly once — fan-out is expressed with
//! [`Query::multiplex`], matching the operator model of the paper's §2) and returns
//! the `StreamRef`s of the streams it produces.
//!
//! The query is parameterised by a [`ProvenanceSystem`]: deploying the same query with
//! [`NoProvenance`](crate::provenance::NoProvenance), with `genealog::GeneaLog` or with
//! `genealog_baseline::AriadneBaseline` yields the NP / GL / BL configurations compared
//! in the paper's evaluation.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};

use genealog_analysis::{EdgeFacts, NodeFacts, PlanFacts};
use genealog_metrics::MetricsRegistry;

use crate::channel::{stream_channel, BatchConfig, OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::fusion::{ChainEntry, PendingChain, Sealed, Tail};
use crate::merge::FanInput;
use crate::metrics::OpCounters;
use crate::operator::aggregate::{AggregateStage, WindowView};
use crate::operator::filter::FilterStage;
use crate::operator::join;
use crate::operator::map::MapStage;
use crate::operator::multiplex::MultiplexTail;
use crate::operator::sink::{CollectedStream, SinkStats, SinkTail};
use crate::operator::source::{SourceConfig, SourceGenerator, SourceOp};
use crate::operator::union::Union;
use crate::operator::FusedStage;
use crate::provenance::ProvenanceSystem;
use crate::reclaim::Reclaimer;
use crate::runtime::{OperatorSpec, QueryHandle};
use crate::state::{CheckpointConfig, CheckpointHandle};
use crate::time::Duration;
use crate::tuple::TupleData;
use crate::window::WindowSpec;

/// Identifier of an operator node inside a query graph.
pub type NodeId = usize;

/// The role of an operator node (used for introspection and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NodeKind {
    /// A Source operator.
    Source,
    /// A Map operator.
    Map,
    /// A Filter operator.
    Filter,
    /// A Multiplex operator.
    Multiplex,
    /// A Union operator.
    Union,
    /// An Aggregate operator.
    Aggregate,
    /// A Join operator.
    Join,
    /// A Sink operator.
    Sink,
    /// A shuffle exchange: hash-partitions a keyed stream across shard instances.
    Partition,
    /// One shard instance of a key-partitioned Aggregate.
    ShardedAggregate,
    /// One shard instance of a key-partitioned Join.
    ShardedJoin,
    /// The provenance-safe fan-in reunifying shard outputs into one ordered stream.
    ShardMerge,
    /// A fused chain running on one thread: its head — a Source, a fan-in, a
    /// Receive or a pumped single-input operator — with the stages fused behind it
    /// and the tail that seals it (see [`crate::fusion`]).
    Fused,
    /// An operator provided by an extension crate (unfolders, Send/Receive, ...).
    Custom(&'static str),
}

impl NodeKind {
    /// Short label used in DOT exports and reports.
    pub fn label(&self) -> &'static str {
        match self {
            NodeKind::Source => "source",
            NodeKind::Map => "map",
            NodeKind::Filter => "filter",
            NodeKind::Multiplex => "multiplex",
            NodeKind::Union => "union",
            NodeKind::Aggregate => "aggregate",
            NodeKind::Join => "join",
            NodeKind::Sink => "sink",
            NodeKind::Partition => "partition",
            NodeKind::ShardedAggregate => "sharded-aggregate",
            NodeKind::ShardedJoin => "sharded-join",
            NodeKind::ShardMerge => "shard-merge",
            NodeKind::Fused => "fused",
            NodeKind::Custom(name) => name,
        }
    }
}

/// Membership of a node in a group of parallel shard instances.
///
/// All nodes sharing a group name are one *logical* operator split over `instances`
/// threads: the runtime folds their statistics into a single
/// [`OperatorReport`](crate::runtime::OperatorReport) and DOT exports annotate them
/// with the shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardGroup {
    /// Name of the logical operator the shards belong to.
    pub name: String,
    /// Number of parallel instances in the group.
    pub instances: usize,
}

/// A route splicing one *remote* shard of a key-partitioned operator into the plan
/// of the originating SPE instance.
///
/// The callback receives the originating query, the shard index and the shard's
/// partitioned sub-stream; it must install whatever carries the sub-stream out of the
/// process (an instrumented Send operator onto a link) and return the stream that
/// comes back from the remote instance (a Receive operator on the return link). The
/// `genealog-distributed` crate provides ready-made routes via its shard-group
/// builder.
pub type RemoteRoute<P, I, O> = Box<
    dyn FnOnce(
        &mut Query<P>,
        usize,
        StreamRef<I, <P as ProvenanceSystem>::Meta>,
    ) -> StreamRef<O, <P as ProvenanceSystem>::Meta>,
>;

/// Where one shard instance of a key-partitioned operator executes.
///
/// [`LogicalStream::place`](crate::logical::LogicalStream::place) takes one
/// placement per shard of a sharded aggregate: `Local` shards run as threads of the
/// originating SPE instance (what [`Parallelism::shards`](crate::parallel::Parallelism)
/// lowers to); `Remote` shards are spliced out
/// to another SPE instance through a [`RemoteRoute`]. The Partition
/// exchange, the provenance-safe fan-in and the joint channel budgeting are identical
/// for both, so local and remote shards can be mixed freely within one group.
pub enum ShardPlacement<P: ProvenanceSystem, I, O> {
    /// The shard runs in this process, as its own operator thread.
    Local,
    /// The shard runs on another SPE instance reached through the given route.
    Remote(RemoteRoute<P, I, O>),
}

impl<P: ProvenanceSystem, I, O> ShardPlacement<P, I, O> {
    /// `instances` local placements (the single-process default), clamped to at
    /// least one.
    pub fn all_local(instances: usize) -> Vec<Self> {
        (0..instances.max(1))
            .map(|_| ShardPlacement::Local)
            .collect()
    }

    /// Wraps a route callback as a remote placement.
    pub fn remote<F>(route: F) -> Self
    where
        F: FnOnce(&mut Query<P>, usize, StreamRef<I, P::Meta>) -> StreamRef<O, P::Meta> + 'static,
    {
        ShardPlacement::Remote(Box::new(route))
    }

    /// True for remote placements.
    pub fn is_remote(&self) -> bool {
        matches!(self, ShardPlacement::Remote(_))
    }
}

impl<P: ProvenanceSystem, I, O> std::fmt::Debug for ShardPlacement<P, I, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPlacement::Local => f.write_str("Local"),
            ShardPlacement::Remote(_) => f.write_str("Remote(..)"),
        }
    }
}

/// Static description of an operator node.
#[derive(Debug)]
pub struct NodeInfo {
    /// Operator name (unique within the query).
    pub name: String,
    /// Operator role.
    pub kind: NodeKind,
    /// Shard group this node belongs to, if it is part of a parallel operator.
    pub shard_group: Option<ShardGroup>,
}

/// A typed, move-only handle to a stream produced by an operator.
///
/// Consuming a `StreamRef` (by passing it to another builder method) attaches exactly
/// one consumer to the stream.
#[derive(Debug)]
pub struct StreamRef<T, M> {
    slot: OutputSlot<T, M>,
    producer: NodeId,
    label: String,
    /// How many sibling channels share this stream's logical edge budget: the N
    /// streams of a shard fan-out each carry `capacity_share = N`, so attaching a
    /// consumer allocates `channel_capacity / N` elements (floor one batch) instead
    /// of the full per-edge budget. 1 for ordinary streams.
    pub(crate) capacity_share: usize,
}

impl<T, M> StreamRef<T, M> {
    /// The node that produces this stream.
    pub fn producer(&self) -> NodeId {
        self.producer
    }

    /// The label of the stream (operator name plus output index).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Configuration shared by all operators of a query.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Capacity (in elements) of the bounded channels between operators. The builder
    /// converts it to a batch bound with [`batch_budget`](crate::channel::batch_budget)
    /// (`max(1, ceil(channel_capacity / batch_size))`: rounded up, so never below the
    /// configured elements), so the element-level buffer budget per edge is independent
    /// of the batch size.
    pub channel_capacity: usize,
    /// Batching configuration of every operator output and Source of the query.
    pub batch: BatchConfig,
    /// Whether the physical-plan fusion pass runs every forward edge into a
    /// single-input operator on one thread: a chain's head — a Source, a fan-in, a
    /// Receive or a pumped operator — the Filter, Map and Aggregate stages behind
    /// it, and the Sink, Multiplex, Partition or Send that seals it, with no
    /// intermediate channel (see [`crate::fusion`]). With fusion off every operator
    /// is a chain of one. Fused
    /// plans produce the same results and provenance, and every stage keeps its own
    /// ledger row, so `/metrics` reads the same either way. What changes is the
    /// report's shape: a fused chain is one
    /// [`OperatorReport`](crate::runtime::OperatorReport) named `stage+stage…`, its
    /// stages listed in `stages`. The planner
    /// ([`PlannerConfig::fusion`](crate::planner::PlannerConfig)) fuses by default.
    pub fusion: bool,
    /// Whether the query publishes into a live [`MetricsRegistry`] (per-operator
    /// tuple counters, queue-depth gauges, back-pressure stall counters, sink
    /// latency histograms, checkpoint gauges). On by default — the hot path is a
    /// handful of relaxed atomic increments; [`QueryConfig::with_metrics`]`(false)`
    /// reduces it to the counters the end-of-run report needs anyway.
    pub metrics: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            channel_capacity: 1024,
            batch: BatchConfig::default(),
            fusion: false,
            metrics: true,
        }
    }
}

impl QueryConfig {
    /// Returns the configuration with a different batch size.
    pub fn with_batch_size(mut self, size: usize) -> Self {
        self.batch = BatchConfig::with_size(size);
        self
    }

    /// Returns the configuration with batching disabled (flush every element),
    /// reproducing the engine's original per-element transport.
    pub fn unbatched(mut self) -> Self {
        self.batch = BatchConfig::unbatched();
        self
    }

    /// Returns the configuration with the stateless-chain fusion pass enabled or
    /// disabled.
    pub fn with_fusion(mut self, enabled: bool) -> Self {
        self.fusion = enabled;
        self
    }

    /// Returns the configuration with live metrics publication enabled or disabled.
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }
}

/// A continuous query under construction.
pub struct Query<P: ProvenanceSystem> {
    provenance: P,
    config: QueryConfig,
    nodes: Vec<NodeInfo>,
    /// The dataflow edges, as [`Query::plan_facts`] reports them.
    edges: Vec<EdgeFacts>,
    /// Number of provenance collectors attached to this query (see
    /// [`Query::note_provenance_collector`]).
    provenance_collectors: usize,
    /// Chains still open for extension, keyed by the node id of each chain's last
    /// stage.
    open_chains: HashMap<NodeId, ChainEntry>,
    /// Chains a tail has sealed.
    sealed_chains: Vec<ChainEntry>,
    /// Checks run at deployment time to detect dangling output streams.
    slot_checks: Vec<(String, Box<dyn Fn() -> bool + Send>)>,
    stop: Arc<AtomicBool>,
    /// Where sinks retire the provenance graphs they free, for the running Sources
    /// to drop on their own threads (see [`crate::reclaim`]).
    reclaimer: Arc<Reclaimer>,
    next_origin: u32,
    /// Checkpoint configuration shared with every checkpoint-aware operator. The
    /// cell is handed to operators at construction time and read when they start
    /// running, so [`Query::set_checkpoints`] works at any point before deployment.
    checkpoints: CheckpointHandle,
    /// The live metrics registry of the query (disabled when
    /// [`QueryConfig::metrics`] is off).
    registry: Arc<MetricsRegistry>,
}

impl<P: ProvenanceSystem> Query<P> {
    /// Creates an empty query using the given provenance system.
    pub fn new(provenance: P) -> Self {
        Self::with_config(provenance, QueryConfig::default())
    }

    /// Creates an empty query with an explicit configuration.
    pub fn with_config(provenance: P, config: QueryConfig) -> Self {
        Query {
            provenance,
            config,
            nodes: Vec::new(),
            edges: Vec::new(),
            provenance_collectors: 0,
            open_chains: HashMap::new(),
            sealed_chains: Vec::new(),
            slot_checks: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            reclaimer: Reclaimer::new(),
            next_origin: 0,
            checkpoints: Arc::new(OnceLock::new()),
            registry: if config.metrics {
                MetricsRegistry::new()
            } else {
                MetricsRegistry::disabled()
            },
        }
    }

    /// The live metrics registry the query's operators publish into. Shared with
    /// the [`QueryHandle`] at deploy time; hand it to a control endpoint to expose
    /// the running query.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Enables epoch-based checkpointing: Sources inject an epoch barrier every
    /// [`interval`](CheckpointConfig::interval) tuples and every stateful operator
    /// and sink snapshots its state into the configured
    /// [`CheckpointStore`](crate::state::CheckpointStore) when the barrier reaches
    /// it. Must be called before [`Query::deploy`]; calling it twice keeps the
    /// first configuration.
    pub fn set_checkpoints(&self, config: CheckpointConfig) {
        let _ = self.checkpoints.set(config);
    }

    /// The shared checkpoint handle, for extension crates that construct
    /// checkpoint-aware operators (e.g. distributed shard splicing).
    pub fn checkpoint_handle(&self) -> CheckpointHandle {
        Arc::clone(&self.checkpoints)
    }

    /// The provenance system the query was built with.
    pub fn provenance(&self) -> &P {
        &self.provenance
    }

    /// Records that a provenance collector (e.g. a provenance sink built by
    /// `attach_provenance_sink`) is attached to this query. The deploy-time
    /// analyzer warns (GL022) when a GL plan reaches its sinks without one.
    pub fn note_provenance_collector(&mut self) {
        self.provenance_collectors += 1;
    }

    /// Snapshots the query graph into the plain-data [`PlanFacts`]: the one
    /// description of a physical graph, which the deploy-time analyzer
    /// (`genealog-analysis`) runs over and its [`dot`] module draws. Cheap (no
    /// channels or threads are touched), callable any time before deployment;
    /// logical builders attach their pre-lowering [`LogicalFacts`] on top (see
    /// [`LogicalPlan::analyze`](crate::logical::LogicalPlan::analyze)).
    ///
    /// [`dot`]: genealog_analysis::dot
    /// [`LogicalFacts`]: genealog_analysis::LogicalFacts
    pub fn plan_facts(&self) -> PlanFacts {
        let mut chains: Vec<&[NodeId]> = self.chains().map(|entry| &entry.nodes[..]).collect();
        chains.sort_by_key(|parts| parts[0]);
        let mut chain_of = vec![None; self.nodes.len()];
        for (chain, parts) in chains.iter().enumerate() {
            for &part in *parts {
                chain_of[part] = Some(chain);
            }
        }
        let nodes = self
            .nodes
            .iter()
            .zip(chain_of)
            .map(|(n, chain)| NodeFacts {
                name: n.name.clone(),
                kind: n.kind.label().to_string(),
                group: n.shard_group.as_ref().map(|g| g.name.clone()),
                instances: n.shard_group.as_ref().map_or(1, |g| g.instances),
                remote: matches!(n.kind.label(), "send" | "receive"),
                chain,
            })
            .collect();
        PlanFacts {
            provenance: self.provenance.label().to_string(),
            channel_capacity: self.config.channel_capacity,
            fusion: self.config.fusion,
            checkpoint_interval: self.checkpoints.get().map(|c| c.interval),
            checkpoint_durable: self
                .checkpoints
                .get()
                .map(|c| c.store.backend().is_durable()),
            metrics: self.config.metrics,
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            provenance_collectors: self.provenance_collectors,
            nodes,
            edges: self.edges.clone(),
            logical: None,
        }
    }

    /// The query configuration.
    pub fn config(&self) -> QueryConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Extension API: used by the Send/Receive endpoints of
    // `genealog-distributed` to register custom operators while reusing the
    // engine's wiring and validation.
    // ------------------------------------------------------------------

    /// Registers a new operator node and returns its id. The node must later become
    /// a part of a chain: the head of a new one ([`Query::add_head`]) or the tail
    /// that seals one ([`Query::set_tail`]); deployment rejects a node that is
    /// neither.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(NodeInfo {
            name: name.into(),
            kind,
            shard_group: None,
        });
        id
    }

    /// Assigns a node to a shard group: all nodes of one group are shard instances of
    /// the same logical operator, reported as one aggregated
    /// [`OperatorReport`](crate::runtime::OperatorReport) and rendered with their
    /// shard count in DOT exports.
    pub fn set_shard_group(&mut self, node: NodeId, group: impl Into<String>, instances: usize) {
        self.nodes[node].shard_group = Some(ShardGroup {
            name: group.into(),
            instances: instances.max(1),
        });
    }

    /// Attaches `consumer` to `stream`, returning the receiving end of the channel.
    pub fn attach_input<T: TupleData>(
        &mut self,
        stream: StreamRef<T, P::Meta>,
        consumer: NodeId,
    ) -> StreamReceiver<T, P::Meta> {
        // The configured capacity counts elements; the channel is bounded in batches,
        // so convert with ceiling division to keep the element budget no smaller than
        // configured regardless of the producer's batch size. Streams that are one of
        // N siblings of a shard fan-out carry `capacity_share = N` and get 1/N of the
        // budget each (floor one batch), so the total buffered-element headroom of a
        // logical edge is independent of its physical fan-out.
        let batch_size = stream.slot.batch_config().size;
        let share = stream.capacity_share.max(1);
        let capacity = self.config.channel_capacity.div_ceil(share);
        let batches = crate::channel::batch_budget(capacity, batch_size);
        let (mut tx, mut rx) = stream_channel(batches);
        if self.registry.is_enabled() {
            // One edge key per physical channel: the producing stream's label is
            // unique per output port, the consumer name disambiguates fan-ins.
            let edge = format!("{}->{}", stream.label, self.nodes[consumer].name);
            tx.set_stall_counter(self.registry.counter(
                "genealog_channel_backpressure_stalls_total",
                &[("edge", &edge)],
            ));
            rx.set_park_counter(
                self.registry
                    .counter("genealog_channel_receiver_parks_total", &[("edge", &edge)]),
            );
            let depth = rx.depth_handle();
            self.registry.gauge_fn(
                "genealog_channel_queue_depth",
                &[("edge", &edge)],
                Arc::new(move || depth.load(std::sync::atomic::Ordering::Relaxed) as u64),
            );
        }
        stream.slot.connect(tx);
        self.edges.push(EdgeFacts {
            from: stream.producer,
            to: consumer,
            capacity,
            batch_size,
            fused: false,
        });
        rx
    }

    /// Creates a new output stream for `producer`, returning the slot to hand to the
    /// operator and the `StreamRef` to hand to the rest of the query.
    pub fn new_output_stream<T: TupleData>(
        &mut self,
        producer: NodeId,
        label: impl Into<String>,
    ) -> (OutputSlot<T, P::Meta>, StreamRef<T, P::Meta>) {
        let slot = OutputSlot::with_config(self.config.batch);
        let stream = StreamRef {
            slot: slot.clone(),
            producer,
            label: label.into(),
            capacity_share: 1,
        };
        let producer_name = self.nodes[producer].name.clone();
        let check_slot = slot.clone();
        self.slot_checks
            .push((producer_name, Box::new(move || check_slot.is_connected())));
        (slot, stream)
    }

    /// Installs a node's operator as the head of a new chain (see
    /// [`PendingChain::head`]), such as the Receive of a stream arriving over a
    /// link, and returns the chain's output stream: with fusion on, the stages and
    /// the tail added on it extend the chain; deployment seals what stays open with
    /// its output channel.
    pub fn add_head<T: TupleData>(
        &mut self,
        node: NodeId,
        head: impl FnOnce(OpCounters, &mut dyn Tail<T, P::Meta>) -> Result<(), SpeError>
            + Send
            + 'static,
    ) -> StreamRef<T, P::Meta> {
        self.open_chain(node, PendingChain::head(head))
    }

    /// Opens the chain `chain` heads at `node`, returning its output stream.
    pub(crate) fn open_chain<T: TupleData>(
        &mut self,
        node: NodeId,
        chain: PendingChain<T, P::Meta>,
    ) -> StreamRef<T, P::Meta> {
        let label = format!("{}.out", self.nodes[node].name);
        let (slot, stream) = self.new_output_stream(node, label);
        let entry = ChainEntry {
            nodes: vec![node],
            group: self.chain_group(node),
            pending: Some(Box::new((chain, slot))),
        };
        self.open_chains.insert(node, entry);
        stream
    }

    /// The shard group a node brings to its chain. A Partition's shard group
    /// describes its outputs and a shard merge's its inputs: the side a chain
    /// continues on carries one stream, so neither brings one.
    fn chain_group(&self, node: NodeId) -> Option<ShardGroup> {
        match self.nodes[node].kind {
            NodeKind::Partition | NodeKind::ShardMerge => None,
            _ => self.nodes[node].shard_group.clone(),
        }
    }

    /// Installs a node's operator as the [`Tail`] of a chain fed by `input`: the one
    /// construction path of every single-input operator that ends a chain (Sink,
    /// Multiplex, Partition, Send). `open` builds the tail on the chain's thread,
    /// from the node's name and the tail's ledger row. With fusion on, a tail seals
    /// the open chain `input` leaves, whatever its head, and runs on that chain's
    /// thread; otherwise it starts a chain of its own, pumped from its own input
    /// channel.
    pub fn set_tail<T, X>(
        &mut self,
        node: NodeId,
        input: StreamRef<T, P::Meta>,
        open: impl FnOnce(&str, OpCounters) -> X + Send + 'static,
    ) where
        T: TupleData,
        X: Tail<T, P::Meta>,
    {
        let name = self.nodes[node].name.clone();
        let group = self.chain_group(node);
        let (mut entry, chain) = self.chain_behind(input, node, group);
        entry.pending = Some(Box::new(Sealed(Box::new(move |chain_name| {
            chain.seal(chain_name, &name, open)
        }))));
        self.sealed_chains.push(entry);
    }

    /// The chain `node` joins as the part behind `input`, with the typed composition
    /// in front of it: with fusion on, the open chain `input` leaves if a part whose
    /// input side carries `group` may extend it (the edge to `node` is then
    /// channel-free); otherwise a new chain pumped from `input`'s channel.
    fn chain_behind<T: TupleData>(
        &mut self,
        input: StreamRef<T, P::Meta>,
        node: NodeId,
        group: Option<ShardGroup>,
    ) -> (ChainEntry, PendingChain<T, P::Meta>) {
        let extends = self.config.fusion
            && self
                .open_chains
                .get(&input.producer)
                .is_some_and(|entry| entry.accepts(group.as_ref()));
        if !extends {
            let rx = self.attach_input(input, node);
            let entry = ChainEntry {
                nodes: vec![node],
                group,
                pending: None,
            };
            return (entry, PendingChain::pumped(rx));
        }
        let mut entry = self.open_chains.remove(&input.producer).expect("checked");
        let (chain, _bypassed) = *entry
            .pending
            .take()
            .expect("an open chain is complete")
            .into_any()
            .downcast::<(PendingChain<T, P::Meta>, OutputSlot<T, P::Meta>)>()
            .expect("open chain type mismatch");
        // Bypass the chain's output slot: the parts are connected by direct calls,
        // not a channel. The discard mark satisfies deploy validation.
        input.slot.mark_discard();
        self.edges.push(EdgeFacts {
            from: input.producer,
            to: node,
            capacity: 0,
            batch_size: 0,
            fused: true,
        });
        entry.nodes.push(node);
        entry.merge_group(group);
        (entry, chain)
    }

    /// The name a node's ledger row carries: its shard group's, or its own.
    fn logical_name(&self, node: NodeId) -> String {
        let info = &self.nodes[node];
        info.shard_group
            .as_ref()
            .map_or_else(|| info.name.clone(), |g| g.name.clone())
    }

    /// Every chain collected so far, open or sealed by a tail.
    fn chains(&self) -> impl Iterator<Item = &ChainEntry> {
        self.open_chains.values().chain(&self.sealed_chains)
    }

    /// Allocates a fresh origin id (used by Sources and Receive operators to build the
    /// unique tuple ids of §6).
    pub fn next_origin_id(&mut self) -> u32 {
        let id = self.next_origin;
        self.next_origin += 1;
        id
    }

    /// Registers a single-input/single-output operator expressed as a
    /// [`FusedStage`] that `open` builds on the chain's thread from the node's name
    /// and ledger row. This is the single construction path for Filter, Map and
    /// Aggregate:
    ///
    /// * if fusion is enabled and `input` leaves an open chain with a compatible
    ///   shard group, whatever its head, the stage *extends* that chain: no channel
    ///   is allocated between the two, and the stage runs on the chain head's thread;
    /// * otherwise the stage starts a new chain, pulling from a regular channel out
    ///   of the producer.
    ///
    /// Either way the chain stays open: a later stage extends it, a tail seals it
    /// ([`Query::set_tail`]), or deployment seals it with its output channel. Fused
    /// and unfused plans execute identical per-tuple code and differ only in how
    /// many threads and channels carry it.
    pub(crate) fn add_fused_stage<I, O, S>(
        &mut self,
        name: &str,
        kind: NodeKind,
        group: Option<ShardGroup>,
        input: StreamRef<I, P::Meta>,
        open: impl FnOnce(&str, OpCounters) -> S + Send + 'static,
    ) -> StreamRef<O, P::Meta>
    where
        I: TupleData,
        O: TupleData,
        S: FusedStage<I, O, P::Meta>,
    {
        let node = self.add_node(name, kind);
        self.nodes[node].shard_group = group.clone();
        // A stage keeps its input's shard membership: its output stream inherits
        // the capacity share, so per-shard pipelines stay jointly budgeted all the
        // way to the fan-in.
        let share = input.capacity_share;
        let (slot, mut stream) = self.new_output_stream(node, format!("{name}.out"));
        stream.capacity_share = share;
        let (mut entry, chain) = self.chain_behind(input, node, group);
        entry.pending = Some(Box::new((chain.then(name, open), slot)));
        self.open_chains.insert(node, entry);
        stream
    }

    // ------------------------------------------------------------------
    // Standard operators
    // ------------------------------------------------------------------

    /// Adds a Source backed by `generator` with the default source configuration.
    pub fn source<G: SourceGenerator>(
        &mut self,
        name: &str,
        generator: G,
    ) -> StreamRef<G::Item, P::Meta> {
        self.source_with(name, generator, SourceConfig::default())
    }

    /// Adds a Source backed by `generator` with an explicit configuration.
    pub fn source_with<G: SourceGenerator>(
        &mut self,
        name: &str,
        generator: G,
        config: SourceConfig,
    ) -> StreamRef<G::Item, P::Meta> {
        let node = self.add_node(name, NodeKind::Source);
        let source_id = self.next_origin_id();
        let source = SourceOp::new(
            name,
            source_id,
            generator,
            config,
            self.config.batch,
            self.provenance.clone(),
            Arc::clone(&self.stop),
            Arc::clone(&self.checkpoints),
            Arc::clone(&self.reclaimer),
        );
        // The source heads a chain: the stages and the tail added on its stream run
        // on its thread (see `add_fused_stage` and `set_tail`).
        self.open_chain(node, PendingChain::source(source))
    }

    /// Adds a Map producing zero or more output payloads per input payload.
    pub fn map<I, O, R, F>(
        &mut self,
        name: &str,
        input: StreamRef<I, P::Meta>,
        mut function: F,
    ) -> StreamRef<O, P::Meta>
    where
        I: TupleData,
        O: TupleData,
        R: IntoIterator<Item = O>,
        F: FnMut(&I) -> R + Send + 'static,
    {
        let provenance = self.provenance.clone();
        self.add_fused_stage(name, NodeKind::Map, None, input, move |_, _| {
            MapStage::new(
                move |tuple: &Arc<crate::tuple::GTuple<I, P::Meta>>| function(&tuple.data),
                provenance,
            )
        })
    }

    /// Adds a meta-aware Map whose function receives the whole input tuple (payload
    /// *and* provenance metadata). This is the instrumented-Map facility used by the
    /// provenance unfolders of the `genealog` crate (§5.1 of the paper).
    pub fn map_with_meta<I, O, F>(
        &mut self,
        name: &str,
        input: StreamRef<I, P::Meta>,
        function: F,
    ) -> StreamRef<O, P::Meta>
    where
        I: TupleData,
        O: TupleData,
        F: FnMut(&Arc<crate::tuple::GTuple<I, P::Meta>>) -> Vec<O> + Send + 'static,
    {
        let provenance = self.provenance.clone();
        self.add_fused_stage(name, NodeKind::Map, None, input, move |_, _| {
            MapStage::new(function, provenance)
        })
    }

    /// Adds a Map producing exactly one output payload per input payload.
    pub fn map_one<I, O, F>(
        &mut self,
        name: &str,
        input: StreamRef<I, P::Meta>,
        mut function: F,
    ) -> StreamRef<O, P::Meta>
    where
        I: TupleData,
        O: TupleData,
        F: FnMut(&I) -> O + Send + 'static,
    {
        self.map(name, input, move |data| std::iter::once(function(data)))
    }

    /// Adds a Filter forwarding the tuples that satisfy `predicate`.
    pub fn filter<T, F>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        predicate: F,
    ) -> StreamRef<T, P::Meta>
    where
        T: TupleData,
        F: FnMut(&T) -> bool + Send + 'static,
    {
        self.add_fused_stage(name, NodeKind::Filter, None, input, move |_, _| {
            FilterStage::new(predicate)
        })
    }

    /// Adds a Multiplex copying every input tuple to `outputs` output streams.
    pub fn multiplex<T>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        outputs: usize,
    ) -> Vec<StreamRef<T, P::Meta>>
    where
        T: TupleData,
    {
        assert!(outputs > 0, "Multiplex requires at least one output");
        let node = self.add_node(name, NodeKind::Multiplex);
        let (slots, streams): (Vec<_>, Vec<_>) = (0..outputs)
            .map(|i| self.new_output_stream(node, format!("{name}.out{i}")))
            .unzip();
        let multiplex = MultiplexTail::open(slots, self.provenance.clone());
        self.set_tail(node, input, multiplex);
        streams
    }

    /// Adds a Union deterministically merging `inputs` into one stream.
    pub fn union<T>(
        &mut self,
        name: &str,
        inputs: Vec<StreamRef<T, P::Meta>>,
    ) -> StreamRef<T, P::Meta>
    where
        T: TupleData,
    {
        assert!(!inputs.is_empty(), "Union requires at least one input");
        let node = self.add_node(name, NodeKind::Union);
        let inputs: Vec<_> = inputs
            .into_iter()
            .map(|stream| FanInput::new(self.attach_input(stream, node)))
            .collect();
        self.open_chain(node, PendingChain::fan_in(name, inputs, |_, _| Union))
    }

    /// Adds an Aggregate over a sliding time window with a group-by key.
    pub fn aggregate<I, O, K, KF, AF>(
        &mut self,
        name: &str,
        input: StreamRef<I, P::Meta>,
        spec: WindowSpec,
        key_fn: KF,
        agg_fn: AF,
    ) -> StreamRef<O, P::Meta>
    where
        I: TupleData,
        O: TupleData,
        K: Ord + Clone + Send + Sync + 'static,
        KF: FnMut(&I) -> K + Send + 'static,
        AF: FnMut(&WindowView<'_, K, I, P::Meta>) -> O + Send + 'static,
    {
        let (provenance, checkpoints) = (self.provenance.clone(), self.checkpoint_handle());
        let aggregate = AggregateStage::open(spec, key_fn, agg_fn, provenance, checkpoints);
        self.add_fused_stage(name, NodeKind::Aggregate, None, input, aggregate)
    }

    /// Adds a Join of two streams within the time window `window`: pairs with equal
    /// `left_key`/`right_key` that satisfy the residual `predicate` are combined.
    ///
    /// The retained windows are indexed by key, so a probe costs the same-key tuples
    /// of the other side, not its whole window. A theta join (no equality to key on)
    /// passes `|_| ()` for both extractors and `predicate` sees every pair in the
    /// window. Key extractors must be pure.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's Join parameters
    pub fn join<L, R, O, K, LK, RK, PR, CF>(
        &mut self,
        name: &str,
        left: StreamRef<L, P::Meta>,
        right: StreamRef<R, P::Meta>,
        window: Duration,
        left_key: LK,
        right_key: RK,
        predicate: PR,
        combine: CF,
    ) -> StreamRef<O, P::Meta>
    where
        L: TupleData,
        R: TupleData,
        O: TupleData,
        K: Hash + Eq + Send + 'static,
        LK: FnMut(&L) -> K + Send + 'static,
        RK: FnMut(&R) -> K + Send + 'static,
        PR: FnMut(&L, &R) -> bool + Send + 'static,
        CF: FnMut(&L, &R) -> O + Send + 'static,
    {
        let node = self.add_node(name, NodeKind::Join);
        let chain = join::chain(
            name,
            self.attach_input(left, node),
            self.attach_input(right, node),
            window,
            left_key,
            right_key,
            predicate,
            combine,
            self.provenance.clone(),
            self.checkpoint_handle(),
        );
        self.open_chain(node, chain)
    }

    /// Adds a Stitch: the Join's keyed-window rule over one `probes` stream and any
    /// number of `lookups` streams (see [`join::stitch`]). A probe whose `probe_key`
    /// is `None` is resolved alone as it arrives; a keyed probe is resolved with each
    /// lookup tuple of its key within `window`, whichever arrives first. The output
    /// carries the probe's lineage only: lookup tuples are state, not contributors.
    #[allow(clippy::too_many_arguments)]
    pub fn stitch<L, R, O, K, LK, RK, F>(
        &mut self,
        name: &str,
        probes: StreamRef<L, P::Meta>,
        lookups: Vec<StreamRef<R, P::Meta>>,
        window: Duration,
        probe_key: LK,
        lookup_key: RK,
        resolve: F,
    ) -> StreamRef<O, P::Meta>
    where
        L: TupleData,
        R: TupleData,
        O: TupleData,
        K: Hash + Eq + Send + 'static,
        LK: FnMut(&L) -> Option<K> + Send + 'static,
        RK: FnMut(&R) -> K + Send + 'static,
        F: FnMut(&L, Option<&R>) -> O + Send + 'static,
    {
        let node = self.add_node(name, NodeKind::Join);
        let probes = self.attach_input(probes, node);
        let lookups = lookups
            .into_iter()
            .map(|stream| self.attach_input(stream, node))
            .collect();
        let chain = join::stitch(
            name,
            probes,
            lookups,
            window,
            probe_key,
            lookup_key,
            resolve,
            self.provenance.clone(),
            self.checkpoint_handle(),
        );
        self.open_chain(node, chain)
    }

    /// Adds a Sink invoking `callback` for every sink tuple; returns its statistics.
    pub fn sink<T, F>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        callback: F,
    ) -> Arc<SinkStats>
    where
        T: TupleData,
        F: FnMut(&Arc<crate::tuple::GTuple<T, P::Meta>>) + Send + 'static,
    {
        let stats = SinkStats::new();
        self.sink_into(name, input, callback, Arc::clone(&stats));
        stats
    }

    /// Adds a Sink with a caller-provided statistics handle — the building block of
    /// [`Query::sink`], and of the logical layer's eagerly-created sink handles
    /// (the handle exists before the plan is lowered, so it can be returned to the
    /// caller while the sink itself is wired at lowering time).
    pub fn sink_into<T, F>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        callback: F,
        stats: Arc<SinkStats>,
    ) where
        T: TupleData,
        F: FnMut(&Arc<crate::tuple::GTuple<T, P::Meta>>) + Send + 'static,
    {
        self.add_sink(name, input, callback, stats, None);
    }

    /// The single construction path for sinks: `collected` names the collection the
    /// callback feeds (if any), which doubles as the sink's checkpointable state.
    fn add_sink<T, F>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        callback: F,
        stats: Arc<SinkStats>,
        collected: Option<CollectedStream<T, P::Meta>>,
    ) where
        T: TupleData,
        F: FnMut(&Arc<crate::tuple::GTuple<T, P::Meta>>) + Send + 'static,
    {
        let node = self.add_node(name, NodeKind::Sink);
        let (checkpoints, reclaimer) = (self.checkpoint_handle(), Arc::clone(&self.reclaimer));
        let sink = SinkTail::<T, P, F>::open(callback, stats, collected, checkpoints, reclaimer);
        self.set_tail(node, input, sink);
    }

    /// Adds a Sink collecting every sink tuple in memory (convenient for tests,
    /// examples and provenance collection).
    pub fn collecting_sink<T>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
    ) -> CollectedStream<T, P::Meta>
    where
        T: TupleData,
    {
        let collected = CollectedStream::new();
        self.collecting_sink_into(name, input, &collected);
        collected
    }

    /// Adds a Sink pushing every sink tuple into a caller-provided collection (see
    /// [`Query::sink_into`]).
    pub fn collecting_sink_into<T>(
        &mut self,
        name: &str,
        input: StreamRef<T, P::Meta>,
        collected: &CollectedStream<T, P::Meta>,
    ) where
        T: TupleData,
    {
        let copy = collected.clone();
        let stats = Arc::clone(collected.stats());
        self.add_sink(
            name,
            input,
            move |t| copy.push(Arc::clone(t)),
            stats,
            Some(collected.clone()),
        );
    }

    /// Explicitly discards a stream: its elements are dropped without a consumer.
    pub fn discard<T>(&mut self, stream: StreamRef<T, P::Meta>) {
        stream.slot.mark_discard();
    }

    // ------------------------------------------------------------------
    // Deployment
    // ------------------------------------------------------------------

    /// Validates the query, runs the physical-plan fusion pass and spawns one thread
    /// per chain.
    ///
    /// The fusion pass seals every chain collected by the builder — those a tail
    /// sealed, and each still-open one with its output channel — into a
    /// [`FusedOp`](crate::fusion::FusedOp): a chain of one part reports as that
    /// operator, under its kind; a chain of two or more parts reports as one `Fused`
    /// thread that still names the original operators (see
    /// [`OperatorReport::stages`](crate::runtime::OperatorReport)). Every thread is
    /// handed its rows of the operator ledger ([`crate::metrics`]), minted here.
    ///
    /// # Errors
    /// Returns [`SpeError::UnconnectedStream`] if an output stream has no consumer and
    /// was not discarded, or [`SpeError::InvalidQuery`] if a node is a part of no
    /// chain (it has no operator installed).
    pub fn deploy(mut self) -> Result<QueryHandle, SpeError> {
        for (producer, check) in &self.slot_checks {
            if !check() {
                return Err(SpeError::UnconnectedStream {
                    producer: producer.clone(),
                });
            }
        }
        // The fusion pass: index the collected chains by their head node, so specs
        // come out in node-creation order, and remember every fused member.
        let mut chains: HashMap<NodeId, ChainEntry> = HashMap::new();
        let mut members: HashSet<NodeId> = HashSet::new();
        let sealed = std::mem::take(&mut self.sealed_chains);
        for entry in self
            .open_chains
            .drain()
            .map(|(_, entry)| entry)
            .chain(sealed)
        {
            members.extend(entry.nodes.iter().copied());
            chains.insert(entry.nodes[0], entry);
        }
        // Mint the operator ledger (see [`crate::metrics`]): one row per part of
        // each chain, under the part's logical name. Names and shard groups are
        // read now, so a group assigned after its node joined a chain still counts.
        let mut specs = Vec::with_capacity(chains.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(entry) = chains.remove(&id) else {
                if members.contains(&id) {
                    // Folded into the chain sealed at its head node.
                    continue;
                }
                return Err(SpeError::InvalidQuery(format!(
                    "node `{}` has no operator installed",
                    node.name
                )));
            };
            let stages: Vec<String> = entry.nodes.iter().map(|&n| self.logical_name(n)).collect();
            let name = match stages.len() {
                1 => node.name.clone(),
                _ => stages.join("+"),
            };
            let pending = entry.pending.expect("every collected chain is complete");
            specs.push(OperatorSpec {
                head: node.kind,
                tail: self.nodes[entry.nodes[entry.nodes.len() - 1]].kind,
                // A grouped head — a shard, a shard merge, an exchange alone in its
                // chain — keeps its thread folded under the group's name.
                grouped: entry.group.is_some() || node.shard_group.is_some(),
                counters: OpCounters::mint(&self.registry, stages.iter().map(String::as_str)),
                op: pending.seal(name),
            });
        }
        if specs.is_empty() {
            return Err(SpeError::InvalidQuery("query has no operators".into()));
        }
        self.register_collectors(&specs);
        Ok(crate::runtime::spawn(
            specs,
            self.stop,
            self.checkpoints,
            self.registry,
        ))
    }

    /// Registers the registry collectors: per-logical-operator tuple counters (the
    /// sum over every ledger row carrying the name — shard instances, fused stages),
    /// the reclaimer's hand-off readings and the checkpoint-path gauges.
    fn register_collectors(&self, specs: &[OperatorSpec]) {
        if !self.registry.is_enabled() {
            return;
        }
        // How much dead provenance the sinks have handed to the Sources, and how
        // much is waiting for one right now. Read under the reclaimer's lock at
        // scrape time; nothing is counted per tuple.
        let (retired, pending) = (Arc::clone(&self.reclaimer), Arc::clone(&self.reclaimer));
        self.registry.counter_fn(
            "genealog_reclaim_retired_total",
            &[],
            Arc::new(move || retired.retired_total()),
        );
        self.registry.gauge_fn(
            "genealog_reclaim_pending",
            &[],
            Arc::new(move || pending.pending()),
        );
        type Column = Vec<Arc<genealog_metrics::Counter>>;
        let mut by_name: std::collections::BTreeMap<&str, (Column, Column)> = Default::default();
        for row in specs.iter().flat_map(|spec| spec.counters.stages()) {
            let (tuples_in, tuples_out) = by_name.entry(row.name.as_str()).or_default();
            tuples_in.push(Arc::clone(&row.tuples_in));
            tuples_out.push(Arc::clone(&row.tuples_out));
        }
        for (name, (tuples_in, tuples_out)) in by_name {
            for (metric, column) in [
                ("genealog_operator_tuples_in_total", tuples_in),
                ("genealog_operator_tuples_out_total", tuples_out),
            ] {
                self.registry.counter_fn(
                    metric,
                    &[("operator", name)],
                    Arc::new(move || column.iter().map(|c| c.get()).sum()),
                );
            }
        }
        if let Some(config) = self.checkpoints.get() {
            let store = Arc::clone(&config.store);
            let (bytes, written, epoch, latency, retained) = (
                Arc::clone(&store),
                Arc::clone(&store),
                Arc::clone(&store),
                Arc::clone(&store),
                store,
            );
            self.registry.gauge_fn(
                "genealog_checkpoint_snapshot_bytes",
                &[],
                Arc::new(move || bytes.backend().serialized_bytes() as u64),
            );
            self.registry.counter_fn(
                "genealog_checkpoint_bytes_written_total",
                &[],
                Arc::new(move || written.backend().bytes_written()),
            );
            self.registry.gauge_fn(
                "genealog_checkpoint_latest_complete_epoch",
                &[],
                Arc::new(move || epoch.latest_complete_epoch().map_or(0, |e| e + 1)),
            );
            self.registry.gauge_fn(
                "genealog_checkpoint_epoch_commit_latency_ns",
                &[],
                Arc::new(move || latency.last_epoch_commit_latency_ns().unwrap_or(0)),
            );
            self.registry.gauge_fn(
                "genealog_checkpoint_retained_snapshots",
                &[],
                Arc::new(move || retained.backend().snapshot_count() as u64),
            );
        }
    }
}

impl<P: ProvenanceSystem> std::fmt::Debug for Query<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("provenance", &self.provenance.label())
            .field("nodes", &self.nodes.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::source::VecSource;
    use crate::provenance::NoProvenance;
    use genealog_analysis::dot;

    #[test]
    fn builds_and_runs_a_linear_query() {
        let mut q = Query::new(NoProvenance);
        let src = q.source(
            "numbers",
            VecSource::with_period((0..10i64).collect(), 1_000),
        );
        let evens = q.filter("evens", src, |x| x % 2 == 0);
        let doubled = q.map_one("double", evens, |x| x * 2);
        let out = q.collecting_sink("sink", doubled);
        let facts = q.plan_facts();
        assert_eq!(facts.nodes.len(), 4);
        assert_eq!(facts.edges.len(), 3);
        let report = q.deploy().unwrap().wait().unwrap();
        assert_eq!(out.len(), 5);
        let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
        assert_eq!(values, vec![0, 4, 8, 12, 16]);
        assert!(report.operator_stats().len() == 4);
    }

    #[test]
    fn multiplex_union_round_trip() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("numbers", VecSource::with_period((0..20i64).collect(), 500));
        let branches = q.multiplex("mux", src, 2);
        let mut it = branches.into_iter();
        let small = q.filter("small", it.next().unwrap(), |x| *x < 5);
        let large = q.filter("large", it.next().unwrap(), |x| *x >= 15);
        let merged = q.union("union", vec![small, large]);
        let out = q.collecting_sink("sink", merged);
        q.deploy().unwrap().wait().unwrap();
        let mut values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
        // The union is timestamp-ordered, which here equals value order.
        assert_eq!(values, vec![0, 1, 2, 3, 4, 15, 16, 17, 18, 19]);
        values.sort_unstable();
        assert_eq!(values.len(), 10);
    }

    #[test]
    fn unconnected_stream_is_rejected_at_deploy() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("numbers", VecSource::with_period(vec![1i64], 1));
        let _dangling = q.filter("dangling", src, |_| true);
        let err = q.deploy().unwrap_err();
        assert!(matches!(err, SpeError::UnconnectedStream { producer } if producer == "dangling"));
    }

    #[test]
    fn discarded_stream_passes_validation() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("numbers", VecSource::with_period(vec![1i64, 2, 3], 1));
        let branches = q.multiplex("mux", src, 2);
        let mut it = branches.into_iter();
        let keep = it.next().unwrap();
        let toss = it.next().unwrap();
        let out = q.collecting_sink("sink", keep);
        q.discard(toss);
        q.deploy().unwrap().wait().unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn empty_query_is_invalid() {
        let q = Query::new(NoProvenance);
        assert!(matches!(q.deploy(), Err(SpeError::InvalidQuery(_))));
    }

    #[test]
    fn dot_export_mentions_all_nodes() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("reports", VecSource::with_period(vec![1i64], 1));
        let flt = q.filter("speed0", src, |_| true);
        let _ = q.collecting_sink("alerts", flt);
        let dot = dot::physical(&q.plan_facts());
        assert!(dot.contains("reports"));
        assert!(dot.contains("speed0"));
        assert!(dot.contains("alerts"));
        assert!(dot.contains("n0 -> n1"));
        let facts = q.plan_facts();
        assert_eq!(facts.node_kind(0), NodeKind::Source.label());
        assert_eq!(facts.node_kind(1), NodeKind::Filter.label());
        assert_eq!(facts.node_kind(2), NodeKind::Sink.label());
    }

    #[test]
    fn dot_export_escapes_hostile_node_names() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("evil\"]; bad [\\", VecSource::with_period(vec![1i64], 1));
        let _ = q.collecting_sink("sink", src);
        let dot = dot::physical(&q.plan_facts());
        // The quote and backslash are escaped, so the label cannot terminate early.
        assert!(dot.contains("evil\\\"]; bad [\\\\"));
        assert!(!dot.contains("label=\"evil\"]"));
    }

    #[test]
    fn dot_export_renders_shard_counts_and_exchange_edges() {
        use crate::logical::LogicalPlan;
        use crate::operator::aggregate::WindowView;
        use crate::parallel::Parallelism;
        use crate::planner::PlannerConfig;
        let plan =
            LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(false));
        let _ = plan
            .source(
                "src",
                VecSource::with_period((0..8u32).map(|i| (i, 0i64)).collect(), 1_000),
            )
            .aggregate(
                "agg",
                WindowSpec::tumbling(crate::time::Duration::from_secs(4)).unwrap(),
                |t: &(u32, i64)| t.0,
                |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.len() as i64),
                |o: &(u32, i64)| o.0,
            )
            .with(Parallelism::shards(4))
            .collecting_sink("sink");
        let dot = dot::physical(&plan.lower().unwrap().plan_facts());
        assert!(dot.contains("agg.exchange\\n(partition \u{d7}4)"));
        assert!(dot.contains("agg[0]\\n(sharded-aggregate \u{d7}4)"));
        assert!(dot.contains("agg.merge\\n(shard-merge \u{d7}4)"));
        // Exchange edges out of the partition and into the merge are dashed.
        assert!(dot.contains("[style=dashed]"));
        // An ordinary edge (source -> partition) stays solid.
        assert!(dot.contains("n0 -> n1;\n"));
    }

    #[test]
    fn fusion_collapses_stateless_chain_into_one_thread() {
        let run = |fusion: bool| {
            let mut q =
                Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion));
            let src = q.source(
                "numbers",
                VecSource::with_period((0..10i64).collect(), 1_000),
            );
            let evens = q.filter("evens", src, |x| x % 2 == 0);
            let doubled = q.map_one("double", evens, |x| x * 2);
            let out = q.collecting_sink("sink", doubled);
            let report = q.deploy().unwrap().wait().unwrap();
            let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
            (report, values)
        };

        let (unfused_report, unfused_values) = run(false);
        let (fused_report, fused_values) = run(true);
        assert_eq!(fused_values, vec![0, 4, 8, 12, 16]);
        assert_eq!(
            fused_values, unfused_values,
            "fusion must not change results"
        );

        // Unfused: 4 threads/reports. Fused: source+filter+map+sink collapse into one.
        assert_eq!(unfused_report.operator_stats().len(), 4);
        assert_eq!(fused_report.operator_stats().len(), 1);
        let chain = fused_report
            .operator("numbers+evens+double+sink")
            .expect("chain report");
        assert_eq!(chain.kind, NodeKind::Fused);
        assert_eq!((chain.head, chain.tail), (NodeKind::Source, NodeKind::Sink));
        assert_eq!(
            chain.stats.tuples_in, 0,
            "chain input = head stage input, and a source has none"
        );
        assert_eq!(
            chain.stats.tuples_out, 0,
            "chain output = tail stage output, and a sink has none"
        );
        // The chain report still names the original operators, with their counters.
        assert_eq!(chain.stages.len(), 4);
        assert_eq!(fused_report.sink_tuples(), 5);
        assert_eq!(fused_report.fused_stage("numbers").unwrap().tuples_out, 10);
        assert_eq!(fused_report.source_tuples(), 10);
        let evens = fused_report.fused_stage("evens").expect("filter stage");
        assert_eq!(evens.tuples_in, 10);
        assert_eq!(evens.tuples_out, 5);
        let double = fused_report.fused_stage("double").expect("map stage");
        assert_eq!(double.tuples_in, 5);
        assert_eq!(double.tuples_out, 5);
        // Unfused reports carry no stage breakdown and count identically.
        let plain = unfused_report.operator("evens").unwrap();
        assert!(plain.stages.is_empty());
        assert_eq!(plain.stats.tuples_out, 5);
    }

    /// `source → filter → aggregate → filter → sink` chains through the aggregate's
    /// state: fused, it is one thread whose stages count exactly what the five
    /// unfused threads count, and it produces the same stream.
    #[test]
    fn fusion_chains_through_the_aggregate_into_the_sink() {
        let run = |fusion: bool| {
            let mut q =
                Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion));
            let items: Vec<(u32, i64)> = (0..40).map(|i| (i % 4, i as i64)).collect();
            let src = q.source("src", VecSource::with_period(items, 1_000));
            let kept = q.filter("keep", src, |r: &(u32, i64)| r.1 % 5 != 0);
            let sums = q.aggregate(
                "sum",
                kept,
                WindowSpec::tumbling(Duration::from_secs(10)).unwrap(),
                |r: &(u32, i64)| r.0,
                |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.payloads().map(|p| p.1).sum()),
            );
            let big = q.filter("big", sums, |r: &(u32, i64)| r.1 > 40);
            let out = q.collecting_sink("sink", big);
            let report = q.deploy().unwrap().wait().unwrap();
            let values: Vec<(u64, (u32, i64))> = out
                .tuples()
                .iter()
                .map(|t| (t.ts.as_secs(), t.data))
                .collect();
            (report, values)
        };
        let (unfused, unfused_values) = run(false);
        let (fused, fused_values) = run(true);
        assert!(!fused_values.is_empty());
        assert_eq!(fused_values, unfused_values);
        assert_eq!(unfused.operator_stats().len(), 5);
        assert_eq!(fused.operator_stats().len(), 1);
        let chain = fused.operator("src+keep+sum+big+sink").expect("one chain");
        assert_eq!((chain.head, chain.tail), (NodeKind::Source, NodeKind::Sink));
        for stage in &chain.stages {
            let alone = &unfused.operator(&stage.name).unwrap().stats;
            assert_eq!(
                (stage.tuples_in, stage.tuples_out),
                (alone.tuples_in, alone.tuples_out),
                "{}",
                stage.name
            );
        }
        assert_eq!(fused.sink_tuples(), fused_values.len() as u64);
        assert_eq!(fused.sink_tuples(), unfused.sink_tuples());
    }

    #[test]
    fn fusion_stops_at_multi_stream_boundaries() {
        // The multiplex seals the source's chain and its outputs are channels; the
        // union (fan-in) heads a chain of its own behind its input channels, which
        // the sink extends; the stages on each branch fuse among themselves only.
        let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(true));
        let src = q.source("numbers", VecSource::with_period((0..20i64).collect(), 500));
        let branches = q.multiplex("mux", src, 2);
        let mut it = branches.into_iter();
        let small = q.filter("small", it.next().unwrap(), |x| *x < 5);
        let small2 = q.map_one("small2", small, |x| x + 100);
        let large = q.filter("large", it.next().unwrap(), |x| *x >= 15);
        let merged = q.union("union", vec![small2, large]);
        let out = q.collecting_sink("sink", merged);
        let report = q.deploy().unwrap().wait().unwrap();
        let mut values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
        values.sort_unstable();
        assert_eq!(values, vec![15, 16, 17, 18, 19, 100, 101, 102, 103, 104]);
        // fused(source+mux), fused(small+small2), large, fused(union+sink) = 4
        // physical ops.
        assert_eq!(report.operator_stats().len(), 4);
        assert!(report.operator("numbers+mux").is_some());
        assert!(report.operator("union+sink").is_some());
        assert!(report.operator("small+small2").is_some());
        assert!(
            report.operator("large").is_some(),
            "single-stage chains report as the plain operator"
        );
        assert!(report.operator("large").unwrap().stages.is_empty());
    }

    #[test]
    fn dot_export_renders_fused_chain_as_single_box() {
        let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(true));
        let src = q.source("numbers", VecSource::with_period(vec![1i64], 1));
        let flt = q.filter("evens", src, |x| x % 2 == 0);
        let doubled = q.map_one("double", flt, |x| x * 2);
        let _ = q.collecting_sink("sink", doubled);
        let dot = dot::physical(&q.plan_facts());
        // One boxed node lists every stage name, the source first and the sink that
        // seals the chain last; the member nodes are not drawn.
        assert!(dot.contains(
            "n0 [shape=box label=\"numbers \u{2192} evens \u{2192} double \u{2192} sink\\n(fused)\""
        ));
        assert!(!dot.contains("(source)"));
        assert!(!dot.contains("(filter)"));
        assert!(!dot.contains("(map)"));
        assert!(!dot.contains("(sink)"));
        // The channel-free internal edges are not drawn.
        assert!(!dot.contains("n0 -> n3"));
        assert!(!dot.contains("n0 -> n1"));
        assert!(!dot.contains("n1 -> n2"));
    }

    #[test]
    fn sink_with_callback_reports_latency_stats() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("numbers", VecSource::with_period((0..5i64).collect(), 100));
        let stats = q.sink("sink", src, |_| {});
        q.deploy().unwrap().wait().unwrap();
        assert_eq!(stats.tuple_count(), 5);
        assert_eq!(stats.latencies_ns().len(), 5);
    }

    #[test]
    fn aggregate_and_join_compose_in_a_query() {
        // Count readings per meter per tumbling 1-hour window, then join with the
        // original readings at the same hour.
        let mut q = Query::new(NoProvenance);
        let readings: Vec<(u32, i64)> = (0..8).map(|i| (i % 2, i as i64)).collect();
        let src = q.source(
            "meters",
            VecSource::with_period(readings, 15 * 60 * 1_000), // every 15 minutes
        );
        let branches = q.multiplex("mux", src, 2);
        let mut it = branches.into_iter();
        let left = it.next().unwrap();
        let right = it.next().unwrap();
        let counts = q.aggregate(
            "hourly",
            left,
            WindowSpec::tumbling(Duration::from_hours(1)).unwrap(),
            |r: &(u32, i64)| r.0,
            |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.len() as i64),
        );
        let joined = q.join(
            "match",
            counts,
            right,
            Duration::from_hours(1),
            |c: &(u32, i64)| c.0,
            |r: &(u32, i64)| r.0,
            |_: &(u32, i64), _: &(u32, i64)| true,
            |c: &(u32, i64), r: &(u32, i64)| (c.0, c.1, r.1),
        );
        let out = q.collecting_sink("sink", joined);
        q.deploy().unwrap().wait().unwrap();
        assert!(!out.is_empty());
        // Every joined tuple pairs a count with a reading of the same meter.
        for t in out.tuples() {
            assert!(t.data.0 == 0 || t.data.0 == 1);
        }
    }
}
