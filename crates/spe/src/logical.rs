//! The declarative logical-plan API.
//!
//! A [`LogicalPlan`] records *what* a continuous query computes — sources, stateless
//! transforms, windowed aggregates and joins, sinks — without committing to *how* it
//! executes. Execution decisions (how many shard instances a stateful operator runs,
//! where each shard is placed, which stateless chains fuse into one thread, how
//! channel budgets are split) belong to the planner ([`crate::planner`]), which
//! lowers the logical graph to the physical [`Query`] at [`LogicalPlan::lower`]
//! time.
//!
//! Users therefore write each operator **exactly once** and attach optimizer hints
//! as annotations, instead of picking between single-instance, sharded and
//! explicitly placed variants of each operator:
//!
//! ```rust
//! use genealog_spe::logical::LogicalPlan;
//! use genealog_spe::parallel::Parallelism;
//! use genealog_spe::prelude::*;
//!
//! # fn main() -> Result<(), SpeError> {
//! let plan = LogicalPlan::new(NoProvenance);
//! let out = plan
//!     .source("meters", VecSource::with_period(
//!         (0..100u32).map(|i| (i % 8, i as i64)).collect(), 1_000))
//!     .filter("live", |r: &(u32, i64)| r.1 >= 0)
//!     .aggregate(
//!         "count",
//!         WindowSpec::tumbling(Duration::from_secs(60))?,
//!         |r: &(u32, i64)| r.0,
//!         |w: &WindowView<'_, u32, (u32, i64), ()>| (*w.key, w.len() as i64),
//!         |o: &(u32, i64)| o.0,
//!     )
//!     .with(Parallelism::shards(4)) // hint: the planner shards this aggregate
//!     .collecting_sink("sink");
//! plan.deploy()?.wait()?;
//! assert!(!out.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! # Annotations
//!
//! * [`LogicalStream::with`] — requested shard count of the producing stateful
//!   operator ([`Parallelism::shards(n)`](Parallelism::shards)); without it the
//!   operator runs as the plain single-instance operator.
//! * [`LogicalStream::place`] — explicit per-shard placements of an aggregate
//!   ([`ShardPlacement::Local`] or [`ShardPlacement::Remote`]); remote routes come
//!   from the `genealog-distributed` shard-group builder. Join shards always run
//!   in-process.
//! * [`LogicalStream::keyed`] — re-establishes the canonical merge key after a
//!   payload-type-changing map, letting the map stay *inside* an open shard region.
//!
//! # Escape hatches
//!
//! Extension crates (provenance unfolders, Send/Receive endpoints) operate on the
//! physical layer. [`LogicalPlan::extend_source`], [`LogicalStream::raw`],
//! [`LogicalStream::raw_with`] and [`LogicalStream::raw_sink`] splice
//! physical-layer builders into a logical plan; the callback runs at lowering time
//! with the planner-built [`Query`] and the lowered input stream(s).

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use genealog_analysis::{Diagnostics, LogicalFacts, LogicalNodeFacts, PlanFacts};

use crate::error::SpeError;
use crate::operator::aggregate::WindowView;
use crate::operator::sink::{CollectedStream, SinkStats};
use crate::operator::source::{SourceConfig, SourceGenerator};
use crate::parallel::{KeyComparator, Parallelism};
use crate::planner::{merge_cmp, AnalysisMode, Lowered, PlannerConfig};
use crate::provenance::ProvenanceSystem;
use crate::query::{Query, ShardPlacement, StreamRef};
use crate::runtime::QueryHandle;
use crate::time::Duration;
use crate::tuple::{GTuple, TupleData};
use crate::window::WindowSpec;

/// Identifier of a node in the logical graph.
pub type LogicalNodeId = usize;

/// A node of the logical graph (what [`LogicalPlan::facts`] reports; the lowering
/// state lives in the typed stream thunks).
struct LogicalNode {
    name: String,
    /// Human-readable operator kind ("source", "filter", "aggregate", ...).
    label: &'static str,
    /// Number of output streams this node produces (0 for sinks).
    outputs: usize,
    /// Number of output streams already consumed by downstream operators.
    consumed: usize,
    /// Requested shard count ([`LogicalStream::with`]).
    parallelism: Option<Parallelism>,
    /// Explicit shard placements ([`LogicalStream::place`]), type-erased; the
    /// lowering closure downcasts them back to `Vec<ShardPlacement<P, I, O>>`.
    placements: Option<Box<dyn Any>>,
    /// `(total, remote)` placement counts, readable without downcasting the
    /// placements (see [`LogicalPlan::facts`]).
    placement_summary: Option<(usize, usize)>,
    /// Merge-key comparator re-established after a map
    /// ([`LogicalStream::keyed`]), type-erased `KeyComparator<T>`.
    merge_key: Option<Box<dyn Any>>,
}

/// A terminal lowering thunk; running it pulls its upstream slice of the graph
/// through the planner.
type SinkThunk<P> = Box<dyn FnOnce(&mut Query<P>)>;

/// Shared mutable state of a plan under construction.
struct PlanState<P: ProvenanceSystem> {
    provenance: P,
    config: PlannerConfig,
    nodes: Vec<LogicalNode>,
    edges: Vec<(LogicalNodeId, LogicalNodeId)>,
    /// Lowering thunks of the plan's terminal operators.
    sinks: Vec<SinkThunk<P>>,
}

type Shared<P> = Rc<RefCell<PlanState<P>>>;

/// The typed thunk lowering everything upstream of one logical stream.
type BuildThunk<P, T> = Box<dyn FnOnce(&mut Query<P>) -> Lowered<P, T>>;

/// A declarative query plan under construction (see the [module docs](self)).
pub struct LogicalPlan<P: ProvenanceSystem> {
    shared: Shared<P>,
}

/// A typed, move-only handle to a logical stream.
///
/// Like the physical [`StreamRef`], a `LogicalStream` is consumed by passing it to
/// exactly one downstream operator; fan-out is an explicit
/// [`multiplex`](LogicalStream::multiplex). Annotation methods
/// ([`with`](LogicalStream::with), [`place`](LogicalStream::place),
/// [`keyed`](LogicalStream::keyed)) return the stream unchanged apart from the
/// recorded hint.
pub struct LogicalStream<P: ProvenanceSystem, T: TupleData> {
    shared: Shared<P>,
    node: LogicalNodeId,
    build: BuildThunk<P, T>,
}

fn add_node<P: ProvenanceSystem>(
    shared: &Shared<P>,
    name: &str,
    label: &'static str,
    outputs: usize,
) -> LogicalNodeId {
    let mut state = shared.borrow_mut();
    let id = state.nodes.len();
    state.nodes.push(LogicalNode {
        name: name.to_string(),
        label,
        outputs,
        consumed: 0,
        parallelism: None,
        placements: None,
        placement_summary: None,
        merge_key: None,
    });
    id
}

fn connect<P: ProvenanceSystem>(shared: &Shared<P>, from: LogicalNodeId, to: LogicalNodeId) {
    let mut state = shared.borrow_mut();
    state.nodes[from].consumed += 1;
    state.edges.push((from, to));
}

impl<P: ProvenanceSystem> LogicalPlan<P> {
    /// Creates an empty plan with the default [`PlannerConfig`] (fusion on).
    pub fn new(provenance: P) -> Self {
        Self::with_config(provenance, PlannerConfig::default())
    }

    /// Creates an empty plan with an explicit planner configuration.
    pub fn with_config(provenance: P, config: PlannerConfig) -> Self {
        LogicalPlan {
            shared: Rc::new(RefCell::new(PlanState {
                provenance,
                config,
                nodes: Vec::new(),
                edges: Vec::new(),
                sinks: Vec::new(),
            })),
        }
    }

    /// The planner configuration the plan will be lowered with.
    pub fn config(&self) -> PlannerConfig {
        self.shared.borrow().config.clone()
    }

    /// Adds a Source backed by `generator` with the default source configuration.
    pub fn source<G: SourceGenerator>(
        &self,
        name: &str,
        generator: G,
    ) -> LogicalStream<P, G::Item> {
        self.source_with(name, generator, SourceConfig::default())
    }

    /// Adds a Source backed by `generator` with an explicit configuration.
    pub fn source_with<G: SourceGenerator>(
        &self,
        name: &str,
        generator: G,
        config: SourceConfig,
    ) -> LogicalStream<P, G::Item> {
        let owned = name.to_string();
        self.extend_source(name, "source", move |q| {
            q.source_with(&owned, generator, config)
        })
    }

    /// Escape hatch: a root logical stream produced by a physical-layer builder
    /// (e.g. a Receive endpoint materialising a stream arriving from another SPE
    /// instance). The callback runs once, at lowering time.
    pub fn extend_source<T, F>(&self, name: &str, label: &'static str, f: F) -> LogicalStream<P, T>
    where
        T: TupleData,
        F: FnOnce(&mut Query<P>) -> StreamRef<T, P::Meta> + 'static,
    {
        let node = add_node(&self.shared, name, label, 1);
        LogicalStream {
            shared: Rc::clone(&self.shared),
            node,
            build: Box::new(move |q| Lowered::Stream(f(q))),
        }
    }

    /// Snapshots the declared graph into the plain-data [`LogicalFacts`]: one
    /// node per declared operator with its annotations as written, and the
    /// streams between them. Drawn by [`genealog_analysis::dot::logical`];
    /// compare with [`genealog_analysis::dot::physical`] over the lowered plan's
    /// [`Query::plan_facts`] to see what the planner inserted (exchanges,
    /// fan-ins, fused chains, Send/Receive endpoints).
    pub fn facts(&self) -> LogicalFacts {
        let state = self.shared.borrow();
        LogicalFacts {
            nodes: state
                .nodes
                .iter()
                .map(|n| LogicalNodeFacts {
                    name: n.name.clone(),
                    label: n.label.to_string(),
                    requested_shards: n.parallelism.map(Parallelism::count),
                    placement_total: n.placement_summary.map(|(total, _)| total),
                    placement_remote: n.placement_summary.map_or(0, |(_, remote)| remote),
                    keyed: n.merge_key.is_some(),
                })
                .collect(),
            edges: state.edges.clone(),
        }
    }

    /// Runs the planner: validates the logical graph and lowers it to a physical
    /// [`Query`] (sharding, placement, fusion and channel budgets decided here).
    ///
    /// Unless [`PlannerConfig::analysis`] is [`AnalysisMode::Off`], the deploy-time
    /// analyzer (`genealog-analysis`) runs over the lowered plan: every finding is
    /// emitted on the global tracer (kind `"plan-analysis"`), and under
    /// [`AnalysisMode::Deny`] error-severity findings reject the plan. Use
    /// [`LogicalPlan::analyze`] to inspect the report programmatically.
    ///
    /// # Errors
    /// Returns [`SpeError::InvalidQuery`] if the plan has no sinks or a logical
    /// stream was never consumed, and [`SpeError::PlanRejected`] when the analyzer
    /// denies the plan.
    pub fn lower(self) -> Result<Query<P>, SpeError> {
        let mode = self.shared.borrow().config.analysis;
        if mode == AnalysisMode::Off {
            return Ok(self.lower_inner()?.0);
        }
        let analyzed = self.analyze()?;
        for d in &analyzed.report {
            genealog_metrics::Tracer::global().emit_once(
                "plan-analysis",
                format!("{}:{}", d.code, d.path.join("->")),
                d.render(),
            );
        }
        if mode == AnalysisMode::Deny && analyzed.report.has_errors() {
            return Err(SpeError::PlanRejected {
                report: analyzed.report.render(),
            });
        }
        Ok(analyzed.query)
    }

    /// Lowers the plan and runs the deploy-time analyzer, returning the query
    /// together with the [`PlanFacts`] snapshot and the [`Diagnostics`] report.
    ///
    /// `analyze` never rejects: even under [`AnalysisMode::Deny`] the caller gets
    /// the lowered query and decides what to do with the findings (the `spe-lint`
    /// binary and the control plane's `/analyze` endpoint are built on this).
    ///
    /// # Errors
    /// Returns [`SpeError::InvalidQuery`] if the plan fails structural validation.
    pub fn analyze(self) -> Result<Analyzed<P>, SpeError> {
        let (query, logical) = self.lower_inner()?;
        let mut facts = query.plan_facts();
        facts.logical = Some(logical);
        let report = genealog_analysis::analyze(&facts);
        Ok(Analyzed {
            query,
            facts,
            report,
        })
    }

    /// The planner pass proper: validation + lowering, no analysis. Also snapshots
    /// the pre-lowering [`LogicalFacts`] — the thunks *take* annotations as they
    /// consume them, so the snapshot must happen before any sink thunk runs.
    fn lower_inner(self) -> Result<(Query<P>, LogicalFacts), SpeError> {
        {
            let state = self.shared.borrow();
            if state.sinks.is_empty() {
                return Err(SpeError::InvalidQuery("logical plan has no sinks".into()));
            }
            for node in &state.nodes {
                if node.consumed < node.outputs {
                    return Err(SpeError::InvalidQuery(format!(
                        "logical stream of `{}` is never consumed (attach a sink or discard it)",
                        node.name
                    )));
                }
            }
        }
        let (provenance, config, sinks) = {
            let mut state = self.shared.borrow_mut();
            (
                state.provenance.clone(),
                state.config.clone(),
                std::mem::take(&mut state.sinks),
            )
        };
        let logical = self.facts();
        let mut q = Query::with_config(provenance, config.query_config());
        if let Some(checkpoints) = config.checkpoints {
            q.set_checkpoints(checkpoints);
        }
        for sink in sinks {
            sink(&mut q);
        }
        // Every annotation is *taken* by the lowering rule that honours it
        // (`.with` by aggregate and join, `.place` by aggregate, `.keyed` by a map).
        // Whatever is still attached sat on a node no rule consults — reject it
        // instead of silently dropping the user's hint.
        {
            let state = self.shared.borrow();
            for node in &state.nodes {
                let stray = if node.placements.is_some() {
                    Some("place")
                } else if node.parallelism.is_some() {
                    Some("with")
                } else if node.merge_key.is_some() {
                    Some("keyed")
                } else {
                    None
                };
                if let Some(annotation) = stray {
                    return Err(SpeError::InvalidQuery(format!(
                        "`.{annotation}(..)` annotation on `{}` ({}) has no effect there: \
                         `.with` applies to the stream returned by an aggregate or join, \
                         `.place` to an aggregate's, `.keyed` to the map it should keep \
                         inside a shard region",
                        node.name, node.label
                    )));
                }
            }
        }
        Ok((q, logical))
    }

    /// Lowers the plan and deploys the physical query in one call.
    ///
    /// # Errors
    /// Propagates [`LogicalPlan::lower`] and [`Query::deploy`] errors.
    pub fn deploy(self) -> Result<QueryHandle, SpeError> {
        self.lower()?.deploy()
    }
}

impl<P: ProvenanceSystem> std::fmt::Debug for LogicalPlan<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.borrow();
        f.debug_struct("LogicalPlan")
            .field("provenance", &state.provenance.label())
            .field("nodes", &state.nodes.len())
            .field("edges", &state.edges.len())
            .field("sinks", &state.sinks.len())
            .finish()
    }
}

/// The result of [`LogicalPlan::analyze`]: the lowered query together with the
/// analyzer's input snapshot and its report.
pub struct Analyzed<P: ProvenanceSystem> {
    /// The lowered physical query, ready to deploy.
    pub query: Query<P>,
    /// The plain-data snapshot the analyzer ran over (physical graph plus the
    /// pre-lowering logical annotations).
    pub facts: PlanFacts,
    /// The analyzer's findings, errors first.
    pub report: Diagnostics,
}

impl<P: ProvenanceSystem> std::fmt::Debug for Analyzed<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzed")
            .field("errors", &self.report.error_count())
            .field("warnings", &self.report.warning_count())
            .finish()
    }
}

/// The lowered branch streams of a fan-out, each taken exactly once.
type BranchStreams<T, M> = Vec<Option<StreamRef<T, M>>>;

/// Memoised lowering state of a multi-output operator (Multiplex): the first
/// consumed branch lowers the operator; every branch then takes its own stream.
struct FanOutMemo<P: ProvenanceSystem, T: TupleData> {
    build: Option<BuildThunk<P, T>>,
    streams: Option<BranchStreams<T, P::Meta>>,
}

impl<P: ProvenanceSystem, T: TupleData> LogicalStream<P, T> {
    /// The logical node that produces this stream.
    pub fn node(&self) -> LogicalNodeId {
        self.node
    }

    /// The name of the producing logical node.
    pub fn name(&self) -> String {
        self.shared.borrow().nodes[self.node].name.clone()
    }

    // ------------------------------------------------------------------
    // Annotations
    // ------------------------------------------------------------------

    /// Annotates the producing operator with a requested shard count. Only stateful
    /// operators (aggregate, join) shard; attaching the hint to any other operator
    /// is rejected at [`LogicalPlan::lower`] time.
    pub fn with(self, parallelism: Parallelism) -> Self {
        self.shared.borrow_mut().nodes[self.node].parallelism = Some(parallelism);
        self
    }

    /// Annotates the producing aggregate with an explicit placement per shard (`I`
    /// is the aggregate's *input* payload type). Overrides [`LogicalStream::with`].
    /// Attached to any other operator — a join included, whose shards always run
    /// in-process — the annotation is rejected at [`LogicalPlan::lower`] time.
    ///
    /// # Panics
    /// Panics if `placements` is empty. Lowering panics if `I` does not match the
    /// aggregate's input type.
    pub fn place<I: TupleData>(self, placements: Vec<ShardPlacement<P, I, T>>) -> Self {
        assert!(!placements.is_empty(), "placements must not be empty");
        let summary = (
            placements.len(),
            placements.iter().filter(|p| p.is_remote()).count(),
        );
        {
            let mut state = self.shared.borrow_mut();
            let node = &mut state.nodes[self.node];
            node.placements = Some(Box::new(placements));
            node.placement_summary = Some(summary);
        }
        self
    }

    /// Re-establishes the canonical merge key on this stream's payload type.
    ///
    /// Inside an open shard region the planner keeps stateless operators on the
    /// per-shard streams. A filter preserves the payload type — and with it the
    /// region's merge key — but a map does not; `keyed` tells the planner how
    /// equal-timestamp runs of the *mapped* payloads are ordered at the fan-in, so
    /// the map can stay inside the region instead of forcing an early merge. The
    /// key must identify the same groups as the sharded operator's output key
    /// (i.e. the map must be key-preserving).
    ///
    /// Attach it to the stream **returned by the map** it should keep in the
    /// region; anywhere else the annotation is rejected at
    /// [`LogicalPlan::lower`] time. (On a map outside any shard region —
    /// because the planner decided not to shard — the key is simply unused:
    /// the hint is contingent on sharding, not a requirement for it.)
    pub fn keyed<K, KF>(self, key: KF) -> Self
    where
        K: Ord,
        KF: FnMut(&T) -> K + Send + 'static,
    {
        let cmp: KeyComparator<T> = merge_cmp(key);
        self.shared.borrow_mut().nodes[self.node].merge_key = Some(Box::new(cmp));
        self
    }

    // ------------------------------------------------------------------
    // Stateless operators
    // ------------------------------------------------------------------

    /// Adds a Filter forwarding the tuples that satisfy `predicate`.
    ///
    /// Inside an open shard region the filter runs as one instance per shard (the
    /// payload type — and the merge key — are preserved, so the region stays open).
    pub fn filter<F>(self, name: &str, predicate: F) -> LogicalStream<P, T>
    where
        F: FnMut(&T) -> bool + Clone + Send + 'static,
    {
        let node = add_node(&self.shared, name, "filter", 1);
        connect(&self.shared, self.node, node);
        let prev = self.build;
        let owned = name.to_string();
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| match prev(q) {
                Lowered::Stream(stream) => Lowered::Stream(q.filter(&owned, stream, predicate)),
                Lowered::Shards {
                    group,
                    streams,
                    cmp,
                } => Lowered::Shards {
                    group,
                    streams: q.filter_shard_streams(&owned, streams, predicate),
                    cmp,
                },
            }),
        }
    }

    /// Adds a Map producing zero or more output payloads per input payload.
    ///
    /// Inside an open shard region the map stays per-shard when the stream carries
    /// a [`keyed`](LogicalStream::keyed) annotation; otherwise the planner seals
    /// the region (inserts the canonical fan-in) first.
    pub fn map<O, R, F>(self, name: &str, function: F) -> LogicalStream<P, O>
    where
        O: TupleData,
        R: IntoIterator<Item = O>,
        F: FnMut(&T) -> R + Clone + Send + 'static,
    {
        let node = add_node(&self.shared, name, "map", 1);
        connect(&self.shared, self.node, node);
        let prev = self.build;
        let owned = name.to_string();
        let shared = Rc::clone(&self.shared);
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| {
                let keyed: Option<KeyComparator<O>> =
                    shared.borrow_mut().nodes[node].merge_key.take().map(|any| {
                        *any.downcast::<KeyComparator<O>>().unwrap_or_else(|_| {
                            panic!("merge-key annotation on `{owned}` has the wrong payload type")
                        })
                    });
                match (prev(q), keyed) {
                    (Lowered::Shards { group, streams, .. }, Some(cmp)) => Lowered::Shards {
                        group,
                        streams: q.map_shard_streams(&owned, streams, function),
                        cmp,
                    },
                    (lowered, _) => {
                        let stream = lowered.seal(q);
                        Lowered::Stream(q.map(&owned, stream, function))
                    }
                }
            }),
        }
    }

    /// Adds a Map producing exactly one output payload per input payload (see
    /// [`LogicalStream::map`]).
    pub fn map_one<O, F>(self, name: &str, mut function: F) -> LogicalStream<P, O>
    where
        O: TupleData,
        F: FnMut(&T) -> O + Clone + Send + 'static,
    {
        self.map(name, move |data| std::iter::once(function(data)))
    }

    // ------------------------------------------------------------------
    // Stateful operators
    // ------------------------------------------------------------------

    /// Adds an Aggregate over a sliding time window with a group-by key.
    ///
    /// `out_key` re-extracts the group key from an output payload; the planner uses
    /// it to order the canonical fan-in when the operator shards (via
    /// [`with`](LogicalStream::with) or [`place`](LogicalStream::place)).
    /// Unannotated aggregates lower to the plain single-instance operator.
    pub fn aggregate<O, K, KF, AF, OK>(
        self,
        name: &str,
        spec: WindowSpec,
        key_fn: KF,
        agg_fn: AF,
        out_key: OK,
    ) -> LogicalStream<P, O>
    where
        O: TupleData,
        K: Ord + std::hash::Hash + Clone + Send + Sync + 'static,
        KF: FnMut(&T) -> K + Clone + Send + 'static,
        AF: FnMut(&WindowView<'_, K, T, P::Meta>) -> O + Clone + Send + 'static,
        OK: FnMut(&O) -> K + Send + 'static,
    {
        let node = add_node(&self.shared, name, "aggregate", 1);
        connect(&self.shared, self.node, node);
        let prev = self.build;
        let owned = name.to_string();
        let shared = Rc::clone(&self.shared);
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| {
                let input = prev(q).seal(q);
                let (placements, shards) = {
                    let mut state = shared.borrow_mut();
                    let node_state = &mut state.nodes[node];
                    // Annotations are taken, not read: whatever is still attached to
                    // a node after lowering was placed where no rule consumes it,
                    // and `lower()` rejects it.
                    let shards = node_state.parallelism.take().map_or(1, Parallelism::count);
                    (node_state.placements.take(), shards)
                };
                let placements: Vec<ShardPlacement<P, T, O>> = match placements {
                    Some(any) => *any
                        .downcast::<Vec<ShardPlacement<P, T, O>>>()
                        .unwrap_or_else(|_| {
                            panic!(
                                "placement annotation on `{owned}` has the wrong input/output types"
                            )
                        }),
                    None if shards == 1 => {
                        // Planner decision: one local instance needs no exchange.
                        return Lowered::Stream(q.aggregate(&owned, input, spec, key_fn, agg_fn));
                    }
                    None => ShardPlacement::all_local(shards),
                };
                let streams =
                    q.shard_aggregate_streams(&owned, input, spec, key_fn, agg_fn, placements);
                Lowered::Shards {
                    group: owned.clone(),
                    streams,
                    cmp: merge_cmp(out_key),
                }
            }),
        }
    }

    /// Adds a windowed equi-key Join with `right`.
    ///
    /// `left_key`/`right_key` are the join keys: every lowering indexes the Join's
    /// windows by them (a probe visits only the same-key tuples of the other side),
    /// and when the planner shards the join they also partition the inputs, so
    /// matching pairs always meet inside one shard. `predicate` further filters
    /// candidate pairs *within* a key; `out_key` orders the canonical fan-in.
    /// Unannotated joins lower to the plain single-instance operator. Key
    /// extractors must be pure.
    ///
    /// # Panics
    /// Panics if `right` belongs to a different [`LogicalPlan`].
    #[allow(clippy::too_many_arguments)] // one declaration site for every lowering
    pub fn join<R, O, K, LK, RK, OK, PR, CF>(
        self,
        name: &str,
        right: LogicalStream<P, R>,
        window: Duration,
        left_key: LK,
        right_key: RK,
        out_key: OK,
        predicate: PR,
        combine: CF,
    ) -> LogicalStream<P, O>
    where
        R: TupleData,
        O: TupleData,
        K: Ord + std::hash::Hash + Clone + Send + 'static,
        LK: FnMut(&T) -> K + Clone + Send + 'static,
        RK: FnMut(&R) -> K + Clone + Send + 'static,
        OK: FnMut(&O) -> K + Send + 'static,
        PR: FnMut(&T, &R) -> bool + Clone + Send + 'static,
        CF: FnMut(&T, &R) -> O + Clone + Send + 'static,
    {
        assert!(
            Rc::ptr_eq(&self.shared, &right.shared),
            "joined streams must belong to the same logical plan"
        );
        let node = add_node(&self.shared, name, "join", 1);
        connect(&self.shared, self.node, node);
        connect(&self.shared, right.node, node);
        let left_build = self.build;
        let right_build = right.build;
        let owned = name.to_string();
        let shared = Rc::clone(&self.shared);
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| {
                let left = left_build(q).seal(q);
                let right = right_build(q).seal(q);
                // Annotations are taken, not read: whatever is still attached to a
                // node after lowering was placed where no rule consumes it, and
                // `lower()` rejects it.
                let instances = shared.borrow_mut().nodes[node]
                    .parallelism
                    .take()
                    .map_or(1, Parallelism::count);
                if instances == 1 {
                    return Lowered::Stream(q.join(
                        &owned, left, right, window, left_key, right_key, predicate, combine,
                    ));
                }
                let streams = q.shard_join_streams(
                    &owned, left, right, window, left_key, right_key, predicate, combine, instances,
                );
                Lowered::Shards {
                    group: owned.clone(),
                    streams,
                    cmp: merge_cmp(out_key),
                }
            }),
        }
    }

    // ------------------------------------------------------------------
    // Fan-out / fan-in
    // ------------------------------------------------------------------

    /// Adds a Multiplex copying every tuple of this stream to `outputs` branches.
    ///
    /// # Panics
    /// Panics if `outputs` is zero.
    pub fn multiplex(self, name: &str, outputs: usize) -> Vec<LogicalStream<P, T>> {
        assert!(outputs > 0, "Multiplex requires at least one output");
        let node = add_node(&self.shared, name, "multiplex", outputs);
        connect(&self.shared, self.node, node);
        let memo = Rc::new(RefCell::new(FanOutMemo {
            build: Some(self.build),
            streams: None,
        }));
        let owned = name.to_string();
        (0..outputs)
            .map(|i| {
                let memo = Rc::clone(&memo);
                let owned = owned.clone();
                LogicalStream {
                    shared: Rc::clone(&self.shared),
                    node,
                    build: Box::new(move |q| {
                        let mut memo = memo.borrow_mut();
                        if memo.streams.is_none() {
                            let build = memo.build.take().expect("multiplex lowered once");
                            let input = build(q).seal(q);
                            memo.streams = Some(
                                q.multiplex(&owned, input, outputs)
                                    .into_iter()
                                    .map(Some)
                                    .collect(),
                            );
                        }
                        let stream = memo.streams.as_mut().expect("lowered above")[i]
                            .take()
                            .expect("each multiplex branch is consumed exactly once");
                        Lowered::Stream(stream)
                    }),
                }
            })
            .collect()
    }

    /// Adds a Union deterministically merging `inputs` into one stream.
    ///
    /// # Panics
    /// Panics if `inputs` is empty or the streams belong to different plans.
    pub fn union(name: &str, inputs: Vec<LogicalStream<P, T>>) -> LogicalStream<P, T> {
        assert!(!inputs.is_empty(), "Union requires at least one input");
        let shared = Rc::clone(&inputs[0].shared);
        assert!(
            inputs.iter().all(|s| Rc::ptr_eq(&s.shared, &shared)),
            "unioned streams must belong to the same logical plan"
        );
        let node = add_node(&shared, name, "union", 1);
        let mut builds = Vec::with_capacity(inputs.len());
        for input in inputs {
            connect(&shared, input.node, node);
            builds.push(input.build);
        }
        let owned = name.to_string();
        LogicalStream {
            shared,
            node,
            build: Box::new(move |q| {
                let streams: Vec<StreamRef<T, P::Meta>> =
                    builds.into_iter().map(|b| b(q).seal(q)).collect();
                Lowered::Stream(q.union(&owned, streams))
            }),
        }
    }

    // ------------------------------------------------------------------
    // Terminals
    // ------------------------------------------------------------------

    /// Adds a Sink invoking `callback` for every sink tuple; returns its statistics
    /// handle (populated once the lowered query runs).
    pub fn sink<F>(self, name: &str, callback: F) -> Arc<SinkStats>
    where
        F: FnMut(&Arc<GTuple<T, P::Meta>>) + Send + 'static,
    {
        let stats = SinkStats::new();
        let handle = Arc::clone(&stats);
        let owned = name.to_string();
        self.terminal(name, "sink", move |q, stream| {
            q.sink_into(&owned, stream, callback, handle)
        });
        stats
    }

    /// Adds a Sink collecting every sink tuple in memory; the returned handle is
    /// populated once the lowered query runs.
    pub fn collecting_sink(self, name: &str) -> CollectedStream<T, P::Meta> {
        let collected = CollectedStream::new();
        let copy = collected.clone();
        let owned = name.to_string();
        self.terminal(name, "sink", move |q, stream| {
            q.collecting_sink_into(&owned, stream, &copy)
        });
        collected
    }

    /// Explicitly discards this stream: the lowered stream's elements are dropped
    /// without a consumer.
    pub fn discard(self) {
        let name = format!("{}.discard", self.name());
        self.terminal(&name, "discard", |q, stream| q.discard(stream));
    }

    // ------------------------------------------------------------------
    // Escape hatches to the physical layer
    // ------------------------------------------------------------------

    /// Escape hatch: transforms this stream with a physical-layer builder. The
    /// callback runs at lowering time with the planner-built [`Query`] and the
    /// sealed input stream, and may add any number of physical operators.
    pub fn raw<O, F>(self, name: &str, f: F) -> LogicalStream<P, O>
    where
        O: TupleData,
        F: FnOnce(&mut Query<P>, StreamRef<T, P::Meta>) -> StreamRef<O, P::Meta> + 'static,
    {
        let node = add_node(&self.shared, name, "physical", 1);
        connect(&self.shared, self.node, node);
        let prev = self.build;
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| {
                let stream = prev(q).seal(q);
                Lowered::Stream(f(q, stream))
            }),
        }
    }

    /// Escape hatch combining this stream with a second one (e.g. a multi-stream
    /// provenance unfolder).
    ///
    /// # Panics
    /// Panics if `other` belongs to a different [`LogicalPlan`].
    pub fn raw_with<U, O, F>(
        self,
        other: LogicalStream<P, U>,
        name: &str,
        f: F,
    ) -> LogicalStream<P, O>
    where
        U: TupleData,
        O: TupleData,
        F: FnOnce(
                &mut Query<P>,
                StreamRef<T, P::Meta>,
                StreamRef<U, P::Meta>,
            ) -> StreamRef<O, P::Meta>
            + 'static,
    {
        assert!(
            Rc::ptr_eq(&self.shared, &other.shared),
            "combined streams must belong to the same logical plan"
        );
        let node = add_node(&self.shared, name, "physical", 1);
        connect(&self.shared, self.node, node);
        connect(&self.shared, other.node, node);
        let left = self.build;
        let right = other.build;
        LogicalStream {
            shared: self.shared,
            node,
            build: Box::new(move |q| {
                let left = left(q).seal(q);
                let right = right(q).seal(q);
                Lowered::Stream(f(q, left, right))
            }),
        }
    }

    /// Escape hatch: terminates this stream with a physical-layer builder (e.g. a
    /// Send endpoint shipping the stream to another SPE instance).
    pub fn raw_sink<F>(self, name: &str, f: F)
    where
        F: FnOnce(&mut Query<P>, StreamRef<T, P::Meta>) + 'static,
    {
        self.terminal(name, "physical", f);
    }

    /// Registers a terminal lowering thunk: records the terminal node in the
    /// logical graph, then seals the stream and hands it to `f` at lowering time.
    fn terminal<F>(self, name: &str, label: &'static str, f: F)
    where
        F: FnOnce(&mut Query<P>, StreamRef<T, P::Meta>) + 'static,
    {
        let node = add_node(&self.shared, name, label, 0);
        connect(&self.shared, self.node, node);
        let build = self.build;
        self.shared.borrow_mut().sinks.push(Box::new(move |q| {
            let stream = build(q).seal(q);
            f(q, stream);
        }));
    }
}

impl<P: ProvenanceSystem, T: TupleData> std::fmt::Debug for LogicalStream<P, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogicalStream")
            .field("node", &self.node)
            .field("name", &self.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::source::VecSource;
    use crate::provenance::NoProvenance;
    use crate::query::{NodeKind, QueryConfig};

    type Reading = (u32, i64);

    fn readings(n: u32) -> Vec<Reading> {
        (0..n).map(|i| (i % 4, i as i64)).collect()
    }

    fn spec() -> WindowSpec {
        WindowSpec::tumbling(Duration::from_secs(8)).unwrap()
    }

    fn count_window(w: &WindowView<'_, u32, Reading, ()>) -> Reading {
        (*w.key, w.len() as i64)
    }

    #[test]
    fn linear_plan_lowers_and_runs() {
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source(
                "numbers",
                VecSource::with_period((0..10i64).collect(), 1_000),
            )
            .filter("evens", |x: &i64| x % 2 == 0)
            .map_one("double", |x: &i64| x * 2)
            .collecting_sink("sink");
        let report = plan.deploy().unwrap().wait().unwrap();
        let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
        assert_eq!(values, vec![0, 4, 8, 12, 16]);
        // Fusion is on by default: the source, the filter+map behind it and the sink
        // that seals them collapse into one physical operator whose report still
        // names the original stages.
        let chain = report
            .operator("numbers+evens+double+sink")
            .expect("fused chain");
        assert_eq!(chain.kind, NodeKind::Fused);
        assert_eq!(report.fused_stage("evens").unwrap().tuples_out, 5);
        assert_eq!(report.fused_stage("double").unwrap().tuples_in, 5);
    }

    #[test]
    fn fusion_off_keeps_thread_per_operator() {
        let plan =
            LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(false));
        let out = plan
            .source(
                "numbers",
                VecSource::with_period((0..10i64).collect(), 1_000),
            )
            .filter("evens", |x: &i64| x % 2 == 0)
            .map_one("double", |x: &i64| x * 2)
            .collecting_sink("sink");
        let report = plan.deploy().unwrap().wait().unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(report.operator_stats().len(), 4);
        assert!(report.operator("evens").is_some());
        assert!(report.operator("evens+double").is_none());
    }

    #[test]
    fn unannotated_aggregate_lowers_to_plain_operator() {
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("src", VecSource::with_period(readings(32), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .collecting_sink("sink");
        let q = plan.lower().unwrap();
        // No exchange, no fan-in: the planner elided the sharding machinery.
        let facts = q.plan_facts();
        let has = |kind: NodeKind| facts.nodes.iter().any(|n| n.kind == kind.label());
        assert!(has(NodeKind::Aggregate));
        assert!(!has(NodeKind::Partition));
        assert!(!has(NodeKind::ShardMerge));
        q.deploy().unwrap().wait().unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn parallelism_annotation_lowers_to_shard_group() {
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("src", VecSource::with_period(readings(32), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(4))
            .collecting_sink("sink");
        let q = plan.lower().unwrap();
        let facts = q.plan_facts();
        let has = |kind: NodeKind| facts.nodes.iter().any(|n| n.kind == kind.label());
        assert!(has(NodeKind::Partition));
        assert!(has(NodeKind::ShardMerge));
        let report = q.deploy().unwrap().wait().unwrap();
        assert!(!out.is_empty());
        assert_eq!(report.operator("count").unwrap().instances, 4);
    }

    #[test]
    fn shard_region_keeps_stateless_stages_per_shard() {
        // aggregate ×4 → filter → keyed map: both stateless stages stay inside the
        // shard region (per-shard instances, fused per shard), and the single merge
        // sits after the map.
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("src", VecSource::with_period(readings(64), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(4))
            .filter("busy", |c: &Reading| c.1 > 0)
            .map_one("scale", |c: &Reading| (c.0, c.1 * 10))
            .keyed(|c: &Reading| c.0)
            .collecting_sink("sink");
        let q = plan.lower().unwrap();
        let merges = q
            .plan_facts()
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::ShardMerge.label())
            .count();
        assert_eq!(merges, 1, "exactly one fan-in, after the mapped stages");
        let report = q.deploy().unwrap().wait().unwrap();
        assert!(!out.is_empty());
        assert!(out.tuples().iter().all(|t| t.data.1 >= 10));
        // The per-shard stages fused onto the shard aggregate, one chain per shard.
        let chain = report
            .operator("count+busy+scale")
            .expect("fused shard chain");
        assert_eq!(chain.instances, 4);
    }

    #[test]
    fn unkeyed_map_seals_the_shard_region_first() {
        let plan = LogicalPlan::new(NoProvenance);
        let _out = plan
            .source("src", VecSource::with_period(readings(64), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(4))
            .map_one("describe", |c: &Reading| format!("{c:?}"))
            .collecting_sink("sink");
        let q = plan.lower().unwrap();
        // The merge precedes the map: the map node consumes the merge output.
        let facts = q.plan_facts();
        let merge = facts
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::ShardMerge.label())
            .expect("merge exists");
        let map = facts
            .nodes
            .iter()
            .position(|n| n.name == "describe")
            .expect("map exists");
        assert!(facts.edges.iter().any(|e| (e.from, e.to) == (merge, map)));
        q.deploy().unwrap().wait().unwrap();
    }

    #[test]
    fn multiplex_union_round_trip() {
        let plan = LogicalPlan::new(NoProvenance);
        let branches = plan
            .source("numbers", VecSource::with_period((0..20i64).collect(), 500))
            .multiplex("mux", 2);
        let mut it = branches.into_iter();
        let small = it.next().unwrap().filter("small", |x: &i64| *x < 5);
        let large = it.next().unwrap().filter("large", |x: &i64| *x >= 15);
        let out = LogicalStream::union("union", vec![small, large]).collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
        assert_eq!(values, vec![0, 1, 2, 3, 4, 15, 16, 17, 18, 19]);
    }

    #[test]
    fn join_lowers_plain_and_sharded() {
        let run = |shards: usize| {
            let plan = LogicalPlan::new(NoProvenance);
            let left = plan.source("left", VecSource::with_period(readings(16), 1_000));
            let right = plan.source(
                "right",
                VecSource::with_period(
                    (0..16u32).map(|i| (i % 4, 100 + i as i64)).collect(),
                    1_000,
                ),
            );
            let out = left
                .join(
                    "match",
                    right,
                    Duration::from_secs(2),
                    |l: &Reading| l.0,
                    |r: &Reading| r.0,
                    |o: &(u32, i64, i64)| o.0,
                    |_: &Reading, _: &Reading| true,
                    |l: &Reading, r: &Reading| (l.0, l.1, r.1),
                )
                .with(Parallelism::shards(shards))
                .collecting_sink("sink");
            let report = plan.deploy().unwrap().wait().unwrap();
            let tuples: Vec<(u64, (u32, i64, i64))> = out
                .tuples()
                .iter()
                .map(|t| (t.ts.as_millis(), t.data))
                .collect();
            (report, tuples)
        };
        let (plain_report, plain) = run(1);
        let (sharded_report, sharded) = run(3);
        assert!(!plain.is_empty());
        assert_eq!(plain, sharded, "shard count must not change join output");
        // The sink extends the plain Join's chain; the sharded Join's shards feed
        // the merge's.
        assert!(plain_report.operator("match+sink").is_some());
        assert_eq!(sharded_report.operator("match").unwrap().instances, 3);
    }

    #[test]
    fn unconsumed_stream_is_rejected_at_lower() {
        let plan = LogicalPlan::new(NoProvenance);
        let s = plan.source("numbers", VecSource::with_period(vec![1i64], 1));
        let _dangling = s.filter("dangling", |_: &i64| true);
        // A sink exists on another branch so the no-sink check doesn't trip first.
        plan.source("other", VecSource::with_period(vec![2i64], 1))
            .collecting_sink("sink");
        let err = plan.lower().unwrap_err();
        assert!(
            matches!(err, SpeError::InvalidQuery(msg) if msg.contains("dangling")),
            "unconsumed stream must name the offending node"
        );
    }

    #[test]
    fn stray_annotations_are_rejected_at_lower() {
        // `.with(..)` on a filter: no lowering rule consumes it.
        let plan = LogicalPlan::new(NoProvenance);
        let _out = plan
            .source("src", VecSource::with_period(readings(8), 1_000))
            .filter("keep", |r: &Reading| r.1 >= 0)
            .with(Parallelism::shards(4))
            .collecting_sink("sink");
        let err = plan.lower().unwrap_err();
        assert!(
            matches!(err, SpeError::InvalidQuery(ref msg) if msg.contains(".with") && msg.contains("keep")),
            "stray .with must name the node: {err:?}"
        );

        // `.keyed(..)` on an aggregate (it belongs on a map): rejected too.
        let plan = LogicalPlan::new(NoProvenance);
        let _out = plan
            .source("src", VecSource::with_period(readings(8), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .keyed(|o: &Reading| o.0)
            .collecting_sink("sink");
        let err = plan.lower().unwrap_err();
        assert!(
            matches!(err, SpeError::InvalidQuery(ref msg) if msg.contains(".keyed") && msg.contains("count")),
            "stray .keyed must name the node: {err:?}"
        );

        // A `.keyed(..)` on a map that ends up *outside* any shard region is a
        // contingent hint, not an error: the planner consumed and dropped it.
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("src", VecSource::with_period(readings(8), 1_000))
            .map_one("scale", |r: &Reading| (r.0, r.1 * 2))
            .keyed(|r: &Reading| r.0)
            .collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn empty_plan_is_invalid() {
        let plan = LogicalPlan::new(NoProvenance);
        assert!(matches!(plan.lower(), Err(SpeError::InvalidQuery(_))));
    }

    #[test]
    fn discard_satisfies_consumption() {
        let plan = LogicalPlan::new(NoProvenance);
        let branches = plan
            .source("numbers", VecSource::with_period(vec![1i64, 2, 3], 1))
            .multiplex("mux", 2);
        let mut it = branches.into_iter();
        let out = it.next().unwrap().collecting_sink("sink");
        it.next().unwrap().discard();
        plan.deploy().unwrap().wait().unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn logical_dot_renders_annotations() {
        let plan = LogicalPlan::new(NoProvenance);
        let _out = plan
            .source("src", VecSource::with_period(readings(8), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(4))
            .collecting_sink("sink");
        let dot = genealog_analysis::dot::logical(&plan.facts());
        assert!(dot.contains("digraph logical"));
        assert!(dot.contains("count\\n(aggregate \u{d7}4)"));
        assert!(dot.contains("l0 -> l1"));
        // Terminal operators are part of the declared graph too.
        assert!(dot.contains("sink\\n(sink)"));
        assert!(dot.contains("l1 -> l2"));
        // The logical view has no exchange/merge nodes — those are planner output.
        assert!(!dot.contains("partition"));
        assert!(!dot.contains("merge"));
    }

    #[test]
    fn explicit_placements_override_with_in_the_logical_dot() {
        let plan = LogicalPlan::new(NoProvenance);
        let _out = plan
            .source("src", VecSource::with_period(readings(8), 1_000))
            .aggregate(
                "count",
                spec(),
                |r: &Reading| r.0,
                count_window,
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(4))
            .place(ShardPlacement::<NoProvenance, Reading, Reading>::all_local(
                2,
            ))
            .collecting_sink("sink");
        let dot = genealog_analysis::dot::logical(&plan.facts());
        // `.place` wins at lowering; the rendered shard count says the same.
        assert!(dot.contains("count\\n(aggregate \u{d7}2)"));
        assert!(!dot.contains("\u{d7}4"));
        // The plan still lowers: the `.with` hint was superseded, not stranded.
        plan.deploy().unwrap().wait().unwrap();
    }

    #[test]
    fn lowered_query_config_follows_planner_config() {
        let plan = LogicalPlan::with_config(
            NoProvenance,
            PlannerConfig::default()
                .with_batch_size(16)
                .with_channel_capacity(256),
        );
        let _out = plan
            .source("src", VecSource::with_period(vec![1i64], 1))
            .collecting_sink("sink");
        let q = plan.lower().unwrap();
        let qc: QueryConfig = q.config();
        assert_eq!(qc.batch.size, 16);
        assert_eq!(qc.channel_capacity, 256);
        assert!(qc.fusion, "planner default turns fusion on");
    }

    #[test]
    fn sink_stats_handle_is_populated_after_run() {
        let plan = LogicalPlan::new(NoProvenance);
        let stats = plan
            .source("numbers", VecSource::with_period((0..5i64).collect(), 100))
            .sink("sink", |_| {});
        plan.deploy().unwrap().wait().unwrap();
        assert_eq!(stats.tuple_count(), 5);
    }
}
