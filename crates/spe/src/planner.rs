//! The planner: lowering [`LogicalPlan`](crate::logical::LogicalPlan)s to physical
//! [`Query`] graphs.
//!
//! The logical layer (see [`crate::logical`]) records *what* a query computes; this
//! module owns the decisions about *how* it executes:
//!
//! * **Parallelism** — a stateful operator annotated with
//!   [`Parallelism::shards`](crate::parallel::Parallelism::shards) (or placed
//!   explicitly) lowers to a Partition exchange, N shard instances and the
//!   provenance-safe fan-in; an unannotated operator lowers to the plain
//!   single-instance operator. The exchange is elided entirely when one local shard
//!   is requested — the planner, not the user, decides whether an exchange exists.
//!   The annotation is the only place a shard count is declared.
//! * **Placement** — each shard placement is either local (an operator thread of this
//!   SPE instance) or remote (spliced out through Send/Receive endpoints built by a
//!   [`ShardPlacement::Remote`](crate::query::ShardPlacement) route, e.g. the
//!   `remote_shard_group_over` builder of the `genealog-distributed` crate).
//! * **Fusion** — [`PlannerConfig::fusion`] is **on by default**: every eligible
//!   stateless chain collapses into a single-thread fused pipeline — headed by the
//!   Source that feeds it, if any — including the per-shard chains of an open shard
//!   region. Fusing changes thread counts and report shapes, never counts: every
//!   stage keeps its own ledger row. ([`QueryConfig::fusion`](crate::query::QueryConfig)
//!   stays off by default, which keeps the one-report-per-operator shape that
//!   physical-layer callers look operators up by.)
//! * **Shard regions** — between a sharded stateful operator and its fan-in the plan
//!   is an *open shard region* (`Lowered::Shards`): stateless operators lower to
//!   per-shard stages inside the region (the planner-owned successor of the
//!   removed `filter_shards`/`map_shards` entry points), and the canonical merge is inserted
//!   only where something genuinely needs the reunified stream — a stateful
//!   operator, a fan-out/fan-in, a sink, or a payload type change without a
//!   [`keyed`](crate::logical::LogicalStream::keyed) annotation.
//! * **Channel budgets** — lowering reuses the physical builder's joint edge
//!   budgeting: the N channels of an exchange (and of the fan-in, local or remote)
//!   share one per-edge element budget.

pub use genealog_analysis::AnalysisMode;

use crate::channel::BatchConfig;
use crate::parallel::KeyComparator;
use crate::provenance::ProvenanceSystem;
use crate::query::{Query, QueryConfig, StreamRef};
use crate::state::CheckpointConfig;
use crate::tuple::TupleData;

/// Configuration of the planner pass (see [`crate::logical`]).
///
/// Mirrors [`QueryConfig`] with one deliberate difference: **fusion is on by
/// default**. Every fused stage keeps its own ledger row — in `/metrics` and in
/// [`OperatorReport::stages`](crate::runtime::OperatorReport) — so nothing is lost
/// by fusing; turn it off only to compare thread-per-operator execution.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Capacity (in elements) of the bounded channels between physical operators.
    pub channel_capacity: usize,
    /// Batching configuration of every operator output and Source of the plan.
    pub batch: BatchConfig,
    /// Whether eligible stateless chains fuse into single-thread pipelines.
    /// **On by default.**
    pub fusion: bool,
    /// When set, the lowered query runs with epoch-based checkpointing: sources
    /// inject barriers every [`CheckpointConfig::interval`] tuples and every
    /// stateful operator snapshots into the shared
    /// [`CheckpointStore`](crate::state::CheckpointStore). `None` (the default)
    /// lowers a checkpoint-free query — no barriers ever enter the dataflow.
    pub checkpoints: Option<CheckpointConfig>,
    /// Whether the lowered query publishes into a live
    /// [`MetricsRegistry`](genealog_metrics::MetricsRegistry) (see
    /// [`QueryConfig::metrics`]). On by default.
    pub metrics: bool,
    /// How lowering reacts to deploy-time analyzer findings (see
    /// `genealog-analysis`): [`AnalysisMode::Warn`] (the default) emits every
    /// finding on the global tracer and proceeds, [`AnalysisMode::Deny`] rejects
    /// plans with error-severity findings, [`AnalysisMode::Off`] skips the
    /// analyzer entirely.
    pub analysis: AnalysisMode,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            channel_capacity: 1024,
            batch: BatchConfig::default(),
            fusion: true,
            checkpoints: None,
            metrics: true,
            analysis: AnalysisMode::Warn,
        }
    }
}

impl PlannerConfig {
    /// Returns the configuration with a different batch size.
    pub fn with_batch_size(mut self, size: usize) -> Self {
        self.batch = BatchConfig::with_size(size);
        self
    }

    /// Returns the configuration with batching disabled (flush every element).
    pub fn unbatched(mut self) -> Self {
        self.batch = BatchConfig::unbatched();
        self
    }

    /// Returns the configuration with a different per-edge channel capacity.
    pub fn with_channel_capacity(mut self, elements: usize) -> Self {
        self.channel_capacity = elements.max(1);
        self
    }

    /// Returns the configuration with the fusion pass enabled or disabled.
    pub fn with_fusion(mut self, enabled: bool) -> Self {
        self.fusion = enabled;
        self
    }

    /// Returns the configuration with epoch-based checkpointing enabled: the lowered
    /// query registers its stateful operators with the config's store and sources
    /// inject a barrier every `config.interval` tuples.
    pub fn with_checkpoints(mut self, config: CheckpointConfig) -> Self {
        self.checkpoints = Some(config);
        self
    }

    /// Returns the configuration with live metrics publication enabled or disabled.
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Returns the configuration with a different deploy-time analysis mode.
    pub fn with_analysis(mut self, mode: AnalysisMode) -> Self {
        self.analysis = mode;
        self
    }

    /// The physical [`QueryConfig`] the planner hands to the lowered query.
    pub fn query_config(&self) -> QueryConfig {
        QueryConfig {
            channel_capacity: self.channel_capacity,
            batch: self.batch,
            fusion: self.fusion,
            metrics: self.metrics,
        }
    }
}

/// The planner's intermediate representation of one lowered logical stream.
///
/// A stream is either an ordinary physical stream, or an *open shard region*: the
/// per-shard streams of a key-partitioned operator whose canonical fan-in has not
/// been inserted yet. Keeping the region open lets downstream stateless operators
/// lower to per-shard stages (which fuse within each shard under
/// [`PlannerConfig::fusion`]) instead of forcing an early merge.
pub(crate) enum Lowered<P: ProvenanceSystem, T: TupleData> {
    /// A single reunified stream.
    Stream(StreamRef<T, P::Meta>),
    /// An open shard region awaiting its canonical fan-in.
    Shards {
        /// Logical name of the sharded operator (the fan-in is named
        /// `{group}.merge`).
        group: String,
        /// The per-shard streams, already carrying the joint capacity share.
        streams: Vec<StreamRef<T, P::Meta>>,
        /// Comparator ordering equal-timestamp runs at the fan-in.
        cmp: KeyComparator<T>,
    },
}

impl<P: ProvenanceSystem, T: TupleData> Lowered<P, T> {
    /// Closes an open shard region by inserting the provenance-safe canonical
    /// fan-in; a plain stream passes through unchanged.
    pub(crate) fn seal(self, q: &mut Query<P>) -> StreamRef<T, P::Meta> {
        match self {
            Lowered::Stream(stream) => stream,
            Lowered::Shards {
                group,
                streams,
                cmp,
            } => q.keyed_merge_cmp(&format!("{group}.merge"), streams, cmp),
        }
    }
}

/// Builds the fan-in comparator from an output-key extractor (the merge orders
/// equal-timestamp runs by `(key, per-key emission order)`).
pub(crate) fn merge_cmp<T, K, OK>(mut out_key: OK) -> KeyComparator<T>
where
    T: TupleData,
    K: Ord,
    OK: FnMut(&T) -> K + Send + 'static,
{
    Box::new(move |a: &T, b: &T| out_key(a).cmp(&out_key(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_config_defaults_enable_fusion() {
        let config = PlannerConfig::default();
        assert!(config.fusion, "the planner fuses by default");
        let qc = config.query_config();
        assert!(qc.fusion);
        assert_eq!(qc.channel_capacity, config.channel_capacity);
    }

    #[test]
    fn planner_config_builders_mirror_query_config() {
        let config = PlannerConfig::default()
            .with_batch_size(64)
            .with_channel_capacity(512)
            .with_fusion(false);
        let qc = config.query_config();
        assert_eq!(qc.batch.size, 64);
        assert_eq!(qc.channel_capacity, 512);
        assert!(!qc.fusion);
        // An explicit zero clamps instead of producing a degenerate config.
        assert_eq!(
            PlannerConfig::default()
                .with_channel_capacity(0)
                .channel_capacity,
            1
        );
    }

    #[test]
    fn merge_cmp_orders_by_extracted_key() {
        let mut cmp = merge_cmp(|t: &(u32, i64)| t.0);
        assert_eq!(cmp(&(1, 5), &(2, 0)), std::cmp::Ordering::Less);
        assert_eq!(cmp(&(3, 5), &(2, 9)), std::cmp::Ordering::Greater);
        assert_eq!(cmp(&(2, 1), &(2, 2)), std::cmp::Ordering::Equal);
    }
}
