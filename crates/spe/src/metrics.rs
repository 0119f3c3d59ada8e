//! The operator ledger: every tuple counter of a query, kept once.
//!
//! Each physical stage of a deployed query — a plain operator, or one stage of a
//! fused chain ([`crate::fusion`]) — has one ledger row: a `(tuples_in,
//! tuples_out)` pair of [`Counter`]s tagged with the stage's *logical* name (the
//! shard-group name for sharded operators, so all shard instances of one logical
//! operator share a label).
//!
//! * **Who mints.** [`Query::deploy`](crate::query::Query::deploy): one
//!   [`OpCounters`] per operator thread, holding one row for a plain operator and
//!   `n` for a fused chain of `n` stages — a plain operator is a chain of one for
//!   accounting exactly as it is for execution.
//! * **Who increments.** The thread, through the handle
//!   [`FusedOp::run`](crate::fusion::FusedOp::run) receives: a relaxed atomic
//!   add per tuple, no locks, no registry lookups. A chain's head counts its
//!   row's `tuples_in`; an output is counted at the stage's downstream boundary —
//!   a chain's tail counts `tuples_out` only after a successful send, so a tuple
//!   dropped by a closed downstream is in nobody's output.
//! * **Who reads.** The runtime alone. While the query runs, the summing
//!   collectors `genealog_operator_tuples_{in,out}_total{operator=<logical name>}`
//!   registered at deploy time over the rows sharing a name; after the threads are
//!   joined, [`QueryHandle::wait`](crate::runtime::QueryHandle::wait), which turns
//!   the rows into the [`QueryReport`](crate::runtime::QueryReport). Both views
//!   read the same atomics, so a scrape and a report can never disagree.

use std::sync::Arc;

use genealog_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// One ledger row: the tuple counters of one physical stage under its logical name.
#[derive(Debug, Clone)]
pub(crate) struct StageRow {
    /// The stage's logical name (the `operator` label of its collectors).
    pub(crate) name: String,
    pub(crate) tuples_in: Arc<Counter>,
    pub(crate) tuples_out: Arc<Counter>,
}

/// The ledger rows of one operator thread plus access to registry gauges, counters
/// and histograms labelled with the operator's logical name. Clones share the rows:
/// the runtime keeps one to read what the thread counted.
#[derive(Debug, Clone)]
pub struct OpCounters {
    registry: Arc<MetricsRegistry>,
    /// In stage order; never empty.
    stages: Vec<StageRow>,
}

impl OpCounters {
    /// Mints the rows of one operator thread, one per logical stage name.
    ///
    /// # Panics
    /// Panics if `stage_names` is empty: a thread runs at least one stage.
    pub(crate) fn mint<'a>(
        registry: &Arc<MetricsRegistry>,
        stage_names: impl IntoIterator<Item = &'a str>,
    ) -> Self {
        let stages: Vec<StageRow> = stage_names
            .into_iter()
            .map(|name| StageRow {
                name: name.to_string(),
                tuples_in: Arc::default(),
                tuples_out: Arc::default(),
            })
            .collect();
        assert!(!stages.is_empty(), "an operator thread has a stage");
        OpCounters {
            registry: Arc::clone(registry),
            stages,
        }
    }

    /// A single row bound to no query, for running a chain bare (as unit tests do
    /// by calling [`FusedOp::run`](crate::fusion::FusedOp::run) directly):
    /// the counters count, gauges and histograms are inert.
    pub fn detached(name: &str) -> Self {
        Self::detached_chain(&[name])
    }

    /// One detached row per part, in part order, for a chain of several run bare.
    pub fn detached_chain(parts: &[&str]) -> Self {
        Self::mint(&MetricsRegistry::disabled(), parts.iter().copied())
    }

    /// The stage whose input is the thread's input.
    #[inline]
    fn head(&self) -> &StageRow {
        &self.stages[0]
    }

    /// The stage whose output is the thread's output (the head again, for a plain
    /// operator).
    #[inline]
    fn tail(&self) -> &StageRow {
        &self.stages[self.stages.len() - 1]
    }

    /// The logical operator name (shard-group name for sharded operators).
    pub fn name(&self) -> &str {
        &self.head().name
    }

    /// The rows in stage order.
    pub(crate) fn stages(&self) -> &[StageRow] {
        &self.stages
    }

    /// Row `i` alone: the handle one part of a chain builds its instruments from,
    /// which carry that part's name.
    pub(crate) fn row(&self, i: usize) -> OpCounters {
        OpCounters {
            registry: Arc::clone(&self.registry),
            stages: vec![self.stages[i].clone()],
        }
    }

    /// The last row alone: the handle a chain's tail counts into.
    pub(crate) fn tail_row(&self) -> OpCounters {
        self.row(self.stages.len() - 1)
    }

    /// Counts one input tuple.
    #[inline]
    pub fn inc_in(&self) {
        self.head().tuples_in.inc();
    }

    /// Counts `n` input tuples.
    #[inline]
    pub fn add_in(&self, n: u64) {
        self.head().tuples_in.add(n);
    }

    /// Counts one output tuple.
    #[inline]
    pub fn inc_out(&self) {
        self.tail().tuples_out.inc();
    }

    /// Counts `n` output tuples.
    #[inline]
    pub fn add_out(&self, n: u64) {
        self.tail().tuples_out.add(n);
    }

    /// Input tuples counted so far (by the head stage, for a chain).
    pub fn tuples_in(&self) -> u64 {
        self.head().tuples_in.get()
    }

    /// Output tuples counted so far (by the tail stage, for a chain).
    pub fn tuples_out(&self) -> u64 {
        self.tail().tuples_out.get()
    }

    /// A registry gauge named `metric`, labelled `operator=<logical name>` plus
    /// `extra`. Inert (set is a no-op) when metrics are disabled.
    pub fn gauge(&self, metric: &'static str, extra: &[(&str, &str)]) -> Arc<Gauge> {
        let mut labels = vec![("operator", self.name())];
        labels.extend_from_slice(extra);
        self.registry.gauge(metric, &labels)
    }

    /// A registry counter named `metric`, labelled `operator=<logical name>`, for
    /// counts beyond the tuples in/out every operator has. Shard instances of one
    /// logical operator get the same counter, so it reads their sum.
    pub fn counter(&self, metric: &'static str) -> Arc<Counter> {
        self.registry.counter(metric, &[("operator", self.name())])
    }

    /// A registry histogram named `metric`, labelled `operator=<logical
    /// name>`. Inert when metrics are disabled.
    pub fn histogram(&self, metric: &'static str) -> Arc<Histogram> {
        self.registry
            .histogram(metric, &[("operator", self.name())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_row_counts_and_its_gauges_are_inert() {
        let counters = OpCounters::detached("solo");
        let probe = counters.clone();
        counters.inc_in();
        counters.add_out(3);
        assert_eq!(probe.name(), "solo");
        assert_eq!(probe.tuples_in(), 1);
        assert_eq!(probe.tuples_out(), 3);
        let g = counters.gauge("genealog_source_replay_offset", &[]);
        g.set(42);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn a_chain_counts_in_at_its_head_and_out_at_its_tail() {
        let counters = OpCounters::mint(&MetricsRegistry::new(), ["keep", "scale"]);
        counters.add_in(5);
        counters.add_out(2);
        let [keep, scale] = counters.stages() else {
            panic!("two rows")
        };
        assert_eq!((keep.name.as_str(), keep.tuples_in.get()), ("keep", 5));
        assert_eq!((scale.name.as_str(), scale.tuples_out.get()), ("scale", 2));
        assert_eq!((keep.tuples_out.get(), scale.tuples_in.get()), (0, 0));
        assert_eq!(counters.name(), "keep", "instruments carry the head's name");
    }
}
