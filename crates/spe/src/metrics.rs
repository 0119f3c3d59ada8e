//! Per-operator bindings into the live [`MetricsRegistry`].
//!
//! Every [`Query`](crate::query::Query) owns one registry. When a node is added
//! the query mints a deferred [`OpMetrics`] cell for it; at
//! [`deploy`](crate::query::Query::deploy) time the cell is bound to the node's
//! *logical* name (the shard-group name for sharded operators, so all shard
//! instances of one logical operator share a label) and the query registers
//! summing collectors over the physical counters. Operators receive the cell
//! through [`Operator::set_metrics`](crate::operator::Operator::set_metrics) and
//! publish through [`OpCounters`] — two private atomic counters on the hot path,
//! no locks, no registry lookups per tuple.

use std::sync::{Arc, OnceLock};

use genealog_metrics::{Counter, Gauge, Histogram, MetricsRegistry};

/// The bound state of an [`OpMetrics`] cell.
struct Bound {
    /// Logical operator name used as the `operator` label.
    name: String,
    registry: Arc<MetricsRegistry>,
    /// Private (not registry-keyed) counters: each physical operator instance
    /// gets its own pair, and the query registers a collector summing the pairs
    /// of all instances sharing a logical name.
    tuples_in: Arc<Counter>,
    tuples_out: Arc<Counter>,
}

/// A late-bound handle an operator publishes metrics through.
///
/// Created deferred (unbound) when the node is added to the query and bound at
/// deploy time; an operator run outside a deployed query (as unit tests do by
/// calling [`Operator::run`](crate::operator::Operator::run) directly) binds
/// itself lazily to a detached disabled registry, so counting always works.
#[derive(Clone)]
pub struct OpMetrics {
    inner: Arc<OnceLock<Bound>>,
}

impl std::fmt::Debug for OpMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.get() {
            Some(bound) => write!(f, "OpMetrics({})", bound.name),
            None => write!(f, "OpMetrics(deferred)"),
        }
    }
}

impl Default for OpMetrics {
    fn default() -> Self {
        Self::deferred()
    }
}

impl OpMetrics {
    /// Creates an unbound cell.
    pub fn deferred() -> Self {
        OpMetrics {
            inner: Arc::new(OnceLock::new()),
        }
    }

    /// Binds the cell to a logical name and registry. Idempotent: the first
    /// bind wins, which also makes the lazy self-bind in [`Self::handles`]
    /// safe.
    pub(crate) fn bind(&self, name: &str, registry: &Arc<MetricsRegistry>) {
        let _ = self.inner.set(Bound {
            name: name.to_string(),
            registry: Arc::clone(registry),
            tuples_in: Arc::new(Counter::default()),
            tuples_out: Arc::new(Counter::default()),
        });
    }

    /// The physical counter pair, if the cell is bound. Used by the query to
    /// register summing collectors at deploy time.
    pub(crate) fn counter_pair(&self) -> Option<(Arc<Counter>, Arc<Counter>)> {
        self.inner
            .get()
            .map(|b| (Arc::clone(&b.tuples_in), Arc::clone(&b.tuples_out)))
    }

    /// The hot-path publishing handle. Binds lazily (to `fallback_name` and a
    /// detached disabled registry) when the operator runs outside a deployed
    /// query.
    pub fn handles(&self, fallback_name: &str) -> OpCounters {
        let bound = self.inner.get_or_init(|| Bound {
            name: fallback_name.to_string(),
            registry: MetricsRegistry::disabled(),
            tuples_in: Arc::new(Counter::default()),
            tuples_out: Arc::new(Counter::default()),
        });
        OpCounters {
            name: bound.name.clone(),
            registry: Arc::clone(&bound.registry),
            tuples_in: Arc::clone(&bound.tuples_in),
            tuples_out: Arc::clone(&bound.tuples_out),
        }
    }
}

/// The per-instance publishing handle held for the duration of a run: two
/// atomic counters plus access to registry gauges/histograms labelled with the
/// operator's logical name.
pub struct OpCounters {
    name: String,
    registry: Arc<MetricsRegistry>,
    tuples_in: Arc<Counter>,
    tuples_out: Arc<Counter>,
}

impl OpCounters {
    /// The logical operator name (shard-group name for sharded operators).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counts one input tuple.
    #[inline]
    pub fn inc_in(&self) {
        self.tuples_in.inc();
    }

    /// Counts `n` input tuples.
    #[inline]
    pub fn add_in(&self, n: u64) {
        self.tuples_in.add(n);
    }

    /// Counts one output tuple.
    #[inline]
    pub fn inc_out(&self) {
        self.tuples_out.inc();
    }

    /// Counts `n` output tuples.
    #[inline]
    pub fn add_out(&self, n: u64) {
        self.tuples_out.add(n);
    }

    /// Input tuples counted so far by this instance.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.get()
    }

    /// Output tuples counted so far by this instance.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.get()
    }

    /// Snapshot of this instance's counts as the end-of-run
    /// [`OperatorStats`](crate::operator::OperatorStats), under the operator's
    /// physical name.
    pub fn stats(&self, physical_name: &str) -> crate::operator::OperatorStats {
        let mut stats = crate::operator::OperatorStats::new(physical_name.to_string());
        stats.tuples_in = self.tuples_in();
        stats.tuples_out = self.tuples_out();
        stats
    }

    /// A registry gauge named `metric`, labelled `operator=<logical name>` plus
    /// `extra`. Inert (set is a no-op) when metrics are disabled.
    pub fn gauge(&self, metric: &'static str, extra: &[(&str, &str)]) -> Arc<Gauge> {
        let mut labels = vec![("operator", self.name.as_str())];
        labels.extend_from_slice(extra);
        self.registry.gauge(metric, &labels)
    }

    /// A registry counter named `metric`, labelled `operator=<logical name>`, for
    /// counts beyond the tuples in/out every operator has. Shard instances of one
    /// logical operator get the same counter, so it reads their sum.
    pub fn counter(&self, metric: &'static str) -> Arc<Counter> {
        self.registry.counter(metric, &[("operator", &self.name)])
    }

    /// A registry histogram named `metric`, labelled `operator=<logical
    /// name>`. Inert when metrics are disabled.
    pub fn histogram(&self, metric: &'static str) -> Arc<Histogram> {
        self.registry.histogram(metric, &[("operator", &self.name)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_cell_binds_lazily_with_fallback_name() {
        let cell = OpMetrics::deferred();
        let counters = cell.handles("solo");
        counters.inc_in();
        counters.add_out(3);
        assert_eq!(counters.name(), "solo");
        let stats = counters.stats("solo");
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 3);
        // The gauge from a lazily-bound (disabled) registry is inert.
        let g = counters.gauge("genealog_source_replay_offset", &[]);
        g.set(42);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn bound_cell_shares_counters_across_clones() {
        let registry = MetricsRegistry::new();
        let cell = OpMetrics::deferred();
        cell.bind("agg", &registry);
        // A later lazy bind must not replace the deploy-time bind.
        let counters = cell.clone().handles("wrong-name");
        assert_eq!(counters.name(), "agg");
        counters.add_in(5);
        let (tin, tout) = cell.counter_pair().expect("bound");
        assert_eq!(tin.get(), 5);
        assert_eq!(tout.get(), 0);
    }
}
