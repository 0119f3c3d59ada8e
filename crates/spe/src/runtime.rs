//! The thread-per-chain runtime.
//!
//! Each chain of a deployed query ([`crate::fusion`]) runs on its own OS thread (the
//! model of the paper's SPE instances: threads sharing a process, communicating
//! through queues); with fusion off, every operator is a chain of one.
//! The runtime owns the operator ledger ([`crate::metrics`]): it hands each thread
//! its rows, keeps a clone, and — once [`QueryHandle::wait`] has joined the thread —
//! is the only place that turns rows into [`OperatorStats`] and a [`QueryReport`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use genealog_metrics::{HistogramSnapshot, MetricsRegistry, Tracer};

use crate::error::SpeError;
use crate::fusion::FusedOp;
use crate::metrics::OpCounters;
use crate::operator::OperatorStats;
use crate::query::NodeKind;

/// Statistics of one operator after query completion, tagged with its role.
///
/// For key-partitioned operators the report covers the whole shard group: the runtime
/// folds the per-shard thread statistics into one report carrying the group name and
/// the number of instances. For a fused chain the report covers the whole chain
/// thread, and [`OperatorReport::stages`] still names the original operators with
/// their individual counters.
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// The operator's role in the query graph.
    pub kind: NodeKind,
    /// The role of the thread's first stage: `kind` itself for a plain operator, the
    /// head operator's kind for a fused chain (a Source, for a chain it heads).
    pub head: NodeKind,
    /// The role of the thread's last stage: `kind` itself for a plain operator, the
    /// kind of the operator that ends a fused chain (a Sink, for a chain it seals).
    pub tail: NodeKind,
    /// Number of parallel shard instances folded into this report (1 for ordinary
    /// operators).
    pub instances: usize,
    /// The operator's run-time counters (summed over all shard instances).
    pub stats: OperatorStats,
    /// Per-stage counters of the original operators folded into a fused chain, in
    /// stage order (summed over shard instances for sharded chains); empty for
    /// ordinary, unfused operators.
    pub stages: Vec<OperatorStats>,
    /// Final sink-latency histogram (`genealog_sink_latency_ns`), taken from the
    /// query's metrics registry when the run finishes. `None` for non-sink
    /// operators and for queries run with metrics disabled.
    pub latency: Option<HistogramSnapshot>,
}

impl OperatorReport {
    /// What one joined operator thread counted: the thread's boundary (head stage
    /// in, tail stage out) under its stage names joined with `+`, and, for a fused
    /// chain, one record per stage. `head` and `tail` are the kinds of the thread's
    /// first and last stage; a thread of more than one stage is a `Fused` chain.
    fn of_thread(head: NodeKind, tail: NodeKind, counters: &OpCounters) -> Self {
        let rows = counters.stages();
        let names: Vec<&str> = rows.iter().map(|row| row.name.as_str()).collect();
        let (kind, stages) = match rows {
            [_] => (head, Vec::new()),
            _ => (
                NodeKind::Fused,
                rows.iter()
                    .map(|row| OperatorStats {
                        name: row.name.clone(),
                        tuples_in: row.tuples_in.get(),
                        tuples_out: row.tuples_out.get(),
                    })
                    .collect(),
            ),
        };
        OperatorReport {
            kind,
            head,
            tail,
            instances: 1,
            stats: OperatorStats {
                name: names.join("+"),
                tuples_in: counters.tuples_in(),
                tuples_out: counters.tuples_out(),
            },
            stages,
            latency: None,
        }
    }

    /// Folds another instance of the same logical operator into this report — a
    /// sibling shard thread of a local group, or the same-named operator of another
    /// SPE instance: counters sum, instance counts add (the threads actually folded
    /// in, not a group's declared width), latency histograms merge. Instances of one
    /// logical operator have identical stage structure, so per-stage counters fold
    /// positionally; an empty shape adopts the other's, and on genuinely different
    /// shapes the first wins rather than mis-attributing counts.
    fn absorb(&mut self, other: OperatorReport) {
        self.stats.absorb(&other.stats);
        self.instances += other.instances;
        match (&mut self.latency, other.latency) {
            (Some(merged), Some(latency)) => merged.merge(&latency),
            (slot @ None, Some(latency)) => *slot = Some(latency),
            _ => {}
        }
        if self.stages.len() == other.stages.len() {
            for (merged, stage) in self.stages.iter_mut().zip(&other.stages) {
                merged.absorb(stage);
            }
        } else if self.stages.is_empty() {
            self.stages = other.stages;
        }
    }
}

/// Adds `report` to `operators`, folded into the report `index` already holds
/// under its name if there is one.
fn fold_report(
    operators: &mut Vec<OperatorReport>,
    index: &mut std::collections::HashMap<String, usize>,
    report: OperatorReport,
) {
    match index.get(&report.stats.name) {
        Some(&i) => operators[i].absorb(report),
        None => {
            index.insert(report.stats.name.clone(), operators.len());
            operators.push(report);
        }
    }
}

/// Aggregated result of a completed query run.
#[derive(Debug, Clone)]
pub struct QueryReport {
    operators: Vec<OperatorReport>,
    wall_time: std::time::Duration,
}

impl QueryReport {
    /// Per-operator statistics in node-creation order.
    pub fn operator_stats(&self) -> &[OperatorReport] {
        &self.operators
    }

    /// Total wall-clock time between deployment and the last operator finishing.
    pub fn wall_time(&self) -> std::time::Duration {
        self.wall_time
    }

    /// Total number of tuples injected by all Sources: each Source's own ledger row,
    /// whether it runs alone or heads a fused chain.
    pub fn source_tuples(&self) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.head == NodeKind::Source)
            .map(|o| {
                o.stages
                    .first()
                    .map_or(o.stats.tuples_out, |s| s.tuples_out)
            })
            .sum()
    }

    /// Total number of tuples received by all Sinks: each Sink's own ledger row,
    /// whether it runs alone or seals a fused chain.
    pub fn sink_tuples(&self) -> u64 {
        self.operators
            .iter()
            .filter(|o| o.tail == NodeKind::Sink)
            .map(|o| o.stages.last().map_or(o.stats.tuples_in, |s| s.tuples_in))
            .sum()
    }

    /// Source throughput in tuples per second over the whole run.
    pub fn source_throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.source_tuples() as f64 / secs
    }

    /// Statistics of the operator with the given name, if present.
    pub fn operator(&self, name: &str) -> Option<&OperatorReport> {
        self.operators.iter().find(|o| o.stats.name == name)
    }

    /// Statistics of one original operator folded into a fused chain, if present.
    ///
    /// Fused chains report as one [`OperatorReport`] named after the whole chain;
    /// this accessor finds an individual stage by its original operator name.
    pub fn fused_stage(&self, name: &str) -> Option<&OperatorStats> {
        self.operators
            .iter()
            .flat_map(|o| o.stages.iter())
            .find(|s| s.name == name)
    }

    /// Renders a per-operator text table of the report.
    ///
    /// Fused chains list the per-stage counters of their original operators
    /// ([`OperatorReport::stages`]) as indented rows, so a report printed with
    /// fusion on loses no telemetry compared to the thread-per-operator plan.
    pub fn render_operators(&self) -> String {
        let mut out = String::new();
        for op in &self.operators {
            let instances = if op.instances > 1 {
                format!(" \u{d7}{}", op.instances)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{:<28} {:>10} in {:>10} out  ({}{})\n",
                op.stats.name,
                op.stats.tuples_in,
                op.stats.tuples_out,
                op.kind.label(),
                instances
            ));
            for stage in &op.stages {
                out.push_str(&format!(
                    "  \u{21b3} {:<24} {:>10} in {:>10} out\n",
                    stage.name, stage.tuples_in, stage.tuples_out
                ));
            }
        }
        out
    }

    /// Folds the per-instance reports of a distributed deployment into one report.
    ///
    /// Operators sharing a name across instances are shard instances of the same
    /// logical operator (the shard-group builder names every remote
    /// instance's operators identically): their counters are summed and their
    /// `instances` counts added, so a shard group spanning SPE instances reports
    /// exactly like a local shard group — one [`OperatorReport`] with an `instances`
    /// count. Operators unique to one instance pass through unchanged, in the order
    /// the reports were given; the wall time is the maximum over the instances
    /// (they run concurrently).
    pub fn merge_distributed<I: IntoIterator<Item = QueryReport>>(reports: I) -> QueryReport {
        let mut operators: Vec<OperatorReport> = Vec::new();
        let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut wall_time = std::time::Duration::ZERO;
        for report in reports {
            wall_time = wall_time.max(report.wall_time);
            for op in report.operators {
                fold_report(&mut operators, &mut index, op);
            }
        }
        QueryReport {
            operators,
            wall_time,
        }
    }

    /// Assembles a report directly from its parts. Exposed for tests exercising
    /// [`QueryReport::merge_distributed`] with hand-built per-instance reports;
    /// not part of the stable API.
    #[doc(hidden)]
    pub fn from_parts(operators: Vec<OperatorReport>, wall_time: std::time::Duration) -> Self {
        QueryReport {
            operators,
            wall_time,
        }
    }
}

/// What the runtime spawns for one chain: the sealed chain, its ledger rows, and
/// the reporting metadata.
pub(crate) struct OperatorSpec {
    /// The kind of the thread's first stage (see [`OperatorReport::head`]).
    pub(crate) head: NodeKind,
    /// The kind of the thread's last stage (see [`OperatorReport::tail`]).
    pub(crate) tail: NodeKind,
    /// Whether the thread is one shard instance of a group. Its rows are then tagged
    /// with the group name and [`QueryHandle::wait`] folds it with its siblings.
    pub(crate) grouped: bool,
    pub(crate) counters: OpCounters,
    pub(crate) op: FusedOp,
}

/// A joinable operator thread with the runtime's clone of its ledger rows.
#[derive(Debug)]
struct OperatorThread {
    head: NodeKind,
    tail: NodeKind,
    /// The operator's physical name, for the panic report.
    name: String,
    grouped: bool,
    counters: OpCounters,
    handle: JoinHandle<Result<(), SpeError>>,
}

/// A running query: one thread per operator.
#[derive(Debug)]
pub struct QueryHandle {
    threads: Vec<OperatorThread>,
    stop: Arc<AtomicBool>,
    started: Instant,
    registry: Arc<MetricsRegistry>,
    running: Arc<AtomicUsize>,
}

/// A cheap, cloneable probe answering whether a deployed query's operator threads
/// have all finished (successfully, with an error, or by panicking).
///
/// Obtained from [`QueryHandle::completion`] for watchers that must not consume
/// the handle. The distributed metrics shipper is the motivating case: it holds a
/// sender clone of the remote instance's physical return link, and the origin
/// detects a dead remote engine by that link closing — so the shipper has to tie
/// its own lifetime to the engine's instead of waiting to be told to stop.
#[derive(Clone, Debug)]
pub struct QueryCompletion {
    running: Arc<AtomicUsize>,
}

impl QueryCompletion {
    /// Whether every operator thread of the query has exited.
    pub fn is_finished(&self) -> bool {
        self.running.load(Ordering::Acquire) == 0
    }
}

impl QueryHandle {
    /// A probe for the query's completion that does not consume the handle.
    pub fn completion(&self) -> QueryCompletion {
        QueryCompletion {
            running: Arc::clone(&self.running),
        }
    }

    /// Asks every Source of the query to stop injecting tuples; the query then drains
    /// and terminates on its own.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether the stop flag has been raised.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The live metrics registry of the running query (the same registry
    /// [`Query::registry`](crate::query::Query::registry) returned before
    /// deployment).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Waits for every operator to finish and returns the aggregated report.
    ///
    /// # Errors
    /// Returns the first operator error encountered, or
    /// [`SpeError::OperatorPanicked`] if an operator thread panicked.
    pub fn wait(self) -> Result<QueryReport, SpeError> {
        let registry = Arc::clone(&self.registry);
        let mut operators: Vec<OperatorReport> = Vec::with_capacity(self.threads.len());
        // Shard group name -> index into `operators`, so every shard thread of one
        // logical operator folds into a single aggregated report.
        let mut group_index: std::collections::HashMap<String, usize> =
            std::collections::HashMap::new();
        let mut first_error: Option<SpeError> = None;
        for thread in self.threads {
            match thread.handle.join() {
                Ok(Ok(())) => {
                    // The thread has finished, so its rows are final.
                    let report =
                        OperatorReport::of_thread(thread.head, thread.tail, &thread.counters);
                    if thread.grouped {
                        fold_report(&mut operators, &mut group_index, report);
                    } else {
                        operators.push(report);
                    }
                }
                Ok(Err(err)) => {
                    if first_error.is_none() {
                        first_error = Some(err);
                    }
                }
                Err(_) => {
                    if first_error.is_none() {
                        first_error = Some(SpeError::OperatorPanicked {
                            operator: thread.name,
                        });
                    }
                }
            }
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        // The threads are joined, so the registry's sink-latency histograms are
        // final: attach each operator's snapshot (sinks only, in practice), which
        // carries the name of the thread's last stage.
        for op in &mut operators {
            let last = op.stages.last().map_or(&op.stats.name, |s| &s.name);
            op.latency = registry
                .histogram_snapshot("genealog_sink_latency_ns", &[("operator", last)])
                .filter(|snapshot| !snapshot.is_empty());
        }
        Ok(QueryReport {
            operators,
            wall_time: self.started.elapsed(),
        })
    }
}

/// Spawns the chain threads of a validated query, one per chain.
pub(crate) fn spawn(
    operators: Vec<OperatorSpec>,
    stop: Arc<AtomicBool>,
    checkpoints: crate::state::CheckpointHandle,
    registry: Arc<MetricsRegistry>,
) -> QueryHandle {
    let started = Instant::now();
    let running = Arc::new(AtomicUsize::new(operators.len()));
    let threads = operators
        .into_iter()
        .map(|spec| {
            let OperatorSpec {
                head,
                tail,
                grouped,
                counters,
                op,
            } = spec;
            let name = op.name().to_string();
            let thread_name = format!("spe-{name}");
            let stop_on_panic = Arc::clone(&stop);
            let checkpoints = Arc::clone(&checkpoints);
            let running = Arc::clone(&running);
            let panic_name = name.clone();
            // The per-stage entry of the ledger: the thread increments its
            // clone, `wait` reads this one after the join.
            let rows = counters.clone();
            let handle = std::thread::Builder::new()
                .name(thread_name)
                .spawn(move || {
                    Tracer::global().emit("operator-start", panic_name.clone(), "spawned");
                    // A panicking operator must not leave the query wedged:
                    // catching the unwind lets us (1) raise the stop flag so
                    // rate-limited sources cease producing, and (2) turn the
                    // panic into a structured error naming the operator.
                    // Unwinding has already dropped the operator's channel
                    // endpoints, so peers drain out naturally: downstream sees
                    // end-of-stream, upstream sees a closed channel.
                    let result =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                            op.run(rows)
                        })) {
                            Ok(result) => {
                                Tracer::global().emit(
                                    "operator-stop",
                                    panic_name.clone(),
                                    "finished",
                                );
                                result
                            }
                            Err(_) => {
                                stop_on_panic.store(true, Ordering::Relaxed);
                                Tracer::global().emit(
                                    "operator-panic",
                                    panic_name.clone(),
                                    "operator thread panicked; stop flag raised",
                                );
                                Err(SpeError::OperatorPanicked {
                                    operator: panic_name,
                                })
                            }
                        };
                    if result.is_err() {
                        // Keep post-failure commits from other threads out of
                        // the store, so no epoch influenced by the failure can
                        // reach completeness and become the restore point.
                        if let Some(config) = checkpoints.get() {
                            config.store.fence();
                        }
                    }
                    // Panics are already caught above, so this runs on every
                    // exit path and the completion probe cannot stay stuck.
                    running.fetch_sub(1, Ordering::Release);
                    result
                })
                .expect("failed to spawn operator thread");
            OperatorThread {
                head,
                tail,
                name,
                grouped,
                counters,
                handle,
            }
        })
        .collect();
    QueryHandle {
        threads,
        stop,
        started,
        registry,
        running,
    }
}

#[cfg(test)]
mod tests {
    use super::{OperatorReport, QueryReport};
    use crate::operator::source::{RateLimit, SourceConfig, VecSource};
    use crate::operator::OperatorStats;
    use crate::provenance::NoProvenance;
    use crate::query::{NodeKind, Query};

    fn op(name: &str, tuples_in: u64, tuples_out: u64, stages: &[(&str, u64)]) -> OperatorReport {
        let mut stats = OperatorStats::new(name.to_string());
        stats.tuples_in = tuples_in;
        stats.tuples_out = tuples_out;
        OperatorReport {
            kind: NodeKind::Aggregate,
            head: NodeKind::Aggregate,
            tail: NodeKind::Aggregate,
            instances: 1,
            stats,
            stages: stages
                .iter()
                .map(|(stage, n)| {
                    let mut s = OperatorStats::new(stage.to_string());
                    s.tuples_in = *n;
                    s.tuples_out = *n;
                    s
                })
                .collect(),
            latency: None,
        }
    }

    #[test]
    fn merge_distributed_ignores_empty_instance_reports() {
        let ms = std::time::Duration::from_millis;
        let merged = QueryReport::merge_distributed([
            QueryReport::from_parts(vec![], ms(30)),
            QueryReport::from_parts(vec![op("agg", 7, 3, &[])], ms(10)),
            QueryReport::from_parts(vec![], ms(20)),
        ]);
        // Empty instances contribute no operators but still count into wall time
        // (the deployment waited on them).
        assert_eq!(merged.operator_stats().len(), 1);
        assert_eq!(merged.operator("agg").unwrap().stats.tuples_in, 7);
        assert_eq!(merged.operator("agg").unwrap().instances, 1);
        assert_eq!(merged.wall_time(), ms(30));
        // Degenerate but legal: merging nothing at all.
        let empty = QueryReport::merge_distributed([]);
        assert!(empty.operator_stats().is_empty());
        assert_eq!(empty.sink_tuples(), 0);
    }

    #[test]
    fn merge_distributed_folds_matching_stage_shapes_positionally() {
        let merged = QueryReport::merge_distributed([
            QueryReport::from_parts(
                vec![op("chain", 10, 4, &[("keep", 10), ("scale", 6)])],
                std::time::Duration::ZERO,
            ),
            QueryReport::from_parts(
                vec![op("chain", 20, 8, &[("keep", 20), ("scale", 12)])],
                std::time::Duration::ZERO,
            ),
        ]);
        let chain = merged.operator("chain").unwrap();
        assert_eq!(chain.instances, 2);
        assert_eq!(chain.stats.tuples_in, 30);
        assert_eq!(chain.stages.len(), 2);
        assert_eq!(merged.fused_stage("keep").unwrap().tuples_in, 30);
        assert_eq!(merged.fused_stage("scale").unwrap().tuples_in, 18);
    }

    #[test]
    fn merge_distributed_keeps_first_stages_on_mismatched_shapes() {
        // An instance reporting the chain unfused (no stages) merges its top-level
        // counters into whichever stage shape arrived first — in either order.
        let fused = || {
            QueryReport::from_parts(
                vec![op("chain", 5, 2, &[("keep", 5), ("scale", 3)])],
                std::time::Duration::ZERO,
            )
        };
        let unfused =
            || QueryReport::from_parts(vec![op("chain", 7, 3, &[])], std::time::Duration::ZERO);

        let merged = QueryReport::merge_distributed([fused(), unfused()]);
        let chain = merged.operator("chain").unwrap();
        assert_eq!(chain.stats.tuples_in, 12, "top-level counters always fold");
        assert_eq!(chain.stages.len(), 2, "the fused shape survives");
        assert_eq!(merged.fused_stage("keep").unwrap().tuples_in, 5);

        let merged = QueryReport::merge_distributed([unfused(), fused()]);
        let chain = merged.operator("chain").unwrap();
        assert_eq!(chain.stats.tuples_in, 12);
        assert_eq!(
            chain.stages.len(),
            2,
            "an empty shape adopts the later instance's stages"
        );

        // Genuinely different non-empty shapes: first shape wins, counters of the
        // conflicting stages are dropped rather than mis-attributed positionally.
        let other = QueryReport::from_parts(
            vec![op("chain", 9, 9, &[("resample", 9)])],
            std::time::Duration::ZERO,
        );
        let merged = QueryReport::merge_distributed([fused(), other]);
        let chain = merged.operator("chain").unwrap();
        assert_eq!(chain.stats.tuples_in, 14);
        assert_eq!(chain.stages.len(), 2);
        assert!(merged.fused_stage("resample").is_none());
        assert_eq!(merged.fused_stage("keep").unwrap().tuples_in, 5);
    }

    #[test]
    fn report_aggregates_source_and_sink_counts() {
        let mut q = Query::new(NoProvenance);
        let src = q.source("numbers", VecSource::with_period((0..100i64).collect(), 10));
        let kept = q.filter("keep-half", src, |x| x % 2 == 0);
        let _ = q.collecting_sink("sink", kept);
        let report = q.deploy().unwrap().wait().unwrap();
        assert_eq!(report.source_tuples(), 100);
        assert_eq!(report.sink_tuples(), 50);
        assert!(report.source_throughput() > 0.0);
        assert!(report.wall_time() > std::time::Duration::ZERO);
        assert!(report.operator("keep-half").is_some());
        assert_eq!(report.operator("keep-half").unwrap().stats.tuples_out, 50);
        assert!(report.operator("missing").is_none());
    }

    #[test]
    fn rendered_report_lists_fused_stage_counters() {
        use crate::query::QueryConfig;
        let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(true));
        let src = q.source("numbers", VecSource::with_period((0..10i64).collect(), 10));
        let evens = q.filter("evens", src, |x| x % 2 == 0);
        let doubled = q.map_one("double", evens, |x| x * 2);
        let _ = q.collecting_sink("sink", doubled);
        let report = q.deploy().unwrap().wait().unwrap();
        let rendered = report.render_operators();
        // The chain row names the fused thread; the indented rows keep the
        // original operators' counters visible.
        assert!(rendered.contains("numbers+evens+double"));
        assert!(rendered.contains("\u{21b3} evens"));
        assert!(rendered.contains("\u{21b3} double"));
        assert!(rendered.contains("(fused)"));
    }

    #[test]
    fn stop_flag_terminates_a_rate_limited_query_early() {
        let mut q = Query::new(NoProvenance);
        let src = q.source_with(
            "slow",
            VecSource::with_period((0..1_000_000i64).collect(), 1),
            SourceConfig {
                rate: RateLimit::TuplesPerSecond(10_000),
                watermark_every: 1,
            },
        );
        let _ = q.collecting_sink("sink", src);
        let handle = q.deploy().unwrap();
        assert!(!handle.is_stopping());
        std::thread::sleep(std::time::Duration::from_millis(50));
        handle.stop();
        assert!(handle.is_stopping());
        let report = handle.wait().unwrap();
        assert!(report.source_tuples() < 1_000_000);
    }
}
