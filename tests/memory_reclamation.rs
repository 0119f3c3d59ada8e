//! Challenge C2: GeneaLog must not retain source tuples that do not contribute to any
//! sink tuple. Because the upstream pointers are reference-counted, a source tuple's
//! memory is reclaimed as soon as no in-flight or sink tuple references it — in
//! contrast to the baseline, which retains every source tuple it has ever seen.

use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::Instant;

use genealog::prelude::*;
use genealog_baseline::AriadneBaseline;
use genealog_metrics::{MetricsRegistry, SampleValue};
use genealog_spe::Query;
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::queries::build_q1;

fn lr_config() -> LinearRoadConfig {
    LinearRoadConfig {
        cars: 50,
        rounds: 30,
        ..LinearRoadConfig::default()
    }
}

#[test]
fn genealog_keeps_only_contributing_sources_alive() {
    let config = lr_config();
    let generator = LinearRoadGenerator::new(config);
    let breakdown_cars = generator.breakdown_cars().len() as u64;

    let mut q = GlQuery::new(GeneaLog::new());
    let reports = q.source("lr", generator);
    let alerts = build_q1(&mut q, reports);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
    q.discard(out);
    q.deploy().unwrap().wait().unwrap();

    // After the run, the only tuples still reachable are those referenced by the
    // collected provenance. Take weak handles to them and drop the collector: they
    // must be reclaimed immediately.
    let assignments = provenance.assignments();
    assert!(!assignments.is_empty());
    let alerts_with_provenance = assignments.len() as u64;
    assert!(alerts_with_provenance >= breakdown_cars);

    let weak_sources: Vec<std::sync::Weak<dyn genealog::ProvNode>> = assignments
        .iter()
        .flat_map(|a| a.sources.iter().map(Arc::downgrade))
        .collect();
    assert!(weak_sources.iter().all(|w| w.upgrade().is_some()));

    drop(assignments);
    drop(provenance);
    assert!(
        weak_sources.iter().all(|w| w.upgrade().is_none()),
        "source tuples must be reclaimed once nothing references their provenance"
    );
}

#[test]
fn genealog_retains_nothing_when_no_alerts_fire() {
    // A query whose filter never matches: every source tuple is non-contributing, so
    // GeneaLog must not keep any of them alive after the run.
    let mut q = GlQuery::new(GeneaLog::new());
    let reports = q.source("lr", LinearRoadGenerator::new(lr_config()));
    let none = q.filter("never", reports, |_| false);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", none);
    q.discard(out);
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(provenance.unfolded_count(), 0);
    assert!(provenance.assignments().is_empty());
}

#[test]
fn baseline_retains_every_source_tuple_even_without_alerts() {
    // The same no-alert query under the baseline: the source store still holds every
    // source tuple, which is exactly the memory behaviour the paper criticises.
    let config = lr_config();
    let baseline = AriadneBaseline::new();
    let mut q = Query::new(baseline.clone());
    let reports = q.source("lr", LinearRoadGenerator::new(config));
    let none = q.filter("never", reports, |_| false);
    let out = q.collecting_sink("alerts", none);
    q.deploy().unwrap().wait().unwrap();
    assert!(out.is_empty());
    assert_eq!(
        baseline.store().len() as u64,
        config.total_reports(),
        "the baseline retains the entire source stream"
    );
}

#[test]
fn window_tuples_are_released_after_their_windows_close() {
    // Aggregate over a sliding window, never raising alerts: the window store must not
    // accumulate tuples beyond the open windows (the engine purges closed windows, and
    // GeneaLog's pointers do not resurrect them).
    let mut q = GlQuery::new(GeneaLog::new());
    let reports = q.source("lr", LinearRoadGenerator::new(lr_config()));
    let counts = genealog_workloads::queries::q1_stage1(&mut q, reports);
    // Impossible threshold: no alert is ever produced downstream.
    let alerts = q.filter("impossible", counts, |c| c.count > 1_000);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
    q.discard(out);
    let report = q.deploy().unwrap().wait().unwrap();
    assert!(report.source_tuples() > 0);
    assert_eq!(provenance.unfolded_count(), 0);
}

// ---------------------------------------------------------------------------
// Return-to-source reclamation: a sink that is the last holder of a GL graph
// hands it to a running Source, which frees it on its own thread. Wherever the
// graph is freed, nothing may survive the query.
// ---------------------------------------------------------------------------

type Origins = Arc<Mutex<Vec<Weak<dyn ProvNode>>>>;

/// The readings `0..len`, 100 ms apart, with hooks that pin down when their Source
/// runs relative to the sink.
#[derive(Default)]
struct Readings {
    next: i64,
    len: i64,
    /// Waited for before the first reading.
    after: Option<mpsc::Receiver<()>>,
    /// `(n, registry, metric)`: reading `n` is held back until `metric` reads
    /// above zero — a sink has handed the Sources a graph to free (`retired`), or
    /// one is waiting for this very source (`pending`).
    hold_at: Option<(i64, Arc<MetricsRegistry>, &'static str)>,
    /// Signalled when the generator is dropped, which is after its Source left.
    _on_drop: Option<Signal>,
    /// Panic where the stream would end.
    fail_at_end: bool,
}

impl SourceGenerator for Readings {
    type Item = i64;

    fn next_tuple(&mut self) -> Option<(Timestamp, i64)> {
        if let Some(after) = self.after.take() {
            after
                .recv()
                .expect("the signal is sent before its sender drops");
        }
        if let Some((n, registry, metric)) = &self.hold_at {
            if self.next == *n {
                let deadline = Instant::now() + std::time::Duration::from_secs(30);
                while sample(registry, metric) == 0 {
                    if Instant::now() > deadline {
                        return None; // gives up: a short stream fails every test
                    }
                    std::thread::yield_now();
                }
            }
        }
        if self.next == self.len {
            assert!(!self.fail_at_end, "injected generator failure");
            return None;
        }
        self.next += 1;
        Some((Timestamp::from_millis(self.next as u64 * 100), self.next))
    }
}

/// Sends once, when dropped.
struct Signal(mpsc::Sender<()>);

impl Drop for Signal {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// `input → map → tumbling aggregate → sink`. The sink runs `before`, then takes a
/// `Weak` handle to every origin of the sink tuple through `find_provenance` and
/// keeps nothing else, so it is the last holder of each window's graph.
fn map_aggregate_sink(
    q: &mut GlQuery,
    input: StreamRef<i64, GlMeta>,
    window: Duration,
    mut before: impl FnMut() + Send + 'static,
) -> Origins {
    let scaled = q.map_one("scale", input, |v: &i64| v * 2);
    let sums = q.aggregate(
        "sum",
        scaled,
        WindowSpec::tumbling(window).unwrap(),
        |_: &i64| 0u8,
        |w: &WindowView<'_, u8, i64, GlMeta>| w.payloads().sum::<i64>(),
    );
    let origins: Origins = Default::default();
    let seen = Arc::clone(&origins);
    q.sink("out", sums, move |t| {
        before();
        let origins = find_provenance(&genealog::erase(t));
        seen.lock()
            .unwrap()
            .extend(origins.iter().map(Arc::downgrade));
    });
    origins
}

const RETIRED: &str = "genealog_reclaim_retired_total";
const PENDING: &str = "genealog_reclaim_pending";

fn sample(registry: &MetricsRegistry, metric: &str) -> u64 {
    registry
        .snapshot()
        .into_iter()
        .find(|s| s.name == metric)
        .map_or(0, |s| match s.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => v,
            other => panic!("{metric} is a histogram: {other:?}"),
        })
}

fn all_dead(origins: &Origins) -> bool {
    origins
        .lock()
        .unwrap()
        .iter()
        .all(|w| w.upgrade().is_none())
}

#[test]
fn window_graphs_retired_to_the_source_do_not_outlive_the_query() {
    for fusion in [false, true] {
        let mut q =
            GlQuery::with_config(GeneaLog::new(), QueryConfig::default().with_fusion(fusion));
        let readings = Readings {
            len: 2_000,
            hold_at: Some((1_000, q.registry(), RETIRED)),
            ..Default::default()
        };
        let readings = q.source("readings", readings);
        let origins = map_aggregate_sink(&mut q, readings, Duration::from_secs(1), || {});
        let registry = q.registry();
        q.deploy().unwrap().wait().unwrap();
        assert_eq!(origins.lock().unwrap().len(), 2_000, "fusion={fusion}");
        assert!(sample(&registry, RETIRED) > 0, "fusion={fusion}");
        assert!(
            all_dead(&origins),
            "fusion={fusion}: a retired graph survived wait()"
        );
    }
}

/// Fused, `readings → scale → sum → out` is one chain on the source's thread: the
/// sink's callback runs there too. Whether a window closes at a watermark, at the
/// final watermark or in the aggregate's end-of-stream flush, its graph is dead by
/// `wait()` and nothing is left waiting for a Source.
#[test]
fn a_chain_through_the_aggregate_frees_every_graph_on_one_thread() {
    for window in [Duration::from_secs(1), Duration::from_hours(1)] {
        let mut q = GlQuery::with_config(GeneaLog::new(), QueryConfig::default().with_fusion(true));
        let readings = Readings {
            len: 2_000,
            ..Default::default()
        };
        let readings = q.source("readings", readings);
        let origins = map_aggregate_sink(&mut q, readings, window, || {});
        let registry = q.registry();
        let report = q.deploy().unwrap().wait().unwrap();
        assert_eq!(report.operator_stats().len(), 1, "{window:?}: one thread");
        assert!(report.operator("readings+scale+sum+out").is_some());
        assert_eq!(origins.lock().unwrap().len(), 2_000, "{window:?}");
        assert_eq!(sample(&registry, PENDING), 0, "{window:?}");
        assert!(all_dead(&origins), "{window:?}: a graph survived wait()");
    }
}

#[test]
fn a_union_keeps_draining_after_its_short_source_ends() {
    let mut q = GlQuery::new(GeneaLog::new());
    let (left, short_left) = mpsc::channel();
    let short = Readings {
        len: 50,
        _on_drop: Some(Signal(left)),
        ..Default::default()
    };
    // The long source starts once the short one has left, and holds back until a
    // sink has retired a graph: only the long source can have drained it.
    let long = Readings {
        len: 2_000,
        after: Some(short_left),
        hold_at: Some((1_000, q.registry(), RETIRED)),
        ..Default::default()
    };
    let short = q.source("short", short);
    let long = q.source("long", long);
    let merged = q.union("both", vec![short, long]);
    let origins = map_aggregate_sink(&mut q, merged, Duration::from_secs(1), || {});
    let registry = q.registry();
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(origins.lock().unwrap().len(), 2_050);
    assert!(sample(&registry, RETIRED) > 0);
    assert!(all_dead(&origins));
}

#[test]
fn windows_closing_after_the_source_left_are_freed_by_the_sink() {
    let mut q = GlQuery::new(GeneaLog::new());
    let (left, source_left) = mpsc::channel();
    let readings = Readings {
        len: 100,
        _on_drop: Some(Signal(left)),
        ..Default::default()
    };
    let readings = q.source("readings", readings);
    // One window holds the whole stream, so it closes only at the final watermark;
    // the sink handles it once the source has left.
    let origins = map_aggregate_sink(&mut q, readings, Duration::from_hours(1), move || {
        let _ = source_left.recv();
    });
    let registry = q.registry();
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(origins.lock().unwrap().len(), 100);
    assert_eq!(sample(&registry, RETIRED), 0, "no source was draining");
    assert!(all_dead(&origins));
}

#[test]
fn a_panicking_source_frees_what_it_was_handed() {
    let mut q = GlQuery::new(GeneaLog::new());
    // The generator fails while a closed window waits for its source to free it:
    // the unwinding source is the one that must.
    let readings = Readings {
        len: 1_000,
        hold_at: Some((1_000, q.registry(), PENDING)),
        fail_at_end: true,
        ..Default::default()
    };
    let readings = q.source("readings", readings);
    let origins = map_aggregate_sink(&mut q, readings, Duration::from_secs(1), || {});
    let registry = q.registry();
    let result = q.deploy().unwrap().wait();
    assert!(
        matches!(result, Err(SpeError::OperatorPanicked { .. })),
        "got {result:?}"
    );
    assert!(!origins.lock().unwrap().is_empty());
    assert_eq!(sample(&registry, PENDING), 0);
    assert!(
        all_dead(&origins),
        "a retired graph survived the unwinding source"
    );
}
