//! Live metrics registry: lock-free counters, gauges and log-scale histograms.
//!
//! Operators, channels, sources and the checkpoint path publish into a
//! [`MetricsRegistry`] continuously while a query runs; consumers (the runtime's
//! `QueryReport`, the embedded control endpoint's `/metrics` page) read a
//! point-in-time [`MetricsRegistry::snapshot`] of the same instruments. The hot path
//! is a relaxed atomic add — registration (the cold path) takes a mutex, reading
//! never blocks writers.
//!
//! Instruments are keyed by `(metric name, labels)`: asking for the same key twice
//! returns the same instrument, which is what makes the registry **shard-aware** —
//! every shard instance of a logical operator increments one shared counter, so the
//! registry needs no fold step when shards report.
//!
//! Remote SPE instances ship what they publish themselves
//! ([`MetricsRegistry::local_samples`], framed by the engine's one value codec,
//! `genealog_spe::codec` — this crate sits below it and has no byte format of its
//! own) and the origin installs it with [`MetricsRegistry::install_remote`]; the
//! receiving registry folds the latest snapshot of every remote instance into its
//! own samples, so a query spanning instances reads as one surface. Installing a
//! newer snapshot *replaces* the instance's previous one (set-latest semantics),
//! making delivery idempotent under retries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of power-of-two histogram buckets: bucket `i` covers values whose
/// bit-length is `i` (bucket 0 holds the value 0), so `u64::MAX` lands in bucket 64.
const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (relaxed atomic add on the hot path).
///
/// Counters are always live, even on a disabled registry: the runtime's
/// `QueryReport` is assembled from them, so they are the one instrument that cannot
/// be turned off.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge (relaxed atomic store on the hot path). Inert when minted by
/// a disabled registry.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    inert: bool,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        if !self.inert {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the gauge by `delta`, for a reading that several writers each hold a
    /// share of (the shard instances of one logical operator): every writer publishes
    /// the change of its own share and the gauge reads the sum.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        if !self.inert {
            // Two's-complement add: a negative delta wraps to the subtraction.
            self.value.fetch_add(delta as u64, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log-scale (power-of-two buckets) histogram for latency-style values.
///
/// `record` is two relaxed adds and one relaxed increment — no locks — which keeps
/// it viable on per-tuple paths. Quantiles are estimated from the bucket upper
/// bounds, which for power-of-two buckets means at most a 2x overestimate; the
/// approximation is the price of a fixed-size lock-free layout. Inert when minted
/// by a disabled registry.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    inert: bool,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            inert: false,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if self.inert {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: mergeable (bucket-wise sum) and able to
/// answer quantile queries, so distributed report folds keep working on snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl HistogramSnapshot {
    /// Reassembles a snapshot from its parts (what a decoder read off the wire).
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64) -> Self {
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }

    /// Observations per power-of-two bucket (bucket `i` holds values of bit-length `i`).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of observations in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the bucket holding
    /// the `ceil(q * count)`-th observation. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(self.buckets.len().saturating_sub(1))
    }

    /// Folds `other` into this snapshot (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Label set of a sample: `(key, value)` pairs, sorted for deterministic output.
pub type Labels = Vec<(String, String)>;

/// The value of one sample in a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A monotonic counter reading.
    Counter(u64),
    /// A last-value gauge reading.
    Gauge(u64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl SampleValue {
    fn fold(&mut self, other: &SampleValue) {
        match (self, other) {
            (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
            (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
            (SampleValue::Histogram(a), SampleValue::Histogram(b)) => a.merge(b),
            // Mismatched kinds under one key (a misbehaving remote): keep ours.
            _ => {}
        }
    }
}

/// One `(name, labels, value)` triple of a registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (e.g. `genealog_operator_tuples_in_total`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Labels,
    /// The reading.
    pub value: SampleValue,
}

type SampleKey = (String, Labels);
type CollectFn = Arc<dyn Fn() -> u64 + Send + Sync>;

#[derive(Clone, Copy, PartialEq, Eq)]
enum CollectKind {
    Counter,
    Gauge,
}

/// The live metrics registry (see the module docs).
pub struct MetricsRegistry {
    enabled: bool,
    counters: Mutex<BTreeMap<SampleKey, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<SampleKey, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<SampleKey, Arc<Histogram>>>,
    collected: Mutex<BTreeMap<SampleKey, (CollectKind, CollectFn)>>,
    remotes: Mutex<BTreeMap<String, Vec<Sample>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> SampleKey {
    let mut labels: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl MetricsRegistry {
    /// Creates an enabled registry.
    pub fn new() -> Arc<Self> {
        Self::with_enabled(true)
    }

    /// Creates a disabled registry: counters stay live (reports depend on them),
    /// but gauges and histograms are inert and collector closures are dropped.
    /// This is the "metrics off" mode the overhead benchmark sweeps against.
    pub fn disabled() -> Arc<Self> {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Arc<Self> {
        Arc::new(MetricsRegistry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            collected: Mutex::new(BTreeMap::new()),
            remotes: Mutex::new(BTreeMap::new()),
        })
    }

    /// Whether gauges, histograms and collectors are live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the counter registered under `(name, labels)`, creating it on first
    /// use. The same key always returns the same instrument.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .entry(key(name, labels))
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// Returns the gauge registered under `(name, labels)`, creating it on first
    /// use (inert on a disabled registry).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let inert = !self.enabled;
        Arc::clone(
            self.gauges
                .lock()
                .entry(key(name, labels))
                .or_insert_with(|| {
                    Arc::new(Gauge {
                        value: AtomicU64::new(0),
                        inert,
                    })
                }),
        )
    }

    /// Returns the histogram registered under `(name, labels)`, creating it on
    /// first use (inert on a disabled registry).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let inert = !self.enabled;
        Arc::clone(
            self.histograms
                .lock()
                .entry(key(name, labels))
                .or_insert_with(|| {
                    Arc::new(Histogram {
                        inert,
                        ..Histogram::default()
                    })
                }),
        )
    }

    /// Registers a gauge whose value is computed at snapshot time by `f` — zero
    /// hot-path cost, ideal for readings that already exist as an atomic somewhere
    /// (queue depths, backend byte counters). Dropped on a disabled registry.
    pub fn gauge_fn(&self, name: &str, labels: &[(&str, &str)], f: CollectFn) {
        if self.enabled {
            self.collected
                .lock()
                .insert(key(name, labels), (CollectKind::Gauge, f));
        }
    }

    /// Registers a counter computed at snapshot time (see [`MetricsRegistry::gauge_fn`]).
    pub fn counter_fn(&self, name: &str, labels: &[(&str, &str)], f: CollectFn) {
        if self.enabled {
            self.collected
                .lock()
                .insert(key(name, labels), (CollectKind::Counter, f));
        }
    }

    /// The snapshot of the histogram under `(name, labels)`, if one was registered
    /// on this registry (local instruments only — remote samples are folded into
    /// [`MetricsRegistry::snapshot`]).
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        self.histograms
            .lock()
            .get(&key(name, labels))
            .map(|h| h.snapshot())
    }

    /// Installs (replacing any previous) the latest snapshot shipped by the remote
    /// instance `instance`. Folded into every subsequent [`MetricsRegistry::snapshot`].
    pub fn install_remote(&self, instance: &str, samples: Vec<Sample>) {
        self.remotes.lock().insert(instance.to_string(), samples);
    }

    /// Samples only the instruments registered locally: no collectors, no remotes.
    fn local_instrument_samples(&self) -> Vec<Sample> {
        let mut out = Vec::new();
        for ((name, labels), c) in self.counters.lock().iter() {
            out.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Counter(c.get()),
            });
        }
        for ((name, labels), g) in self.gauges.lock().iter() {
            out.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Gauge(g.get()),
            });
        }
        for ((name, labels), h) in self.histograms.lock().iter() {
            out.push(Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: SampleValue::Histogram(h.snapshot()),
            });
        }
        out
    }

    /// Samples the collector closures (counter_fn / gauge_fn registrations).
    fn collector_samples(&self) -> Vec<Sample> {
        self.collected
            .lock()
            .iter()
            .map(|((name, labels), (kind, f))| {
                let v = f();
                Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match kind {
                        CollectKind::Counter => SampleValue::Counter(v),
                        CollectKind::Gauge => SampleValue::Gauge(v),
                    },
                }
            })
            .collect()
    }

    /// Everything this instance publishes itself: local instruments plus collector
    /// closures, but no remote snapshots. This is what an instance ships to another
    /// instance's [`MetricsRegistry::install_remote`], so chained installs can never
    /// double-fold a third instance.
    pub fn local_samples(&self) -> Vec<Sample> {
        let mut out = self.local_instrument_samples();
        out.extend(self.collector_samples());
        out
    }

    /// A point-in-time snapshot: every local instrument, every collector closure,
    /// and the latest snapshot of every remote instance, folded by `(name, labels)`
    /// (counters and gauges sum, histograms merge bucket-wise) and sorted.
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut folded: BTreeMap<SampleKey, SampleValue> = BTreeMap::new();
        let mut absorb = |sample: Sample| {
            folded
                .entry((sample.name, sample.labels))
                .and_modify(|v| v.fold(&sample.value))
                .or_insert(sample.value);
        };
        for sample in self.local_samples() {
            absorb(sample);
        }
        for samples in self.remotes.lock().values() {
            for sample in samples {
                absorb(sample.clone());
            }
        }
        folded
            .into_iter()
            .map(|((name, labels), value)| Sample {
                name,
                labels,
                value,
            })
            .collect()
    }

    /// Renders the snapshot in the Prometheus text exposition format (v0.0.4).
    /// Histograms are rendered as summaries with `quantile` labels (p50/p95/p99)
    /// plus `_sum` and `_count` series.
    pub fn render_prometheus(&self) -> String {
        let samples = self.snapshot();
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in &samples {
            if last_name != Some(sample.name.as_str()) {
                let kind = match sample.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "summary",
                };
                out.push_str(&format!("# TYPE {} {}\n", sample.name, kind));
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                SampleValue::Counter(v) | SampleValue::Gauge(v) => {
                    out.push_str(&sample.name);
                    out.push_str(&render_labels(&sample.labels, None));
                    out.push_str(&format!(" {v}\n"));
                }
                SampleValue::Histogram(h) => {
                    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                        out.push_str(&sample.name);
                        out.push_str(&render_labels(&sample.labels, Some(label)));
                        out.push_str(&format!(" {}\n", h.quantile(q)));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

fn render_labels(labels: &Labels, quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value as the Prometheus text format requires: backslash,
/// double quote and line feed become `\\`, `\"` and `\n`, so a user-supplied
/// operator or edge name cannot break a sample line.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_the_same_instrument() {
        let r = MetricsRegistry::new();
        let a = r.counter("genealog_operator_tuples_in_total", &[("operator", "agg")]);
        let b = r.counter("genealog_operator_tuples_in_total", &[("operator", "agg")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7, "shard instances share one counter");
        let other = r.counter("genealog_operator_tuples_in_total", &[("operator", "src")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn disabled_registry_keeps_counters_but_inerts_the_rest() {
        let r = MetricsRegistry::disabled();
        let c = r.counter("c_total", &[]);
        c.inc();
        assert_eq!(c.get(), 1);
        let g = r.gauge("g", &[]);
        g.set(9);
        assert_eq!(g.get(), 0, "disabled gauge is inert");
        let h = r.histogram("h_ns", &[]);
        h.record(100);
        assert!(h.snapshot().is_empty());
        r.gauge_fn("gf", &[], Arc::new(|| 42));
        assert!(!r.snapshot().iter().any(|s| s.name == "gf"));
    }

    #[test]
    fn histogram_quantiles_are_log_bucket_upper_bounds() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 101_106);
        // p50 → 3rd of 6 observations → the bucket of 3 → upper bound 3.
        assert_eq!(s.quantile(0.5), 3);
        // p99 → 6th observation → bucket of 100_000 (2^16..2^17) → 131071.
        assert_eq!(s.quantile(0.99), (1 << 17) - 1);
        assert_eq!(s.quantile(0.0), 1, "rank floors at the first observation");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let a = Histogram::default();
        a.record(5);
        let b = Histogram::default();
        b.record(5);
        b.record(7);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 17);
        assert_eq!(s.quantile(1.0), 7);
    }

    #[test]
    fn gauge_fn_is_sampled_at_snapshot_time() {
        let r = MetricsRegistry::new();
        let depth = Arc::new(AtomicU64::new(0));
        let probe = Arc::clone(&depth);
        r.gauge_fn(
            "genealog_channel_queue_depth",
            &[("edge", "a->b")],
            Arc::new(move || probe.load(Ordering::Relaxed)),
        );
        depth.store(12, Ordering::Relaxed);
        let snap = r.snapshot();
        let sample = snap
            .iter()
            .find(|s| s.name == "genealog_channel_queue_depth")
            .expect("collector sampled");
        assert_eq!(sample.value, SampleValue::Gauge(12));
    }

    #[test]
    fn local_samples_install_as_a_remote_and_fold() {
        let remote = MetricsRegistry::new();
        remote.counter("ops_total", &[("operator", "agg")]).add(10);
        remote.histogram("lat_ns", &[]).record(64);
        // A third instance installed at the remote is not part of what it ships.
        remote.install_remote("elsewhere", remote.local_samples());
        let shipped = remote.local_samples();
        assert_eq!(shipped.len(), 2);

        let origin = MetricsRegistry::new();
        origin.counter("ops_total", &[("operator", "agg")]).add(5);
        origin.install_remote("shard0", shipped.clone());
        // Installing a newer snapshot replaces the older one (idempotent delivery).
        origin.install_remote("shard0", shipped);

        let snap = origin.snapshot();
        let counter = snap.iter().find(|s| s.name == "ops_total").unwrap();
        assert_eq!(counter.value, SampleValue::Counter(15));
        let hist = snap.iter().find(|s| s.name == "lat_ns").unwrap();
        match &hist.value {
            SampleValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn prometheus_rendering_has_type_lines_labels_and_quantiles() {
        let r = MetricsRegistry::new();
        r.counter("genealog_operator_tuples_in_total", &[("operator", "agg")])
            .add(40);
        r.gauge("genealog_source_barrier_epoch", &[("operator", "src")])
            .set(3);
        r.histogram("genealog_sink_latency_ns", &[("operator", "sink")])
            .record(1500);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE genealog_operator_tuples_in_total counter"));
        assert!(text.contains("genealog_operator_tuples_in_total{operator=\"agg\"} 40"));
        assert!(text.contains("# TYPE genealog_source_barrier_epoch gauge"));
        assert!(text.contains("# TYPE genealog_sink_latency_ns summary"));
        assert!(text.contains("genealog_sink_latency_ns{operator=\"sink\",quantile=\"0.5\"} 2047"));
        assert!(text.contains("genealog_sink_latency_ns_count{operator=\"sink\"} 1"));
        assert!(text.contains("genealog_sink_latency_ns_sum{operator=\"sink\"} 1500"));
    }

    #[test]
    fn label_values_escape_newlines_quotes_and_backslashes() {
        let r = MetricsRegistry::new();
        r.counter(
            "genealog_operator_tuples_in_total",
            &[("operator", "a\nb\"c\\d")],
        )
        .add(1);
        let text = r.render_prometheus();
        assert!(
            text.contains("genealog_operator_tuples_in_total{operator=\"a\\nb\\\"c\\\\d\"} 1\n"),
            "{text}"
        );
        // Every line is a comment or a whole sample: the value did not split one.
        assert!(text
            .lines()
            .all(|line| line.starts_with('#') || line.starts_with("genealog_")));
    }
}
