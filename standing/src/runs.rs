//! One engine run: build the inputs, lower and deploy the pipeline, wait for it
//! and collect what came out — everything the metrics are later computed from.
//!
//! Every pipeline is declared on [`LogicalPlan`] with a [`PlannerConfig`]; the one
//! exception is the body of a remote shard, which the distributed crate's
//! shard-group builders take as a closure over the physical `Query`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genealog::{
    erase, find_provenance, logical_provenance_sink, GeneaLog, GlMeta, GlWindowPersister,
};
use genealog_baseline::AriadneBaseline;
use genealog_distributed::deployment::logical_shard_provenance_sink;
use genealog_distributed::{
    remote_shard_group_gl_over, remote_shard_group_over, NetworkConfig, RemoteShardGroup,
    ShardTransport, TcpLoopbackTransport,
};
use genealog_metrics::{MetricsRegistry, SampleValue, TrackingAllocator};
use genealog_spe::logical::{LogicalPlan, LogicalStream};
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::operator::sink::SinkStats;
use genealog_spe::operator::source::{RateLimit, SourceConfig, SourceGenerator};
use genealog_spe::persist::PlainWindowPersister;
use genealog_spe::provenance::{MetaData, NoProvenance, ProvenanceSystem};
use genealog_spe::query::ShardPlacement;
use genealog_spe::runtime::QueryReport;
use genealog_spe::state::{CheckpointConfig, CheckpointStore, InMemoryBackend, StateBackend};
use genealog_spe::tuple::GTuple;
use genealog_spe::{Duration, Parallelism, PlannerConfig, WindowSpec};
use genealog_store::{DurableBackend, StoreOptions};
use genealog_workloads::linear_road::LinearRoadGenerator;
use genealog_workloads::queries::{Q1_STOPPED_REPORTS, Q1_WINDOW_ADVANCE, Q1_WINDOW_SIZE};
use genealog_workloads::types::{PositionReport, StoppedCarCount};

use crate::inputs::{
    lr_config, reading_fingerprint, report_fingerprint, row, zipf_stream, Digest, Reading, Row,
    SliceSource, CHAIN_WINDOW_MS,
};
use crate::trace::{OpenSpan, Recorder};
use crate::wrappers::{
    LagLog, Scheduled, SendLog, SharedSpanCtx, StoreLog, TimedBackend, TimedTransport,
};

/// Shard count of the chain aggregate and TCP link count of `tcp_shards`: fixed at
/// the reference host's `nproc`, never derived from the host the benchmark runs on.
pub const SHARDS: usize = 2;
/// Batch size of the stream transport in every workload.
pub const BATCH: usize = 256;
/// Watermark cadence of the chain source, in tuples.
pub const CHAIN_WATERMARK_EVERY: u64 = 4_096;
/// Watermark cadence of the Linear Road source, in tuples (an eighth of a round).
pub const LR_WATERMARK_EVERY: u64 = 500;
/// Checkpoint interval of `chain_agg_durable`, in source tuples.
pub const CHECKPOINT_INTERVAL: u64 = 20_000;

/// The provenance configuration of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// No provenance.
    Np,
    /// GeneaLog.
    Gl,
    /// The Ariadne-style annotation baseline (`lr_q1` only, informational).
    Bl,
}

impl System {
    /// `"NP"`, `"GL"` or `"BL"`.
    pub fn label(self) -> &'static str {
        match self {
            System::Np => "NP",
            System::Gl => "GL",
            System::Bl => "BL",
        }
    }
}

/// Where the chain pipeline checkpoints to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// No checkpoints: no barrier ever enters the dataflow.
    None,
    /// `CheckpointStore::in_memory()`.
    InMemory,
    /// `DurableBackend` with `StoreOptions::incremental()`.
    Durable,
}

/// The physical variant of the chain pipeline
/// (`source → filter → map → tumbling aggregate → sink`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainOpts {
    /// Fuse the stateless chain into the source thread.
    pub fusion: bool,
    /// Shard instances of the aggregate.
    pub shards: usize,
    /// Publish into the live metrics registry.
    pub metrics: bool,
    /// Checkpoint destination.
    pub store: StoreKind,
    /// Run every aggregate shard on a remote instance over loopback TCP.
    pub remote: bool,
}

impl ChainOpts {
    /// The `chain_agg` configuration.
    pub const LOCAL: ChainOpts = ChainOpts {
        fusion: true,
        shards: SHARDS,
        metrics: true,
        store: StoreKind::None,
        remote: false,
    };
}

/// Which pipeline a run deploys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Linear Road Q1 over `cars` cars.
    Lr {
        /// Cars per reporting round.
        cars: u32,
    },
    /// The chain pipeline.
    Chain(ChainOpts),
}

/// One run to perform.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// What to deploy.
    pub pipeline: Pipeline,
    /// Under which provenance system.
    pub system: System,
    /// Source tuples to inject.
    pub tuples: u64,
    /// Open-loop schedule in tuples per second; `None` runs at max rate.
    pub rate: Option<u64>,
    /// Input seed.
    pub seed: u64,
    /// Set up exactly as for a run, then stop the sources as soon as the
    /// deployment is up: a sample of set-up time that costs no run.
    pub setup_only: bool,
}

/// What a run needs from its surroundings.
#[derive(Debug, Clone)]
pub struct Env {
    /// The process' counting allocator.
    pub alloc: &'static TrackingAllocator,
    /// Directory for durable state (a real filesystem, inside the checkout).
    pub state_root: PathBuf,
    /// Span recorder; wrappers are attached only when it is enabled.
    pub recorder: Arc<Recorder>,
}

/// Wall-clock cost of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Constructing the seeded input.
    pub build_inputs_s: f64,
    /// Opening the checkpoint store.
    pub store_open_s: f64,
    /// Connecting the shard links and deploying the remote instances.
    pub connect_s: f64,
    /// `LogicalPlan::analyze` (lowering plus analysis).
    pub lower_and_analyze_s: f64,
    /// The analysis passes alone, re-run on the same facts for attribution (not
    /// part of the total).
    pub analyze_s: f64,
    /// `Query::deploy` returning.
    pub deploy_s: f64,
}

impl SetupTimes {
    /// Input construction + store open + connect + lower/analyze + deploy.
    pub fn total_s(&self) -> f64 {
        self.build_inputs_s
            + self.store_open_s
            + self.connect_s
            + self.lower_and_analyze_s
            + self.deploy_s
    }
}

/// What the checkpoint store did during a run.
#[derive(Debug, Clone, Default)]
pub struct StoreNumbers {
    /// `put` calls seen by the backend wrapper.
    pub puts: u64,
    /// Serialised snapshot bytes handed to `put`.
    pub snapshot_bytes: u64,
    /// Duration of each `put`.
    pub put_ns: Vec<u64>,
    /// First-put-to-complete latency of each epoch.
    pub epoch_commit_ns: Vec<u64>,
    /// Completed epochs.
    pub epochs: u64,
    /// Bytes the backend physically wrote.
    pub bytes_written: u64,
    /// Segment files (durable only).
    pub segments: u64,
    /// Compactions (durable only).
    pub compactions: u64,
    /// Median fsync latency from the store's own histogram (durable only).
    pub fsync_p50_ns: u64,
    /// Reopening the populated directory and reading back the last complete
    /// epoch of every participant (durable only).
    pub reopen_ms: f64,
}

/// What crossed the shard links during a run.
#[derive(Debug, Clone, Default)]
pub struct WireNumbers {
    /// Frames on all links, both directions.
    pub frames: u64,
    /// Bytes origin → shard, per shard.
    pub forward_bytes: Vec<u64>,
    /// Bytes shard → origin, all shards.
    pub back_bytes: u64,
    /// Frames a demultiplexer had to discard.
    pub dropped_frames: u64,
    /// Duration of each `send_frame`.
    pub send_ns: Vec<u64>,
}

/// Everything measured and observed in one run.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Set-up step timings.
    pub setup: SetupTimes,
    /// From `deploy` returning to the last instance drained, in seconds.
    pub wall_s: f64,
    /// Tuples the sources injected (`QueryReport`).
    pub source_tuples: u64,
    /// Tuples the data sink received (`QueryReport`).
    pub sink_tuples: u64,
    /// Peak live heap above the level before the deployment was built.
    pub peak_bytes: u64,
    /// Heap allocations made during the run.
    pub allocations: u64,
    /// Sink latencies (`SinkStats::latencies_ns`).
    pub latencies_ns: Vec<u64>,
    /// Source schedule lateness samples (paced runs only).
    pub lag_us: Vec<u32>,
    /// Sink tuples in arrival order.
    pub rows: Vec<Row>,
    /// Contribution set per sink tuple (GL runs only).
    pub contributions: Option<Vec<(Row, Digest)>>,
    /// Back-pressure stalls over all edges.
    pub stalls: u64,
    /// The edge with the most stalls (`""` when none stalled).
    pub top_stall_edge: String,
    /// Checkpoint store activity, when the pipeline checkpoints.
    pub store: Option<StoreNumbers>,
    /// Shard link activity, when shards are remote.
    pub wire: Option<WireNumbers>,
    /// Sources retained by the baseline at the end of a BL run.
    pub bl_retained_sources: u64,
}

impl RunOutcome {
    /// Source tuples per wall second.
    pub fn throughput_tps(&self) -> f64 {
        self.source_tuples as f64 / self.wall_s
    }

    /// Wall nanoseconds per source tuple.
    pub fn ns_per_tuple(&self) -> f64 {
        self.wall_s * 1e9 / self.source_tuples as f64
    }

    /// (sink tuple, source tuple) pairs delivered by the provenance path.
    pub fn unfold_records(&self) -> u64 {
        self.contributions
            .as_ref()
            .map_or(0, |c| c.iter().map(|(_, d)| d.count).sum())
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

/// Times `f`, records it as a span under `parent` and returns the seconds taken.
fn step<T>(spans: &SharedSpanCtx, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    spans.record(name, start, end);
    (value, secs(start, end))
}

fn source_config(rate: Option<u64>, watermark_every: u64) -> SourceConfig {
    SourceConfig {
        rate: rate.map_or(RateLimit::Unlimited, RateLimit::TuplesPerSecond),
        watermark_every,
    }
}

type Collected<T> = Arc<Mutex<Vec<(u64, T)>>>;

fn collected<T>() -> Collected<T> {
    Arc::new(Mutex::new(Vec::new()))
}

fn take_rows<T: std::fmt::Debug>(rows: &Collected<T>) -> Vec<Row> {
    let rows = rows.lock().unwrap_or_else(|e| e.into_inner());
    rows.iter().map(|(ts, data)| row(*ts, data)).collect()
}

/// Sum and the stalled edge with the most stalls, from the query's registry.
fn stall_summary(registry: &MetricsRegistry) -> (u64, String) {
    let mut total = 0;
    let mut top = (0, String::new());
    for sample in registry.snapshot() {
        if sample.name != "genealog_channel_backpressure_stalls_total" {
            continue;
        }
        if let SampleValue::Counter(stalls) = sample.value {
            total += stalls;
            if stalls > top.0 {
                let edge = sample
                    .labels
                    .iter()
                    .find(|(k, _)| k == "edge")
                    .map_or(String::new(), |(_, v)| v.clone());
                top = (stalls, edge);
            }
        }
    }
    (total, top.1)
}

/// Memory and allocation counters around the deployment of one run.
struct HeapMark {
    alloc: &'static TrackingAllocator,
    live: usize,
    allocations: usize,
}

impl HeapMark {
    fn take(alloc: &'static TrackingAllocator) -> Self {
        alloc.reset_peak();
        HeapMark {
            alloc,
            live: alloc.live_bytes(),
            allocations: alloc.allocation_count(),
        }
    }

    fn finish(&self, outcome: &mut RunOutcome) {
        outcome.peak_bytes = self.alloc.peak_bytes().saturating_sub(self.live) as u64;
        outcome.allocations = (self.alloc.allocation_count() - self.allocations) as u64;
    }
}

/// Performs one run.
///
/// # Errors
/// Returns the engine's error message when lowering, deploying or running fails;
/// the caller fails every operation of the run.
pub fn run(env: &Env, run_id: u32, spec: &RunSpec) -> Result<RunOutcome, String> {
    match (spec.pipeline, spec.system) {
        (Pipeline::Lr { cars }, System::Np) => run_lr(env, run_id, spec, cars, NoProvenance),
        (Pipeline::Lr { cars }, System::Gl) => run_lr(env, run_id, spec, cars, GeneaLog::new()),
        (Pipeline::Lr { cars }, System::Bl) => {
            run_lr(env, run_id, spec, cars, AriadneBaseline::new())
        }
        (Pipeline::Chain(opts), System::Np) => run_chain(env, run_id, spec, opts, NoProvenance),
        (Pipeline::Chain(opts), System::Gl) => {
            run_chain(env, run_id, spec, opts, GeneaLog::for_instance(0))
        }
        (Pipeline::Chain(_), System::Bl) => Err("the baseline runs on lr_q1 only".into()),
    }
}

// ---------------------------------------------------------------------------
// lr_q1
// ---------------------------------------------------------------------------

fn q1_count<M: MetaData>(w: &WindowView<'_, u32, PositionReport, M>) -> StoppedCarCount {
    let mut positions = std::collections::BTreeSet::new();
    let (mut last_pos, mut count) = (0, 0u32);
    for report in w.payloads() {
        positions.insert(report.pos);
        last_pos = report.pos;
        count += 1;
    }
    StoppedCarCount {
        car_id: *w.key,
        count,
        distinct_pos: positions.len() as u32,
        last_pos,
    }
}

/// Q1 — the paper's running example — declared on the logical plan:
/// `filter(speed = 0) → aggregate(120 s / 30 s per car) → filter(count = 4, one position)`.
fn q1_alerts<P: ProvenanceSystem, G>(
    plan: &LogicalPlan<P>,
    generator: G,
    rate: Option<u64>,
) -> LogicalStream<P, StoppedCarCount>
where
    G: SourceGenerator<Item = PositionReport>,
{
    let window = WindowSpec::new(Q1_WINDOW_SIZE, Q1_WINDOW_ADVANCE).expect("Q1's window is valid");
    plan.source_with(
        "reports",
        generator,
        source_config(rate, LR_WATERMARK_EVERY),
    )
    .filter("q1-speed0", |r: &PositionReport| r.speed == 0)
    .aggregate(
        "q1-count",
        window,
        |r: &PositionReport| r.car_id,
        q1_count::<P::Meta>,
        |c: &StoppedCarCount| c.car_id,
    )
    .filter("q1-alert", |c: &StoppedCarCount| {
        c.count == Q1_STOPPED_REPORTS && c.distinct_pos == 1
    })
}

/// Extracts a run's contribution sets into its outcome once the run has drained.
type Extract = Box<dyn FnOnce(&mut RunOutcome)>;

/// How a provenance system delivers Q1's contribution sets.
trait LrProvenance: ProvenanceSystem {
    /// Attaches the system's provenance path behind the alerts.
    fn attach(
        &self,
        alerts: LogicalStream<Self, StoppedCarCount>,
    ) -> (LogicalStream<Self, StoppedCarCount>, Extract);
}

impl LrProvenance for NoProvenance {
    fn attach(
        &self,
        alerts: LogicalStream<Self, StoppedCarCount>,
    ) -> (LogicalStream<Self, StoppedCarCount>, Extract) {
        (alerts, Box::new(|_| {}))
    }
}

impl LrProvenance for GeneaLog {
    fn attach(
        &self,
        alerts: LogicalStream<Self, StoppedCarCount>,
    ) -> (LogicalStream<Self, StoppedCarCount>, Extract) {
        // The single-stream unfolder of §5 and its collecting provenance sink.
        let (passthrough, collector) = logical_provenance_sink(alerts, "prov");
        let extract = move |outcome: &mut RunOutcome| {
            let contributions = collector
                .assignments()
                .iter()
                .map(|a| {
                    let mut digest = Digest::default();
                    for source in a.source_records::<PositionReport>() {
                        digest.add(report_fingerprint(source.ts.as_millis(), &source.data));
                    }
                    (row(a.sink_ts.as_millis(), &a.sink_data), digest)
                })
                .collect();
            outcome.contributions = Some(contributions);
        };
        (passthrough, Box::new(extract))
    }
}

impl LrProvenance for AriadneBaseline {
    fn attach(
        &self,
        alerts: LogicalStream<Self, StoppedCarCount>,
    ) -> (LogicalStream<Self, StoppedCarCount>, Extract) {
        let store = Arc::clone(self.store());
        let extract = move |outcome: &mut RunOutcome| {
            outcome.bl_retained_sources = store.len() as u64;
        };
        (alerts, Box::new(extract))
    }
}

fn run_lr<P: LrProvenance>(
    env: &Env,
    run_id: u32,
    spec: &RunSpec,
    cars: u32,
    provenance: P,
) -> Result<RunOutcome, String> {
    let mut outcome = RunOutcome::default();
    let scope = Scope::open(&env.recorder, run_id);

    let rounds = (spec.tuples / u64::from(cars)).max(1) as u32;
    let lag = LagLog::new();
    let (generator, build_inputs_s) = step(&scope.in_setup, "workloads.build_inputs", || {
        let inner = LinearRoadGenerator::new(lr_config(spec.seed, cars, rounds));
        Scheduled::new(inner, spec.rate, Arc::clone(&lag))
    });
    outcome.setup.build_inputs_s = build_inputs_s;
    let heap = HeapMark::take(env.alloc);

    let config = PlannerConfig::default().with_batch_size(BATCH);
    let plan = LogicalPlan::with_config(provenance.clone(), config);
    let alerts = q1_alerts(&plan, generator, spec.rate);
    let (alerts, extract) = provenance.attach(alerts);
    let rows = collected::<StoppedCarCount>();
    let sink_rows = Arc::clone(&rows);
    let stats = alerts.sink(
        "sink",
        move |tuple: &Arc<GTuple<StoppedCarCount, P::Meta>>| {
            if let Ok(mut rows) = sink_rows.lock() {
                rows.push((tuple.ts.as_millis(), tuple.data));
            }
        },
    );

    let (report, registry) = execute(plan, scope, None, &mut outcome, spec.setup_only, |_| {})?;
    heap.finish(&mut outcome);
    finish_common(&mut outcome, &report, &registry, &stats, &lag);
    outcome.rows = take_rows(&rows);
    extract(&mut outcome);
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// The chain pipeline: chain_agg, chain_agg_durable, tcp_shards
// ---------------------------------------------------------------------------

fn chain_window() -> WindowSpec {
    WindowSpec::tumbling(Duration::from_millis(CHAIN_WINDOW_MS)).expect("constant window")
}

fn sum_window<M: MetaData>(w: &WindowView<'_, u32, Reading, M>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

/// The remote instances of a shard group plus what the origin needs to reach them.
struct RemoteShards<P: ProvenanceSystem> {
    placements: Vec<ShardPlacement<P, Reading, Reading>>,
    group: RemoteShardGroup,
}

/// What differs between NP and GL on the chain pipeline: the window persister,
/// how shards are placed remotely and how contribution sets are delivered.
trait ChainProvenance: ProvenanceSystem {
    /// Registers the system's window persister so aggregate state crosses the
    /// byte seam instead of staying an inline snapshot.
    fn persist(config: CheckpointConfig) -> CheckpointConfig;

    /// Deploys the remote shard instances over `transport`.
    fn remote_shards(
        transport: &dyn ShardTransport,
        config: &PlannerConfig,
        extras: &mut ChainExtras,
    ) -> Result<RemoteShards<Self>, String>;

    /// Finishes the plan behind the aggregate and returns the data sink's stats.
    fn finish(
        sums: LogicalStream<Self, Reading>,
        extras: &mut ChainExtras,
        sink: ChainSink,
    ) -> Arc<SinkStats>;
}

/// State handed from the system-specific steps to the end of the run.
#[derive(Default)]
struct ChainExtras {
    /// Receivers of the remote instances' unfolded streams (GL, remote).
    provenance_links: Vec<Box<dyn genealog_distributed::FrameSource>>,
    /// Extracts contribution sets once the run has drained.
    extract: Option<Extract>,
}

/// What the data sink's callback records into.
struct ChainSink {
    rows: Collected<Reading>,
    digests: Arc<Mutex<Vec<Digest>>>,
    spans: SharedSpanCtx,
}

impl ChainProvenance for NoProvenance {
    fn persist(config: CheckpointConfig) -> CheckpointConfig {
        config.with_window_persister::<u32, Reading, ()>(Arc::new(PlainWindowPersister))
    }

    fn remote_shards(
        transport: &dyn ShardTransport,
        config: &PlannerConfig,
        _extras: &mut ChainExtras,
    ) -> Result<RemoteShards<Self>, String> {
        let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "agg",
            SHARDS,
            transport,
            config.query_config(),
            |_| NoProvenance,
            |q, _shard, input| {
                q.aggregate(
                    "agg",
                    input,
                    chain_window(),
                    |r: &Reading| r.0,
                    sum_window::<()>,
                )
            },
        )
        .map_err(|e| e.to_string())?;
        Ok(RemoteShards { placements, group })
    }

    fn finish(
        sums: LogicalStream<Self, Reading>,
        _extras: &mut ChainExtras,
        sink: ChainSink,
    ) -> Arc<SinkStats> {
        let rows = sink.rows;
        sums.sink("sink", move |tuple: &Arc<GTuple<Reading, ()>>| {
            if let Ok(mut rows) = rows.lock() {
                rows.push((tuple.ts.as_millis(), tuple.data));
            }
        })
    }
}

impl ChainProvenance for GeneaLog {
    fn persist(config: CheckpointConfig) -> CheckpointConfig {
        config.with_window_persister::<u32, Reading, GlMeta>(Arc::new(GlWindowPersister::<
            u32,
            Reading,
            Reading,
        >::new()))
    }

    fn remote_shards(
        transport: &dyn ShardTransport,
        config: &PlannerConfig,
        extras: &mut ChainExtras,
    ) -> Result<RemoteShards<Self>, String> {
        // Remote instance i allocates tuple ids in namespace 1 + i; the origin is 0.
        let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
            "agg",
            SHARDS,
            1,
            transport,
            config.query_config(),
            |q, _shard, input| {
                q.aggregate(
                    "agg",
                    input,
                    chain_window(),
                    |r: &Reading| r.0,
                    sum_window::<GlMeta>,
                )
            },
        )
        .map_err(|e| e.to_string())?;
        extras.provenance_links = shards.provenance_links;
        Ok(RemoteShards {
            placements: shards.placements,
            group: shards.group,
        })
    }

    fn finish(
        sums: LogicalStream<Self, Reading>,
        extras: &mut ChainExtras,
        sink: ChainSink,
    ) -> Arc<SinkStats> {
        let rows = sink.rows;
        if extras.provenance_links.is_empty() {
            // Local shards: the contribution graph is in this process, so the sink
            // walks it (the paper's Listing 1) and keeps only a digest — nothing
            // outlives the window that produced it.
            let (digests, spans) = (sink.digests, sink.spans);
            extras.extract = Some(Box::new({
                let digests = Arc::clone(&digests);
                move |outcome: &mut RunOutcome| {
                    // The callback pushes a row and its digest together, so the two
                    // lists line up.
                    let digests = digests.lock().unwrap_or_else(|e| e.into_inner());
                    let rows = outcome.rows.iter().cloned();
                    outcome.contributions = Some(rows.zip(digests.iter().copied()).collect());
                }
            }));
            return sums.sink("sink", move |tuple: &Arc<GTuple<Reading, GlMeta>>| {
                let start = Instant::now();
                let origins = find_provenance(&erase(tuple));
                spans.record("core.find_provenance", start, Instant::now());
                let mut digest = Digest::default();
                for origin in &origins {
                    if let Some(reading) = origin.payload::<Reading>() {
                        digest.add(reading_fingerprint(origin.ts().as_millis(), reading));
                    }
                }
                if let (Ok(mut rows), Ok(mut digests)) = (rows.lock(), digests.lock()) {
                    rows.push((tuple.ts.as_millis(), tuple.data));
                    digests.push(digest);
                }
            });
        }
        // Remote shards: a sink tuple's graph ends at REMOTE tuples; the
        // multi-stream unfolder of §6 stitches them to the shards' unfolded streams.
        let links = std::mem::take(&mut extras.provenance_links);
        let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
            sums,
            "prov",
            links,
            Duration::from_millis(CHAIN_WINDOW_MS),
        );
        extras.extract = Some(Box::new(move |outcome: &mut RunOutcome| {
            let contributions = provenance
                .records()
                .iter()
                .map(|record| {
                    let mut digest = Digest::default();
                    for source in &record.sources {
                        digest.add(reading_fingerprint(source.ts.as_millis(), &source.data));
                    }
                    (row(record.sink_ts.as_millis(), &record.sink_data), digest)
                })
                .collect();
            outcome.contributions = Some(contributions);
        }));
        out.sink("sink", move |tuple: &Arc<GTuple<Reading, GlMeta>>| {
            if let Ok(mut rows) = rows.lock() {
                rows.push((tuple.ts.as_millis(), tuple.data));
            }
        })
    }
}

static STATE_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A state directory no other run of this or any other process uses.
fn fresh_state_dir(root: &Path) -> PathBuf {
    root.join(format!(
        "{}-{}",
        std::process::id(),
        STATE_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn run_chain<P: ChainProvenance>(
    env: &Env,
    run_id: u32,
    spec: &RunSpec,
    opts: ChainOpts,
    provenance: P,
) -> Result<RunOutcome, String> {
    let tracing = env.recorder.is_enabled();
    let mut outcome = RunOutcome::default();
    let scope = Scope::open(&env.recorder, run_id);
    let (in_setup, in_run) = (scope.in_setup.clone(), scope.in_run.clone());

    let (items, build_inputs_s) = step(&in_setup, "workloads.build_inputs", || {
        zipf_stream(spec.seed, spec.tuples)
    });
    outcome.setup.build_inputs_s = build_inputs_s;
    let lag = LagLog::new();
    let source = Scheduled::new(SliceSource::new(items), spec.rate, Arc::clone(&lag));
    let heap = HeapMark::take(env.alloc);

    let mut config = PlannerConfig::default()
        .with_batch_size(BATCH)
        .with_fusion(opts.fusion)
        .with_metrics(opts.metrics);

    // Checkpoint store.
    let store_log = Arc::new(StoreLog::default());
    let state_dir = fresh_state_dir(&env.state_root);
    let mut durable: Option<Arc<DurableBackend>> = None;
    let store: Option<Arc<CheckpointStore>> = match opts.store {
        StoreKind::None => None,
        kind => {
            let (store, open_s) = step(&in_setup, "store.open", || -> Result<_, String> {
                let backend: Arc<dyn StateBackend> = if kind == StoreKind::Durable {
                    let backend =
                        DurableBackend::open_with(&state_dir, StoreOptions::incremental())
                            .map_err(|e| format!("open {}: {e}", state_dir.display()))?;
                    durable = Some(Arc::clone(&backend));
                    backend
                } else {
                    Arc::new(InMemoryBackend::new())
                };
                let backend: Arc<dyn StateBackend> = if tracing {
                    Arc::new(TimedBackend::new(
                        backend,
                        Arc::clone(&store_log),
                        in_run.clone(),
                    ))
                } else {
                    backend
                };
                Ok(CheckpointStore::new(backend))
            });
            outcome.setup.store_open_s = open_s;
            Some(store?)
        }
    };
    if let Some(store) = &store {
        let checkpoints = CheckpointConfig::new(CHECKPOINT_INTERVAL, Arc::clone(store));
        config = config.with_checkpoints(P::persist(checkpoints));
    }

    // Remote shards.
    let mut extras = ChainExtras::default();
    let send_log = Arc::new(SendLog::default());
    let remote = if opts.remote {
        let (remote, connect_s) = step(&in_setup, "distributed.connect", || {
            let tcp = TcpLoopbackTransport::new(NetworkConfig::unlimited());
            if tracing {
                let timed = TimedTransport::new(&tcp, Arc::clone(&send_log), in_run.clone());
                P::remote_shards(&timed, &config, &mut extras)
            } else {
                P::remote_shards(&tcp, &config, &mut extras)
            }
        });
        outcome.setup.connect_s = connect_s;
        Some(remote?)
    } else {
        None
    };

    // The plan.
    let plan = LogicalPlan::with_config(provenance, config);
    let sums = plan
        .source_with(
            "events",
            source,
            source_config(spec.rate, CHAIN_WATERMARK_EVERY),
        )
        .filter("live", |r: &Reading| r.1 >= 0)
        .map_one("scale", |r: &Reading| (r.0, r.1 * 2))
        .aggregate(
            "agg",
            chain_window(),
            |r: &Reading| r.0,
            sum_window::<P::Meta>,
            |o: &Reading| o.0,
        );
    let (sums, group) = match remote {
        Some(remote) => (sums.place(remote.placements), Some(remote.group)),
        None => (sums.with(Parallelism::shards(opts.shards)), None),
    };
    let rows = collected::<Reading>();
    let stats = P::finish(
        sums,
        &mut extras,
        ChainSink {
            rows: Arc::clone(&rows),
            digests: Arc::new(Mutex::new(Vec::new())),
            spans: in_run.clone(),
        },
    );

    let links: Vec<_> = group.as_ref().map_or(Vec::new(), |g| g.links().to_vec());
    let (report, registry) = execute(
        plan,
        scope,
        group,
        &mut outcome,
        spec.setup_only,
        |registry| {
            if let Some(backend) = &durable {
                backend.publish_metrics(registry);
            }
        },
    )?;
    heap.finish(&mut outcome);
    finish_common(&mut outcome, &report, &registry, &stats, &lag);
    outcome.rows = take_rows(&rows);
    if let Some(extract) = extras.extract.take() {
        extract(&mut outcome);
    }

    if opts.remote {
        outcome.wire = Some(WireNumbers {
            frames: links
                .iter()
                .map(|l| l.forward.frames() + l.back.frames())
                .sum(),
            forward_bytes: links.iter().map(|l| l.forward.bytes()).collect(),
            back_bytes: links.iter().map(|l| l.back.bytes()).sum(),
            dropped_frames: links
                .iter()
                .map(|l| l.forward.dropped_frames() + l.back.dropped_frames())
                .sum(),
            send_ns: send_log.send_ns(),
        });
    }
    if let Some(store) = store {
        let mut numbers = StoreNumbers {
            puts: store_log.puts(),
            snapshot_bytes: store_log.snapshot_bytes(),
            put_ns: store_log.put_ns(),
            epoch_commit_ns: store_log.epoch_commit_ns(),
            // Epochs are numbered from 1, so the latest complete one counts them.
            epochs: store.latest_complete_epoch().unwrap_or(0),
            bytes_written: store.backend().bytes_written(),
            ..StoreNumbers::default()
        };
        let participants = store_log.participants();
        drop(store);
        if let Some(backend) = durable.take() {
            numbers.segments = backend.segment_count();
            numbers.compactions = backend.compactions();
            numbers.fsync_p50_ns = registry
                .histogram_snapshot("genealog_checkpoint_store_fsync_ns", &[])
                .map_or(0, |h| h.quantile(0.5));
            let last_epoch = backend.latest_complete_epoch();
            backend.flush().map_err(|e| format!("flush store: {e}"))?;
            drop(backend);
            if tracing {
                numbers.reopen_ms = reopen(&state_dir, last_epoch, &participants)?;
            }
            // Best effort: a leftover directory is only clutter under the build dir.
            let _ = std::fs::remove_dir_all(&state_dir);
        }
        outcome.store = Some(numbers);
    }
    Ok(outcome)
}

/// The read side of the durable store: reopen the populated directory (scan,
/// delta reconstruction) and fetch the last complete epoch of every participant.
fn reopen(dir: &Path, epoch: Option<u64>, participants: &[String]) -> Result<f64, String> {
    let start = Instant::now();
    let backend = DurableBackend::open_with(dir, StoreOptions::incremental())
        .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    if let Some(epoch) = epoch {
        for participant in participants {
            if backend.get(participant, epoch).is_none() {
                return Err(format!(
                    "reopened store lost `{participant}` at its last complete epoch {epoch}"
                ));
            }
        }
    }
    Ok(start.elapsed().as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------------
// Shared head and tail of a run: span scope, lower, deploy, wait
// ---------------------------------------------------------------------------

/// The two top-level spans of a run. `bench.run` is opened together with
/// `bench.setup` — wrappers built during set-up parent their spans on it — and
/// restarted when the deployment starts running.
struct Scope<'a> {
    recorder: &'a Recorder,
    run_id: u32,
    setup_span: OpenSpan<'a>,
    run_span: OpenSpan<'a>,
    in_setup: SharedSpanCtx,
    in_run: SharedSpanCtx,
}

impl<'a> Scope<'a> {
    fn open(recorder: &'a Arc<Recorder>, run_id: u32) -> Self {
        let setup_span = recorder.open("bench.setup", None, run_id);
        let run_span = recorder.open("bench.run", None, run_id);
        Scope {
            in_setup: SharedSpanCtx::new(Arc::clone(recorder), setup_span.id(), run_id),
            in_run: SharedSpanCtx::new(Arc::clone(recorder), run_span.id(), run_id),
            recorder,
            run_id,
            setup_span,
            run_span,
        }
    }
}

/// Lowers, analyses and deploys `plan`, then waits for it (and for the remote
/// shard instances, if any) to drain. `before_deploy` sees the query's registry
/// while nothing runs yet.
fn execute<P: ProvenanceSystem>(
    plan: LogicalPlan<P>,
    scope: Scope<'_>,
    group: Option<RemoteShardGroup>,
    outcome: &mut RunOutcome,
    setup_only: bool,
    before_deploy: impl FnOnce(&MetricsRegistry),
) -> Result<(QueryReport, Arc<MetricsRegistry>), String> {
    let (analyzed, lower_s) = step(&scope.in_setup, "spe.plan_lower", || plan.analyze());
    let analyzed = analyzed.map_err(|e| e.to_string())?;
    outcome.setup.lower_and_analyze_s = lower_s;
    // `analyze()` runs the analysis passes inside the call above; run them once
    // more on the same facts to know how much of it they were.
    let (_, analyze_s) = step(&scope.in_setup, "analysis.analyze", || {
        std::hint::black_box(genealog_analysis::analyze(&analyzed.facts))
    });
    outcome.setup.analyze_s = analyze_s;
    let registry = analyzed.query.registry();
    before_deploy(&registry);
    let (handle, deploy_s) = step(&scope.in_setup, "spe.deploy", || analyzed.query.deploy());
    let handle = handle.map_err(|e| e.to_string())?;
    outcome.setup.deploy_s = deploy_s;
    drop(scope.setup_span);
    if setup_only {
        handle.stop();
    }

    scope.run_span.restart();
    let started = Instant::now();
    let wait_span = scope
        .recorder
        .open("spe.wait", scope.run_span.id(), scope.run_id);
    let report = handle.wait();
    let remote = group.map(RemoteShardGroup::wait);
    drop(wait_span);
    drop(scope.run_span);
    outcome.wall_s = started.elapsed().as_secs_f64();
    if let Some(Err(e)) = remote {
        return Err(e.to_string());
    }
    Ok((report.map_err(|e| e.to_string())?, registry))
}

fn finish_common(
    outcome: &mut RunOutcome,
    report: &QueryReport,
    registry: &MetricsRegistry,
    stats: &SinkStats,
    lag: &LagLog,
) {
    outcome.source_tuples = report.source_tuples();
    // The data sink's own count: `QueryReport::sink_tuples` would add the
    // provenance sink's unfolded records on GL runs.
    outcome.sink_tuples = stats.tuple_count();
    outcome.latencies_ns = stats.latencies_ns();
    outcome.lag_us = lag.samples_us();
    (outcome.stalls, outcome.top_stall_edge) = stall_summary(registry);
}
