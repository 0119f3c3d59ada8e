//! The standing benchmark proper: the four workloads, the metric tables, and the
//! two passes — the untraced pass that yields the end-to-end metrics and the
//! traced pass that yields the per-layer ledger.

use std::collections::HashMap;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genealog_metrics::TrackingAllocator;
use genealog_workloads::linear_road::LinearRoadGenerator;

use crate::gate::{self, Ops};
use crate::inputs::{
    chain_reference, lr_config, lr_reference, zipf_stream, ExpectedOp, Origin, SliceSource, LR_CARS,
};
use crate::json::Value;
use crate::layers;
use crate::runs::{
    self, ChainOpts, Env, Pipeline, RunSpec, StoreKind, System, CHECKPOINT_INTERVAL,
};
use crate::stats::{highest_supported_percentile, median};
use crate::summary::RunSummary;
use crate::trace::{trace_document, Recorder, Span};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Declaration of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`layer.metric` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The end-to-end metrics, reported for every workload by the untraced pass.
/// `BENCHMARK.json` repeats this table; a test keeps the two equal.
///
/// The bounds are three times the widest run-to-run spread (quartile distance
/// over median, ten seeds) seen on the reference host, capped at the contract's
/// 0.25: the host's speed drifts by a tenth over minutes, so a tighter bound
/// would reject changes for the weather.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("np_throughput_tps", "1/s", Higher, 0.25),
    e2e("gl_throughput_tps", "1/s", Higher, 0.25),
    e2e("gl_latency_p50_ms", "ms", Lower, 0.25),
    e2e("gl_latency_p95_ms", "ms", Lower, 0.25),
    e2e("np_peak_mem_mb", "MiB", Lower, 0.15),
    e2e("gl_peak_mem_mb", "MiB", Lower, 0.15),
];

/// The per-layer ledger, reported for every workload by the traced pass. A line
/// that does not apply to a workload (the store on `chain_agg`, the wire on
/// `lr_q1`, a variant run that belongs to another workload) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workloads.gen_ns_per_tuple", "ns", Lower),
    layer("workloads.source_lag_p95_ms", "ms", Lower),
    layer("spe.np_ns_per_tuple", "ns", Lower),
    layer("spe.channel_hop_ns_per_tuple", "ns", Lower),
    layer("spe.channel_hop_ns_unbatched", "ns", Lower),
    layer("spe.backpressure_stalls", "count", Lower),
    layer("spe.allocs_per_tuple_np", "count", Lower),
    layer("spe.fusion_off_ns_per_tuple", "ns", Lower),
    layer("spe.single_shard_ns_per_tuple", "ns", Lower),
    layer("spe.ckpt_inmem_ns_per_tuple", "ns", Lower),
    layer("spe.snapshot_bytes_per_epoch", "B", Lower),
    layer("spe.plan_lower_ms", "ms", Lower),
    layer("spe.deploy_ms", "ms", Lower),
    layer("spe.source_tuples", "count", Higher),
    layer("spe.sink_tuples", "count", Higher),
    layer("analysis.analyze_ms", "ms", Lower),
    layer("core.gl_ns_per_tuple", "ns", Lower),
    layer("core.allocs_per_tuple_gl", "count", Lower),
    layer("core.traversal_ns_per_source_g4", "ns", Lower),
    layer("core.traversal_ns_per_source_g192", "ns", Lower),
    layer("core.graph_sources_mean", "count", Lower),
    layer("core.unfold_records", "count", Higher),
    layer("baseline.bl_throughput_tps", "1/s", Higher),
    layer("baseline.bl_peak_mem_mb", "MiB", Lower),
    layer("distributed.encode_ns_per_tuple", "ns", Lower),
    layer("distributed.decode_ns_per_tuple", "ns", Lower),
    layer("distributed.frame_send_ns_p50", "ns", Lower),
    layer("distributed.frame_send_ns_p95", "ns", Lower),
    layer("distributed.tcp_rtt_us", "us", Lower),
    layer("distributed.frames", "count", Lower),
    layer("distributed.wire_bytes_per_tuple", "B", Lower),
    layer("distributed.provenance_bytes", "B", Lower),
    layer("distributed.forward_bytes_skew", "ratio", Lower),
    layer("distributed.dropped_frames", "count", Lower),
    layer("distributed.remote_ns_per_tuple_np", "ns", Lower),
    layer("distributed.remote_ns_per_tuple_gl", "ns", Lower),
    layer("store.put_ns_p50", "ns", Lower),
    layer("store.put_ns_p95", "ns", Lower),
    layer("store.put_busy_share", "ratio", Lower),
    layer("store.fsync_ns_p50", "ns", Lower),
    layer("store.epoch_commit_p95_us", "us", Lower),
    layer("store.puts", "count", Lower),
    layer("store.bytes_written", "B", Lower),
    layer("store.segments", "count", Lower),
    layer("store.compactions", "count", Lower),
    layer("store.reopen_ms", "ms", Lower),
    layer("store.durable_ns_per_tuple", "ns", Lower),
    layer("metrics.registry_ns_per_tuple", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The four workloads. Names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// Linear Road broken-down-car query, the paper's running example.
    LrQ1,
    /// The planner-lowered fused chain with a sharded tumbling aggregate.
    ChainAgg,
    /// `chain_agg` checkpointing into the durable store.
    ChainAggDurable,
    /// `chain_agg` with both aggregate shards remote over loopback TCP.
    TcpShards,
}

/// Fixed sizes of a workload. They were chosen on the commit that introduced the
/// benchmark and never change: a number is comparable only with the same
/// scenario one change earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Source tuples of one max-rate run.
    pub tuples: u64,
    /// Open-loop rate of the paced GL run, tuples per second — roughly half the
    /// GL max rate on the commit that introduced the benchmark.
    pub paced_rate_tps: u64,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::LrQ1,
        WorkloadId::ChainAgg,
        WorkloadId::ChainAggDurable,
        WorkloadId::TcpShards,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::LrQ1 => "lr_q1",
            WorkloadId::ChainAgg => "chain_agg",
            WorkloadId::ChainAggDurable => "chain_agg_durable",
            WorkloadId::TcpShards => "tcp_shards",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists and its fixed sizes (one line, repeated in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::LrQ1 => {
                "Paper's running example (Linear Road Q1): the filter drops most tuples, so source, channel hop and GL per-tuple metadata dominate; store and wire idle. 1000000 tuples/run, paced 500000/s."
            }
            WorkloadId::ChainAgg => {
                "Fused chain, partition exchange, keyed merge, window state and GL instrumentation do the work; no checkpoints, no wire. 500000 tuples/run, paced 200000/s."
            }
            WorkloadId::ChainAggDurable => {
                "chain_agg checkpointing every 20000 tuples into the fsyncing incremental store (encode, commit lock, fsync); chain_agg is its bypass. 300000 tuples/run, paced 65000/s."
            }
            WorkloadId::TcpShards => {
                "chain_agg with both aggregate shards remote over loopback TCP (codec, framing, sockets, REMOTE stitching); chain_agg is its bypass. 250000 tuples/run, paced 70000/s."
            }
        }
    }

    /// The workload's fixed sizes (`smoke` shrinks them for the test suite).
    pub fn sizes(self, smoke: bool) -> Sizes {
        if smoke {
            return match self {
                WorkloadId::LrQ1 => Sizes {
                    tuples: 40_000,
                    paced_rate_tps: 100_000,
                },
                _ => Sizes {
                    tuples: 65_536,
                    paced_rate_tps: 100_000,
                },
            };
        }
        match self {
            WorkloadId::LrQ1 => Sizes {
                tuples: 1_000_000,
                paced_rate_tps: 500_000,
            },
            WorkloadId::ChainAgg => Sizes {
                tuples: 500_000,
                paced_rate_tps: 200_000,
            },
            WorkloadId::ChainAggDurable => Sizes {
                tuples: 300_000,
                paced_rate_tps: 65_000,
            },
            WorkloadId::TcpShards => Sizes {
                tuples: 250_000,
                paced_rate_tps: 70_000,
            },
        }
    }

    /// The pipeline the workload deploys.
    pub fn pipeline(self, smoke: bool) -> Pipeline {
        match self {
            WorkloadId::LrQ1 => Pipeline::Lr {
                cars: if smoke { LR_CARS / 20 } else { LR_CARS },
            },
            WorkloadId::ChainAgg => Pipeline::Chain(ChainOpts::LOCAL),
            WorkloadId::ChainAggDurable => Pipeline::Chain(ChainOpts {
                store: StoreKind::Durable,
                ..ChainOpts::LOCAL
            }),
            WorkloadId::TcpShards => Pipeline::Chain(ChainOpts {
                remote: true,
                ..ChainOpts::LOCAL
            }),
        }
    }
}

/// A physical variant of a workload's pipeline, run by the traced pass to price
/// one layer: each is the standard pipeline with exactly one thing changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The workload as declared.
    Standard,
    /// `chain_agg`: the same pipeline without the workload's own layer.
    Bypass,
    /// Stateless chain unfused (thread per operator).
    FusionOff,
    /// One aggregate instance: the single-threaded baseline of the sharded plan.
    OneShard,
    /// `PlannerConfig::with_metrics(false)`.
    MetricsOff,
    /// Checkpoints into `CheckpointStore::in_memory()`.
    InMemoryStore,
}

impl Variant {
    const ALL: [Variant; 6] = [
        Variant::Standard,
        Variant::Bypass,
        Variant::FusionOff,
        Variant::OneShard,
        Variant::MetricsOff,
        Variant::InMemoryStore,
    ];

    /// The variant's name on the child command line.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Standard => "standard",
            Variant::Bypass => "bypass",
            Variant::FusionOff => "fusion-off",
            Variant::OneShard => "one-shard",
            Variant::MetricsOff => "metrics-off",
            Variant::InMemoryStore => "in-memory-store",
        }
    }

    /// Looks a variant up by name.
    pub fn parse(name: &str) -> Option<Variant> {
        Variant::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// The pipeline of `workload` under `variant`.
pub fn pipeline(workload: WorkloadId, variant: Variant, smoke: bool) -> Pipeline {
    let chain = |opts: ChainOpts| Pipeline::Chain(opts);
    match (variant, workload.pipeline(smoke)) {
        (Variant::Standard, standard) => standard,
        (_, lr @ Pipeline::Lr { .. }) => lr,
        (Variant::Bypass, _) => chain(ChainOpts::LOCAL),
        (Variant::FusionOff, Pipeline::Chain(opts)) => chain(ChainOpts {
            fusion: false,
            ..opts
        }),
        (Variant::OneShard, Pipeline::Chain(opts)) => chain(ChainOpts { shards: 1, ..opts }),
        (Variant::MetricsOff, Pipeline::Chain(opts)) => chain(ChainOpts {
            metrics: false,
            ..opts
        }),
        (Variant::InMemoryStore, Pipeline::Chain(opts)) => chain(ChainOpts {
            store: StoreKind::InMemory,
            ..opts
        }),
    }
}

/// A paced run whose generator ran later than this at its 95th percentile did
/// not apply the open-loop load that was asked for: the run is void and repeated.
/// A run whose generator ran later than this at the *median* never caught up
/// between stalls: the rate is not sustainable and the run's operations all fail.
pub const MAX_SOURCE_LAG_MS: f64 = 20.0;
/// Attempts at a paced run whose generator keeps its schedule. Each costs 40 % of
/// `--seconds`, and the contract's hour has room for some thirty repeats in all.
const PACED_ATTEMPTS: u32 = 2;
/// Share of `--seconds` the paced run lasts. Its size is a constant of the
/// workload and `--seconds` (never "whatever time is left"): which windows a run
/// covers decides its latency percentiles.
const PACED_SHARE: f64 = 0.4;
/// Max-rate pairs that start within this share of `--seconds` (at most
/// [`MAX_BURN_IN_S`]) are run, verified and left out of every median. After a few
/// idle seconds the reference host runs the first ~3 s of two busy threads up to
/// 2.5x faster than it sustains (most likely the Mutex+Condvar channel stops
/// paying for cross-vCPU wake-ups); sustained load never sees that regime.
const BURN_IN_SHARE: f64 = 0.1;
/// Upper limit on the burn-in, in seconds.
const MAX_BURN_IN_S: f64 = 3.0;
/// Share of `--seconds` the traced pass keeps for its traced runs, after the
/// rounds of untraced ones.
const TRACED_RUNS_SHARE: f64 = 0.3;
/// Share of `--seconds` the traced pass' paced run lasts.
const TRACED_PACED_SHARE: f64 = 0.15;
/// The baseline retains every source tuple, so its informational run is short.
const BL_SIZE_DIVISOR: u64 = 10;
/// The untimed warm-up before a run is this fraction of the run's size.
const WARM_UP_DIVISOR: u64 = 10;
/// Set-up-only repetitions after each run: at least the first number, then more
/// until the time or the second number is reached. `setup_s` is a median over
/// all of them, and a set-up of half a millisecond needs more of them than one
/// of ten.
const SETUP_REPEATS: (usize, usize) = (4, 32);
/// Time after which set-up is not repeated further in one run's process.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(60);
/// A run's process is killed when it has not finished after this long.
const RUN_TIMEOUT: Duration = Duration::from_secs(45);

/// What to measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadId,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Test-suite sizes.
    pub smoke: bool,
    /// Perturb the reference, to prove the gate notices (tests only).
    pub corrupt_reference: bool,
}

/// The process-wide resources the benchmark needs.
#[derive(Debug, Clone)]
pub struct Host {
    /// The counting allocator installed as the global allocator.
    pub alloc: &'static TrackingAllocator,
    /// The build's target directory: state directories and trace files go here.
    pub target_dir: PathBuf,
    /// This executable: every engine run is a child process of it.
    pub exe: PathBuf,
}

// ---------------------------------------------------------------------------
// One run, in a process of its own
// ---------------------------------------------------------------------------

/// One engine run as the orchestrating process asks a child process for it.
///
/// A deployed query is one deployment in one process. Twenty deployments in a row
/// in one process are not: on the reference host their throughput depended on
/// the process' history (runs of one process agreed within 1 %, processes
/// disagreed by 10 %), so every run starts from a fresh process and the medians
/// are taken over processes.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The workload.
    pub workload: WorkloadId,
    /// The pipeline variant.
    pub variant: Variant,
    /// The provenance system.
    pub system: System,
    /// Source tuples.
    pub tuples: u64,
    /// Open-loop rate; `None` for max rate.
    pub rate: Option<u64>,
    /// Input seed.
    pub seed: u64,
    /// Run id (spans of one run share it).
    pub run_id: u32,
    /// Attach the wrappers and record spans.
    pub trace: bool,
    /// Test-suite sizes.
    pub smoke: bool,
    /// Perturb the reference (tests only).
    pub corrupt_reference: bool,
}

impl RunRequest {
    /// The child's command line.
    pub fn to_args(&self) -> Vec<String> {
        let system = self.system.label().to_ascii_lowercase();
        let mut args: Vec<String> = [
            "--run",
            "--workload",
            self.workload.name(),
            "--variant",
            self.variant.name(),
            "--system",
            &system,
        ]
        .map(String::from)
        .to_vec();
        let mut number = |flag: &str, value: u64| {
            args.push(flag.to_string());
            args.push(value.to_string());
        };
        number("--tuples", self.tuples);
        number("--rate", self.rate.unwrap_or(0));
        number("--seed", self.seed);
        number("--run-id", u64::from(self.run_id));
        number("--trace", u64::from(self.trace));
        if self.smoke {
            args.push("--smoke".into());
        }
        if self.corrupt_reference {
            args.push("--corrupt-reference".into());
        }
        args
    }

    /// Parses what [`RunRequest::to_args`] produced (without the leading `--run`).
    ///
    /// # Errors
    /// Names the first flag that is unknown, incomplete or malformed.
    pub fn from_args(args: &[String]) -> Result<RunRequest, String> {
        let mut request = RunRequest {
            workload: WorkloadId::LrQ1,
            variant: Variant::Standard,
            system: System::Np,
            tuples: 0,
            rate: None,
            seed: 0,
            run_id: 0,
            trace: false,
            smoke: false,
            corrupt_reference: false,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--smoke" => request.smoke = true,
                "--corrupt-reference" => request.corrupt_reference = true,
                _ => {
                    let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    let bad = || format!("{flag}: cannot use `{value}`");
                    let number = || value.parse::<u64>().map_err(|_| bad());
                    match flag.as_str() {
                        "--workload" => {
                            request.workload = WorkloadId::parse(value).ok_or_else(bad)?;
                        }
                        "--variant" => request.variant = Variant::parse(value).ok_or_else(bad)?,
                        "--system" => {
                            request.system = [System::Np, System::Gl, System::Bl]
                                .into_iter()
                                .find(|s| s.label().eq_ignore_ascii_case(value))
                                .ok_or_else(bad)?;
                        }
                        "--tuples" => request.tuples = number()?,
                        "--rate" => request.rate = Some(number()?).filter(|r| *r > 0),
                        "--seed" => request.seed = number()?,
                        "--run-id" => request.run_id = number()? as u32,
                        "--trace" => request.trace = number()? != 0,
                        _ => return Err(format!("unknown run flag `{flag}`")),
                    }
                }
            }
        }
        if request.tuples == 0 {
            return Err("--tuples is required".into());
        }
        Ok(request)
    }

    fn spec(&self) -> RunSpec {
        RunSpec {
            pipeline: pipeline(self.workload, self.variant, self.smoke),
            system: self.system,
            tuples: self.tuples,
            rate: self.rate,
            seed: self.seed,
            setup_only: false,
        }
    }

    /// The reference the run's outputs are checked against.
    fn reference(&self) -> Vec<ExpectedOp> {
        let spec = self.spec();
        let mut expected = match spec.pipeline {
            Pipeline::Lr { cars } => {
                let rounds = (spec.tuples / u64::from(cars)).max(1) as u32;
                lr_reference(lr_config(spec.seed, cars, rounds))
            }
            Pipeline::Chain(opts) => {
                let origin = if opts.remote {
                    Origin::ShardInput
                } else {
                    Origin::Source
                };
                chain_reference(&zipf_stream(spec.seed, spec.tuples), origin)
            }
        };
        if self.corrupt_reference {
            if let Some(op) = expected.first_mut() {
                op.row.0 += 1;
            }
        }
        expected
    }

    /// The baseline's contribution sets are not extracted: its run is
    /// informational and checked on sink bytes only.
    fn with_contributions(&self) -> bool {
        self.system == System::Gl
    }

    fn label(&self) -> String {
        format!(
            "run {} ({} {} {}{})",
            self.run_id,
            self.workload.name(),
            self.variant.name(),
            self.system.label(),
            if self.rate.is_some() { " paced" } else { "" }
        )
    }

    /// Performs the run in this process: reference, untimed warm-up at a tenth of
    /// the size, the run itself, the correctness gate.
    pub fn perform(&self, host: &Host) -> RunSummary {
        let expected = self.reference();
        let with_contributions = self.with_contributions();
        let label = self.label();
        let spec = self.spec();
        let mut env = Env {
            alloc: host.alloc,
            state_root: host.target_dir.join("standing-state"),
            recorder: Arc::new(Recorder::disabled()),
        };
        // Warm-up: faults in the allocator's arenas, spawns the first threads,
        // opens the first sockets. Max rate, untraced, unverified.
        let warm_up = RunSpec {
            tuples: (spec.tuples / WARM_UP_DIVISOR).max(1),
            rate: None,
            ..spec
        };
        if let Err(error) = runs::run(&env, self.run_id, &warm_up) {
            let why = format!("{label}: warm-up: {error}");
            return RunSummary::failed(gate::all_failed(&expected, with_contributions, why));
        }
        if self.trace {
            env.recorder = Arc::new(Recorder::enabled());
        }
        let outcome = match runs::run(&env, self.run_id, &spec) {
            Ok(outcome) => outcome,
            Err(error) => {
                let why = format!("{label}: {error}");
                return RunSummary::failed(gate::all_failed(&expected, with_contributions, why));
            }
        };
        let mut summary = RunSummary::of(&outcome, Ops::default(), env.recorder.spans());
        // Set-up again, a few times over, without paying for a run each time.
        env.recorder = Arc::new(Recorder::disabled());
        let probe = RunSpec {
            setup_only: true,
            ..spec
        };
        let repeating = Instant::now();
        // `setup_s` is a statistic of the max-rate runs; a paced run's input is
        // many times larger and would only cost time here.
        let repeats = if spec.rate.is_none() {
            SETUP_REPEATS.1
        } else {
            0
        };
        for repeat in 0..repeats {
            if repeat >= SETUP_REPEATS.0 && repeating.elapsed() >= SETUP_REPEAT_BUDGET {
                break;
            }
            if let Ok(repeat) = runs::run(&env, self.run_id, &probe) {
                summary.setup_samples_s.push(repeat.setup.total_s());
            }
        }
        let dropped = summary.wire.as_ref().map_or(0, |w| w.dropped_frames);
        let ops = if dropped > 0 {
            let why = format!("{label}: {dropped} frames dropped on the shard links");
            gate::all_failed(&expected, with_contributions, why)
        } else if spec.rate.is_some() && summary.lag_p50_ms > MAX_SOURCE_LAG_MS {
            let why = format!(
                "{label}: source ran {:.1} ms behind schedule at the median; the paced rate \
                 is not sustainable",
                summary.lag_p50_ms
            );
            gate::all_failed(&expected, with_contributions, why)
        } else {
            gate::check(&label, &expected, &outcome, with_contributions)
        };
        RunSummary { ops, ..summary }
    }
}

/// Runs `request` in a child process and reads its summary back. A child that
/// dies, hangs or prints something else fails every operation of its run.
fn run_in_child(host: &Host, request: &RunRequest) -> RunSummary {
    match spawn_and_read(host, request) {
        Ok(summary) => summary,
        Err(why) => {
            let why = format!("{}: {why}", request.label());
            RunSummary::failed(gate::all_failed(
                &request.reference(),
                request.with_contributions(),
                why,
            ))
        }
    }
}

fn spawn_and_read(host: &Host, request: &RunRequest) -> Result<RunSummary, String> {
    let mut child = Command::new(&host.exe)
        .args(request.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", host.exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Read on a thread of its own so a child that hangs can still be timed out.
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + RUN_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "no result after {} s; killed",
                    RUN_TIMEOUT.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("waiting for the run's process: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "reading the run's output panicked".to_string())?
        .map_err(|e| format!("reading the run's output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("the run's process ended with {status}"));
    }
    let line = text.lines().last().unwrap_or_default();
    RunSummary::from_json(&Value::parse(line)?)
}

// ---------------------------------------------------------------------------
// The two passes
// ---------------------------------------------------------------------------

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric.
    pub def: MetricDef,
    /// Its value.
    pub value: f64,
}

/// The result of one pass over one workload.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: WorkloadId,
    /// The options the pass ran with.
    pub options: Options,
    /// Every metric of the pass, in table order.
    pub metrics: Vec<Measured>,
    /// Operations attempted and failed over every run.
    pub ops: Ops,
    /// Sample and run counts behind the metrics, by name.
    pub counts: Vec<(&'static str, u64)>,
    /// Free-form findings (the bottleneck edge, the trace file, percentile moves).
    pub notes: Vec<String>,
}

impl Report {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map(|m| m.value)
    }

    /// Whether every operation of every run matched its reference.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0 && self.ops.attempted > 0
    }
}

/// Runs one pass.
pub fn measure(host: &Host, options: &Options) -> Report {
    let mut pass = Pass {
        host,
        options,
        next_run: 0,
        ops: Ops::default(),
        notes: Vec::new(),
        spans: Vec::new(),
    };
    if options.trace {
        pass.traced()
    } else {
        pass.untraced()
    }
}

const MIB: f64 = 1024.0 * 1024.0;

fn median_of(runs: &[RunSummary], pick: impl Fn(&RunSummary) -> f64) -> f64 {
    median(&runs.iter().map(pick).collect::<Vec<_>>())
}

/// State of one pass: the run counter and the tallies over its runs.
struct Pass<'a> {
    host: &'a Host,
    options: &'a Options,
    next_run: u32,
    ops: Ops,
    notes: Vec<String>,
    spans: Vec<Span>,
}

impl Pass<'_> {
    fn sizes(&self) -> Sizes {
        self.options.workload.sizes(self.options.smoke)
    }

    /// One run in a child process; its operations and spans join the pass'.
    fn run(
        &mut self,
        variant: Variant,
        system: System,
        tuples: u64,
        rate: Option<u64>,
        trace: bool,
    ) -> RunSummary {
        let summary = self.child(variant, system, tuples, rate, trace);
        self.keep(summary)
    }

    /// One run in a child process, not yet part of the pass.
    fn child(
        &mut self,
        variant: Variant,
        system: System,
        tuples: u64,
        rate: Option<u64>,
        trace: bool,
    ) -> RunSummary {
        let request = RunRequest {
            workload: self.options.workload,
            variant,
            system,
            tuples,
            rate,
            seed: self.options.seed,
            run_id: self.next_run,
            trace,
            smoke: self.options.smoke,
            corrupt_reference: self.options.corrupt_reference,
        };
        self.next_run += 1;
        run_in_child(self.host, &request)
    }

    /// Moves a run's operations and spans into the pass' tallies.
    fn keep(&mut self, mut summary: RunSummary) -> RunSummary {
        self.ops.absorb(std::mem::take(&mut summary.ops));
        // Span ids are indices into the run's own list; shift them into the pass'.
        let base = self.spans.len();
        self.spans.extend(
            std::mem::take(&mut summary.spans)
                .into_iter()
                .map(|span| Span {
                    parent: span.parent.map(|p| p + base),
                    ..span
                }),
        );
        summary
    }

    fn max_rate(&mut self, variant: Variant, system: System, trace: bool) -> RunSummary {
        self.run(variant, system, self.sizes().tuples, None, trace)
    }

    /// The paced GL run. A run whose generator was late at p95 is void — the load
    /// that was asked for was not applied — and is repeated: the reference host now
    /// and then stops the whole VM for most of a second, and its disk has minutes in
    /// which an fsync takes ten times as long; the source blocks on both. The last
    /// attempt stands whatever its p95, with a note: it fails only if the source
    /// was behind at the median too (see [`MAX_SOURCE_LAG_MS`]).
    fn paced(&mut self, seconds: f64, trace: bool) -> RunSummary {
        let rate = self.sizes().paced_rate_tps;
        let tuples = ((rate as f64 * seconds) as u64).max(1);
        let mut attempt = 1;
        loop {
            let summary = self.child(Variant::Standard, System::Gl, tuples, Some(rate), trace);
            let late = summary.lag_p95_ms > MAX_SOURCE_LAG_MS;
            if late {
                self.notes.push(format!(
                    "paced run, attempt {attempt} of {PACED_ATTEMPTS}: source lag p95 {:.1} ms, \
                     p50 {:.1} ms: the load was applied late",
                    summary.lag_p95_ms, summary.lag_p50_ms
                ));
            }
            if !late || attempt == PACED_ATTEMPTS {
                return self.keep(summary);
            }
            attempt += 1;
        }
    }

    fn note_stalls(&mut self, what: &str, run: &RunSummary) {
        if !run.top_stall_edge.is_empty() {
            self.notes.push(format!(
                "{what}: {} back-pressure stalls, most on {}",
                run.stalls, run.top_stall_edge
            ));
        }
    }

    // -----------------------------------------------------------------------
    // The untraced pass: end-to-end metrics
    // -----------------------------------------------------------------------

    fn untraced(&mut self) -> Report {
        let sizes = self.sizes();
        let started = Instant::now();

        // Max-rate runs, NP and GL alternating so drift hits both alike, until the
        // paced run's share of the time begins.
        let seconds = self.options.seconds;
        let budget = seconds * (1.0 - PACED_SHARE);
        let burn_in = (seconds * BURN_IN_SHARE).min(MAX_BURN_IN_S);
        let (mut np, mut gl) = (Vec::new(), Vec::new());
        let (mut burnt, mut last_pair_s) = (0u64, 0.0);
        while np.is_empty() || started.elapsed().as_secs_f64() + last_pair_s <= budget {
            let pair = Instant::now();
            let counted = started.elapsed().as_secs_f64() >= burn_in;
            let runs = (
                self.max_rate(Variant::Standard, System::Np, false),
                self.max_rate(Variant::Standard, System::Gl, false),
            );
            if counted {
                np.push(runs.0);
                gl.push(runs.1);
            } else {
                burnt += 1;
            }
            last_pair_s = pair.elapsed().as_secs_f64();
        }

        // One paced (open-loop) GL run for latency.
        let paced = self.paced(seconds * PACED_SHARE, false);

        let supported = highest_supported_percentile(paced.latency_samples as usize);
        if supported.is_none_or(|p| p < 95) {
            self.notes.push(format!(
                "gl_latency_p95_ms rests on {} samples; the percentile rule supports p{}",
                paced.latency_samples,
                supported.unwrap_or(0)
            ));
        }
        let setups: Vec<f64> = np
            .iter()
            .chain(&gl)
            .flat_map(|r| r.setup_samples_s.iter().copied())
            .collect();
        let values = [
            median(&setups),
            median_of(&np, RunSummary::throughput_tps),
            median_of(&gl, RunSummary::throughput_tps),
            paced.latency_p50_ns / 1e6,
            paced.latency_p95_ns / 1e6,
            median_of(&np, |r| r.peak_bytes as f64 / MIB),
            median_of(&gl, |r| r.peak_bytes as f64 / MIB),
        ];
        let each = |runs: &[RunSummary]| {
            let tps: Vec<String> = runs
                .iter()
                .map(|r| format!("{:.0}", r.throughput_tps()))
                .collect();
            tps.join(" ")
        };
        self.notes.push(format!(
            "max-rate runs, tuples/s: NP {} | GL {}",
            each(&np),
            each(&gl)
        ));
        self.note_stalls("paced run", &paced);
        self.notes.push(format!(
            "paced run: source lag p95 {:.3} ms over {} samples",
            paced.lag_p95_ms, paced.lag_samples
        ));
        Report {
            workload: self.options.workload,
            options: self.options.clone(),
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(def, value)| Measured { def: *def, value })
                .collect(),
            ops: std::mem::take(&mut self.ops),
            counts: vec![
                ("max_rate_tuples", sizes.tuples),
                ("max_rate_runs_per_system", np.len() as u64),
                ("burn_in_pairs", burnt),
                ("setup_samples", setups.len() as u64),
                ("paced_rate_tps", sizes.paced_rate_tps),
                ("paced_tuples", paced.source_tuples),
                ("latency_samples", paced.latency_samples),
                ("lag_samples", paced.lag_samples),
                (
                    "sink_tuples_per_run",
                    np.first().map_or(0, |r| r.sink_tuples),
                ),
                ("elapsed_ms", started.elapsed().as_millis() as u64),
            ],
            notes: std::mem::take(&mut self.notes),
        }
    }

    // -----------------------------------------------------------------------
    // The traced pass: the per-layer ledger
    // -----------------------------------------------------------------------

    fn traced(&mut self) -> Report {
        let workload = self.options.workload;
        let smoke = self.options.smoke;
        let sizes = self.sizes();
        let started = Instant::now();
        let mut ledger = Ledger::default();

        // Layers measured alone, in this process.
        let micro = if smoke { 20 } else { 1 };
        ledger.set(
            "workloads.gen_ns_per_tuple",
            match workload.pipeline(smoke) {
                Pipeline::Lr { cars } => {
                    let rounds = (sizes.tuples / u64::from(cars)).max(1) as u32;
                    let config = lr_config(self.options.seed, cars, rounds);
                    layers::generator_ns_per_tuple(LinearRoadGenerator::new(config), sizes.tuples)
                }
                Pipeline::Chain(_) => {
                    let items = zipf_stream(self.options.seed, sizes.tuples);
                    layers::generator_ns_per_tuple(SliceSource::new(items), sizes.tuples)
                }
            },
        );
        ledger.set(
            "spe.channel_hop_ns_per_tuple",
            layers::channel_hop_ns_per_tuple(2_048_000 / micro, runs::BATCH),
        );
        ledger.set(
            "spe.channel_hop_ns_unbatched",
            layers::channel_hop_ns_per_tuple(200_000 / micro, 1),
        );
        let (encode, decode) = layers::codec_ns_per_tuple(4_000 / micro);
        ledger.set("distributed.encode_ns_per_tuple", encode);
        ledger.set("distributed.decode_ns_per_tuple", decode);
        match layers::tcp_rtt_us(2_000 / micro) {
            Ok(rtt) => ledger.set("distributed.tcp_rtt_us", rtt),
            Err(error) => self.notes.push(format!("tcp_rtt_us: {error}")),
        }
        ledger.set(
            "core.traversal_ns_per_source_g4",
            layers::traversal_ns_per_source(4, 200_000 / micro),
        );
        ledger.set(
            "core.traversal_ns_per_source_g192",
            layers::traversal_ns_per_source(192, 5_000 / micro),
        );

        // The workload untraced, its bypass (what it costs without its own layer)
        // and its variants: every configuration once per round, round after round
        // while the time lasts, so each line of the ledger is a difference of
        // medians taken over the same stretch of time. Everything the ledger
        // differences is recorded with tracing off.
        use System::{Gl, Np};
        use Variant::{Bypass, FusionOff, InMemoryStore, MetricsOff, OneShard, Standard};
        let mut configs = vec![(Standard, Np), (Standard, Gl)];
        match workload {
            WorkloadId::LrQ1 => {}
            WorkloadId::ChainAgg => {
                configs.extend([(FusionOff, Np), (OneShard, Np), (MetricsOff, Np)]);
            }
            WorkloadId::ChainAggDurable => {
                configs.extend([(Bypass, Np), (Bypass, Gl), (InMemoryStore, Gl)]);
            }
            WorkloadId::TcpShards => configs.extend([(Bypass, Np), (Bypass, Gl)]),
        }
        // As in the untraced pass, the host's first busy seconds do not count.
        self.max_rate(Standard, Np, false);
        self.max_rate(Standard, Gl, false);
        let budget = self.options.seconds * (1.0 - TRACED_RUNS_SHARE);
        let mut rounds: HashMap<(Variant, System), Vec<RunSummary>> = HashMap::new();
        let mut last_round_s = 0.0;
        while rounds.is_empty() || started.elapsed().as_secs_f64() + last_round_s <= budget {
            let round = Instant::now();
            for &(variant, system) in &configs {
                let run = self.max_rate(variant, system, false);
                rounds.entry((variant, system)).or_default().push(run);
            }
            last_round_s = round.elapsed().as_secs_f64();
        }
        let of = |variant: Variant, system: System| &rounds[&(variant, system)];
        let ns = |variant, system| median_of(of(variant, system), RunSummary::ns_per_tuple);
        let (np_plain, gl_plain) = (of(Standard, Np), of(Standard, Gl));
        let floor = if configs.contains(&(Bypass, Np)) {
            Bypass
        } else {
            Standard
        };
        ledger.set("spe.np_ns_per_tuple", ns(floor, Np));
        ledger.set("core.gl_ns_per_tuple", ns(floor, Gl) - ns(floor, Np));
        let per_tuple = |runs: &[RunSummary], pick: fn(&RunSummary) -> u64| {
            median_of(runs, |r| pick(r) as f64 / r.source_tuples.max(1) as f64)
        };
        ledger.set(
            "spe.allocs_per_tuple_np",
            per_tuple(np_plain, |r| r.allocations),
        );
        ledger.set(
            "core.allocs_per_tuple_gl",
            per_tuple(gl_plain, |r| r.allocations),
        );
        ledger.set(
            "spe.backpressure_stalls",
            median_of(gl_plain, |r| r.stalls as f64),
        );
        self.note_stalls("max-rate GL run", &gl_plain[0]);
        ledger.set("spe.source_tuples", gl_plain[0].source_tuples as f64);
        ledger.set("spe.sink_tuples", gl_plain[0].sink_tuples as f64);
        ledger.set("core.unfold_records", gl_plain[0].unfold_records as f64);
        ledger.set(
            "core.graph_sources_mean",
            gl_plain[0].unfold_records as f64 / gl_plain[0].sink_tuples.max(1) as f64,
        );
        match workload {
            WorkloadId::LrQ1 => {}
            WorkloadId::ChainAgg => {
                ledger.set(
                    "spe.fusion_off_ns_per_tuple",
                    ns(FusionOff, Np) - ns(Standard, Np),
                );
                ledger.set("spe.single_shard_ns_per_tuple", ns(OneShard, Np));
                ledger.set(
                    "metrics.registry_ns_per_tuple",
                    ns(Standard, Np) - ns(MetricsOff, Np),
                );
            }
            WorkloadId::ChainAggDurable => {
                ledger.set(
                    "spe.ckpt_inmem_ns_per_tuple",
                    ns(InMemoryStore, Gl) - ns(Bypass, Gl),
                );
                ledger.set(
                    "store.durable_ns_per_tuple",
                    ns(Standard, Gl) - ns(InMemoryStore, Gl),
                );
            }
            WorkloadId::TcpShards => {
                ledger.set(
                    "distributed.remote_ns_per_tuple_np",
                    ns(Standard, Np) - ns(Bypass, Np),
                );
                ledger.set(
                    "distributed.remote_ns_per_tuple_gl",
                    ns(Standard, Gl) - ns(Bypass, Gl),
                );
            }
        }
        let untraced_s = median_of(np_plain, |r| r.wall_s) + median_of(gl_plain, |r| r.wall_s);
        let mut standard_runs: Vec<RunSummary> = np_plain.iter().chain(gl_plain).cloned().collect();
        let rounds_run = np_plain.len() as u64;

        // The baseline retains every source tuple, so its one informational run
        // is short.
        if workload == WorkloadId::LrQ1 {
            let tuples = sizes.tuples / BL_SIZE_DIVISOR;
            let bl = self.run(Standard, System::Bl, tuples, None, false);
            ledger.set("baseline.bl_throughput_tps", bl.throughput_tps());
            ledger.set("baseline.bl_peak_mem_mb", bl.peak_bytes as f64 / MIB);
            self.notes.push(format!(
                "baseline retained {} of {} source tuples",
                bl.bl_retained_sources, bl.source_tuples
            ));
        }

        // The traced runs: same pipeline, wrappers and spans on.
        let np_traced = self.max_rate(Standard, Np, true);
        let gl_traced = self.max_rate(Standard, Gl, true);
        let paced = self.paced(self.options.seconds * TRACED_PACED_SHARE, true);
        ledger.set("workloads.source_lag_p95_ms", paced.lag_p95_ms);
        let traced_s = np_traced.wall_s + gl_traced.wall_s;
        if untraced_s > 0.0 {
            ledger.set("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
        }

        standard_runs.extend([np_traced.clone(), gl_traced.clone(), paced.clone()]);
        ledger.set(
            "spe.plan_lower_ms",
            median_of(&standard_runs, |r| {
                (r.setup.lower_and_analyze_s - r.setup.analyze_s).max(0.0) * 1e3
            }),
        );
        ledger.set(
            "analysis.analyze_ms",
            median_of(&standard_runs, |r| r.setup.analyze_s * 1e3),
        );
        ledger.set(
            "spe.deploy_ms",
            median_of(&standard_runs, |r| r.setup.deploy_s * 1e3),
        );

        if let Some(store) = &gl_traced.store {
            ledger.set("store.put_ns_p50", store.put_p50_ns);
            ledger.set("store.put_ns_p95", store.put_p95_ns);
            ledger.set(
                "store.put_busy_share",
                store.put_total_ns / 1e9 / gl_traced.wall_s.max(1e-9),
            );
            ledger.set("store.fsync_ns_p50", store.fsync_p50_ns as f64);
            ledger.set("store.epoch_commit_p95_us", store.epoch_commit_p95_ns / 1e3);
            ledger.set("store.puts", store.puts as f64);
            ledger.set("store.bytes_written", store.bytes_written as f64);
            ledger.set("store.segments", store.segments as f64);
            ledger.set("store.compactions", store.compactions as f64);
            ledger.set("store.reopen_ms", store.reopen_ms);
            ledger.set(
                "spe.snapshot_bytes_per_epoch",
                store.snapshot_bytes as f64 / store.epochs.max(1) as f64,
            );
            self.notes.push(format!(
                "traced GL run: {} epochs at interval {CHECKPOINT_INTERVAL}",
                store.epochs
            ));
        }
        if let (Some(gl_wire), Some(np_wire)) = (&gl_traced.wire, &np_traced.wire) {
            ledger.set("distributed.frame_send_ns_p50", gl_wire.send_p50_ns);
            ledger.set("distributed.frame_send_ns_p95", gl_wire.send_p95_ns);
            ledger.set("distributed.frames", gl_wire.frames as f64);
            let forward: u64 = gl_wire.forward_bytes.iter().sum();
            ledger.set(
                "distributed.wire_bytes_per_tuple",
                (forward + gl_wire.back_bytes) as f64 / gl_traced.source_tuples.max(1) as f64,
            );
            // Results and unfolded provenance share the return link; what GL
            // ships back beyond NP's results is the provenance (plus the few
            // frames by which the two runs' metrics snapshots differ).
            ledger.set(
                "distributed.provenance_bytes",
                gl_wire.back_bytes.saturating_sub(np_wire.back_bytes) as f64,
            );
            let mean = forward as f64 / gl_wire.forward_bytes.len().max(1) as f64;
            let max = gl_wire.forward_bytes.iter().copied().max().unwrap_or(0) as f64;
            if mean > 0.0 {
                ledger.set("distributed.forward_bytes_skew", max / mean);
            }
            ledger.set(
                "distributed.dropped_frames",
                (gl_wire.dropped_frames + np_wire.dropped_frames) as f64,
            );
        }

        // The span file.
        let path = self
            .host
            .target_dir
            .join(format!("standing-trace-{}.json", workload.name()));
        let document = trace_document(workload.name(), self.options.seed, &self.spans).render();
        match std::fs::create_dir_all(&self.host.target_dir)
            .and_then(|()| std::fs::write(&path, document))
        {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                self.spans.len(),
                path.display()
            )),
            Err(error) => self
                .notes
                .push(format!("trace file {}: {error}", path.display())),
        }

        Report {
            workload,
            options: self.options.clone(),
            metrics: PER_LAYER
                .iter()
                .map(|def| Measured {
                    def: *def,
                    value: ledger.get(def.name),
                })
                .collect(),
            ops: std::mem::take(&mut self.ops),
            counts: vec![
                ("max_rate_tuples", sizes.tuples),
                ("runs", u64::from(self.next_run)),
                ("rounds", rounds_run),
                ("spans", self.spans.len() as u64),
                ("paced_tuples", paced.source_tuples),
                ("lag_samples", paced.lag_samples),
                ("elapsed_ms", started.elapsed().as_millis() as u64),
            ],
            notes: std::mem::take(&mut self.notes),
        }
    }
}

/// The per-layer values of one traced pass; anything never set reads 0.
#[derive(Debug, Default)]
struct Ledger {
    values: HashMap<&'static str, f64>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|def| def.name == name),
            "`{name}` is not a declared per-layer metric"
        );
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_metric_names_are_unique() {
        for workload in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(workload.name()), Some(workload));
            let (why, sizes) = (workload.why(), workload.sizes(false));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}",
                workload.name()
            );
            assert!(
                why.contains(&format!("{} tuples/run", sizes.tuples)),
                "{why}"
            );
            assert!(
                why.contains(&format!("paced {}/s", sizes.paced_rate_tps)),
                "{why}"
            );
        }
        assert_eq!(WorkloadId::parse("sg_q4"), None);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|def| def.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().any(|def| def.name == "setup_s"));
        assert!(END_TO_END
            .iter()
            .all(|def| def.bound.is_some_and(|b| b <= 0.25)));
    }

    #[test]
    fn a_run_request_survives_its_own_command_line() {
        let request = RunRequest {
            workload: WorkloadId::ChainAggDurable,
            variant: Variant::InMemoryStore,
            system: System::Gl,
            tuples: 300_000,
            rate: Some(80_000),
            seed: 11,
            run_id: 4,
            trace: true,
            smoke: true,
            corrupt_reference: false,
        };
        let args = request.to_args();
        assert_eq!(args[0], "--run");
        assert_eq!(RunRequest::from_args(&args[1..]).unwrap(), request);
        let max_rate = RunRequest {
            rate: None,
            trace: false,
            smoke: false,
            ..request
        };
        assert_eq!(
            RunRequest::from_args(&max_rate.to_args()[1..]).unwrap(),
            max_rate
        );
        let bad = |text: &str| {
            let args: Vec<String> = text.split_whitespace().map(String::from).collect();
            RunRequest::from_args(&args).is_err()
        };
        assert!(bad("--workload nope --tuples 1"));
        assert!(bad("--workload lr_q1"));
        assert!(bad("--tuples"));
        assert!(bad("--tuples 1 --colour red"));
    }

    #[test]
    fn variants_change_exactly_one_thing() {
        use WorkloadId::{ChainAgg, ChainAggDurable, LrQ1, TcpShards};
        assert_eq!(
            pipeline(ChainAgg, Variant::Standard, false),
            Pipeline::Chain(ChainOpts::LOCAL)
        );
        assert_eq!(
            pipeline(TcpShards, Variant::Bypass, false),
            Pipeline::Chain(ChainOpts::LOCAL)
        );
        assert_eq!(
            pipeline(ChainAggDurable, Variant::InMemoryStore, false),
            Pipeline::Chain(ChainOpts {
                store: StoreKind::InMemory,
                ..ChainOpts::LOCAL
            })
        );
        assert_eq!(
            pipeline(ChainAgg, Variant::OneShard, false),
            Pipeline::Chain(ChainOpts {
                shards: 1,
                ..ChainOpts::LOCAL
            })
        );
        assert_eq!(
            pipeline(LrQ1, Variant::FusionOff, false),
            pipeline(LrQ1, Variant::Standard, false)
        );
    }
}
