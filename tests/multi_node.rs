//! Real multi-node deployment, end to end over loopback sockets: two `spe-node`
//! accept loops (the library behind the `spe-node` binary) each host part of one
//! GeneaLog shard group, the origin connects with [`connect_gl_node_group`], and
//! the deployment must be invisible against the local single-instance oracle:
//!
//! * **sink bytes** — identical tuples in the identical canonical order;
//! * **GeneaLog contribution sets** — identical per-sink-tuple source sets,
//!   stitched across two real process-boundary-shaped sockets by the MU;
//! * **metrics** — each node's registry ends up with the mirrored counters of
//!   the shards it hosted, and the origin registry folds the shipped deltas of
//!   every remote instance into the spanning query's exposition.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genealog::prelude::*;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_gl_over, GlShardGroup, SimulatedTransport,
};
use genealog_distributed::{
    connect_gl_node_group, run_node, serve_node_connection, NetworkConfig, NodeDeployment,
    NodeReading, NodeStores, ShardOpSpec,
};
use genealog_metrics::MetricsRegistry;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::query::QueryConfig;
use genealog_spe::runtime::QueryReport;
use genealog_spe::state::{run_with_recovery, CheckpointConfig, CheckpointStore, RecoveryConfig};
use genealog_spe::PlannerConfig;
use genealog_store::{DurableBackend, StoreOptions};

type Reading = NodeReading;
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Must match `ShardOpSpec::SumAggregate { size_ms: 8_000, slide_ms: 4_000 }`.
fn window_spec() -> WindowSpec {
    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap()
}

fn sum_key(r: &Reading) -> u32 {
    r.0
}

fn sum_window(w: &WindowView<'_, u32, Reading, GlMeta>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

fn readings() -> Vec<(Timestamp, Reading)> {
    (0..36u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 3) as u32, i as i64 - 12)))
        .collect()
}

fn canonical_lineage(
    records: &[genealog_distributed::ProvenanceRecord<Reading, Reading>],
) -> Vec<Lineage> {
    let mut lineage: Vec<Lineage> = records
        .iter()
        .map(|r| {
            let key = (r.sink_ts.as_millis(), format!("{:?}", r.sink_data));
            let sources: BTreeSet<SinkTuple> = r
                .sources
                .iter()
                .map(|s| (s.ts.as_millis(), format!("{:?}", s.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    lineage
}

/// The single-instance reference plan.
fn run_local() -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(readings()));
    let sums = q.aggregate("sum", src, window_spec(), sum_key, sum_window);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", sums);
    let sink = q.collecting_sink("sink", out);
    q.deploy().unwrap().wait().unwrap();

    let tuples = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    let mut lineage: Vec<Lineage> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
            let sources: BTreeSet<SinkTuple> = a
                .source_records::<Reading>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    (tuples, lineage)
}

/// One in-process node: a bound listener plus the accept loop on its own thread,
/// serving exactly one deployment before exiting — the `spe-node --once` shape.
struct Node {
    addr: SocketAddr,
    registry: Arc<MetricsRegistry>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

fn spawn_node() -> Node {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let registry = MetricsRegistry::new();
    let node_registry = Arc::clone(&registry);
    let thread = std::thread::spawn(move || {
        run_node(
            listener,
            &node_registry,
            NetworkConfig::unlimited(),
            Some(1),
            None,
            &NodeStores::new(),
        )
    });
    Node {
        addr,
        registry,
        thread,
    }
}

#[test]
fn two_nodes_hosting_one_shard_group_match_the_local_oracle() {
    let node_a = spawn_node();
    let node_b = spawn_node();

    let template = NodeDeployment {
        group: "sum".into(),
        shards: Vec::new(), // per-node lists below
        total_shards: 3,
        first_instance: 1, // origin is instance 0
        fusion: false,
        op: ShardOpSpec::SumAggregate {
            size_ms: 8_000,
            slide_ms: 4_000,
        },
        checkpoint_interval: None,
        restore_epoch: None,
    };
    let shards = connect_gl_node_group(
        &template,
        &[(node_a.addr, vec![0, 2]), (node_b.addr, vec![1])],
        NetworkConfig::unlimited(),
    )
    .unwrap();
    let mut group = shards.group;

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(readings()))
        .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
        .place(shards.placements);
    let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        shards.provenance_links,
        Duration::from_hours(24),
    );
    let sink = out.collecting_sink("sink");

    // The origin folds every node-hosted shard's shipped registry deltas.
    let analyzed = plan.analyze().unwrap();
    assert!(
        !analyzed.report.has_errors(),
        "the spanning plan must analyze clean:\n{}",
        analyzed.report.render()
    );
    let query = analyzed.query;
    let registry = query.registry();
    group.stream_metrics_into("sum", &registry);

    query.deploy().unwrap().wait().unwrap();
    group.wait().unwrap();
    let (registry_a, registry_b) = (Arc::clone(&node_a.registry), Arc::clone(&node_b.registry));
    node_a.thread.join().unwrap().unwrap();
    node_b.thread.join().unwrap().unwrap();

    // Sink bytes and stitched lineage equal the local single-instance oracle.
    let (local_tuples, local_lineage) = run_local();
    let remote_tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    assert!(!remote_tuples.is_empty());
    assert_eq!(local_tuples, remote_tuples);
    assert_eq!(local_lineage, canonical_lineage(&provenance.records()));

    // The origin exposition saw the remote shards: the folded per-operator
    // counter covers all 36 source tuples across both nodes.
    let exposition = registry.render_prometheus();
    let tuples_in = exposition
        .lines()
        .find_map(|l| l.strip_prefix("genealog_operator_tuples_in_total{operator=\"sum\"} "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("folded shard counter in the origin exposition");
    assert_eq!(tuples_in, 36);

    // Each node's own registry mirrors the shards it hosted (what its control
    // endpoint would serve), under per-shard remote instance keys.
    for (registry, hosted) in [(&registry_a, 24u64), (&registry_b, 12u64)] {
        let exposition = registry.render_prometheus();
        let node_tuples_in = exposition
            .lines()
            .find_map(|l| l.strip_prefix("genealog_operator_tuples_in_total{operator=\"sum\"} "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("mirrored shard counters in the node exposition");
        assert_eq!(
            node_tuples_in, hosted,
            "a node's registry must mirror exactly the shards it hosted"
        );
    }
}

/// **In-process and node-hosted shards cannot drift.** The same
/// `ShardOpSpec::SumAggregate` plan deployed once through the in-process builder
/// and once onto a node (an in-process `serve_node_connection` thread) must yield
/// equal sink bytes, equal contribution sets and — both go through one
/// per-instance wiring function — the same set of operator names in the merged
/// report.
#[test]
fn in_process_and_node_hosted_shards_wire_the_same_instances() {
    /// Drives the origin plan over a deployed 2-shard `sum` group; returns sink
    /// bytes, stitched lineage and the origin's + the locally hosted reports.
    fn run_origin(
        shards: GlShardGroup<Reading, Reading>,
    ) -> (Vec<SinkTuple>, Vec<Lineage>, Vec<QueryReport>) {
        let plan = GlPlan::new(GeneaLog::for_instance(0));
        let sums = plan
            .source("readings", VecSource::new(readings()))
            .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
            .place(shards.placements);
        let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
            sums,
            "prov",
            shards.provenance_links,
            Duration::from_hours(24),
        );
        let sink = out.collecting_sink("sink");
        let mut reports = vec![plan.deploy().unwrap().wait().unwrap()];
        reports.extend(shards.group.wait().unwrap());
        let tuples = sink
            .tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
            .collect();
        (tuples, canonical_lineage(&provenance.records()), reports)
    }
    fn operator_names(reports: Vec<QueryReport>) -> BTreeSet<String> {
        QueryReport::merge_distributed(reports)
            .operator_stats()
            .iter()
            .map(|op| op.stats.name.clone())
            .collect()
    }

    // Same engine configuration a node gives its hosted shards.
    let in_process = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        2,
        1,
        &SimulatedTransport::new(NetworkConfig::unlimited()),
        QueryConfig::default().with_metrics(true),
        |q, _shard, input| q.aggregate("sum", input, window_spec(), sum_key, sum_window),
    )
    .unwrap();
    let (local_tuples, local_lineage, local_reports) = run_origin(in_process);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let node = std::thread::spawn(move || {
        let (stream, _) = listener.accept()?;
        serve_node_connection(
            stream,
            &MetricsRegistry::new(),
            NetworkConfig::unlimited(),
            None,
            &NodeStores::new(),
        )
    });
    let template = NodeDeployment {
        group: "sum".into(),
        shards: Vec::new(),
        total_shards: 2,
        first_instance: 1,
        fusion: false,
        op: ShardOpSpec::SumAggregate {
            size_ms: 8_000,
            slide_ms: 4_000,
        },
        checkpoint_interval: None,
        restore_epoch: None,
    };
    let hosted =
        connect_gl_node_group(&template, &[(addr, vec![0, 1])], NetworkConfig::unlimited())
            .unwrap();
    let (node_tuples, node_lineage, mut node_reports) = run_origin(hosted);
    node_reports.extend(node.join().unwrap().unwrap());

    assert!(!local_tuples.is_empty());
    assert_eq!(local_tuples, node_tuples);
    assert_eq!(local_lineage, node_lineage);
    assert_eq!(operator_names(local_reports), operator_names(node_reports));
}

/// The staged catalogue entry (`FilteredScaledSum`) with node-side fusion on:
/// filter → map collapse into one thread inside each hosted engine, and the
/// result still matches the unfused local plan with the same stages.
#[test]
fn staged_node_shards_with_fusion_match_the_local_staged_oracle() {
    let local = {
        let mut q = GlQuery::new(GeneaLog::new());
        let src = q.source("readings", VecSource::new(readings()));
        let kept = q.filter("keep", src, |r: &Reading| r.1 % 3 != 0);
        let scaled = q.map_one("scale", kept, |r: &Reading| (r.0, r.1 * 2));
        let sums = q.aggregate("sum", scaled, window_spec(), sum_key, sum_window);
        let (out, provenance) = attach_provenance_sink(&mut q, "prov", sums);
        let sink = q.collecting_sink("sink", out);
        q.deploy().unwrap().wait().unwrap();
        let tuples: Vec<SinkTuple> = sink
            .tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
            .collect();
        let mut lineage: Vec<Lineage> = provenance
            .assignments()
            .iter()
            .map(|a| {
                let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
                let sources: BTreeSet<SinkTuple> = a
                    .source_records::<Reading>()
                    .iter()
                    .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                    .collect();
                (key, sources)
            })
            .collect();
        lineage.sort();
        (tuples, lineage)
    };

    let node = spawn_node();
    let template = NodeDeployment {
        group: "sum".into(),
        shards: Vec::new(),
        total_shards: 2,
        first_instance: 1,
        fusion: true,
        op: ShardOpSpec::FilteredScaledSum {
            size_ms: 8_000,
            slide_ms: 4_000,
        },
        checkpoint_interval: None,
        restore_epoch: None,
    };
    let shards = connect_gl_node_group(
        &template,
        &[(node.addr, vec![0, 1])],
        NetworkConfig::unlimited(),
    )
    .unwrap();

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(readings()))
        .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
        .place(shards.placements);
    let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        shards.provenance_links,
        Duration::from_hours(24),
    );
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    shards.group.wait().unwrap();
    node.thread.join().unwrap().unwrap();

    let remote_tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    assert!(!remote_tuples.is_empty());
    assert_eq!(local.0, remote_tuples);
    assert_eq!(local.1, canonical_lineage(&provenance.records()));
}

// ---------------------------------------------------------------------------
// Cross-process crash recovery: SIGKILL a real worker process mid-epoch,
// restart it against the same --state-dir, and the recovered deployment must
// be byte-identical to the fault-free oracle.
// ---------------------------------------------------------------------------

/// One real `spe-node` worker process, spawned from the compiled binary.
struct Worker {
    child: Child,
    addr: SocketAddr,
    ready: PathBuf,
}

fn spawn_worker(state_dir: &Path, tag: &str) -> Worker {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let ready = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "spe-node-ready-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&ready);
    let child = Command::new(env!("CARGO_BIN_EXE_spe-node"))
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(state_dir)
        .arg("--ready-file")
        .arg(&ready)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn the spe-node worker binary");
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&ready)
            .ok()
            .and_then(|text| text.lines().next().and_then(|l| l.parse().ok()))
        {
            break addr;
        }
        assert!(
            Instant::now() < deadline,
            "spe-node never wrote its ready file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    Worker { child, addr, ready }
}

/// A worker SIGKILLed between two barriers — no flush, no goodbye, a torn
/// record likely mid-segment — then restarted against the same `--state-dir`
/// must restore its shard state from its own disk, and the recovered run's
/// sink bytes and stitched contribution sets must equal the local fault-free
/// oracle. Worker state crosses the crash *only* through the durable store:
/// the replacement is a brand-new OS process.
#[test]
fn sigkilled_worker_restarted_from_its_state_dir_recovers_byte_identically() {
    const INTERVAL: u64 = 5;
    /// Tuples the origin lets through before stalling to wait for the kill:
    /// enough for two complete epochs at `INTERVAL` = 5.
    const GATE_AT: u64 = 12;
    const TOTAL_SHARDS: u32 = 2;

    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let state_a = tmp.join(format!("node-a-{}", std::process::id()));
    let state_b = tmp.join(format!("node-b-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_a);
    let _ = std::fs::remove_dir_all(&state_b);

    let worker_a = spawn_worker(&state_a, "a");
    let worker_b = Arc::new(Mutex::new(spawn_worker(&state_b, "b")));

    let store = CheckpointStore::in_memory();
    // One provenance system for all attempts (shared id counters) and a fresh
    // instance namespace per attempt for the node-hosted shards, so replayed
    // tuple ids never collide with checkpointed ones.
    let origin_system = GeneaLog::for_instance(0);
    let released = Arc::new(AtomicBool::new(false));
    let killed = Arc::new(AtomicBool::new(false));

    // The killer: once the origin observes a complete epoch (which implies
    // every hosted shard durably committed it — stores fsync before the
    // barrier is forwarded), SIGKILL worker B mid-run and unblock the stream.
    {
        let store = Arc::clone(&store);
        let released = Arc::clone(&released);
        let killed = Arc::clone(&killed);
        let worker_b = Arc::clone(&worker_b);
        std::thread::spawn(move || {
            let deadline = Instant::now() + std::time::Duration::from_secs(60);
            while store.latest_complete_epoch().is_none_or(|e| e < 1) && Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            worker_b
                .lock()
                .unwrap()
                .child
                .kill()
                .expect("SIGKILL worker B");
            killed.store(true, Ordering::SeqCst);
            released.store(true, Ordering::SeqCst);
        });
    }

    let worker_a_addr = worker_a.addr;
    let restore_epochs: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
    let restore_epochs_seen = Arc::clone(&restore_epochs);
    let (_, (sink, provenance, group)) = run_with_recovery(
        &store,
        RecoveryConfig {
            max_attempts: 4,
            backoff: std::time::Duration::from_millis(50),
        },
        |attempt| {
            if attempt > 0 {
                // Restart the SIGKILLed worker: a brand-new process, same disk.
                let mut guard = worker_b.lock().unwrap();
                let _ = guard.child.wait();
                *guard = spawn_worker(&state_b, "b-restarted");
            }
            let worker_b_addr = worker_b.lock().unwrap().addr;
            let template = NodeDeployment {
                group: "sum".into(),
                shards: Vec::new(),
                total_shards: TOTAL_SHARDS,
                first_instance: 1 + attempt as u32 * TOTAL_SHARDS,
                fusion: false,
                op: ShardOpSpec::SumAggregate {
                    size_ms: 8_000,
                    slide_ms: 4_000,
                },
                checkpoint_interval: Some(INTERVAL),
                restore_epoch: if attempt == 0 {
                    None
                } else {
                    store.restore_epoch()
                },
            };
            restore_epochs_seen
                .lock()
                .unwrap()
                .push(template.restore_epoch);
            let shards = connect_gl_node_group(
                &template,
                &[(worker_a_addr, vec![0]), (worker_b_addr, vec![1])],
                NetworkConfig::unlimited(),
            )?;
            let plan = GlPlan::with_config(
                origin_system.clone(),
                PlannerConfig::default()
                    .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
            );
            let released = Arc::clone(&released);
            let seen = Arc::new(AtomicU64::new(0));
            let sums = plan
                .source("readings", VecSource::new(readings()))
                .filter("gate", move |_r: &Reading| {
                    if seen.fetch_add(1, Ordering::SeqCst) + 1 > GATE_AT {
                        while !released.load(Ordering::SeqCst) {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                        }
                    }
                    true
                })
                .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
                .place(shards.placements);
            let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
                sums,
                "prov",
                shards.provenance_links,
                Duration::from_hours(24),
            );
            let sink = out.collecting_sink("sink");
            Ok((plan.deploy()?, (sink, provenance, shards.group)))
        },
    )
    .expect("cross-process recovery must succeed within the attempt budget");
    group.wait().expect("winning attempt's node-hosted shards");

    assert!(
        killed.load(Ordering::SeqCst),
        "the killer must have SIGKILLed worker B mid-run"
    );
    assert!(
        store.recoveries() >= 1,
        "the SIGKILL must push the run through recovery"
    );
    assert!(
        state_b.join("sum").is_dir(),
        "the restarted worker must have reopened its on-disk store"
    );
    let restores = restore_epochs.lock().unwrap().clone();
    assert!(
        restores.last().is_some_and(|e| e.is_some()),
        "the winning re-deployment must pin an origin-complete restore epoch \
         (the restarted worker restores it from its own disk), got {restores:?}"
    );

    // Byte-identical to the fault-free local oracle: same sink tuples in the
    // same canonical order, same per-sink-tuple source sets stitched across
    // the real process boundary.
    let (local_tuples, local_lineage) = run_local();
    let remote_tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    assert!(!remote_tuples.is_empty());
    assert_eq!(local_tuples, remote_tuples);
    assert_eq!(local_lineage, canonical_lineage(&provenance.records()));

    // SIGTERM (clean shutdown) on the surviving worker: manifests flush, the
    // ready file is removed, and the process exits 0.
    let pid = worker_a.child.id();
    let status = Command::new("kill")
        .arg("-TERM")
        .arg(pid.to_string())
        .status()
        .expect("send SIGTERM to worker A");
    assert!(status.success(), "kill -TERM must reach worker A");
    let mut worker_a = worker_a;
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = worker_a.child.try_wait().expect("poll worker A") {
            break exit;
        }
        assert!(
            Instant::now() < deadline,
            "worker A did not exit on SIGTERM"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    assert!(exit.success(), "SIGTERM must be a clean (code 0) shutdown");
    assert!(
        !worker_a.ready.exists(),
        "a clean shutdown must remove the ready file"
    );
    // The flushed manifest marks the shutdown clean — visible to the next open.
    let reopened = DurableBackend::open_with(state_a.join("sum"), StoreOptions::incremental())
        .expect("reopen worker A's store");
    assert!(
        reopened.previous_clean_shutdown(),
        "SIGTERM must flush the store manifest with the clean-shutdown marker"
    );
    assert!(
        reopened.latest_complete_epoch().is_some(),
        "worker A's disk must hold the complete epochs it committed"
    );

    // Worker B is cleaned up hard; its disk already proved its point.
    let mut guard = worker_b.lock().unwrap();
    let _ = guard.child.kill();
    let _ = guard.child.wait();
}
