//! The live observability plane, end to end: a GeneaLog query whose sharded
//! aggregate mixes a local shard with remote SPE instances runs with the embedded
//! control endpoint attached, and we pin — over real HTTP against the running
//! server — that
//!
//! * `/metrics` serves the Prometheus exposition of the *whole* spanning shard
//!   group (remote instances ship registry deltas over their return links), with
//!   per-operator tuple counters, queue-depth gauges and sink-latency histogram
//!   quantiles agreeing exactly with the final distributed [`QueryReport`];
//! * `/provenance/{sink_tuple_id}` returns exactly the oracle-pinned GeneaLog
//!   contribution set of that sink tuple;
//! * `/healthz` and `/topology.dot` serve liveness and the deployed graph.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use genealog::prelude::*;
use genealog_control::ControlPlane;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_gl_over, SimulatedTransport,
};
use genealog_distributed::NetworkConfig;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::query::{QueryConfig, ShardPlacement};

type Key = u32;
type Reading = (Key, i64);

/// A hand-rolled HTTP GET against the control endpoint (no client dependency).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: control\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, body.to_string())
}

/// The value of one exposition line, e.g. `metric("...", "operator=\"sum\"")`.
fn metric_value(exposition: &str, name: &str, labels: &str) -> Option<u64> {
    let needle = format!("{name}{{{labels}}} ");
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .and_then(|v| v.parse().ok())
}

fn window_spec() -> WindowSpec {
    WindowSpec::tumbling(Duration::from_secs(60)).unwrap()
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window(w: &WindowView<'_, Key, Reading, GlMeta>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

/// 12 readings, one every 10 s, keys cycling 0,1,2 — so the 60 s tumbling windows
/// and their per-key contribution sets are computable by hand.
fn readings() -> Vec<(Timestamp, Reading)> {
    (0..12u64)
        .map(|t| (Timestamp::from_secs(t * 10), ((t % 3) as Key, t as i64)))
        .collect()
}

/// The oracle: per (window sum) sink payload, the set of contributing source
/// readings as `(ts_secs, value)`.
fn oracle() -> Vec<(Reading, BTreeSet<(u64, i64)>)> {
    let mut expected = Vec::new();
    for window in 0..2u64 {
        for key in 0..3u32 {
            let sources: BTreeSet<(u64, i64)> = (0..12u64)
                .filter(|t| t * 10 / 60 == window && (t % 3) as u32 == key)
                .map(|t| (t * 10, t as i64))
                .collect();
            let sum = sources.iter().map(|(_, v)| v).sum::<i64>();
            expected.push(((key, sum), sources));
        }
    }
    expected
}

#[test]
fn control_endpoint_serves_live_metrics_and_provenance_of_a_spanning_query() {
    // Shards 1 and 2 of the aggregate run on remote SPE instances; shard 0 stays
    // local. The remote instances' registries stream back over the shared links.
    let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        2,
        1,
        &SimulatedTransport::new(NetworkConfig::unlimited()),
        QueryConfig::default(),
        move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
    )
    .unwrap();
    let mut placements = vec![ShardPlacement::Local];
    placements.extend(shards.placements);
    let mut group = shards.group;

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(readings()))
        .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
        .place(placements);
    let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        shards.provenance_links,
        Duration::from_hours(24),
    );
    let sink = out.collecting_sink("sink");

    // Lower by hand: the control plane needs the registry, the DOT rendering and
    // the analyzer's report before deployment consumes the query.
    let analyzed = plan.analyze().unwrap();
    assert!(
        !analyzed.report.has_errors(),
        "the spanning plan must analyze clean:\n{}",
        analyzed.report.render()
    );
    let query = analyzed.query;
    let registry = query.registry();
    group.stream_metrics_into("sum", &registry);
    let server = ControlPlane::new(std::sync::Arc::clone(&registry))
        .with_topology(genealog_analysis::dot::physical(&analyzed.facts))
        .with_provenance(provenance.clone())
        .with_analysis(analyzed.report.to_json())
        .serve()
        .unwrap();

    // The endpoint is live while the query runs.
    let (status, body) = http_get(server.addr(), "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let origin_report = query.deploy().unwrap().wait().unwrap();
    let remote_reports = group.wait().unwrap();
    let merged =
        QueryReport::merge_distributed(std::iter::once(origin_report).chain(remote_reports));

    // --- /provenance/{sink_tuple_id}: exactly the oracle contribution set. ---
    let records = provenance.records();
    assert_eq!(records.len(), 6, "2 windows x 3 keys");
    for (sink_data, expected_sources) in oracle() {
        let record = records
            .iter()
            .find(|r| r.sink_data == sink_data)
            .unwrap_or_else(|| panic!("no sink tuple {sink_data:?}"));
        let got: BTreeSet<(u64, i64)> = record
            .sources
            .iter()
            .map(|s| (s.ts.as_secs(), s.data.1))
            .collect();
        assert_eq!(got, expected_sources, "lineage of {sink_data:?}");

        // The HTTP answer (dash-form id, as a curl user would write it).
        let path = format!(
            "/provenance/{}-{}",
            record.sink_id.origin, record.sink_id.seq
        );
        let (status, body) = http_get(server.addr(), &path);
        assert_eq!(status, 200, "{path} must resolve");
        assert_eq!(
            body,
            provenance
                .contribution_json(&record.sink_id.to_string())
                .unwrap()
        );
        assert!(body.contains(&format!(r#""id":"{}""#, record.sink_id)));
        assert!(body.contains(&format!(r#""source_count":{}"#, expected_sources.len())));
        for (ts_secs, value) in &expected_sources {
            let source = format!(
                r#"{{"id":"0#{value}","ts_ms":{},"data":"({}, {value})""#,
                ts_secs * 1000,
                value % 3
            );
            assert!(body.contains(&source), "{path}: missing {source} in {body}");
        }
    }
    let (status, _) = http_get(server.addr(), "/provenance/99-99");
    assert_eq!(status, 404, "unknown sink tuples are 404");

    // --- /metrics: the exposition agrees with the final distributed report. ---
    let (status, exposition) = http_get(server.addr(), "/metrics");
    assert_eq!(status, 200);

    // Per-operator tuple counters: the shard group spanning one local and two
    // remote instances reports as ONE operator series, equal to the folded report.
    let sum_report = merged.operator("sum").expect("folded shard report");
    assert_eq!(sum_report.instances, 3);
    assert_eq!(sum_report.stats.tuples_in, 12);
    assert_eq!(
        metric_value(
            &exposition,
            "genealog_operator_tuples_in_total",
            r#"operator="sum""#
        ),
        Some(sum_report.stats.tuples_in)
    );
    assert_eq!(
        metric_value(
            &exposition,
            "genealog_operator_tuples_out_total",
            r#"operator="sum""#
        ),
        Some(sum_report.stats.tuples_out)
    );
    for endpoint in ["sum.egress", "sum.recv", "sum.send", "sum.ingress"] {
        let report = merged.operator(endpoint).expect(endpoint);
        assert_eq!(
            metric_value(
                &exposition,
                "genealog_operator_tuples_in_total",
                &format!(r#"operator="{endpoint}""#)
            ),
            Some(report.stats.tuples_in),
            "{endpoint} counter must agree with the folded report"
        );
    }
    // The source heads the chain the exchange seals; its own row is stage 0.
    assert!(merged.operator("readings+sum.exchange").is_some());
    let source_stage = merged.fused_stage("readings").expect("source stage");
    assert_eq!(
        metric_value(
            &exposition,
            "genealog_operator_tuples_out_total",
            r#"operator="readings""#
        ),
        Some(source_stage.tuples_out)
    );
    assert_eq!(
        metric_value(
            &exposition,
            "genealog_source_replay_offset",
            r#"operator="readings""#
        ),
        Some(12)
    );

    // The multi-stream unfolder is one stitch, fused with its sink, keyed by tuple
    // id: a probe visits the entries stored under its own id, never the window. It
    // takes every derived event — 4 SOURCE-origin events of the local shard's 2 sink
    // tuples, 4 REMOTE-origin ones of the remote shards' 4 — plus one lineage group
    // per remote result (4), and emits one record fragment per derived event (8).
    // Each REMOTE event meets its group once, probing from whichever came second.
    let mu = merged.fused_stage("prov-mu").expect("MU stitch stage");
    assert_eq!(mu.tuples_in, 4 + 4 + 4);
    assert_eq!(mu.tuples_out, 8);
    let candidates = metric_value(
        &exposition,
        "genealog_join_probe_candidates_total",
        r#"operator="prov-mu""#,
    )
    .expect("stitch probe counter is exported");
    assert_eq!(
        candidates, 4,
        "{candidates} candidates for 4 REMOTE events: the stitch is scanning"
    );
    for side in ["left", "right"] {
        assert_eq!(
            metric_value(
                &exposition,
                "genealog_join_window_tuples",
                &format!(r#"operator="prov-mu",side="{side}""#)
            ),
            Some(0),
            "a finished stitch retains nothing"
        );
    }

    // Queue-depth gauges exist per edge and read 0 on the drained query.
    let depth_lines: Vec<&str> = exposition
        .lines()
        .filter(|l| l.starts_with("genealog_channel_queue_depth{edge="))
        .collect();
    assert!(!depth_lines.is_empty(), "queue-depth gauges are exported");
    assert!(
        depth_lines.iter().all(|l| l.ends_with(" 0")),
        "drained channels report depth 0: {depth_lines:?}"
    );

    // Sink-latency histogram: count and quantiles equal the report's snapshot.
    assert_eq!(sink.len() as u64, 6);
    let sink_report = merged.operator("sink").expect("sink report");
    let latency = sink_report.latency.as_ref().expect("latency histogram");
    assert_eq!(latency.count(), 6);
    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        assert_eq!(
            metric_value(
                &exposition,
                "genealog_sink_latency_ns",
                &format!(r#"operator="sink",quantile="{label}""#)
            ),
            Some(latency.quantile(q)),
            "p{label} must agree with the report snapshot"
        );
    }
    assert_eq!(
        metric_value(
            &exposition,
            "genealog_sink_latency_ns_count",
            r#"operator="sink""#
        ),
        Some(latency.count())
    );

    // --- /topology.dot: the deployed graph, with the spliced endpoints. ---
    let (status, dot) = http_get(server.addr(), "/topology.dot");
    assert_eq!(status, 200);
    assert!(dot.starts_with("digraph"));
    for node in ["readings", "sum.exchange", "sum.merge", "sink"] {
        assert!(dot.contains(node), "topology must render {node}");
    }

    // --- /analyze: the deploy-time diagnostics of the deployed plan as JSON. ---
    let (status, analysis) = http_get(server.addr(), "/analyze");
    assert_eq!(status, 200);
    assert!(
        analysis.starts_with(r#"{"errors":0,"#),
        "the served report is the clean analyzer verdict: {analysis}"
    );
    assert!(analysis.contains(r#""diagnostics":["#));

    server.shutdown();
}

/// A checkpointed local query over a durable store, served on `/metrics` after
/// it ran: the sharded `sum` aggregate sits behind `stages` Map operators.
fn durable_run_exposition(tag: &str, stages: usize) -> String {
    use genealog::GlWindowPersister;
    use genealog_spe::state::{CheckpointConfig, CheckpointStore, StateBackend};
    use genealog_spe::PlannerConfig;
    use genealog_store::{DurableBackend, StoreOptions};

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("control-plane-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = DurableBackend::open_with(&dir, StoreOptions::incremental()).unwrap();
    let store =
        CheckpointStore::new(std::sync::Arc::clone(&backend) as std::sync::Arc<dyn StateBackend>);
    let checkpoints =
        CheckpointConfig::new(3, store).with_window_persister::<Key, Reading, GlMeta>(
            std::sync::Arc::new(GlWindowPersister::<Key, Reading, Reading>::new()),
        );

    let plan = GlPlan::with_config(
        GeneaLog::new(),
        PlannerConfig::default().with_checkpoints(checkpoints),
    );
    let mut stream = plan.source("readings", VecSource::new(readings()));
    for stage in 0..stages {
        stream = stream.map_one(&format!("stage{stage}"), |r: &Reading| (r.0, r.1 + 1));
    }
    let sums = stream
        .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
        .with(Parallelism::shards(2));
    let (out, _provenance) = logical_provenance_sink(sums, "prov");
    let _sink = out.collecting_sink("sink");

    let query = plan.analyze().unwrap().query;
    let registry = query.registry();
    backend.publish_metrics(&registry);
    let server = ControlPlane::new(std::sync::Arc::clone(&registry))
        .serve()
        .unwrap();
    query.deploy().unwrap().wait().unwrap();
    let (status, exposition) = http_get(server.addr(), "/metrics");
    assert_eq!(status, 200);
    let _ = std::fs::remove_dir_all(&dir);
    exposition
}

/// The barrier path's instruments — one sample per barrier, never per tuple —
/// are on `/metrics`: how long the window-snapshot encode took per operator and
/// how long the durable `put` took next to its fsync. And a registered persister
/// that *refuses* a snapshot (the aggregate buffers tuples whose provenance
/// pointers end in a non-terminal Map tuple) is visible as a count and a trace
/// event instead of quietly committing process-local state into a durable store.
#[test]
fn checkpoint_instruments_and_inline_fallbacks_are_on_the_exposition() {
    let sum = r#"operator="sum""#;
    let fallbacks = "genealog_checkpoint_inline_fallbacks_total";

    // One Map in front: occurrences point at SOURCE terminals, every snapshot
    // encodes, 12 readings at interval 3 make 4 barriers for each of 2 shards.
    let healthy = durable_run_exposition("healthy", 1);
    assert_eq!(
        metric_value(
            &healthy,
            "genealog_checkpoint_snapshot_encode_ns_count",
            sum
        ),
        Some(8),
        "{healthy}"
    );
    assert_eq!(metric_value(&healthy, fallbacks, sum), Some(0));
    let line = |name: &str| {
        healthy
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    let puts = line("genealog_checkpoint_store_put_ns_count ").expect("put histogram");
    assert_eq!(
        Some(puts),
        line("genealog_checkpoint_store_fsync_ns_count "),
        "one fsync per byte-snapshot put"
    );
    assert!(puts >= 8, "the aggregate's 8 containers at least: {puts}");

    // Two Maps in front: the pointers end in a non-terminal tuple.
    let refused = genealog_metrics::CountingSubscriber::new("checkpoint-inline-fallback", "sum[0]");
    genealog_metrics::Tracer::global().subscribe(refused.clone());
    let lossy = durable_run_exposition("lossy", 2);
    assert_eq!(metric_value(&lossy, fallbacks, sum), Some(8), "{lossy}");
    assert_eq!(refused.hits(), 4, "one event per barrier of shard 0");
    let event = genealog_metrics::Tracer::global()
        .recent()
        .into_iter()
        .rev()
        .find(|e| e.kind == "checkpoint-inline-fallback")
        .unwrap();
    assert!(event.message.starts_with("epoch "), "{}", event.message);
}

/// A completed epoch retires every older snapshot, and the live plane shows it:
/// a checkpointed run of fifty epochs through a two-shard aggregate, scraped
/// once it ends, reports no more retained snapshots than two epochs' worth per
/// participant.
#[test]
fn retained_snapshots_stay_bounded_over_many_epochs() {
    use genealog_spe::state::{CheckpointConfig, CheckpointStore};
    use genealog_spe::PlannerConfig;

    let store = CheckpointStore::in_memory();
    let plan = GlPlan::with_config(
        GeneaLog::new(),
        PlannerConfig::default()
            .with_checkpoints(CheckpointConfig::new(4, std::sync::Arc::clone(&store))),
    );
    let readings: Vec<(Timestamp, Reading)> = (0..200u64)
        .map(|t| (Timestamp::from_secs(t * 10), ((t % 3) as Key, t as i64)))
        .collect();
    let sums = plan
        .source("readings", VecSource::new(readings))
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(2));
    let (out, _provenance) = logical_provenance_sink(sums, "prov");
    let _sink = out.collecting_sink("sink");
    let query = plan.lower().unwrap();
    let server = ControlPlane::new(query.registry()).serve().unwrap();
    query.deploy().unwrap().wait().unwrap();
    let (status, exposition) = http_get(server.addr(), "/metrics");
    server.shutdown();
    assert_eq!(status, 200);

    let gauge = |name: &str| {
        exposition
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.parse::<u64>().ok())
    };
    assert_eq!(
        gauge("genealog_checkpoint_latest_complete_epoch"),
        Some(51),
        "fifty barriers, all complete: {exposition}"
    );
    let participants = store.participants().len() as u64;
    let retained = gauge("genealog_checkpoint_retained_snapshots").expect("retained gauge");
    assert!(
        retained > 0 && retained <= 2 * participants,
        "{retained} snapshots retained for {participants} participants"
    );
}

/// Every `(logical name, tuples in, tuples out)` of a report: an operator's own
/// row, or — for a fused chain — one row per stage instead of the chain's.
fn report_rows(report: &QueryReport) -> std::collections::BTreeMap<String, (u64, u64)> {
    let mut rows = std::collections::BTreeMap::new();
    for op in report.operator_stats() {
        let stats = match op.stages.is_empty() {
            true => std::slice::from_ref(&op.stats),
            false => op.stages.as_slice(),
        };
        for s in stats {
            let clash = rows.insert(s.name.clone(), (s.tuples_in, s.tuples_out));
            assert_eq!(clash, None, "`{}` reported twice", s.name);
        }
    }
    rows
}

/// The two views of the operator ledger — the live scrape and the end-of-run
/// report — read the same counters, whichever way the plan was cut into threads:
/// `source → filter → map → 3-shard aggregate → per-shard filter → sink` has a
/// fusable pre-exchange chain and a shard region whose stages run once per shard,
/// so one logical name is summed over fused stages, over shard instances, or both.
#[test]
fn scrape_and_report_agree_per_logical_name_fused_and_sharded() {
    use genealog_spe::PlannerConfig;

    let run = |fusion: bool| {
        let plan = GlPlan::with_config(
            GeneaLog::new(),
            PlannerConfig::default().with_fusion(fusion),
        );
        let sink = plan
            .source("readings", VecSource::new(readings()))
            .filter("keep", |r: &Reading| r.1 % 4 != 0)
            .map_one("scale", |r: &Reading| (r.0, r.1 * 10))
            .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
            .with(Parallelism::shards(3))
            .filter("busy", |r: &Reading| r.1 > 100)
            .collecting_sink("sink");
        let query = plan.lower().unwrap();
        let server = ControlPlane::new(query.registry()).serve().unwrap();
        let report = query.deploy().unwrap().wait().unwrap();
        let (status, exposition) = http_get(server.addr(), "/metrics");
        assert_eq!(status, 200);
        server.shutdown();

        let rows = report_rows(&report);
        for (name, (tuples_in, tuples_out)) in &rows {
            let label = format!(r#"operator="{name}""#);
            let scraped = |metric| metric_value(&exposition, metric, &label);
            assert_eq!(
                scraped("genealog_operator_tuples_in_total"),
                Some(*tuples_in),
                "fusion {fusion}: `{name}` in"
            );
            assert_eq!(
                scraped("genealog_operator_tuples_out_total"),
                Some(*tuples_out),
                "fusion {fusion}: `{name}` out"
            );
        }
        let series = exposition
            .lines()
            .filter(|l| l.starts_with("genealog_operator_tuples_in_total{"))
            .count();
        assert_eq!(series, rows.len(), "no series without a report row");

        // Every channel carries a receiver-park counter next to its stall
        // counter: where the remaining hops are, and how often their consumer
        // slept on an empty queue.
        let edges = |metric: &str| -> BTreeSet<String> {
            exposition
                .lines()
                .filter_map(|l| l.strip_prefix(metric)?.strip_prefix("{edge=\""))
                .filter_map(|l| Some(l.split_once("\"}")?.0.to_string()))
                .collect()
        };
        let parked = edges("genealog_channel_receiver_parks_total");
        assert_eq!(
            parked,
            edges("genealog_channel_backpressure_stalls_total"),
            "fusion {fusion}: one park counter per channel"
        );
        (rows, report, sink.len(), parked)
    };

    let (fused, fused_report, fused_sunk, fused_edges) = run(true);
    let (unfused, unfused_report, unfused_sunk, unfused_edges) = run(false);
    assert_eq!(fused, unfused, "fusion moves no count");
    assert_eq!(fused_sunk, unfused_sunk);
    // Fused, the hops left are the exchange's three and the three into the merge,
    // whose chain the sink extends; unfused adds one per operator boundary.
    assert_eq!(fused_edges.len(), 6, "{fused_edges:?}");
    assert!(fused_edges.contains("sum.exchange.shard0->sum[0]"));
    assert!(fused_edges.is_subset(&unfused_edges));
    assert!(unfused_edges.contains("readings.out->keep"));

    // What the shape was: 12 readings, 9 kept, 6 window sums, the busy ones sunk.
    assert_eq!(fused["readings"], (0, 12));
    assert_eq!(fused["keep"], (12, 9));
    assert_eq!(fused["scale"], (9, 9));
    assert_eq!(fused["sum"], (9, 6));
    assert_eq!(fused["busy"].0, 6);
    assert_eq!(fused["sink"], (fused["busy"].1, 0));
    assert_eq!(fused_sunk as u64, fused["busy"].1);
    assert!((1..6).contains(&fused_sunk), "the shard filter drops some");
    // And how it was cut: fused, readings, keep, scale and the exchange are stages
    // of one thread, and each shard's aggregate runs the per-shard filter on its
    // thread; unfused, every operator is its own thread, the shards three under one
    // name.
    assert_eq!(
        fused_report
            .operator("readings+keep+scale+sum.exchange")
            .unwrap()
            .stages
            .len(),
        4
    );
    assert!(fused_report.fused_stage("keep").is_some());
    assert_eq!(fused_report.operator("sum+busy").unwrap().instances, 3);
    assert!(unfused_report.operator("keep").unwrap().stages.is_empty());
    assert!(unfused_report.fused_stage("keep").is_none());
    assert_eq!(unfused_report.operator("sum").unwrap().instances, 3);
    assert_eq!(unfused_report.operator("busy").unwrap().instances, 3);
}
