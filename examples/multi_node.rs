//! A real multi-process GeneaLog deployment: this process is the *origin*, the
//! shards of its windowed aggregate run inside separately started `spe-node`
//! worker processes, connected over plain TCP sockets.
//!
//! ```text
//! # two workers, then the origin:
//! cargo run --bin spe-node -- --listen 127.0.0.1:7401 --control 127.0.0.1:7491 &
//! cargo run --bin spe-node -- --listen 127.0.0.1:7402 --control 127.0.0.1:7492 &
//! cargo run --example multi_node -- --nodes 127.0.0.1:7401,127.0.0.1:7402 --hold 30
//! ```
//!
//! The origin deploys a 3-shard per-key sum: shards 0 and 2 on the first node,
//! shard 1 on the second. It then runs the identical plan single-instance
//! in-process and asserts the two agree byte for byte — sink tuples *and*
//! GeneaLog contribution sets stitched across both sockets. The origin's
//! control endpoint (folding the registry deltas every node ships back) is held
//! open for `--hold` seconds; `mn_control_addr.txt`, `mn_provenance_id.txt` and
//! `mn_source_count.txt` let a driving script — the CI multi-node job — scrape
//! and cross-check it without parsing stdout.

use std::collections::BTreeSet;
use std::net::SocketAddr;

use genealog::prelude::*;
use genealog_control::ControlPlane;
use genealog_distributed::deployment::logical_shard_provenance_sink;
use genealog_distributed::{
    connect_gl_node_group, NetworkConfig, NodeDeployment, NodeReading, ShardOpSpec,
};
use genealog_spe::operator::aggregate::WindowView;

type Reading = NodeReading;
type SinkTuple = (u64, String);
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Must match the `ShardOpSpec::SumAggregate` the nodes are asked to run.
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

/// The single-instance oracle, run in this process.
fn run_local() -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(readings()));
    let sums = q.aggregate("sum", src, window_spec(), sum_key, sum_window);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", sums);
    let sink = q.collecting_sink("sink", out);
    q.deploy()
        .expect("oracle deploy")
        .wait()
        .expect("oracle run");
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nodes_arg = args
        .iter()
        .position(|a| a == "--nodes")
        .and_then(|i| args.get(i + 1))
        .expect("usage: multi_node --nodes ADDR,ADDR [--hold SECS]");
    let hold = args
        .iter()
        .position(|a| a == "--hold")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    let addrs: Vec<SocketAddr> = nodes_arg
        .split(',')
        .map(|a| a.parse().expect("node address"))
        .collect();
    assert_eq!(
        addrs.len(),
        2,
        "this example deploys onto exactly two nodes"
    );

    // Shards 0 and 2 on the first node, shard 1 on the second; the origin keeps
    // GeneaLog instance namespace 0, the node-hosted shards take 1..=3.
    let template = NodeDeployment {
        group: "sum".into(),
        shards: Vec::new(),
        total_shards: 3,
        first_instance: 1,
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
        &[(addrs[0], vec![0, 2]), (addrs[1], vec![1])],
        NetworkConfig::unlimited(),
    )
    .expect("connect to the spe-node workers");
    let mut group = shards.group;
    println!(
        "connected: {} hosting shards [0, 2], {} hosting [1]",
        addrs[0], addrs[1]
    );

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

    // Control endpoint before deployment consumes the query; the group streams
    // every node's shipped registry deltas into the origin's exposition.
    let query = plan.lower().expect("lower the spanning plan");
    let registry = query.registry();
    group.stream_metrics_into("sum", &registry);
    let server = ControlPlane::new(std::sync::Arc::clone(&registry))
        .with_topology(genealog_analysis::dot::physical(&query.plan_facts()))
        .with_provenance(provenance.clone())
        .serve()
        .expect("bind control endpoint");
    std::fs::write("mn_control_addr.txt", server.addr().to_string()).expect("write address file");
    println!("control endpoint: http://{}", server.addr());

    query.deploy().expect("deploy").wait().expect("run");
    group.wait().expect("node-hosted shards drain clean");

    // The node-hosted deployment must be invisible against the local oracle.
    let (local_tuples, local_lineage) = run_local();
    let remote_tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    assert!(!remote_tuples.is_empty());
    assert_eq!(
        local_tuples, remote_tuples,
        "sink bytes must match the oracle"
    );
    let records = provenance.records();
    let mut remote_lineage: Vec<Lineage> = records
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
    remote_lineage.sort();
    assert_eq!(
        local_lineage, remote_lineage,
        "lineage must match the oracle"
    );
    println!(
        "verified: {} sink tuples and {} contribution sets identical to the local oracle",
        remote_tuples.len(),
        remote_lineage.len()
    );

    // One sink tuple's id and oracle source count, for the driving script's
    // `/provenance/{id}` cross-check.
    let record = &records[0];
    std::fs::write(
        "mn_provenance_id.txt",
        format!("{}-{}", record.sink_id.origin, record.sink_id.seq),
    )
    .expect("write provenance id file");
    std::fs::write("mn_source_count.txt", record.sources.len().to_string())
        .expect("write source count file");
    println!(
        "provenance: curl -s {}",
        server.url(&format!(
            "/provenance/{}-{}",
            record.sink_id.origin, record.sink_id.seq
        ))
    );

    if hold > 0 {
        println!("holding the endpoint open for {hold}s ...");
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }
    server.shutdown();
}
