//! Cross-process shard equivalence: a key-partitioned operator whose shards run on
//! *remote SPE instances* (Partition exchange → instrumented Send → link → remote
//! `Receive → shard operator → Send` → link → Receive → provenance-safe fan-in) must
//! be invisible in the results. Against the single-instance local plan we pin:
//!
//! * **sink bytes** — same tuples in the same `(timestamp, key, per-key emission
//!   order)` canonical order, for any shard count and placement;
//! * **GeneaLog contribution sets** — identical per-sink-tuple source sets once the
//!   REMOTE originating tuples are stitched by the multi-stream unfolder (§6),
//!   mirroring the local-shard pins of `tests/parallel_execution.rs`.
//!
//! GeneaLog tuple *ids* are allocated per instance and legitimately differ between
//! the plans, so the comparisons use timestamps, payloads and contribution sets.

use std::collections::BTreeSet;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_analysis::dot;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_gl_over, remote_shard_group_over,
    ShardTransport, SimulatedTransport,
};
use genealog_distributed::{NetworkConfig, TcpLoopbackTransport};
use genealog_spe::channel::batch_budget;
use genealog_spe::logical::LogicalPlan;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::NoProvenance;
use genealog_spe::query::{NodeKind, QueryConfig, ShardPlacement};
use genealog_spe::runtime::QueryReport;
use genealog_spe::{PlannerConfig, Query, SpeError};

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

fn window_spec() -> WindowSpec {
    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap()
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window(w: &WindowView<'_, Key, Reading, GlMeta>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

/// The single-instance reference: `source -> aggregate -> sink` under GeneaLog,
/// provenance unfolded in-process.
fn run_gl_local(reports: &[(Timestamp, Reading)]) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(reports.to_vec()));
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

/// The distributed plan: every shard of the aggregate runs on its own remote SPE
/// instance; lineage is stitched across the REMOTE boundary by the MU. Runs over
/// the in-process [`SimulatedTransport`].
fn run_gl_remote(
    reports: &[(Timestamp, Reading)],
    instances: usize,
    fused_stages: bool,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let transport = SimulatedTransport::new(NetworkConfig::unlimited());
    run_gl_remote_over(reports, instances, fused_stages, &transport)
}

/// [`run_gl_remote`] with the link substrate swapped in: the same plan must hold
/// over any [`ShardTransport`], real loopback TCP sockets included.
fn run_gl_remote_over(
    reports: &[(Timestamp, Reading)],
    instances: usize,
    fused_stages: bool,
    transport: &dyn ShardTransport,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    // Remote engines get fusion so the (optional) stateless stages inside a shard
    // collapse into one thread there — results must not change either way.
    let remote_config = QueryConfig::default().with_fusion(fused_stages);
    let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        instances,
        1, // remote instances use GeneaLog id namespaces 1..=instances
        transport,
        remote_config,
        move |rq, _i, input| {
            let staged = if fused_stages {
                let kept = rq.filter("keep", input, |r: &Reading| r.1 % 3 != 0);
                rq.map_one("scale", kept, |r: &Reading| (r.0, r.1 * 2))
            } else {
                input
            };
            rq.aggregate("sum", staged, window_spec(), sum_key, sum_window)
        },
    )
    .unwrap();

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
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

    let tuples = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    let mut lineage: Vec<Lineage> = provenance
        .records()
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
    (tuples, lineage)
}

/// The single-instance reference for the fused-remote-shard plan: the same stateless
/// stages ahead of the same aggregate, all in one process, unfused.
fn run_gl_local_staged(reports: &[(Timestamp, Reading)]) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let kept = q.filter("keep", src, |r: &Reading| r.1 % 3 != 0);
    let scaled = q.map_one("scale", kept, |r: &Reading| (r.0, r.1 * 2));
    let sums = q.aggregate("sum", scaled, window_spec(), sum_key, sum_window);
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

/// Strategy: a timestamp-ordered stream of keyed readings with random keys, values
/// and (possibly repeating) timestamp gaps — the same shape as the local-shard pins.
fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..8, 0u64..200, 0u64..5), 1..60).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(key, value, gap)| {
                ts += gap; // non-decreasing; repeated timestamps exercise tie-breaking
                (Timestamp::from_secs(ts), (key, value as i64 - 100))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole guarantee: for random key/timestamp interleavings, an aggregate
    /// whose 3 shards each run on a remote SPE instance produces the identical sink
    /// stream and identical GeneaLog contribution sets as the local single-instance
    /// plan — the REMOTE boundary is invisible.
    #[test]
    fn remote_sharded_aggregate_equals_local_single_instance(reports in keyed_readings()) {
        let (local_tuples, local_lineage) = run_gl_local(&reports);
        let (remote_tuples, remote_lineage) = run_gl_remote(&reports, 3, false);
        prop_assert_eq!(local_tuples, remote_tuples);
        prop_assert_eq!(local_lineage, remote_lineage);
    }

    /// Fused stateless stages *inside* a remote shard (filter → map collapsed into
    /// one thread on the remote instance) change neither the sink bytes nor the
    /// contribution sets against the unfused single-instance plan.
    #[test]
    fn fused_stages_inside_remote_shards_are_equivalent(reports in keyed_readings()) {
        let (local_tuples, local_lineage) = run_gl_local_staged(&reports);
        let (remote_tuples, remote_lineage) = run_gl_remote(&reports, 2, true);
        prop_assert_eq!(local_tuples, remote_tuples);
        prop_assert_eq!(local_lineage, remote_lineage);
    }
}

proptest! {
    // Real sockets per case are slower than channels; fewer cases keep the suite
    // within the tier-1 budget while still randomising keys and timestamps.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The same tentpole guarantee over *real loopback TCP sockets*: substituting
    /// the simulated links with length-delimited frames over `TcpLink` changes
    /// neither the sink bytes nor the GeneaLog contribution sets.
    #[test]
    fn tcp_remote_shards_equal_local_over_loopback_sockets(reports in keyed_readings()) {
        let transport = TcpLoopbackTransport::new(NetworkConfig::unlimited());
        let (local_tuples, local_lineage) = run_gl_local(&reports);
        let (remote_tuples, remote_lineage) = run_gl_remote_over(&reports, 3, false, &transport);
        prop_assert_eq!(local_tuples, remote_tuples);
        prop_assert_eq!(local_lineage, remote_lineage);
    }

    /// Fused remote stages over TCP: stage fusion inside the remote instance and a
    /// real socket under the link compose without changing results or lineage.
    #[test]
    fn tcp_fused_remote_shards_are_equivalent(reports in keyed_readings()) {
        let transport = TcpLoopbackTransport::new(NetworkConfig::unlimited());
        let (local_tuples, local_lineage) = run_gl_local_staged(&reports);
        let (remote_tuples, remote_lineage) = run_gl_remote_over(&reports, 2, true, &transport);
        prop_assert_eq!(local_tuples, remote_tuples);
        prop_assert_eq!(local_lineage, remote_lineage);
    }
}

/// Under NoProvenance the remote-sharded plan must match the plain single-instance
/// `aggregate` operator byte for byte, for 1, 2 and 4 remote shards.
#[test]
fn np_remote_shards_match_plain_aggregate() {
    let reports: Vec<(Timestamp, Reading)> = (0..160u64)
        .map(|i| (Timestamp::from_secs(i / 4), ((i % 7) as Key, i as i64)))
        .collect();
    let spec = WindowSpec::new(Duration::from_secs(12), Duration::from_secs(6)).unwrap();
    let agg =
        |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.payloads().map(|p| p.1).sum::<i64>());

    let plain = {
        let mut q = Query::new(NoProvenance);
        let src = q.source("readings", VecSource::new(reports.clone()));
        let sums = q.aggregate("sum", src, spec, sum_key, agg);
        let out = q.collecting_sink("sink", sums);
        q.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };
    assert!(!plain.is_empty());

    for instances in [1usize, 2, 4] {
        let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "sum",
            instances,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            QueryConfig::default(),
            |_| NoProvenance,
            move |rq, _i, input| rq.aggregate("sum", input, spec, sum_key, agg),
        )
        .unwrap();
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("readings", VecSource::new(reports.clone()))
            .aggregate("sum", spec, sum_key, agg, |o: &Reading| o.0)
            .place(placements)
            .collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        group.wait().unwrap();
        let remote: Vec<_> = out
            .tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect();
        assert_eq!(
            plain, remote,
            "{instances} remote shards must equal the single-instance operator"
        );
        assert!(!remote.is_empty());
    }
}

/// Local and remote shards mix within one group: the fan-in and the results are the
/// same as the all-local plan.
#[test]
fn mixed_local_and_remote_shards_are_equivalent() {
    let reports: Vec<(Timestamp, Reading)> = (0..120u64)
        .map(|i| (Timestamp::from_secs(i / 3), ((i % 5) as Key, i as i64)))
        .collect();
    let spec = WindowSpec::tumbling(Duration::from_secs(6)).unwrap();
    let agg =
        |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.payloads().map(|p| p.1).sum::<i64>());

    let run = |placements: Vec<ShardPlacement<NoProvenance, Reading, Reading>>| {
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("readings", VecSource::new(reports.clone()))
            .aggregate("sum", spec, sum_key, agg, |o: &Reading| o.0)
            .place(placements)
            .collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };

    let all_local = run(ShardPlacement::all_local(3));
    assert!(!all_local.is_empty());

    // Shard 1 of 3 runs remotely, shards 0 and 2 stay local. The remote group is
    // built with a single instance whose shard index within the group is 1.
    let (mut remote_placements, group) =
        remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "sum",
            1,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            QueryConfig::default(),
            |_| NoProvenance,
            move |rq, _i, input| rq.aggregate("sum", input, spec, sum_key, agg),
        )
        .unwrap();
    let placements = vec![
        ShardPlacement::Local,
        remote_placements.pop().expect("one remote placement"),
        ShardPlacement::Local,
    ];
    let mixed = run(placements);
    group.wait().unwrap();
    assert_eq!(all_local, mixed, "placement must not change the results");
}

/// Shard-channel budgeting over links: the lowered plan's facts account the egress and
/// ingress edges of remote shards exactly like local shard channels — the N channels
/// of the exchange (and of the fan-in) jointly share the configured per-edge element
/// budget, for n ∈ {1, 2, 4}.
#[test]
fn remote_shard_edges_share_the_edge_budget() {
    let config = QueryConfig::default(); // 1024 elements, batch 32
    let spec = WindowSpec::tumbling(Duration::from_secs(4)).unwrap();
    let agg = |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.len() as i64);
    for n in [1usize, 2, 4] {
        let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "agg",
            n,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            config,
            |_| NoProvenance,
            move |rq, _i, input| rq.aggregate("agg", input, spec, sum_key, agg),
        )
        .unwrap();
        let plan = LogicalPlan::with_config(
            NoProvenance,
            PlannerConfig::default()
                .with_channel_capacity(config.channel_capacity)
                .with_fusion(false),
        );
        let items: Vec<Reading> = (0..8).map(|i| (i % 4, i as i64)).collect();
        let _ = plan
            .source("src", VecSource::with_period(items, 1_000))
            .aggregate("agg", spec, sum_key, agg, |o: &Reading| o.0)
            .place(placements)
            .collecting_sink("sink");
        let q = plan.lower().unwrap();

        let facts = q.plan_facts();
        let mut exchange_total = 0usize;
        let mut fanin_total = 0usize;
        for e in &facts.edges {
            let headroom = || batch_budget(e.capacity, e.batch_size) * e.batch_size;
            if facts.node_kind(e.from) == NodeKind::Partition.label() {
                exchange_total += headroom();
            }
            if facts.node_kind(e.to) == NodeKind::ShardMerge.label() {
                fanin_total += headroom();
            }
        }
        assert_eq!(
            exchange_total, config.channel_capacity,
            "{n}-shard remote exchange headroom must equal the configured capacity"
        );
        assert_eq!(
            fanin_total, config.channel_capacity,
            "{n}-shard remote fan-in headroom must equal the configured capacity"
        );
        // Dropping the undeployed origin query closes the forward links; the remote
        // instances drain on their own.
        drop(q);
        group.wait().unwrap();
    }
}

/// Per-instance reports fold into one distributed report: the shard group spanning
/// SPE instances reports as ONE operator with an `instances` count, matching the
/// local-shard report shape of `tests/parallel_execution.rs`.
#[test]
fn distributed_shard_group_reports_fold_into_one_operator() {
    let spec = WindowSpec::tumbling(Duration::from_secs(10)).unwrap();
    let agg = |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.len() as i64);
    let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
        "agg",
        3,
        &SimulatedTransport::new(NetworkConfig::unlimited()),
        QueryConfig::default(),
        |_| NoProvenance,
        move |rq, _i, input| rq.aggregate("agg", input, spec, sum_key, agg),
    )
    .unwrap();
    let plan = LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(false));
    let items: Vec<Reading> = (0..40).map(|i| (i % 5, i as i64)).collect();
    let out = plan
        .source("src", VecSource::with_period(items, 1_000))
        .aggregate("agg", spec, sum_key, agg, |o: &Reading| o.0)
        .place(placements)
        .collecting_sink("sink");
    let origin_report = plan.deploy().unwrap().wait().unwrap();
    let remote_reports = group.wait().unwrap();
    assert!(!out.is_empty());

    let merged =
        QueryReport::merge_distributed(std::iter::once(origin_report).chain(remote_reports));
    // The three remote aggregate threads appear as ONE report named after the
    // logical operator, with summed counters covering the whole input.
    let agg_report = merged.operator("agg").expect("folded shard report");
    assert_eq!(agg_report.instances, 3);
    assert_eq!(agg_report.stats.tuples_in, 40);
    assert_eq!(agg_report.stats.tuples_out, out.len() as u64);
    // The per-shard endpoints fold the same way, on both sides of each link.
    assert_eq!(merged.operator("agg.egress").unwrap().instances, 3);
    assert_eq!(merged.operator("agg.egress").unwrap().stats.tuples_in, 40);
    assert_eq!(merged.operator("agg.recv").unwrap().instances, 3);
    assert_eq!(merged.operator("agg.recv").unwrap().stats.tuples_out, 40);
    assert_eq!(merged.operator("agg.send").unwrap().instances, 3);
    assert_eq!(merged.operator("agg.ingress").unwrap().instances, 3);
    // The exchange and the fan-in stay single-threaded on the origin.
    assert_eq!(merged.operator("agg.exchange").unwrap().instances, 1);
    assert_eq!(merged.operator("agg.merge").unwrap().instances, 1);
}

/// The combined DOT export renders every SPE instance as its own cluster with the
/// Send/Receive endpoints marked, making the process boundaries visible
/// (`tests/golden/two_instances.dot`).
#[test]
fn distributed_plan_renders_instance_clusters() {
    let spec = WindowSpec::tumbling(Duration::from_secs(4)).unwrap();
    let agg = |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.len() as i64);

    // Build (without deploying) one remote instance's plan and an origin plan.
    let mut remote = Query::new(NoProvenance);
    let (_tx, rx, _stats) = genealog_distributed::SimulatedLink::new(NetworkConfig::unlimited());
    let received: genealog_spe::StreamRef<Reading, ()> =
        genealog_distributed::deployment::add_receive(&mut remote, "agg.recv", rx);
    let sums = remote.aggregate("agg", received, spec, sum_key, agg);
    let (tx2, _rx2, _stats2) = genealog_distributed::SimulatedLink::new(NetworkConfig::unlimited());
    genealog_distributed::deployment::add_send(&mut remote, "agg.send", sums, tx2);

    let mut origin = Query::new(NoProvenance);
    let src = origin.source("src", VecSource::with_period(vec![(0u32, 0i64)], 1_000));
    let (tx3, _rx3, _stats3) = genealog_distributed::SimulatedLink::new(NetworkConfig::unlimited());
    genealog_distributed::deployment::add_send(&mut origin, "agg.egress[0]", src, tx3);

    let dot = dot::instances(&[
        ("origin", &origin.plan_facts()),
        ("instance 1", &remote.plan_facts()),
    ]);
    assert!(dot.contains("subgraph cluster_0"));
    assert!(dot.contains("subgraph cluster_1"));
    assert!(dot.contains("label=\"origin\""));
    assert!(dot.contains("label=\"instance 1\""));
    // The endpoints are drawn with the instance-boundary shape.
    assert!(dot.contains("shape=cds label=\"agg.egress[0]\\n(send)\""));
    assert!(dot.contains("shape=cds label=\"agg.recv\\n(receive)\""));
    // Node ids are namespaced per instance, so the fragments cannot collide.
    assert!(dot.contains("i0_0") && dot.contains("i1_0"));
    // Byte for byte the picture recorded from the renderer this one replaced.
    assert_eq!(dot, include_str!("golden/two_instances.dot"));
}

/// Engine threads of one instance: one per chain, a folded shard group counting
/// each of its threads.
fn threads(report: &QueryReport) -> usize {
    report.operator_stats().iter().map(|o| o.instances).sum()
}

/// The two-remote-shard plan `source → aggregate (2 remote shards) → sink` runs on
/// a pinned number of engine threads. Under NP the origin runs the source's chain,
/// two egress Sends, two ingress Receives and the merge's chain, and each instance
/// one chain. Under GL each instance adds the data Send and the lineage tail behind
/// its Multiplex; the origin adds the unfolder's two branches, one Receive per
/// shard's lineage, and the multi-stream unfolder's stitch fused with its sink.
#[test]
fn two_remote_shards_run_on_pinned_thread_counts() {
    let readings: Vec<(Timestamp, Reading)> = (0..24u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 4) as Key, i as i64)))
        .collect();
    let transport = SimulatedTransport::new(NetworkConfig::unlimited());
    // The remote engines fuse like the origin's planner does.
    let remote_config = PlannerConfig::default().query_config();

    let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        2,
        1,
        &transport,
        remote_config,
        |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
    )
    .unwrap();
    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(readings.clone()))
        .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
        .place(shards.placements);
    let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        shards.provenance_links,
        Duration::from_hours(24),
    );
    let _sink = out.collecting_sink("sink");
    let origin = plan.lower().unwrap();
    assert_eq!(origin.plan_facts().threads(), 11, "GL origin chains");
    let origin = origin.deploy().unwrap().wait().unwrap();
    let remotes = shards.group.wait().unwrap();
    assert_eq!(threads(&origin), 11, "GL origin threads");
    assert_eq!(remotes.iter().map(threads).collect::<Vec<_>>(), [3, 3]);
    assert!(!provenance.records().is_empty());

    let np_agg = |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.len() as i64);
    let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
        "sum",
        2,
        &transport,
        remote_config,
        |_| NoProvenance,
        move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, np_agg),
    )
    .unwrap();
    let plan = LogicalPlan::new(NoProvenance);
    let _sink = plan
        .source("readings", VecSource::new(readings))
        .aggregate("sum", window_spec(), sum_key, np_agg, |o: &Reading| o.0)
        .place(placements)
        .collecting_sink("sink");
    let origin = plan.lower().unwrap();
    assert_eq!(origin.plan_facts().threads(), 6, "NP origin chains");
    let origin = origin.deploy().unwrap().wait().unwrap();
    let remotes = group.wait().unwrap();
    assert_eq!(threads(&origin), 6, "NP origin threads");
    assert_eq!(remotes.iter().map(threads).collect::<Vec<_>>(), [1, 1]);
}

/// A window function that panics on a remote shard, under GL with lineage shipped
/// over simulated links, ends the deployment within 30 s: the origin's query
/// drains (no hang: the dead instance's data Send and lineage tail both close their
/// channels, so the merge and the stitch see their inputs end) and the shard
/// group's wait returns the remote engine's typed error naming the operator.
#[test]
fn a_panicking_window_function_on_a_remote_shard_fails_the_deployment() {
    let readings: Vec<(Timestamp, Reading)> = (0..40u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 4) as Key, i as i64)))
        .collect();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
            "sum",
            2,
            1,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            PlannerConfig::default().query_config(),
            |rq, i, input| {
                let window = move |w: &WindowView<'_, Key, Reading, GlMeta>| {
                    assert!(i != 0, "shard 0's window function panics");
                    sum_window(w)
                };
                rq.aggregate("sum", input, window_spec(), sum_key, window)
            },
        )
        .unwrap();
        let plan = GlPlan::new(GeneaLog::for_instance(0));
        let sums = plan
            .source("readings", VecSource::new(readings))
            .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
            .place(shards.placements);
        let (out, _provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
            sums,
            "prov",
            shards.provenance_links,
            Duration::from_hours(24),
        );
        let _sink = out.collecting_sink("sink");
        let origin = plan.deploy().and_then(|handle| handle.wait());
        let remote = shards.group.wait();
        let _ = done_tx.send((origin.map(|_| ()), remote.map(|_| ())));
    });
    let (origin, remote) = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the deployment ends within 30 s");
    // The aggregate runs fused in the Receive's chain, which the error names.
    assert!(
        matches!(&remote, Err(SpeError::OperatorPanicked { operator })
            if operator.split('+').any(|part| part == "sum")),
        "the remote panic surfaces as a typed error: {remote:?}"
    );
    assert!(origin.and(remote).is_err());
}
