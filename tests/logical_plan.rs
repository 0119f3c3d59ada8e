//! Logical-plan equivalence: a query written **once** on the declarative
//! [`LogicalPlan`] builder and lowered by the planner must be indistinguishable from
//! the hand-built legacy `Query` — on **sink bytes** (same tuples in the same
//! canonical order) and on **GeneaLog contribution sets** — across:
//!
//! * shard counts 1, 2 and 4 (annotation `.with(Parallelism::shards(n))`),
//! * local, remote and mixed shard placements (annotation `.place(..)` fed by the
//!   `remote_shard_group_over` / `remote_shard_group_gl_over` builders),
//! * fusion on (the planner default) and off.
//!
//! The per-stage counters of fused chains must also survive in reports
//! (`OperatorReport::stages`), so turning fusion on by default loses no telemetry.

use std::collections::BTreeSet;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_analysis::dot;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_gl_over, remote_shard_group_over,
    SimulatedTransport,
};
use genealog_distributed::NetworkConfig;
use genealog_spe::channel::batch_budget;
use genealog_spe::logical::LogicalPlan;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::{MetaData, NoProvenance};
use genealog_spe::query::{NodeKind, QueryConfig, ShardPlacement};
use genealog_spe::{PlannerConfig, Query};

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

fn window_spec() -> WindowSpec {
    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap()
}

fn keep(r: &Reading) -> bool {
    r.1 % 3 != 0
}

fn scale(r: &Reading) -> Reading {
    (r.0, r.1 * 2)
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window<M: MetaData>(w: &WindowView<'_, Key, Reading, M>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

fn busy(o: &Reading) -> bool {
    o.1 % 5 != 0
}

fn sink_tuples<T, M>(sink: &CollectedStream<T, M>) -> Vec<SinkTuple>
where
    T: genealog_spe::tuple::TupleData,
    M: MetaData,
{
    sink.tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect()
}

fn lineage_of(provenance: &ProvenanceCollector<Reading>) -> Vec<Lineage> {
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
    lineage
}

// ---------------------------------------------------------------------------
// The pipeline under test, written once per API
// ---------------------------------------------------------------------------

/// The legacy reference: hand-built physical `Query`, one shard (plain operator).
fn legacy_np_plain(reports: &[(Timestamp, Reading)]) -> Vec<SinkTuple> {
    let mut q = Query::new(NoProvenance);
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let kept = q.filter("keep", src, keep);
    let scaled = q.map_one("scale", kept, scale);
    let sums = q.aggregate("sum", scaled, window_spec(), sum_key, sum_window);
    let alerts = q.filter("busy", sums, busy);
    let out = q.collecting_sink("sink", alerts);
    q.deploy().unwrap().wait().unwrap();
    sink_tuples(&out)
}

/// The same pipeline, written once on the logical builder; sharding and placement
/// arrive as annotations, fusion is a planner flag.
fn new_np(
    reports: &[(Timestamp, Reading)],
    shards: usize,
    fusion: bool,
    placements: Option<Vec<ShardPlacement<NoProvenance, Reading, Reading>>>,
) -> Vec<SinkTuple> {
    let plan = LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(fusion));
    let agg = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .filter("keep", keep)
        .map_one("scale", scale)
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key);
    let agg = match placements {
        Some(placements) => agg.place(placements),
        None => agg.with(Parallelism::shards(shards)),
    };
    let out = agg.filter("busy", busy).collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    sink_tuples(&out)
}

/// The legacy GeneaLog reference: plain aggregate, provenance unfolded in-process.
fn legacy_gl(reports: &[(Timestamp, Reading)]) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let kept = q.filter("keep", src, keep);
    let scaled = q.map_one("scale", kept, scale);
    let sums = q.aggregate("sum", scaled, window_spec(), sum_key, sum_window);
    let alerts = q.filter("busy", sums, busy);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
    let sink = q.collecting_sink("sink", out);
    q.deploy().unwrap().wait().unwrap();
    (sink_tuples(&sink), lineage_of(&provenance))
}

/// The same GeneaLog pipeline on the logical builder.
fn new_gl(
    reports: &[(Timestamp, Reading)],
    shards: usize,
    fusion: bool,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let plan = GlPlan::with_config(
        GeneaLog::new(),
        PlannerConfig::default().with_fusion(fusion),
    );
    let alerts = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .filter("keep", keep)
        .map_one("scale", scale)
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(shards))
        .filter("busy", busy);
    let (out, provenance) = logical_provenance_sink(alerts, "prov");
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    (sink_tuples(&sink), lineage_of(&provenance))
}

/// The logical builder with every shard of the aggregate on its own remote SPE
/// instance; lineage stitched across the REMOTE boundary by the MU.
fn new_gl_remote(
    reports: &[(Timestamp, Reading)],
    instances: usize,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let group = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        instances,
        1, // remote instances use GeneaLog id namespaces 1..=instances
        &SimulatedTransport::new(NetworkConfig::unlimited()),
        QueryConfig::default(),
        move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
    )
    .unwrap();

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .place(group.placements);
    let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        group.provenance_links,
        Duration::from_hours(24),
    );
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    group.group.wait().unwrap();

    let tuples = sink_tuples(&sink);
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

/// The GeneaLog reference for the remote pin: the bare aggregate pipeline (no
/// stateless stages), plain single-instance operator.
fn legacy_gl_bare(reports: &[(Timestamp, Reading)]) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let sums = q.aggregate("sum", src, window_spec(), sum_key, sum_window);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", sums);
    let sink = q.collecting_sink("sink", out);
    q.deploy().unwrap().wait().unwrap();
    (sink_tuples(&sink), lineage_of(&provenance))
}

/// Strategy: a timestamp-ordered stream of keyed readings with random keys, values
/// and (possibly repeating) timestamp gaps.
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// NP: the builder plan equals the plain legacy plan byte for byte, for shard
    /// counts 1/2/4 with fusion on and off.
    #[test]
    fn np_builder_equals_legacy_across_shards_and_fusion(reports in keyed_readings()) {
        let reference = legacy_np_plain(&reports);
        for shards in [1usize, 2, 4] {
            for fusion in [true, false] {
                let lowered = new_np(&reports, shards, fusion, None);
                prop_assert_eq!(&lowered, &reference);
            }
        }
    }

    /// GL: identical sink bytes *and* identical per-sink-tuple contribution sets
    /// between the builder plan and the legacy plan, across shard counts and fusion.
    #[test]
    fn gl_builder_equals_legacy_on_bytes_and_lineage(reports in keyed_readings()) {
        let (ref_tuples, ref_lineage) = legacy_gl(&reports);
        for shards in [1usize, 2, 4] {
            let fusion = shards != 2; // cover both flags across the sweep
            let (tuples, lineage) = new_gl(&reports, shards, fusion);
            prop_assert_eq!(&tuples, &ref_tuples);
            prop_assert_eq!(&lineage, &ref_lineage);
        }
    }

    /// GL with every shard remote: the REMOTE boundary is invisible — same sink
    /// bytes, same stitched contribution sets as the local single-instance plan.
    #[test]
    fn gl_builder_remote_placements_equal_local(reports in keyed_readings()) {
        let (ref_tuples, ref_lineage) = legacy_gl_bare(&reports);
        let (tuples, lineage) = new_gl_remote(&reports, 3);
        prop_assert_eq!(tuples, ref_tuples);
        prop_assert_eq!(lineage, ref_lineage);
    }
}

/// NP remote and mixed placements through the `.place(..)` annotation equal the
/// all-local lowering for 1, 2 and 4 shards.
#[test]
fn np_remote_and_mixed_placements_equal_local() {
    let reports: Vec<(Timestamp, Reading)> = (0..160u64)
        .map(|i| (Timestamp::from_secs(i / 4), ((i % 7) as Key, i as i64)))
        .collect();
    let reference = legacy_np_plain(&reports);

    for instances in [1usize, 2, 4] {
        let (placements, group) = remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "sum",
            instances,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            QueryConfig::default(),
            |_| NoProvenance,
            move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
        )
        .unwrap();
        let remote = new_np(&reports, instances, true, Some(placements));
        group.wait().unwrap();
        assert_eq!(
            remote, reference,
            "{instances} remote shards must equal the plain legacy plan"
        );
    }

    // Shard 1 of 3 remote, 0 and 2 local — mixed groups lower identically too.
    let (mut remote_placements, group) =
        remote_shard_group_over::<NoProvenance, Reading, Reading, _, _>(
            "sum",
            1,
            &SimulatedTransport::new(NetworkConfig::unlimited()),
            QueryConfig::default(),
            |_| NoProvenance,
            move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
        )
        .unwrap();
    let placements = vec![
        ShardPlacement::Local,
        remote_placements.pop().expect("one remote placement"),
        ShardPlacement::Local,
    ];
    let mixed = new_np(&reports, 3, true, Some(placements));
    group.wait().unwrap();
    assert_eq!(
        mixed, reference,
        "mixed placements must equal the plain plan"
    );
    assert!(!reference.is_empty());
}

/// Fusion is on by default and per-stage counters survive in reports: the
/// pre-exchange chain and the per-shard chains report their original operators
/// through `OperatorReport::stages`.
#[test]
fn default_fusion_keeps_per_stage_counters() {
    let reports: Vec<(Timestamp, Reading)> = (0..120u64)
        .map(|i| (Timestamp::from_secs(i / 3), ((i % 5) as Key, i as i64)))
        .collect();
    let plan = LogicalPlan::new(NoProvenance); // fusion defaults ON
    let _out = plan
        .source("readings", VecSource::new(reports))
        .filter("keep", keep)
        .map_one("scale", scale)
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(4))
        .filter("busy", busy)
        .map_one("final", scale)
        .keyed(sum_key)
        .collecting_sink("sink");
    let q = plan.lower().unwrap();
    let report = q.deploy().unwrap().wait().unwrap();

    // Pre-exchange chain: keep+scale fused behind the source, sealed by the
    // exchange, into one thread, stages preserved.
    let chain = report
        .operator("readings+keep+scale+sum.exchange")
        .expect("pre-exchange chain");
    assert_eq!(chain.kind, NodeKind::Fused);
    assert_eq!(chain.stages.len(), 4);
    let keep_stage = report.fused_stage("keep").expect("keep stage");
    assert_eq!(keep_stage.tuples_in, 120);
    assert!(keep_stage.tuples_out < 120);
    assert_eq!(
        report.fused_stage("scale").unwrap().tuples_in,
        keep_stage.tuples_out
    );

    // Shard region: busy+final fused per shard behind the shard's aggregate, one
    // grouped report.
    let shard_chain = report
        .operator("sum+busy+final")
        .expect("shard-region chain");
    assert_eq!(shard_chain.kind, NodeKind::Fused);
    assert_eq!(shard_chain.instances, 4);
    assert_eq!(shard_chain.stages.len(), 3);
    assert_eq!(
        report.fused_stage("busy").unwrap().tuples_out,
        report.fused_stage("final").unwrap().tuples_in
    );
}

/// The builder's shard channels share the per-edge element budget exactly like the
/// legacy physical builder's.
#[test]
fn lowered_shard_channels_share_the_edge_budget() {
    let config = PlannerConfig::default(); // 1024 elements, batch 32
    for n in [1usize, 2, 4] {
        let plan = LogicalPlan::with_config(NoProvenance, config.clone());
        let _out = plan
            .source(
                "src",
                VecSource::with_period((0..8u32).map(|i| (i, 0i64)).collect(), 1_000),
            )
            .aggregate("agg", window_spec(), sum_key, sum_window, sum_key)
            .place(ShardPlacement::<NoProvenance, Reading, Reading>::all_local(
                n,
            ))
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
        assert_eq!(exchange_total, config.channel_capacity);
        assert_eq!(fanin_total, config.channel_capacity);
    }
}

/// Both layers render to DOT: the logical view shows the declared operators with
/// their annotations; the lowered view shows what the planner inserted.
#[test]
fn logical_and_physical_dot_show_the_lowering() {
    let plan = LogicalPlan::new(NoProvenance);
    let _out = plan
        .source(
            "src",
            VecSource::with_period((0..8u32).map(|i| (i, 0i64)).collect(), 1_000),
        )
        .filter("keep", keep)
        .map_one("scale", scale)
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(4))
        .collecting_sink("sink");
    let logical_dot = dot::logical(&plan.facts());
    assert!(logical_dot.contains("digraph logical"));
    assert!(logical_dot.contains("sum\\n(aggregate \u{d7}4)"));
    assert!(
        !logical_dot.contains("partition"),
        "no exchange in the logical view"
    );

    let q = plan.lower().unwrap();
    let physical_dot = dot::physical(&q.plan_facts());
    // The merge heads the chain the sink extends, one box like the fused source
    // chain, which the exchange seals and whose shard edges are dashed.
    assert!(physical_dot.contains("sum.merge \u{2192} sink\\n(fused)"));
    assert!(physical_dot.contains("[style=dashed]"));
    assert!(physical_dot.contains("keep \u{2192} scale \u{2192} sum.exchange\\n(fused)"));
}
