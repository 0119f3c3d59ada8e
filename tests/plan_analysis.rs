//! The deploy-time plan analyzer, end to end over the real builder APIs:
//!
//! * one **seeded-defect plan per analysis pass**, each built through the public
//!   `LogicalPlan` surface (escape hatches included) and pinned to its stable
//!   diagnostic code — GL001/GL002 (channels), GL011/GL012 (barriers),
//!   GL021/GL022 (provenance), GL031/GL032 (resources);
//! * the **GL001 dual fire**: the analyzer's plan-time diagnostic and the
//!   runtime channel guard's `batch-budget-over-allocation` trace both fire for
//!   the same seeded plan;
//! * the **gating modes**: `Warn` (default) lowers and emits `plan-analysis`
//!   traces, `Deny` rejects error plans with [`SpeError::PlanRejected`], `Off`
//!   lowers silently;
//! * a **no-false-positives property**: randomly generated plans that lower and
//!   run to completion analyze with zero errors, across shard counts, explicit
//!   placement vs. parallelism hints, fusion on/off and checkpointing on/off
//!   (warnings are allowed — GL031 legitimately fires on small CI hosts);
//! * the **remote axis**: a plan spanning remote SPE instances analyzes clean,
//!   records its remote placement in the facts, then deploys and drains.

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_analysis::Severity;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_gl_over, SimulatedTransport,
};
use genealog_distributed::NetworkConfig;
use genealog_metrics::{CountingSubscriber, Tracer};
use genealog_spe::logical::{LogicalPlan, LogicalStream};
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::{MetaData, NoProvenance};
use genealog_spe::query::{NodeKind, QueryConfig, ShardPlacement};
use genealog_spe::{AnalysisMode, PlannerConfig, SpeError};

type Key = u32;
type Reading = (Key, i64);

fn window_spec() -> WindowSpec {
    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap()
}

fn keep(r: &Reading) -> bool {
    r.1 % 3 != 0
}

fn scale(r: &Reading) -> Reading {
    (r.0, r.1 * 2)
}

fn busy(o: &Reading) -> bool {
    o.1 % 5 != 0
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window<M: MetaData>(w: &WindowView<'_, Key, Reading, M>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

fn reports(n: u64) -> Vec<(Timestamp, Reading)> {
    (0..n)
        .map(|t| (Timestamp::from_secs(t * 3), ((t % 4) as Key, t as i64)))
        .collect()
}

// ---------------------------------------------------------------------------
// Channel pass: GL001 (plan-time + runtime dual fire) and GL002
// ---------------------------------------------------------------------------

/// Satellite pin: the runtime's one-shot `batch-budget-over-allocation` guard
/// was *promoted* into the analyzer, not replaced by it. One seeded plan, one
/// `analyze()` call, and both layers report the same over-allocation — the
/// analyzer as a GL001 diagnostic per edge, the channel guard as a trace event
/// when lowering allocates the bounded channels.
#[test]
fn gl001_fires_at_plan_time_and_the_runtime_guard_still_fires() {
    let guard = CountingSubscriber::new("batch-budget-over-allocation", "capacity=13,batch=77");
    Tracer::global().subscribe(guard.clone());

    let plan = LogicalPlan::with_config(
        NoProvenance,
        PlannerConfig::default()
            .with_channel_capacity(13)
            .with_batch_size(77)
            .with_fusion(false),
    );
    let _sink = plan
        .source("readings", VecSource::new(reports(8)))
        .filter("keep", keep)
        .collecting_sink("sink");

    let analyzed = plan.analyze().unwrap();
    let hits: Vec<_> = analyzed.report.with_code("GL001").collect();
    assert_eq!(hits.len(), 2, "one GL001 per over-allocated channel");
    assert!(hits.iter().any(|d| d.path == ["readings", "keep"]));
    assert!(hits.iter().any(|d| d.path == ["keep", "sink"]));
    assert!(hits[0].message.contains("77") && hits[0].message.contains("13"));
    assert_eq!(hits[0].severity, Severity::Warning);

    assert!(
        guard.hits() >= 1,
        "lowering allocates the real channels, so the runtime guard fires too"
    );
}

/// A bounded-channel cycle is impossible through the typed builder, but the
/// `raw` escape hatch can wire one through the extension API.
fn cyclic_plan(mode: AnalysisMode) -> LogicalPlan<NoProvenance> {
    let plan = LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_analysis(mode));
    let _sink = plan
        .source("pump", VecSource::new(reports(4)))
        .raw("loop", |q, input| {
            let a = q.add_node("loop-a", NodeKind::Custom("loop"));
            let b = q.add_node("loop-b", NodeKind::Custom("loop"));
            let _ = q.attach_input(input, a);
            let (_a_slot, a_out) = q.new_output_stream::<Reading>(a, "loop-a.out");
            let _ = q.attach_input(a_out, b);
            let (_b_slot, b_back) = q.new_output_stream::<Reading>(b, "loop-b.back");
            let _ = q.attach_input(b_back, a);
            let (_b_slot2, b_out) = q.new_output_stream::<Reading>(b, "loop-b.out");
            b_out
        })
        .collecting_sink("drain");
    plan
}

#[test]
fn gl002_names_a_representative_channel_cycle() {
    let analyzed = cyclic_plan(AnalysisMode::Warn).analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL002")
        .next()
        .expect("GL002 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.path.contains(&"loop-a".to_string()));
    assert!(d.path.contains(&"loop-b".to_string()));
    assert!(d.message.contains("deadlock"));
    assert!(analyzed.report.has_errors());
}

// ---------------------------------------------------------------------------
// Barrier pass: GL011 and GL012 (checkpointing configured)
// ---------------------------------------------------------------------------

#[test]
fn gl011_flags_the_aligned_fan_in_starved_by_an_opaque_operator() {
    let plan = LogicalPlan::with_config(
        NoProvenance,
        PlannerConfig::default()
            .with_checkpoints(CheckpointConfig::new(16, CheckpointStore::in_memory())),
    );
    let left = plan.source("left", VecSource::new(reports(8)));
    let right = plan
        .source("right", VecSource::new(reports(8)))
        .raw("opaque", |q, input| {
            let node = q.add_node("opaque", NodeKind::Custom("mystery"));
            let _ = q.attach_input(input, node);
            let (_slot, out) = q.new_output_stream::<Reading>(node, "opaque.out");
            out
        });
    let _sink = LogicalStream::union("both", vec![left, right]).collecting_sink("drain");

    let analyzed = plan.analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL011")
        .next()
        .expect("GL011 fires");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.path[0], "both", "the stalled fan-in leads the path");
    assert!(d.message.contains("blocked at `opaque`"));
    // The sink downstream of the stall is separately reported as state no
    // checkpoint will ever cover.
    assert!(analyzed.report.has_code("GL013"));
}

#[test]
fn gl012_fires_when_checkpointing_has_no_barrier_origin() {
    let plan = LogicalPlan::with_config(
        NoProvenance,
        PlannerConfig::default()
            .with_checkpoints(CheckpointConfig::new(16, CheckpointStore::in_memory())),
    );
    // `extend_source` roots the plan in a custom node that is neither a Source
    // (barrier injector) nor a root Receive (barrier importer).
    let _sink = plan
        .extend_source("feed", "replay", |q| {
            let node = q.add_node("feed", NodeKind::Custom("replay"));
            let (_slot, out) = q.new_output_stream::<Reading>(node, "feed.out");
            out
        })
        .collecting_sink("drain");

    let analyzed = plan.analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL012")
        .next()
        .expect("GL012 fires");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("no operator injects or"));
}

// ---------------------------------------------------------------------------
// Provenance pass: GL021 and GL022 (GL mode only)
// ---------------------------------------------------------------------------

#[test]
fn gl021_flags_an_opaque_operator_on_the_path_to_a_gl_sink() {
    let plan = GlPlan::new(GeneaLog::new());
    let out = plan
        .source("readings", VecSource::new(reports(8)))
        .raw("opaque", |q, input| {
            let node = q.add_node("opaque", NodeKind::Custom("mystery"));
            let _ = q.attach_input(input, node);
            let (_slot, out) = q.new_output_stream::<Reading>(node, "opaque.out");
            out
        });
    let (stream, _provenance) = logical_provenance_sink(out, "prov");
    let _sink = stream.collecting_sink("sink");

    let analyzed = plan.analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL021")
        .next()
        .expect("GL021 fires");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.path, vec!["opaque".to_string()]);
    assert!(d.message.contains("meta chain"));
    // The collector is attached, so GL022 stays quiet.
    assert!(!analyzed.report.has_code("GL022"));
}

#[test]
fn gl022_flags_a_gl_plan_without_a_provenance_collector() {
    let plan = GlPlan::new(GeneaLog::new());
    let _sink = plan
        .source("readings", VecSource::new(reports(8)))
        .filter("keep", keep)
        .collecting_sink("sink");

    let analyzed = plan.analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL022")
        .next()
        .expect("GL022 fires");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.path, vec!["sink".to_string()]);
    assert!(d.message.contains("logical_provenance_sink"));
    assert!(!analyzed.report.has_code("GL021"), "no opaque node here");
}

// ---------------------------------------------------------------------------
// Resource pass: GL031 and GL032
// ---------------------------------------------------------------------------

/// The facts snapshot is plain data, so the host-dependent CPU check is pinned
/// by editing `host_cpus` rather than by assuming anything about the CI host.
#[test]
fn gl031_compares_operator_threads_against_host_cpus() {
    let plan = LogicalPlan::with_config(NoProvenance, PlannerConfig::default());
    let _sink = plan
        .source("readings", VecSource::new(reports(16)))
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(2))
        .collecting_sink("sink");
    let analyzed = plan.analyze().unwrap();

    let mut facts = analyzed.facts;
    assert_eq!(
        facts.threads(),
        4,
        "the source's chain sealed by the exchange, two shards, and the merge's chain \
         sealed by the sink"
    );
    facts.host_cpus = 1;
    let report = genealog_analysis::analyze(&facts);
    let d = report.with_code("GL031").next().expect("GL031 fires");
    assert_eq!(d.severity, Severity::Warning);

    facts.host_cpus = facts.threads();
    let report = genealog_analysis::analyze(&facts);
    assert!(
        !report.has_code("GL031"),
        "enough CPUs silences the warning"
    );
}

/// An `lr_q1`-shaped plan (`source → filter → aggregate → filter → sink`): with
/// fusion on, the whole plan runs on the source's thread, so the facts count one
/// thread instead of five, mark the source→filter edge channel-free, and the DOT
/// export draws every operator inside the chain box.
#[test]
fn a_source_heads_its_chain_in_the_facts_and_the_dot_export() {
    let lower = |fusion: bool| {
        let plan =
            LogicalPlan::with_config(NoProvenance, PlannerConfig::default().with_fusion(fusion));
        let _sink = plan
            .source("reports", VecSource::new(reports(16)))
            .filter("q1-speed0", keep)
            .aggregate("q1-count", window_spec(), sum_key, sum_window, sum_key)
            .filter("q1-alert", busy)
            .collecting_sink("sink");
        plan.lower().unwrap()
    };
    let (fused, unfused) = (lower(true), lower(false));
    let (on, off) = (fused.plan_facts(), unfused.plan_facts());
    assert_eq!((on.threads(), off.threads()), (1, 5));
    let source_edge = |facts: &genealog_analysis::PlanFacts| {
        let edge = facts
            .edges
            .iter()
            .find(|e| facts.node_name(e.from) == "reports")
            .expect("the source has an outgoing edge");
        assert_eq!(facts.node_name(edge.to), "q1-speed0");
        edge.fused
    };
    assert!(source_edge(&on), "fused: no channel behind the source");
    assert!(!source_edge(&off));
    assert!(genealog_analysis::dot::physical(&on).contains(
        "[shape=box label=\"reports \u{2192} q1-speed0 \u{2192} q1-count \u{2192} q1-alert \
         \u{2192} sink\\n(fused)\"]"
    ));
    assert!(!genealog_analysis::dot::physical(&off).contains("(fused)"));
}

#[test]
fn gl032_flags_a_parallelism_hint_overridden_by_an_explicit_placement() {
    let plan = LogicalPlan::with_config(NoProvenance, PlannerConfig::default());
    let placements: Vec<ShardPlacement<NoProvenance, Reading, Reading>> =
        ShardPlacement::all_local(2);
    let _sink = plan
        .source("readings", VecSource::new(reports(16)))
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .with(Parallelism::shards(4))
        .place(placements)
        .collecting_sink("sink");

    let analyzed = plan.analyze().unwrap();
    let d = analyzed
        .report
        .with_code("GL032")
        .next()
        .expect("GL032 fires");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.path, vec!["sum".to_string()]);
    assert!(d.message.contains('4') && d.message.contains('2'));
    assert!(
        !analyzed.report.has_errors(),
        "a contradiction is only a warning"
    );
}

// ---------------------------------------------------------------------------
// Gating: Deny rejects, Warn lowers + traces, Off lowers silently
// ---------------------------------------------------------------------------

#[test]
fn deny_mode_rejects_error_plans_and_off_mode_lowers_them() {
    match cyclic_plan(AnalysisMode::Deny).lower() {
        Err(SpeError::PlanRejected { report }) => {
            assert!(
                report.contains("GL002"),
                "the report names the cycle: {report}"
            );
            assert!(report.contains("error"));
        }
        other => panic!("Deny mode must reject the cyclic plan, got {other:?}"),
    }
    // Warn (the default) and Off both hand back the lowered query; the defect
    // is the user's to keep.
    assert!(cyclic_plan(AnalysisMode::Warn).lower().is_ok());
    assert!(cyclic_plan(AnalysisMode::Off).lower().is_ok());
}

#[test]
fn warn_mode_lowering_emits_plan_analysis_traces() {
    let trace = CountingSubscriber::new("plan-analysis", "GL001:feed->drain");
    Tracer::global().subscribe(trace.clone());

    // Unfused, so the source feeds the sink through a channel for GL001 to size.
    let plan = LogicalPlan::with_config(
        NoProvenance,
        PlannerConfig::default()
            .with_channel_capacity(9)
            .with_batch_size(40)
            .with_fusion(false),
    );
    let _sink = plan
        .source("feed", VecSource::new(reports(4)))
        .collecting_sink("drain");

    let query = plan.lower().expect("Warn mode lowers warning-only plans");
    drop(query);
    assert_eq!(trace.hits(), 1, "each finding is traced once per process");
}

// ---------------------------------------------------------------------------
// Remote axis: a spanning plan analyzes clean, then deploys and drains
// ---------------------------------------------------------------------------

#[test]
fn remote_placements_analyze_clean_and_the_facts_record_them() {
    let shards = remote_shard_group_gl_over::<Reading, Reading, _>(
        "sum",
        2,
        1,
        &SimulatedTransport::new(NetworkConfig::unlimited()),
        QueryConfig::default(),
        move |rq, _i, input| rq.aggregate("sum", input, window_spec(), sum_key, sum_window),
    )
    .unwrap();
    let group = shards.group;

    let plan = GlPlan::new(GeneaLog::for_instance(0));
    let sums = plan
        .source("readings", VecSource::new(reports(12)))
        .aggregate("sum", window_spec(), sum_key, sum_window, sum_key)
        .place(shards.placements);
    let (out, _provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
        sums,
        "prov",
        shards.provenance_links,
        Duration::from_hours(24),
    );
    let sink = out.collecting_sink("sink");

    let analyzed = plan.analyze().unwrap();
    assert!(
        !analyzed.report.has_errors(),
        "the spanning plan analyzes clean:\n{}",
        analyzed.report.render()
    );
    let logical = analyzed.facts.logical.as_ref().expect("logical facts");
    let sum = logical.nodes.iter().find(|n| n.name == "sum").unwrap();
    assert_eq!(sum.placement_total, Some(2));
    assert_eq!(sum.placement_remote, 2, "both shards are placed remotely");

    // The analyzed query is the deployable one: run it and drain the remotes.
    analyzed.query.deploy().unwrap().wait().unwrap();
    group.wait().unwrap();
    assert!(!sink.is_empty(), "the spanning query produced output");
}

// ---------------------------------------------------------------------------
// No false positives: clean random plans analyze with zero errors
// ---------------------------------------------------------------------------

/// Strategy: a timestamp-ordered stream of keyed readings (same shape as the
/// logical-plan equivalence suite).
fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..8, 0u64..200, 0u64..5), 1..40).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(key, value, gap)| {
                ts += gap;
                (Timestamp::from_secs(ts), (key, value as i64 - 100))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any plan the typed builder produces that lowers and runs to completion
    /// must analyze with **zero errors** — warnings are legitimate (GL031 fires
    /// on small hosts), errors are analyzer false positives. The axes are the
    /// planner's: shard count, `.place(..)` vs `.with(..)`, fusion on/off,
    /// checkpointing on/off.
    #[test]
    fn clean_random_plans_analyze_with_zero_errors(
        reports in keyed_readings(),
        shards in 1usize..4,
        fusion in any::<bool>(),
        placed in any::<bool>(),
        checkpointed in any::<bool>(),
    ) {
        let mut config = PlannerConfig::default().with_fusion(fusion);
        if checkpointed {
            config = config
                .with_checkpoints(CheckpointConfig::new(16, CheckpointStore::in_memory()));
        }
        let plan = GlPlan::with_config(GeneaLog::new(), config);
        let agg = plan
            .source("readings", VecSource::new(reports))
            .filter("keep", keep)
            .map_one("scale", scale)
            .aggregate("sum", window_spec(), sum_key, sum_window, sum_key);
        let agg = if placed {
            let placements: Vec<ShardPlacement<GeneaLog, Reading, Reading>> =
                ShardPlacement::all_local(shards);
            agg.place(placements)
        } else {
            agg.with(Parallelism::shards(shards))
        };
        let alerts = agg.filter("busy", busy);
        let (out, _provenance) = logical_provenance_sink(alerts, "prov");
        let sink = out.collecting_sink("sink");

        let analyzed = plan.analyze().unwrap();
        prop_assert!(
            !analyzed.report.has_errors(),
            "false positive (shards={}, fusion={}, placed={}, checkpointed={}):\n{}",
            shards, fusion, placed, checkpointed, analyzed.report.render()
        );
        // Prove the antecedent: the very query the analyzer inspected runs to
        // completion.
        analyzed.query.deploy().unwrap().wait().unwrap();
        let _ = sink.len();
    }
}
