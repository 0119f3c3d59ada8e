//! Fusion-equivalence: collapsing a stateless operator chain into one thread must be
//! invisible in the results. A `filter → map → map` pipeline run with
//! `QueryConfig::fusion` on and off must produce the *identical* sink-tuple stream —
//! same tuples, same order — and, under GeneaLog, identical per-sink-tuple
//! contribution sets. The same holds when the fused chain feeds a key-partitioned
//! aggregate: a fused 4-shard plan equals an unfused, unbatched 1-shard plan.
//!
//! A fan-in — Union, Join, the shard merge — heads a chain of its own, which the
//! stages and the sink behind it extend: the same equivalence holds through it, with
//! checkpoints on and a shard killed mid-epoch included. A panic in any user
//! closure — a Source's generator, a Filter, Map or Aggregate function, a Sink
//! callback, a fan-in's — fails the query cleanly, fused or not.
//!
//! This mirrors `tests/parallel_execution.rs`: GeneaLog tuple *ids* are allocated
//! from a shared atomic counter whose interleaving depends on thread scheduling, so
//! the comparisons use timestamps, payloads and contribution sets — the id is the one
//! meta-attribute that legitimately varies.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::NoProvenance;
use genealog_spe::query::NodeKind;
use genealog_spe::{PlannerConfig, Query, QueryConfig};

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Runs `source -> filter -> map -> map -> sink` under GeneaLog with or without
/// fusion and returns the ordered sink stream plus the contribution sets.
fn run_gl_chain(reports: &[(Timestamp, Reading)], fusion: bool) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::with_config(GeneaLog::new(), QueryConfig::default().with_fusion(fusion));
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let kept = q.filter("keep", src, |r: &Reading| r.1 >= 0);
    let scaled = q.map_one("scale", kept, |r: &Reading| (r.0, r.1 * 3));
    let tagged = q.map_one("tag", scaled, |r: &Reading| (r.0, r.1 + 7));
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", tagged);
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
}

/// Runs `source -> filter -> map -> aggregate.with(shards) -> sink` under
/// GeneaLog, with fusion/batching either both on (the optimised plan) or both off
/// (the per-element seed transport), and returns sink stream plus lineage. One
/// shard lowers to the plain single-instance aggregate.
fn run_gl_chain_into_shards(
    reports: &[(Timestamp, Reading)],
    fusion: bool,
    shards: usize,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let config = if fusion {
        PlannerConfig::default()
    } else {
        PlannerConfig::default().with_fusion(false).unbatched()
    };
    let plan = GlPlan::with_config(GeneaLog::new(), config);
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .filter("keep", |r: &Reading| r.1 % 5 != 0)
        .map_one("scale", |r: &Reading| (r.0, r.1 * 2))
        .aggregate(
            "sum",
            WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap(),
            |r: &Reading| r.0,
            |w: &WindowView<'_, Key, Reading, GlMeta>| {
                (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
            },
            |o: &Reading| o.0,
        )
        .with(Parallelism::shards(shards));
    let (out, provenance) = logical_provenance_sink(sums, "prov");
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();

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
}

/// Strategy: a timestamp-ordered stream of keyed readings with random keys, values
/// and (possibly repeating) timestamp gaps.
fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..8, 0u64..200, 0u64..5), 1..80).prop_map(|steps| {
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole guarantee: for random streams, the fused stateless chain
    /// produces the identical sink stream and identical GeneaLog contribution sets
    /// as the thread-per-operator plan.
    #[test]
    fn fused_chain_is_equivalent_to_unfused(reports in keyed_readings()) {
        let (tuples_unfused, lineage_unfused) = run_gl_chain(&reports, false);
        let (tuples_fused, lineage_fused) = run_gl_chain(&reports, true);
        prop_assert_eq!(tuples_unfused, tuples_fused);
        prop_assert_eq!(lineage_unfused, lineage_fused);
    }

    /// Fusion composes with sharding and batching: a fused, batched, 4-shard plan
    /// equals the unfused, unbatched, single-instance plan — the whole optimisation
    /// stack is invisible in results and provenance.
    #[test]
    fn fused_sharded_plan_equals_unbatched_single_instance(reports in keyed_readings()) {
        let (tuples_base, lineage_base) = run_gl_chain_into_shards(&reports, false, 1);
        let (tuples_opt, lineage_opt) = run_gl_chain_into_shards(&reports, true, 4);
        prop_assert_eq!(tuples_base, tuples_opt);
        prop_assert_eq!(lineage_base, lineage_opt);
    }
}

/// NP smoke check (no provenance): fused and unfused plans agree tuple-for-tuple on
/// a deterministic input, including a flat-map stage producing 0..2 outputs per
/// input tuple.
#[test]
fn fused_flat_map_chain_matches_unfused() {
    let run = |fusion: bool| {
        let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion));
        let src = q.source(
            "numbers",
            VecSource::with_period((0..100i64).collect(), 250),
        );
        let kept = q.filter("keep", src, |x| x % 3 != 0);
        let expanded = q.map("expand", kept, |x| {
            if x % 2 == 0 {
                vec![*x, -*x]
            } else {
                vec![]
            }
        });
        let shifted = q.map_one("shift", expanded, |x| x + 1);
        let out = q.collecting_sink("sink", shifted);
        q.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };
    let unfused = run(false);
    let fused = run(true);
    assert!(!fused.is_empty());
    assert_eq!(unfused, fused);
}

// ---------------------------------------------------------------------------
// Fan-in heads: the chain behind a Union, a Join and a shard merge
// ---------------------------------------------------------------------------

/// Reads what a run left behind: its sink bytes and, under GeneaLog, the
/// contribution set of every sink tuple.
type Readout = Box<dyn Fn() -> (Vec<SinkTuple>, Vec<Lineage>)>;

/// A provenance system a plan under test ends in: a collecting sink named `sink`
/// and, under GeneaLog, the single-stream unfolder and provenance sink beside it.
trait Ending: ProvenanceSystem {
    fn end<T: TupleData>(stream: LogicalStream<Self, T>) -> Readout;
}

fn sink_bytes<T: TupleData, M>(sink: &CollectedStream<T, M>) -> Vec<SinkTuple> {
    sink.tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect()
}

impl Ending for NoProvenance {
    fn end<T: TupleData>(stream: LogicalStream<Self, T>) -> Readout {
        let sink = stream.collecting_sink("sink");
        Box::new(move || (sink_bytes(&sink), Vec::new()))
    }
}

impl Ending for GeneaLog {
    fn end<T: TupleData>(stream: LogicalStream<Self, T>) -> Readout {
        let (out, provenance) = logical_provenance_sink(stream, "prov");
        let sink = out.collecting_sink("sink");
        Box::new(move || {
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
            (sink_bytes(&sink), lineage)
        })
    }
}

/// One run of a plan: what it left behind, and how many engine threads ran it.
#[derive(Debug, PartialEq)]
struct Outcome {
    tuples: Vec<SinkTuple>,
    lineage: Vec<Lineage>,
    threads: usize,
}

impl Outcome {
    fn of(readout: &Readout, report: &QueryReport) -> Self {
        let (tuples, lineage) = readout();
        Outcome {
            tuples,
            lineage,
            // A shard group's threads fold into one report that counts them.
            threads: report.operator_stats().iter().map(|o| o.instances).sum(),
        }
    }
}

/// `count` readings over 4 keys, several per timestamp, offset by `phase`.
fn fan_in_readings(count: u64, phase: u64) -> Vec<(Timestamp, Reading)> {
    (0..count)
        .map(|i| {
            let ts = Timestamp::from_millis((i / 3) * 700 + phase * 200);
            (ts, (((i + phase) % 4) as Key, (i * 7 % 23) as i64))
        })
        .collect()
}

/// A logical plan with fusion on or off.
fn plan_of<P: ProvenanceSystem>(system: P, fusion: bool) -> LogicalPlan<P> {
    LogicalPlan::with_config(system, PlannerConfig::default().with_fusion(fusion))
}

/// `a, b → union → keep → end`.
fn union_then_filter<P: Ending>(system: P, fusion: bool) -> (Outcome, QueryReport) {
    let plan = plan_of(system, fusion);
    let a = plan.source("a", VecSource::new(fan_in_readings(60, 0)));
    let b = plan.source("b", VecSource::new(fan_in_readings(45, 1)));
    let kept = LogicalStream::union("union", vec![a, b]).filter("keep", |r: &Reading| r.1 % 3 != 0);
    let readout = P::end(kept);
    let report = plan.deploy().unwrap().wait().unwrap();
    (Outcome::of(&readout, &report), report)
}

/// `left, right → join → diff → end`.
fn join_then_map<P: Ending>(system: P, fusion: bool) -> (Outcome, QueryReport) {
    let plan = plan_of(system, fusion);
    let left = plan.source("left", VecSource::new(fan_in_readings(40, 0)));
    let right = plan.source("right", VecSource::new(fan_in_readings(40, 2)));
    let diff = left
        .join(
            "match",
            right,
            Duration::from_secs(1),
            |l: &Reading| l.0,
            |r: &Reading| r.0,
            |o: &Reading| o.0,
            |l: &Reading, r: &Reading| l.1 != r.1,
            |l: &Reading, r: &Reading| (l.0, l.1 - r.1),
        )
        .map_one("diff", |j: &Reading| (j.0, j.1 * 2));
    let readout = P::end(diff);
    let report = plan.deploy().unwrap().wait().unwrap();
    (Outcome::of(&readout, &report), report)
}

/// `readings → 2-shard checkpointed sum → merge → end`. With `kill_at_close`, a
/// shard's window function panics at that window close on the first attempt, in
/// the middle of an epoch, and the query recovers from the latest complete one.
fn killed_sharded_sum<P: Ending>(
    system: P,
    fusion: bool,
    kill_at_close: Option<u64>,
) -> (Outcome, QueryReport) {
    let store = CheckpointStore::in_memory();
    let closes = Arc::new(AtomicU64::new(0));
    let (report, readout) = run_with_recovery(&store, RecoveryConfig::default(), |attempt| {
        let config = PlannerConfig::default()
            .with_fusion(fusion)
            .with_checkpoints(CheckpointConfig::new(7, Arc::clone(&store)));
        let plan = LogicalPlan::with_config(system.clone(), config);
        let closes = Arc::clone(&closes);
        let sums = plan
            .source("readings", VecSource::new(fan_in_readings(90, 0)))
            .aggregate(
                "sum",
                WindowSpec::tumbling(Duration::from_secs(2)).unwrap(),
                |r: &Reading| r.0,
                move |w: &WindowView<'_, Key, Reading, P::Meta>| {
                    let close = closes.fetch_add(1, Ordering::SeqCst) + 1;
                    if attempt == 0 && Some(close) == kill_at_close {
                        panic!("injected shard failure at window close {close}");
                    }
                    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
                },
                |o: &Reading| o.0,
            )
            .with(Parallelism::shards(2));
        let readout = P::end(sums);
        Ok((plan.deploy()?, readout))
    })
    .expect("recovery succeeds within the attempt budget");
    assert_eq!(store.recoveries(), u64::from(kill_at_close.is_some()));
    (Outcome::of(&readout, &report), report)
}

/// Runs `plan` fused and unfused: the sink bytes and contribution sets must be
/// identical, and the fused plan must run on `fused_threads` engine threads, the
/// unfused one on `unfused_threads`. Returns the fused run's report.
fn assert_equivalent_through_fan_in<F>(
    plan: F,
    unfused_threads: usize,
    fused_threads: usize,
) -> QueryReport
where
    F: Fn(bool) -> (Outcome, QueryReport),
{
    let (unfused, _) = plan(false);
    let (fused, report) = plan(true);
    assert!(!fused.tuples.is_empty(), "the plan must sink something");
    assert_eq!(fused.tuples, unfused.tuples, "sink bytes");
    assert_eq!(fused.lineage, unfused.lineage, "contribution sets");
    assert_eq!(unfused.threads, unfused_threads, "unfused threads");
    assert_eq!(fused.threads, fused_threads, "fused threads");
    report
}

/// The fan-in heads the chain the report names `name`: the part behind it runs
/// on the fan-in's thread instead of a thread of its own, one thread fewer.
fn assert_heads_chain(report: &QueryReport, name: &str, head: NodeKind) {
    let chain = report
        .operator(name)
        .unwrap_or_else(|| panic!("no chain `{name}`"));
    assert_eq!(chain.head, head, "{name}");
    assert_eq!(chain.kind, NodeKind::Fused, "{name}");
}

/// Threads, unfused → fused. NP: a, b, union, keep, sink (5) → a, b,
/// union+keep+sink (3). GL adds the unfolder's multiplex, which seals the union's
/// chain, and the unfolded branch (8 → a, b, union+keep+prov-su-mux, sink,
/// prov-su-unfold+prov-provenance-sink: 5). Were the union no chain head, `keep`
/// and what follows it would run on one more thread.
#[test]
fn union_filter_sink_is_equivalent_through_the_union_head() {
    let np = assert_equivalent_through_fan_in(|f| union_then_filter(NoProvenance, f), 5, 3);
    assert_heads_chain(&np, "union+keep+sink", NodeKind::Union);
    let gl = assert_equivalent_through_fan_in(|f| union_then_filter(GeneaLog::new(), f), 8, 5);
    assert_heads_chain(&gl, "union+keep+prov-su-mux", NodeKind::Union);
}

/// Threads, unfused → fused: left, right, match, diff, sink (5) → left, right,
/// match+diff+sink (3); GL 8 → 5 as for the union.
#[test]
fn join_map_sink_is_equivalent_through_the_join_head() {
    let np = assert_equivalent_through_fan_in(|f| join_then_map(NoProvenance, f), 5, 3);
    assert_heads_chain(&np, "match+diff+sink", NodeKind::Join);
    let gl = assert_equivalent_through_fan_in(|f| join_then_map(GeneaLog::new(), f), 8, 5);
    assert_heads_chain(&gl, "match+diff+prov-su-mux", NodeKind::Join);
}

/// A checkpointed 2-shard aggregate killed mid-epoch recovers to the same sink
/// bytes and contribution sets fused or not, and as a run never killed. Threads,
/// unfused → fused: readings, sum.exchange, 2 shards, sum.merge, sink (6) →
/// readings+sum.exchange, 2 shards, sum.merge+sink (4); GL 9 → 6.
#[test]
fn killed_sharded_aggregate_recovers_equivalently_through_the_merge_head() {
    let kill = Some(5);
    let clean = killed_sharded_sum(NoProvenance, false, None).0;
    let np = assert_equivalent_through_fan_in(
        |f| {
            let (outcome, report) = killed_sharded_sum(NoProvenance, f, kill);
            assert_eq!(outcome.tuples, clean.tuples, "recovered as never killed");
            (outcome, report)
        },
        6,
        4,
    );
    assert_heads_chain(&np, "sum.merge+sink", NodeKind::ShardMerge);

    let system = GeneaLog::new();
    let clean = killed_sharded_sum(system.clone(), false, None).0;
    let gl = assert_equivalent_through_fan_in(
        |f| {
            let (outcome, report) = killed_sharded_sum(system.clone(), f, kill);
            assert_eq!(outcome.tuples, clean.tuples, "recovered as never killed");
            assert_eq!(outcome.lineage, clean.lineage, "recovered as never killed");
            (outcome, report)
        },
        9,
        6,
    );
    assert_heads_chain(&gl, "sum.merge+prov-su-mux", NodeKind::ShardMerge);
}

// ---------------------------------------------------------------------------
// Panicking user closures
// ---------------------------------------------------------------------------

/// Readings that a Source would take well over a minute to emit at its pace.
fn paced() -> (VecSource<Reading>, SourceConfig) {
    let readings = (0..2_000_000u64)
        .map(|i| (Timestamp::from_millis(i * 10), ((i % 4) as Key, i as i64)))
        .collect();
    let paced = SourceConfig {
        rate: RateLimit::TuplesPerSecond(20_000),
        watermark_every: 1,
    };
    (VecSource::new(readings), paced)
}

/// A Source of [`paced`] readings.
fn paced_source<P: ProvenanceSystem>(q: &mut Query<P>, name: &str) -> StreamRef<Reading, P::Meta> {
    let (readings, paced) = paced();
    q.source_with(name, readings, paced)
}

/// A generator whose tenth tuple panics.
struct FailingGenerator(u64);

impl SourceGenerator for FailingGenerator {
    type Item = Reading;

    fn next_tuple(&mut self) -> Option<(Timestamp, Reading)> {
        self.0 += 1;
        assert!(self.0 < 10, "generator failed");
        Some((Timestamp::from_millis(self.0 * 10), (0, 0)))
    }
}

/// Deploys what `build` builds and waits for it on another thread: the query must
/// fail with `OperatorPanicked` naming `thread` well before its paced sources would
/// have run out — so the panic stopped them — and nothing may hang.
fn assert_panic_fails_the_query(
    build: fn(bool) -> Query<NoProvenance>,
    fusion: bool,
    thread: &str,
) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(build(fusion).deploy().unwrap().wait());
    });
    let result = done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{thread}: the query hangs after the panic"));
    match result {
        Err(SpeError::OperatorPanicked { operator }) => assert_eq!(operator, thread),
        other => panic!("{thread}: expected OperatorPanicked, got {other:?}"),
    }
}

/// A plain query with fusion on or off.
fn query(fusion: bool) -> Query<NoProvenance> {
    Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion))
}

/// `readings → keep → sink`, the filter panicking at its first tuple.
fn filter_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let readings = paced_source(&mut q, "readings");
    let kept = q.filter("keep", readings, |_: &Reading| panic!("predicate failed"));
    let _ = q.collecting_sink("sink", kept);
    q
}

/// `readings → scale → sink`, the map panicking at its first tuple.
fn map_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let readings = paced_source(&mut q, "readings");
    let scaled = q.map_one("scale", readings, |_: &Reading| -> Reading {
        panic!("map failed")
    });
    let _ = q.collecting_sink("sink", scaled);
    q
}

/// `readings → count → sink`, the window function panicking at the first close.
fn aggregate_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let readings = paced_source(&mut q, "readings");
    let counts = q.aggregate(
        "count",
        readings,
        WindowSpec::tumbling(Duration::from_secs(1)).unwrap(),
        |r: &Reading| r.0,
        |_: &WindowView<'_, Key, Reading, ()>| -> Reading { panic!("window function failed") },
    );
    let _ = q.collecting_sink("sink", counts);
    q
}

/// `readings → sink`, the sink's callback panicking at its first tuple.
fn sink_callback_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let readings = paced_source(&mut q, "readings");
    let _ = q.sink("sink", readings, |_| panic!("callback failed"));
    q
}

/// `failing, readings → union → sink`: the failing Source's generator panics at
/// its tenth tuple, and the paced one must stop.
fn generator_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let failing = q.source("failing", FailingGenerator(0));
    let readings = paced_source(&mut q, "readings");
    let merged = q.union("union", vec![failing, readings]);
    let _ = q.collecting_sink("sink", merged);
    q
}

/// A Join whose `combine` panics at its first pair, with the sink behind it.
fn join_whose_combine_panics(fusion: bool) -> Query<NoProvenance> {
    let mut q = query(fusion);
    let left = paced_source(&mut q, "left");
    let right = paced_source(&mut q, "right");
    let joined = q.join(
        "match",
        left,
        right,
        Duration::from_secs(1),
        |l: &Reading| l.0,
        |r: &Reading| r.0,
        |_: &Reading, _: &Reading| true,
        |_: &Reading, _: &Reading| -> Reading { panic!("combine failed") },
    );
    let _ = q.collecting_sink("sink", joined);
    q
}

/// A sharded aggregate whose merge's `out_key` panics at the first run of equal
/// timestamps it sorts, with the sink behind the merge.
fn keyed_merge_whose_out_key_panics(fusion: bool) -> Query<NoProvenance> {
    let plan = plan_of(NoProvenance, fusion);
    let (readings, paced) = paced();
    let _ = plan
        .source_with("readings", readings, paced)
        .aggregate(
            "count",
            WindowSpec::tumbling(Duration::from_secs(1)).unwrap(),
            |r: &Reading| r.0,
            |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.len() as i64),
            |_: &Reading| -> Key { panic!("out_key failed") },
        )
        .with(Parallelism::shards(2))
        .collecting_sink("sink");
    plan.lower().unwrap()
}

/// Each user closure that can panic, and the chain that must report it unfused
/// and fused. Fused, a stage or a sink behind a Source fails the Source's own
/// chain.
#[test]
fn a_panicking_user_closure_fails_its_chain_cleanly() {
    type Case = (fn(bool) -> Query<NoProvenance>, &'static str, &'static str);
    let cases: [Case; 5] = [
        (generator_panics, "failing", "failing"),
        (filter_panics, "keep", "readings+keep+sink"),
        (map_panics, "scale", "readings+scale+sink"),
        (aggregate_panics, "count", "readings+count+sink"),
        (sink_callback_panics, "sink", "readings+sink"),
    ];
    for (build, unfused, fused) in cases {
        assert_panic_fails_the_query(build, false, unfused);
        assert_panic_fails_the_query(build, true, fused);
    }
}

#[test]
fn a_panicking_join_combine_fails_its_chain_cleanly() {
    assert_panic_fails_the_query(join_whose_combine_panics, false, "match");
    assert_panic_fails_the_query(join_whose_combine_panics, true, "match+sink");
}

#[test]
fn a_panicking_keyed_merge_out_key_fails_its_chain_cleanly() {
    assert_panic_fails_the_query(keyed_merge_whose_out_key_panics, false, "count.merge");
    assert_panic_fails_the_query(keyed_merge_whose_out_key_panics, true, "count.merge+sink");
}
