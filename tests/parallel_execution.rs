//! Shard-equivalence: key-partitioned parallel execution must be invisible in the
//! results. A keyed aggregate (or equi-key join) declared on the logical builder
//! with `.with(Parallelism::shards(n))` must produce the *identical* sink-tuple
//! stream as the plain single-instance operator — same tuples, same order — and,
//! under GeneaLog, identical per-alert contribution sets.
//!
//! GeneaLog tuple *ids* are allocated from a shared atomic counter whose interleaving
//! depends on thread scheduling, so the comparisons here use timestamps, payloads and
//! contribution sets — the id is the one meta-attribute that legitimately varies.

use std::collections::BTreeSet;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_spe::logical::LogicalPlan;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::NoProvenance;
use genealog_spe::query::ShardPlacement;
use genealog_spe::Query;

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Runs `source -> aggregate.with(shards) -> sink` under GeneaLog and returns the
/// ordered sink stream plus the per-sink-tuple contribution sets. One shard lowers
/// to the plain single-instance operator.
fn run_gl_sharded_sum(
    reports: &[(Timestamp, Reading)],
    shards: usize,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let plan = GlPlan::new(GeneaLog::new());
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
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

    /// The tentpole guarantee: for random key/timestamp interleavings, a keyed
    /// aggregate with 4 shards produces the identical sink stream and identical
    /// GeneaLog contribution sets as the 1-shard plan.
    #[test]
    fn sharded_aggregate_is_equivalent_across_shard_counts(reports in keyed_readings()) {
        let (tuples_1, lineage_1) = run_gl_sharded_sum(&reports, 1);
        let (tuples_4, lineage_4) = run_gl_sharded_sum(&reports, 4);
        // Sink stream and contribution sets must not depend on the shard count.
        prop_assert_eq!(tuples_1, tuples_4);
        prop_assert_eq!(lineage_1, lineage_4);
    }
}

/// The sharded plan must also match the plain single-instance `aggregate` operator:
/// partition + shards + merge is a drop-in replacement, not a different semantics —
/// for one shard too, where explicit placements keep the exchange in the plan.
#[test]
fn sharded_aggregate_matches_plain_aggregate() {
    let reports: Vec<(Timestamp, Reading)> = (0..200u64)
        .map(|i| (Timestamp::from_secs(i / 4), ((i % 7) as Key, i as i64)))
        .collect();
    let spec = WindowSpec::new(Duration::from_secs(12), Duration::from_secs(6)).unwrap();

    let run_plain = || {
        let mut q = Query::new(NoProvenance);
        let src = q.source("readings", VecSource::new(reports.clone()));
        let sums = q.aggregate(
            "sum",
            src,
            spec,
            |r: &Reading| r.0,
            |w: &WindowView<'_, Key, Reading, ()>| (*w.key, w.payloads().map(|p| p.1).sum::<i64>()),
        );
        let out = q.collecting_sink("sink", sums);
        q.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };
    let run_sharded = |instances: usize| {
        let plan = LogicalPlan::new(NoProvenance);
        let out = plan
            .source("readings", VecSource::new(reports.clone()))
            .aggregate(
                "sum",
                spec,
                |r: &Reading| r.0,
                |w: &WindowView<'_, Key, Reading, ()>| {
                    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
                },
                |o: &Reading| o.0,
            )
            // Explicit placements keep the exchange and the merge even for one shard.
            .place::<Reading>(ShardPlacement::all_local(instances))
            .collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };

    let plain = run_plain();
    assert!(!plain.is_empty());
    for instances in [1, 2, 4] {
        assert_eq!(
            plain,
            run_sharded(instances),
            "{instances}-shard plan must equal the single-instance operator"
        );
    }
}

/// Equi-key joins shard the same way: partition both sides on the key, join inside
/// each shard, reunify — identical output stream for every shard count.
#[test]
fn sharded_join_is_equivalent_across_shard_counts() {
    let left: Vec<(Timestamp, Reading)> = (0..60u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 5) as Key, i as i64)))
        .collect();
    let right: Vec<(Timestamp, Reading)> = (0..60u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 5) as Key, 1_000 + i as i64)))
        .collect();

    let run = |shards: usize| {
        let plan = LogicalPlan::new(NoProvenance);
        let l = plan.source("left", VecSource::new(left.clone()));
        let r = plan.source("right", VecSource::new(right.clone()));
        let out = l
            .join(
                "match",
                r,
                Duration::from_secs(3),
                |l: &Reading| l.0,
                |r: &Reading| r.0,
                |o: &(Key, i64, i64)| o.0,
                |l: &Reading, r: &Reading| l.0 == r.0,
                |l: &Reading, r: &Reading| (l.0, l.1, r.1),
            )
            .with(Parallelism::shards(shards))
            .collecting_sink("sink");
        plan.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };

    let one = run(1);
    assert!(!one.is_empty());
    assert_eq!(one, run(2));
    assert_eq!(one, run(4));
}

/// GeneaLog chain pointers survive the exchange: the provenance of a sharded
/// aggregate's outputs is exactly the window contents, same as unsharded.
#[test]
fn sharded_aggregate_contribution_sets_are_the_window_contents() {
    // 2 keys, one reading per key per second; tumbling 4s windows -> every window
    // holds exactly 4 readings of its own key.
    let reports: Vec<(Timestamp, Reading)> = (0..32u64)
        .map(|i| (Timestamp::from_secs(i / 2), ((i % 2) as Key, i as i64)))
        .collect();
    let plan = GlPlan::new(GeneaLog::new());
    let counts = plan
        .source("readings", VecSource::new(reports))
        .aggregate(
            "count",
            WindowSpec::tumbling(Duration::from_secs(4)).unwrap(),
            |r: &Reading| r.0,
            |w: &WindowView<'_, Key, Reading, GlMeta>| (*w.key, w.len() as i64),
            |o: &Reading| o.0,
        )
        .with(Parallelism::shards(2));
    let (out, provenance) = logical_provenance_sink(counts, "prov");
    out.discard();
    plan.deploy().unwrap().wait().unwrap();

    let assignments = provenance.assignments();
    assert!(!assignments.is_empty());
    for a in &assignments {
        assert_eq!(
            a.source_count() as i64,
            a.sink_data.1,
            "every window tuple contributes exactly once"
        );
        for record in a.source_records::<Reading>() {
            assert_eq!(
                record.data.0, a.sink_data.0,
                "contributing tuples carry the window's own key"
            );
        }
    }
}
