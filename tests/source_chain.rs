//! A Source heads the fused chain behind it: with fusion on, the stateless stages
//! added on a source's stream run on the source's thread, with no channel between
//! them. These tests pin what must not move when they do — the source's own ledger
//! row and gauges, the stop flag, and the checkpoint path (replay offset, barrier
//! cadence, recovered sink bytes and GeneaLog contribution sets).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use genealog::prelude::*;
use genealog_spe::query::NodeKind;
use genealog_spe::state::{run_with_recovery, CheckpointConfig, CheckpointStore, RecoveryConfig};

const GENERATED: u64 = 1_000;

/// `numbers → evens (drops half) → double → sink` under `system`: the report and
/// the source's final replay-offset gauge.
fn half_and_double<P: ProvenanceSystem>(system: P, fusion: bool) -> (QueryReport, u64) {
    let mut q = Query::with_config(system, QueryConfig::default().with_fusion(fusion));
    let src = q.source(
        "numbers",
        VecSource::with_period((0..GENERATED as i64).collect(), 10),
    );
    let evens = q.filter("evens", src, |x: &i64| x % 2 == 0);
    let doubled = q.map_one("double", evens, |x: &i64| x * 2);
    let sink = q.collecting_sink("sink", doubled);
    let registry = q.registry();
    let report = q.deploy().unwrap().wait().unwrap();
    assert_eq!(sink.len() as u64, GENERATED / 2);
    let offset = registry
        .gauge("genealog_source_replay_offset", &[("operator", "numbers")])
        .get();
    (report, offset)
}

/// `QueryReport::source_tuples` reads the source's own row wherever it runs: alone
/// (fusion off) or as stage 0 of `numbers+evens+double` (fusion on), NP and GL.
#[test]
fn source_tuples_counts_the_source_stage_fused_or_not() {
    for fusion in [false, true] {
        for (label, (report, offset)) in [
            ("NP", half_and_double(NoProvenance, fusion)),
            ("GL", half_and_double(GeneaLog::new(), fusion)),
        ] {
            let case = format!("{label}, fusion {fusion}");
            assert_eq!(report.source_tuples(), GENERATED, "{case}");
            assert_eq!(report.sink_tuples(), GENERATED / 2, "{case}");
            assert_eq!(
                offset, GENERATED,
                "{case}: the gauge keeps the source's name"
            );
            if fusion {
                let chain = report
                    .operator("numbers+evens+double")
                    .expect("the source heads the chain");
                assert_eq!(chain.kind, NodeKind::Fused, "{case}");
                assert_eq!(chain.head, NodeKind::Source, "{case}");
                assert_eq!(report.operator_stats().len(), 2, "{case}: chain and sink");
                assert_eq!(
                    report.fused_stage("numbers").unwrap().tuples_out,
                    GENERATED,
                    "{case}"
                );
                assert_eq!(
                    report.fused_stage("evens").unwrap().tuples_in,
                    GENERATED,
                    "{case}"
                );
            } else {
                let source = report.operator("numbers").expect("a chain of one");
                assert_eq!(source.kind, NodeKind::Source, "{case}");
                assert_eq!(source.stats.tuples_out, GENERATED, "{case}");
                assert_eq!(report.operator_stats().len(), 4, "{case}");
            }
        }
    }
}

/// `QueryHandle::stop` ends a rate-limited source early when a filter runs on its
/// thread, as it does for a source alone.
#[test]
fn stop_flag_terminates_a_rate_limited_source_headed_chain_early() {
    let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(true));
    let src = q.source_with(
        "slow",
        VecSource::with_period((0..1_000_000i64).collect(), 1),
        SourceConfig {
            rate: RateLimit::TuplesPerSecond(10_000),
            watermark_every: 1,
        },
    );
    let kept = q.filter("evens", src, |x: &i64| x % 2 == 0);
    let _ = q.collecting_sink("sink", kept);
    let handle = q.deploy().unwrap();
    assert!(!handle.is_stopping());
    std::thread::sleep(std::time::Duration::from_millis(50));
    handle.stop();
    assert!(handle.is_stopping());
    let report = handle.wait().unwrap();
    assert!(
        report.operator("slow+evens").is_some(),
        "the filter runs on the source's thread"
    );
    assert!(report.source_tuples() < 1_000_000);
}

type Reading = (u32, i64);
/// `(ts_millis, debug-rendered payload)`: the byte-level identity of a tuple.
type Row = (u64, String);
type Lineage = (Row, BTreeSet<Row>);

/// Tuples per epoch: every run spans a dozen barriers.
const INTERVAL: u64 = 5;

fn readings() -> Vec<(Timestamp, Reading)> {
    (0..60u64)
        .map(|i| (Timestamp::from_millis(i * 700), ((i % 3) as u32, i as i64)))
        .collect()
}

/// One checkpointed run, in canonical form, with what the source committed.
struct Checkpointed {
    tuples: Vec<Row>,
    lineage: Vec<Lineage>,
    /// `(epoch, replay offset)` the source committed, for every epoch of the run.
    offsets: Vec<(u64, u64)>,
    /// The epoch the last recovery restored, with the offset the source resumed at.
    restored: Option<(u64, Option<u64>)>,
    recoveries: u64,
}

/// `readings → keep (filter) → sum (aggregate) → provenance sink → sink` under
/// GeneaLog, checkpointed every `INTERVAL` source tuples. With `kill_at_close`, the
/// window function panics once, at that window close, and the run recovers from the
/// latest complete epoch. The source is paced, so the stages behind the aggregate
/// have committed the early epochs by the time it dies.
fn run_checkpointed(fusion: bool, kill_at_close: Option<u64>) -> Checkpointed {
    let paced = SourceConfig {
        rate: RateLimit::TuplesPerSecond(4_000),
        ..SourceConfig::default()
    };
    let store = CheckpointStore::in_memory();
    let armed = Arc::new(AtomicBool::new(kill_at_close.is_some()));
    let closes = Arc::new(AtomicU64::new(0));
    // One system for every attempt, so a rebuilt engine keeps allocating fresh ids.
    let system = GeneaLog::new();
    let (_, (sink, provenance)) =
        run_with_recovery(&store, RecoveryConfig::default(), |_attempt| {
            let plan = GlPlan::with_config(
                system.clone(),
                PlannerConfig::default()
                    .with_fusion(fusion)
                    .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
            );
            let (armed, closes) = (Arc::clone(&armed), Arc::clone(&closes));
            let sums = plan
                .source_with("readings", VecSource::new(readings()), paced)
                .filter("keep", |r: &Reading| r.1 % 3 != 0)
                .aggregate(
                    "sum",
                    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap(),
                    |r: &Reading| r.0,
                    move |w: &WindowView<'_, u32, Reading, GlMeta>| {
                        let close = closes.fetch_add(1, Ordering::SeqCst) + 1;
                        if kill_at_close.is_some_and(|k| close >= k)
                            && armed.swap(false, Ordering::SeqCst)
                        {
                            panic!("injected aggregate failure");
                        }
                        (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
                    },
                    |o: &Reading| o.0,
                );
            let (out, provenance) = logical_provenance_sink(sums, "prov");
            let sink = out.collecting_sink("sink");
            Ok((plan.deploy()?, (sink, provenance)))
        })
        .expect("recovery must succeed within the attempt budget");

    let row = |ts: Timestamp, data: &Reading| (ts.as_millis(), format!("{data:?}"));
    let mut lineage: Vec<Lineage> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let sources = a
                .source_records::<Reading>()
                .iter()
                .map(|r| row(r.ts, &r.data))
                .collect();
            (row(a.sink_ts, &a.sink_data), sources)
        })
        .collect();
    lineage.sort();
    let committed = |epoch| {
        store
            .backend()
            .get("readings", epoch)
            .and_then(|s| s.as_u64())
    };
    Checkpointed {
        tuples: sink.tuples().iter().map(|t| row(t.ts, &t.data)).collect(),
        lineage,
        offsets: (1..)
            .map_while(|epoch| committed(epoch).map(|offset| (epoch, offset)))
            .collect(),
        restored: store.restore_epoch().map(|epoch| {
            (
                epoch,
                store.restore_snapshot("readings").and_then(|s| s.as_u64()),
            )
        }),
        recoveries: store.recoveries(),
    }
}

/// Checkpointing through a source-headed chain: fused, the source commits the same
/// replay offset at the same barriers as unfused, a run killed mid-stream restores
/// the source at its committed offset, and sink bytes and contribution sets equal
/// the fault-free unfused run's.
#[test]
fn checkpointed_source_headed_chain_recovers_like_the_unfused_plan() {
    let reference = run_checkpointed(false, None);
    assert_eq!(reference.recoveries, 0);
    assert!(!reference.tuples.is_empty());
    let cadence: Vec<(u64, u64)> = (1..=readings().len() as u64 / INTERVAL)
        .map(|epoch| (epoch, epoch * INTERVAL))
        .collect();
    assert_eq!(
        reference.offsets, cadence,
        "one barrier every INTERVAL tuples"
    );

    let mut replayed = 0;
    for fusion in [false, true] {
        let clean = run_checkpointed(fusion, None);
        assert_eq!(clean.offsets, cadence, "fusion {fusion}");
        assert_eq!(clean.tuples, reference.tuples, "fusion {fusion}");
        assert_eq!(clean.lineage, reference.lineage, "fusion {fusion}");
        for kill_at_close in [2, 9] {
            let case = format!("fusion {fusion}, kill at close {kill_at_close}");
            let recovered = run_checkpointed(fusion, Some(kill_at_close));
            assert_eq!(recovered.recoveries, 1, "{case}");
            if let Some((epoch, offset)) = recovered.restored {
                assert_eq!(offset, Some(epoch * INTERVAL), "{case}: replay offset");
                replayed += 1;
            }
            assert_eq!(recovered.offsets, cadence, "{case}");
            assert_eq!(recovered.tuples, reference.tuples, "{case}");
            assert_eq!(recovered.lineage, reference.lineage, "{case}");
        }
    }
    // The ninth close comes seven barriers (and ~9 ms of pacing) into the stream:
    // those runs resume from a complete epoch rather than from scratch.
    assert!(replayed > 0, "some recovery must resume mid-stream");
}
