//! A Source heads the fused chain behind it: with fusion on, the stages added on a
//! source's stream, stateful ones included, and the tail that seals them run on
//! the source's thread, with no channel between them. These tests pin what must not
//! move when they do — the source's own ledger row and gauges, the stop flag, the
//! batch framing of a Send behind it, and the checkpoint path (replay offset,
//! barrier cadence, participants, recovered sink bytes and GeneaLog contribution
//! sets).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use genealog::prelude::*;
use genealog_distributed::deployment::add_send;
use genealog_distributed::{FrameSource, NetworkConfig, SimulatedLink, WireDecode, WireFrame};
use genealog_spe::query::NodeKind;
use genealog_spe::state::{
    run_with_recovery, CheckpointConfig, CheckpointStore, RecoveryConfig, Snapshot, StateBackend,
};

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
                    .operator("numbers+evens+double+sink")
                    .expect("the source heads the chain");
                assert_eq!(chain.kind, NodeKind::Fused, "{case}");
                assert_eq!(chain.head, NodeKind::Source, "{case}");
                assert_eq!(chain.tail, NodeKind::Sink, "{case}");
                assert_eq!(report.operator_stats().len(), 1, "{case}: one chain");
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
        report.operator("slow+evens+sink").is_some(),
        "the filter and the sink run on the source's thread"
    );
    assert!(report.source_tuples() < 1_000_000);
}

/// A Source marks a batch end wherever its output channel would flush a full batch,
/// so a Send behind it frames the same on the source's thread as behind a channel —
/// even when the stream's only watermark comes at its end.
#[test]
fn a_send_behind_a_source_frames_by_batch_fused_or_not() {
    let runs = |fusion: bool| {
        let mut q = Query::with_config(NoProvenance, QueryConfig::default().with_fusion(fusion));
        let batch = q.config().batch.size;
        let src = q.source_with(
            "numbers",
            VecSource::with_period((0..1_000i64).collect(), 1),
            SourceConfig {
                watermark_every: 0,
                ..SourceConfig::default()
            },
        );
        let (link, frames, _stats) = SimulatedLink::new(NetworkConfig::unlimited());
        add_send(&mut q, "send", src, link);
        let report = q.deploy().unwrap().wait().unwrap();
        assert_eq!(report.operator_stats().len(), if fusion { 1 } else { 2 });
        let mut runs = Vec::new();
        while let Some(framed) = frames.recv_frame() {
            match WireFrame::<i64>::from_bytes(&framed[8..]).unwrap() {
                WireFrame::Tuples(run) => {
                    assert!(run.len() <= batch, "fusion {fusion}: a frame over a batch");
                    runs.push(run.len());
                }
                WireFrame::End => break,
                WireFrame::Watermark(_) | WireFrame::Barrier(_) => {}
            }
        }
        runs
    };
    let unfused = runs(false);
    assert_eq!(unfused.iter().sum::<usize>(), 1_000);
    assert_eq!(
        unfused.len(),
        1_000usize.div_ceil(32),
        "one frame per batch"
    );
    assert_eq!(runs(true), unfused);
}

type Reading = (u32, i64);
/// `(ts_millis, debug-rendered payload)`: the byte-level identity of a tuple.
type Row = (u64, String);
type Lineage = (Row, BTreeSet<Row>);
/// Reads a sink tuple's contribution set under `P`.
type LineageOf<P> = fn(&Arc<GTuple<Reading, <P as ProvenanceSystem>::Meta>>) -> BTreeSet<Row>;

/// Tuples per epoch: every run spans a dozen barriers.
const INTERVAL: u64 = 5;

fn readings() -> Vec<(Timestamp, Reading)> {
    (0..60u64)
        .map(|i| (Timestamp::from_millis(i * 700), ((i % 3) as u32, i as i64)))
        .collect()
}

fn row(ts: Timestamp, data: &Reading) -> Row {
    (ts.as_millis(), format!("{data:?}"))
}

/// An in-memory backend that records, as the run goes, every replay offset the
/// `readings` source commits and every one it is served back. A complete epoch
/// retires the older snapshots, so after the run the store itself holds only the
/// last cut.
#[derive(Debug, Default)]
struct SourceOffsets {
    inner: InMemoryBackend,
    /// epoch -> the offset last committed for it (a replayed epoch re-commits).
    committed: Mutex<BTreeMap<u64, u64>>,
    /// `(epoch, offset)` of the last snapshot the source was restored from.
    served: Mutex<Option<(u64, Option<u64>)>>,
}

impl StateBackend for SourceOffsets {
    fn name(&self) -> &'static str {
        "source-offsets"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        if participant == "readings" {
            let offset = snapshot.as_u64().expect("a source commits its offset");
            self.committed.lock().unwrap().insert(epoch, offset);
        }
        self.inner.put(participant, epoch, snapshot);
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        let snapshot = self.inner.get(participant, epoch);
        if participant == "readings" {
            let offset = snapshot.as_ref().and_then(Snapshot::as_u64);
            *self.served.lock().unwrap() = Some((epoch, offset));
        }
        snapshot
    }

    fn remove_after(&self, epoch: u64) {
        self.inner.remove_after(epoch);
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }

    fn serialized_bytes(&self) -> usize {
        self.inner.serialized_bytes()
    }

    fn note_complete_epoch(&self, epoch: u64) {
        self.inner.note_complete_epoch(epoch);
    }
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
    /// The checkpoint participants of the last run.
    participants: Vec<String>,
    /// Operator threads of the last run.
    threads: usize,
}

/// `readings → keep (filter) → sum (aggregate) → even (filter) → sink` under
/// `system`, checkpointed every `INTERVAL` source tuples; with fusion on, the whole
/// plan is one chain on the source's thread. `lineage` reads a sink tuple's
/// contribution set. With `kill_at_close`, the window function panics once, at
/// that window close, and the run recovers from the latest complete epoch. The
/// source is paced, so the stages behind the aggregate have committed the early
/// epochs by the time it dies.
fn run_checkpointed<P: ProvenanceSystem>(
    system: P,
    fusion: bool,
    kill_at_close: Option<u64>,
    lineage: LineageOf<P>,
) -> Checkpointed {
    let paced = SourceConfig {
        rate: RateLimit::TuplesPerSecond(4_000),
        ..SourceConfig::default()
    };
    let offsets = Arc::new(SourceOffsets::default());
    let store = CheckpointStore::new(Arc::clone(&offsets) as Arc<dyn StateBackend>);
    let armed = Arc::new(AtomicBool::new(kill_at_close.is_some()));
    let closes = Arc::new(AtomicU64::new(0));
    // One system for every attempt, so a rebuilt engine keeps allocating fresh ids.
    let (report, sink) = run_with_recovery(&store, RecoveryConfig::default(), |_attempt| {
        let plan = LogicalPlan::with_config(
            system.clone(),
            PlannerConfig::default()
                .with_fusion(fusion)
                .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
        );
        let (armed, closes) = (Arc::clone(&armed), Arc::clone(&closes));
        let sink = plan
            .source_with("readings", VecSource::new(readings()), paced)
            .filter("keep", |r: &Reading| r.1 % 3 != 0)
            .aggregate(
                "sum",
                WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap(),
                |r: &Reading| r.0,
                move |w: &WindowView<'_, u32, Reading, P::Meta>| {
                    let close = closes.fetch_add(1, Ordering::SeqCst) + 1;
                    if kill_at_close.is_some_and(|k| close >= k)
                        && armed.swap(false, Ordering::SeqCst)
                    {
                        panic!("injected aggregate failure");
                    }
                    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
                },
                |o: &Reading| o.0,
            )
            .filter("even", |r: &Reading| r.1 % 2 == 0)
            .collecting_sink("sink");
        Ok((plan.deploy()?, sink))
    })
    .expect("recovery must succeed within the attempt budget");

    let tuples = sink.tuples();
    let mut lineage: Vec<Lineage> = tuples
        .iter()
        .map(|t| (row(t.ts, &t.data), lineage(t)))
        .collect();
    lineage.sort();
    let committed = offsets.committed.lock().unwrap();
    let served = *offsets.served.lock().unwrap();
    Checkpointed {
        tuples: tuples.iter().map(|t| row(t.ts, &t.data)).collect(),
        lineage,
        offsets: (1..)
            .map_while(|epoch| committed.get(&epoch).map(|&offset| (epoch, offset)))
            .collect(),
        restored: store.restore_epoch().map(|epoch| {
            let offset = served.filter(|&(at, _)| at == epoch).and_then(|(_, o)| o);
            (epoch, offset)
        }),
        recoveries: store.recoveries(),
        participants: store.participants(),
        threads: report.operator_stats().len(),
    }
}

/// A GeneaLog sink tuple's contribution set, read off its provenance graph.
fn gl_lineage(t: &Arc<GTuple<Reading, GlMeta>>) -> BTreeSet<Row> {
    find_provenance(&genealog::erase(t))
        .iter()
        .filter_map(|s| s.payload::<Reading>().map(|data| row(s.ts(), data)))
        .collect()
}

/// Checkpointing through a chain that holds state: fused, the source, the filters,
/// the aggregate and the sink run on the source's thread; the source commits the
/// same replay offset at the same barriers as unfused, the store lists the same
/// participants, a run killed at a window close restores the source at its
/// committed offset, and sink bytes and contribution sets equal the fault-free
/// unfused run's, under NP and GL.
#[test]
fn checkpointed_source_headed_chain_recovers_like_the_unfused_plan() {
    check_recovery(NoProvenance, |_| BTreeSet::new());
    check_recovery(GeneaLog::new(), gl_lineage);
}

fn check_recovery<P: ProvenanceSystem>(system: P, lineage: LineageOf<P>) {
    let label = system.label();
    let reference = run_checkpointed(system.clone(), false, None, lineage);
    assert_eq!(reference.recoveries, 0);
    assert!(!reference.tuples.is_empty());
    assert_eq!(reference.threads, 5, "{label}: one thread per operator");
    assert_eq!(reference.participants, ["readings", "sink", "sum"]);
    let cadence: Vec<(u64, u64)> = (1..=readings().len() as u64 / INTERVAL)
        .map(|epoch| (epoch, epoch * INTERVAL))
        .collect();
    assert_eq!(
        reference.offsets, cadence,
        "one barrier every INTERVAL tuples"
    );

    let mut replayed = 0;
    for fusion in [false, true] {
        let clean = run_checkpointed(system.clone(), fusion, None, lineage);
        let case = format!("{label}, fusion {fusion}");
        assert_eq!(clean.threads, if fusion { 1 } else { 5 }, "{case}");
        assert_eq!(clean.participants, reference.participants, "{case}");
        assert_eq!(clean.offsets, cadence, "{case}");
        assert_eq!(clean.tuples, reference.tuples, "{case}");
        assert_eq!(clean.lineage, reference.lineage, "{case}");
        for kill_at_close in [2, 9] {
            let case = format!("{case}, kill at close {kill_at_close}");
            let recovered = run_checkpointed(system.clone(), fusion, Some(kill_at_close), lineage);
            assert_eq!(recovered.recoveries, 1, "{case}");
            if let Some((epoch, offset)) = recovered.restored {
                assert_eq!(offset, Some(epoch * INTERVAL), "{case}: replay offset");
                replayed += 1;
            }
            assert_eq!(recovered.participants, reference.participants, "{case}");
            assert_eq!(recovered.offsets, cadence, "{case}");
            assert_eq!(recovered.tuples, reference.tuples, "{case}");
            assert_eq!(recovered.lineage, reference.lineage, "{case}");
        }
    }
    // The ninth close comes seven barriers (and ~9 ms of pacing) into the stream:
    // those runs resume from a complete epoch rather than from scratch.
    assert!(
        replayed > 0,
        "{label}: some recovery must resume mid-stream"
    );
}
