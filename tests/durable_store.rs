//! Engine-level pinning of the durable checkpoint store (`genealog-store`):
//!
//! * **Incremental ≡ full.** A checkpointed GL query writes every snapshot
//!   through a tee into two on-disk stores at once — one storing every epoch's
//!   container in full, one storing cross-epoch deltas with periodic rebases.
//!   For every `(participant, epoch)` key, the bytes read back from the
//!   incremental store (after a fresh process-style reopen) must be identical
//!   to the full store's — the delta chain is a storage optimisation, never a
//!   semantic one. Pinned by proptest across shard counts × fusion × epoch
//!   counts.
//! * **Write amplification.** On an append-heavy windowed workload the
//!   incremental store must write strictly fewer bytes than the full store —
//!   the store's write-amplification claim, asserted here deterministically.
//! * **A paper query's GL window state survives the store.** Q1's stopped-car
//!   aggregate buffers `PositionReport`s under GeneaLog; its checkpoints go to
//!   disk, the backend is reopened before the restore, and the recovered run's
//!   sink bytes and contribution sets equal the uninterrupted run's.
//! * **Checkpoint state is bounded.** A complete epoch retires every older
//!   snapshot, so a run of fifty epochs never holds more than two epochs per
//!   participant, in the in-memory backend and in the durable one's index.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use genealog::prelude::*;
use genealog::GlWindowPersister;
use genealog_spe::persist::is_container;
use genealog_spe::query::ShardPlacement;
use genealog_spe::state::{CheckpointConfig, CheckpointStore, Snapshot, StateBackend};
use genealog_spe::PlannerConfig;
use genealog_store::{DurableBackend, StoreOptions};
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::queries::build_q1;
use genealog_workloads::types::{PositionReport, StoppedCarCount};

type Key = u32;
type Reading = (Key, i64);

const INTERVAL: u64 = 5;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "durable-store-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window(
    w: &genealog_spe::operator::aggregate::WindowView<'_, Key, Reading, GlMeta>,
) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

/// Writes every byte snapshot into both stores; the engine reads (and
/// restores) through the full side. Records which `(participant, epoch)` keys
/// carry byte snapshots so the test can enumerate them afterwards.
#[derive(Debug)]
struct TeeBackend {
    full: Arc<DurableBackend>,
    incremental: Arc<DurableBackend>,
    keys: Mutex<BTreeSet<(String, u64)>>,
}

impl StateBackend for TeeBackend {
    fn name(&self) -> &'static str {
        "tee(full, incremental)"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        if matches!(snapshot, Snapshot::Bytes(_)) {
            self.keys
                .lock()
                .unwrap()
                .insert((participant.to_string(), epoch));
        }
        self.full.put(participant, epoch, snapshot.clone());
        self.incremental.put(participant, epoch, snapshot);
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.full.get(participant, epoch)
    }

    fn remove_after(&self, epoch: u64) {
        self.full.remove_after(epoch);
        self.incremental.remove_after(epoch);
    }

    fn snapshot_count(&self) -> usize {
        self.full.snapshot_count()
    }

    fn serialized_bytes(&self) -> usize {
        self.full.serialized_bytes()
    }

    fn bytes_written(&self) -> u64 {
        self.full.bytes_written()
    }

    fn note_complete_epoch(&self, epoch: u64) {
        self.full.note_complete_epoch(epoch);
        self.incremental.note_complete_epoch(epoch);
    }

    fn is_durable(&self) -> bool {
        true
    }
}

/// Outcome of one teed run: the recorded byte-snapshot keys, the directories
/// of the two stores, and each store's cumulative write counter. Both store
/// handles are dropped before this returns, so reopening models a restarted
/// process.
struct TeedRun {
    keys: BTreeSet<(String, u64)>,
    full_dir: PathBuf,
    incremental_dir: PathBuf,
    full_written: u64,
    incremental_written: u64,
    latest_complete: Option<u64>,
}

fn run_teed(
    reports: &[(Timestamp, Reading)],
    shards: usize,
    fusion: bool,
    window: WindowSpec,
) -> TeedRun {
    let full_dir = temp_dir("full");
    let incremental_dir = temp_dir("incr");
    let full = DurableBackend::open_with(&full_dir, StoreOptions::default()).unwrap();
    let incremental =
        DurableBackend::open_with(&incremental_dir, StoreOptions::incremental()).unwrap();
    let tee = Arc::new(TeeBackend {
        full: Arc::clone(&full),
        incremental: Arc::clone(&incremental),
        keys: Mutex::new(BTreeSet::new()),
    });
    let store = CheckpointStore::new(Arc::clone(&tee) as Arc<dyn StateBackend>);

    let plan =
        GlPlan::with_config(
            GeneaLog::new(),
            PlannerConfig::default()
                .with_fusion(fusion)
                .with_checkpoints(
                    CheckpointConfig::new(INTERVAL, Arc::clone(&store))
                        .with_window_persister::<Key, Reading, GlMeta>(Arc::new(
                            GlWindowPersister::<Key, Reading, Reading>::new(),
                        )),
                ),
        );
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .aggregate("sum", window, sum_key, sum_window, |o: &Reading| o.0)
        .place(ShardPlacement::<GeneaLog, Reading, Reading>::all_local(
            shards,
        ));
    let (out, _provenance) = logical_provenance_sink(sums, "prov");
    let _sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();

    full.flush().unwrap();
    incremental.flush().unwrap();
    let keys = tee.keys.lock().unwrap().clone();
    TeedRun {
        keys,
        full_dir,
        incremental_dir,
        full_written: full.bytes_written(),
        incremental_written: incremental.bytes_written(),
        latest_complete: store.latest_complete_epoch(),
    }
}

/// Reopens both stores as a restarted process would and asserts every recorded
/// `(participant, epoch)` byte snapshot reads back identically from the
/// incremental store and the full store. Returns how many of those snapshots
/// were window containers (so callers can assert coverage).
fn assert_reopened_stores_identical(run: &TeedRun) -> usize {
    let full = DurableBackend::open_with(&run.full_dir, StoreOptions::default()).unwrap();
    let incremental =
        DurableBackend::open_with(&run.incremental_dir, StoreOptions::incremental()).unwrap();
    assert_eq!(full.latest_complete_epoch(), run.latest_complete);
    assert_eq!(incremental.latest_complete_epoch(), run.latest_complete);

    let mut containers = 0;
    for (participant, epoch) in &run.keys {
        let from_full = full
            .get(participant, *epoch)
            .unwrap_or_else(|| panic!("full store lost {participant}@{epoch}"));
        let from_incremental = incremental
            .get(participant, *epoch)
            .unwrap_or_else(|| panic!("incremental store lost {participant}@{epoch}"));
        let full_bytes = from_full.as_bytes().expect("byte snapshot");
        let incremental_bytes = from_incremental.as_bytes().expect("byte snapshot");
        assert_eq!(
            full_bytes, incremental_bytes,
            "delta-reconstructed {participant}@{epoch} diverged from the full snapshot"
        );
        if is_container(full_bytes) {
            containers += 1;
        }
    }
    containers
}

fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..4, 0u64..100, 0u64..5), 8..40).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(key, value, gap)| {
                ts += gap;
                (Timestamp::from_secs(ts), (key, value as i64 - 50))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// **Incremental snapshots are byte-identical to full snapshots**, pinned
    /// across shard counts {1, 2}, fusion on/off and however many epochs the
    /// generated stream spans: a checkpointed GL run teed into both store
    /// modes reads back, after reopening both directories, the exact same
    /// bytes for every `(participant, epoch)` — window containers (provenance
    /// included) and plain byte snapshots alike.
    #[test]
    fn incremental_snapshots_read_back_identical_to_full(reports in keyed_readings()) {
        let window = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
        for shards in [1usize, 2] {
            for fusion in [false, true] {
                let run = run_teed(&reports, shards, fusion, window);
                prop_assert!(!run.keys.is_empty(), "the run must commit byte snapshots");
                let containers = assert_reopened_stores_identical(&run);
                if run.latest_complete.is_some() {
                    prop_assert!(
                        containers > 0,
                        "at least one committed window container expected once an epoch completes"
                    );
                }
                prop_assert!(
                    run.incremental_written <= run.full_written,
                    "incremental mode must never write more than full mode \
                     ({} vs {} bytes)",
                    run.incremental_written,
                    run.full_written
                );
            }
        }
    }
}

/// **The write-amplification win.** On an append-heavy workload — one long
/// window accumulating tuples over many epochs — the incremental store ships
/// per-epoch deltas (plus periodic rebases) instead of the ever-growing full
/// container, and must write strictly fewer bytes.
#[test]
fn incremental_mode_writes_strictly_fewer_bytes_on_append_heavy_windows() {
    let window = WindowSpec::new(Duration::from_secs(64), Duration::from_secs(32)).unwrap();
    let reports: Vec<(Timestamp, Reading)> = (0..60u64)
        .map(|i| (Timestamp::from_secs(i), (0u32, i as i64)))
        .collect();
    let run = run_teed(&reports, 1, false, window);
    assert!(run.latest_complete.is_some());
    let containers = assert_reopened_stores_identical(&run);
    assert!(containers > 0);
    assert!(
        run.incremental_written < run.full_written,
        "append-heavy windows must show the incremental write-amplification win \
         ({} vs {} bytes)",
        run.incremental_written,
        run.full_written
    );
}

/// Byte snapshots live in a [`DurableBackend`] that is dropped and reopened from
/// its directory when recovery begins — the restarted process — while inline
/// snapshots (the sink's and the collector's contents) stay in memory, as at an
/// origin that outlived the worker holding the operator state.
#[derive(Debug)]
struct ReopenedOnRecovery {
    dir: PathBuf,
    disk: Mutex<Option<Arc<DurableBackend>>>,
    memory: InMemoryBackend,
    reopens: AtomicU64,
}

impl ReopenedOnRecovery {
    fn disk(&self) -> Arc<DurableBackend> {
        Arc::clone(self.disk.lock().unwrap().as_ref().expect("store is open"))
    }
}

impl StateBackend for ReopenedOnRecovery {
    fn name(&self) -> &'static str {
        "reopened-on-recovery"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        match snapshot {
            Snapshot::Bytes(_) => self.disk().put(participant, epoch, snapshot),
            Snapshot::Inline(_) => self.memory.put(participant, epoch, snapshot),
        }
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.disk()
            .get(participant, epoch)
            .or_else(|| self.memory.get(participant, epoch))
    }

    fn remove_after(&self, epoch: u64) {
        let mut disk = self.disk.lock().unwrap();
        let old = disk.take().expect("store is open");
        old.flush().unwrap();
        drop(old);
        let reopened = DurableBackend::open_with(&self.dir, StoreOptions::incremental()).unwrap();
        reopened.remove_after(epoch);
        *disk = Some(reopened);
        self.memory.remove_after(epoch);
        self.reopens.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot_count(&self) -> usize {
        self.disk().snapshot_count() + self.memory.snapshot_count()
    }

    fn serialized_bytes(&self) -> usize {
        self.disk().serialized_bytes()
    }

    /// Both sides retire what the complete cut made dead.
    fn note_complete_epoch(&self, epoch: u64) {
        self.disk().note_complete_epoch(epoch);
        self.memory.note_complete_epoch(epoch);
    }

    fn is_durable(&self) -> bool {
        true
    }
}

type Alert = (u64, String);

/// One (possibly recovered) Q1 run in canonical form.
struct Q1Run {
    tuples: Vec<Alert>,
    lineage: Vec<(Alert, BTreeSet<Alert>)>,
    backend: Arc<ReopenedOnRecovery>,
    participants: usize,
    recoveries: u64,
}

/// Runs Q1 under GeneaLog with its aggregate's window state byte-persisted. With
/// `kill_at_alert`, the alert stream panics once at that alert; recovery reopens
/// the store and restores from it.
fn run_q1(kill_at_alert: Option<u64>) -> Q1Run {
    let dir = temp_dir("q1");
    let backend = Arc::new(ReopenedOnRecovery {
        disk: Mutex::new(Some(
            DurableBackend::open_with(&dir, StoreOptions::incremental()).unwrap(),
        )),
        dir,
        memory: InMemoryBackend::new(),
        reopens: AtomicU64::new(0),
    });
    let store = CheckpointStore::new(Arc::clone(&backend) as Arc<dyn StateBackend>);
    let system = GeneaLog::new();
    let alerts_seen = Arc::new(AtomicU64::new(0));

    let (_, (sink, provenance)) = run_with_recovery(&store, RecoveryConfig::default(), |attempt| {
        let plan = GlPlan::with_config(
            system.clone(),
            PlannerConfig::default().with_checkpoints(
                CheckpointConfig::new(20, Arc::clone(&store))
                    .with_window_persister::<u32, PositionReport, GlMeta>(Arc::new(
                        GlWindowPersister::<u32, PositionReport, PositionReport>::new(),
                    )),
            ),
        );
        let alerts_seen = Arc::clone(&alerts_seen);
        let alerts = plan
            .source_with(
                "lr",
                LinearRoadGenerator::new(LinearRoadConfig::small()),
                SourceConfig::default(),
            )
            .raw("q1", build_q1)
            .raw("fault", move |q, alerts| {
                q.filter("fault", alerts, move |_: &StoppedCarCount| {
                    let seen = alerts_seen.fetch_add(1, Ordering::SeqCst) + 1;
                    if attempt == 0 && Some(seen) == kill_at_alert {
                        panic!("injected failure at alert {seen}");
                    }
                    true
                })
            });
        let (out, provenance) = logical_provenance_sink(alerts, "prov");
        let sink = out.collecting_sink("sink");
        Ok((plan.deploy()?, (sink, provenance)))
    })
    .expect("recovery must succeed within the attempt budget");

    let tuples = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    let mut lineage: Vec<(Alert, BTreeSet<Alert>)> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let sources = a
                .source_records::<PositionReport>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (
                (a.sink_ts.as_millis(), format!("{:?}", a.sink_data)),
                sources,
            )
        })
        .collect();
    lineage.sort();
    Q1Run {
        tuples,
        lineage,
        backend,
        participants: store.participants().len(),
        recoveries: store.recoveries(),
    }
}

/// **A paper query's GL window state survives the store.** `PositionReport` has one
/// `impl_codec_struct!` line, which makes Q1's buffered reports — and the `SOURCE`
/// tuples their provenance pointers end in — durable: the recovered run restores
/// the aggregate from containers read back from a reopened directory and ends
/// byte-identical, contribution sets included, to the run that never failed.
#[test]
fn q1_gl_window_state_survives_a_reopened_store() {
    let clean = run_q1(None);
    assert_eq!(clean.recoveries, 0);
    assert!(clean.tuples.len() >= 2, "the workload must raise alerts");
    assert!(clean.lineage.iter().all(|(_, sources)| sources.len() == 4));

    let recovered = run_q1(Some(2));
    assert_eq!(
        recovered.recoveries, 1,
        "the injected failure must trigger one recovery"
    );
    assert_eq!(recovered.backend.reopens.load(Ordering::SeqCst), 1);
    let disk = recovered.backend.disk();
    let restored = disk.latest_complete_epoch().expect("epochs completed");
    let state = disk.get("q1-count", restored).expect("aggregate committed");
    assert!(
        is_container(state.as_bytes().expect("byte snapshot")),
        "Q1's window state must be a byte container, not a process-local snapshot"
    );
    assert_eq!(recovered.tuples, clean.tuples);
    assert_eq!(recovered.lineage, clean.lineage);
    // Every completed cut retires the snapshots older than it on both sides of
    // the backend, so a run ends holding about its last cut, not every epoch.
    for (run, name) in [(&clean, "clean"), (&recovered, "recovered")] {
        let retained = run.backend.snapshot_count();
        assert!(run.participants > 0);
        assert!(
            retained <= 2 * run.participants,
            "the {name} run retains {retained} snapshots for {} participants",
            run.participants
        );
    }
}

/// Forwards to `inner` and, after every `put` and every completed cut, probes
/// which recorded `(participant, epoch)` snapshots `inner` still serves: the
/// most epochs any one participant held at once, and the most snapshots the
/// backend held.
#[derive(Debug)]
struct RetentionProbe {
    inner: Arc<dyn StateBackend>,
    keys: Mutex<BTreeSet<(String, u64)>>,
    peak_epochs_per_participant: AtomicU64,
    peak_snapshots: AtomicU64,
}

impl RetentionProbe {
    fn new(inner: Arc<dyn StateBackend>) -> Arc<Self> {
        Arc::new(RetentionProbe {
            inner,
            keys: Mutex::new(BTreeSet::new()),
            peak_epochs_per_participant: AtomicU64::new(0),
            peak_snapshots: AtomicU64::new(0),
        })
    }

    fn probe(&self) {
        let keys = self.keys.lock().unwrap();
        let mut epochs: BTreeMap<&str, u64> = BTreeMap::new();
        for (participant, epoch) in keys.iter() {
            if self.inner.get(participant, *epoch).is_some() {
                *epochs.entry(participant).or_default() += 1;
            }
        }
        let most = epochs.values().copied().max().unwrap_or(0);
        self.peak_epochs_per_participant
            .fetch_max(most, Ordering::SeqCst);
        self.peak_snapshots
            .fetch_max(self.inner.snapshot_count() as u64, Ordering::SeqCst);
    }
}

impl StateBackend for RetentionProbe {
    fn name(&self) -> &'static str {
        "retention-probe"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        self.keys
            .lock()
            .unwrap()
            .insert((participant.to_string(), epoch));
        self.inner.put(participant, epoch, snapshot);
        self.probe();
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.inner.get(participant, epoch)
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
        self.probe();
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
}

/// **Checkpoint state is bounded.** A GL run of 250 readings checkpointed every
/// `INTERVAL` tuples spans fifty epochs. The plan is one fused chain, so every
/// participant commits epoch `e` before any commits `e + 1`: whatever the
/// backend, at most the retained cut and the epoch in flight are held — two
/// epochs per participant — and once the run is over, the last cut alone.
#[test]
fn a_long_checkpointed_run_retains_at_most_two_epochs_per_participant() {
    let window = WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap();
    let reports: Vec<(Timestamp, Reading)> = (0..250u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 4) as u32, i as i64)))
        .collect();
    let durable = DurableBackend::open_with(temp_dir("retention"), StoreOptions::incremental());
    let backends: [(&str, Arc<dyn StateBackend>); 2] = [
        ("in-memory", Arc::new(InMemoryBackend::new())),
        ("durable", durable.unwrap()),
    ];
    for (label, backend) in backends {
        let probe = RetentionProbe::new(backend);
        let store = CheckpointStore::new(Arc::clone(&probe) as Arc<dyn StateBackend>);
        let plan =
            GlPlan::with_config(
                GeneaLog::new(),
                PlannerConfig::default().with_checkpoints(
                    CheckpointConfig::new(INTERVAL, Arc::clone(&store))
                        .with_window_persister::<Key, Reading, GlMeta>(Arc::new(
                            GlWindowPersister::<Key, Reading, Reading>::new(),
                        )),
                ),
            );
        let sink = plan
            .source("readings", VecSource::new(reports.clone()))
            .aggregate("sum", window, sum_key, sum_window, |o: &Reading| o.0)
            .collecting_sink("sink");
        let report = plan.deploy().unwrap().wait().unwrap();
        assert_eq!(report.operator_stats().len(), 1, "{label}: one chain");
        assert!(!sink.tuples().is_empty(), "{label}");

        let participants = store.participants();
        assert_eq!(participants, ["readings", "sink", "sum"], "{label}");
        assert_eq!(store.latest_complete_epoch(), Some(50), "{label}");
        let peak = probe.peak_epochs_per_participant.load(Ordering::SeqCst);
        assert!(peak <= 2, "{label}: a participant held {peak} epochs");
        let peak = probe.peak_snapshots.load(Ordering::SeqCst);
        assert!(
            peak <= 2 * participants.len() as u64,
            "{label}: the backend held {peak} snapshots"
        );
        assert_eq!(
            probe.snapshot_count(),
            participants.len(),
            "{label}: the last cut alone"
        );
    }
}
