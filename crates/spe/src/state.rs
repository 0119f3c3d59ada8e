//! Pluggable state backends, epoch checkpoints and the recovery runner.
//!
//! Fault tolerance follows the classic aligned-barrier design (Chandy–Lamport cuts,
//! as popularised by Flink, and the backend-parameterised operator state of arcon):
//!
//! 1. When a [`CheckpointConfig`] is installed on a query, every Source injects an
//!    [`Element::Barrier`](crate::tuple::Element) into its output each `interval`
//!    tuples and commits its replay offset for that epoch.
//! 2. Barriers flow through every channel in stream order (and across the
//!    distributed wire as `WireFrame::Barrier`). Stateless operators forward them;
//!    fan-in operators (Union, Join, the shard fan-in) *align*: an input that has
//!    delivered the barrier is held back until every other input reaches the same
//!    barrier, at which point the operator commits a [`Snapshot`] of its keyed state
//!    — including its slice of the provenance graph, i.e. the buffered tuples with
//!    their live `U1`/`U2`/`N` pointers — and forwards the barrier once.
//! 3. An epoch is *complete* once every registered participant (sources, stateful
//!    operators, sinks) has committed it. Recovery rebuilds the query from scratch,
//!    restores each participant from the latest complete epoch and replays the
//!    sources from their committed offsets; because the engine is deterministic, the
//!    recovered run's sink output and stitched contribution sets are byte-identical
//!    to a fault-free run.
//! 4. A complete epoch *subsumes* every older one (the checkpoint subsumption rule of
//!    Flink): no recovery can restore from a cut below the latest complete one, so
//!    the commit that completes epoch `e` drops every commit record of an older
//!    epoch, and [`StateBackend::note_complete_epoch`] lets the backend drop every
//!    older snapshot. Checkpoint state therefore stays bounded by the retained cut
//!    plus the epochs in flight, however long the query runs. Retirement is safe
//!    across recovery only because the next attempt cannot complete an epoch before
//!    every participant of the restored cut is back: recovery seeds the participant
//!    registry with the cut's committers instead of clearing it, so a restarted
//!    Source that races ahead and commits `r + 1` alone completes nothing, and the
//!    restore snapshots stay until every participant has read its own.
//!
//! The [`StateBackend`] trait hides where snapshots live: [`InMemoryBackend`] keeps
//! them as cheap `Arc` clones, the log-structured file backend of `genealog-store`
//! writes byte-encoded snapshots (source offsets, sink prefixes, persisted windows)
//! to disk. Graph-slice snapshots are process-local by design — the `N`/`U` pointers
//! are reference-counted pointers, not serialisable ids — which matches the paper's
//! single-process-per-instance deployment model.
//!
//! The [`CheckpointStore`]'s mutex guards bookkeeping — who registered, who
//! committed which epoch, the failure fence — and is never held across a backend
//! call that does I/O: [`CheckpointStore::commit`] checks the fence, runs
//! [`StateBackend::put`] unlocked, re-checks the fence and only then counts the
//! commit, so the shards of one barrier write their snapshots side by side. A
//! backend must therefore accept concurrent `put`s of different participants (both
//! in this repository do) and keep the epoch pinned by
//! [`StateBackend::note_complete_epoch`] monotone.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::error::SpeError;
use crate::runtime::{QueryHandle, QueryReport};

/// One operator-state snapshot committed for one epoch.
#[derive(Clone)]
pub enum Snapshot {
    /// A process-local snapshot shared by `Arc` (window buffers carrying live
    /// provenance pointers cannot be serialised without losing the graph).
    Inline(Arc<dyn Any + Send + Sync>),
    /// A byte-encoded snapshot (source replay offsets, sink prefixes, counters).
    Bytes(Vec<u8>),
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Snapshot::Inline(_) => f.write_str("Snapshot::Inline(..)"),
            Snapshot::Bytes(b) => write!(f, "Snapshot::Bytes({} bytes)", b.len()),
        }
    }
}

impl Snapshot {
    /// Wraps a process-local state value.
    pub fn inline<S: Any + Send + Sync>(state: S) -> Self {
        Snapshot::Inline(Arc::new(state))
    }

    /// Wraps an already-encoded byte snapshot.
    pub fn bytes(bytes: Vec<u8>) -> Self {
        Snapshot::Bytes(bytes)
    }

    /// Encodes a `u64` (e.g. a source replay offset) as a byte snapshot.
    pub fn u64(value: u64) -> Self {
        Snapshot::Bytes(value.to_le_bytes().to_vec())
    }

    /// Downcasts an inline snapshot back to its concrete state type.
    pub fn downcast<S: Any + Send + Sync>(&self) -> Option<Arc<S>> {
        match self {
            Snapshot::Inline(any) => Arc::clone(any).downcast().ok(),
            Snapshot::Bytes(_) => None,
        }
    }

    /// The raw bytes of a byte snapshot.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Snapshot::Bytes(b) => Some(b),
            Snapshot::Inline(_) => None,
        }
    }

    /// Decodes a snapshot previously produced by [`Snapshot::u64`].
    pub fn as_u64(&self) -> Option<u64> {
        let bytes = self.as_bytes()?;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Serialised size of the snapshot (0 for inline snapshots).
    pub fn serialized_len(&self) -> usize {
        match self {
            Snapshot::Bytes(b) => b.len(),
            Snapshot::Inline(_) => 0,
        }
    }
}

/// Where committed snapshots live.
///
/// Backends are keyed by `(participant, epoch)`; committing the same key twice
/// overwrites (recovery replays re-commit the epochs after the restore point).
pub trait StateBackend: fmt::Debug + Send + Sync {
    /// Short human-readable backend name, used in reports.
    fn name(&self) -> &'static str;

    /// Stores a snapshot. Called without the [`CheckpointStore`]'s lock held:
    /// different participants may be inside `put` at the same time (one
    /// participant commits its epochs one after another).
    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot);

    /// Retrieves a snapshot.
    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot>;

    /// Discards every snapshot of epochs strictly greater than `epoch` (incomplete
    /// epochs are dropped when recovery begins).
    fn remove_after(&self, epoch: u64);

    /// Number of snapshots currently stored.
    fn snapshot_count(&self) -> usize;

    /// Total serialised footprint of the stored snapshots, in bytes (inline
    /// snapshots contribute 0 — they are shared, not copied).
    fn serialized_bytes(&self) -> usize;

    /// Cumulative serialised bytes written since creation. Backends that do not
    /// track writes separately report their current footprint (writes minus
    /// whatever [`StateBackend::remove_after`] and
    /// [`StateBackend::note_complete_epoch`] discarded).
    fn bytes_written(&self) -> u64 {
        self.serialized_bytes() as u64
    }

    /// Notifies the backend that `epoch` is complete across every registered
    /// participant: no recovery will ever read a snapshot of an older epoch again,
    /// so the backend may drop every one of them, and both backends here do.
    /// Durable backends also persist the epoch in their manifest so a restarted
    /// process knows which epochs form a usable cut. Called unlocked like `put`:
    /// two cuts completing back to back may arrive in either order, so a backend
    /// keeps the greatest epoch it was told, and retiring below the smaller cut
    /// after the greater one must drop nothing the greater one kept.
    fn note_complete_epoch(&self, _epoch: u64) {}

    /// Whether snapshots survive the death of this process. `false` for the
    /// in-memory backend; the log-structured file backend (`genealog-store`)
    /// overrides this — the analyzer's GL014 diagnostic keys off it.
    fn is_durable(&self) -> bool {
        false
    }
}

type SnapshotMap = HashMap<(String, u64), Snapshot>;

/// The default backend: snapshots stay in memory exactly as committed.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    snapshots: Mutex<SnapshotMap>,
}

impl InMemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateBackend for InMemoryBackend {
    fn name(&self) -> &'static str {
        "in-memory"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        self.snapshots
            .lock()
            .insert((participant.to_string(), epoch), snapshot);
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.snapshots
            .lock()
            .get(&(participant.to_string(), epoch))
            .cloned()
    }

    fn remove_after(&self, epoch: u64) {
        self.snapshots.lock().retain(|(_, e), _| *e <= epoch);
    }

    fn snapshot_count(&self) -> usize {
        self.snapshots.lock().len()
    }

    fn serialized_bytes(&self) -> usize {
        self.snapshots
            .lock()
            .values()
            .map(Snapshot::serialized_len)
            .sum()
    }

    fn note_complete_epoch(&self, epoch: u64) {
        self.snapshots.lock().retain(|(_, e), _| *e >= epoch);
    }
}

#[derive(Debug, Default)]
struct StoreState {
    /// Participants registered by the current (or last) run.
    participants: HashSet<String>,
    /// epoch -> participants that committed it.
    commits: BTreeMap<u64, HashSet<String>>,
    /// The epoch the next run restores from (set by [`CheckpointStore::begin_recovery`]).
    restore_epoch: Option<u64>,
    /// Number of recoveries performed so far.
    recoveries: u64,
    /// Failure fence: once raised, commits are discarded until the next
    /// [`CheckpointStore::begin_recovery`]. See [`CheckpointStore::fence`].
    fenced: bool,
    /// When the first commit of each not-yet-complete epoch of the current run
    /// arrived, for the commit-latency gauge.
    epoch_started: HashMap<u64, std::time::Instant>,
    /// Wall-clock nanoseconds between the first and the completing commit of the
    /// most recently completed epoch.
    last_commit_latency_ns: Option<u64>,
}

impl StoreState {
    /// The greatest epoch every registered participant has committed, if any.
    fn latest_complete_epoch(&self) -> Option<u64> {
        self.commits
            .iter()
            .rev()
            .find(|(_, committed)| self.participants.is_subset(committed))
            .map(|(&epoch, _)| epoch)
    }
}

/// Coordinates epoch completeness across every participant of a deployment.
///
/// One store is shared — by `Arc` — across the origin query and every remote SPE
/// instance of a distributed deployment, so "latest complete epoch" is a
/// deployment-global cut. Operators register at thread start and commit once per
/// barrier; the recovery runner consults the store between attempts.
#[derive(Debug)]
pub struct CheckpointStore {
    backend: Arc<dyn StateBackend>,
    state: Mutex<StoreState>,
}

impl CheckpointStore {
    /// Creates a store over the given backend.
    pub fn new(backend: Arc<dyn StateBackend>) -> Arc<Self> {
        Arc::new(CheckpointStore {
            backend,
            state: Mutex::new(StoreState::default()),
        })
    }

    /// Creates a store over the default [`InMemoryBackend`].
    pub fn in_memory() -> Arc<Self> {
        Self::new(Arc::new(InMemoryBackend::new()))
    }

    /// The backend snapshots are stored in.
    pub fn backend(&self) -> &Arc<dyn StateBackend> {
        &self.backend
    }

    /// Registers a checkpoint participant (called by every participating operator
    /// when its thread starts). An epoch is complete only once every registered
    /// participant has committed it.
    pub fn register(&self, participant: &str) {
        self.state
            .lock()
            .participants
            .insert(participant.to_string());
    }

    /// Commits `participant`'s snapshot for `epoch`. Discarded while the store is
    /// [fenced](CheckpointStore::fence).
    ///
    /// The store-wide mutex guards bookkeeping only. `backend.put` — for a
    /// durable backend a diff, a checksum, a file append and an fsync — runs
    /// *outside* it, so participants committing the same barrier overlap their
    /// I/O instead of queueing behind one another; so does the
    /// `note_complete_epoch` (manifest flip, retirement of the older snapshots)
    /// of the commit that completes a cut, which drops the older commit records
    /// under the lock first.
    /// The fence is checked before the `put` and re-checked after it: a commit
    /// that lost the race to [`fence`](CheckpointStore::fence) is not counted,
    /// so it can never complete an epoch, and the snapshot it left in the
    /// backend is an orphan of an incomplete epoch that
    /// [`begin_recovery`](CheckpointStore::begin_recovery) drops like any other.
    pub fn commit(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        if self.state.lock().fenced {
            return;
        }
        self.backend.put(participant, epoch, snapshot);
        let mut state = self.state.lock();
        if state.fenced {
            return;
        }
        state
            .epoch_started
            .entry(epoch)
            .or_insert_with(std::time::Instant::now);
        state
            .commits
            .entry(epoch)
            .or_default()
            .insert(participant.to_string());
        // The commit that completes an epoch closes its latency measurement.
        let complete = state
            .commits
            .get(&epoch)
            .is_some_and(|committed| state.participants.is_subset(committed));
        if complete {
            if let Some(started) = state.epoch_started.remove(&epoch) {
                state.last_commit_latency_ns = Some(started.elapsed().as_nanos() as u64);
            }
            // The complete cut subsumes every older one.
            state.commits.retain(|&e, _| e >= epoch);
            state.epoch_started.retain(|&e, _| e > epoch);
            drop(state);
            // Durable backends flip their manifest here — the commit that
            // completes the cut is the one that makes it recoverable on disk —
            // and every backend drops the snapshots the cut made dead.
            // Backends keep the pinned epoch monotone, so two cuts completing
            // back to back may flip (and retire) in either order.
            self.backend.note_complete_epoch(epoch);
        }
    }

    /// Raises the failure fence: every subsequent [`commit`](CheckpointStore::commit)
    /// is discarded until [`begin_recovery`](CheckpointStore::begin_recovery) clears
    /// the fence.
    ///
    /// A failing operator calls this *before* dropping its channel endpoints. Without
    /// the fence, a fan-in downstream of the failure would see a synthesized
    /// end-of-stream, exclude the dead input from barrier alignment and keep
    /// forwarding barriers built from the surviving inputs only — and if the
    /// participants cut off by the failure also keep committing (e.g. a remote shard
    /// behind a severed return link), a *partial* cut could reach completeness and
    /// become the restore point. Fencing at the failure site strictly precedes the
    /// synthesized end-of-stream, so no post-failure commit can complete an epoch.
    pub fn fence(&self) {
        self.state.lock().fenced = true;
    }

    /// The greatest epoch every registered participant has committed, if any.
    pub fn latest_complete_epoch(&self) -> Option<u64> {
        self.state.lock().latest_complete_epoch()
    }

    /// Declares the previous run failed: pins the restore point to the latest
    /// complete epoch, discards every commit after it (incomplete epochs may contain
    /// snapshots influenced by the failure) and seeds the participant registry of
    /// the next attempt with the restored cut's committers. Returns the restore
    /// epoch, or `None` when no epoch ever completed (the next run starts from
    /// scratch).
    pub fn begin_recovery(&self) -> Option<u64> {
        let mut state = self.state.lock();
        let restore = state.latest_complete_epoch();
        self.pin_restore_point(&mut state, restore);
        drop(state);
        genealog_metrics::Tracer::global().emit(
            "recovery-begin",
            self.backend.name(),
            match restore {
                Some(epoch) => format!("restoring from epoch {epoch}"),
                None => "no complete epoch; restarting from scratch".to_string(),
            },
        );
        restore
    }

    /// Adopts an externally-dictated restore point: pins `epoch` as the restore
    /// epoch, discards every commit and snapshot strictly after it, seeds the
    /// participant registry like [`begin_recovery`](CheckpointStore::begin_recovery),
    /// clears the failure fence, and counts a recovery.
    ///
    /// Unlike [`begin_recovery`](CheckpointStore::begin_recovery) the epoch is
    /// *not* derived from local commits: in a multi-process deployment the origin
    /// pins the deployment-global cut and ships it to each worker (in the
    /// `NodeDeployment` frame), and the worker's own store — reopened from its
    /// `--state-dir` — adopts it here. A worker may hold commits *beyond* the
    /// origin's cut (it committed epoch `e` durably, then died before the origin
    /// completed `e`); those are exactly the snapshots `remove_after` discards.
    /// The origin's cut may also lie *below* an epoch the worker completed
    /// locally, which is why a worker's backend never retires snapshots.
    pub fn restore_to(&self, epoch: u64) {
        let mut state = self.state.lock();
        self.pin_restore_point(&mut state, Some(epoch));
        drop(state);
        genealog_metrics::Tracer::global().emit(
            "recovery-restore-to",
            self.backend.name(),
            format!("adopting origin-pinned restore epoch {epoch}"),
        );
    }

    /// Sets up the next attempt to restore from `restore` (from scratch when
    /// `None`): every commit record, start time and snapshot of a later epoch is
    /// dropped, and the participants are the restored cut's committers — so the
    /// next attempt completes no epoch, and retires no restore snapshot, before
    /// each of them has rejoined and read its own.
    fn pin_restore_point(&self, state: &mut StoreState, restore: Option<u64>) {
        state.restore_epoch = restore;
        state
            .commits
            .retain(|&e, _| restore.is_some_and(|r| e <= r));
        // A start time of the restore epoch or later belongs to the failed run.
        state
            .epoch_started
            .retain(|&e, _| restore.is_some_and(|r| e < r));
        state.participants = restore
            .and_then(|r| state.commits.get(&r).cloned())
            .unwrap_or_default();
        if let Some(epoch) = restore {
            self.backend.remove_after(epoch);
        }
        state.fenced = false;
        state.recoveries += 1;
    }

    /// The epoch the current run restores from (`None` outside recovery).
    pub fn restore_epoch(&self) -> Option<u64> {
        self.state.lock().restore_epoch
    }

    /// The snapshot `participant` should restore from, if the store is in recovery
    /// and the participant committed the restore epoch.
    pub fn restore_snapshot(&self, participant: &str) -> Option<Snapshot> {
        let epoch = self.restore_epoch()?;
        self.backend.get(participant, epoch)
    }

    /// The participants registered by the current (or last) run, sorted.
    pub fn participants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().participants.iter().cloned().collect();
        names.sort();
        names
    }

    /// Number of recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.state.lock().recoveries
    }

    /// Wall-clock nanoseconds between the first and the completing commit of the
    /// most recently completed epoch (`None` before any epoch completes). This is
    /// the live "epoch commit latency" gauge of the observability plane.
    pub fn last_epoch_commit_latency_ns(&self) -> Option<u64> {
        self.state.lock().last_commit_latency_ns
    }
}

/// Checkpointing configuration installed on a query via
/// [`Query::set_checkpoints`](crate::query::Query::set_checkpoints).
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Number of tuples each Source emits per epoch (barriers are injected every
    /// `interval` tuples).
    pub interval: u64,
    /// The deployment-wide checkpoint store.
    pub store: Arc<CheckpointStore>,
    /// Type-erased window persisters, keyed by the `TypeId` of the concrete
    /// `WindowStoreSnapshot<K, T, M>` they encode. Aggregate operators look
    /// their persister up here at barrier-commit time; with none registered
    /// they commit inline (process-local) snapshots.
    persisters: HashMap<std::any::TypeId, Arc<dyn Any + Send + Sync>>,
}

impl fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointConfig")
            .field("interval", &self.interval)
            .field("store", &self.store)
            .field("persisters", &self.persisters.len())
            .finish()
    }
}

impl CheckpointConfig {
    /// Creates a configuration (interval clamped to at least 1).
    pub fn new(interval: u64, store: Arc<CheckpointStore>) -> Self {
        CheckpointConfig {
            interval: interval.max(1),
            store,
            persisters: HashMap::new(),
        }
    }

    /// Registers the byte codec for window snapshots of the concrete
    /// `(K, T, M)` type. Every aggregate whose store snapshots to
    /// `WindowStoreSnapshot<K, T, M>` — plain, sharded or fused — picks it up
    /// automatically; no operator constructor changes.
    pub fn with_window_persister<K, T, M>(
        mut self,
        persister: Arc<dyn crate::persist::WindowPersister<K, T, M>>,
    ) -> Self
    where
        K: 'static,
        T: 'static,
        M: 'static,
    {
        self.persisters.insert(
            std::any::TypeId::of::<crate::window::WindowStoreSnapshot<K, T, M>>(),
            Arc::new(persister),
        );
        self
    }

    /// The registered persister for `WindowStoreSnapshot<K, T, M>`, if any.
    pub fn window_persister<K, T, M>(
        &self,
    ) -> Option<Arc<dyn crate::persist::WindowPersister<K, T, M>>>
    where
        K: 'static,
        T: 'static,
        M: 'static,
    {
        self.persisters
            .get(&std::any::TypeId::of::<
                crate::window::WindowStoreSnapshot<K, T, M>,
            >())?
            .downcast_ref::<Arc<dyn crate::persist::WindowPersister<K, T, M>>>()
            .cloned()
    }
}

/// The cell through which operators observe the query's checkpoint configuration.
///
/// Operators capture the handle at construction time and read it when their thread
/// starts, so the configuration can be installed any time before `deploy()` — which
/// is what lets remote build closures install the shared store on the remote query.
pub type CheckpointHandle = Arc<OnceLock<CheckpointConfig>>;

/// An operator's seat in its deployment's checkpoints, taken once on the
/// operator's thread before its first element.
pub(crate) struct Participant {
    /// The participant's name in the store.
    pub(crate) name: String,
    pub(crate) config: CheckpointConfig,
}

impl Participant {
    /// Registers `name` with the checkpoint store when `checkpoints` is filled, and
    /// returns the seat with the snapshot the store restores for it.
    pub(crate) fn join(
        checkpoints: &CheckpointHandle,
        name: &str,
    ) -> Option<(Self, Option<Snapshot>)> {
        let config = checkpoints.get()?.clone();
        config.store.register(name);
        let restored = config.store.restore_snapshot(name);
        let name = name.to_string();
        Some((Participant { name, config }, restored))
    }

    /// Commits the participant's snapshot for `epoch`.
    pub(crate) fn commit(&self, epoch: u64, snapshot: Snapshot) {
        self.config.store.commit(&self.name, epoch, snapshot);
    }
}

/// Retry/backoff policy of [`run_with_recovery`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Maximum number of runs (initial attempt included). Clamped to at least 1.
    pub max_attempts: usize,
    /// Delay between a failure and the next attempt (reconnect backoff).
    pub backoff: std::time::Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            max_attempts: 3,
            backoff: std::time::Duration::from_millis(10),
        }
    }
}

/// Runs a query with automatic recovery: `build` constructs a fresh deployment
/// (attempt number passed in, starting at 0) and returns its [`QueryHandle`] plus
/// whatever per-attempt handles the caller needs back (sinks, collectors). On
/// failure the store's [`begin_recovery`](CheckpointStore::begin_recovery) pins the
/// restore point, the runner backs off, and `build` is invoked again — fresh
/// channels, fresh links (this is the reconnect path for severed remote links).
///
/// Returns the report and handles of the first successful attempt.
///
/// # Errors
/// [`SpeError::RecoveryExhausted`] after `max_attempts` failed runs; build errors
/// propagate immediately.
pub fn run_with_recovery<R, F>(
    store: &Arc<CheckpointStore>,
    config: RecoveryConfig,
    mut build: F,
) -> Result<(QueryReport, R), SpeError>
where
    F: FnMut(usize) -> Result<(QueryHandle, R), SpeError>,
{
    let attempts = config.max_attempts.max(1);
    let mut last_error = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(config.backoff);
            genealog_metrics::Tracer::global().emit(
                "recovery-attempt",
                store.backend().name(),
                match store.restore_epoch() {
                    Some(epoch) => {
                        format!("attempt {attempt} of {attempts}: restoring epoch {epoch}")
                    }
                    None => format!(
                        "attempt {attempt} of {attempts}: no complete epoch, starting fresh"
                    ),
                },
            );
        }
        let (handle, extras) = build(attempt)?;
        match handle.wait() {
            Ok(report) => return Ok((report, extras)),
            Err(error) => {
                store.begin_recovery();
                last_error = Some(error);
            }
        }
    }
    Err(SpeError::RecoveryExhausted {
        attempts,
        last_error: Box::new(last_error.expect("at least one attempt ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrips_bytes_and_inline() {
        let s = Snapshot::u64(42);
        assert_eq!(s.as_u64(), Some(42));
        assert_eq!(s.serialized_len(), 8);
        assert!(s.downcast::<Vec<u8>>().is_none());

        let s = Snapshot::inline(vec![1u8, 2, 3]);
        assert_eq!(*s.downcast::<Vec<u8>>().unwrap(), vec![1, 2, 3]);
        assert!(s.as_bytes().is_none());
        assert_eq!(s.serialized_len(), 0);
    }

    #[test]
    fn complete_epoch_requires_every_participant() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.register("agg");
        store.commit("src", 0, Snapshot::u64(10));
        assert_eq!(store.latest_complete_epoch(), None);
        store.commit("agg", 0, Snapshot::bytes(vec![]));
        assert_eq!(store.latest_complete_epoch(), Some(0));
        store.commit("src", 1, Snapshot::u64(20));
        store.commit("agg", 1, Snapshot::bytes(vec![]));
        store.commit("src", 2, Snapshot::u64(30));
        // Epoch 2 incomplete: latest complete stays 1.
        assert_eq!(store.latest_complete_epoch(), Some(1));
    }

    #[test]
    fn recovery_pins_restore_point_and_drops_incomplete_epochs() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.commit("src", 0, Snapshot::u64(10));
        // `late` joins before `src` commits epoch 1, so epoch 1 cannot
        // complete (and retire epoch 0) without it.
        store.register("late");
        store.commit("src", 1, Snapshot::u64(20));
        store.commit("late", 0, Snapshot::bytes(vec![]));
        assert_eq!(store.begin_recovery(), Some(0));
        assert_eq!(store.restore_epoch(), Some(0));
        assert_eq!(store.restore_snapshot("src").unwrap().as_u64(), Some(10));
        // Epoch 1's snapshot was dropped with the incomplete epoch.
        assert!(store.backend().get("src", 1).is_none());
        assert_eq!(store.recoveries(), 1);
        // Participants re-register on the next attempt.
        store.register("src");
        store.register("late");
        store.commit("src", 1, Snapshot::u64(20));
        store.commit("late", 1, Snapshot::bytes(vec![]));
        assert_eq!(store.latest_complete_epoch(), Some(1));
    }

    #[test]
    fn a_cut_overtaken_by_a_later_complete_cut_is_gone() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.commit("src", 0, Snapshot::u64(10));
        // Epoch 1 completes while `src` is the only participant: epoch 0 is dead.
        store.commit("src", 1, Snapshot::u64(20));
        assert!(store.backend().get("src", 0).is_none());
        store.register("late");
        store.commit("late", 0, Snapshot::bytes(vec![]));
        // Epoch 1 lacks `late` and epoch 0 lacks `src`: no cut is complete, so
        // recovery starts from scratch.
        assert_eq!(store.begin_recovery(), None);
        assert!(store.restore_snapshot("src").is_none());
        assert!(store.participants().is_empty());
    }

    #[test]
    fn a_complete_epoch_retires_every_older_commit_snapshot_and_start_time() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.register("sink");
        for epoch in 0..50u64 {
            store.commit("src", epoch, Snapshot::u64(epoch));
            assert!(store.backend().snapshot_count() <= 3, "epoch {epoch}");
            store.commit("sink", epoch, Snapshot::bytes(vec![]));
            assert_eq!(store.backend().snapshot_count(), 2, "epoch {epoch}");
        }
        assert_eq!(store.latest_complete_epoch(), Some(49));
        // A participant that joined after the cut re-opens an epoch the cut
        // subsumed; the next complete cut drops its record and start time too.
        store.register("late");
        store.commit("late", 3, Snapshot::bytes(vec![]));
        for participant in ["src", "sink", "late"] {
            store.commit(participant, 50, Snapshot::u64(50));
        }
        let state = store.state.lock();
        assert_eq!(state.commits.keys().copied().collect::<Vec<_>>(), [50]);
        assert!(state.epoch_started.is_empty());
        drop(state);
        assert_eq!(store.backend().snapshot_count(), 3);
    }

    #[test]
    fn out_of_order_completions_retire_below_the_greater_cut_only() {
        let backend = InMemoryBackend::new();
        for epoch in 3..=6 {
            backend.put("agg", epoch, Snapshot::u64(epoch));
        }
        // Two cuts completing back to back: the greater one arrives first.
        backend.note_complete_epoch(5);
        backend.note_complete_epoch(4);
        assert!(backend.get("agg", 4).is_none());
        assert_eq!(backend.get("agg", 5).unwrap().as_u64(), Some(5));
        assert_eq!(backend.get("agg", 6).unwrap().as_u64(), Some(6));
        assert_eq!(backend.snapshot_count(), 2);
    }

    #[test]
    fn a_source_racing_ahead_after_recovery_completes_nothing_alone() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.register("sink");
        for epoch in 0..2u64 {
            store.commit("src", epoch, Snapshot::u64(epoch * 10));
            store.commit("sink", epoch, Snapshot::u64(epoch));
        }
        store.commit("src", 2, Snapshot::u64(20));
        assert_eq!(store.begin_recovery(), Some(1));
        // The next attempt waits for everyone who committed the restored cut.
        assert_eq!(store.participants(), ["sink", "src"]);
        // The restarted source rejoins and runs two epochs ahead of the sink …
        store.register("src");
        assert_eq!(store.restore_snapshot("src").unwrap().as_u64(), Some(10));
        store.commit("src", 2, Snapshot::u64(20));
        store.commit("src", 3, Snapshot::u64(30));
        // … without completing either, so the sink's restore snapshot survives.
        assert_eq!(store.latest_complete_epoch(), Some(1));
        store.register("sink");
        assert_eq!(store.restore_snapshot("sink").unwrap().as_u64(), Some(1));
        store.commit("sink", 2, Snapshot::u64(2));
        assert_eq!(store.latest_complete_epoch(), Some(2));
        assert!(store.backend().get("sink", 1).is_none());
    }

    #[test]
    fn commit_latency_after_recovery_excludes_the_failed_attempt() {
        const BACKOFF: std::time::Duration = std::time::Duration::from_millis(50);
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.register("sink");
        store.commit("src", 0, Snapshot::u64(0));
        store.commit("sink", 0, Snapshot::u64(0));
        // Epoch 1 starts, then the attempt fails before the sink commits it.
        store.commit("src", 1, Snapshot::u64(10));
        assert_eq!(store.begin_recovery(), Some(0));
        assert!(store.state.lock().epoch_started.is_empty());
        std::thread::sleep(BACKOFF);
        store.register("src");
        store.register("sink");
        store.commit("src", 1, Snapshot::u64(10));
        store.commit("sink", 1, Snapshot::u64(1));
        let latency = store
            .last_epoch_commit_latency_ns()
            .expect("epoch 1 completed");
        assert!(
            latency < BACKOFF.as_nanos() as u64,
            "the re-committed epoch's latency ({latency} ns) must not include the backoff"
        );
    }

    /// An in-memory backend that calls `inside_put` from within every `put`,
    /// before the snapshot is stored: the seam the lock-scope tests block on.
    struct HookedBackend<F> {
        inner: InMemoryBackend,
        inside_put: F,
    }

    impl<F> fmt::Debug for HookedBackend<F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("HookedBackend")
        }
    }

    impl<F: Fn(&str, u64) + Send + Sync> StateBackend for HookedBackend<F> {
        fn name(&self) -> &'static str {
            "hooked"
        }
        fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
            (self.inside_put)(participant, epoch);
            self.inner.put(participant, epoch, snapshot);
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
    }

    fn hooked<F: Fn(&str, u64) + Send + Sync + 'static>(inside_put: F) -> Arc<CheckpointStore> {
        CheckpointStore::new(Arc::new(HookedBackend {
            inner: InMemoryBackend::new(),
            inside_put,
        }))
    }

    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(5);

    #[test]
    fn two_participants_are_inside_put_at_the_same_time() {
        // Each `put` waits (up to the deadline) until the other one is inside
        // too. With `put` under the store-wide mutex the second commit could
        // not get there before the first one gave up.
        let inside = Arc::new((std::sync::Mutex::new(0usize), std::sync::Condvar::new()));
        let met = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let store = {
            let (inside, met) = (Arc::clone(&inside), Arc::clone(&met));
            hooked(move |_, _| {
                let (count, arrived) = &*inside;
                let mut count = count.lock().unwrap();
                *count += 1;
                arrived.notify_all();
                let (_count, wait) = arrived
                    .wait_timeout_while(count, DEADLINE, |count| *count < 2)
                    .unwrap();
                if !wait.timed_out() {
                    met.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            })
        };
        store.register("agg[0]");
        store.register("agg[1]");
        std::thread::scope(|scope| {
            for participant in ["agg[0]", "agg[1]"] {
                let store = &store;
                scope.spawn(move || store.commit(participant, 0, Snapshot::u64(1)));
            }
        });
        assert_eq!(
            met.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "both commits must be inside `put` together"
        );
        assert_eq!(store.latest_complete_epoch(), Some(0));
    }

    #[test]
    fn a_fence_raised_while_a_put_is_in_flight_leaves_that_commit_uncounted() {
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let store = hooked(move |_, epoch| {
            if epoch == 1 {
                entered_tx.send(()).unwrap();
                // Held inside `put` until the test has raised the fence.
                let _ = release_rx.lock().unwrap().recv_timeout(DEADLINE);
            }
        });
        store.register("agg");
        store.commit("agg", 0, Snapshot::u64(10));
        assert_eq!(store.latest_complete_epoch(), Some(0));

        std::thread::scope(|scope| {
            let committer = scope.spawn(|| store.commit("agg", 1, Snapshot::u64(20)));
            entered_rx.recv_timeout(DEADLINE).expect("put entered");
            // The fence does not wait for the put: it is raised while the
            // snapshot is still on its way into the backend.
            store.fence();
            release_tx.send(()).unwrap();
            committer.join().unwrap();
        });

        // The commit lost the race: epoch 1 is not counted …
        assert_eq!(store.latest_complete_epoch(), Some(0));
        // … though its snapshot did reach the backend, as an orphan …
        assert_eq!(store.backend().get("agg", 1).unwrap().as_u64(), Some(20));
        // … which recovery drops with the rest of the incomplete epochs.
        assert_eq!(store.begin_recovery(), Some(0));
        assert!(store.backend().get("agg", 1).is_none());
        assert_eq!(store.restore_snapshot("agg").unwrap().as_u64(), Some(10));
    }

    #[test]
    fn recovery_without_any_complete_epoch_starts_fresh() {
        let store = CheckpointStore::in_memory();
        store.register("src");
        store.register("agg");
        store.commit("src", 0, Snapshot::u64(10));
        assert_eq!(store.begin_recovery(), None);
        assert_eq!(store.restore_epoch(), None);
        assert!(store.restore_snapshot("src").is_none());
    }

    #[test]
    fn run_with_recovery_retries_until_success() {
        let store = CheckpointStore::in_memory();
        let mut seen = Vec::new();
        let result = run_with_recovery(&store, RecoveryConfig::default(), |attempt| {
            seen.push(attempt);
            // Build a trivial query that succeeds only on the second attempt.
            let mut q = crate::query::Query::new(crate::provenance::NoProvenance);
            let src = q.source(
                "s",
                crate::operator::source::VecSource::with_period(vec![1i64], 1_000),
            );
            if attempt == 0 {
                let boom = q.map_one("boom", src, |_| -> i64 { panic!("injected") });
                q.discard(boom);
            } else {
                q.discard(src);
            }
            Ok((q.deploy()?, attempt))
        });
        let (_, winning_attempt) = result.unwrap();
        assert_eq!(winning_attempt, 1);
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(store.recoveries(), 1);
    }

    #[test]
    fn run_with_recovery_gives_up_after_max_attempts() {
        let store = CheckpointStore::in_memory();
        let config = RecoveryConfig {
            max_attempts: 2,
            backoff: std::time::Duration::from_millis(1),
        };
        let result: Result<(QueryReport, ()), SpeError> =
            run_with_recovery(&store, config, |_attempt| {
                let mut q = crate::query::Query::new(crate::provenance::NoProvenance);
                let src = q.source(
                    "s",
                    crate::operator::source::VecSource::with_period(vec![1i64], 1_000),
                );
                let boom = q.map_one("boom", src, |_| -> i64 { panic!("always") });
                q.discard(boom);
                Ok((q.deploy()?, ()))
            });
        match result {
            Err(SpeError::RecoveryExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        assert_eq!(store.recoveries(), 2);
    }
}
