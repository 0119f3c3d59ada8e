//! The log-structured durable [`StateBackend`]: segment log + manifest + index.
//!
//! Commit ordering is the crash-safety contract:
//!
//! 1. **write** — the snapshot record is appended to the active segment;
//! 2. **fsync** — the segment is `fdatasync`ed before `put` returns, so by the
//!    time the operator forwards its barrier downstream, the snapshot is on
//!    disk (a worker that dies after forwarding can always re-serve what the
//!    origin believes it committed);
//! 3. **manifest flip** — when the [`CheckpointStore`](genealog_spe::state::CheckpointStore)
//!    completes an epoch it calls [`StateBackend::note_complete_epoch`], which
//!    atomically replaces the manifest pinning that epoch as the recoverable cut.
//!
//! The same call retires the snapshots the cut subsumed: the `index` and the
//! inline side map keep only the retained cut and the epochs after it, so the
//! store's memory stays bounded however long the query runs. Only memory is
//! reclaimed — the disk still gains every epoch's records (one segment per
//! epoch once a container outgrows `segment_bytes`) until a compaction rewrites
//! what the index holds, and reopening a directory replays every record of its
//! live generation. A [`ScopedBackend`] pins the manifest but never retires:
//! its engine's completions are local, and the origin may still restore its
//! workers to an older cut.
//!
//! A `put` does each byte's work once and holds the store's mutex only for
//! bookkeeping. The snapshot arrives as an owned `Vec`; it is never cloned: the
//! record frame is assembled in one buffer ([`write_frame`] — an incremental
//! delta is streamed straight into it by [`incremental::diff_into`] and
//! checksummed only once it is known to be smaller than the full body, which is
//! otherwise copied once; the buffer is sized for the full body up front, so
//! neither outcome regrows it), and afterwards the same `Arc` serves as the
//! `index` entry and as the participant's chain base. The diff and the CRC run
//! **unlocked** against a shared reference to the chain base; the mutex is
//! taken to look that base up, to append the frame (a page-cache copy — it is
//! what orders frames in the log) and to publish the snapshot in the index; the
//! `fdatasync` in between runs unlocked on a shared handle of the segment file.
//! Concurrent puts of different participants therefore overlap their diff,
//! checksum and fsync.
//!
//! An fsync covers every frame written to *its file* before it was issued, so
//! within one segment a `put` that has returned is durable together with every
//! frame in front of it. Across segments the roll keeps that true: the `put`
//! whose frame fills a segment fsyncs it **under the mutex, before the next
//! segment exists** (once per `segment_bytes`), so no frame can land — let
//! alone be acknowledged — in segment N+1 while segment N still has an
//! unsynced tail. That is the property the torn-tail scan relies on (it stops
//! at the first torn segment and never looks behind it), and why
//! [`flush`](DurableBackend::flush) only needs to sync the active segment.
//! Compaction swaps the whole log out from under the appenders, so it alone is
//! exclusive: puts hold the `log` gate shared from look-up to publish,
//! `remove_after` holds it exclusively.
//!
//! Opening a directory replays the live-generation segments through the
//! torn-tail-tolerant [`scan`](crate::segment::scan()): every record before the
//! first torn or corrupt frame is restored, the tail is rejected, and appends
//! continue into a **fresh** segment so damaged files are never extended.
//!
//! `remove_after` triggers compaction: live snapshots are rewritten as full
//! records into a new generation of segments, the manifest flip commits the
//! switch, and the old generation is deleted (stale files from a compaction
//! that crashed mid-way are swept on the next open). Rewriting fulls resets
//! every incremental chain, so recovery replays at most one delta chain per
//! participant within one generation.
//!
//! Inline (`Snapshot::Inline`) snapshots are kept in a volatile side map: they
//! are process-local `Arc` shares by definition and cannot survive the process.
//! The analyzer's GL014 diagnostic and the [`WindowPersister`](genealog_spe::persist::WindowPersister)
//! registry exist precisely to keep cross-process state out of that map.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use genealog_metrics::{Histogram, MetricsRegistry};
use genealog_spe::persist::is_container;
use genealog_spe::state::{Snapshot, StateBackend};
use parking_lot::{Mutex, RwLock};

use crate::incremental;
use crate::manifest::Manifest;
use crate::segment::{scan, write_frame, Record, RecordKind, FRAME_OVERHEAD};

/// Tuning knobs of a [`DurableBackend`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Every `rebase_interval`-th window-snapshot container of a participant is
    /// a full record; the ones between are diffs against the previous epoch
    /// where the diff is smaller, which bounds the delta chain recovery must
    /// replay. 1 (the default) writes full records only; above 1 the store is
    /// *incremental*. Clamped to at least 1.
    pub rebase_interval: u64,
    /// Roll to a new segment file once the active one exceeds this many bytes.
    pub segment_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            rebase_interval: 1,
            segment_bytes: 1 << 20,
        }
    }
}

impl StoreOptions {
    /// The default options with incremental snapshots enabled: a full rebase
    /// record every fourth snapshot.
    pub fn incremental() -> Self {
        StoreOptions {
            rebase_interval: 4,
            ..StoreOptions::default()
        }
    }
}

/// Per-participant incremental diff state: the last committed container —
/// the very buffer the index holds for that epoch.
struct Chain {
    epoch: u64,
    container: Arc<Vec<u8>>,
    since_rebase: u64,
}

/// Full snapshot bytes by `(participant, epoch)`.
type Index = HashMap<(String, u64), Arc<Vec<u8>>>;

/// The latency histograms `put` records into once a registry asked for them.
struct PutHistograms {
    put: Arc<Histogram>,
    fsync: Arc<Histogram>,
}

struct Inner {
    manifest: Manifest,
    /// Shared so a `put` can fsync the file it appended to after unlocking.
    active: Arc<File>,
    active_id: u64,
    active_len: u64,
    /// (participant, epoch) -> full snapshot bytes (deltas are reconstructed).
    index: Index,
    /// Volatile side map for process-local inline snapshots.
    inline: HashMap<(String, u64), Snapshot>,
    chains: HashMap<String, Chain>,
    /// Whether the opening scan hit (and cleanly rejected) a torn tail.
    torn_tail_recovered: bool,
    /// Whether the previous process flushed cleanly before exiting.
    previous_clean_shutdown: bool,
}

/// A log-structured durable checkpoint store rooted at one directory.
pub struct DurableBackend {
    dir: PathBuf,
    options: StoreOptions,
    /// Held shared by every `put` from its chain look-up to its index insert,
    /// exclusively by compaction, which replaces the log they append to.
    log: RwLock<()>,
    inner: Mutex<Inner>,
    bytes_written: AtomicU64,
    records: AtomicU64,
    compactions: AtomicU64,
    segments: AtomicU64,
    fsyncs: AtomicU64,
    histograms: Mutex<Option<PutHistograms>>,
}

impl fmt::Debug for DurableBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableBackend")
            .field("dir", &self.dir)
            .field("incremental", &(self.options.rebase_interval > 1))
            .field("bytes_written", &self.bytes_written.load(Ordering::Relaxed))
            .field("segments", &self.segments.load(Ordering::Relaxed))
            .finish()
    }
}

fn segment_name(generation: u64, id: u64) -> String {
    format!("seg-{generation:06}-{id:06}.log")
}

fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    let (generation, id) = rest.split_once('-')?;
    Some((generation.parse().ok()?, id.parse().ok()?))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

impl DurableBackend {
    /// Opens (or creates) a store directory with default options.
    ///
    /// # Errors
    /// Propagates I/O failures creating, scanning or writing the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Arc<Self>> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) a store directory.
    ///
    /// Replays the live generation's segments (tolerating a torn tail), sweeps
    /// segment files left behind by an interrupted compaction, and starts a
    /// fresh active segment for this process's appends.
    ///
    /// # Errors
    /// Propagates I/O failures creating, scanning or writing the directory.
    pub fn open_with(dir: impl Into<PathBuf>, mut options: StoreOptions) -> io::Result<Arc<Self>> {
        options.rebase_interval = options.rebase_interval.max(1);
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut manifest = Manifest::load(&dir).unwrap_or_default();
        let previous_clean_shutdown = manifest.clean_shutdown;

        let mut live: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((generation, id)) = parse_segment_name(name) else {
                continue;
            };
            if generation == manifest.generation {
                live.push((id, entry.path()));
            } else {
                // A compaction that died between its manifest flip and the
                // deletes (or before the flip) leaves another generation's
                // files behind; only the manifest's generation is live.
                let _ = fs::remove_file(entry.path());
            }
        }
        live.sort();

        let mut index = HashMap::new();
        let mut chains = HashMap::new();
        let mut torn_tail_recovered = false;
        'files: for (_, path) in &live {
            let bytes = fs::read(path)?;
            let outcome = scan(&bytes);
            for record in outcome.records {
                if !replay(record, &mut index, &mut chains) {
                    torn_tail_recovered = true;
                    break 'files;
                }
            }
            if outcome.torn {
                torn_tail_recovered = true;
                break;
            }
        }

        // Appends go to a fresh segment — a damaged tail is never extended.
        let active_id = live.last().map_or(0, |(id, _)| id + 1);
        let active_path = dir.join(segment_name(manifest.generation, active_id));
        let active = Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(&active_path)?,
        );
        sync_dir(&dir)?;
        manifest.clean_shutdown = false;
        manifest.store(&dir)?;

        let segments = live.len() as u64 + 1;
        Ok(Arc::new(DurableBackend {
            dir,
            options,
            log: RwLock::new(()),
            inner: Mutex::new(Inner {
                manifest,
                active,
                active_id,
                active_len: 0,
                index,
                inline: HashMap::new(),
                chains,
                torn_tail_recovered,
                previous_clean_shutdown,
            }),
            bytes_written: AtomicU64::new(0),
            records: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            segments: AtomicU64::new(segments),
            fsyncs: AtomicU64::new(0),
            histograms: Mutex::new(None),
        }))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The epoch the manifest pins as the recoverable cut, if any.
    pub fn latest_complete_epoch(&self) -> Option<u64> {
        self.inner.lock().manifest.latest_complete
    }

    /// Whether the opening scan hit (and cleanly rejected) a torn tail.
    pub fn torn_tail_recovered(&self) -> bool {
        self.inner.lock().torn_tail_recovered
    }

    /// Whether the previous process flushed the manifest on a clean shutdown.
    pub fn previous_clean_shutdown(&self) -> bool {
        self.inner.lock().previous_clean_shutdown
    }

    /// Number of compactions performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Number of records appended since open.
    pub fn records_appended(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Number of live segment files (including the active one).
    pub fn segment_count(&self) -> u64 {
        self.segments.load(Ordering::Relaxed)
    }

    /// Flushes the active segment and marks a clean shutdown in the manifest
    /// (what `spe-node` does on SIGTERM).
    ///
    /// # Errors
    /// Propagates I/O failures; the store stays usable.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.active.sync_data()?;
        inner.manifest.clean_shutdown = true;
        inner.manifest.store(&self.dir)
    }

    /// A one-line JSON summary for the control endpoint's `/store` route.
    pub fn status_json(&self) -> String {
        let inner = self.inner.lock();
        let latest = inner
            .manifest
            .latest_complete
            .map_or("null".to_string(), |e| e.to_string());
        format!(
            "{{\"dir\":{},\"incremental\":{},\"segments\":{},\"records\":{},\"bytes_written\":{},\"compactions\":{},\"fsyncs\":{},\"snapshots\":{},\"latest_complete_epoch\":{},\"torn_tail_recovered\":{},\"previous_clean_shutdown\":{}}}",
            genealog_control::json::string(&self.dir.display().to_string()),
            self.options.rebase_interval > 1,
            self.segments.load(Ordering::Relaxed),
            self.records.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
            self.compactions.load(Ordering::Relaxed),
            self.fsyncs.load(Ordering::Relaxed),
            inner.index.len() + inner.inline.len(),
            latest,
            inner.torn_tail_recovered,
            inner.previous_clean_shutdown,
        )
    }

    /// Registers the store's `genealog_checkpoint_store_*` metrics on a
    /// registry: bytes written, segment/record/compaction counters and the two
    /// latency histograms `put` records into from then on — one sample per
    /// byte-snapshot `put` (`_put_ns`, look-up to publish) and per `fdatasync`
    /// inside it (`_fsync_ns`).
    pub fn publish_metrics(self: &Arc<Self>, registry: &MetricsRegistry) {
        let me = Arc::clone(self);
        registry.counter_fn(
            "genealog_checkpoint_store_bytes_written_total",
            &[],
            Arc::new(move || me.bytes_written.load(Ordering::Relaxed)),
        );
        let me = Arc::clone(self);
        registry.gauge_fn(
            "genealog_checkpoint_store_segments",
            &[],
            Arc::new(move || me.segments.load(Ordering::Relaxed)),
        );
        let me = Arc::clone(self);
        registry.counter_fn(
            "genealog_checkpoint_store_compactions_total",
            &[],
            Arc::new(move || me.compactions.load(Ordering::Relaxed)),
        );
        let me = Arc::clone(self);
        registry.counter_fn(
            "genealog_checkpoint_store_records_total",
            &[],
            Arc::new(move || me.records.load(Ordering::Relaxed)),
        );
        *self.histograms.lock() = Some(PutHistograms {
            put: registry.histogram("genealog_checkpoint_store_put_ns", &[]),
            fsync: registry.histogram("genealog_checkpoint_store_fsync_ns", &[]),
        });
    }

    /// The participant's last committed container as `(epoch, since_rebase,
    /// bytes)`, when `epoch` may be stored as a delta against it: the chain is
    /// older than `epoch` and not yet due for a full rebase.
    fn diff_base(&self, participant: &str, epoch: u64) -> Option<(u64, u64, Arc<Vec<u8>>)> {
        let inner = self.inner.lock();
        let chain = inner.chains.get(participant)?;
        (epoch > chain.epoch && chain.since_rebase + 1 < self.options.rebase_interval).then(|| {
            (
                chain.epoch,
                chain.since_rebase,
                Arc::clone(&chain.container),
            )
        })
    }

    /// Appends one frame to the log and makes it durable. The mutex covers the
    /// write; the `fdatasync` runs on a shared handle after unlocking, so it
    /// overlaps other puts' work — except for the frame that fills its segment,
    /// which [`roll`](Self::roll) fsyncs before anything can follow it.
    fn append(&self, frame: &[u8]) -> io::Result<()> {
        let unsynced = {
            let mut inner = self.inner.lock();
            (&*inner.active).write_all(frame)?;
            inner.active_len += frame.len() as u64;
            if inner.active_len >= self.options.segment_bytes {
                self.roll(&mut inner)?;
                None
            } else {
                Some(Arc::clone(&inner.active))
            }
        };
        if let Some(file) = unsynced {
            self.sync(&file)?;
        }
        self.bytes_written
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// One counted, timed `fdatasync` of a segment file.
    fn sync(&self, file: &File) -> io::Result<()> {
        let started = Instant::now();
        file.sync_data()?;
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if let Some(histograms) = self.histograms.lock().as_ref() {
            histograms.fsync.record(elapsed_ns);
        }
        Ok(())
    }

    /// Makes the active segment durable, then directs further appends to a
    /// fresh one. Called under the mutex: every earlier segment is on disk
    /// before a frame can be written to the next, so a torn tail can only ever
    /// be the tail of the *last* segment that holds acknowledged frames.
    fn roll(&self, inner: &mut Inner) -> io::Result<()> {
        self.sync(&inner.active)?;
        inner.active_id += 1;
        let path = self
            .dir
            .join(segment_name(inner.manifest.generation, inner.active_id));
        inner.active = Arc::new(OpenOptions::new().create(true).append(true).open(&path)?);
        sync_dir(&self.dir)?;
        inner.active_len = 0;
        self.segments.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Pins `epoch` in the manifest as the recoverable cut, unless a later one
    /// is pinned already.
    fn pin(&self, inner: &mut Inner, epoch: u64) {
        if inner.manifest.latest_complete.is_none_or(|l| epoch > l) {
            inner.manifest.latest_complete = Some(epoch);
            if let Err(err) = inner.manifest.store(&self.dir) {
                panic!(
                    "checkpoint manifest flip failed in {}: {err}",
                    self.dir.display()
                );
            }
        }
    }

    /// Rewrites the live snapshots as full records into a new segment
    /// generation, flips the manifest (the commit point) and deletes the old
    /// generation. Incremental chains reset: the new generation starts from
    /// full rebases.
    fn compact(&self, inner: &mut Inner) -> io::Result<()> {
        let generation = inner.manifest.generation + 1;
        let mut live: Vec<_> = inner.index.iter().collect();
        live.sort_by_key(|(key, _)| *key);

        let mut id = 0u64;
        let mut len = 0u64;
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(segment_name(generation, id)))?;
        let mut frame = Vec::new();
        for ((participant, epoch), body) in live {
            frame.clear();
            write_frame(&mut frame, participant, *epoch, RecordKind::Full, |b| {
                b.extend_from_slice(body);
                true
            });
            file.write_all(&frame)?;
            len += frame.len() as u64;
            self.bytes_written
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            if len >= self.options.segment_bytes {
                file.sync_data()?;
                id += 1;
                len = 0;
                file = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(segment_name(generation, id)))?;
            }
        }
        file.sync_data()?;
        sync_dir(&self.dir)?;

        // The manifest flip is what commits the compaction.
        inner.manifest.generation = generation;
        inner.manifest.store(&self.dir)?;

        // Best-effort delete of the superseded generation; leftovers are swept
        // on the next open.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if let Some((g, _)) = parse_segment_name(name) {
                    if g < generation {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }

        // Fresh active segment after the compacted ones.
        inner.active_id = id + 1;
        inner.active = Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(segment_name(generation, inner.active_id)))?,
        );
        sync_dir(&self.dir)?;
        inner.active_len = 0;

        // Chains restart from the newest surviving container per participant.
        inner.chains.clear();
        let mut newest: HashMap<&String, (u64, &Arc<Vec<u8>>)> = HashMap::new();
        for ((participant, epoch), body) in &inner.index {
            if !is_container(body) {
                continue;
            }
            match newest.get(participant) {
                Some((e, _)) if *e >= *epoch => {}
                _ => {
                    newest.insert(participant, (*epoch, body));
                }
            }
        }
        let rebuilt: Vec<(String, Chain)> = newest
            .into_iter()
            .map(|(participant, (epoch, body))| {
                (
                    participant.clone(),
                    Chain {
                        epoch,
                        container: Arc::clone(body),
                        since_rebase: 0,
                    },
                )
            })
            .collect();
        inner.chains.extend(rebuilt);

        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.segments.store(id + 2, Ordering::Relaxed);
        Ok(())
    }
}

/// Replays one scanned record into the index and chains. `false` means the
/// record is inconsistent (a delta without its base) — the scan stops there,
/// exactly like a torn tail.
fn replay(record: Record, index: &mut Index, chains: &mut HashMap<String, Chain>) -> bool {
    match record.kind {
        RecordKind::Full => {
            let body = Arc::new(record.body);
            if is_container(&body) {
                chains.insert(
                    record.participant.clone(),
                    Chain {
                        epoch: record.epoch,
                        container: Arc::clone(&body),
                        since_rebase: 0,
                    },
                );
            }
            index.insert((record.participant, record.epoch), body);
            true
        }
        RecordKind::Delta { base_epoch } => {
            let Some(chain) = chains.get_mut(&record.participant) else {
                return false;
            };
            if chain.epoch != base_epoch {
                return false;
            }
            let Some(full) = incremental::apply(&chain.container, &record.body) else {
                return false;
            };
            let full = Arc::new(full);
            chain.epoch = record.epoch;
            chain.container = Arc::clone(&full);
            chain.since_rebase += 1;
            index.insert((record.participant, record.epoch), full);
            true
        }
    }
}

impl StateBackend for DurableBackend {
    fn name(&self) -> &'static str {
        "durable-log"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        match snapshot {
            inline @ Snapshot::Inline(_) => {
                // Process-local by definition; documented volatile side map.
                self.inner
                    .lock()
                    .inline
                    .insert((participant.to_string(), epoch), inline);
            }
            Snapshot::Bytes(bytes) => {
                let started = Instant::now();
                let _appending = self.log.read();
                let container = is_container(&bytes);
                // The chain base to diff against, shared out of the lock.
                let base = if container {
                    self.diff_base(participant, epoch)
                } else {
                    None
                };

                // One buffer for the whole frame; a full body is the most it holds.
                let mut frame =
                    Vec::with_capacity(FRAME_OVERHEAD + participant.len() + bytes.len());
                let mut since_rebase = 0;
                if let Some((base_epoch, chained, base)) = base {
                    // A delta that is no smaller than the body (or no delta at
                    // all) is withdrawn before it is checksummed.
                    let kind = RecordKind::Delta { base_epoch };
                    if write_frame(&mut frame, participant, epoch, kind, |body| {
                        let at = body.len();
                        incremental::diff_into(&base, base_epoch, &bytes, body).is_ok()
                            && body.len() - at < bytes.len()
                    }) {
                        since_rebase = chained + 1;
                    }
                }
                if frame.is_empty() {
                    write_frame(&mut frame, participant, epoch, RecordKind::Full, |body| {
                        body.extend_from_slice(&bytes);
                        true
                    });
                }
                if let Err(err) = self.append(&frame) {
                    // A lost checkpoint write must not pass silently: failing
                    // the operator thread routes through the normal fence +
                    // recovery path instead of pretending the epoch persisted.
                    panic!(
                        "durable checkpoint append failed in {}: {err}",
                        self.dir.display()
                    );
                }

                // Durable: publish. Index entry and chain base share the buffer.
                let bytes = Arc::new(bytes);
                let mut inner = self.inner.lock();
                if container {
                    inner.chains.insert(
                        participant.to_string(),
                        Chain {
                            epoch,
                            container: Arc::clone(&bytes),
                            since_rebase,
                        },
                    );
                }
                inner.index.insert((participant.to_string(), epoch), bytes);
                drop(inner);
                if let Some(histograms) = self.histograms.lock().as_ref() {
                    histograms.put.record(started.elapsed().as_nanos() as u64);
                }
            }
        }
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        let inner = self.inner.lock();
        let key = (participant.to_string(), epoch);
        if let Some(bytes) = inner.index.get(&key) {
            return Some(Snapshot::Bytes(Vec::clone(bytes)));
        }
        inner.inline.get(&key).cloned()
    }

    fn remove_after(&self, epoch: u64) {
        let _compacting = self.log.write();
        let mut inner = self.inner.lock();
        inner.inline.retain(|(_, e), _| *e <= epoch);
        inner.index.retain(|(_, e), _| *e <= epoch);
        // Completeness is monotone (participants commit epochs in order), so
        // clamping the pinned cut to the removal point stays correct.
        if inner.manifest.latest_complete.is_some_and(|l| l > epoch) {
            inner.manifest.latest_complete = Some(epoch);
        }
        if let Err(err) = self.compact(&mut inner) {
            panic!(
                "checkpoint store compaction failed in {}: {err}",
                self.dir.display()
            );
        }
    }

    fn snapshot_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.index.len() + inner.inline.len()
    }

    fn serialized_bytes(&self) -> usize {
        self.inner.lock().index.values().map(|b| b.len()).sum()
    }

    fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    fn note_complete_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        self.pin(&mut inner, epoch);
        // The chains are the participants' latest containers, never older
        // than a cut they all committed: only the index and side map shrink.
        inner.index.retain(|(_, e), _| *e >= epoch);
        inner.inline.retain(|(_, e), _| *e >= epoch);
    }

    fn is_durable(&self) -> bool {
        true
    }
}

/// A participant-prefixing view of a shared [`DurableBackend`].
///
/// A node hosting several shard engines gives each hosted engine its own
/// `CheckpointStore` over a scope like `shard3/`, all funnelling into the one
/// store directory — participants named `sum` in different engines stay
/// distinct on disk without touching any operator commit path.
#[derive(Debug)]
pub struct ScopedBackend {
    inner: Arc<DurableBackend>,
    scope: String,
}

impl ScopedBackend {
    /// Creates a scope over `inner`; `scope` becomes the participant prefix.
    pub fn new(inner: Arc<DurableBackend>, scope: impl Into<String>) -> Arc<Self> {
        Arc::new(ScopedBackend {
            inner,
            scope: scope.into(),
        })
    }

    fn scoped(&self, participant: &str) -> String {
        format!("{}/{}", self.scope, participant)
    }
}

impl StateBackend for ScopedBackend {
    fn name(&self) -> &'static str {
        "durable-log"
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        self.inner.put(&self.scoped(participant), epoch, snapshot);
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.inner.get(&self.scoped(participant), epoch)
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

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    /// Pins the manifest only. The epoch is complete for this engine alone,
    /// and the origin may restore an older cut (see
    /// [`CheckpointStore::restore_to`](genealog_spe::state::CheckpointStore::restore_to)),
    /// so nothing is retired.
    fn note_complete_epoch(&self, epoch: u64) {
        self.inner.pin(&mut self.inner.inner.lock(), epoch);
    }

    fn is_durable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_json_escapes_the_directory_as_a_json_string() {
        // A control character must become `\u0001`; a combining accent is valid
        // JSON as it is (Rust's `{:?}` would render both as `\u{..}`).
        let name = format!("store-\u{1}-e\u{301}\"-{}", std::process::id());
        let dir = std::env::temp_dir().join(&name);
        let _ = fs::remove_dir_all(&dir);
        let backend = DurableBackend::open(&dir).unwrap();
        let json = backend.status_json();
        let escaped = format!("store-\\u0001-e\u{301}\\\"-{}", std::process::id());
        assert!(json.contains(&escaped), "{json}");
        assert!(json.starts_with("{\"dir\":\""), "{json}");
        assert!(!json.contains("\\u{"), "{json}");
        assert!(json.contains("\"incremental\":false,"), "{json}");
        drop(backend);
        let _ = fs::remove_dir_all(&dir);
    }
}
