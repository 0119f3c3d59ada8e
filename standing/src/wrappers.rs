//! The benchmark's probes on the engine's public seams: the source generator,
//! the state backend and the shard transport. Each measures a layer from outside;
//! none changes what flows through it.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genealog_distributed::{FrameSink, ShardTransport, ShardWiring};
use genealog_spe::operator::source::SourceGenerator;
use genealog_spe::state::{Snapshot, StateBackend};
use genealog_spe::{SpeError, Timestamp};

use crate::trace::{Recorder, SpanId};

/// Where the spans of one part of a run hang: the recorder (possibly disabled),
/// the parent span and the run id. Owned, so wrappers can carry it onto engine
/// threads.
#[derive(Debug, Clone)]
pub struct SharedSpanCtx {
    recorder: Arc<Recorder>,
    parent: Option<SpanId>,
    run: u32,
}

impl SharedSpanCtx {
    /// Binds a recorder to one run's parent span.
    pub fn new(recorder: Arc<Recorder>, parent: Option<SpanId>, run: u32) -> Self {
        SharedSpanCtx {
            recorder,
            parent,
            run,
        }
    }

    /// Records a finished span under the run.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.recorder
            .record(name, self.parent, self.run, start, end);
    }
}

// ---------------------------------------------------------------------------
// Source: open-loop schedule lateness
// ---------------------------------------------------------------------------

/// Lateness samples of a paced source, published when the generator ends.
#[derive(Debug, Default)]
pub struct LagLog {
    samples_us: Mutex<Vec<u32>>,
}

impl LagLog {
    /// A fresh, shareable log.
    pub fn new() -> Arc<Self> {
        Arc::new(LagLog::default())
    }

    /// The recorded lateness samples, in microseconds.
    pub fn samples_us(&self) -> Vec<u32> {
        self.samples_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Record one lateness sample out of this many calls: often enough for a p95 over
/// a run of any length, rare enough to cost the source thread nothing.
const LAG_SAMPLE_EVERY: u64 = 64;

/// A [`SourceGenerator`] wrapper that, for a paced (open-loop) run, records how
/// late the engine asked for each tuple against the schedule: call time minus the
/// tuple's due time, clamped at zero. A back-pressured source falls behind its
/// schedule and shows here before it shows anywhere else.
#[derive(Debug)]
pub struct Scheduled<G> {
    inner: G,
    /// Tuples per second of the schedule; `None` for max-rate runs.
    rate: Option<u64>,
    started: Option<Instant>,
    calls: u64,
    local: Vec<u32>,
    log: Arc<LagLog>,
}

impl<G> Scheduled<G> {
    /// Wraps `inner`; `rate` is the paced schedule, if any.
    pub fn new(inner: G, rate: Option<u64>, log: Arc<LagLog>) -> Self {
        Scheduled {
            inner,
            rate,
            started: None,
            calls: 0,
            local: Vec::new(),
            log,
        }
    }
}

impl<G: SourceGenerator> SourceGenerator for Scheduled<G> {
    type Item = G::Item;

    fn next_tuple(&mut self) -> Option<(Timestamp, G::Item)> {
        if let Some(rate) = self.rate {
            if self.calls.is_multiple_of(LAG_SAMPLE_EVERY) {
                let now = Instant::now();
                let started = *self.started.get_or_insert(now);
                let due_us = self.calls.saturating_mul(1_000_000) / rate.max(1);
                let late = (now - started).as_micros() as u64;
                self.local
                    .push(late.saturating_sub(due_us).min(u64::from(u32::MAX)) as u32);
            }
            self.calls += 1;
        }
        self.inner.next_tuple()
    }
}

impl<G> Drop for Scheduled<G> {
    fn drop(&mut self) {
        // The engine drops the generator when the source thread ends, whether the
        // stream ran out or the query was stopped.
        if let Ok(mut samples) = self.log.samples_us.lock() {
            samples.append(&mut self.local);
        }
    }
}

// ---------------------------------------------------------------------------
// State backend: put timing, snapshot sizes, epoch completion
// ---------------------------------------------------------------------------

/// What the backend wrapper saw during one run.
#[derive(Debug, Default)]
pub struct StoreLog {
    puts: AtomicU64,
    snapshot_bytes: AtomicU64,
    put_ns: Mutex<Vec<u64>>,
    epoch_commit_ns: Mutex<Vec<u64>>,
    epoch_first_put: Mutex<HashMap<u64, Instant>>,
    participants: Mutex<BTreeSet<String>>,
}

impl StoreLog {
    /// Number of `put` calls.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Serialised bytes handed to `put` (inline snapshots count 0).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }

    /// Duration of every `put`, in nanoseconds.
    pub fn put_ns(&self) -> Vec<u64> {
        self.put_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// First-put-to-complete latency of every completed epoch, in nanoseconds.
    pub fn epoch_commit_ns(&self) -> Vec<u64> {
        self.epoch_commit_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Every participant that committed at least once.
    pub fn participants(&self) -> Vec<String> {
        self.participants
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// A [`StateBackend`] that forwards to `inner` and logs each call.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn StateBackend>,
    log: Arc<StoreLog>,
    spans: SharedSpanCtx,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StateBackend>, log: Arc<StoreLog>, spans: SharedSpanCtx) -> Self {
        TimedBackend { inner, log, spans }
    }
}

impl StateBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        let bytes = snapshot.serialized_len() as u64;
        let start = Instant::now();
        self.inner.put(participant, epoch, snapshot);
        let end = Instant::now();
        self.spans.record("store.put", start, end);
        self.log.puts.fetch_add(1, Ordering::Relaxed);
        self.log.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Ok(mut put_ns) = self.log.put_ns.lock() {
            put_ns.push((end - start).as_nanos() as u64);
        }
        if let Ok(mut first) = self.log.epoch_first_put.lock() {
            first.entry(epoch).or_insert(start);
        }
        if let Ok(mut participants) = self.log.participants.lock() {
            if !participants.contains(participant) {
                participants.insert(participant.to_string());
            }
        }
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

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn note_complete_epoch(&self, epoch: u64) {
        self.inner.note_complete_epoch(epoch);
        let done = Instant::now();
        let first = self
            .log
            .epoch_first_put
            .lock()
            .ok()
            .and_then(|mut first| first.remove(&epoch));
        if let (Some(first), Ok(mut commits)) = (first, self.log.epoch_commit_ns.lock()) {
            commits.push((done - first).as_nanos() as u64);
        }
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
}

// ---------------------------------------------------------------------------
// Shard transport: per-frame send timing
// ---------------------------------------------------------------------------

/// Durations of every `send_frame` call of one run, in nanoseconds.
#[derive(Debug, Default)]
pub struct SendLog {
    send_ns: Mutex<Vec<u64>>,
}

impl SendLog {
    /// Duration of every send, in nanoseconds.
    pub fn send_ns(&self) -> Vec<u64> {
        self.send_ns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

struct TimedSink {
    inner: Box<dyn FrameSink>,
    log: Arc<SendLog>,
    spans: SharedSpanCtx,
}

impl FrameSink for TimedSink {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        let start = Instant::now();
        let delivered = self.inner.send_frame(frame);
        let end = Instant::now();
        self.spans.record("distributed.send_frame", start, end);
        if let Ok(mut send_ns) = self.log.send_ns.lock() {
            send_ns.push((end - start).as_nanos() as u64);
        }
        delivered
    }
}

/// A [`ShardTransport`] that times every frame sent over the links `inner` builds.
pub struct TimedTransport<'a> {
    inner: &'a dyn ShardTransport,
    log: Arc<SendLog>,
    spans: SharedSpanCtx,
}

impl<'a> TimedTransport<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn ShardTransport, log: Arc<SendLog>, spans: SharedSpanCtx) -> Self {
        TimedTransport { inner, log, spans }
    }

    fn timed(&self, sink: Box<dyn FrameSink>) -> Box<dyn FrameSink> {
        Box::new(TimedSink {
            inner: sink,
            log: Arc::clone(&self.log),
            spans: self.spans.clone(),
        })
    }
}

impl ShardTransport for TimedTransport<'_> {
    fn shard_links(&self, shard: usize, back_channels: usize) -> Result<ShardWiring, SpeError> {
        let mut wiring = self.inner.shard_links(shard, back_channels)?;
        wiring.forward_tx = self.timed(wiring.forward_tx);
        wiring.back_txs = wiring
            .back_txs
            .into_iter()
            .map(|tx| self.timed(tx))
            .collect();
        Ok(wiring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::operator::source::VecSource;
    use genealog_spe::state::InMemoryBackend;

    #[test]
    fn scheduled_source_reports_lateness_only_when_paced() {
        let log = LagLog::new();
        let mut paced = Scheduled::new(
            VecSource::with_period((0..200i64).collect(), 1),
            Some(1_000_000_000),
            Arc::clone(&log),
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut seen = 0;
        while paced.next_tuple().is_some() {
            seen += 1;
        }
        drop(paced);
        assert_eq!(seen, 200);
        // 201 calls, one sample every 64: calls 0, 64, 128, 192.
        assert_eq!(log.samples_us().len(), 4);

        let log = LagLog::new();
        let mut unpaced = Scheduled::new(
            VecSource::with_period(vec![1i64, 2, 3], 1),
            None,
            Arc::clone(&log),
        );
        while unpaced.next_tuple().is_some() {}
        drop(unpaced);
        assert!(log.samples_us().is_empty());
    }

    #[test]
    fn timed_backend_forwards_and_logs() {
        let recorder = Arc::new(Recorder::enabled());
        let log = Arc::new(StoreLog::default());
        let inner: Arc<dyn StateBackend> = Arc::new(InMemoryBackend::new());
        let backend = TimedBackend::new(
            Arc::clone(&inner),
            Arc::clone(&log),
            SharedSpanCtx::new(Arc::clone(&recorder), None, 1),
        );
        backend.put("agg", 1, Snapshot::bytes(vec![0; 10]));
        backend.put("sink", 1, Snapshot::bytes(Vec::new()));
        backend.note_complete_epoch(1);
        assert_eq!(log.puts(), 2);
        assert_eq!(log.snapshot_bytes(), 10);
        assert_eq!(log.put_ns().len(), 2);
        assert_eq!(log.epoch_commit_ns().len(), 1);
        assert_eq!(
            log.participants(),
            vec!["agg".to_string(), "sink".to_string()]
        );
        assert_eq!(inner.snapshot_count(), 2, "puts reach the wrapped backend");
        assert!(backend.get("agg", 1).is_some());
        assert_eq!(recorder.durations_ns("store.put").len(), 2);
    }
}
