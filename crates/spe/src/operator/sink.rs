//! The Sink operator: terminal consumer of a stream.
//!
//! Sinks invoke a user callback for every sink tuple, maintain the latency statistics
//! used by the evaluation (time between the *stimulus* of the latest contributing
//! source tuple and the production of the sink tuple) and optionally collect tuples
//! in memory for inspection by tests and examples.
//!
//! A sink tuple the sink is the last holder of, and whose metadata holds a
//! provenance graph ([`ProvenanceSystem::owns_graph`]), is not dropped here: once
//! the callback returns it goes to the query's reclaimer, and a running Source
//! frees the graph on the thread that allocated it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::channel::StreamReceiver;
use crate::error::SpeError;
use crate::metrics::OpCounters;
use crate::operator::{now_nanos, Operator};
use crate::provenance::ProvenanceSystem;
use crate::reclaim::Reclaimer;
use crate::state::{CheckpointHandle, Snapshot};
use crate::tuple::{Element, GTuple, TupleData};

/// Shared, thread-safe statistics of a Sink operator.
#[derive(Debug, Default)]
pub struct SinkStats {
    tuples: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
}

impl SinkStats {
    /// Creates an empty statistics block.
    pub fn new() -> Arc<Self> {
        Arc::new(SinkStats::default())
    }

    /// Number of sink tuples received so far.
    pub fn tuple_count(&self) -> u64 {
        self.tuples.load(Ordering::Relaxed)
    }

    /// Snapshot of the recorded per-tuple latencies, in nanoseconds.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.latencies_ns.lock().clone()
    }

    /// Mean latency in milliseconds over all received tuples (0 if none).
    pub fn mean_latency_ms(&self) -> f64 {
        let lat = self.latencies_ns.lock();
        if lat.is_empty() {
            return 0.0;
        }
        lat.iter().map(|&ns| ns as f64).sum::<f64>() / lat.len() as f64 / 1e6
    }

    fn record(&self, latency_ns: u64) {
        self.tuples.fetch_add(1, Ordering::Relaxed);
        self.latencies_ns.lock().push(latency_ns);
    }
}

/// Shared buffer of collected tuples.
type SharedTuples<T, M> = Arc<Mutex<Vec<Arc<GTuple<T, M>>>>>;

/// A handle to the tuples collected by [`crate::query::Query::collecting_sink`].
#[derive(Debug)]
pub struct CollectedStream<T, M> {
    tuples: SharedTuples<T, M>,
    stats: Arc<SinkStats>,
}

impl<T, M> Clone for CollectedStream<T, M> {
    fn clone(&self) -> Self {
        CollectedStream {
            tuples: Arc::clone(&self.tuples),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl<T, M> Default for CollectedStream<T, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, M> CollectedStream<T, M> {
    /// Creates an empty collection handle.
    pub fn new() -> Self {
        CollectedStream {
            tuples: Arc::new(Mutex::new(Vec::new())),
            stats: SinkStats::new(),
        }
    }

    /// Snapshot of the collected tuples, in arrival order.
    pub fn tuples(&self) -> Vec<Arc<GTuple<T, M>>> {
        self.tuples.lock().clone()
    }

    /// The collected tuples `keep` accepts, in arrival order — a lookup that copies
    /// only what it was looking for, however much has been collected.
    pub fn select(&self, mut keep: impl FnMut(&GTuple<T, M>) -> bool) -> Vec<Arc<GTuple<T, M>>> {
        self.tuples
            .lock()
            .iter()
            .filter(|t| keep(t))
            .cloned()
            .collect()
    }

    /// Number of collected tuples.
    pub fn len(&self) -> usize {
        self.tuples.lock().len()
    }

    /// True if nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.tuples.lock().is_empty()
    }

    /// The sink statistics (latency, counts) associated with the collection.
    pub fn stats(&self) -> &Arc<SinkStats> {
        &self.stats
    }

    /// Appends a tuple (used by the Sink operator).
    pub fn push(&self, tuple: Arc<GTuple<T, M>>) {
        self.tuples.lock().push(tuple);
    }

    /// Removes and returns all collected tuples.
    pub fn drain(&self) -> Vec<Arc<GTuple<T, M>>> {
        std::mem::take(&mut *self.tuples.lock())
    }

    /// Replaces the collected tuples with a checkpointed prefix (used by the Sink
    /// operator when restoring from an epoch snapshot).
    pub fn restore(&self, tuples: Vec<Arc<GTuple<T, M>>>) {
        *self.tuples.lock() = tuples;
    }
}

/// The Sink operator runtime.
pub struct SinkOp<T, P: ProvenanceSystem, F> {
    name: String,
    input: StreamReceiver<T, P::Meta>,
    callback: F,
    stats: Arc<SinkStats>,
    /// The collection backing a collecting sink, if any: it doubles as the sink's
    /// checkpointable state (the output prefix committed at each epoch barrier).
    collected: Option<CollectedStream<T, P::Meta>>,
    checkpoints: CheckpointHandle,
    reclaimer: Arc<Reclaimer>,
}

impl<T, P, F> SinkOp<T, P, F>
where
    T: TupleData,
    P: ProvenanceSystem,
    F: FnMut(&Arc<GTuple<T, P::Meta>>) + Send + 'static,
{
    /// Creates a Sink operator invoking `callback` for every sink tuple.
    ///
    /// `collected` names the collection the callback feeds, if any; it becomes the
    /// sink's checkpointable state. Sinks without collection state still participate
    /// in checkpoints (committing an empty snapshot) so that a complete epoch
    /// guarantees the barrier reached every query output. A tuple whose graph the
    /// sink is the last holder of goes to `reclaimer` once the callback returns.
    pub(crate) fn new(
        name: impl Into<String>,
        input: StreamReceiver<T, P::Meta>,
        callback: F,
        stats: Arc<SinkStats>,
        collected: Option<CollectedStream<T, P::Meta>>,
        checkpoints: CheckpointHandle,
        reclaimer: Arc<Reclaimer>,
    ) -> Self {
        SinkOp {
            name: name.into(),
            input,
            callback,
            stats,
            collected,
            checkpoints,
            reclaimer,
        }
    }
}

impl<T, P, F> Operator for SinkOp<T, P, F>
where
    T: TupleData,
    P: ProvenanceSystem,
    F: FnMut(&Arc<GTuple<T, P::Meta>>) + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(mut self: Box<Self>, counters: OpCounters) -> Result<(), SpeError> {
        // The live latency histogram (p50/p95/p99 of stimulus-to-sink time).
        let latency_histogram = counters.histogram("genealog_sink_latency_ns");
        let checkpoints = self.checkpoints.get().cloned();
        if let Some(ckpt) = &checkpoints {
            ckpt.store.register(&self.name);
            if let Some(snapshot) = ckpt.store.restore_snapshot(&self.name) {
                if let (Some(collected), Some(prefix)) = (
                    &self.collected,
                    snapshot.downcast::<Vec<Arc<GTuple<T, P::Meta>>>>(),
                ) {
                    collected.restore(prefix.as_ref().clone());
                }
            }
        }
        loop {
            for element in self.input.recv_batch() {
                match element {
                    Element::Tuple(tuple) => {
                        counters.inc_in();
                        let latency = now_nanos().saturating_sub(tuple.stimulus);
                        self.stats.record(latency);
                        latency_histogram.record(latency);
                        (self.callback)(&tuple);
                        // The last holder of a graph frees it on a Source's thread,
                        // which allocated it; anything else just drops a reference.
                        if P::owns_graph(&tuple.meta) && Arc::strong_count(&tuple) == 1 {
                            self.reclaimer.retire(tuple);
                        }
                    }
                    Element::Watermark(_) => {}
                    Element::Barrier(epoch) => {
                        if let Some(ckpt) = &checkpoints {
                            let snapshot = match &self.collected {
                                Some(c) => Snapshot::inline(c.tuples()),
                                None => Snapshot::bytes(Vec::new()),
                            };
                            ckpt.store.commit(&self.name, epoch, snapshot);
                        }
                    }
                    Element::End => return Ok(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::stream_channel;
    use crate::operator::tests::run_bare;
    use crate::provenance::NoProvenance;
    use crate::time::Timestamp;

    #[test]
    fn sink_invokes_callback_and_records_latency() {
        let (tx, rx) = stream_channel::<i64, ()>(16);
        let stats = SinkStats::new();
        let collected = Arc::new(Mutex::new(Vec::new()));
        let collected_in_cb = Arc::clone(&collected);

        tx.send(Element::Tuple(Arc::new(GTuple::new(
            Timestamp::from_secs(1),
            now_nanos(),
            42i64,
            (),
        ))))
        .unwrap();
        tx.send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        tx.send(Element::End).unwrap();

        let op = SinkOp::<_, NoProvenance, _>::new(
            "sink",
            rx,
            move |t: &Arc<GTuple<i64, ()>>| collected_in_cb.lock().push(t.data),
            Arc::clone(&stats),
            None,
            Default::default(),
            Reclaimer::new(),
        );
        let op_stats = run_bare(op);
        assert_eq!(op_stats.tuples_in, 1);
        assert_eq!(stats.tuple_count(), 1);
        assert_eq!(stats.latencies_ns().len(), 1);
        assert!(stats.mean_latency_ms() >= 0.0);
        assert_eq!(*collected.lock(), vec![42]);
    }

    #[test]
    fn collected_stream_accumulates_and_drains() {
        let c: CollectedStream<i64, ()> = CollectedStream::new();
        assert!(c.is_empty());
        c.push(Arc::new(GTuple::new(Timestamp::from_secs(1), 0, 1, ())));
        c.push(Arc::new(GTuple::new(Timestamp::from_secs(2), 0, 2, ())));
        assert_eq!(c.len(), 2);
        let c2 = c.clone();
        assert_eq!(c2.len(), 2, "clone shares the same buffer");
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c2.is_empty());
    }

    #[test]
    fn empty_sink_stats_report_zero_latency() {
        let stats = SinkStats::new();
        assert_eq!(stats.tuple_count(), 0);
        assert_eq!(stats.mean_latency_ms(), 0.0);
    }
}
