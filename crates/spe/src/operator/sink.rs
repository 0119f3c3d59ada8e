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

use genealog_metrics::Histogram;

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::metrics::OpCounters;
use crate::operator::now_nanos;
use crate::provenance::ProvenanceSystem;
use crate::reclaim::Reclaimer;
use crate::state::{CheckpointHandle, Participant, Snapshot};
use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData};

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

/// The Sink operator: the tail of its chain.
pub(crate) struct SinkTail<T, P: ProvenanceSystem, F> {
    callback: F,
    stats: Arc<SinkStats>,
    /// The live latency histogram (p50/p95/p99 of stimulus-to-sink time).
    latency: Arc<Histogram>,
    /// The collection backing a collecting sink, if any: it doubles as the sink's
    /// checkpointable state (the output prefix committed at each epoch barrier).
    collected: Option<CollectedStream<T, P::Meta>>,
    checkpoint: Option<Participant>,
    reclaimer: Arc<Reclaimer>,
}

impl<T, P, F> SinkTail<T, P, F>
where
    T: TupleData,
    P: ProvenanceSystem,
    F: FnMut(&Arc<GTuple<T, P::Meta>>),
{
    /// Configures a Sink invoking `callback` for every sink tuple; the returned
    /// closure builds it on its chain's thread (see
    /// [`Query::set_tail`](crate::query::Query::set_tail)).
    ///
    /// `collected` names the collection the callback feeds, if any; it becomes the
    /// sink's checkpointable state, restored there when `checkpoints` is filled.
    /// Sinks without collection state still participate in checkpoints (committing
    /// an empty snapshot) so that a complete epoch guarantees the barrier reached
    /// every query output. A tuple whose graph the sink is the last holder of goes
    /// to `reclaimer` once the callback returns.
    pub(crate) fn open(
        callback: F,
        stats: Arc<SinkStats>,
        collected: Option<CollectedStream<T, P::Meta>>,
        checkpoints: CheckpointHandle,
        reclaimer: Arc<Reclaimer>,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static
    where
        F: Send + 'static,
    {
        move |name, row| {
            let (checkpoint, restored) = Participant::join(&checkpoints, name).unzip();
            let prefix = restored
                .flatten()
                .and_then(|s| s.downcast::<Vec<Arc<GTuple<T, P::Meta>>>>());
            if let (Some(collected), Some(prefix)) = (&collected, prefix) {
                collected.restore(prefix.as_ref().clone());
            }
            SinkTail {
                callback,
                stats,
                latency: row.histogram("genealog_sink_latency_ns"),
                collected,
                checkpoint,
                reclaimer,
            }
        }
    }
}

impl<T, P, F> Tail<T, P::Meta> for SinkTail<T, P, F>
where
    T: TupleData,
    P: ProvenanceSystem,
    F: FnMut(&Arc<GTuple<T, P::Meta>>),
{
    fn tuple(&mut self, tuple: Arc<GTuple<T, P::Meta>>) -> Result<(), ChannelClosed> {
        let latency = now_nanos().saturating_sub(tuple.stimulus);
        self.stats.record(latency);
        self.latency.record(latency);
        (self.callback)(&tuple);
        // The last holder of a graph frees it on a Source's thread, which
        // allocated it; anything else just drops a reference.
        if P::owns_graph(&tuple.meta) && Arc::strong_count(&tuple) == 1 {
            self.reclaimer.retire(tuple);
        }
        Ok(())
    }

    fn watermark(&mut self, _: Timestamp) -> Result<(), ChannelClosed> {
        Ok(())
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        if let Some(seat) = &self.checkpoint {
            let snapshot = match &self.collected {
                Some(c) => Snapshot::inline(c.tuples()),
                None => Snapshot::bytes(Vec::new()),
            };
            seat.commit(epoch, snapshot);
        }
        Ok(())
    }

    fn end(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::stream_channel;
    use crate::fusion::FusedOp;
    use crate::operator::tests::run_bare;
    use crate::provenance::NoProvenance;
    use crate::tuple::Element;

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

        let sink = SinkTail::<_, NoProvenance, _>::open(
            move |t: &Arc<GTuple<i64, ()>>| collected_in_cb.lock().push(t.data),
            Arc::clone(&stats),
            None,
            Default::default(),
            Reclaimer::new(),
        );
        let op = FusedOp::tail("sink", rx, sink);
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
