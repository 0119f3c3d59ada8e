//! The Aggregate operator: sliding time-window, group-by aggregation.
//!
//! The paper's instrumented Aggregate (§4.1) makes every tuple of the closed window
//! contribute to the output tuple: `U2` points at the earliest window tuple, `U1` at
//! the latest, and the window tuples are chained through their `N` pointers. That
//! instrumentation is the [`ProvenanceSystem::aggregate_meta`] hook, which receives
//! the full window (earliest tuple first).

use std::sync::Arc;

use genealog_metrics::{Counter, Histogram};

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::metrics::OpCounters;
use crate::operator::FusedStage;
use crate::persist::WindowPersister;
use crate::provenance::{detach_tuple, ProvenanceSystem};
use crate::state::{CheckpointHandle, Participant, Snapshot};
use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData};
use crate::window::{ClosedWindow, WindowSpec, WindowStore, WindowStoreSnapshot};

/// The view of a closed window handed to the aggregation function.
#[derive(Debug)]
pub struct WindowView<'a, K, I, M> {
    /// Start timestamp of the window (also the output tuple's timestamp).
    pub start: Timestamp,
    /// Group-by key of the window instance.
    pub key: &'a K,
    /// Window tuples in timestamp order (earliest first).
    pub tuples: &'a [Arc<GTuple<I, M>>],
}

impl<K, I, M> WindowView<'_, K, I, M> {
    /// Number of tuples in the window.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the window is empty (never the case for emitted windows).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterator over the window payloads in timestamp order.
    pub fn payloads(&self) -> impl Iterator<Item = &I> {
        self.tuples.iter().map(|t| &t.data)
    }
}

/// The byte codec registered for an aggregate's snapshot type, with the
/// per-barrier instruments of the byte-snapshot path.
struct SnapshotEncoder<K, I, M> {
    persister: Arc<dyn WindowPersister<K, I, M>>,
    encode_ns: Arc<Histogram>,
    refused: Arc<Counter>,
}

impl<K, I, M> SnapshotEncoder<K, I, M> {
    /// The snapshot as a byte container, or `None` when the persister refuses it
    /// — counted and traced, because whoever registered a persister believes this
    /// operator's state durable.
    fn encode(
        &self,
        operator: &str,
        epoch: u64,
        snapshot: &WindowStoreSnapshot<K, I, M>,
    ) -> Option<Vec<u8>> {
        let started = std::time::Instant::now();
        let bytes = self.persister.encode(snapshot);
        self.encode_ns.record(started.elapsed().as_nanos() as u64);
        if bytes.is_none() {
            self.refused.inc();
            genealog_metrics::Tracer::global().emit(
                "checkpoint-inline-fallback",
                operator,
                format!(
                    "epoch {epoch}: the registered window persister refused the snapshot; \
                     committed inline, which does not survive this process"
                ),
            );
        }
        bytes
    }
}

/// The Aggregate operator: a stateful stage of its chain. It closes its windows
/// into the rest of the chain at a watermark, commits its window store before it
/// forwards a barrier, and flushes every open window at the end of the input.
pub(crate) struct AggregateStage<I, K, KF, AF, P: ProvenanceSystem> {
    store: WindowStore<K, I, P::Meta>,
    key_fn: KF,
    agg_fn: AF,
    provenance: P,
    /// The operator's checkpoint seat, when the deployment checkpoints.
    checkpoint: Option<Participant>,
    /// The byte codec registered for the operator's snapshot type, if any.
    encoder: Option<SnapshotEncoder<K, I, P::Meta>>,
}

impl<I, K, KF, AF, P> AggregateStage<I, K, KF, AF, P>
where
    I: TupleData,
    K: Ord + Clone + Send + Sync + 'static,
    KF: FnMut(&I) -> K,
    P: ProvenanceSystem,
{
    /// Configures an Aggregate. The returned closure builds it on its chain's thread
    /// from its node name and ledger row. When `checkpoints` is filled, the operator
    /// takes its checkpoint seat under its node name, restores the window store
    /// committed for it, and snapshots the store — the buffered tuples with their
    /// live provenance pointers — on every epoch barrier.
    pub(crate) fn open(
        spec: WindowSpec,
        key_fn: KF,
        agg_fn: AF,
        provenance: P,
        checkpoints: CheckpointHandle,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static
    where
        KF: Send + 'static,
        AF: Send + 'static,
    {
        move |name, row| {
            let (checkpoint, restored) = Participant::join(&checkpoints, name).unzip();
            // With a byte codec for this operator's snapshot type, commits become
            // durable byte containers and restores can come out of a store owned
            // by a *previous* process.
            let encoder = checkpoint
                .as_ref()
                .and_then(|seat| seat.config.window_persister::<K, I, P::Meta>())
                .map(|persister| SnapshotEncoder {
                    persister,
                    encode_ns: row.histogram("genealog_checkpoint_snapshot_encode_ns"),
                    refused: row.counter("genealog_checkpoint_inline_fallbacks_total"),
                });
            let restored = restored.flatten().and_then(|s| {
                s.downcast::<WindowStoreSnapshot<K, I, P::Meta>>()
                    .or_else(|| {
                        encoder
                            .as_ref()?
                            .persister
                            .decode(s.as_bytes()?)
                            .map(Arc::new)
                    })
            });
            let mut store = WindowStore::new(spec);
            if let Some(snapshot) = restored {
                // Re-materialise the open windows through detached clones so the
                // restored slice of the provenance graph has fresh `N` cells for
                // this run's window-close chains to claim.
                store.restore(&snapshot, &mut |t| detach_tuple(&provenance, t));
            }
            AggregateStage {
                store,
                key_fn,
                agg_fn,
                provenance,
                checkpoint,
                encoder,
            }
        }
    }

    fn emit_closed<O>(
        &mut self,
        closed: Vec<ClosedWindow<K, I, P::Meta>>,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed>
    where
        AF: FnMut(&WindowView<'_, K, I, P::Meta>) -> O,
    {
        for window in closed {
            if window.tuples.is_empty() {
                continue;
            }
            let view = WindowView {
                start: window.start,
                key: &window.key,
                tuples: &window.tuples,
            };
            let data = (self.agg_fn)(&view);
            let meta = self.provenance.aggregate_meta(&window.tuples);
            let stimulus = window
                .tuples
                .iter()
                .map(|t| t.stimulus)
                .max()
                .unwrap_or_default();
            next.tuple(Arc::new(GTuple::new(window.start, stimulus, data, meta)))?;
        }
        Ok(())
    }
}

impl<I, O, K, KF, AF, P> FusedStage<I, O, P::Meta> for AggregateStage<I, K, KF, AF, P>
where
    I: TupleData,
    O: TupleData,
    K: Ord + Clone + Send + Sync + 'static,
    KF: FnMut(&I) -> K + Send + 'static,
    AF: FnMut(&WindowView<'_, K, I, P::Meta>) -> O + Send + 'static,
    P: ProvenanceSystem,
{
    fn process(
        &mut self,
        tuple: Arc<GTuple<I, P::Meta>>,
        _: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        let key = (self.key_fn)(&tuple.data);
        self.store.insert(key, tuple);
        Ok(())
    }

    fn watermark(
        &mut self,
        ts: Timestamp,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        let closed = self.store.close_up_to(ts);
        self.emit_closed(closed, next)?;
        // Future outputs carry the start of a not-yet-closed window, which is
        // strictly greater than ts - WS.
        next.watermark(ts.saturating_sub(self.store.spec().size))
    }

    fn barrier(
        &mut self,
        epoch: u64,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        if let Some(seat) = &self.checkpoint {
            let snapshot = self.store.snapshot();
            // Prefer the byte container (durable, diffable); fall back to the
            // process-local inline share when no persister fits or the state is
            // not encodable.
            let bytes = self
                .encoder
                .as_ref()
                .and_then(|e| e.encode(&seat.name, epoch, &snapshot));
            seat.commit(
                epoch,
                match bytes {
                    Some(bytes) => Snapshot::bytes(bytes),
                    None => Snapshot::inline(snapshot),
                },
            );
        }
        next.barrier(epoch)
    }

    fn end(&mut self, next: &mut dyn Tail<O, P::Meta>) {
        let closed = self.store.close_all();
        let _ = self.emit_closed(closed, next);
        let _ = next.watermark(Timestamp::MAX);
        next.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot};
    use crate::fusion::tests::run_stage;
    use crate::provenance::NoProvenance;
    use crate::time::Duration;
    use crate::tuple::Element;

    fn tuple(ts: u64, car: u32, speed: u32) -> Arc<GTuple<(u32, u32), ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), ts, (car, speed), ()))
    }

    /// Runs an aggregate counting tuples per car over a WS=120s / WA=30s window,
    /// mirroring the Q1 aggregate of Figure 1.
    fn run_count_aggregate(input: Vec<Element<(u32, u32), ()>>) -> Vec<(u64, u32, usize)> {
        let (in_tx, in_rx) = stream_channel(256);
        let out_slot = OutputSlot::<(u32, usize), ()>::new();
        let (out_tx, mut out_rx) = stream_channel(256);
        out_slot.connect(out_tx);
        for el in input {
            in_tx.send(el).unwrap();
        }
        in_tx.send(Element::End).unwrap();

        let spec = WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30)).unwrap();
        let aggregate = AggregateStage::open(
            spec,
            |t: &(u32, u32)| t.0,
            |w: &WindowView<'_, u32, (u32, u32), ()>| (*w.key, w.len()),
            NoProvenance,
            Default::default(),
        );
        run_stage("count", in_rx, aggregate, out_slot);

        let mut outputs = Vec::new();
        loop {
            match out_rx.recv() {
                Element::Tuple(t) => outputs.push((t.ts.as_secs(), t.data.0, t.data.1)),
                Element::Watermark(_) | Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        outputs
    }

    #[test]
    fn counts_per_group_in_sliding_windows() {
        // Car 1 reports at 1, 31, 61, 91 (all zero speed); car 2 reports once at 32.
        let input = vec![
            Element::Tuple(tuple(1, 1, 0)),
            Element::Tuple(tuple(31, 1, 0)),
            Element::Tuple(tuple(32, 2, 0)),
            Element::Tuple(tuple(61, 1, 0)),
            Element::Tuple(tuple(91, 1, 0)),
            Element::Watermark(Timestamp::from_secs(121)),
        ];
        let outputs = run_count_aggregate(input);
        // The window [0, 120) closes at watermark 121 (plus later windows at end of
        // stream). The first closed window must count 4 tuples for car 1, 1 for car 2.
        let first_window: Vec<_> = outputs.iter().filter(|(ts, _, _)| *ts == 0).collect();
        assert_eq!(first_window.len(), 2);
        assert_eq!(*first_window[0], (0, 1, 4));
        assert_eq!(*first_window[1], (0, 2, 1));
    }

    #[test]
    fn end_of_stream_flushes_open_windows() {
        let input = vec![Element::Tuple(tuple(10, 5, 0))];
        let outputs = run_count_aggregate(input);
        // The tuple belongs to the single window [0, 120) (no earlier windows exist);
        // flushing at end-of-stream emits it exactly once per open window containing it.
        assert!(!outputs.is_empty());
        assert!(outputs.iter().all(|&(_, car, _)| car == 5));
        assert_eq!(outputs[0].2, 1);
    }

    #[test]
    fn aggregate_output_timestamp_is_window_start() {
        let input = vec![
            Element::Tuple(tuple(31, 1, 0)),
            Element::Watermark(Timestamp::from_secs(200)),
        ];
        let outputs = run_count_aggregate(input);
        // Tuple at 31s belongs to windows starting at 0 and 30.
        let starts: Vec<u64> = outputs.iter().map(|&(ts, _, _)| ts).collect();
        assert!(starts.contains(&0));
        assert!(starts.contains(&30));
    }

    #[test]
    fn stimulus_of_output_is_latest_window_stimulus() {
        let (in_tx, in_rx) = stream_channel(64);
        let out_slot = OutputSlot::<usize, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(64);
        out_slot.connect(out_tx);
        in_tx.send(Element::Tuple(tuple(1, 1, 0))).unwrap();
        in_tx.send(Element::Tuple(tuple(20, 1, 0))).unwrap();
        in_tx.send(Element::End).unwrap();
        let spec = WindowSpec::tumbling(Duration::from_secs(30)).unwrap();
        let aggregate = AggregateStage::open(
            spec,
            |t: &(u32, u32)| t.0,
            |w: &WindowView<'_, u32, (u32, u32), ()>| w.len(),
            NoProvenance,
            Default::default(),
        );
        run_stage("count", in_rx, aggregate, out_slot);
        let out = out_rx.recv();
        let out = out.as_tuple().unwrap();
        assert_eq!(
            out.stimulus, 20,
            "stimulus must be the latest input stimulus"
        );
    }
}
