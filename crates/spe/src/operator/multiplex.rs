//! The Multiplex operator: copies each input tuple to every output stream.
//!
//! The paper's instrumented Multiplex (§4.1) creates one copy per output stream, each
//! with `T = MULTIPLEX` and `U1` pointing at the contributing input tuple; the
//! instrumentation is the [`ProvenanceSystem::multiplex_meta`] hook.

use std::sync::Arc;

use crate::channel::{ChannelClosed, OutputHandle, OutputSlot};
use crate::fusion::Tail;
use crate::metrics::OpCounters;
use crate::provenance::ProvenanceSystem;
use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData};

/// The Multiplex operator: the tail of its chain.
pub(crate) struct MultiplexTail<T, P: ProvenanceSystem> {
    /// One handle per output stream; `None` once that output has closed.
    outs: Vec<Option<OutputHandle<T, P::Meta>>>,
    row: OpCounters,
    provenance: P,
}

impl<T: TupleData, P: ProvenanceSystem> MultiplexTail<T, P> {
    /// Configures a Multiplex over one output slot per stream; the returned closure
    /// builds it on its chain's thread.
    ///
    /// # Panics
    /// Panics if `outputs` is empty.
    pub(crate) fn open(
        outputs: Vec<OutputSlot<T, P::Meta>>,
        provenance: P,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static {
        assert!(
            !outputs.is_empty(),
            "Multiplex requires at least one output"
        );
        move |_, row| MultiplexTail {
            outs: outputs.iter().map(|slot| Some(slot.open())).collect(),
            row,
            provenance,
        }
    }
}

/// Hands one element to every output still open; an output whose send fails stays
/// closed. Fails once every output has closed, whatever the element.
fn broadcast<T, M>(
    outs: &mut [Option<OutputHandle<T, M>>],
    mut send: impl FnMut(&mut OutputHandle<T, M>) -> Result<(), ChannelClosed>,
) -> Result<(), ChannelClosed> {
    for out in outs.iter_mut() {
        if out.as_mut().is_some_and(|handle| send(handle).is_err()) {
            *out = None;
        }
    }
    if outs.iter().any(Option::is_some) {
        Ok(())
    } else {
        Err(ChannelClosed)
    }
}

impl<T: TupleData, P: ProvenanceSystem> Tail<T, P::Meta> for MultiplexTail<T, P> {
    fn tuple(&mut self, tuple: Arc<GTuple<T, P::Meta>>) -> Result<(), ChannelClosed> {
        let (provenance, row) = (&self.provenance, &self.row);
        broadcast(&mut self.outs, |out| {
            let meta = provenance.multiplex_meta(&tuple);
            let copy = GTuple::new(tuple.ts, tuple.stimulus, tuple.data.clone(), meta);
            out.send_tuple(Arc::new(copy))?;
            row.inc_out();
            Ok(())
        })
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        broadcast(&mut self.outs, |out| out.send_watermark(ts))
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        // Like watermarks, barriers are broadcast so every branch of the fan-out
        // observes the cut at the same stream position.
        broadcast(&mut self.outs, |out| out.send_barrier(epoch))
    }

    fn end(&mut self) {
        for out in self.outs.iter_mut().flatten() {
            let _ = out.send_end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, StreamReceiver};
    use crate::fusion::FusedOp;
    use crate::operator::tests::run_bare;
    use crate::operator::OperatorStats;
    use crate::provenance::NoProvenance;
    use crate::tuple::Element;

    fn run_mux(rx: StreamReceiver<i64, ()>, slots: Vec<OutputSlot<i64, ()>>) -> OperatorStats {
        run_bare(FusedOp::tail(
            "mux",
            rx,
            MultiplexTail::open(slots, NoProvenance),
        ))
    }

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    #[test]
    fn multiplex_copies_to_all_outputs() {
        let (in_tx, in_rx) = stream_channel(16);
        let slots: Vec<OutputSlot<i64, ()>> = (0..3).map(|_| OutputSlot::new()).collect();
        let mut rxs = Vec::new();
        for slot in &slots {
            let (tx, rx) = stream_channel(16);
            slot.connect(tx);
            rxs.push(rx);
        }

        in_tx.send(Element::Tuple(tuple(1, 42))).unwrap();
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        in_tx.send(Element::End).unwrap();

        let stats = run_mux(in_rx, slots);
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 3);

        for rx in &mut rxs {
            let t = rx.recv();
            assert_eq!(t.as_tuple().unwrap().data, 42);
            assert!(matches!(rx.recv(), Element::Watermark(_)));
            assert!(rx.recv().is_end());
        }
    }

    #[test]
    fn multiplex_copies_are_distinct_allocations() {
        let (in_tx, in_rx) = stream_channel(16);
        let slots: Vec<OutputSlot<i64, ()>> = (0..2).map(|_| OutputSlot::new()).collect();
        let (tx0, mut rx0) = stream_channel(16);
        let (tx1, mut rx1) = stream_channel(16);
        slots[0].connect(tx0);
        slots[1].connect(tx1);

        let input = tuple(1, 7);
        in_tx.send(Element::Tuple(Arc::clone(&input))).unwrap();
        in_tx.send(Element::End).unwrap();
        run_mux(in_rx, slots);

        let a = rx0.recv();
        let a = a.as_tuple().unwrap();
        let b = rx1.recv();
        let b = b.as_tuple().unwrap();
        assert!(
            !Arc::ptr_eq(a, b),
            "Multiplex creates new tuples, not forwards"
        );
        assert!(!Arc::ptr_eq(a, &input));
        assert_eq!(a.data, b.data);
    }

    #[test]
    #[should_panic(expected = "at least one output")]
    fn multiplex_requires_outputs() {
        let _ = MultiplexTail::<i64, _>::open(Vec::new(), NoProvenance);
    }

    #[test]
    fn multiplex_survives_one_closed_output() {
        let (in_tx, in_rx) = stream_channel(16);
        let slots: Vec<OutputSlot<i64, ()>> = (0..2).map(|_| OutputSlot::new()).collect();
        let (tx0, rx0) = stream_channel(16);
        let (tx1, mut rx1) = stream_channel(16);
        slots[0].connect(tx0);
        slots[1].connect(tx1);
        drop(rx0); // first consumer goes away

        in_tx.send(Element::Tuple(tuple(1, 5))).unwrap();
        in_tx.send(Element::Tuple(tuple(2, 6))).unwrap();
        in_tx.send(Element::End).unwrap();
        let stats = run_mux(in_rx, slots);
        // Output to the dead consumer fails silently; the live one receives both
        // tuples, and only its copies count.
        assert_eq!(rx1.recv().as_tuple().unwrap().data, 5);
        assert_eq!(rx1.recv().as_tuple().unwrap().data, 6);
        assert!(rx1.recv().is_end());
        assert_eq!(stats.tuples_out, 2);
    }
}
