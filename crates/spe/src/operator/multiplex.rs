//! The Multiplex operator: copies each input tuple to every output stream.
//!
//! The paper's instrumented Multiplex (§4.1) creates one copy per output stream, each
//! with `T = MULTIPLEX` and `U1` pointing at the contributing input tuple; the
//! instrumentation is the [`ProvenanceSystem::multiplex_meta`] hook.

use std::sync::Arc;

use crate::channel::{OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::metrics::OpCounters;
use crate::operator::Operator;
use crate::provenance::ProvenanceSystem;
use crate::tuple::{Element, GTuple, TupleData};

/// The Multiplex operator runtime.
pub struct MultiplexOp<T, P: ProvenanceSystem> {
    name: String,
    input: StreamReceiver<T, P::Meta>,
    outputs: Vec<OutputSlot<T, P::Meta>>,
    provenance: P,
}

impl<T, P> MultiplexOp<T, P>
where
    T: TupleData,
    P: ProvenanceSystem,
{
    /// Creates a Multiplex operator with one slot per output stream.
    ///
    /// # Panics
    /// Panics if `outputs` is empty.
    pub fn new(
        name: impl Into<String>,
        input: StreamReceiver<T, P::Meta>,
        outputs: Vec<OutputSlot<T, P::Meta>>,
        provenance: P,
    ) -> Self {
        assert!(
            !outputs.is_empty(),
            "Multiplex requires at least one output"
        );
        MultiplexOp {
            name: name.into(),
            input,
            outputs,
            provenance,
        }
    }
}

impl<T, P> Operator for MultiplexOp<T, P>
where
    T: TupleData,
    P: ProvenanceSystem,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(mut self: Box<Self>, counters: OpCounters) -> Result<(), SpeError> {
        let mut outs: Vec<_> = self.outputs.iter().map(OutputSlot::open).collect();
        let mut live: Vec<bool> = vec![true; outs.len()];
        loop {
            for element in self.input.recv_batch() {
                match element {
                    Element::Tuple(tuple) => {
                        counters.inc_in();
                        for (out, alive) in outs.iter_mut().zip(live.iter_mut()) {
                            if !*alive {
                                continue;
                            }
                            let meta = self.provenance.multiplex_meta(&tuple);
                            let copy = Arc::new(GTuple::new(
                                tuple.ts,
                                tuple.stimulus,
                                tuple.data.clone(),
                                meta,
                            ));
                            if out.send_tuple(copy).is_err() {
                                *alive = false;
                            } else {
                                counters.inc_out();
                            }
                        }
                        if live.iter().all(|a| !*a) {
                            return Ok(());
                        }
                    }
                    Element::Watermark(ts) => {
                        for (out, alive) in outs.iter_mut().zip(live.iter_mut()) {
                            if *alive && out.send_watermark(ts).is_err() {
                                *alive = false;
                            }
                        }
                    }
                    Element::Barrier(epoch) => {
                        // Like watermarks, barriers are broadcast so every branch of
                        // the fan-out observes the cut at the same stream position.
                        for (out, alive) in outs.iter_mut().zip(live.iter_mut()) {
                            if *alive && out.send_barrier(epoch).is_err() {
                                *alive = false;
                            }
                        }
                    }
                    Element::End => {
                        for out in &mut outs {
                            let _ = out.send_end();
                        }
                        return Ok(());
                    }
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

        let op = MultiplexOp::new("mux", in_rx, slots, NoProvenance);
        let stats = run_bare(op);
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
        run_bare(MultiplexOp::new("mux", in_rx, slots, NoProvenance));

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
        let (_tx, rx) = stream_channel::<i64, ()>(1);
        let _ = MultiplexOp::new("mux", rx, Vec::new(), NoProvenance);
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
        let stats = run_bare(MultiplexOp::new("mux", in_rx, slots, NoProvenance));
        // Output to the dead consumer fails silently; the live one receives both tuples.
        assert_eq!(rx1.recv().as_tuple().unwrap().data, 5);
        assert_eq!(rx1.recv().as_tuple().unwrap().data, 6);
        assert!(rx1.recv().is_end());
        assert!(stats.tuples_out >= 2);
    }
}
