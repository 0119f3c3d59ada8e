//! The Union operator: deterministically merges multiple streams into one.
//!
//! Union is a forwarding operator (no provenance instrumentation, Definition 3.1 type
//! (i)). Determinism comes from the timestamp-ordered merge of
//! [`DeterministicMerge`], as required by §2.

use crate::channel::{OutputSlot, StreamReceiver};
use crate::error::SpeError;
use crate::merge::{DeterministicMerge, MergedElement};
use crate::metrics::OpCounters;
use crate::operator::Operator;
use crate::provenance::MetaData;
use crate::tuple::TupleData;

/// The Union operator runtime.
pub struct UnionOp<T, M> {
    name: String,
    inputs: Vec<StreamReceiver<T, M>>,
    output: OutputSlot<T, M>,
}

impl<T, M> UnionOp<T, M>
where
    T: TupleData,
    M: MetaData,
{
    /// Creates a Union operator.
    ///
    /// # Panics
    /// Panics if `inputs` is empty.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<StreamReceiver<T, M>>,
        output: OutputSlot<T, M>,
    ) -> Self {
        assert!(!inputs.is_empty(), "Union requires at least one input");
        UnionOp {
            name: name.into(),
            inputs,
            output,
        }
    }
}

impl<T, M> Operator for UnionOp<T, M>
where
    T: TupleData,
    M: MetaData,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(self: Box<Self>, counters: OpCounters) -> Result<(), SpeError> {
        let mut out = self.output.open();
        let mut merge = DeterministicMerge::new(self.inputs);
        loop {
            match merge.next() {
                MergedElement::Tuple(tuple, _) => {
                    counters.inc_in();
                    if out.send_tuple(tuple).is_err() {
                        return Ok(());
                    }
                    counters.inc_out();
                }
                MergedElement::Watermark(ts) => {
                    if out.send_watermark(ts).is_err() {
                        return Ok(());
                    }
                }
                MergedElement::Barrier(epoch) => {
                    // The merge aligned the cut and drained every pre-barrier tuple,
                    // so Union holds no state across the barrier: forwarding it is
                    // the entire checkpoint protocol for this operator.
                    if out.send_barrier(epoch).is_err() {
                        return Ok(());
                    }
                }
                MergedElement::End => {
                    let _ = out.send_end();
                    return Ok(());
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
    use crate::time::Timestamp;
    use crate::tuple::{Element, GTuple};
    use std::sync::Arc;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    #[test]
    fn union_merges_in_timestamp_order_and_forwards_arcs() {
        let (tx1, rx1) = stream_channel(16);
        let (tx2, rx2) = stream_channel(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(64);
        out_slot.connect(out_tx);

        let a = tuple(1, 10);
        let b = tuple(2, 20);
        tx1.send(Element::Tuple(Arc::clone(&a))).unwrap();
        tx1.send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        tx1.send(Element::End).unwrap();
        tx2.send(Element::Tuple(Arc::clone(&b))).unwrap();
        tx2.send(Element::Watermark(Timestamp::from_secs(2)))
            .unwrap();
        tx2.send(Element::End).unwrap();

        let op = UnionOp::new("union", vec![rx1, rx2], out_slot);
        let stats = run_bare(op);
        assert_eq!(stats.tuples_out, 2);

        let first = out_rx.recv();
        let first = first.as_tuple().unwrap().clone();
        assert!(Arc::ptr_eq(&first, &a), "Union forwards the same Arc");
        let mut rest = Vec::new();
        loop {
            match out_rx.recv() {
                Element::Tuple(t) => rest.push(t),
                Element::Watermark(_) | Element::Barrier(_) => {}
                Element::End => break,
            }
        }
        assert_eq!(rest.len(), 1);
        assert!(Arc::ptr_eq(&rest[0], &b));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn union_requires_inputs() {
        let slot = OutputSlot::<i64, ()>::new();
        let _ = UnionOp::new("union", Vec::new(), slot);
    }
}
