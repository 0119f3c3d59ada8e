//! The Union operator: deterministically merges multiple streams into one.
//!
//! Union is a forwarding operator (no provenance instrumentation, Definition 3.1 type
//! (i)). It heads a chain as a fan-in ([`crate::merge`]): determinism comes from the
//! timestamp-ordered merge, as required by §2, and Union's rule is to forward each
//! released tuple — the same `Arc` — into the rest of its chain. Every other step of
//! the merge takes the fan-in defaults: the merge aligned the cut and drained every
//! pre-barrier tuple, so Union holds no state across a barrier and forwarding it is
//! the entire checkpoint protocol of this operator.

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::merge::{FanIn, FanInput};
use crate::provenance::MetaData;
use crate::tuple::TupleData;

/// Union's rule over its inputs: forward every released tuple.
pub(crate) struct Union;

impl<T: TupleData, M: MetaData> FanIn<Vec<FanInput<T, M>>, T, M> for Union {
    fn release(
        &mut self,
        inputs: &mut Vec<FanInput<T, M>>,
        index: usize,
        next: &mut dyn Tail<T, M>,
    ) -> Result<(), ChannelClosed> {
        next.tuple(inputs[index].pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot};
    use crate::fusion::PendingChain;
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

        let inputs = vec![FanInput::new(rx1), FanInput::new(rx2)];
        let chain = PendingChain::fan_in("union", inputs, |_, _| Union);
        let stats = run_bare(chain.into_channel("union", out_slot));
        assert_eq!((stats.tuples_in, stats.tuples_out), (2, 2));

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
        let mut q = crate::query::Query::new(crate::provenance::NoProvenance);
        let _ = q.union::<i64>("union", Vec::new());
    }
}
