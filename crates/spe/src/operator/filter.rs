//! The Filter operator: forwards or discards tuples based on a predicate.
//!
//! Filter is a *forwarding* operator (the paper's type (i) in Definition 3.1): it does
//! not create new tuples, so no provenance instrumentation is defined for it — the same
//! `Arc` travels downstream, and with it the tuple's existing metadata.

use std::sync::Arc;

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::operator::FusedStage;
use crate::provenance::MetaData;
use crate::tuple::{GTuple, TupleData};

/// The Filter semantics as a fusable [`FusedStage`]: forwards the input `Arc` when
/// the predicate holds, drops it otherwise. Because the same `Arc` travels on, the
/// tuple's provenance metadata passes through untouched — fused or not.
pub struct FilterStage<F> {
    predicate: F,
}

impl<F> FilterStage<F> {
    /// Creates a Filter stage from its predicate.
    pub fn new(predicate: F) -> Self {
        FilterStage { predicate }
    }
}

impl<T, F, M> FusedStage<T, T, M> for FilterStage<F>
where
    T: TupleData,
    F: FnMut(&T) -> bool + Send + 'static,
    M: MetaData,
{
    fn process(
        &mut self,
        tuple: Arc<GTuple<T, M>>,
        next: &mut dyn Tail<T, M>,
    ) -> Result<(), ChannelClosed> {
        if (self.predicate)(&tuple.data) {
            next.tuple(tuple)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot};
    use crate::fusion::tests::run_stage;
    use crate::time::Timestamp;
    use crate::tuple::Element;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    #[test]
    fn filter_forwards_matching_tuples_without_copying() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        let kept = tuple(1, 2);
        let dropped = tuple(2, 3);
        in_tx.send(Element::Tuple(Arc::clone(&kept))).unwrap();
        in_tx.send(Element::Tuple(dropped)).unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = FilterStage::new(|v: &i64| v % 2 == 0);
        let stats = run_stage("even", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_in, 2);
        assert_eq!(stats.tuples_out, 1);

        match out_rx.recv() {
            Element::Tuple(t) => {
                assert!(Arc::ptr_eq(&t, &kept), "Filter must forward the same Arc")
            }
            other => panic!("expected tuple, got {other:?}"),
        }
        assert!(out_rx.recv().is_end());
    }

    #[test]
    fn filter_forwards_watermarks_even_when_dropping_all_tuples() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        in_tx.send(Element::Tuple(tuple(1, 1))).unwrap();
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = FilterStage::new(|_: &i64| false);
        run_stage("none", in_rx, |_, _| stage, out_slot);
        assert!(matches!(out_rx.recv(), Element::Watermark(ts) if ts == Timestamp::from_secs(1)));
        assert!(out_rx.recv().is_end());
    }
}
