//! The Map operator: produces one or more output tuples per input tuple.
//!
//! The paper's instrumented Map (§4.1) creates new tuples whose `U1` meta-attribute
//! points at the contributing input tuple; in this engine that instrumentation is the
//! [`ProvenanceSystem::map_meta`] hook.

use std::sync::Arc;

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::operator::FusedStage;
use crate::provenance::ProvenanceSystem;
use crate::tuple::{GTuple, TupleData};

/// The Map semantics as a fusable [`FusedStage`]: for every output payload the user
/// function returns, a new tuple is created with metadata from the provenance
/// system's `map_meta` hook — the same instrumentation point whether the stage runs
/// alone or fused, so fused and unfused plans produce byte-identical contribution
/// graphs.
///
/// The user function receives the *whole input tuple* and returns *zero or more*
/// output payloads; output tuples inherit the input tuple's timestamp and stimulus.
/// [`Query::map`](crate::query::Query::map) hands it the payload alone;
/// [`Query::map_with_meta`](crate::query::Query::map_with_meta) hands it the
/// provenance metadata too, which is the engine-level facility the paper's §4.1
/// calls an *instrumented* operator: it can "access and modify the meta-data used
/// for data provenance and use such metadata to create tuples" (the single-stream
/// unfolder of `genealog`, §5.1, is a Multiplex plus such a Map applying the
/// `findProvenance` traversal). Returning zero outputs makes Map usable as a
/// filtering projection, but
/// [`FilterStage`](crate::operator::filter::FilterStage) should be preferred when
/// tuples are merely forwarded, because Filter does not create new tuples and
/// therefore adds nothing to the contribution graph.
pub struct MapStage<F, P> {
    function: F,
    provenance: P,
}

impl<F, P> MapStage<F, P> {
    /// Creates a Map stage from the user function and the query's provenance system.
    pub fn new(function: F, provenance: P) -> Self {
        MapStage {
            function,
            provenance,
        }
    }
}

impl<I, O, R, F, P> FusedStage<I, O, P::Meta> for MapStage<F, P>
where
    I: TupleData,
    O: TupleData,
    R: IntoIterator<Item = O>,
    F: FnMut(&Arc<GTuple<I, P::Meta>>) -> R + Send + 'static,
    P: ProvenanceSystem,
{
    fn process(
        &mut self,
        tuple: Arc<GTuple<I, P::Meta>>,
        next: &mut dyn Tail<O, P::Meta>,
    ) -> Result<(), ChannelClosed> {
        for data in (self.function)(&tuple) {
            let meta = self.provenance.map_meta(&tuple);
            next.tuple(Arc::new(GTuple::new(tuple.ts, tuple.stimulus, data, meta)))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, OutputSlot};
    use crate::fusion::tests::run_stage;
    use crate::provenance::{NoProvenance, ProvenanceSystem, RemoteContext, SourceContext};
    use crate::time::Timestamp;
    use crate::tuple::Element;
    use crate::tuple::TupleData;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 7, v, ()))
    }

    #[test]
    fn map_transforms_and_preserves_timestamp_and_stimulus() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<String, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        in_tx.send(Element::Tuple(tuple(5, 21))).unwrap();
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(5)))
            .unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = MapStage::new(
            |t: &Arc<GTuple<i64, ()>>| vec![format!("v={}", t.data * 2)],
            NoProvenance,
        );
        let stats = run_stage("fmt", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 1);

        let t = out_rx.recv();
        let t = t.as_tuple().unwrap();
        assert_eq!(t.data, "v=42");
        assert_eq!(t.ts, Timestamp::from_secs(5));
        assert_eq!(t.stimulus, 7);
        assert!(matches!(out_rx.recv(), Element::Watermark(_)));
        assert!(out_rx.recv().is_end());
    }

    #[test]
    fn map_can_produce_multiple_outputs_per_input() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        in_tx.send(Element::Tuple(tuple(1, 3))).unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = MapStage::new(|t: &Arc<GTuple<i64, ()>>| 0..t.data, NoProvenance);
        let stats = run_stage("explode", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_out, 3);
        assert_eq!(out_rx.recv().as_tuple().unwrap().data, 0);
        assert_eq!(out_rx.recv().as_tuple().unwrap().data, 1);
        assert_eq!(out_rx.recv().as_tuple().unwrap().data, 2);
    }

    #[test]
    fn meta_map_sees_the_full_input_tuple() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<u64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        in_tx.send(Element::Tuple(tuple(9, 100))).unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = MapStage::new(
            |t: &Arc<GTuple<i64, ()>>| vec![t.ts.as_secs()],
            NoProvenance,
        );
        let stats = run_stage("ts-extract", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_out, 1);
        assert_eq!(out_rx.recv().as_tuple().unwrap().data, 9);
        assert!(out_rx.recv().is_end());
    }

    #[test]
    fn map_with_zero_outputs_drops_the_tuple() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<i64, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        in_tx.send(Element::Tuple(tuple(1, 3))).unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = MapStage::new(|_: &Arc<GTuple<i64, ()>>| Vec::<i64>::new(), NoProvenance);
        let stats = run_stage("drop", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_in, 1);
        assert_eq!(stats.tuples_out, 0);
        assert!(out_rx.recv().is_end());
    }

    /// A system whose metadata counts the tuple-creating hops behind a tuple.
    #[derive(Debug, Clone)]
    struct Depth;

    impl ProvenanceSystem for Depth {
        type Meta = u32;
        fn label(&self) -> &'static str {
            "depth"
        }
        fn source_meta<T: TupleData>(&self, _ctx: &SourceContext, _data: &T) -> u32 {
            0
        }
        fn map_meta<I: TupleData>(&self, input: &Arc<GTuple<I, u32>>) -> u32 {
            input.meta + 1
        }
        fn multiplex_meta<I: TupleData>(&self, input: &Arc<GTuple<I, u32>>) -> u32 {
            input.meta
        }
        fn join_meta<L: TupleData, R: TupleData>(
            &self,
            left: &Arc<GTuple<L, u32>>,
            _right: &Arc<GTuple<R, u32>>,
        ) -> u32 {
            left.meta
        }
        fn aggregate_meta<I: TupleData>(&self, _window: &[Arc<GTuple<I, u32>>]) -> u32 {
            0
        }
        fn remote_meta(&self, _ctx: &RemoteContext) -> u32 {
            0
        }
        fn detach_meta(&self, meta: &u32) -> u32 {
            *meta
        }
    }

    #[test]
    fn map_stages_call_the_map_provenance_hook_once_per_output() {
        let (in_tx, in_rx) = stream_channel(16);
        let out_slot = OutputSlot::<i64, u32>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        out_slot.connect(out_tx);

        let input = Arc::new(GTuple::new(Timestamp::from_secs(1), 7, 3i64, 4u32));
        in_tx.send(Element::Tuple(input)).unwrap();
        in_tx.send(Element::End).unwrap();

        let stage = MapStage::new(|t: &Arc<GTuple<i64, u32>>| [t.data, t.data + 1], Depth);
        let stats = run_stage("twice", in_rx, |_, _| stage, out_slot);
        assert_eq!(stats.tuples_out, 2);
        for expected in [3, 4] {
            let t = out_rx.recv();
            let t = t.as_tuple().unwrap();
            assert_eq!(t.data, expected);
            assert_eq!(
                t.meta, 5,
                "map_meta derives the output's meta from the input"
            );
        }
        assert!(out_rx.recv().is_end());
    }
}
