//! Deterministic, watermark-driven merging of multiple timestamp-sorted input streams.
//!
//! The paper assumes (§2) that operators with multiple input streams merge them *in
//! timestamp order*, so that query execution — and therefore provenance — is
//! deterministic and independent of thread interleaving or transmission latency.
//! [`DeterministicMerge`] implements that merge: it buffers elements per input and
//! only releases a tuple once every other input has proven (through a buffered tuple,
//! a watermark or end-of-stream) that it cannot produce an earlier one. Ties on the
//! timestamp are broken by input index, then by arrival order within an input, which
//! keeps the merge total and reproducible.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::channel::{wait_any, Batch, Ready, StreamReceiver};
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple};

/// An element produced by the merge, already in global timestamp order.
#[derive(Debug)]
pub enum MergedElement<T, M> {
    /// The next tuple in timestamp order, together with the index of the input stream
    /// it arrived on.
    Tuple(Arc<GTuple<T, M>>, usize),
    /// All inputs have progressed past this timestamp.
    Watermark(Timestamp),
    /// Every live input has delivered the barrier for this epoch and every buffered
    /// pre-barrier tuple has been released: the cut is aligned at this fan-in.
    Barrier(u64),
    /// Every input stream has ended and all buffers are drained.
    End,
}

#[derive(Debug)]
struct MergeInput<T, M> {
    rx: StreamReceiver<T, M>,
    buffer: VecDeque<Arc<GTuple<T, M>>>,
    /// Highest lower bound promised by this input (via watermarks or tuple timestamps).
    promised: Timestamp,
    /// Epoch barrier this input has reached and is now blocked on (checkpoint
    /// alignment): the input is not pumped again until every other live input
    /// reaches the same barrier.
    at_barrier: Option<u64>,
    ended: bool,
}

impl<T, M> MergeInput<T, M> {
    /// Smallest timestamp this input may still deliver.
    fn lower_bound(&self) -> Timestamp {
        if let Some(front) = self.buffer.front() {
            front.ts
        } else if self.ended || self.at_barrier.is_some() {
            // An input blocked on a barrier delivers nothing until the cut is
            // aligned, so it must not hold back the release of other inputs'
            // buffered pre-barrier tuples.
            Timestamp::MAX
        } else {
            self.promised
        }
    }

    /// Folds a received element into the local buffer/state.
    fn fold(&mut self, element: Element<T, M>) {
        match element {
            Element::Tuple(t) => {
                if t.ts > self.promised {
                    self.promised = t.ts;
                }
                self.buffer.push_back(t);
            }
            Element::Watermark(ts) => {
                if ts > self.promised {
                    self.promised = ts;
                }
            }
            Element::Barrier(epoch) => self.at_barrier = Some(epoch),
            Element::End => self.ended = true,
        }
    }

    /// Folds every element of a received batch, preserving arrival order.
    fn fold_batch(&mut self, batch: Batch<T, M>) {
        for element in batch {
            self.fold(element);
        }
    }
}

/// Merges `n` timestamp-sorted input streams into one timestamp-sorted element stream.
#[derive(Debug)]
pub struct DeterministicMerge<T, M> {
    inputs: Vec<MergeInput<T, M>>,
    emitted_watermark: Option<Timestamp>,
}

impl<T, M> DeterministicMerge<T, M> {
    /// Creates a merge over the given input streams.
    ///
    /// # Panics
    /// Panics if `receivers` is empty.
    pub fn new(receivers: Vec<StreamReceiver<T, M>>) -> Self {
        assert!(!receivers.is_empty(), "merge requires at least one input");
        DeterministicMerge {
            inputs: receivers
                .into_iter()
                .map(|rx| MergeInput {
                    rx,
                    buffer: VecDeque::new(),
                    promised: Timestamp::MIN,
                    at_barrier: None,
                    ended: false,
                })
                .collect(),
            emitted_watermark: None,
        }
    }

    /// Number of input streams.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Global lower bound: no future tuple can have a timestamp below this.
    fn frontier(&self) -> Timestamp {
        self.inputs
            .iter()
            .map(MergeInput::lower_bound)
            .min()
            .unwrap_or(Timestamp::MAX)
    }

    /// Returns the next merged element, blocking on the inputs as needed.
    ///
    /// Not an `Iterator`: the merge never terminates by itself while inputs are
    /// open, and the blocking receive semantics do not fit `Iterator` adapters.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> MergedElement<T, M> {
        loop {
            // Candidate: the input with the smallest buffered head timestamp
            // (ties broken by input index because of the stable min_by_key scan).
            let candidate = self
                .inputs
                .iter()
                .enumerate()
                .filter_map(|(i, input)| input.buffer.front().map(|t| (i, t.ts)))
                .min_by_key(|&(i, ts)| (ts, i));

            let frontier = self.frontier();

            if let Some((idx, ts)) = candidate {
                // Safe to release the candidate if no other input can still produce an
                // earlier (or equally early, lower-index) tuple.
                let blocking = self.inputs.iter().enumerate().any(|(i, input)| {
                    input.buffer.front().is_none()
                        && !input.ended
                        && input.at_barrier.is_none()
                        && (input.promised < ts || (input.promised == ts && i < idx))
                });
                if !blocking {
                    let tuple = self.inputs[idx]
                        .buffer
                        .pop_front()
                        .expect("candidate buffer is non-empty");
                    return MergedElement::Tuple(tuple, idx);
                }
            } else {
                // No buffered tuples anywhere.
                if self.inputs.iter().all(|i| i.ended) {
                    return MergedElement::End;
                }
                // All live inputs blocked on a barrier and every pre-barrier tuple
                // released: the cut is aligned. Clear the marks and emit a single
                // barrier downstream (ended inputs count as trivially aligned).
                if self
                    .inputs
                    .iter()
                    .all(|i| i.ended || i.at_barrier.is_some())
                {
                    let epoch = self
                        .inputs
                        .iter()
                        .filter_map(|i| i.at_barrier)
                        .max()
                        .expect("at least one live input is at a barrier");
                    for input in &mut self.inputs {
                        input.at_barrier = None;
                    }
                    return MergedElement::Barrier(epoch);
                }
                // Propagate watermark progress so downstream windows can close even
                // while no tuples flow.
                if frontier > Timestamp::MIN
                    && frontier < Timestamp::MAX
                    && self.emitted_watermark.is_none_or(|w| frontier > w)
                {
                    self.emitted_watermark = Some(frontier);
                    return MergedElement::Watermark(frontier);
                }
            }

            // Receive more input. Blocking on one *specific* input can deadlock when
            // that input is quiet while another input's channel fills up and
            // back-pressures a shared upstream operator (e.g. a Multiplex feeding both
            // branches), so instead wait on every live input and fold whatever arrives
            // first. The release decision above stays purely timestamp-based, so
            // determinism is unaffected by arrival order.
            if !self.pump_any() {
                return MergedElement::End;
            }
        }
    }

    /// Watermark the merge can currently guarantee to downstream operators.
    pub fn current_watermark(&self) -> Timestamp {
        self.frontier()
    }

    /// Blocks until any live input delivers a batch and folds it in. Returns `false`
    /// when no input is live.
    fn pump_any(&mut self) -> bool {
        // Inputs blocked on a barrier are not live: consuming their post-barrier
        // elements before the cut is aligned would mix epochs. The barrier is always
        // the last element of the batch that carries it, so an at-barrier input never
        // holds unconsumed pre-barrier elements.
        let live = |input: &MergeInput<T, M>| !input.ended && input.at_barrier.is_none();
        let waitable: Vec<&dyn Ready> = self
            .inputs
            .iter()
            .filter(|input| live(input))
            .map(|input| &input.rx as &dyn Ready)
            .collect();
        if waitable.is_empty() {
            return false;
        }
        let ready = wait_any(&waitable);
        let input = self
            .inputs
            .iter_mut()
            .filter(|input| live(input))
            .nth(ready)
            .expect("index into the live inputs");
        // The receive does not block; a vanished producer folds in as an End batch.
        let batch = input.rx.recv_batch();
        input.fold_batch(batch);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{stream_channel, StreamSender};
    use std::thread;

    type Tup = Arc<GTuple<i64, ()>>;

    fn t(ts: u64, v: i64) -> Tup {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    fn feed(tx: StreamSender<i64, ()>, items: Vec<(u64, i64)>) {
        for (ts, v) in items {
            tx.send(Element::Tuple(t(ts, v))).unwrap();
            tx.send(Element::Watermark(Timestamp::from_secs(ts)))
                .unwrap();
        }
        tx.send(Element::End).unwrap();
    }

    fn drain(merge: &mut DeterministicMerge<i64, ()>) -> Vec<(u64, i64, usize)> {
        let mut out = Vec::new();
        loop {
            match merge.next() {
                MergedElement::Tuple(tuple, idx) => out.push((tuple.ts.as_secs(), tuple.data, idx)),
                MergedElement::Watermark(_) | MergedElement::Barrier(_) => {}
                MergedElement::End => break,
            }
        }
        out
    }

    #[test]
    fn merges_two_sorted_streams_in_timestamp_order() {
        let (tx1, rx1) = stream_channel(16);
        let (tx2, rx2) = stream_channel(16);
        let h1 = thread::spawn(move || feed(tx1, vec![(1, 10), (3, 30), (5, 50)]));
        let h2 = thread::spawn(move || feed(tx2, vec![(2, 20), (4, 40), (6, 60)]));
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let out = drain(&mut merge);
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(
            out.iter().map(|&(ts, ..)| ts).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn ties_are_broken_by_input_index() {
        let (tx1, rx1) = stream_channel(16);
        let (tx2, rx2) = stream_channel(16);
        // Both inputs produce a tuple at ts=5; input 0 must win.
        feed(tx1, vec![(5, 100)]);
        feed(tx2, vec![(5, 200)]);
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let out = drain(&mut merge);
        assert_eq!(out, vec![(5, 100, 0), (5, 200, 1)]);
    }

    #[test]
    fn single_input_passthrough() {
        let (tx, rx) = stream_channel(16);
        feed(tx, vec![(1, 1), (2, 2)]);
        let mut merge = DeterministicMerge::new(vec![rx]);
        assert_eq!(merge.input_count(), 1);
        let out = drain(&mut merge);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input_does_not_block_the_merge() {
        let (tx1, rx1) = stream_channel(16);
        let (tx2, rx2) = stream_channel(16);
        feed(tx1, vec![(1, 1), (2, 2), (3, 3)]);
        // Input 2 ends immediately without tuples.
        tx2.send(Element::End).unwrap();
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let out = drain(&mut merge);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn watermarks_unblock_release_of_buffered_tuples() {
        let (tx1, rx1) = stream_channel(16);
        let (tx2, rx2) = stream_channel(16);
        // Input 0 has a tuple at ts=10 buffered, input 1 sends only a watermark at 20:
        // the tuple must be released without waiting for a tuple on input 1.
        tx1.send(Element::Tuple(t(10, 1))).unwrap();
        tx2.send(Element::Watermark(Timestamp::from_secs(20)))
            .unwrap();
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        match merge.next() {
            MergedElement::Tuple(tuple, 0) => assert_eq!(tuple.ts.as_secs(), 10),
            other => panic!("expected tuple from input 0, got {other:?}"),
        }
        tx1.send(Element::End).unwrap();
        tx2.send(Element::End).unwrap();
        // Possibly a few watermarks before the merge observes both End markers.
        loop {
            match merge.next() {
                MergedElement::End => break,
                MergedElement::Watermark(_) => continue,
                other => panic!("expected watermark or end, got {other:?}"),
            }
        }
    }

    #[test]
    fn emits_watermarks_while_idle() {
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        tx1.send(Element::Watermark(Timestamp::from_secs(30)))
            .unwrap();
        tx2.send(Element::Watermark(Timestamp::from_secs(40)))
            .unwrap();
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        // Frontier is min(30, 40) = 30.
        match merge.next() {
            MergedElement::Watermark(ts) => assert_eq!(ts.as_secs(), 30),
            other => panic!("expected watermark, got {other:?}"),
        }
        tx1.send(Element::End).unwrap();
        tx2.send(Element::End).unwrap();
        loop {
            match merge.next() {
                MergedElement::End => break,
                MergedElement::Watermark(_) => continue,
                other => panic!("expected watermark or end, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn empty_merge_panics() {
        let _ = DeterministicMerge::<i64, ()>::new(vec![]);
    }

    #[test]
    fn merge_drains_partially_consumed_batches() {
        // A receiver whose batch was partially consumed through recv() still hands
        // its locally buffered elements to the merge (they make the input ready).
        let (tx1, mut rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        let mut batch = crate::channel::Batch::new();
        batch.push(Element::Tuple(t(1, 10)));
        batch.push(Element::Tuple(t(2, 20)));
        tx1.send_batch(batch).unwrap();
        tx1.send(Element::End).unwrap();
        tx2.send(Element::End).unwrap();
        drop(tx1);
        drop(tx2);
        // Consume the first element directly; the second now sits in `pending`.
        assert_eq!(rx1.recv().as_tuple().unwrap().data, 10);
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let out = drain(&mut merge);
        assert_eq!(out, vec![(2, 20, 0)]);
    }

    #[test]
    fn wait_any_receives_keep_element_accounting_accurate() {
        // Batches received after a multi-input wait must decrement the channel's
        // element counter exactly like direct receives: after a full drain the
        // receivers must report empty.
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        let h1 = thread::spawn(move || {
            let mut batch = crate::channel::Batch::new();
            batch.push(Element::Tuple(t(1, 1)));
            batch.push(Element::Tuple(t(3, 3)));
            tx1.send_batch(batch).unwrap();
            tx1.send(Element::End).unwrap();
        });
        let h2 = thread::spawn(move || {
            let mut batch = crate::channel::Batch::new();
            batch.push(Element::Tuple(t(2, 2)));
            batch.push(Element::Tuple(t(4, 4)));
            tx2.send_batch(batch).unwrap();
            tx2.send(Element::End).unwrap();
        });
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let out = drain(&mut merge);
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(out.len(), 4);
        for input in &merge.inputs {
            assert!(input.rx.is_empty(), "drained receiver must report empty");
            assert_eq!(input.rx.len(), 0);
        }
    }

    #[test]
    fn barriers_align_across_inputs_before_being_forwarded() {
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        // Input 0 reaches the barrier first, with a pre-barrier tuple still buffered;
        // input 1 trails with two tuples before its own barrier. The merge must
        // release every pre-barrier tuple, then emit exactly one aligned barrier.
        tx1.send(Element::Tuple(t(1, 10))).unwrap();
        tx1.send(Element::Barrier(1)).unwrap();
        tx2.send(Element::Tuple(t(2, 20))).unwrap();
        tx2.send(Element::Tuple(t(3, 30))).unwrap();
        tx2.send(Element::Barrier(1)).unwrap();
        tx1.send(Element::End).unwrap();
        tx2.send(Element::End).unwrap();
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let mut tuples = Vec::new();
        let mut barriers = Vec::new();
        loop {
            match merge.next() {
                MergedElement::Tuple(tuple, _) => {
                    assert!(barriers.is_empty(), "tuple released after the barrier");
                    tuples.push(tuple.ts.as_secs());
                }
                MergedElement::Barrier(epoch) => barriers.push(epoch),
                MergedElement::Watermark(_) => {}
                MergedElement::End => break,
            }
        }
        assert_eq!(tuples, vec![1, 2, 3]);
        assert_eq!(barriers, vec![1]);
    }

    #[test]
    fn barrier_aligns_against_an_ended_input() {
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        tx1.send(Element::Tuple(t(1, 10))).unwrap();
        tx1.send(Element::Barrier(7)).unwrap();
        tx1.send(Element::End).unwrap();
        // Input 1 ends without ever seeing a barrier: it counts as aligned.
        tx2.send(Element::End).unwrap();
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let mut saw_barrier = false;
        loop {
            match merge.next() {
                MergedElement::Barrier(epoch) => {
                    assert_eq!(epoch, 7);
                    saw_barrier = true;
                }
                MergedElement::End => break,
                _ => {}
            }
        }
        assert!(saw_barrier);
    }

    #[test]
    fn merge_of_many_inputs_is_globally_sorted() {
        let mut rxs = Vec::new();
        let mut handles = Vec::new();
        for k in 0..5u64 {
            let (tx, rx) = stream_channel(16);
            rxs.push(rx);
            handles.push(thread::spawn(move || {
                feed(
                    tx,
                    (0..20).map(|i| (k + i * 5, (k + i * 5) as i64)).collect(),
                )
            }));
        }
        let mut merge = DeterministicMerge::new(rxs);
        let out = drain(&mut merge);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(out.len(), 100);
        let ts: Vec<u64> = out.iter().map(|&(ts, ..)| ts).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
