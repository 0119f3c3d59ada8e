//! Deterministic fan-in: how an operator with several inputs buffers, bounds progress,
//! aligns barriers and waits.
//!
//! The paper assumes (§2) that operators with multiple input streams merge them *in
//! timestamp order*, so that query execution — and therefore provenance — is
//! deterministic and independent of thread interleaving or transmission latency. This
//! module is the one place that rule lives: Union, the keyed shard merge and the Join
//! head their chains ([`crate::fusion`]) with `drive`, which hands every `step` of the
//! protocol below to the operator's `FanIn` rule; [`DeterministicMerge`] is the same
//! protocol in pull form.
//!
//! # The protocol
//!
//! Every input is a `FanInput`: tuples received but not yet released, the highest
//! lower bound the input has `promised` (by a tuple or a watermark; across a cut by
//! its last watermark only, see below), its last watermark, the barrier it is held
//! at, and whether it has ended. Each `step` takes the first of:
//!
//! 1. **Release.** The pending head with the least `(timestamp, input index)` is
//!    released once no input without a pending tuple can still deliver an earlier one
//!    (or an equally early one on a lower index). Such an input holds a head back by
//!    its `promised` — unless it has ended or is held at a barrier: it delivers
//!    nothing until the cut is aligned, so it holds nothing back.
//! 2. **Barrier / End.** With nothing pending and every input ended or held, the cut
//!    is aligned: the marks are cleared and one barrier (the highest epoch) goes
//!    downstream; ended inputs count as aligned. With every input ended, the fan-in
//!    has ended. Every pre-barrier tuple has been released by then, so no pending
//!    tuple ever crosses a cut.
//! 3. **Watermark.** The least *progress bound* over the inputs — an input's last
//!    watermark, for an ended input nothing — once it passes the last watermark
//!    emitted. A held input bounds progress too: what it delivers after the cut may
//!    be as old as its watermark.
//! 4. **Wait** for whichever live input (neither ended nor held) delivers first.
//!    Blocking on one specific input can deadlock when it is quiet while another
//!    input's channel fills up and back-pressures a shared upstream (a Multiplex
//!    feeding both branches). The decisions above look at timestamps only, so
//!    arrival order never shows in the output.
//!
//! Rules 1 and 3 differ on a held input on purpose. Tuples released past a held input
//! may overtake the tuples it delivers after the cut, so across a cut the output is
//! *not* sorted by arrival; what orders it is the watermark, which never passes a
//! tuple released later. A fan-in reading such a stream — a Join behind a Union,
//! say — cannot take a tuple's timestamp as a promise about what follows the next
//! cut, and it cannot tell whether a barrier follows. So rule 3 bounds progress by
//! watermarks alone, and a barrier lowers an input's `promised` to its last
//! watermark, keeping rule 1's release order sorted within the next epoch.
//! Watermarks are emitted whenever nothing is releasable, not only when nothing is
//! pending: a Join purges its windows by them, and a side that always runs ahead
//! would otherwise never let the other side's window shrink.

use std::collections::VecDeque;
use std::sync::Arc;

use genealog_metrics::Counter;

use crate::channel::{wait_any, ChannelClosed, Ready, StreamReceiver};
use crate::fusion::Tail;
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple};

/// One input of a fan-in (see the module docs for the protocol).
#[derive(Debug)]
pub(crate) struct FanInput<T, M> {
    rx: StreamReceiver<T, M>,
    /// Tuples received but not yet released, in arrival (= timestamp) order.
    pending: VecDeque<Arc<GTuple<T, M>>>,
    /// Highest lower bound promised by this input (via watermarks or tuple timestamps).
    promised: Timestamp,
    /// Highest watermark this input delivered: all it promises across a cut.
    watermark: Timestamp,
    /// Epoch barrier this input has reached and is held at: it is not pumped again
    /// until every other live input reaches the same barrier. The barrier is always
    /// the last element of the batch that carries it, so a held input never holds
    /// unconsumed post-barrier elements.
    at_barrier: Option<u64>,
    ended: bool,
}

/// What the decision step sees of an input, whatever it carries.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Front {
    /// The timestamp of the oldest pending tuple.
    Head(Timestamp),
    /// Nothing pending; whatever arrives next is no older than this.
    Open(Timestamp),
    /// Nothing pending and held at the barrier of this epoch.
    Held(u64),
    /// Nothing pending, nothing to come.
    Ended,
}

impl<T, M> FanInput<T, M> {
    pub(crate) fn new(rx: StreamReceiver<T, M>) -> Self {
        FanInput {
            rx,
            pending: VecDeque::new(),
            promised: Timestamp::MIN,
            watermark: Timestamp::MIN,
            at_barrier: None,
            ended: false,
        }
    }

    fn front(&self) -> Front {
        match (self.pending.front(), self.at_barrier) {
            (Some(head), _) => Front::Head(head.ts),
            (None, _) if self.ended => Front::Ended,
            (None, Some(epoch)) => Front::Held(epoch),
            (None, None) => Front::Open(self.promised),
        }
    }

    /// What the input bounds the fan-in's watermark by: its own last watermark,
    /// nothing once it has ended. Never a tuple's timestamp: a stream a fan-in
    /// produced is sorted only between cuts.
    fn progress_bound(&self) -> Timestamp {
        if self.ended && self.pending.is_empty() {
            Timestamp::MAX
        } else {
            self.watermark
        }
    }

    /// The receiver to wait on, unless the input has ended or is held at a barrier:
    /// consuming post-barrier elements before the cut is aligned would mix epochs.
    fn live(&self) -> Option<&dyn Ready> {
        (!self.ended && self.at_barrier.is_none()).then_some(&self.rx as &dyn Ready)
    }

    /// Receives one batch and folds it in, preserving arrival order. Blocks unless
    /// the receiver is ready; a vanished producer folds in as an End batch.
    fn pump(&mut self) {
        for element in self.rx.recv_batch() {
            match element {
                Element::Tuple(t) => {
                    self.promised = self.promised.max(t.ts);
                    self.pending.push_back(t);
                }
                Element::Watermark(ts) => {
                    self.promised = self.promised.max(ts);
                    self.watermark = self.watermark.max(ts);
                }
                Element::Barrier(epoch) => {
                    // What the input delivers after the cut can be older than its
                    // last tuple (a fan-in upstream releases past its own held
                    // inputs), never older than its last watermark.
                    self.at_barrier = Some(epoch);
                    self.promised = self.watermark;
                }
                Element::End => self.ended = true,
            }
        }
    }

    /// Takes the tuple a [`Step::Release`] of this input released.
    pub(crate) fn pop(&mut self) -> Arc<GTuple<T, M>> {
        self.pending.pop_front().expect("released input has a head")
    }
}

/// The inputs of one fan-in, addressed by index so that [`step`] need not know their
/// payload types: a Join's two sides carry different ones.
pub(crate) trait FanInputs {
    fn len(&self) -> usize;
    fn front(&self, index: usize) -> Front;
    fn progress_bound(&self, index: usize) -> Timestamp;
    fn live(&self, index: usize) -> Option<&dyn Ready>;
    fn pump(&mut self, index: usize);
    /// Clears every barrier mark: the cut is aligned.
    fn resume(&mut self);
}

impl<T, M> FanInputs for Vec<FanInput<T, M>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn front(&self, index: usize) -> Front {
        self[index].front()
    }
    fn progress_bound(&self, index: usize) -> Timestamp {
        self[index].progress_bound()
    }
    fn live(&self, index: usize) -> Option<&dyn Ready> {
        self[index].live()
    }
    fn pump(&mut self, index: usize) {
        self[index].pump()
    }
    fn resume(&mut self) {
        self.iter_mut().for_each(|input| input.at_barrier = None);
    }
}

/// A keyed-window rule's inputs: the left one at index 0, the right ones behind it.
impl<L, R, M> FanInputs for (FanInput<L, M>, Vec<FanInput<R, M>>) {
    fn len(&self) -> usize {
        1 + self.1.len()
    }
    fn front(&self, index: usize) -> Front {
        match index {
            0 => self.0.front(),
            _ => self.1[index - 1].front(),
        }
    }
    fn progress_bound(&self, index: usize) -> Timestamp {
        match index {
            0 => self.0.progress_bound(),
            _ => self.1[index - 1].progress_bound(),
        }
    }
    fn live(&self, index: usize) -> Option<&dyn Ready> {
        match index {
            0 => self.0.live(),
            _ => self.1[index - 1].live(),
        }
    }
    fn pump(&mut self, index: usize) {
        match index {
            0 => self.0.pump(),
            _ => self.1[index - 1].pump(),
        }
    }
    fn resume(&mut self) {
        self.0.at_barrier = None;
        self.1.resume();
    }
}

/// What a fan-in does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// [`FanInput::pop`] this input: its head is the next tuple in timestamp order.
    Release(usize),
    /// The cut of this epoch is aligned; nothing is pending on any input.
    Barrier(u64),
    /// No tuple released from now on is older than this.
    Watermark(Timestamp),
    /// Every input has ended and nothing is pending.
    End,
}

/// Decides the next [`Step`] of a fan-in, blocking on its live inputs as needed.
/// `emitted_watermark` is the last watermark returned; it only ever rises.
pub(crate) fn step<I: FanInputs + ?Sized>(
    inputs: &mut I,
    emitted_watermark: &mut Timestamp,
) -> Step {
    loop {
        // `head`: least (timestamp, index) over the pending heads. `hold`: the same over
        // what the inputs with nothing pending may deliver before the next cut.
        let mut head: Option<(Timestamp, usize)> = None;
        let mut hold = (Timestamp::MAX, usize::MAX);
        let mut frontier = Timestamp::MAX;
        let mut epoch = None;
        for index in 0..inputs.len() {
            match inputs.front(index) {
                Front::Head(ts) => {
                    if head.is_none_or(|(least, _)| ts < least) {
                        head = Some((ts, index));
                    }
                }
                Front::Open(promised) => hold = hold.min((promised, index)),
                Front::Held(held_at) => epoch = epoch.max(Some(held_at)),
                Front::Ended => {}
            }
            frontier = frontier.min(inputs.progress_bound(index));
        }
        let open = hold.1 != usize::MAX;
        match head {
            Some(head) if head < hold => return Step::Release(head.1),
            None if !open => {
                return epoch.map_or(Step::End, |epoch| {
                    inputs.resume();
                    Step::Barrier(epoch)
                });
            }
            _ => {}
        }
        if frontier > *emitted_watermark && frontier < Timestamp::MAX {
            *emitted_watermark = frontier;
            return Step::Watermark(frontier);
        }
        let mut live = (0..inputs.len()).filter_map(|index| Some((index, inputs.live(index)?)));
        let ready = wait_any(live.clone().map(|(_, receiver)| receiver));
        let (index, _) = live.nth(ready).expect("index into the live inputs");
        inputs.pump(index);
    }
}

/// A fan-in operator's rule: what it does with each [`Step`] over its inputs `I`,
/// handing what it emits to the rest of its chain. The hooks after `release` forward
/// by default, the way [`FusedStage`](crate::operator::FusedStage)'s do; a stateful
/// rule overrides them.
pub(crate) trait FanIn<I: ?Sized, O, M>: Send + 'static {
    /// Takes the tuple the merge released: the head of input `index`, to
    /// [`FanInput::pop`].
    fn release(
        &mut self,
        inputs: &mut I,
        index: usize,
        next: &mut dyn Tail<O, M>,
    ) -> Result<(), ChannelClosed>;

    /// Takes the merge's watermark; forwards it by default.
    fn watermark(&mut self, ts: Timestamp, next: &mut dyn Tail<O, M>) -> Result<(), ChannelClosed> {
        next.watermark(ts)
    }

    /// Takes the barrier of an aligned cut, with nothing pending on any input;
    /// forwards it by default.
    fn barrier(&mut self, epoch: u64, next: &mut dyn Tail<O, M>) -> Result<(), ChannelClosed> {
        next.barrier(epoch)
    }

    /// Every input has ended; ends the rest of the chain by default.
    fn end(&mut self, next: &mut dyn Tail<O, M>) {
        next.end();
    }

    /// The watermark the fan-in emitted last before this run: none by default, the
    /// restored one for a rule that restored its state from a checkpoint.
    fn restored_watermark(&self) -> Timestamp {
        Timestamp::MIN
    }
}

/// The fan-in head: hands every step of the merge over `inputs` to `rule`, counting
/// each released tuple into `tuples_in`, until the inputs end (`Ok`) or the chain's
/// outputs close ([`ChannelClosed`]).
pub(crate) fn drive<I, O, M, R>(
    inputs: &mut I,
    rule: &mut R,
    tuples_in: &Counter,
    next: &mut dyn Tail<O, M>,
) -> Result<(), ChannelClosed>
where
    I: FanInputs + ?Sized,
    R: FanIn<I, O, M> + ?Sized,
{
    let mut emitted_watermark = rule.restored_watermark();
    loop {
        match step(inputs, &mut emitted_watermark) {
            Step::Release(index) => {
                tuples_in.inc();
                rule.release(inputs, index, next)?;
            }
            Step::Watermark(ts) => rule.watermark(ts, next)?,
            Step::Barrier(epoch) => rule.barrier(epoch, next)?,
            Step::End => {
                rule.end(next);
                return Ok(());
            }
        }
    }
}

/// An element produced by the merge: tuples in timestamp order between cuts.
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

/// Merges `n` timestamp-sorted input streams of one type into one element stream,
/// timestamp-sorted between cuts. Ties on the timestamp are broken by input index,
/// then by arrival order within an input, which keeps the merge total and
/// reproducible.
#[derive(Debug)]
pub struct DeterministicMerge<T, M> {
    inputs: Vec<FanInput<T, M>>,
    emitted_watermark: Timestamp,
}

impl<T, M> DeterministicMerge<T, M> {
    /// Creates a merge over the given input streams.
    ///
    /// # Panics
    /// Panics if `receivers` is empty.
    pub fn new(receivers: Vec<StreamReceiver<T, M>>) -> Self {
        assert!(!receivers.is_empty(), "merge requires at least one input");
        DeterministicMerge {
            inputs: receivers.into_iter().map(FanInput::new).collect(),
            emitted_watermark: Timestamp::MIN,
        }
    }

    /// Returns the next merged element, blocking on the inputs as needed.
    ///
    /// Not an `Iterator`: the merge never terminates by itself while inputs are
    /// open, and the blocking receive semantics do not fit `Iterator` adapters.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> MergedElement<T, M> {
        match step(&mut self.inputs, &mut self.emitted_watermark) {
            Step::Release(index) => MergedElement::Tuple(self.inputs[index].pop(), index),
            Step::Watermark(ts) => MergedElement::Watermark(ts),
            Step::Barrier(epoch) => MergedElement::Barrier(epoch),
            Step::End => MergedElement::End,
        }
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

    /// Input 0 waits at its barrier while input 1, far ahead in event time, runs up to
    /// its own. Input 1's tuple may overtake what input 0 delivers after the cut, but
    /// no watermark may: the held input still bounds progress by its watermark. (T11
    /// carries no watermark of its own, so none follows it until input 0 ends.)
    #[test]
    fn held_input_bounds_the_watermark_by_what_it_delivers_after_the_cut() {
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        let wm = |secs| Element::Watermark(Timestamp::from_secs(secs));
        let schedule_1 = [Element::Tuple(t(10, 1)), wm(10), Element::Barrier(1)];
        let after_cut_1 = [Element::Tuple(t(11, 2)), Element::End];
        let schedule_2 = [
            Element::Tuple(t(100, 3)),
            wm(100),
            Element::Barrier(1),
            Element::End,
        ];
        for element in schedule_1.into_iter().chain(after_cut_1) {
            tx1.send(element).unwrap();
        }
        for element in schedule_2 {
            tx2.send(element).unwrap();
        }
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let mut out = Vec::new();
        loop {
            out.push(match merge.next() {
                MergedElement::Tuple(tuple, _) => format!("T{}", tuple.ts.as_secs()),
                MergedElement::Watermark(ts) => format!("W{}", ts.as_secs()),
                MergedElement::Barrier(epoch) => format!("B{epoch}"),
                MergedElement::End => break,
            });
        }
        assert_eq!(out, ["T10", "T100", "W10", "B1", "T11", "W100"]);
    }

    /// An input fed by another fan-in can deliver, after a cut, tuples older than
    /// the ones it delivered before the cut (see the module docs): input 1 below
    /// is such a merge's output. Across the cut it still promises only its last
    /// watermark, so no watermark may pass the tuple it delivers after the cut,
    /// even while input 0 has run far ahead.
    #[test]
    fn after_a_cut_an_input_promises_its_watermark_not_its_latest_tuple() {
        let (tx1, rx1) = stream_channel::<i64, ()>(16);
        let (tx2, rx2) = stream_channel::<i64, ()>(16);
        let wm = |secs| Element::Watermark(Timestamp::from_secs(secs));
        let input_1 = [
            Element::Tuple(t(15, 1)),
            wm(15),
            Element::Barrier(1),
            Element::Tuple(t(152, 2)),
            wm(152),
            Element::End,
        ];
        let input_2 = [
            Element::Tuple(t(1, 3)),
            wm(1),
            Element::Tuple(t(112, 4)),
            Element::Barrier(1),
            Element::Tuple(t(30, 5)),
            Element::End,
        ];
        for element in input_1 {
            tx1.send(element).unwrap();
        }
        for element in input_2 {
            tx2.send(element).unwrap();
        }
        let mut merge = DeterministicMerge::new(vec![rx1, rx2]);
        let mut watermark = Timestamp::MIN;
        let mut tuples = Vec::new();
        loop {
            match merge.next() {
                MergedElement::Tuple(tuple, _) => {
                    assert!(
                        tuple.ts >= watermark,
                        "{tuple:?} below watermark {watermark:?}"
                    );
                    tuples.push(tuple.data);
                }
                MergedElement::Watermark(ts) => watermark = ts,
                MergedElement::Barrier(_) => {}
                MergedElement::End => break,
            }
        }
        assert_eq!(tuples, [3, 1, 4, 5, 2]);
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
