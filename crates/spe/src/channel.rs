//! Batched stream channels connecting operators, and the output-port plumbing used by
//! the typed query builder.
//!
//! # Batched transport
//!
//! Operators exchange [`Batch`]es of [`Element`]s rather than individual elements, so
//! the per-tuple synchronisation cost of the underlying channel (lock, wake-up,
//! cache-line transfer) is amortised over [`BatchConfig::size`] tuples. The flush
//! policy preserves the engine's time semantics:
//!
//! * a **data tuple** is appended to the current batch, which is flushed once it
//!   reaches the configured size;
//! * a **watermark** is appended *and the batch is flushed immediately*, so a
//!   watermark is never reordered relative to the data elements that precede it and
//!   downstream windows close with unchanged timing;
//! * the **end-of-stream marker** likewise flushes the partial batch, so no element is
//!   ever stranded in a buffer.
//!
//! With `BatchConfig::size == 1` every element travels alone and the transport is
//! behaviourally identical to the original per-element design. Back-pressure is
//! retained: the channel is bounded in *batches*, so a fast producer still blocks when
//! the consumer falls behind — except that a lone watermark sent to a full channel
//! whose last queued batch is a lone watermark advances that one instead of taking a
//! slot of its own. A consumer busy behind a fused chain (a sink behind a fan-in,
//! say) would otherwise block a producer that only announces progress, and with it
//! everything upstream, once a few watermarks fill its channel.
//!
//! Every stream produced by an operator is consumed by **exactly one** downstream
//! operator (fan-out is expressed with the Multiplex operator, exactly as in the
//! paper's operator model). The builder hands the producing operator an
//! [`OutputSlot`]; when a consumer is attached, the slot is connected to the sending
//! half of a bounded channel and the consumer receives the receiving half. Unconnected
//! slots are rejected at deployment time unless explicitly discarded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::queue::{self, bounded, Receiver, Sender, Waker};
pub(crate) use crate::queue::{wait_any, Ready};
use crate::time::Timestamp;
use crate::tuple::{Element, GTuple};

/// Per-operator batching configuration, threaded through the query builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of data elements accumulated before a batch is flushed downstream.
    /// Watermarks and end-of-stream markers always flush immediately.
    pub size: usize,
}

impl BatchConfig {
    /// A configuration flushing after every element (the unbatched seed behaviour).
    pub const fn unbatched() -> Self {
        BatchConfig { size: 1 }
    }

    /// A configuration flushing after `size` elements (clamped to at least 1).
    pub const fn with_size(size: usize) -> Self {
        BatchConfig {
            size: if size == 0 { 1 } else { size },
        }
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { size: 32 }
    }
}

/// Converts an element-level buffer budget into a channel bound counted in batches.
///
/// The query builder configures channel capacity in *elements*; the underlying channel
/// is bounded in *batches*. Ceiling division guarantees the element budget is never
/// shrunk: `capacity = 100, batch_size = 32` yields 4 batch slots (128 elements of
/// head-room), not 3 (96).
///
/// The budget can only ever be *exceeded*, and only by the single-slot floor: a batch
/// size larger than the capacity still leaves one full batch in flight, which holds
/// `batch_size > capacity` elements. That over-allocation is not silent — it is
/// reported by [`batch_budget_checked`] and emitted as a
/// `batch-budget-over-allocation` event on the global
/// [`Tracer`](genealog_metrics::Tracer), once per distinct `capacity`/`batch_size`
/// combination (later occurrences of the same combination are routine once the
/// first is known; use [`batch_budget_checked`] to detect every case
/// programmatically). `capacity` here is the *per-channel* budget, which for shard
/// channels is the configured capacity already divided over the fan-out.
pub fn batch_budget(capacity: usize, batch_size: usize) -> usize {
    let (slots, over_allocated) = batch_budget_checked(capacity, batch_size);
    if over_allocated {
        genealog_metrics::Tracer::global().emit_once(
            "batch-budget-over-allocation",
            format!("capacity={capacity},batch={batch_size}"),
            format!(
                "batch size {batch_size} exceeds the channel's element budget of \
                 {capacity}; the one-batch floor over-allocates the channel to \
                 {batch_size} buffered elements"
            ),
        );
    }
    slots
}

/// [`batch_budget`] plus an explicit over-allocation flag.
///
/// Returns `(slots, over_allocated)`: `slots` is the channel bound in batches and
/// `over_allocated` is true exactly when the one-batch floor grants the edge *more*
/// elements than the configured capacity (i.e. `batch_size > capacity`, including the
/// degenerate `capacity == 0`). Callers that must not exceed an element budget can
/// use the flag to reject or clamp the configuration instead of relying on the log.
pub fn batch_budget_checked(capacity: usize, batch_size: usize) -> (usize, bool) {
    let size = batch_size.max(1);
    let slots = capacity.div_ceil(size).max(1);
    (slots, size > capacity)
}

/// Elements the first [`Batch::push`] makes room for. `Vec` alone would start at 4
/// and pay one more reallocation on the way to every full batch; measured on
/// `chain_agg`, that step costs GeneaLog 4–5 % of peak memory (10 of 10 pairs).
const FIRST_RUN: usize = 8;

/// A run of stream elements travelling through one channel send: one heap buffer,
/// allocated by the first push (or by [`Batch::with_capacity`]) and moved by pointer.
#[derive(Debug)]
pub struct Batch<T, M> {
    elements: Vec<Element<T, M>>,
}

impl<T, M> Default for Batch<T, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, M> Batch<T, M> {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Batch {
            elements: Vec::new(),
        }
    }

    /// Creates an empty batch sized for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Batch {
            elements: Vec::with_capacity(capacity),
        }
    }

    /// Creates a batch holding a single element.
    pub fn singleton(element: Element<T, M>) -> Self {
        let mut batch = Batch::new();
        batch.push(element);
        batch
    }

    /// Creates a batch holding only the end-of-stream marker.
    pub fn end() -> Self {
        Batch::singleton(Element::End)
    }

    /// Appends an element. The first push into an unsized batch allocates room for
    /// eight.
    pub fn push(&mut self, element: Element<T, M>) {
        if self.elements.capacity() == 0 {
            self.elements.reserve(FIRST_RUN);
        }
        self.elements.push(element);
    }

    /// Number of elements in the batch.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the batch holds no element.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Iterator over the contained elements.
    pub fn iter(&self) -> std::slice::Iter<'_, Element<T, M>> {
        self.elements.iter()
    }
}

impl<T, M> IntoIterator for Batch<T, M> {
    type Item = Element<T, M>;
    type IntoIter = std::vec::IntoIter<Element<T, M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.elements.into_iter()
    }
}

impl<'a, T, M> IntoIterator for &'a Batch<T, M> {
    type Item = &'a Element<T, M>;
    type IntoIter = std::slice::Iter<'a, Element<T, M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T, M> Extend<Element<T, M>> for Batch<T, M> {
    fn extend<I: IntoIterator<Item = Element<T, M>>>(&mut self, iter: I) {
        self.elements.extend(iter);
    }
}

/// Error returned when sending on a stream whose consumer has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelClosed;

impl std::fmt::Display for ChannelClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "downstream operator has shut down")
    }
}

impl std::error::Error for ChannelClosed {}

/// Sending half of a stream channel (batch-granular).
#[derive(Debug)]
pub struct StreamSender<T, M> {
    tx: Sender<Batch<T, M>>,
    /// Elements currently queued in the channel (shared with the receiver so
    /// [`StreamReceiver::len`] stays element-accurate under batching).
    queued_elements: Arc<AtomicUsize>,
    /// Optional back-pressure stall counter, incremented whenever a send found the
    /// channel full and had to block.
    stalls: Option<Arc<genealog_metrics::Counter>>,
}

impl<T, M> Clone for StreamSender<T, M> {
    fn clone(&self) -> Self {
        StreamSender {
            tx: self.tx.clone(),
            queued_elements: Arc::clone(&self.queued_elements),
            stalls: self.stalls.clone(),
        }
    }
}

/// Receiving half of a stream channel.
///
/// The receiver unpacks arriving batches transparently: [`StreamReceiver::recv`]
/// yields one element at a time from an internal cursor, while
/// [`StreamReceiver::recv_batch`] hands over a whole batch for operators that iterate
/// their input in bulk.
#[derive(Debug)]
pub struct StreamReceiver<T, M> {
    rx: Receiver<Batch<T, M>>,
    /// Elements of partially consumed batches, in arrival order.
    pending: VecDeque<Element<T, M>>,
    /// Elements currently queued in the channel (shared with the senders).
    queued_elements: Arc<AtomicUsize>,
    /// Optional receiver-park counter, incremented whenever a receive found the
    /// channel empty and had to block.
    parks: Option<Arc<genealog_metrics::Counter>>,
}

/// Creates a bounded stream channel with the given capacity (in batches).
///
/// Bounded capacity is what provides back-pressure: a fast upstream operator blocks
/// when the downstream operator cannot keep up, exactly like the queue-based
/// communication of the paper's SPE instances. Under batching the bound counts
/// *batches*, so the element-level buffer scales with the configured batch size.
pub fn stream_channel<T, M>(capacity: usize) -> (StreamSender<T, M>, StreamReceiver<T, M>) {
    let (tx, rx) = bounded(capacity.max(1));
    let queued_elements = Arc::new(AtomicUsize::new(0));
    (
        StreamSender {
            tx,
            queued_elements: Arc::clone(&queued_elements),
            stalls: None,
        },
        StreamReceiver {
            rx,
            pending: VecDeque::new(),
            queued_elements,
            parks: None,
        },
    )
}

impl<T, M> StreamSender<T, M> {
    /// Sends a single element (as a one-element batch), blocking while the channel is
    /// full.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the consumer has been dropped.
    pub fn send(&self, element: Element<T, M>) -> Result<(), ChannelClosed> {
        self.send_batch(Batch::singleton(element))
    }

    /// Sends a whole batch, blocking while the channel is full (a lone watermark
    /// instead advances a lone watermark queued last, see the module docs). Empty
    /// batches are dropped without a channel operation.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the consumer has been dropped.
    pub fn send_batch(&self, batch: Batch<T, M>) -> Result<(), ChannelClosed> {
        if batch.is_empty() {
            return Ok(());
        }
        if let [Element::Watermark(ts)] = batch.elements.as_slice() {
            // A consumer that is behind learns the later watermark without first
            // reading the earlier one, which tells it nothing the later one does
            // not. Nothing else folds, so no tuple or barrier moves.
            let folded = self
                .tx
                .fold_if_full(|last| match last.elements.as_mut_slice() {
                    [Element::Watermark(queued)] => {
                        *queued = (*queued).max(*ts);
                        true
                    }
                    _ => false,
                });
            if folded {
                return Ok(());
            }
        }
        let elements = batch.len();
        self.queued_elements.fetch_add(elements, Ordering::Relaxed);
        match self.tx.send(batch) {
            Ok(waited) => {
                if let (true, Some(stalls)) = (waited, &self.stalls) {
                    stalls.inc();
                }
                Ok(())
            }
            Err(queue::Disconnected) => {
                self.queued_elements.fetch_sub(elements, Ordering::Relaxed);
                Err(ChannelClosed)
            }
        }
    }

    /// Attaches a back-pressure stall counter: every send that found the channel
    /// full and had to block bumps it once. Called by the query builder when the
    /// owning query has metrics enabled.
    pub fn set_stall_counter(&mut self, counter: Arc<genealog_metrics::Counter>) {
        self.stalls = Some(counter);
    }
}

/// What [`wait_any`] waits for on a stream input: [`StreamReceiver::recv_batch`] can
/// complete without blocking — elements of a partially consumed batch are buffered
/// locally, a batch is queued, or the producer is gone. Multi-input operators wait
/// there, over inputs of whatever payload types, instead of committing to a blocking
/// receive on one input while another fills up and back-pressures a shared upstream.
impl<T, M> Ready for StreamReceiver<T, M> {
    fn is_ready(&self) -> bool {
        !self.pending.is_empty() || self.rx.is_ready()
    }

    fn watch(&self, waker: &Arc<Waker>) {
        self.rx.watch(waker);
    }

    fn unwatch(&self, waker: &Arc<Waker>) {
        self.rx.unwatch(waker);
    }
}

impl<T, M> StreamReceiver<T, M> {
    /// Receives the next element, blocking until one is available.
    ///
    /// Returns [`Element::End`] if the producer has been dropped without sending an
    /// explicit end-of-stream marker, so consumers can treat both cases uniformly.
    pub fn recv(&mut self) -> Element<T, M> {
        loop {
            if let Some(element) = self.pending.pop_front() {
                return element;
            }
            match self.rx.recv_counting(self.parks.as_deref()) {
                Ok(batch) => {
                    self.queued_elements
                        .fetch_sub(batch.len(), Ordering::Relaxed);
                    self.pending.extend(batch);
                }
                Err(_) => return Element::End,
            }
        }
    }

    /// Receives the next run of elements, blocking until at least one is available.
    ///
    /// Returns a batch holding only [`Element::End`] if the producer has been dropped
    /// without an explicit end-of-stream marker.
    pub fn recv_batch(&mut self) -> Batch<T, M> {
        if !self.pending.is_empty() {
            let mut batch = Batch::with_capacity(self.pending.len());
            batch.extend(self.pending.drain(..));
            return batch;
        }
        match self.rx.recv_counting(self.parks.as_deref()) {
            Ok(batch) => {
                self.queued_elements
                    .fetch_sub(batch.len(), Ordering::Relaxed);
                batch
            }
            Err(_) => Batch::end(),
        }
    }

    /// Attaches a receiver-park counter: every receive that found the channel empty
    /// and had to block bumps it once. Called by the query builder when the owning
    /// query has metrics enabled.
    pub fn set_park_counter(&mut self, counter: Arc<genealog_metrics::Counter>) {
        self.parks = Some(counter);
    }

    /// Shared element-depth cell of the channel, for wiring queue-depth gauges.
    /// Counts elements queued in the channel (not the receiver's locally buffered
    /// run of a partially consumed batch).
    pub fn depth_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.queued_elements)
    }

    /// Number of elements currently buffered: queued in the channel plus locally
    /// buffered elements of a partially consumed batch.
    pub fn len(&self) -> usize {
        self.queued_elements.load(Ordering::Relaxed) + self.pending.len()
    }

    /// True if nothing is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
enum SlotState<T, M> {
    Unconnected,
    Connected(StreamSender<T, M>),
    Discard,
}

/// The output port of an operator for one of its output streams.
///
/// Cloning an `OutputSlot` yields a handle to the *same* port (the builder keeps one
/// clone inside the producing operator and one inside the [`StreamRef`] it returns).
/// The slot carries the [`BatchConfig`] the builder assigned to the producing
/// operator; [`OutputSlot::open`] bakes it into the returned [`OutputHandle`].
///
/// [`StreamRef`]: crate::query::StreamRef
#[derive(Debug)]
pub struct OutputSlot<T, M> {
    state: Arc<Mutex<SlotState<T, M>>>,
    batch: BatchConfig,
}

impl<T, M> Clone for OutputSlot<T, M> {
    fn clone(&self) -> Self {
        OutputSlot {
            state: Arc::clone(&self.state),
            batch: self.batch,
        }
    }
}

impl<T, M> Default for OutputSlot<T, M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, M> OutputSlot<T, M> {
    /// Creates a new, unconnected output slot that flushes after every element
    /// (matching the pre-batching behaviour for direct users of the channel layer).
    pub fn new() -> Self {
        Self::with_config(BatchConfig::unbatched())
    }

    /// Creates a new, unconnected output slot with the given batching configuration.
    pub fn with_config(batch: BatchConfig) -> Self {
        OutputSlot {
            state: Arc::new(Mutex::new(SlotState::Unconnected)),
            batch,
        }
    }

    /// The batching configuration operators opened from this slot will use.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch
    }

    /// Connects the slot to a consumer's channel.
    ///
    /// # Panics
    /// Panics if the slot is already connected or discarded; the query builder
    /// guarantees this cannot happen because stream handles are consumed by value.
    pub fn connect(&self, sender: StreamSender<T, M>) {
        let mut state = self.state.lock();
        match &*state {
            SlotState::Unconnected => *state = SlotState::Connected(sender),
            _ => panic!("output slot connected twice"),
        }
    }

    /// Marks the slot as intentionally unconnected: elements sent to it are dropped.
    pub fn mark_discard(&self) {
        let mut state = self.state.lock();
        if matches!(*state, SlotState::Unconnected) {
            *state = SlotState::Discard;
        }
    }

    /// Whether a consumer (or an explicit discard) has been attached.
    pub fn is_connected(&self) -> bool {
        !matches!(*self.state.lock(), SlotState::Unconnected)
    }

    /// Resolves the slot into the handle the operator uses at run time.
    pub fn open(&self) -> OutputHandle<T, M> {
        let state = self.state.lock();
        let sender = match &*state {
            SlotState::Connected(sender) => Some(sender.clone()),
            SlotState::Discard | SlotState::Unconnected => None,
        };
        OutputHandle {
            sender,
            buffer: Batch::new(),
            batch_size: self.batch.size.max(1),
        }
    }
}

/// Run-time handle an operator uses to emit elements on one output stream.
///
/// The handle accumulates data tuples into a [`Batch`] and flushes it when the batch
/// reaches the configured size, when a watermark or end-of-stream marker is emitted,
/// or when [`OutputHandle::flush`] is called explicitly. A handle backed by a
/// discarded slot silently drops everything, which keeps operator code free of
/// special cases.
#[derive(Debug)]
pub struct OutputHandle<T, M> {
    sender: Option<StreamSender<T, M>>,
    buffer: Batch<T, M>,
    batch_size: usize,
}

impl<T, M> Clone for OutputHandle<T, M> {
    fn clone(&self) -> Self {
        OutputHandle {
            sender: self.sender.clone(),
            buffer: Batch::new(),
            batch_size: self.batch_size,
        }
    }
}

impl<T, M> OutputHandle<T, M> {
    /// Creates a handle that drops every element (used for discarded outputs).
    pub fn discard() -> Self {
        OutputHandle {
            sender: None,
            buffer: Batch::new(),
            batch_size: 1,
        }
    }

    /// The batch size this handle flushes at.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Emits a data tuple, flushing the accumulated batch once it is full.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down.
    pub fn send_tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> {
        if self.sender.is_none() {
            return Ok(());
        }
        self.buffer.push(Element::Tuple(tuple));
        if self.buffer.len() >= self.batch_size {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Emits a watermark. Watermarks flush the batch immediately so they are never
    /// reordered relative to preceding data elements.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down.
    pub fn send_watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        if self.sender.is_none() {
            return Ok(());
        }
        self.buffer.push(Element::Watermark(ts));
        self.flush()
    }

    /// Emits an epoch barrier. Like watermarks, barriers flush the batch
    /// immediately, so a barrier is always the *last* element of the batch that
    /// carries it — fan-in alignment relies on this to know that an input which
    /// delivered a barrier has no pre-barrier elements left buffered.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down.
    pub fn send_barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        if self.sender.is_none() {
            return Ok(());
        }
        self.buffer.push(Element::Barrier(epoch));
        self.flush()
    }

    /// Emits the end-of-stream marker, flushing any partial batch ahead of it.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down.
    pub fn send_end(&mut self) -> Result<(), ChannelClosed> {
        if self.sender.is_none() {
            return Ok(());
        }
        self.buffer.push(Element::End);
        self.flush()
    }

    /// Forwards an already-built element under the regular flush policy.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down.
    pub fn send(&mut self, element: Element<T, M>) -> Result<(), ChannelClosed> {
        match element {
            Element::Tuple(tuple) => self.send_tuple(tuple),
            Element::Watermark(ts) => self.send_watermark(ts),
            Element::Barrier(epoch) => self.send_barrier(epoch),
            Element::End => self.send_end(),
        }
    }

    /// Flushes the accumulated batch downstream, if any.
    ///
    /// # Errors
    /// Returns [`ChannelClosed`] if the downstream operator has shut down; the
    /// buffered elements are dropped in that case, mirroring the pre-batching
    /// behaviour of a failed send.
    pub fn flush(&mut self) -> Result<(), ChannelClosed> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let batch = std::mem::take(&mut self.buffer);
        match &self.sender {
            Some(tx) => tx.send_batch(batch),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
    }

    #[test]
    fn channel_round_trip_preserves_order() {
        let (tx, mut rx) = stream_channel::<i64, ()>(8);
        tx.send(Element::Tuple(tuple(1, 10))).unwrap();
        tx.send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        tx.send(Element::End).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 10);
        assert!(matches!(rx.recv(), Element::Watermark(_)));
        assert!(rx.recv().is_end());
    }

    #[test]
    fn batched_send_preserves_order_across_batches() {
        let (tx, mut rx) = stream_channel::<i64, ()>(8);
        let mut batch = Batch::new();
        batch.push(Element::Tuple(tuple(1, 1)));
        batch.push(Element::Tuple(tuple(2, 2)));
        batch.push(Element::Watermark(Timestamp::from_secs(2)));
        tx.send_batch(batch).unwrap();
        tx.send_batch(Batch::end()).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        assert_eq!(rx.recv().as_tuple().unwrap().data, 2);
        assert!(matches!(rx.recv(), Element::Watermark(_)));
        assert!(rx.recv().is_end());
    }

    #[test]
    fn recv_batch_returns_whole_runs() {
        let (tx, mut rx) = stream_channel::<i64, ()>(8);
        let mut batch = Batch::with_capacity(2);
        batch.push(Element::Tuple(tuple(1, 1)));
        batch.push(Element::Tuple(tuple(2, 2)));
        tx.send_batch(batch).unwrap();
        let received = rx.recv_batch();
        assert_eq!(received.len(), 2);
        drop(tx);
        assert!(rx.recv_batch().iter().any(|e| e.is_end()));
    }

    #[test]
    fn recv_batch_drains_pending_elements_first() {
        let (tx, mut rx) = stream_channel::<i64, ()>(8);
        let mut batch = Batch::new();
        batch.push(Element::Tuple(tuple(1, 1)));
        batch.push(Element::Tuple(tuple(2, 2)));
        tx.send_batch(batch).unwrap();
        // recv() consumes the first element, leaving one pending.
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        assert!(
            rx.is_ready(),
            "the locally buffered element makes the input ready"
        );
        let rest = rx.recv_batch();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.iter().next().unwrap().as_tuple().unwrap().data, 2);
    }

    #[test]
    fn recv_on_dropped_producer_yields_end() {
        let (tx, mut rx) = stream_channel::<i64, ()>(4);
        drop(tx);
        assert!(rx.recv().is_end());
    }

    #[test]
    fn send_to_dropped_consumer_errors() {
        let (tx, rx) = stream_channel::<i64, ()>(4);
        drop(rx);
        assert_eq!(tx.send(Element::End), Err(ChannelClosed));
    }

    #[test]
    fn dropped_consumer_releases_queued_tuples_while_the_slot_keeps_its_sender() {
        let slot = OutputSlot::<i64, ()>::new();
        let (tx, rx) = stream_channel(4);
        slot.connect(tx);
        let tuples: Vec<_> = (0..4).map(|i| tuple(i, i as i64)).collect();
        let mut handle = slot.open();
        for t in &tuples {
            handle.send_tuple(Arc::clone(t)).unwrap();
        }
        assert!(tuples.iter().all(|t| Arc::strong_count(t) == 2));
        drop(rx);
        // The slot and the handle still hold sender clones; the tuples are free.
        assert!(tuples.iter().all(|t| Arc::strong_count(t) == 1));
        assert_eq!(handle.send_tuple(tuple(9, 9)), Err(ChannelClosed));
    }

    /// One producer, one consumer, `batches` runs of 1..=3 numbered tuples through a
    /// channel of `capacity` batches: every element arrives once, in order.
    fn stress(capacity: usize, batches: u64) {
        let (tx, mut rx) = stream_channel::<u64, ()>(capacity);
        let progress = Arc::new(AtomicUsize::new(0));
        let consumed = Arc::clone(&progress);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            for run in 0..batches {
                let mut batch = Batch::with_capacity(3);
                for _ in 0..=run % 3 {
                    let t = GTuple::new(Timestamp::from_millis(next), 0, next, ());
                    batch.push(Element::Tuple(Arc::new(t)));
                    next += 1;
                }
                tx.send_batch(batch).unwrap();
            }
            tx.send(Element::End).unwrap();
            next
        });
        let consumer = std::thread::spawn(move || {
            let (mut received, mut runs) = (0u64, 0u64);
            loop {
                for element in rx.recv_batch() {
                    match element {
                        Element::Tuple(t) => {
                            assert_eq!(t.data, received, "out of order or duplicated");
                            received += 1;
                        }
                        Element::End => return (received, runs),
                        other => panic!("unexpected {other:?}"),
                    }
                }
                runs += 1;
                consumed.store(runs as usize, Ordering::Relaxed);
            }
        });
        // Both ends are joined only once they are known to have finished, so a lost
        // wake-up fails the test within seconds of the stall instead of hanging it.
        let mut last_progress = (0, std::time::Instant::now());
        while !(producer.is_finished() && consumer.is_finished()) {
            let runs = progress.load(Ordering::Relaxed);
            if runs != last_progress.0 {
                last_progress = (runs, std::time::Instant::now());
            }
            assert!(
                last_progress.1.elapsed() < std::time::Duration::from_secs(5),
                "capacity {capacity}: the channel stalled after {runs} batches"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let sent = producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (sent, batches));
    }

    #[test]
    fn two_thread_stress_keeps_order_and_count_at_capacity_one_and_two() {
        stress(1, 100_000);
        stress(2, 100_000);
    }

    #[test]
    fn output_slot_lifecycle() {
        let slot = OutputSlot::<i64, ()>::new();
        assert!(!slot.is_connected());
        let (tx, mut rx) = stream_channel(4);
        slot.connect(tx);
        assert!(slot.is_connected());
        let mut handle = slot.open();
        handle.send_tuple(tuple(3, 7)).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 7);
    }

    #[test]
    #[should_panic(expected = "connected twice")]
    fn output_slot_rejects_double_connection() {
        let slot = OutputSlot::<i64, ()>::new();
        let (tx1, _rx1) = stream_channel(1);
        let (tx2, _rx2) = stream_channel(1);
        slot.connect(tx1);
        slot.connect(tx2);
    }

    #[test]
    fn discarded_slot_drops_elements() {
        let slot = OutputSlot::<i64, ()>::new();
        slot.mark_discard();
        assert!(slot.is_connected());
        let mut handle = slot.open();
        handle.send_tuple(tuple(1, 1)).unwrap();
        handle.send_watermark(Timestamp::from_secs(1)).unwrap();
        handle.send_end().unwrap();
    }

    #[test]
    fn discard_does_not_override_connection() {
        let slot = OutputSlot::<i64, ()>::new();
        let (tx, mut rx) = stream_channel(4);
        slot.connect(tx);
        slot.mark_discard();
        slot.open().send_tuple(tuple(1, 5)).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 5);
    }

    #[test]
    fn channel_capacity_provides_backpressure() {
        let (tx, mut rx) = stream_channel::<i64, ()>(2);
        tx.send(Element::Tuple(tuple(1, 1))).unwrap();
        tx.send(Element::Tuple(tuple(2, 2))).unwrap();
        assert_eq!(rx.len(), 2);
        assert!(!rx.is_empty());
        // A third send would block; spawn a thread to verify it completes after a recv.
        let tx2 = tx.clone();
        let handle = std::thread::spawn(move || tx2.send(Element::Tuple(tuple(3, 3))));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn backpressure_applies_to_full_batches_too() {
        let (tx, mut rx) = stream_channel::<i64, ()>(2);
        for i in 0..2 {
            let mut batch = Batch::new();
            batch.push(Element::Tuple(tuple(i, i as i64)));
            batch.push(Element::Tuple(tuple(i, i as i64 + 10)));
            tx.send_batch(batch).unwrap();
        }
        // The channel holds 2 batches (4 elements); a third batch must block until
        // the consumer drains a whole batch.
        let tx2 = tx.clone();
        let sender = std::thread::spawn(move || tx2.send_batch(Batch::singleton(Element::End)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!sender.is_finished(), "third batch must be back-pressured");
        let first = rx.recv_batch();
        assert_eq!(first.len(), 2);
        sender.join().unwrap().unwrap();
    }

    #[test]
    fn output_handle_accumulates_until_batch_is_full() {
        let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::with_size(3));
        let (tx, mut rx) = stream_channel(8);
        slot.connect(tx);
        let mut handle = slot.open();
        assert_eq!(handle.batch_size(), 3);
        handle.send_tuple(tuple(1, 1)).unwrap();
        handle.send_tuple(tuple(2, 2)).unwrap();
        assert!(rx.is_empty(), "partial batch must not be flushed yet");
        handle.send_tuple(tuple(3, 3)).unwrap();
        let batch = rx.recv_batch();
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn watermark_flushes_partial_batch_in_order() {
        let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::with_size(100));
        let (tx, mut rx) = stream_channel(8);
        slot.connect(tx);
        let mut handle = slot.open();
        handle.send_tuple(tuple(1, 1)).unwrap();
        handle.send_tuple(tuple(2, 2)).unwrap();
        handle.send_watermark(Timestamp::from_secs(2)).unwrap();
        // One batch arrives immediately, data strictly before the watermark.
        let batch = rx.recv_batch();
        let kinds: Vec<bool> = batch.iter().map(|e| e.as_tuple().is_some()).collect();
        assert_eq!(kinds, vec![true, true, false]);
    }

    #[test]
    fn end_flushes_partial_batch() {
        let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::with_size(100));
        let (tx, mut rx) = stream_channel(8);
        slot.connect(tx);
        let mut handle = slot.open();
        handle.send_tuple(tuple(1, 7)).unwrap();
        handle.send_end().unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 7);
        assert!(rx.recv().is_end());
    }

    #[test]
    fn len_counts_elements_not_batches() {
        let (tx, mut rx) = stream_channel::<i64, ()>(8);
        let mut batch = Batch::new();
        batch.push(Element::Tuple(tuple(1, 1)));
        batch.push(Element::Tuple(tuple(2, 2)));
        batch.push(Element::Tuple(tuple(3, 3)));
        tx.send_batch(batch).unwrap();
        tx.send(Element::Tuple(tuple(4, 4))).unwrap();
        assert_eq!(rx.len(), 4, "two batches holding four elements");
        // Consuming one element unpacks the first batch into the pending buffer.
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        assert_eq!(rx.len(), 3);
        assert!(!rx.is_empty());
    }

    #[test]
    fn batch_budget_uses_ceiling_division() {
        // Exact division: unchanged.
        assert_eq!(batch_budget(1024, 32), 32);
        // Odd capacity/batch combinations round *up*, never shrinking the budget.
        assert_eq!(batch_budget(100, 32), 4); // 128 elements, not 96
        assert_eq!(batch_budget(1000, 128), 8); // 1024 elements, not 896
        assert_eq!(batch_budget(3, 2), 2);
        // A batch larger than the capacity still leaves one batch slot.
        assert_eq!(batch_budget(16, 100), 1);
        // Degenerate inputs are clamped to a working channel.
        assert_eq!(batch_budget(0, 8), 1);
        assert_eq!(batch_budget(8, 0), 8);
        assert_eq!(batch_budget(1, 1), 1);
    }

    #[test]
    fn batch_budget_signals_over_allocation() {
        // Within budget: rounding up stays at or below one extra batch, no signal.
        assert_eq!(batch_budget_checked(1024, 32), (32, false));
        assert_eq!(batch_budget_checked(100, 32), (4, false));
        assert_eq!(batch_budget_checked(3, 2), (2, false));
        assert_eq!(batch_budget_checked(1, 1), (1, false));
        // The one-batch floor grants MORE elements than configured: flagged.
        assert_eq!(batch_budget_checked(16, 100), (1, true));
        assert_eq!(batch_budget_checked(0, 8), (1, true));
        // The flag never fires when a whole batch fits within the capacity.
        for capacity in 1usize..64 {
            for batch in 1usize..=capacity {
                let (_, over) = batch_budget_checked(capacity, batch);
                assert!(!over, "capacity {capacity} batch {batch} fits");
            }
        }
    }

    /// A full channel folds a lone watermark into the lone watermark queued last
    /// instead of blocking; behind a tuple, a watermark waits for room as before.
    #[test]
    fn a_full_channel_folds_lone_watermarks_and_nothing_else() {
        let wm = |secs| Element::Watermark(Timestamp::from_secs(secs));
        let (tx, mut rx) = stream_channel::<i64, ()>(1);
        tx.send(wm(1)).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let tx2 = tx.clone();
        std::thread::spawn(move || done_tx.send(tx2.send(wm(2))));
        let sent = done_rx.recv_timeout(std::time::Duration::from_secs(5));
        sent.expect("the second watermark folds instead of blocking")
            .unwrap();
        assert_eq!(rx.len(), 1, "the second watermark took no slot");
        assert!(matches!(rx.recv(), Element::Watermark(ts) if ts == Timestamp::from_secs(2)));

        tx.send(Element::Tuple(tuple(3, 3))).unwrap();
        let tx2 = tx.clone();
        let blocked = std::thread::spawn(move || tx2.send(wm(4)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !blocked.is_finished(),
            "a watermark never folds into a tuple"
        );
        assert_eq!(rx.recv().as_tuple().unwrap().data, 3);
        blocked.join().unwrap().unwrap();
        assert!(matches!(rx.recv(), Element::Watermark(ts) if ts == Timestamp::from_secs(4)));
    }

    #[test]
    fn stall_counter_counts_backpressure_blocks() {
        let (mut tx, mut rx) = stream_channel::<i64, ()>(1);
        let stalls = Arc::new(genealog_metrics::Counter::default());
        tx.set_stall_counter(Arc::clone(&stalls));
        tx.send(Element::Tuple(tuple(1, 1))).unwrap();
        assert_eq!(stalls.get(), 0, "uncontended send must not count a stall");
        let tx2 = tx.clone();
        let blocked = std::thread::spawn(move || tx2.send(Element::Tuple(tuple(2, 2))));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        blocked.join().unwrap().unwrap();
        assert_eq!(stalls.get(), 1, "the blocked send must count one stall");
    }

    #[test]
    fn over_allocation_warning_traces_exactly_once() {
        use genealog_metrics::{CountingSubscriber, Tracer};
        // A capacity/batch combination unique to this test, so parallel tests
        // triggering the warning for other combinations cannot interfere.
        let sub = CountingSubscriber::new("batch-budget-over-allocation", "capacity=7,batch=9931");
        Tracer::global().subscribe(sub.clone());
        assert_eq!(batch_budget(7, 9931), 1);
        assert_eq!(batch_budget(7, 9931), 1);
        assert_eq!(sub.hits(), 1, "warning must be emitted exactly once");
        // Combinations within budget never trace.
        let quiet = CountingSubscriber::new("batch-budget-over-allocation", "capacity=64,batch=8");
        Tracer::global().subscribe(quiet.clone());
        assert_eq!(batch_budget(64, 8), 8);
        assert_eq!(quiet.hits(), 0);
    }

    #[test]
    fn batch_size_one_flushes_every_element() {
        let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::unbatched());
        let (tx, mut rx) = stream_channel(8);
        slot.connect(tx);
        let mut handle = slot.open();
        handle.send_tuple(tuple(1, 1)).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 1);
        handle.send_tuple(tuple(2, 2)).unwrap();
        assert_eq!(rx.recv().as_tuple().unwrap().data, 2);
    }
}
