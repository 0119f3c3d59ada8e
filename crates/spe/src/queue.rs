//! The engine's one inter-thread queue.
//!
//! Every stream edge ([`stream_channel`](crate::channel::stream_channel)) and every
//! simulated network link moves its items through this queue: a `VecDeque` behind one
//! mutex with a `not_empty` and a `not_full` condition variable. A bounded queue
//! blocks its senders while it is full — that is the engine's back-pressure — and any
//! queue blocks its receiver while it is empty. Senders are cloneable; there is one
//! receiver. Each side observes the other going away: a send to a dropped receiver
//! fails, and a receive on a drained queue whose senders are all gone fails.
//!
//! The crate-internal `wait_any` parks one thread on several receivers of *different* item types, which
//! is how the two-input operators wait for whichever input delivers first.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::{Duration, Instant};

use genealog_metrics::Counter;
use parking_lot::Mutex;

/// The other side of the queue is gone: every sender (for a receive on a drained
/// queue) or the receiver (for a send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Why [`Sender::send_timeout`] did not enqueue its item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError {
    /// The queue stayed full for the whole timeout.
    Timeout,
    /// The receiver is gone.
    Disconnected,
}

struct Core<T> {
    items: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
    /// Wakers of threads parked in [`wait_any`] on this queue's receiver.
    watchers: Vec<Arc<Waker>>,
    /// Threads blocked in `recv` / `send`, so an uncontended hop skips the notify.
    waiting_receivers: usize,
    waiting_senders: usize,
}

struct Shared<T> {
    core: Mutex<Core<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Tells the receiving side that an item arrived or the last sender left.
    fn notify_receiver(&self, core: &Core<T>) {
        if core.waiting_receivers > 0 {
            self.not_empty.notify_all();
        }
        for waker in &core.watchers {
            waker.wake();
        }
    }
}

fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The sending half of a queue.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a queue.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Creates a queue holding at most `capacity` items (at least one).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        core: Mutex::new(Core {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
            watchers: Vec::new(),
            waiting_receivers: 0,
            waiting_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates a queue whose senders never block.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.core.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut core = self.shared.core.lock();
        core.senders -= 1;
        if core.senders == 0 {
            self.shared.notify_receiver(&core);
        }
    }
}

impl<T> Drop for Receiver<T> {
    /// Nobody can receive the queued items any more, so they are released now rather
    /// than when the last sender goes: an idle producer's sender clone must not pin a
    /// queue's worth of tuples (and, under GeneaLog, their contribution graphs).
    fn drop(&mut self) {
        let mut core = self.shared.core.lock();
        core.receiver_alive = false;
        let discarded = std::mem::take(&mut core.items);
        self.shared.not_full.notify_all();
        drop(core);
        drop(discarded);
    }
}

impl<T> Sender<T> {
    /// Enqueues `item`, blocking while the queue is full. Returns whether it had to
    /// wait for room.
    ///
    /// # Errors
    /// [`Disconnected`] if the receiver is gone; the item is dropped.
    pub fn send(&self, item: T) -> Result<bool, Disconnected> {
        self.send_until(item, None).map_err(|_| Disconnected)
    }

    /// Enqueues `item`, waiting at most `timeout` while the queue is full. Returns
    /// whether it had to wait for room.
    ///
    /// # Errors
    /// [`SendTimeoutError::Timeout`] if the queue stayed full for the whole timeout,
    /// [`SendTimeoutError::Disconnected`] if the receiver is gone; the item is dropped.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<bool, SendTimeoutError> {
        self.send_until(item, Some(Instant::now() + timeout))
    }

    /// Offers `fold` the last queued item while the queue is full, and returns what
    /// it returns: whether it absorbed the item the caller would otherwise wait to
    /// enqueue.
    pub fn fold_if_full(&self, fold: impl FnOnce(&mut T) -> bool) -> bool {
        let mut core = self.shared.core.lock();
        core.items.len() >= core.capacity && core.items.back_mut().is_some_and(fold)
    }

    fn send_until(&self, item: T, deadline: Option<Instant>) -> Result<bool, SendTimeoutError> {
        let shared = &*self.shared;
        let mut core = shared.core.lock();
        let mut waited = false;
        loop {
            if !core.receiver_alive {
                return Err(SendTimeoutError::Disconnected);
            }
            if core.items.len() < core.capacity {
                core.items.push_back(item);
                shared.notify_receiver(&core);
                return Ok(waited);
            }
            let left = deadline.map(|deadline| deadline.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(SendTimeoutError::Timeout);
            }
            waited = true;
            core.waiting_senders += 1;
            core = match left {
                None => wait(&shared.not_full, core),
                Some(left) => {
                    let result = shared.not_full.wait_timeout(core, left);
                    result.unwrap_or_else(|e| e.into_inner()).0
                }
            };
            core.waiting_senders -= 1;
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeues the next item, blocking until one is available.
    ///
    /// # Errors
    /// [`Disconnected`] if the queue is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, Disconnected> {
        self.recv_counting(None)
    }

    /// [`Receiver::recv`], bumping `parks` once if the queue was empty and the
    /// receiver had to block.
    pub(crate) fn recv_counting(&self, parks: Option<&Counter>) -> Result<T, Disconnected> {
        let shared = &*self.shared;
        let mut core = shared.core.lock();
        let mut parked = false;
        loop {
            if let Some(item) = core.items.pop_front() {
                if core.waiting_senders > 0 {
                    shared.not_full.notify_one();
                }
                return Ok(item);
            }
            if core.senders == 0 {
                return Err(Disconnected);
            }
            if let (false, Some(parks)) = (parked, parks) {
                parks.inc();
            }
            parked = true;
            core.waiting_receivers += 1;
            core = wait(&shared.not_empty, core);
            core.waiting_receivers -= 1;
        }
    }
}

/// What a thread parked in [`wait_any`] sleeps on; every watched input holds a clone.
#[derive(Debug, Default)]
pub(crate) struct Waker {
    woken: Mutex<bool>,
    condvar: Condvar,
}

impl Waker {
    fn wake(&self) {
        *self.woken.lock() = true;
        self.condvar.notify_all();
    }

    fn park(&self) {
        let mut woken = self.woken.lock();
        while !*woken {
            woken = wait(&self.condvar, woken);
        }
        *woken = false;
    }
}

/// An input [`wait_any`] can wait on, whatever it carries.
pub(crate) trait Ready {
    /// True when a receive completes without blocking: something is buffered, or
    /// every sender is gone (the receive reports the disconnect at once).
    fn is_ready(&self) -> bool;
    /// Registers `waker` to be woken whenever the input may have become ready.
    fn watch(&self, waker: &Arc<Waker>);
    /// Removes a registration made by [`Ready::watch`].
    fn unwatch(&self, waker: &Arc<Waker>);
}

impl<T> Ready for Receiver<T> {
    fn is_ready(&self) -> bool {
        let core = self.shared.core.lock();
        !core.items.is_empty() || core.senders == 0
    }

    fn watch(&self, waker: &Arc<Waker>) {
        self.shared.core.lock().watchers.push(Arc::clone(waker));
    }

    fn unwatch(&self, waker: &Arc<Waker>) {
        let mut core = self.shared.core.lock();
        core.watchers.retain(|w| !Arc::ptr_eq(w, waker));
    }
}

/// Blocks until one of `inputs` is ready and returns its index (the lowest, when
/// several are). The caller then completes the receive on that input; with one
/// consumer per input nothing can take the item in between.
///
/// # Panics
/// Panics if `inputs` is empty.
pub(crate) fn wait_any<'a>(inputs: impl Iterator<Item = &'a dyn Ready> + Clone) -> usize {
    assert!(
        inputs.clone().next().is_some(),
        "wait_any needs at least one input"
    );
    let poll = || inputs.clone().position(|input| input.is_ready());
    if let Some(index) = poll() {
        return index;
    }
    let waker = Arc::new(Waker::default());
    for input in inputs.clone() {
        input.watch(&waker);
    }
    let index = loop {
        // Polled again after registering, so an arrival between the first poll and
        // the registration is seen here and one after it finds the waker.
        if let Some(index) = poll() {
            break index;
        }
        waker.park();
    };
    for input in inputs {
        input.unwatch(&waker);
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    const DEADLINE: Duration = Duration::from_secs(5);

    /// Spins (under a deadline) until `condition` holds, to force an interleaving.
    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + DEADLINE;
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// Threads parked in (or registering for) `wait_any` on the queue.
    fn watchers<T>(shared: &Shared<T>) -> usize {
        shared.core.lock().watchers.len()
    }

    #[test]
    fn bounded_send_recv_round_trip() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.send(1), Ok(false));
        assert_eq!(tx.send(2), Ok(false));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop(tx);
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn send_blocks_when_full_until_a_recv() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let blocked = thread::spawn(move || tx2.send(2));
        wait_until("the second send blocks", || {
            tx.shared.core.lock().waiting_senders == 1
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(
            blocked.join().unwrap(),
            Ok(true),
            "the send reports it waited"
        );
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(Disconnected));
        assert_eq!(
            tx.send_timeout(7, DEADLINE),
            Err(SendTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_timeout_gives_up_on_a_queue_that_stays_full() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.send_timeout(1, Duration::ZERO), Ok(false));
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(10)),
            Err(SendTimeoutError::Timeout)
        );
        assert_eq!(tx.shared.core.lock().waiting_senders, 0);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.send_timeout(3, DEADLINE), Ok(false));
    }

    #[test]
    fn unbounded_never_blocks_sender() {
        let (tx, rx) = unbounded();
        for i in 0..10_000 {
            assert_eq!(tx.send(i), Ok(false));
        }
        assert_eq!(rx.recv(), Ok(0));
    }

    #[test]
    fn dropping_the_receiver_discards_the_queue_and_fails_blocked_senders() {
        let (tx, rx) = bounded(1);
        let (queued, late) = (Arc::new(1), Arc::new(2));
        tx.send(Arc::clone(&queued)).unwrap();
        let (tx2, late2) = (tx.clone(), Arc::clone(&late));
        let blocked = thread::spawn(move || tx2.send(late2));
        wait_until("the second send blocks", || {
            tx.shared.core.lock().waiting_senders == 1
        });
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(Disconnected));
        // `tx` is still alive, yet neither item is.
        assert_eq!(Arc::strong_count(&queued), 1);
        assert_eq!(Arc::strong_count(&late), 1);
    }

    #[test]
    fn fold_if_full_offers_the_last_item_only_while_the_queue_is_full() {
        let (tx, rx) = bounded::<u32>(2);
        let add = |item: u32| {
            move |last: &mut u32| {
                *last += item;
                true
            }
        };
        tx.send(1).unwrap();
        assert!(!tx.fold_if_full(add(10)), "room left: nothing folds");
        tx.send(2).unwrap();
        assert!(tx.fold_if_full(add(10)), "full: the last item absorbs");
        assert!(!tx.fold_if_full(|_| false), "the fold may decline");
        assert_eq!((rx.recv(), rx.recv()), (Ok(1), Ok(12)));
    }

    #[test]
    fn wait_any_returns_the_ready_receiver() {
        let (_tx1, rx1) = bounded::<i32>(4);
        let (tx2, rx2) = bounded::<&str>(4);
        tx2.send("ready").unwrap();
        assert_eq!(wait_any([&rx1 as &dyn Ready, &rx2].into_iter()), 1);
        assert_eq!(rx2.recv(), Ok("ready"));
    }

    #[test]
    fn wait_any_wakes_on_late_arrival() {
        let (tx1, rx1) = bounded::<i32>(4);
        let (_tx2, rx2) = bounded::<&str>(4);
        thread::scope(|scope| {
            let waiter = scope.spawn(|| wait_any([&rx1 as &dyn Ready, &rx2].into_iter()));
            wait_until("the waiter watches both inputs", || {
                watchers(&rx1.shared) + watchers(&rx2.shared) == 2
            });
            tx1.send(9).unwrap();
            assert_eq!(waiter.join().unwrap(), 0);
        });
        assert_eq!(rx1.recv(), Ok(9));
        assert_eq!(watchers(&rx1.shared) + watchers(&rx2.shared), 0);
    }

    #[test]
    fn wait_any_observes_disconnect() {
        let (tx, rx) = bounded::<i32>(1);
        thread::scope(|scope| {
            let waiter = scope.spawn(|| wait_any([&rx as &dyn Ready].into_iter()));
            wait_until("the waiter watches the input", || watchers(&rx.shared) == 1);
            drop(tx);
            assert_eq!(waiter.join().unwrap(), 0);
        });
        assert_eq!(rx.recv(), Err(Disconnected));
    }

    #[test]
    fn wait_any_loses_no_wake_up_to_an_arrival_racing_the_park() {
        // A lost wake-up is a race: many iterations, each under a deadline, so a
        // regression fails in seconds instead of hanging the suite. Odd iterations
        // release waiter and sender together, so the arrival lands anywhere between
        // the waiter's first poll and its park; even ones hold the arrival back until
        // the waiter has registered, so it lands between the second poll and the park
        // or after it.
        for iteration in 0..200 {
            let (int_tx, int_rx) = bounded::<u64>(1);
            let (text_tx, text_rx) = bounded::<String>(1);
            let start = Arc::new(std::sync::Barrier::new(2));
            let (done_tx, done_rx) = mpsc::channel();
            let waiter_start = Arc::clone(&start);
            let waiter = thread::spawn(move || {
                waiter_start.wait();
                let index = wait_any([&int_rx as &dyn Ready, &text_rx].into_iter());
                let received = match index {
                    0 => int_rx.recv().map(|n| n.to_string()),
                    _ => text_rx.recv(),
                };
                let _ = done_tx.send((index, received, int_rx, text_rx));
            });
            start.wait();
            if iteration % 2 == 0 {
                wait_until("the waiter watches its inputs", || {
                    watchers(&text_tx.shared) == 1
                });
            }
            // Alternate the input that delivers, so both payload types are woken on.
            let expected = if iteration % 4 < 2 {
                int_tx.send(iteration).unwrap();
                0
            } else {
                text_tx.send(iteration.to_string()).unwrap();
                1
            };
            let (index, received, ..) = done_rx
                .recv_timeout(DEADLINE)
                .unwrap_or_else(|_| panic!("iteration {iteration}: the wake-up was lost"));
            assert_eq!((index, received), (expected, Ok(iteration.to_string())));
            waiter.join().unwrap();
        }
    }
}
