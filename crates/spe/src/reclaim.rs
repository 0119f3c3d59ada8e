//! Return-to-source reclamation: a dead provenance graph is freed on a Source's
//! thread, not on the sink's.
//!
//! Under GeneaLog a sink tuple is the last holder of its whole contribution graph:
//! every source and map tuple of the window it closed. Those nodes were allocated on
//! the source-chain thread. Dropping them on the sink thread frees about a million
//! nodes per `chain_agg` run into the source thread's allocator arena while that
//! thread keeps allocating from it, so every free that the allocator cannot keep
//! lock-free takes the source arena's lock. Measured on a 2-vCPU host (500 k-tuple
//! max-rate runs): the sink was the busiest GL thread (285–478 ms on-CPU against
//! about 1 ms under NP), half of it in those drops, and it made 7–11 k voluntary
//! context switches per run against about 150 under NP. The rule Seastar's
//! cross-shard `free` and mimalloc's delayed thread-free lists follow fixes it:
//! free memory on the thread that owns it.
//!
//! A query owns one [`Reclaimer`]. A sink hands it the tuples it is the last holder
//! of ([`Reclaimer::retire`]); every running Source holds a [`Drainer`] and drops
//! what is waiting between two tuples ([`Drainer::drain`]), on its own thread. When
//! nothing is waiting, a drain is one relaxed atomic load.
//!
//! **No drainer, no deferral.** `retire` drops the tuple in place, as if there were
//! no reclaimer, whenever no Source is draining: a query headed by a Receive, a
//! sink that runs after every source has ended, an unfolder query. The last Source
//! to leave empties the queue under the same lock `retire` checks, so nothing
//! retired outlives the query's threads.

use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A dead tuple waiting for a Source's thread: the tuple's own `Arc`, unsized, so
/// retiring it allocates nothing.
type Retired = Arc<dyn Any + Send + Sync>;

/// The per-query hand-off from sinks to running Sources (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Reclaimer {
    /// Raised by a deferred `retire`, cleared when a drainer takes the queue: the
    /// one load a Source pays per tuple while nothing is waiting.
    pending: AtomicBool,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Sources currently inside their loop.
    drainers: usize,
    queue: Vec<Retired>,
    /// Tuples handed to a Source to free, over the query's life.
    retired: u64,
}

impl Reclaimer {
    pub(crate) fn new() -> Arc<Self> {
        Arc::default()
    }

    /// No user code runs under the lock (drops happen after it is released), so a
    /// poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands a dead tuple to a running Source to drop, or drops it here if no
    /// Source is draining.
    pub(crate) fn retire(&self, dead: Retired) {
        let mut state = self.lock();
        if state.drainers == 0 {
            drop(state);
            drop(dead);
            return;
        }
        state.queue.push(dead);
        state.retired += 1;
        self.pending.store(true, Ordering::Relaxed);
    }

    /// Registers the calling Source as a drainer until the returned guard drops.
    pub(crate) fn enter(self: &Arc<Self>) -> Drainer {
        self.lock().drainers += 1;
        Drainer {
            reclaimer: Arc::clone(self),
            spare: Vec::new(),
        }
    }

    /// Tuples handed to a Source to free so far (`genealog_reclaim_retired_total`).
    pub(crate) fn retired_total(&self) -> u64 {
        self.lock().retired
    }

    /// Tuples waiting for a Source right now (`genealog_reclaim_pending`).
    pub(crate) fn pending(&self) -> u64 {
        self.lock().queue.len() as u64
    }

    /// Swaps the queue with `spare` (an empty buffer), so the caller drops the
    /// tuples after the lock is released and the queue keeps a warm buffer.
    fn take_into(&self, state: &mut State, spare: &mut Vec<Retired>) {
        std::mem::swap(&mut state.queue, spare);
        self.pending.store(false, Ordering::Relaxed);
    }
}

/// A Source's registration with the query's [`Reclaimer`]. Dropping it — at the end
/// of the source loop, on a closed channel, on the stop flag or while unwinding —
/// leaves; the last drainer to leave frees whatever is still queued.
#[derive(Debug)]
pub(crate) struct Drainer {
    reclaimer: Arc<Reclaimer>,
    /// The buffer the queue is swapped into: emptied after every drain, reused.
    spare: Vec<Retired>,
}

impl Drainer {
    /// Drops, on the calling thread, every tuple retired since the last drain.
    #[inline]
    pub(crate) fn drain(&mut self) {
        if self.reclaimer.pending.load(Ordering::Relaxed) {
            self.drain_queue();
        }
    }

    #[cold]
    fn drain_queue(&mut self) {
        let reclaimer = &*self.reclaimer;
        reclaimer.take_into(&mut reclaimer.lock(), &mut self.spare);
        self.spare.clear();
    }
}

impl Drop for Drainer {
    fn drop(&mut self) {
        let reclaimer = &*self.reclaimer;
        let mut state = reclaimer.lock();
        state.drainers -= 1;
        if state.drainers == 0 {
            reclaimer.take_into(&mut state, &mut self.spare);
        }
        drop(state);
        self.spare.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};

    /// Reports the thread it is dropped on.
    struct Witness(mpsc::Sender<ThreadId>);

    impl Drop for Witness {
        fn drop(&mut self) {
            let _ = self.0.send(thread::current().id());
        }
    }

    fn witness() -> (Retired, mpsc::Receiver<ThreadId>) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(Witness(tx)), rx)
    }

    #[test]
    fn without_a_drainer_retire_drops_in_place() {
        let reclaimer = Reclaimer::new();
        let (dead, dropped) = witness();
        reclaimer.retire(dead);
        assert_eq!(dropped.try_recv(), Ok(thread::current().id()));
        assert_eq!(reclaimer.pending(), 0);
        assert_eq!(
            reclaimer.retired_total(),
            0,
            "an in-place drop is not a hand-off"
        );
    }

    #[test]
    fn a_retired_value_is_dropped_on_the_drainers_thread() {
        let reclaimer = Reclaimer::new();
        let (entered_tx, entered) = mpsc::channel();
        let (go_tx, go) = mpsc::channel::<()>();
        let source = {
            let reclaimer = Arc::clone(&reclaimer);
            thread::spawn(move || {
                let mut drainer = reclaimer.enter();
                entered_tx.send(()).unwrap();
                go.recv().unwrap();
                drainer.drain();
                thread::current().id()
            })
        };
        entered.recv().unwrap();
        let (dead, dropped) = witness();
        reclaimer.retire(dead);
        assert!(dropped.try_recv().is_err(), "queued, not dropped");
        assert_eq!(reclaimer.pending(), 1);
        go_tx.send(()).unwrap();
        let source = source.join().unwrap();
        assert_eq!(dropped.recv(), Ok(source));
        assert_ne!(source, thread::current().id());
        assert_eq!(reclaimer.pending(), 0);
        assert_eq!(reclaimer.retired_total(), 1);
    }

    #[test]
    fn the_last_leave_empties_the_reclaimer() {
        let reclaimer = Reclaimer::new();
        let first = reclaimer.enter();
        let second = reclaimer.enter();
        let (dead, dropped) = witness();
        reclaimer.retire(dead);
        drop(first);
        assert!(dropped.try_recv().is_err(), "one drainer still runs");
        assert_eq!(reclaimer.pending(), 1);
        drop(second);
        assert_eq!(dropped.try_recv(), Ok(thread::current().id()));
        assert_eq!(reclaimer.pending(), 0);
        // Nobody drains any more: the next retire drops in place.
        let (dead, dropped) = witness();
        reclaimer.retire(dead);
        assert!(dropped.try_recv().is_ok());
        assert_eq!(reclaimer.retired_total(), 1);
    }

    #[test]
    fn an_unwinding_drainer_leaves_and_frees_the_queue() {
        let reclaimer = Reclaimer::new();
        let (dead, dropped) = witness();
        let inside = Arc::clone(&reclaimer);
        let panicked = thread::spawn(move || {
            let _drainer = inside.enter();
            inside.retire(dead);
            panic!("source generator failed");
        })
        .join();
        assert!(panicked.is_err());
        assert!(dropped.try_recv().is_ok());
        assert_eq!(reclaimer.pending(), 0);
    }
}
