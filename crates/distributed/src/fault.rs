//! Fault injection for distributed deployments.
//!
//! The recovery path of the checkpoint protocol is only trustworthy if it is
//! exercised against the failures it claims to mask. This module provides the
//! controlled failure modes the fault-injection tests drive:
//!
//! * [`LinkFaults`] + [`FaultySender`] — a [`FrameSink`] decorator that drops,
//!   duplicates or severs frames at chosen positions in the stream. A
//!   dropped frame surfaces downstream as a sequence gap, a severed link as a
//!   close without the end-of-stream marker; both push the receiving query into
//!   the recovery path. Duplicated frames must be absorbed silently by the
//!   receiver's sequence numbers.
//! * [`FaultyTransport`] — a [`ShardTransport`] decorator that puts a
//!   [`FaultySender`] on the return-link data channel of one shard of a
//!   distributed shard group, over whatever transport it wraps (simulated links
//!   or real sockets). The shard-group builder itself knows nothing about faults.
//! * [`OneShot`] — a fire-once trigger shared between recovery attempts, so an
//!   injected fault (a panicking closure, a severed link) hits the first attempt
//!   and lets the rebuilt deployment run clean.
//! * [`FaultPlan`] — the harness-level description: which shard to kill at which
//!   tuple, and which link faults to arm, on the first attempt only.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use genealog_spe::SpeError;

use crate::deployment::{ShardTransport, ShardWiring};
use crate::network::FrameSink;

/// Frame-level faults to inject on one link, by frame index (0-based, counted at
/// the faulty sender).
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    /// Frames to drop silently (the sender believes they were delivered).
    pub drop_frames: Vec<u64>,
    /// Frames to deliver twice.
    pub duplicate_frames: Vec<u64>,
    /// Sever the link just before this frame would be sent: the underlying
    /// sender is dropped, so the receiver sees the link close mid-stream.
    pub sever_before: Option<u64>,
}

impl LinkFaults {
    /// No faults at all (the decorator becomes a pass-through).
    pub fn none() -> Self {
        LinkFaults::default()
    }

    /// Returns the faults with the given frame indices dropped.
    pub fn dropping(mut self, frames: impl IntoIterator<Item = u64>) -> Self {
        self.drop_frames.extend(frames);
        self
    }

    /// Returns the faults with the given frame indices duplicated.
    pub fn duplicating(mut self, frames: impl IntoIterator<Item = u64>) -> Self {
        self.duplicate_frames.extend(frames);
        self
    }

    /// Returns the faults with the link severed just before frame `frame`.
    pub fn severing_before(mut self, frame: u64) -> Self {
        self.sever_before = Some(frame);
        self
    }

    /// True if this plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.drop_frames.is_empty()
            && self.duplicate_frames.is_empty()
            && self.sever_before.is_none()
    }
}

/// A [`FrameSink`] decorator that applies [`LinkFaults`] to the frames passing
/// through it.
///
/// Severing drops the wrapped sender, which is exactly what a crashed peer
/// process does to a connection: the receiving side sees the stream close
/// without its end-of-stream marker and errors out into recovery.
pub struct FaultySender<L> {
    inner: Mutex<Option<L>>,
    faults: LinkFaults,
    sent: AtomicU64,
}

impl<L: FrameSink> FaultySender<L> {
    /// Wraps a sender with the given fault plan.
    pub fn new(inner: L, faults: LinkFaults) -> Self {
        FaultySender {
            inner: Mutex::new(Some(inner)),
            faults,
            sent: AtomicU64::new(0),
        }
    }

    /// Number of frames that reached this decorator so far.
    pub fn observed(&self) -> u64 {
        self.sent.load(Ordering::SeqCst)
    }
}

impl<L: FrameSink> FrameSink for FaultySender<L> {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        let index = self.sent.fetch_add(1, Ordering::SeqCst);
        if self.faults.sever_before == Some(index) {
            // Drop the underlying sender: from here on the link is dead and the
            // receiver observes a mid-stream close.
            self.inner.lock().take();
            return false;
        }
        if self.faults.drop_frames.contains(&index) {
            // Lost on the wire. Report success: a real sender does not know the
            // frame vanished; the receiver's sequence numbers flag the gap.
            return true;
        }
        let guard = self.inner.lock();
        let Some(inner) = guard.as_ref() else {
            return false;
        };
        if self.faults.duplicate_frames.contains(&index) && !inner.send_frame(frame.clone()) {
            return false;
        }
        inner.send_frame(frame)
    }
}

/// A [`ShardTransport`] decorator injecting frame faults on the remote → origin
/// data channel of shard `shard`; every other link is `inner`'s, untouched.
///
/// A severed channel surfaces at the origin's ingress as a mid-stream close, a
/// dropped frame as a sequence gap — both fail the originating query into the
/// recovery path, which is exactly what the fault-injection tests drive. The
/// faults sit *above* the wrapped transport, so they compose with whatever failure
/// modes it has itself (a TCP transport can additionally kill sockets underneath
/// the mux — see `TcpLoopbackTransport::with_return_kill`).
pub struct FaultyTransport<T> {
    inner: T,
    shard: usize,
    faults: LinkFaults,
}

impl<T: ShardTransport> FaultyTransport<T> {
    /// Wraps `inner`, arming `faults` on shard `shard`'s return-link data channel.
    /// An empty fault plan leaves the channel undecorated.
    pub fn new(inner: T, shard: usize, faults: LinkFaults) -> Self {
        FaultyTransport {
            inner,
            shard,
            faults,
        }
    }
}

impl<T: ShardTransport> ShardTransport for FaultyTransport<T> {
    fn shard_links(&self, shard: usize, back_channels: usize) -> Result<ShardWiring, SpeError> {
        let mut wiring = self.inner.shard_links(shard, back_channels)?;
        if shard == self.shard && !self.faults.is_none() {
            wiring.wrap_data_tx(|tx| Box::new(FaultySender::new(tx, self.faults.clone())));
        }
        Ok(wiring)
    }
}

/// A fire-once trigger.
///
/// Injected faults are shared between recovery attempts through an
/// `Arc<OneShot>`: the first attempt fires the fault, every rebuilt attempt
/// finds it disarmed and runs clean — which is what "the link was
/// re-established" or "the replacement thread stays up" means in the simulated
/// world.
#[derive(Debug, Default)]
pub struct OneShot {
    armed: AtomicBool,
}

impl OneShot {
    /// Creates an armed trigger.
    pub fn armed() -> Arc<Self> {
        Arc::new(OneShot {
            armed: AtomicBool::new(true),
        })
    }

    /// Fires the trigger. Returns `true` exactly once.
    pub fn fire(&self) -> bool {
        self.armed.swap(false, Ordering::SeqCst)
    }

    /// True while the trigger has not fired yet.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

/// The harness-level fault description for one recovered run.
///
/// All faults target the **first** attempt; [`FaultPlan::link_faults_for_attempt`]
/// hands later attempts an empty plan, modelling a fault that does not recur
/// after recovery (the crashed thread is replaced, the severed link
/// re-established).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Kill this shard (by index) ...
    pub kill_shard: usize,
    /// ... after it has processed this many tuples, by panicking its thread.
    pub kill_at_tuple: Option<u64>,
    /// Frame faults to arm on the remote links of attempt 0.
    pub link: LinkFaults,
}

impl FaultPlan {
    /// A plan that kills shard `shard` after `tuples` processed tuples.
    pub fn kill_shard_at(shard: usize, tuples: u64) -> Self {
        FaultPlan {
            kill_shard: shard,
            kill_at_tuple: Some(tuples),
            link: LinkFaults::none(),
        }
    }

    /// A plan that applies `faults` to the remote links.
    pub fn with_link_faults(faults: LinkFaults) -> Self {
        FaultPlan {
            link: faults,
            ..FaultPlan::default()
        }
    }

    /// The link faults to apply on the given recovery attempt: the configured
    /// plan on attempt 0, nothing afterwards.
    pub fn link_faults_for_attempt(&self, attempt: usize) -> LinkFaults {
        if attempt == 0 {
            self.link.clone()
        } else {
            LinkFaults::none()
        }
    }

    /// True if this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.kill_at_tuple.is_none() && self.link.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A sink recording every frame it accepted.
    #[derive(Clone, Default)]
    struct RecordingSink {
        frames: Arc<StdMutex<Vec<Vec<u8>>>>,
    }

    impl FrameSink for RecordingSink {
        fn send_frame(&self, frame: Vec<u8>) -> bool {
            self.frames.lock().unwrap().push(frame);
            true
        }
    }

    #[test]
    fn drops_duplicates_and_severs_at_the_requested_indices() {
        let sink = RecordingSink::default();
        let frames = Arc::clone(&sink.frames);
        let faulty = FaultySender::new(
            sink,
            LinkFaults::none()
                .dropping([1])
                .duplicating([2])
                .severing_before(4),
        );
        assert!(faulty.send_frame(vec![0])); // delivered
        assert!(faulty.send_frame(vec![1])); // dropped, reported as delivered
        assert!(faulty.send_frame(vec![2])); // duplicated
        assert!(faulty.send_frame(vec![3])); // delivered
        assert!(!faulty.send_frame(vec![4])); // severed
        assert!(!faulty.send_frame(vec![5])); // link stays dead
        assert_eq!(
            *frames.lock().unwrap(),
            vec![vec![0], vec![2], vec![2], vec![3]]
        );
        assert_eq!(faulty.observed(), 6);
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let trigger = OneShot::armed();
        assert!(trigger.is_armed());
        assert!(trigger.fire());
        assert!(!trigger.fire());
        assert!(!trigger.is_armed());
    }

    #[test]
    fn fault_plan_targets_attempt_zero_only() {
        let plan = FaultPlan::with_link_faults(LinkFaults::none().severing_before(3));
        assert!(!plan.is_none());
        assert_eq!(plan.link_faults_for_attempt(0).sever_before, Some(3));
        assert!(plan.link_faults_for_attempt(1).is_none());
        assert!(FaultPlan::default().is_none());
        let kill = FaultPlan::kill_shard_at(2, 50);
        assert_eq!(kill.kill_shard, 2);
        assert_eq!(kill.kill_at_tuple, Some(50));
    }
}
