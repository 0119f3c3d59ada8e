//! Simulated network links between SPE instances.
//!
//! The paper's testbed connects the three Odroid boards through a 100 Mbps switch.
//! [`SimulatedLink`] models such a link: a frame queue whose delivery is delayed by a
//! fixed propagation latency plus a serialisation delay proportional to the frame size
//! and the configured bandwidth, with per-link counters of frames and bytes so the
//! benchmarks can compare how much each provenance configuration ships.
//!
//! [`SharedLink`] multiplexes several logical frame channels onto one such link (the
//! common case for distributed shard groups, where a remote instance returns both its
//! result stream and its lineage stream to the originating instance over
//! one physical connection). The [`FrameSink`] / [`FrameSource`] traits abstract over
//! plain and multiplexed link halves, so the Send and Receive operators work with
//! either.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard};
use std::time::{Duration, Instant};

use genealog_metrics::{MetricsRegistry, Tracer};
use genealog_spe::queue::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;

/// Bandwidth and propagation latency of a simulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Link bandwidth in bits per second (0 = infinite).
    pub bandwidth_bps: u64,
    /// One-way propagation latency.
    pub latency: Duration,
    /// High-water mark of the link's send queue, in frames (0 = unbounded).
    ///
    /// A real socket exerts back-pressure: once the kernel send buffer fills, the
    /// sending thread blocks until the receiver drains. Bounding the simulated
    /// queue reproduces that behaviour — [`LinkSender::send`] blocks while
    /// `send_queue_frames` frames are in flight — so cross-process back-pressure is
    /// exercised before the real TCP transport lands. The default bound is
    /// deliberately modest; raise it (or set 0) to decouple sender and receiver.
    pub send_queue_frames: usize,
    /// Upper bound on how long a bounded send may block on a full queue before the
    /// link is declared dead (0 = wait forever).
    ///
    /// Without it, a receiver that stops draining — a crashed remote instance whose
    /// receiving thread is gone but whose queue is still full — wedges the sending
    /// operator forever. With the timeout the send fails instead, the Send operator
    /// reports a broken link, and the recovery path gets to rebuild the deployment.
    pub send_timeout: Duration,
    /// Per-attempt timeout of a TCP connect (the TCP transport only; the simulated
    /// link has no connection phase).
    pub connect_timeout: Duration,
    /// Socket read timeout of the TCP transport (0 = block indefinitely). A
    /// timed-out read is treated as a dead peer, so only set this on links where
    /// frames flow continuously.
    pub read_timeout: Duration,
    /// Socket write timeout of the TCP transport (0 = block indefinitely). Plays
    /// the role [`send_timeout`](Self::send_timeout) plays on the simulated link:
    /// a receiver that stops draining eventually fails the write instead of
    /// wedging the sending operator.
    pub write_timeout: Duration,
    /// How many times the TCP transport re-dials a broken connection (both the
    /// initial connect and reconnects after a broken pipe) before declaring the
    /// link dead. 0 disables reconnection: the first broken pipe severs the link.
    pub reconnect_attempts: u32,
    /// Backoff before the first re-dial, doubling on every subsequent attempt.
    pub reconnect_backoff: Duration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // The evaluation's 100 Mbps switch with a sub-millisecond LAN latency and a
        // kernel-buffer-sized send queue.
        NetworkConfig {
            bandwidth_bps: 100_000_000,
            latency: Duration::from_micros(200),
            send_queue_frames: 4_096,
            send_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::ZERO,
            write_timeout: Duration::from_secs(5),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(50),
        }
    }
}

impl NetworkConfig {
    /// A link with unlimited bandwidth, no latency and an unbounded send queue
    /// (useful in tests).
    pub fn unlimited() -> Self {
        NetworkConfig {
            bandwidth_bps: 0,
            latency: Duration::ZERO,
            send_queue_frames: 0,
            send_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::ZERO,
            write_timeout: Duration::from_secs(5),
            reconnect_attempts: 3,
            reconnect_backoff: Duration::from_millis(50),
        }
    }

    /// Returns the configuration with a different send-queue high-water mark
    /// (0 = unbounded).
    pub fn with_send_queue_frames(mut self, frames: usize) -> Self {
        self.send_queue_frames = frames;
        self
    }

    /// Returns the configuration with a different bounded-send timeout
    /// (0 = wait forever).
    pub fn with_send_timeout(mut self, timeout: Duration) -> Self {
        self.send_timeout = timeout;
        self
    }

    /// Returns the configuration with a different per-attempt TCP connect timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Returns the configuration with a different TCP read timeout
    /// (0 = block indefinitely).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Returns the configuration with a different TCP write timeout
    /// (0 = block indefinitely).
    pub fn with_write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Returns the configuration with a different reconnect budget: up to
    /// `attempts` re-dials per broken connection, backing off `backoff` before the
    /// first and doubling on each subsequent attempt. `attempts == 0` makes the
    /// first broken pipe sever the link immediately.
    pub fn with_reconnects(mut self, attempts: u32, backoff: Duration) -> Self {
        self.reconnect_attempts = attempts;
        self.reconnect_backoff = backoff;
        self
    }

    /// Worst-case time a peer may spend re-dialling a broken connection under this
    /// configuration: the sum of the (doubling) backoffs plus one connect timeout
    /// per attempt. The receiving side of the TCP transport keeps its listener
    /// open for this long after an abrupt disconnect before declaring the link
    /// severed.
    pub fn reconnect_window(&self) -> Duration {
        let mut window = Duration::ZERO;
        let mut backoff = self.reconnect_backoff;
        for _ in 0..self.reconnect_attempts {
            window += backoff + self.connect_timeout;
            backoff *= 2;
        }
        window.min(Duration::from_secs(10))
    }

    /// Time needed to serialise `bytes` onto the link.
    pub fn transmission_delay(&self, bytes: usize) -> Duration {
        if self.bandwidth_bps == 0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bps as f64)
        }
    }
}

/// Counters describing the traffic that crossed one link.
#[derive(Debug, Default)]
pub struct LinkStats {
    frames: AtomicU64,
    bytes: AtomicU64,
    dropped_runt: AtomicU64,
    dropped_unroutable: AtomicU64,
}

impl LinkStats {
    /// Number of frames sent over the link.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Number of payload bytes sent over the link.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of received frames discarded because they were too short to carry a
    /// channel prefix (< 4 bytes).
    pub fn dropped_runt(&self) -> u64 {
        self.dropped_runt.load(Ordering::Relaxed)
    }

    /// Number of received frames discarded because their channel id addressed no
    /// channel of the link.
    pub fn dropped_unroutable(&self) -> u64 {
        self.dropped_unroutable.load(Ordering::Relaxed)
    }

    /// Total number of received frames the demultiplexer had to discard. Zero on
    /// a healthy link: every drop means a peer sent something this side cannot
    /// route, and the frame's payload is lost.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_runt() + self.dropped_unroutable()
    }

    pub(crate) fn record(&self, bytes: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_runt(&self) {
        self.dropped_runt.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_unroutable(&self) {
        self.dropped_unroutable.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the link's drop counters as the
    /// `genealog_link_dropped_frames_total{link=..,reason=..}` series on
    /// `registry`, sampled live at every snapshot. A healthy link reports 0 on
    /// both reasons; any increase means received payloads were discarded by the
    /// demultiplexer.
    pub fn export_dropped_frames(self: &Arc<Self>, registry: &MetricsRegistry, link: &str) {
        let stats = Arc::clone(self);
        registry.counter_fn(
            "genealog_link_dropped_frames_total",
            &[("link", link), ("reason", "runt")],
            Arc::new(move || stats.dropped_runt()),
        );
        let stats = Arc::clone(self);
        registry.counter_fn(
            "genealog_link_dropped_frames_total",
            &[("link", link), ("reason", "unroutable")],
            Arc::new(move || stats.dropped_unroutable()),
        );
    }
}

struct Frame {
    payload: Vec<u8>,
    deliver_at: Instant,
}

/// Factory for one direction of a link between two SPE instances.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedLink;

/// The sending half of a simulated link.
#[derive(Clone)]
pub struct LinkSender {
    config: NetworkConfig,
    stats: Arc<LinkStats>,
    tx: Sender<Frame>,
    tx_busy_until: Arc<parking_lot::Mutex<Instant>>,
}

/// The receiving half of a simulated link.
pub struct LinkReceiver {
    rx: Receiver<Frame>,
}

impl SimulatedLink {
    /// Creates a link with the given characteristics and splits it into halves.
    #[allow(clippy::new_ret_no_self)] // a link is only ever used as its two halves
    pub fn new(config: NetworkConfig) -> (LinkSender, LinkReceiver, Arc<LinkStats>) {
        let stats = Arc::new(LinkStats::default());
        let (tx, rx) = if config.send_queue_frames == 0 {
            unbounded()
        } else {
            bounded(config.send_queue_frames)
        };
        let sender = LinkSender {
            config,
            stats: Arc::clone(&stats),
            tx,
            tx_busy_until: Arc::new(parking_lot::Mutex::new(Instant::now())),
        };
        let receiver = LinkReceiver { rx };
        (sender, receiver, stats)
    }
}

impl LinkSender {
    /// Sends one frame over the link.
    ///
    /// The call never blocks for the simulated *transmission* time; instead the
    /// frame is stamped with its earliest delivery instant (`now + queued transmission
    /// delay + propagation latency`) and the receiver waits until then, which models a
    /// store-and-forward switch without slowing the sender's thread artificially. It
    /// DOES block while the send queue holds
    /// [`NetworkConfig::send_queue_frames`] undelivered frames — the link's
    /// back-pressure point — but for at most [`NetworkConfig::send_timeout`] when
    /// that is non-zero.
    ///
    /// Returns `false` if the receiving instance has shut down, or if a bounded
    /// queue stayed full past the send timeout (a receiver that will never drain
    /// again looks exactly like back-pressure; the timeout is what tells them
    /// apart).
    pub fn send(&self, payload: Vec<u8>) -> bool {
        let size = payload.len();
        self.stats.record(size);
        let now = Instant::now();
        let deliver_at = {
            let mut busy = self.tx_busy_until.lock();
            let start = (*busy).max(now);
            let done = start + self.config.transmission_delay(size);
            *busy = done;
            done + self.config.latency
        };
        let frame = Frame {
            payload,
            deliver_at,
        };
        if self.config.send_queue_frames != 0 && self.config.send_timeout > Duration::ZERO {
            self.tx
                .send_timeout(frame, self.config.send_timeout)
                .is_ok()
        } else {
            self.tx.send(frame).is_ok()
        }
    }

    /// Per-link statistics.
    pub fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }
}

impl LinkReceiver {
    /// Receives the next frame, honouring the simulated delivery time.
    /// Returns `None` when the sending instance has shut down and no frames remain.
    pub fn recv(&self) -> Option<Vec<u8>> {
        let frame = self.rx.recv().ok()?;
        let now = Instant::now();
        if frame.deliver_at > now {
            std::thread::sleep(frame.deliver_at - now);
        }
        Some(frame.payload)
    }
}

/// The sending side of a frame transport towards another SPE instance.
///
/// Implemented by the plain [`LinkSender`] and by the per-channel [`MuxSender`]s of a
/// [`SharedLink`], so the Send operator is agnostic to whether its stream has a link
/// of its own or shares one.
pub trait FrameSink: Send + 'static {
    /// Ships one frame. Returns `false` if the receiving instance has shut down.
    fn send_frame(&self, frame: Vec<u8>) -> bool;
}

/// The receiving side of a frame transport (see [`FrameSink`]).
pub trait FrameSource: Send + 'static {
    /// Receives the next frame, honouring the simulated delivery time. Returns
    /// `None` once the sending instance has shut down and no frames remain.
    fn recv_frame(&self) -> Option<Vec<u8>>;
}

impl FrameSink for LinkSender {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        self.send(frame)
    }
}

impl FrameSource for LinkReceiver {
    fn recv_frame(&self) -> Option<Vec<u8>> {
        self.recv()
    }
}

impl FrameSink for Box<dyn FrameSink> {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        (**self).send_frame(frame)
    }
}

impl FrameSource for Box<dyn FrameSource> {
    fn recv_frame(&self) -> Option<Vec<u8>> {
        (**self).recv_frame()
    }
}

/// Factory for a link carrying several multiplexed frame channels.
///
/// Each frame is prefixed with its channel id (a little-endian `u32`), so what the
/// [`LinkStats`] count is what actually crosses the wire. The receiving side
/// demultiplexes *on demand*: a channel's receiver first drains its own queue, then
/// pulls frames off the shared link, parking frames addressed to other channels in
/// their queues. No demux thread is needed; progress is guaranteed because every
/// channel's sender terminates its stream with an explicit end frame.
#[derive(Debug, Clone, Copy)]
pub struct SharedLink;

/// The sending half of one channel of a [`SharedLink`].
#[derive(Clone)]
pub struct MuxSender<S: FrameSink + Clone = LinkSender> {
    channel: u32,
    inner: S,
}

struct MuxState {
    queues: Vec<VecDeque<Vec<u8>>>,
    closed: bool,
    /// Whether a receiver currently holds the puller role, i.e. is inside (or about
    /// to enter) the blocking receive on the link.
    pulling: bool,
    /// Receivers parked on [`Mux::changed`].
    waiters: usize,
}

/// What the receivers of one [`SharedLink`] share.
struct Mux<R> {
    /// Only ever held for a pop, a park or a role change — never across a blocking
    /// receive — so a channel whose frames have already arrived drains them even
    /// while a sibling channel's receiver is blocked pulling the link. A std mutex
    /// because receivers wait on it through `changed`.
    state: std::sync::Mutex<MuxState>,
    /// Signalled when the puller parks a frame, closes the link or hands the role
    /// back: receivers that find their queue empty while a sibling pulls wait here,
    /// not on a lock the puller holds across its blocking receive.
    changed: Condvar,
    /// The link itself. Only the receiver that set `pulling` locks it, so the lock
    /// is never contended; it exists because a [`FrameSource`] is not `Sync`.
    link: Mutex<R>,
    channels: usize,
    stats: Arc<LinkStats>,
}

impl<R> Mux<R> {
    fn state(&self) -> MutexGuard<'_, MuxState> {
        // Every update leaves the state valid at every step, so a poisoned lock is
        // safe to recover.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The receiving half of one channel of a [`SharedLink`].
///
/// One receiver at a time holds the *puller* role and blocks on the link; it parks
/// frames addressed to sibling channels in their queues and wakes them. Pulls are
/// serialised, preserving per-channel FIFO order.
pub struct MuxReceiver<R: FrameSource = LinkReceiver> {
    channel: usize,
    mux: Arc<Mux<R>>,
}

impl SharedLink {
    /// Creates a link multiplexing `channels` frame channels and splits it into the
    /// per-channel halves (index `i` of the senders pairs with index `i` of the
    /// receivers), plus the shared traffic counters.
    ///
    /// # Panics
    /// Panics if `channels` is zero.
    #[allow(clippy::new_ret_no_self)] // like SimulatedLink, only used as its halves
    pub fn new(
        channels: usize,
        config: NetworkConfig,
    ) -> (Vec<MuxSender>, Vec<MuxReceiver>, Arc<LinkStats>) {
        let (tx, rx, stats) = SimulatedLink::new(config);
        let (senders, receivers) = SharedLink::over(channels, tx, rx, Arc::clone(&stats));
        (senders, receivers, stats)
    }

    /// Multiplexes `channels` frame channels over an arbitrary frame transport —
    /// the frame-level seam the TCP transport plugs into. `stats` counts the
    /// demultiplexer's dropped frames (the sender-side traffic counters are the
    /// transport's own concern: pass the transport's [`LinkStats`] to keep both
    /// views on one handle).
    ///
    /// # Panics
    /// Panics if `channels` is zero.
    pub fn over<S, R>(
        channels: usize,
        tx: S,
        rx: R,
        stats: Arc<LinkStats>,
    ) -> (Vec<MuxSender<S>>, Vec<MuxReceiver<R>>)
    where
        S: FrameSink + Clone,
        R: FrameSource,
    {
        assert!(channels > 0, "a shared link needs at least one channel");
        let mux = Arc::new(Mux {
            state: std::sync::Mutex::new(MuxState {
                queues: (0..channels).map(|_| VecDeque::new()).collect(),
                closed: false,
                pulling: false,
                waiters: 0,
            }),
            changed: Condvar::new(),
            link: Mutex::new(rx),
            channels,
            stats,
        });
        let senders = (0..channels)
            .map(|channel| MuxSender {
                channel: channel as u32,
                inner: tx.clone(),
            })
            .collect();
        let receivers = (0..channels)
            .map(|channel| MuxReceiver {
                channel,
                mux: Arc::clone(&mux),
            })
            .collect();
        (senders, receivers)
    }
}

impl<S: FrameSink + Clone> FrameSink for MuxSender<S> {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        let mut framed = Vec::with_capacity(frame.len() + 4);
        framed.extend_from_slice(&self.channel.to_le_bytes());
        framed.extend_from_slice(&frame);
        self.inner.send_frame(framed)
    }
}

impl<R: FrameSource> MuxReceiver<R> {
    /// Pulls the next routable frame off the link and splits it into
    /// `(channel, payload)`; `None` means the link closed. Called by the puller
    /// only, without the state lock.
    fn pull(&self) -> Option<(usize, Vec<u8>)> {
        loop {
            let mut framed = self.mux.link.lock().recv_frame()?;
            let Some(prefix) = framed.get(..4).and_then(|p| <[u8; 4]>::try_from(p).ok()) else {
                // Runt frame: too short to carry a channel prefix. The payload (if
                // any) is lost — account for it instead of dropping it silently.
                self.mux.stats.record_runt();
                Tracer::global().emit_once(
                    "link-dropped-frame",
                    "runt",
                    format!(
                        "dropped a {}-byte frame: too short for the 4-byte \
                         channel prefix (further runts are only counted)",
                        framed.len()
                    ),
                );
                continue;
            };
            let channel = u32::from_le_bytes(prefix) as usize;
            let channels = self.mux.channels;
            if channel >= channels {
                self.mux.stats.record_unroutable();
                Tracer::global().emit_once(
                    "link-dropped-frame",
                    "unroutable",
                    format!(
                        "dropped a frame addressed to channel {channel} of a \
                         {channels}-channel link (further unroutable frames \
                         are only counted)"
                    ),
                );
                continue;
            }
            // Strip the prefix in place: one memmove, no re-allocation on the
            // per-frame hot path.
            framed.drain(..4);
            return Some((channel, framed));
        }
    }
}

impl<R: FrameSource> FrameSource for MuxReceiver<R> {
    fn recv_frame(&self) -> Option<Vec<u8>> {
        let mux = &*self.mux;
        let mut state = mux.state();
        loop {
            if let Some(frame) = state.queues[self.channel].pop_front() {
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            if state.pulling {
                // A sibling pulls the link; it signals when it has parked a frame
                // (possibly ours), closed the link or handed the role back.
                state.waiters += 1;
                state = mux.changed.wait(state).unwrap_or_else(|e| e.into_inner());
                state.waiters -= 1;
                continue;
            }
            // Become the puller. The state lock is NOT held across the blocking
            // receive, so sibling channels keep draining frames that already
            // arrived while this thread waits on the link.
            state.pulling = true;
            drop(state);
            let pulled = self.pull();
            state = mux.state();
            state.pulling = false;
            let mine = match pulled {
                None => {
                    state.closed = true;
                    None
                }
                // Our queue was empty when we took the role and only the puller
                // fills queues, so handing the frame over directly keeps FIFO order.
                Some((channel, frame)) if channel == self.channel => Some(frame),
                Some((channel, frame)) => {
                    state.queues[channel].push_back(frame);
                    None
                }
            };
            // The explicit hand-off: a sibling whose frame was just parked, or who
            // must take over the puller role, waits on `changed`, never on a lock
            // this thread could win again before blocking on the link.
            if state.waiters > 0 {
                mux.changed.notify_all();
            }
            if mine.is_some() || state.closed {
                return mine;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_link_demultiplexes_per_channel_in_order() {
        let (txs, rxs, stats) = SharedLink::new(2, NetworkConfig::unlimited());
        assert!(txs[0].send_frame(vec![10]));
        assert!(txs[1].send_frame(vec![20]));
        assert!(txs[0].send_frame(vec![11]));
        // Channel 1 reads its frame even though channel 0's frames arrived first.
        assert_eq!(rxs[1].recv_frame().unwrap(), vec![20]);
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![10]);
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![11]);
        // The stats count the channel prefix: 3 frames of 1 payload + 4 prefix bytes.
        assert_eq!(stats.frames(), 3);
        assert_eq!(stats.bytes(), 15);
        drop(txs);
        assert!(rxs[0].recv_frame().is_none());
        assert!(rxs[1].recv_frame().is_none());
    }

    /// Spins until `condition` holds; panics past the deadline.
    fn wait_until(what: &str, condition: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !condition() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shared_link_sibling_drains_while_puller_blocks() {
        // The lost hand-off was a race: many iterations, each with a deadline, so a
        // regression fails in seconds instead of hanging the suite.
        for iteration in 0..200 {
            let (txs, mut rxs, _stats) = SharedLink::new(2, NetworkConfig::unlimited());
            let rx1 = rxs.pop().expect("two receivers");
            let rx0 = rxs.pop().expect("two receivers");
            let mux = Arc::clone(&rx0.mux);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            // Receiver 1 becomes the blocked puller on an empty link ...
            let done = done_tx.clone();
            std::thread::spawn(move || done.send((1, rx1.recv_frame())));
            wait_until("receiver 1 pulls", || mux.state().pulling);
            // ... and receiver 0 finds its queue empty behind it.
            std::thread::spawn(move || done_tx.send((0, rx0.recv_frame())));
            wait_until("receiver 0 waits", || mux.state().waiters == 1);
            // A channel-0 frame arriving now is pulled and parked by receiver 1; it
            // must reach receiver 0 without waiting for any channel-1 traffic.
            assert!(txs[0].send_frame(vec![42]));
            let deadline = Duration::from_secs(5);
            assert_eq!(
                done_rx.recv_timeout(deadline),
                Ok((0, Some(vec![42]))),
                "iteration {iteration}: the parked frame never reached its channel"
            );
            // Unblock receiver 1 with its own frame.
            assert!(txs[1].send_frame(vec![7]));
            assert_eq!(
                done_rx.recv_timeout(deadline),
                Ok((1, Some(vec![7]))),
                "iteration {iteration}: the puller never got its own frame"
            );
        }
    }

    #[test]
    fn shared_link_channels_close_independently_of_queued_frames() {
        let (txs, rxs, _stats) = SharedLink::new(2, NetworkConfig::unlimited());
        txs[1].send_frame(vec![7]);
        drop(txs);
        // Channel 0 sees the closed link; channel 1 still gets its queued frame.
        assert!(rxs[0].recv_frame().is_none());
        assert_eq!(rxs[1].recv_frame().unwrap(), vec![7]);
        assert!(rxs[1].recv_frame().is_none());
    }

    #[test]
    fn frames_arrive_in_order_with_stats() {
        let (tx, rx, stats) = SimulatedLink::new(NetworkConfig::unlimited());
        assert!(tx.send(vec![1, 2, 3]));
        assert!(tx.send(vec![4]));
        assert_eq!(rx.recv().unwrap(), vec![1, 2, 3]);
        assert_eq!(rx.recv().unwrap(), vec![4]);
        assert_eq!(stats.frames(), 2);
        assert_eq!(stats.bytes(), 4);
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn transmission_delay_scales_with_size_and_bandwidth() {
        let cfg = NetworkConfig {
            bandwidth_bps: 8_000, // 1000 bytes/s
            latency: Duration::ZERO,
            ..NetworkConfig::unlimited()
        };
        assert_eq!(cfg.transmission_delay(1_000), Duration::from_secs(1));
        assert_eq!(
            NetworkConfig::unlimited().transmission_delay(1_000_000),
            Duration::ZERO
        );
    }

    #[test]
    fn latency_delays_delivery() {
        let (tx, rx, _stats) = SimulatedLink::new(NetworkConfig {
            bandwidth_bps: 0,
            latency: Duration::from_millis(20),
            ..NetworkConfig::unlimited()
        });
        let start = Instant::now();
        tx.send(vec![0; 16]);
        rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn bandwidth_throttles_bulk_transfers() {
        // 80 kbps = 10 KiB/s; 10 frames of 1 KiB should take about a second.
        let (tx, rx, _stats) = SimulatedLink::new(NetworkConfig {
            bandwidth_bps: 80_000,
            latency: Duration::ZERO,
            ..NetworkConfig::unlimited()
        });
        let start = Instant::now();
        for _ in 0..10 {
            tx.send(vec![0u8; 1_000]);
        }
        for _ in 0..10 {
            rx.recv().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(800), "elapsed {elapsed:?}");
    }

    #[test]
    fn default_config_matches_the_testbed_switch() {
        let cfg = NetworkConfig::default();
        assert_eq!(cfg.bandwidth_bps, 100_000_000);
        assert!(cfg.latency <= Duration::from_millis(1));
        assert!(
            cfg.send_queue_frames > 0,
            "the default send queue is bounded"
        );
        assert_eq!(NetworkConfig::unlimited().send_queue_frames, 0);
        assert_eq!(
            NetworkConfig::unlimited()
                .with_send_queue_frames(7)
                .send_queue_frames,
            7
        );
    }

    #[test]
    fn bounded_send_queue_exerts_back_pressure() {
        use std::sync::atomic::AtomicUsize;
        // High-water mark of 1 frame with no receiver draining: the second send
        // must block until the receiver pops a frame.
        let (tx, rx, _stats) =
            SimulatedLink::new(NetworkConfig::unlimited().with_send_queue_frames(1));
        let sent = Arc::new(AtomicUsize::new(0));
        let sent_in_thread = Arc::clone(&sent);
        let sender = std::thread::spawn(move || {
            for i in 0..3u8 {
                assert!(tx.send(vec![i]));
                sent_in_thread.fetch_add(1, Ordering::SeqCst);
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let blocked_at = sent.load(Ordering::SeqCst);
        assert!(
            blocked_at < 3,
            "the sender must block at the high-water mark, sent {blocked_at}"
        );
        // Draining the receiver releases the sender frame by frame.
        assert_eq!(rx.recv().unwrap(), vec![0]);
        assert_eq!(rx.recv().unwrap(), vec![1]);
        assert_eq!(rx.recv().unwrap(), vec![2]);
        sender.join().unwrap();
        assert_eq!(sent.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn bounded_send_times_out_when_the_receiver_never_drains() {
        let (tx, rx, _stats) = SimulatedLink::new(
            NetworkConfig::unlimited()
                .with_send_queue_frames(1)
                .with_send_timeout(Duration::from_millis(50)),
        );
        assert!(tx.send(vec![0]));
        // The queue is full and nobody is draining it: the second send must give
        // up after the timeout instead of wedging the sending operator forever.
        let start = Instant::now();
        assert!(!tx.send(vec![1]));
        assert!(start.elapsed() >= Duration::from_millis(40));
        // With the receiver dropped the failure is immediate (disconnected).
        drop(rx);
        let start = Instant::now();
        assert!(!tx.send(vec![2]));
        assert!(start.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn demux_counts_runt_and_unroutable_frames_instead_of_dropping_silently() {
        let (raw_tx, raw_rx, stats) = SimulatedLink::new(NetworkConfig::unlimited());
        let (txs, rxs) = SharedLink::over(2, raw_tx.clone(), raw_rx, Arc::clone(&stats));
        // A frame too short for the channel prefix and one addressed to a channel
        // that does not exist, injected below the mux layer.
        assert!(raw_tx.send(vec![9, 9]));
        assert!(raw_tx.send(7u32.to_le_bytes().to_vec()));
        // A well-formed frame behind them proves the receiver keeps going.
        assert!(txs[1].send_frame(vec![42]));
        assert_eq!(rxs[1].recv_frame().unwrap(), vec![42]);
        assert_eq!(stats.dropped_runt(), 1);
        assert_eq!(stats.dropped_unroutable(), 1);
        assert_eq!(stats.dropped_frames(), 2);
    }

    #[test]
    fn dropped_frame_counters_reach_the_metrics_registry() {
        let (raw_tx, raw_rx, stats) = SimulatedLink::new(NetworkConfig::unlimited());
        let (txs, rxs) = SharedLink::over(1, raw_tx.clone(), raw_rx, Arc::clone(&stats));
        let registry = MetricsRegistry::new();
        stats.export_dropped_frames(&registry, "test-link");
        assert!(raw_tx.send(vec![1]));
        assert!(txs[0].send_frame(vec![5]));
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![5]);
        let exposition = registry.render_prometheus();
        assert!(
            exposition.contains(
                "genealog_link_dropped_frames_total{link=\"test-link\",reason=\"runt\"} 1"
            ),
            "missing runt counter in:\n{exposition}"
        );
        assert!(
            exposition.contains(
                "genealog_link_dropped_frames_total{link=\"test-link\",reason=\"unroutable\"} 0"
            ),
            "missing unroutable counter in:\n{exposition}"
        );
    }

    #[test]
    fn reconnect_window_sums_backoffs_and_connect_timeouts() {
        let cfg = NetworkConfig::unlimited()
            .with_connect_timeout(Duration::from_millis(100))
            .with_reconnects(2, Duration::from_millis(50));
        // 50ms + 100ms + 100ms + 100ms: doubling backoff, one connect per attempt.
        assert_eq!(cfg.reconnect_window(), Duration::from_millis(350));
        assert_eq!(
            cfg.with_reconnects(0, Duration::ZERO).reconnect_window(),
            Duration::ZERO
        );
        // The window is capped so a mis-configured budget cannot stall recovery.
        let wide = cfg.with_reconnects(30, Duration::from_secs(1));
        assert_eq!(wide.reconnect_window(), Duration::from_secs(10));
    }

    #[test]
    fn shared_link_inherits_the_send_queue_bound() {
        // The multiplexed link sits on one SimulatedLink: its channels share the
        // same bounded send queue.
        let (txs, rxs, _stats) =
            SharedLink::new(2, NetworkConfig::unlimited().with_send_queue_frames(2));
        let t0 = txs[0].clone();
        let t1 = txs[1].clone();
        let done = std::thread::spawn(move || {
            assert!(t0.send_frame(vec![1]));
            assert!(t1.send_frame(vec![2]));
            // Third frame exceeds the shared high-water mark until a drain.
            assert!(t0.send_frame(vec![3]));
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!done.is_finished(), "the shared queue must block when full");
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![1]);
        assert_eq!(rxs[1].recv_frame().unwrap(), vec![2]);
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![3]);
        done.join().unwrap();
    }
}
