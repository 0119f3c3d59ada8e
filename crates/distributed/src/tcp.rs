//! A real TCP transport behind the [`FrameSink`] / [`FrameSource`] seam.
//!
//! Frames cross the socket length-delimited: a little-endian `u32` byte count
//! followed by the payload. Everything above this layer — the [`SharedLink`]
//! channel-prefix mux, the Send/Receive operators' sequence numbers, the
//! GeneaLog provenance stitching — is byte-identical to what the
//! [`SimulatedLink`](crate::network::SimulatedLink) carries, which is what lets
//! the distributed proptests run unchanged over loopback sockets.
//!
//! # Failure semantics
//!
//! A clean shutdown (the last [`TcpSender`] clone dropping) writes a goodbye
//! sentinel before closing, so the receiver distinguishes an orderly
//! end-of-stream from a crash. On a broken pipe the sender re-dials up to
//! [`NetworkConfig::reconnect_attempts`] times with a doubling
//! [`NetworkConfig::reconnect_backoff`], re-sending the frame whose write
//! failed; the receiver keeps its listener open for the matching
//! [`reconnect_window`](NetworkConfig::reconnect_window) before declaring the
//! link severed. A frame that was delivered before the connection died and then
//! re-sent arrives twice — the Receive operator's sequence numbers skip the
//! duplicate, exactly as they flag the gap when a frame is lost in flight.
//!
//! Once the budget is exhausted (or immediately, with `reconnect_attempts ==
//! 0`), [`TcpReceiver::recv_frame`] returns `None` mid-stream. The Receive
//! operator treats that as a link severed before the end-of-stream marker,
//! fences the checkpoint store and errors out — so a dropped socket flows into
//! `run_with_recovery` exactly like a simulated
//! [`FaultPlan`](crate::fault::FaultPlan) sever.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use genealog_spe::SpeError;
use parking_lot::Mutex;

use crate::deployment::{ShardTransport, ShardWiring};
use crate::network::{FrameSink, FrameSource, LinkStats, NetworkConfig, SharedLink};

/// Largest payload [`TcpReceiver`] accepts. A length prefix beyond this is
/// treated as stream corruption (the link is torn down), bounding the
/// allocation a corrupt or malicious peer can trigger to something a host
/// survives.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Length-prefix sentinel announcing an orderly close (no payload follows).
const GOODBYE: u32 = u32::MAX;

pub(crate) fn apply_socket_options(stream: &TcpStream, config: &NetworkConfig) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream
        .set_read_timeout((config.read_timeout > Duration::ZERO).then_some(config.read_timeout))?;
    stream
        .set_write_timeout((config.write_timeout > Duration::ZERO).then_some(config.write_timeout))
}

pub(crate) fn write_frame(stream: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    let len = frame.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(frame)
}

pub(crate) enum ReadOutcome {
    Frame(Vec<u8>),
    Goodbye,
}

pub(crate) fn read_frame(stream: &mut TcpStream) -> io::Result<ReadOutcome> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len == GOODBYE {
        return Ok(ReadOutcome::Goodbye);
    }
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    Ok(ReadOutcome::Frame(payload))
}

struct SendState {
    stream: Option<TcpStream>,
}

/// Writes the goodbye sentinel when the last [`TcpSender`] clone drops, so the
/// peer sees an orderly close instead of a crash.
struct GoodbyeGuard {
    state: Arc<Mutex<SendState>>,
    dead: Arc<AtomicBool>,
}

impl Drop for GoodbyeGuard {
    fn drop(&mut self) {
        if self.dead.load(Ordering::SeqCst) {
            return;
        }
        let mut state = self.state.lock();
        if let Some(stream) = state.stream.as_mut() {
            let _ = stream.write_all(&GOODBYE.to_le_bytes());
            let _ = stream.shutdown(Shutdown::Write);
        }
        state.stream = None;
    }
}

/// The sending half of a TCP link. Cloneable — clones share the connection, the
/// reconnect budget and the traffic counters, and the goodbye sentinel is
/// written when the last clone drops.
#[derive(Clone)]
pub struct TcpSender {
    state: Arc<Mutex<SendState>>,
    dead: Arc<AtomicBool>,
    config: NetworkConfig,
    reconnect_addr: Option<SocketAddr>,
    stats: Arc<LinkStats>,
    _goodbye: Arc<GoodbyeGuard>,
}

impl TcpSender {
    /// Dials `addr` — immediately, then with the configured backoff/retry
    /// budget — and returns the sender plus its traffic counters. Broken pipes
    /// later re-dial the same address.
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: NetworkConfig,
    ) -> io::Result<(Self, Arc<LinkStats>)> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut backoff = config.reconnect_backoff;
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect_timeout(&addr, config.connect_timeout) {
                Ok(stream) => break stream,
                Err(err) if attempt >= config.reconnect_attempts => return Err(err),
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.checked_mul(2).unwrap_or(backoff);
                }
            }
        };
        apply_socket_options(&stream, &config)?;
        Ok(Self::from_stream(stream, Some(addr), config))
    }

    /// Wraps an already-connected stream (e.g. the accepted side of a
    /// bidirectional deployment socket). With `reconnect_addr == None` a broken
    /// pipe severs the link on the spot — an accepted connection has nowhere to
    /// re-dial.
    pub fn from_stream(
        stream: TcpStream,
        reconnect_addr: Option<SocketAddr>,
        config: NetworkConfig,
    ) -> (Self, Arc<LinkStats>) {
        let _ = apply_socket_options(&stream, &config);
        let state = Arc::new(Mutex::new(SendState {
            stream: Some(stream),
        }));
        let dead = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(LinkStats::default());
        let sender = TcpSender {
            _goodbye: Arc::new(GoodbyeGuard {
                state: Arc::clone(&state),
                dead: Arc::clone(&dead),
            }),
            state,
            dead,
            config,
            reconnect_addr,
            stats: Arc::clone(&stats),
        };
        (sender, stats)
    }

    /// A handle that kills the connection abruptly — no goodbye, no reconnect —
    /// from any thread. The receiving side observes a mid-stream close, which
    /// is the byte-level equivalent of a
    /// [`FaultPlan`](crate::fault::FaultPlan) sever.
    pub fn sever_handle(&self) -> TcpSeverHandle {
        TcpSeverHandle {
            state: Arc::clone(&self.state),
            dead: Arc::clone(&self.dead),
        }
    }

    /// Per-link traffic counters.
    pub fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }
}

impl FrameSink for TcpSender {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        if frame.len() as u64 >= u64::from(GOODBYE) {
            return false;
        }
        if self.dead.load(Ordering::SeqCst) {
            return false;
        }
        let mut state = self.state.lock();
        let mut backoff = self.config.reconnect_backoff;
        for attempt in 0..=self.config.reconnect_attempts {
            if self.dead.load(Ordering::SeqCst) {
                return false;
            }
            if attempt > 0 {
                // Re-dial with backoff. Holding the lock is deliberate: the
                // connection is shared, so sibling mux channels have nothing
                // useful to do until it is back.
                let Some(addr) = self.reconnect_addr else {
                    break;
                };
                std::thread::sleep(backoff);
                backoff = backoff.checked_mul(2).unwrap_or(backoff);
                match TcpStream::connect_timeout(&addr, self.config.connect_timeout) {
                    Ok(stream) => {
                        let _ = apply_socket_options(&stream, &self.config);
                        state.stream = Some(stream);
                    }
                    Err(_) => continue,
                }
            }
            let Some(stream) = state.stream.as_mut() else {
                continue;
            };
            if write_frame(stream, &frame).is_ok() {
                // Mirror the simulated link's accounting: every frame that made
                // it onto the wire counts, re-sends after a reconnect included.
                self.stats.record(frame.len());
                return true;
            }
            state.stream = None;
        }
        self.dead.store(true, Ordering::SeqCst);
        state.stream = None;
        false
    }
}

/// Abrupt kill switch for a [`TcpSender`]'s connection (see
/// [`TcpSender::sever_handle`]).
pub struct TcpSeverHandle {
    state: Arc<Mutex<SendState>>,
    dead: Arc<AtomicBool>,
}

impl TcpSeverHandle {
    /// Shuts the socket down in both directions without the goodbye sentinel
    /// and marks the sender dead so it never reconnects.
    pub fn sever(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let mut state = self.state.lock();
        if let Some(stream) = state.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The receiving half of a TCP link.
///
/// After an abrupt disconnect it keeps its listener (when it has one) open for
/// the peer's [`reconnect_window`](NetworkConfig::reconnect_window) and resumes
/// on the fresh connection; a goodbye sentinel or an exhausted window closes
/// the source for good.
pub struct TcpReceiver {
    stream: Mutex<Option<TcpStream>>,
    listener: Option<TcpListener>,
    closed: AtomicBool,
    config: NetworkConfig,
}

impl TcpReceiver {
    /// Wraps an already-connected stream. `listener`, when given, is kept for
    /// re-accepting after an abrupt disconnect.
    pub fn from_stream(
        stream: TcpStream,
        listener: Option<TcpListener>,
        config: NetworkConfig,
    ) -> Self {
        let _ = apply_socket_options(&stream, &config);
        TcpReceiver {
            stream: Mutex::new(Some(stream)),
            listener,
            closed: AtomicBool::new(false),
            config,
        }
    }

    /// Polls the listener for a replacement connection for at most the
    /// configured reconnect window.
    fn reaccept(&self) -> Option<TcpStream> {
        let listener = self.listener.as_ref()?;
        let window = self.config.reconnect_window();
        if window.is_zero() {
            return None;
        }
        listener.set_nonblocking(true).ok()?;
        let deadline = Instant::now() + window;
        let stream = loop {
            match listener.accept() {
                Ok((stream, _)) => break Some(stream),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break None;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break None,
            }
        };
        let _ = listener.set_nonblocking(false);
        let stream = stream?;
        apply_socket_options(&stream, &self.config).ok()?;
        Some(stream)
    }
}

impl FrameSource for TcpReceiver {
    fn recv_frame(&self) -> Option<Vec<u8>> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let mut guard = self.stream.lock();
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(stream) = guard.as_mut() {
                match read_frame(stream) {
                    Ok(ReadOutcome::Frame(payload)) => return Some(payload),
                    Ok(ReadOutcome::Goodbye) => {
                        self.closed.store(true, Ordering::SeqCst);
                        *guard = None;
                        return None;
                    }
                    Err(_) => {
                        // Abrupt close (or read timeout): give the peer its
                        // reconnect window before declaring the link severed.
                        *guard = None;
                    }
                }
            }
            match self.reaccept() {
                Some(stream) => *guard = Some(stream),
                None => {
                    self.closed.store(true, Ordering::SeqCst);
                    return None;
                }
            }
        }
    }
}

/// Factory for TCP links, mirroring [`SimulatedLink`](crate::network::SimulatedLink).
#[derive(Debug, Clone, Copy)]
pub struct TcpLink;

impl TcpLink {
    /// An in-process loopback link over a real socket: binds an ephemeral
    /// listener, dials it, and splits the connection into halves. The receiver
    /// keeps the listener, so a broken pipe heals through the sender's
    /// re-dial + the receiver's re-accept.
    #[allow(clippy::new_ret_no_self)] // like SimulatedLink, only used as its halves
    pub fn pair(config: NetworkConfig) -> io::Result<(TcpSender, TcpReceiver, Arc<LinkStats>)> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let addr = listener.local_addr()?;
        let (sender, stats) = TcpSender::connect(addr, config)?;
        let (stream, _) = listener.accept()?;
        let receiver = TcpReceiver::from_stream(stream, Some(listener), config);
        Ok((sender, receiver, stats))
    }
}

/// A [`FrameSink`] decorator that severs the physical socket before its `n`-th
/// frame goes out — the TCP analogue of
/// [`LinkFaults::severing_before`](crate::fault::LinkFaults::severing_before),
/// except the cut happens below the mux, so every channel of the link dies with
/// it (exactly what a crashed process does to its connection).
struct SocketKiller<S> {
    inner: S,
    handle: TcpSeverHandle,
    sever_before: u64,
    sent: AtomicU64,
}

impl<S: FrameSink> FrameSink for SocketKiller<S> {
    fn send_frame(&self, frame: Vec<u8>) -> bool {
        let index = self.sent.fetch_add(1, Ordering::SeqCst);
        if index == self.sever_before {
            self.handle.sever();
            return false;
        }
        self.inner.send_frame(frame)
    }
}

/// A [`ShardTransport`] wiring every shard over real loopback sockets.
///
/// [`with_return_kill`](Self::with_return_kill) arms a one-shot fault for
/// fault-injection tests: the designated shard's return socket is shut down
/// abruptly before its `n`-th data frame, mid-epoch sever included.
#[derive(Debug, Clone, Copy)]
pub struct TcpLoopbackTransport {
    network: NetworkConfig,
    kill_return: Option<(usize, u64)>,
}

impl TcpLoopbackTransport {
    /// A transport with the given socket configuration and no armed faults.
    pub fn new(network: NetworkConfig) -> Self {
        TcpLoopbackTransport {
            network,
            kill_return: None,
        }
    }

    /// Arms the socket killer: shard `shard`'s return connection is severed —
    /// `shutdown(2)`, no goodbye — before its `before_frame`-th data frame.
    pub fn with_return_kill(mut self, shard: usize, before_frame: u64) -> Self {
        self.kill_return = Some((shard, before_frame));
        self
    }
}

impl ShardTransport for TcpLoopbackTransport {
    fn shard_links(&self, shard: usize, back_channels: usize) -> Result<ShardWiring, SpeError> {
        let sockets = |what: &'static str| {
            move |err: io::Error| SpeError::Runtime {
                operator: "tcp-transport".into(),
                message: format!("{what} socket failed: {err}"),
            }
        };
        let forward = TcpLink::pair(self.network).map_err(sockets("forward"))?;
        let (back_tx, back_rx, back_stats) =
            TcpLink::pair(self.network).map_err(sockets("return"))?;
        let sever = back_tx.sever_handle();
        let (back_txs, back_rxs) =
            SharedLink::over(back_channels, back_tx, back_rx, Arc::clone(&back_stats));
        let mut wiring = ShardWiring::new(forward, (back_txs, back_rxs, back_stats));
        if let Some((_, sever_before)) = self.kill_return.filter(|&(victim, _)| victim == shard) {
            // Count the data stream's frames, cut the socket under every channel.
            wiring.wrap_data_tx(|inner| {
                Box::new(SocketKiller {
                    inner,
                    handle: sever,
                    sever_before,
                    sent: AtomicU64::new(0),
                })
            });
        }
        Ok(wiring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> NetworkConfig {
        NetworkConfig::unlimited()
            .with_connect_timeout(Duration::from_millis(500))
            .with_reconnects(3, Duration::from_millis(10))
    }

    #[test]
    fn frames_cross_a_real_socket_in_order() {
        let (tx, rx, stats) = TcpLink::pair(quick()).expect("loopback pair");
        assert!(tx.send_frame(vec![1, 2, 3]));
        assert!(tx.send_frame(vec![]));
        assert!(tx.send_frame(vec![4]));
        assert_eq!(rx.recv_frame().unwrap(), vec![1, 2, 3]);
        assert_eq!(rx.recv_frame().unwrap(), Vec::<u8>::new());
        assert_eq!(rx.recv_frame().unwrap(), vec![4]);
        assert_eq!(stats.frames(), 3);
        assert_eq!(stats.bytes(), 4);
        drop(tx);
        // The goodbye sentinel closes the stream cleanly.
        assert!(rx.recv_frame().is_none());
        assert!(rx.recv_frame().is_none());
    }

    #[test]
    fn mux_channels_share_one_socket() {
        let (tx, rx, stats) = TcpLink::pair(quick()).expect("loopback pair");
        let (txs, rxs) = SharedLink::over(2, tx, rx, stats);
        assert!(txs[0].send_frame(vec![10]));
        assert!(txs[1].send_frame(vec![20]));
        assert!(txs[0].send_frame(vec![11]));
        assert_eq!(rxs[1].recv_frame().unwrap(), vec![20]);
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![10]);
        assert_eq!(rxs[0].recv_frame().unwrap(), vec![11]);
        drop(txs);
        assert!(rxs[0].recv_frame().is_none());
        assert!(rxs[1].recv_frame().is_none());
    }

    #[test]
    fn sender_reconnects_after_a_broken_pipe() {
        let (tx, rx, _stats) = TcpLink::pair(quick()).expect("loopback pair");
        // A pump keeps sending; the first frames confirm the link is up.
        let stop = Arc::new(AtomicBool::new(false));
        let pump_stop = Arc::clone(&stop);
        let pump_tx = tx.clone();
        let pump = std::thread::spawn(move || {
            let mut i: u32 = 0;
            while !pump_stop.load(Ordering::SeqCst) {
                pump_tx.send_frame(i.to_le_bytes().to_vec());
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rx.recv_frame().is_some());
        // Kill the established connection under the receiver's feet (its
        // listener survives, modelling a transient network cut): the sender
        // must hit the broken pipe, re-dial, and frames must flow again.
        {
            let mut guard = rx.stream.lock();
            if let Some(stream) = guard.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let mut post_cut = 0;
        while post_cut < 30 {
            match rx.recv_frame() {
                Some(_) => post_cut += 1,
                None => break,
            }
        }
        stop.store(true, Ordering::SeqCst);
        pump.join().unwrap();
        assert!(
            post_cut >= 30,
            "frames must flow again after the reconnect, got {post_cut}"
        );
        drop(tx);
    }

    #[test]
    fn severed_socket_reports_a_mid_stream_close() {
        let config = quick().with_reconnects(0, Duration::ZERO);
        let (tx, rx, _stats) = TcpLink::pair(config).expect("loopback pair");
        assert!(tx.send_frame(vec![1]));
        assert_eq!(rx.recv_frame().unwrap(), vec![1]);
        tx.sever_handle().sever();
        // No goodbye and no reconnect budget: the source ends mid-stream.
        assert!(rx.recv_frame().is_none());
        // The dead sender never resurrects the link.
        assert!(!tx.send_frame(vec![2]));
    }

    #[test]
    fn oversized_length_prefix_tears_the_link_down() {
        let config = quick().with_reconnects(0, Duration::ZERO);
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut raw = TcpStream::connect(addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let rx = TcpReceiver::from_stream(stream, Some(listener), config);
        // A length prefix far past the cap (but below the goodbye sentinel).
        raw.write_all(&(MAX_FRAME_BYTES + 1).to_le_bytes())
            .expect("write");
        assert!(rx.recv_frame().is_none());
    }
}
