//! The Send and Receive operators (§2) connecting SPE instances over a link.
//!
//! Send serialises every stream element into a wire frame and pushes it onto the link;
//! Receive deserialises frames and re-materialises tuples in the receiving instance,
//! asking the local provenance system for their metadata through the `remote_meta`
//! hook — the received tuple is tagged `REMOTE` unless it was a source tuple at the
//! sending side, exactly as the paper's instrumented Send prescribes (§4.1).
//!
//! Send is the tail of its chain ([`Tail`]). The framing is **batch-aware**: the
//! chain's head — the pump, or a Source — marks the end of every upstream batch,
//! and Send packs each run of consecutive data tuples into one
//! [`WireFrame::Tuples`] frame, so the per-frame
//! overhead of the link (channel send, simulated store-and-forward, per-frame
//! latency) is amortised over the batch, just as the in-process channels amortise
//! their synchronisation cost. Watermarks and the
//! end-of-stream marker flush the pending run and travel as frames of their own,
//! preserving the engine's ordering semantics across the wire.
//!
//! Both operators are generic over the frame transport ([`FrameSink`] /
//! [`FrameSource`]), so a stream can have a link of its own or share a multiplexed
//! one ([`SharedLink`](crate::network::SharedLink)).

use std::sync::Arc;

use genealog_spe::channel::{ChannelClosed, OutputSlot};
use genealog_spe::error::SpeError;
use genealog_spe::fusion::Tail;
use genealog_spe::impl_codec_struct;
use genealog_spe::metrics::OpCounters;
use genealog_spe::operator::Operator;
use genealog_spe::provenance::{NoProvenance, ProvenanceSystem, RemoteContext};
use genealog_spe::query::{Query, StreamRef};
use genealog_spe::state::CheckpointHandle;
use genealog_spe::tuple::{GTuple, TupleData, TupleId};
use genealog_spe::Timestamp;

use genealog::{attach_unfolder, GeneaLog, GlMeta, OpKind, UnfoldedTuple};
use genealog_baseline::{AriadneBaseline, BlMeta};

use crate::deployment::add_send;
use crate::network::{FrameSink, FrameSource, LinkReceiver};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader};

/// The provenance-dependent information a Send operator attaches to each frame: the
/// tuple's unique id and whether it is (still) a source tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireTag {
    /// Unique id of the tuple in the sending instance.
    pub id: TupleId,
    /// Whether the tuple is a source tuple (kept as `SOURCE` across the boundary).
    pub was_source: bool,
}

/// Extension of [`ProvenanceSystem`] for systems whose tuples can cross instance
/// boundaries: extracts the [`WireTag`] the Send operator transmits, and decides
/// what lineage a remote shard instance ships next to its results.
pub trait WireProvenance: ProvenanceSystem {
    /// The wire tag of a tuple about to be sent.
    fn wire_tag<T: TupleData>(&self, tuple: &Arc<GTuple<T, Self::Meta>>) -> WireTag;

    /// Splices this system's lineage side-stream into a remote shard instance
    /// (`I` is the shard's input payload type, i.e. the source schema at the
    /// origin): `out` is the shard operator's output, `lineage_tx` the lineage
    /// channel of the shard's return link. Returns the stream to ship on the data
    /// channel.
    ///
    /// The default ships nothing: the sender is dropped, the channel stays idle and
    /// `out` is shipped as is.
    fn ship_lineage<I, O, L>(
        _q: &mut Query<Self>,
        _name: &str,
        out: StreamRef<O, Self::Meta>,
        _lineage_tx: L,
    ) -> StreamRef<O, Self::Meta>
    where
        I: TupleData + WireEncode + WireDecode,
        O: TupleData + WireEncode + WireDecode,
        L: FrameSink,
    {
        out
    }
}

impl WireProvenance for NoProvenance {
    fn wire_tag<T: TupleData>(&self, _tuple: &Arc<GTuple<T, ()>>) -> WireTag {
        WireTag::default()
    }
}

impl WireProvenance for GeneaLog {
    fn wire_tag<T: TupleData>(&self, tuple: &Arc<GTuple<T, GlMeta>>) -> WireTag {
        // Multiplex copies are logical duplicates of their input tuple; for
        // cross-instance identity the id of the (transitively) copied tuple is used,
        // so that the id transmitted by Send matches the id recorded by the
        // single-stream unfolder that shares the same Multiplex (Definition 6.4's
        // join key).
        let mut id = tuple.meta.id;
        let mut kind = tuple.meta.kind;
        let mut cursor = tuple.meta.u1.clone();
        while kind == OpKind::Multiplex {
            match cursor {
                Some(origin) => {
                    id = origin.id();
                    kind = origin.kind();
                    cursor = origin.u1();
                }
                None => break,
            }
        }
        WireTag {
            id,
            was_source: kind == OpKind::Source,
        }
    }

    /// A single-stream unfolder on the shard output; its unfolded stream travels
    /// as [`UpstreamEvent`](genealog::UpstreamEvent)s keyed by the delivering
    /// tuple's id, which the origin's multi-stream unfolder joins on
    /// (Definition 6.4).
    fn ship_lineage<I, O, L>(
        q: &mut Query<Self>,
        name: &str,
        out: StreamRef<O, GlMeta>,
        lineage_tx: L,
    ) -> StreamRef<O, GlMeta>
    where
        I: TupleData + WireEncode + WireDecode,
        O: TupleData + WireEncode + WireDecode,
        L: FrameSink,
    {
        let (to_send, unfolded) = attach_unfolder(q, &format!("{name}.su"), out);
        let events = q.map_one(
            &format!("{name}.su.events"),
            unfolded,
            |u: &UnfoldedTuple<O>| u.to_event::<I>().to_upstream(),
        );
        add_send(q, &format!("{name}.send.prov"), events, lineage_tx);
        to_send
    }
}

impl WireProvenance for AriadneBaseline {
    fn wire_tag<T: TupleData>(&self, tuple: &Arc<GTuple<T, BlMeta>>) -> WireTag {
        // The baseline has no per-tuple id; re-root the annotation at the first
        // contributor (the distributed baseline ships whole source streams anyway).
        WireTag {
            id: tuple.meta.contributors.first().copied().unwrap_or_default(),
            was_source: tuple.meta.len() == 1,
        }
    }
}

impl_codec_struct!(WireTag { id, was_source });

const FRAME_TUPLES: u8 = 0;
const FRAME_WATERMARK: u8 = 1;
const FRAME_END: u8 = 2;
const FRAME_BARRIER: u8 = 3;

/// One data tuple as shipped inside a [`WireFrame::Tuples`] frame: the attributes
/// that cross the instance boundary (no `Arc`, no provenance pointers — exactly the
/// constraint §6 starts from).
#[derive(Debug, Clone, PartialEq)]
pub struct WireTuple<T> {
    /// Logical timestamp of the tuple.
    pub ts: Timestamp,
    /// Stimulus instant, forwarded for end-to-end latency accounting.
    pub stimulus: u64,
    /// The provenance wire tag (sender-side id + source flag).
    pub tag: WireTag,
    /// The payload.
    pub data: T,
}

impl_codec_struct!(WireTuple<T> {
    ts,
    stimulus,
    tag,
    data
});

/// One frame of the inter-instance framing: a *run* of consecutive data tuples
/// (batch-aware framing), a watermark, or the end-of-stream marker.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame<T> {
    /// A run of data tuples sharing one frame.
    Tuples(Vec<WireTuple<T>>),
    /// A watermark; always framed alone so it is never reordered.
    Watermark(Timestamp),
    /// An epoch barrier; framed alone like a watermark, so the checkpoint cut
    /// crosses the instance boundary at its exact stream position.
    Barrier(u64),
    /// The end-of-stream marker.
    End,
}

impl<T: WireEncode> WireEncode for WireFrame<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireFrame::Tuples(run) => {
                FRAME_TUPLES.encode(out);
                run.encode(out);
            }
            WireFrame::Watermark(ts) => {
                FRAME_WATERMARK.encode(out);
                ts.encode(out);
            }
            WireFrame::Barrier(epoch) => {
                FRAME_BARRIER.encode(out);
                epoch.encode(out);
            }
            WireFrame::End => FRAME_END.encode(out),
        }
    }
}

impl<T: WireDecode> WireDecode for WireFrame<T> {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(reader)? {
            FRAME_TUPLES => Ok(WireFrame::Tuples(Vec::<WireTuple<T>>::decode(reader)?)),
            FRAME_WATERMARK => Ok(WireFrame::Watermark(Timestamp::decode(reader)?)),
            FRAME_BARRIER => Ok(WireFrame::Barrier(u64::decode(reader)?)),
            FRAME_END => Ok(WireFrame::End),
            tag => Err(WireError::Tag { what: "frame", tag }),
        }
    }
}

/// Incrementally builds a [`WireFrame::Tuples`] frame without materialising the run.
///
/// The Send operator appends tuples straight out of its input batches (no
/// intermediate `WireTuple` allocation, no payload clone) and takes the finished
/// frame when the run is flushed. The byte layout is identical to encoding the
/// equivalent `WireFrame::Tuples` value, which the wire round-trip tests pin.
#[derive(Debug, Default)]
pub struct TupleFrameBuilder {
    buf: Vec<u8>,
    count: u32,
}

impl TupleFrameBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TupleFrameBuilder::default()
    }

    /// Appends one tuple to the pending run.
    pub fn push<T: WireEncode>(&mut self, ts: Timestamp, stimulus: u64, tag: WireTag, data: &T) {
        if self.count == 0 {
            self.buf.clear();
            FRAME_TUPLES.encode(&mut self.buf);
            0u32.encode(&mut self.buf); // run length, patched by `take`
        }
        ts.encode(&mut self.buf);
        stimulus.encode(&mut self.buf);
        tag.encode(&mut self.buf);
        data.encode(&mut self.buf);
        self.count += 1;
    }

    /// Number of tuples in the pending run.
    pub fn len(&self) -> u32 {
        self.count
    }

    /// True if no tuple is pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Takes the finished frame, leaving the builder empty; `None` for an empty run.
    pub fn take(&mut self) -> Option<Vec<u8>> {
        if self.count == 0 {
            return None;
        }
        self.buf[1..5].copy_from_slice(&self.count.to_le_bytes());
        self.count = 0;
        Some(std::mem::take(&mut self.buf))
    }
}

/// Prefixes `frame` with its per-link sequence number.
///
/// Every frame a Send operator ships carries a monotonically increasing `u64`,
/// letting the Receive operator detect lost frames (a sequence gap — surfaced as a
/// runtime error so the recovery path replays from the last checkpoint) and discard
/// duplicated ones (a sequence number at or below the last delivered frame).
fn with_seq(seq: u64, frame: Vec<u8>) -> Vec<u8> {
    let mut framed = Vec::with_capacity(frame.len() + 8);
    framed.extend_from_slice(&seq.to_le_bytes());
    framed.extend_from_slice(&frame);
    framed
}

/// The Send operator, the tail of its chain: serialises a stream onto a link
/// towards another SPE instance.
///
/// Generic over the frame transport `L`, so the stream can own its link
/// ([`LinkSender`](crate::network::LinkSender)) or share a multiplexed one
/// ([`MuxSender`](crate::network::MuxSender)). A link that refuses a frame is
/// dead: the chain stops.
pub(crate) struct SendTail<P, L> {
    link: L,
    provenance: P,
    row: OpCounters,
    /// The run of tuples not yet shipped.
    frame: TupleFrameBuilder,
    /// Sequence number of the next frame.
    seq: u64,
}

impl<P: WireProvenance, L: FrameSink> SendTail<P, L> {
    /// Configures a Send writing to `link`; the returned closure builds it on its
    /// chain's thread.
    pub(crate) fn open(
        link: L,
        provenance: P,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static {
        move |_, row| SendTail {
            link,
            provenance,
            row,
            frame: TupleFrameBuilder::new(),
            seq: 0,
        }
    }

    /// Ships one control or data frame under the next sequence number.
    fn ship(&mut self, frame: Vec<u8>) -> Result<(), ChannelClosed> {
        if !self.link.send_frame(with_seq(self.seq, frame)) {
            return Err(ChannelClosed);
        }
        self.seq += 1;
        Ok(())
    }

    /// Ships the pending run; its tuples count as "out" only once their frame
    /// actually made it onto the link.
    fn flush(&mut self) -> Result<(), ChannelClosed> {
        let run_len = u64::from(self.frame.len());
        if let Some(pending) = self.frame.take() {
            self.ship(pending)?;
            self.row.add_out(run_len);
        }
        Ok(())
    }

    /// Ships a control frame, behind the pending run: a watermark or barrier is
    /// never reordered ahead of the tuples that preceded it.
    fn ship_after_run(&mut self, control: WireFrame<()>) -> Result<(), ChannelClosed> {
        self.flush()?;
        self.ship(control.to_bytes())
    }
}

impl<T, P, L> Tail<T, P::Meta> for SendTail<P, L>
where
    T: TupleData + WireEncode,
    P: WireProvenance,
    L: FrameSink,
{
    fn tuple(&mut self, tuple: Arc<GTuple<T, P::Meta>>) -> Result<(), ChannelClosed> {
        let tag = self.provenance.wire_tag(&tuple);
        self.frame.push(tuple.ts, tuple.stimulus, tag, &tuple.data);
        Ok(())
    }

    fn watermark(&mut self, ts: Timestamp) -> Result<(), ChannelClosed> {
        self.ship_after_run(WireFrame::Watermark(ts))
    }

    fn barrier(&mut self, epoch: u64) -> Result<(), ChannelClosed> {
        self.ship_after_run(WireFrame::Barrier(epoch))
    }

    /// One upstream batch becomes (at most) one frame, so wire framing tracks the
    /// transport's batch size.
    fn batch_end(&mut self) -> Result<(), ChannelClosed> {
        self.flush()
    }

    fn end(&mut self) {
        let _ = self.ship_after_run(WireFrame::End);
    }
}

/// The Receive operator: materialises a stream arriving from another SPE instance
/// (generic over the frame transport `L`, like Send).
pub struct ReceiveOp<T, P: ProvenanceSystem, L = LinkReceiver> {
    name: String,
    link: L,
    output: OutputSlot<T, P::Meta>,
    provenance: P,
    checkpoints: Option<CheckpointHandle>,
}

impl<T, P, L> ReceiveOp<T, P, L>
where
    T: TupleData + WireDecode,
    P: ProvenanceSystem,
    L: FrameSource,
{
    /// Creates a Receive operator reading from `link`.
    pub fn new(
        name: impl Into<String>,
        link: L,
        output: OutputSlot<T, P::Meta>,
        provenance: P,
    ) -> Self {
        ReceiveOp {
            name: name.into(),
            link,
            output,
            provenance,
            checkpoints: None,
        }
    }

    /// Makes the operator fence the deployment's checkpoint store before failing on
    /// a broken link.
    ///
    /// The fence must be raised *while this operator still holds its output
    /// channel*: only then does it strictly precede the synthesized end-of-stream
    /// the downstream fan-in would otherwise use to drop this input from barrier
    /// alignment, which in turn could let a partial epoch reach completeness (the
    /// upstream instance behind the severed link keeps committing, unaware).
    pub fn with_checkpoints(mut self, checkpoints: CheckpointHandle) -> Self {
        self.checkpoints = Some(checkpoints);
        self
    }
}

impl<T, P, L> Operator for ReceiveOp<T, P, L>
where
    T: TupleData + WireDecode,
    P: ProvenanceSystem,
    L: FrameSource,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(self: Box<Self>, counters: OpCounters) -> Result<(), SpeError> {
        let mut out = self.output.open();
        // Raised while `out` is still held, so the fence strictly precedes the
        // synthesized end-of-stream downstream peers see once this thread exits.
        let fail = |message: String| {
            if let Some(config) = self.checkpoints.as_ref().and_then(|h| h.get()) {
                config.store.fence();
            }
            SpeError::Runtime {
                operator: self.name.clone(),
                message,
            }
        };
        let mut expected_seq = 0u64;
        let mut ended = false;
        'frames: while let Some(framed) = self.link.recv_frame() {
            // Wire input must never be able to panic this thread: a frame too
            // short for its sequence prefix is a decode error like any other.
            let Some(seq) = framed
                .get(..8)
                .and_then(|prefix| <[u8; 8]>::try_from(prefix).ok())
                .map(u64::from_le_bytes)
            else {
                return Err(fail(format!(
                    "runt frame of {} bytes (no sequence number)",
                    framed.len()
                )));
            };
            if seq < expected_seq {
                // A link-level duplicate: this frame was already delivered and
                // applied; re-applying it would double tuples downstream.
                continue;
            }
            if seq > expected_seq {
                // A lost frame. The stream can no longer be trusted: fail the query
                // so the recovery path replays it from the last checkpoint.
                return Err(fail(format!(
                    "sequence gap on the link: expected frame {expected_seq}, got {seq}"
                )));
            }
            expected_seq += 1;
            let decoded =
                WireFrame::<T>::from_bytes(&framed[8..]).map_err(|err| fail(err.to_string()))?;
            match decoded {
                WireFrame::Tuples(run) => {
                    for wire_tuple in run {
                        counters.inc_in();
                        let WireTuple {
                            ts,
                            stimulus,
                            tag,
                            data,
                        } = wire_tuple;
                        let meta = self.provenance.remote_meta(&RemoteContext {
                            id: tag.id,
                            ts,
                            was_source: tag.was_source,
                        });
                        let tuple = Arc::new(GTuple::new(ts, stimulus, data, meta));
                        if out.send_tuple(tuple).is_err() {
                            return Ok(());
                        }
                        counters.inc_out();
                    }
                }
                WireFrame::Watermark(ts) => {
                    if out.send_watermark(ts).is_err() {
                        return Ok(());
                    }
                }
                WireFrame::Barrier(epoch) => {
                    if out.send_barrier(epoch).is_err() {
                        return Ok(());
                    }
                }
                WireFrame::End => {
                    ended = true;
                    break 'frames;
                }
            }
        }
        if !ended && expected_seq > 0 {
            // The link died mid-stream (severed connection, crashed sender). A
            // stream that started but never delivered its end marker is incomplete:
            // fail the query so recovery can rebuild and replay it.
            return Err(fail("link closed before the end-of-stream marker".into()));
        }
        let _ = out.send_end();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultySender, LinkFaults};
    use crate::network::{NetworkConfig, SimulatedLink};
    use genealog_spe::channel::stream_channel;
    use genealog_spe::fusion::FusedOp;
    use genealog_spe::provenance::SourceContext;
    use genealog_spe::tuple::Element;

    fn gl_source_tuple(gl: &GeneaLog, ts: u64, v: u32) -> Arc<GTuple<u32, GlMeta>> {
        let ctx = SourceContext {
            source_id: 0,
            seq: 0,
            ts: Timestamp::from_secs(ts),
        };
        let meta = gl.source_meta(&ctx, &v);
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 5, v, meta))
    }

    #[test]
    fn send_receive_round_trip_preserves_data_watermarks_and_ids() {
        let gl_sender = GeneaLog::for_instance(1);
        let gl_receiver = GeneaLog::for_instance(2);
        let (link_tx, link_rx, stats) = SimulatedLink::new(NetworkConfig::unlimited());

        // Sending side: a source tuple and a derived tuple.
        let (in_tx, in_rx) = stream_channel::<u32, GlMeta>(16);
        let source_tuple = gl_source_tuple(&gl_sender, 1, 10);
        let derived = Arc::new(GTuple::new(
            Timestamp::from_secs(2),
            6,
            20u32,
            gl_sender.map_meta(&source_tuple),
        ));
        let derived_id = derived.meta.id;
        in_tx
            .send(Element::Tuple(Arc::clone(&source_tuple)))
            .unwrap();
        in_tx.send(Element::Tuple(derived)).unwrap();
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(2)))
            .unwrap();
        in_tx.send(Element::End).unwrap();
        let send = FusedOp::tail("send", in_rx, SendTail::open(link_tx, gl_sender));
        let send_stats = OpCounters::detached("send");
        Box::new(send).run(send_stats.clone()).unwrap();
        assert_eq!(send_stats.tuples_in(), 2);
        assert_eq!(send_stats.tuples_out(), 2);
        assert!(stats.bytes() > 0);

        // Receiving side.
        let slot = OutputSlot::<u32, GlMeta>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        slot.connect(out_tx);
        let receive = ReceiveOp::new("receive", link_rx, slot, gl_receiver);
        let recv_stats = OpCounters::detached("receive");
        Box::new(receive).run(recv_stats.clone()).unwrap();
        assert_eq!(recv_stats.tuples_out(), 2);

        // First tuple was a source tuple: it stays SOURCE across the boundary.
        let first = out_rx.recv();
        let first = first.as_tuple().unwrap().clone();
        assert_eq!(first.data, 10);
        assert_eq!(first.meta.kind, OpKind::Source);
        assert_eq!(first.stimulus, 5, "stimulus travels for latency accounting");
        // Second was derived: it becomes REMOTE, keeping the sender-side id.
        let second = out_rx.recv();
        let second = second.as_tuple().unwrap().clone();
        assert_eq!(second.meta.kind, OpKind::Remote);
        assert_eq!(second.meta.id, derived_id);
        assert!(matches!(out_rx.recv(), Element::Watermark(_)));
        assert!(out_rx.recv().is_end());
    }

    /// The closed-downstream contract of the Send tail: a link that dies after two
    /// frames stops the chain with the upstream sender still open. Only the tuples
    /// of the frame the link accepted count as out, and the input receiver is
    /// dropped, so the upstream sender sees the close.
    #[test]
    fn send_stops_when_its_link_dies() {
        let (link_tx, _link_rx, _stats) = SimulatedLink::new(NetworkConfig::unlimited());
        let link = FaultySender::new(link_tx, LinkFaults::none().severing_before(2));
        let (in_tx, in_rx) = stream_channel::<u32, ()>(16);
        // One batch each: frame 0 carries tuple 1, frame 1 the watermark, and the
        // link dies under frame 2, tuple 2's.
        let tuple = |v: u32| Arc::new(GTuple::new(Timestamp::from_secs(v.into()), 0, v, ()));
        in_tx.send(Element::Tuple(tuple(1))).unwrap();
        in_tx
            .send(Element::Watermark(Timestamp::from_secs(1)))
            .unwrap();
        in_tx.send(Element::Tuple(tuple(2))).unwrap();
        let send = FusedOp::tail("send", in_rx, SendTail::open(link, NoProvenance));
        let counters = OpCounters::detached("send");
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let probe = counters.clone();
        std::thread::spawn(move || done_tx.send(Box::new(send).run(probe)));
        let ran = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the chain returns by itself");
        assert!(ran.is_ok(), "a dead link is a graceful stop");
        assert_eq!(counters.tuples_in(), 2);
        assert_eq!(counters.tuples_out(), 1, "only the accepted frame counts");
        assert_eq!(in_tx.send(Element::End), Err(ChannelClosed));
    }

    #[test]
    fn receive_with_no_provenance_and_dropped_sender_terminates() {
        let (link_tx, link_rx, _stats) = SimulatedLink::new(NetworkConfig::unlimited());
        drop(link_tx);
        let slot = OutputSlot::<u32, ()>::new();
        let (out_tx, mut out_rx) = stream_channel(4);
        slot.connect(out_tx);
        let receive = ReceiveOp::new("receive", link_rx, slot, NoProvenance);
        let stats = OpCounters::detached("receive");
        Box::new(receive).run(stats.clone()).unwrap();
        assert_eq!(stats.tuples_in(), 0);
        assert!(out_rx.recv().is_end());
    }

    #[test]
    fn corrupt_frames_produce_a_runtime_error() {
        let (link_tx, link_rx, _stats) = SimulatedLink::new(NetworkConfig::unlimited());
        link_tx.send(vec![99, 1, 2, 3]);
        let slot = OutputSlot::<u32, ()>::new();
        let (out_tx, _out_rx) = stream_channel(4);
        slot.connect(out_tx);
        let receive = ReceiveOp::new("receive", link_rx, slot, NoProvenance);
        let err = Box::new(receive)
            .run(OpCounters::detached("receive"))
            .unwrap_err();
        assert!(matches!(err, SpeError::Runtime { .. }));
    }

    #[test]
    fn wire_tags_reflect_each_provenance_system() {
        let np_tuple: Arc<GTuple<u32, ()>> =
            Arc::new(GTuple::new(Timestamp::from_secs(1), 0, 1, ()));
        assert_eq!(NoProvenance.wire_tag(&np_tuple), WireTag::default());

        let gl = GeneaLog::for_instance(4);
        let gl_tuple = gl_source_tuple(&gl, 1, 1);
        let tag = gl.wire_tag(&gl_tuple);
        assert_eq!(tag.id.origin, 4);
        assert!(tag.was_source);

        let bl = AriadneBaseline::new();
        let bl_tuple: Arc<GTuple<u32, BlMeta>> = Arc::new(GTuple::new(
            Timestamp::from_secs(1),
            0,
            1,
            BlMeta::source(TupleId::new(9, 3)),
        ));
        let tag = bl.wire_tag(&bl_tuple);
        assert_eq!(tag.id, TupleId::new(9, 3));
        assert!(tag.was_source);
    }
}
