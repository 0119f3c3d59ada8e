//! The Send and Receive operators (§2) connecting SPE instances over a link.
//!
//! Send serialises every stream element into a wire frame and pushes it onto the link;
//! Receive deserialises frames and re-materialises tuples in the receiving instance,
//! asking the local provenance system for their metadata through the `remote_meta`
//! hook — the received tuple is tagged `REMOTE` unless it was a source tuple at the
//! sending side, exactly as the paper's instrumented Send prescribes (§4.1).
//!
//! Send is the tail of its chain ([`Tail`]) and Receive the head of one
//! ([`PendingChain::head`]). The framing is **batch-aware**: the chain's head — the
//! pump, a Source or a Receive — marks the end of every upstream batch,
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
//!
//! [`PendingChain::head`]: genealog_spe::fusion::PendingChain::head

use std::marker::PhantomData;
use std::sync::Arc;

use genealog_spe::channel::ChannelClosed;
use genealog_spe::error::SpeError;
use genealog_spe::fusion::Tail;
use genealog_spe::impl_codec_struct;
use genealog_spe::metrics::OpCounters;
use genealog_spe::provenance::{NoProvenance, ProvenanceSystem, RemoteContext};
use genealog_spe::query::{NodeKind, Query, StreamRef};
use genealog_spe::state::CheckpointHandle;
use genealog_spe::tuple::{GTuple, TupleData, TupleId};
use genealog_spe::Timestamp;

use genealog::{erase, for_each_origin, GeneaLog, GlMeta, LineageRef, OpKind};
use genealog_baseline::{AriadneBaseline, BlMeta};

use crate::network::{FrameSink, FrameSource};
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
        let mut cursor = tuple.meta.u1.as_ref();
        while kind == OpKind::Multiplex {
            let Some(origin) = cursor else { break };
            id = origin.id();
            kind = origin.kind();
            cursor = origin.u1_ref();
        }
        WireTag {
            id,
            was_source: kind == OpKind::Source,
        }
    }

    /// A Multiplex on the shard output, so the data Send never waits on a
    /// traversal, and a lineage tail on its second branch: it walks each delivered
    /// tuple's contribution graph once and ships the result as one
    /// [`LineageGroup`](genealog::LineageGroup) keyed by the delivering tuple's
    /// id, which the origin's multi-stream unfolder stitches on (Definition 6.4).
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
        let mut branches = q
            .multiplex(&format!("{name}.lineage-mux"), out, 2)
            .into_iter();
        let to_send = branches.next().expect("multiplex produced two branches");
        let to_lineage = branches.next().expect("multiplex produced two branches");
        let node = q.add_node(format!("{name}.send.prov"), NodeKind::Custom("send"));
        let lineage = LineageFrames::<I> {
            provenance: q.provenance().clone(),
            schema: PhantomData,
        };
        q.set_tail(node, to_lineage, SendTail::framing(lineage_tx, lineage));
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

/// How a Send-framed tail writes one tuple into its pending run.
pub(crate) trait FrameEncoder<T, M>: Send + 'static {
    /// Appends `tuple`'s wire tuple to `frame`.
    fn push(&mut self, frame: &mut TupleFrameBuilder, tuple: &Arc<GTuple<T, M>>);
}

/// The data Send's encoder: each tuple's payload under its provenance wire tag.
pub(crate) struct Tagged<P>(P);

impl<T, P> FrameEncoder<T, P::Meta> for Tagged<P>
where
    T: TupleData + WireEncode,
    P: WireProvenance,
{
    fn push(&mut self, frame: &mut TupleFrameBuilder, tuple: &Arc<GTuple<T, P::Meta>>) {
        let tag = self.0.wire_tag(tuple);
        frame.push(tuple.ts, tuple.stimulus, tag, &tuple.data);
    }
}

/// The lineage tail's encoder under GeneaLog: one traversal per delivered tuple,
/// shipped as one lineage group under the tuple's wire tag (`I` is the source
/// schema at the origin, which the origins' payloads are downcast to).
struct LineageFrames<I> {
    provenance: GeneaLog,
    schema: PhantomData<fn() -> I>,
}

impl<O, I> FrameEncoder<O, GlMeta> for LineageFrames<I>
where
    O: TupleData,
    I: TupleData + WireEncode,
{
    fn push(&mut self, frame: &mut TupleFrameBuilder, tuple: &Arc<GTuple<O, GlMeta>>) {
        // The tuple is the lineage branch's Multiplex copy; the tag carries the id of
        // the delivering tuple the data Send ships, and the traversal walks through
        // the copy to the delivering tuple's origins.
        let tag = self.provenance.wire_tag(tuple);
        let root = erase(tuple);
        let mut origins = Vec::new();
        for_each_origin(&root, |origin| origins.push(origin));
        let lineage = LineageRef::<I>::new(tag.id, &origins);
        frame.push(tuple.ts, tuple.stimulus, tag, &lineage);
    }
}

/// The Send operator, the tail of its chain: serialises a stream onto a link
/// towards another SPE instance, each tuple as its encoder `E` frames it.
///
/// Generic over the frame transport `L`, so the stream can own its link
/// ([`LinkSender`](crate::network::LinkSender)) or share a multiplexed one
/// ([`MuxSender`](crate::network::MuxSender)). A link that refuses a frame is
/// dead: the chain stops.
pub(crate) struct SendTail<E, L> {
    link: L,
    encoder: E,
    row: OpCounters,
    /// The run of tuples not yet shipped.
    frame: TupleFrameBuilder,
    /// Sequence number of the next frame.
    seq: u64,
}

impl<P: WireProvenance, L: FrameSink> SendTail<Tagged<P>, L> {
    /// Configures a data Send writing to `link`; the returned closure builds it on
    /// its chain's thread.
    pub(crate) fn open(
        link: L,
        provenance: P,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static {
        SendTail::framing(link, Tagged(provenance))
    }
}

impl<E: Send + 'static, L: FrameSink> SendTail<E, L> {
    /// Configures a Send writing to `link` whose wire tuples `encoder` frames; the
    /// returned closure builds it on its chain's thread.
    pub(crate) fn framing(
        link: L,
        encoder: E,
    ) -> impl FnOnce(&str, OpCounters) -> Self + Send + 'static {
        move |_, row| SendTail {
            link,
            encoder,
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

impl<T, M, E, L> Tail<T, M> for SendTail<E, L>
where
    E: FrameEncoder<T, M>,
    L: FrameSink,
{
    fn tuple(&mut self, tuple: Arc<GTuple<T, M>>) -> Result<(), ChannelClosed> {
        self.encoder.push(&mut self.frame, &tuple);
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

/// The Receive operator, the head of its chain: materialises a stream arriving from
/// another SPE instance (generic over the frame transport `L`, like Send).
pub(crate) struct ReceiveHead<P, L> {
    /// The Receive's node name, which a broken link's error carries.
    pub(crate) name: String,
    pub(crate) link: L,
    pub(crate) provenance: P,
    /// The deployment's checkpoints, fenced when the link breaks.
    pub(crate) checkpoints: CheckpointHandle,
}

/// Why a Receive's frame loop stopped before the end of its stream.
enum Stop {
    /// The chain's outputs closed: a graceful stop.
    Closed,
    /// The link broke: the stream can no longer be trusted.
    Broken(String),
}

impl From<ChannelClosed> for Stop {
    fn from(_: ChannelClosed) -> Self {
        Stop::Closed
    }
}

impl<P: ProvenanceSystem, L: FrameSource> ReceiveHead<P, L> {
    /// Hands every element arriving on the link to the rest of the chain, counting
    /// each received tuple into the head's ledger `row`.
    ///
    /// # Errors
    /// A runt, undecodable or out-of-sequence frame, or a link that closes
    /// mid-stream, fails the chain with [`SpeError::Runtime`] naming the Receive, so
    /// that recovery replays the stream from the last checkpoint. The deployment's
    /// checkpoint store is fenced first, while the chain still holds its outputs:
    /// the fence then strictly precedes the end-of-stream a downstream fan-in
    /// synthesizes once they are dropped, so the fan-in cannot drop this input from
    /// barrier alignment and let a partial epoch complete (the upstream instance
    /// behind the severed link keeps committing, unaware).
    pub(crate) fn run<T: TupleData + WireDecode>(
        self,
        row: OpCounters,
        next: &mut dyn Tail<T, P::Meta>,
    ) -> Result<(), SpeError> {
        match self.frames(&row, next) {
            Ok(()) | Err(Stop::Closed) => Ok(()),
            Err(Stop::Broken(message)) => {
                if let Some(config) = self.checkpoints.get() {
                    config.store.fence();
                }
                Err(SpeError::Runtime {
                    operator: self.name,
                    message,
                })
            }
        }
    }

    fn frames<T: TupleData + WireDecode>(
        &self,
        row: &OpCounters,
        next: &mut dyn Tail<T, P::Meta>,
    ) -> Result<(), Stop> {
        let mut expected_seq = 0u64;
        while let Some(framed) = self.link.recv_frame() {
            // Wire input must never be able to panic this thread: a frame too
            // short for its sequence prefix is a decode error like any other.
            let Some(seq) = framed
                .get(..8)
                .and_then(|prefix| <[u8; 8]>::try_from(prefix).ok())
                .map(u64::from_le_bytes)
            else {
                let length = framed.len();
                return Err(Stop::Broken(format!(
                    "runt frame of {length} bytes (no sequence number)"
                )));
            };
            if seq < expected_seq {
                // A link-level duplicate: this frame was already delivered and
                // applied; re-applying it would double tuples downstream.
                continue;
            }
            if seq > expected_seq {
                // A lost frame. The stream can no longer be trusted.
                return Err(Stop::Broken(format!(
                    "sequence gap on the link: expected frame {expected_seq}, got {seq}"
                )));
            }
            expected_seq += 1;
            let frame = WireFrame::<T>::from_bytes(&framed[8..])
                .map_err(|err| Stop::Broken(err.to_string()))?;
            match frame {
                WireFrame::Tuples(run) => {
                    for wire_tuple in run {
                        row.inc_in();
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
                        next.tuple(Arc::new(GTuple::new(ts, stimulus, data, meta)))?;
                    }
                    // One frame is one upstream batch.
                    next.batch_end()?;
                }
                WireFrame::Watermark(ts) => next.watermark(ts)?,
                WireFrame::Barrier(epoch) => next.barrier(epoch)?,
                WireFrame::End => {
                    next.end();
                    return Ok(());
                }
            }
        }
        if expected_seq > 0 {
            // The link died mid-stream (severed connection, crashed sender). A
            // stream that started but never delivered its end marker is incomplete.
            return Err(Stop::Broken(
                "link closed before the end-of-stream marker".into(),
            ));
        }
        next.end();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultySender, LinkFaults};
    use crate::network::{LinkReceiver, NetworkConfig, SimulatedLink};
    use genealog_spe::channel::{stream_channel, OutputSlot};
    use genealog_spe::fusion::{FusedOp, PendingChain};
    use genealog_spe::operator::map::MapStage;
    use genealog_spe::provenance::SourceContext;
    use genealog_spe::state::{CheckpointConfig, CheckpointStore};
    use genealog_spe::tuple::Element;

    /// A Receive head over `link`, named `receive`.
    fn receive_head<P: ProvenanceSystem>(
        link: LinkReceiver,
        provenance: P,
        checkpoints: CheckpointHandle,
    ) -> PendingChain<u32, P::Meta> {
        let head = ReceiveHead {
            name: "receive".into(),
            link,
            provenance,
            checkpoints,
        };
        PendingChain::head(move |row, next| head.run(row, next))
    }

    /// A Receive alone in its chain, writing `output`.
    fn receive<P: ProvenanceSystem>(
        link: LinkReceiver,
        output: OutputSlot<u32, P::Meta>,
        provenance: P,
    ) -> FusedOp {
        receive_head(link, provenance, CheckpointHandle::default()).into_channel("receive", output)
    }

    /// One frame under sequence number `seq`.
    fn framed(seq: u64, frame: WireFrame<u32>) -> Vec<u8> {
        with_seq(seq, frame.to_bytes())
    }

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
        send.run(send_stats.clone()).unwrap();
        assert_eq!(send_stats.tuples_in(), 2);
        assert_eq!(send_stats.tuples_out(), 2);
        assert!(stats.bytes() > 0);

        // Receiving side.
        let slot = OutputSlot::<u32, GlMeta>::new();
        let (out_tx, mut out_rx) = stream_channel(16);
        slot.connect(out_tx);
        let recv_stats = OpCounters::detached("receive");
        receive(link_rx, slot, gl_receiver)
            .run(recv_stats.clone())
            .unwrap();
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
        std::thread::spawn(move || done_tx.send(send.run(probe)));
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
        let stats = OpCounters::detached("receive");
        receive(link_rx, slot, NoProvenance)
            .run(stats.clone())
            .unwrap();
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
        let err = receive(link_rx, slot, NoProvenance)
            .run(OpCounters::detached("receive"))
            .unwrap_err();
        assert!(matches!(err, SpeError::Runtime { .. }));
    }

    /// The Receive head no longer owns the output its chain writes, so the fence
    /// ordering is the chain's: a Receive that fails behind a fused stage must have
    /// fenced the store by the time the consumer of the chain's channel tail sees
    /// the stream close. A commit made at that moment — what a downstream fan-in
    /// aligning a barrier without the dead input would do — must not count. Once
    /// for a sequence gap, once for a link that closes after frame 0 with no End.
    #[test]
    fn a_failing_receive_fences_the_store_before_its_chain_closes_the_output() {
        let tuples = |values: &[u32]| {
            let wire = |&v: &u32| WireTuple {
                ts: Timestamp::from_secs(v.into()),
                stimulus: 0,
                tag: WireTag::default(),
                data: v,
            };
            WireFrame::Tuples(values.iter().map(wire).collect())
        };
        let gap = vec![framed(0, tuples(&[1, 2])), framed(2, tuples(&[3]))];
        let no_end = vec![framed(0, tuples(&[1, 2]))];
        for (case, frames) in [("sequence gap", gap), ("no end marker", no_end)] {
            let (link_tx, link_rx, _stats) = SimulatedLink::new(NetworkConfig::unlimited());
            for frame in frames {
                assert!(link_tx.send(frame));
            }
            drop(link_tx);
            let store = CheckpointStore::in_memory();
            // The consumer's own seat: the only participant, so its commit would
            // complete the epoch unless the store is fenced.
            store.register("consumer");
            let checkpoints = CheckpointHandle::default();
            let config = CheckpointConfig::new(1, Arc::clone(&store));
            checkpoints.set(config).expect("fresh handle");

            let output = OutputSlot::<u32, ()>::new();
            let (out_tx, mut out_rx) = stream_channel(16);
            output.connect(out_tx);
            let chain = receive_head(link_rx, NoProvenance, checkpoints)
                .then("plus-one", |_, _| {
                    MapStage::new(|t: &Arc<GTuple<u32, ()>>| [t.data + 1], NoProvenance)
                })
                .into_channel("receive+plus-one", output);
            let counters = OpCounters::detached_chain(&["receive", "plus-one"]);
            let running = std::thread::spawn(move || chain.run(counters));

            let mut received = Vec::new();
            loop {
                match out_rx.recv() {
                    Element::Tuple(t) => received.push(t.data),
                    Element::Watermark(_) | Element::Barrier(_) => {}
                    Element::End => break,
                }
            }
            store.commit("consumer", 1, genealog_spe::state::Snapshot::u64(0));
            assert_eq!(
                store.latest_complete_epoch(),
                None,
                "{case}: a commit made once the stream closed completed an epoch"
            );
            assert_eq!(received, [2, 3], "{case}: frame 0 went through the stage");
            match running
                .join()
                .expect("the chain returns an error, not a panic")
            {
                Err(SpeError::Runtime { operator, .. }) => {
                    assert_eq!(operator, "receive", "{case}")
                }
                other => panic!("{case}: expected a runtime error, got {other:?}"),
            }
        }
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
