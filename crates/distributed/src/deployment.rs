//! Deployments spanning several SPE instances.
//!
//! * **Endpoints** — [`add_send`] / [`add_receive`] (and their logical-plan
//!   counterparts [`send_stream`] / [`receive_stream`]) splice the Send and Receive
//!   operators of §2 into a query.
//! * **Distributed shard groups** — [`remote_shard_group_over`] spans a
//!   key-partitioned operator's Partition exchange across SPE instances: one remote
//!   instance per shard running `Receive → shard operator → Send`, reached over the
//!   links a [`ShardTransport`] builds. It is the single builder for every
//!   provenance system, transport and failure mode: the system decides through
//!   [`WireProvenance::ship_lineage`] whether an instance also ships a lineage
//!   side-stream (under GeneaLog: one [`LineageGroup`] per shard result, from one
//!   traversal of its contribution graph), and faults are transport decorators
//!   (`FaultyTransport`, `TcpLoopbackTransport::with_return_kill`). The `spe-node`
//!   worker wires the shards it hosts through the same per-instance function.
//!   [`logical_shard_provenance_sink`] stitches the lineage across the REMOTE
//!   boundary at the origin with the multi-stream unfolder of §6: one stitch
//!   fan-in over the derived stream and every shard's lineage.
//! * **The paper's three-instance deployments** of Q1–Q4 (Figures 7, 9C, 10C, 11C;
//!   the rows of Figure 13) — [`deploy_distributed_genealog`],
//!   [`deploy_distributed_noprov`] and [`deploy_distributed_baseline`]. Instance 1
//!   runs the Source and the first processing stage, instance 2 the remaining stage
//!   and the data Sink, instance 3 is the provenance instance: under GeneaLog it
//!   runs the multi-stream unfolder (MU) stitching the two unfolded streams, under
//!   the baseline it merely receives the source stream the baseline has to ship.
//!   All three block until the deployment has drained and return a
//!   [`DistributedOutcome`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use genealog_metrics::{MetricsRegistry, Sample};
use genealog_spe::logical::{LogicalPlan, LogicalStream};
use genealog_spe::operator::sink::{CollectedStream, SinkStats};
use genealog_spe::operator::source::{SourceConfig, SourceGenerator};
use genealog_spe::provenance::{NoProvenance, ProvenanceSystem};
use genealog_spe::query::{NodeId, NodeKind, Query, QueryConfig, ShardPlacement, StreamRef};
use genealog_spe::runtime::{QueryCompletion, QueryHandle, QueryReport};
use genealog_spe::tuple::TupleData;
use genealog_spe::{Duration, SpeError, Timestamp};

use genealog::{
    attach_multi_unfolder, attach_stitch, attach_unfolder, contribution_document, group_by_sink,
    GeneaLog, GlMeta, LineageGroup, SourceRecord, UnfoldedEvent, UnfoldedTuple, UpstreamEvent,
    UpstreamLineage,
};
use genealog_baseline::AriadneBaseline;

use crate::endpoint::{ReceiveHead, SendTail, WireProvenance};
use crate::network::{
    FrameSink, FrameSource, LinkSender, LinkStats, NetworkConfig, SharedLink, SimulatedLink,
};
use crate::wire::{WireDecode, WireEncode};

/// Adds a Send operator shipping `stream` onto `link` (extension of the query
/// builder), returning the node id of the endpoint.
pub fn add_send<T, P, L>(
    q: &mut Query<P>,
    name: &str,
    stream: StreamRef<T, P::Meta>,
    link: L,
) -> NodeId
where
    T: TupleData + WireEncode,
    P: WireProvenance,
    L: FrameSink,
{
    let node = q.add_node(name, NodeKind::Custom("send"));
    let send = SendTail::open(link, q.provenance().clone());
    q.set_tail(node, stream, send);
    node
}

/// Adds a Receive operator materialising the stream arriving on `link`: the head of
/// a chain, which the stages and the tail added on the returned stream extend.
pub fn add_receive<T, P, L>(q: &mut Query<P>, name: &str, link: L) -> StreamRef<T, P::Meta>
where
    T: TupleData + WireDecode,
    P: genealog_spe::provenance::ProvenanceSystem,
    L: FrameSource,
{
    let node = q.add_node(name, NodeKind::Custom("receive"));
    let receive = ReceiveHead {
        name: name.to_string(),
        link,
        provenance: q.provenance().clone(),
        checkpoints: q.checkpoint_handle(),
    };
    q.add_head(node, move |row, next| receive.run(row, next))
}

/// Terminates a [`LogicalStream`] with a Send endpoint shipping it onto `link`
/// (the logical-plan counterpart of [`add_send`]; the endpoint is spliced in at
/// lowering time).
pub fn send_stream<T, P, L>(stream: LogicalStream<P, T>, name: &str, link: L)
where
    T: TupleData + WireEncode,
    P: WireProvenance,
    L: FrameSink,
{
    let owned = name.to_string();
    stream.raw_sink(name, move |q, s| {
        add_send(q, &owned, s, link);
    });
}

/// Roots a [`LogicalStream`] at a Receive endpoint materialising the stream
/// arriving on `link` (the logical-plan counterpart of [`add_receive`]).
pub fn receive_stream<T, P, L>(plan: &LogicalPlan<P>, name: &str, link: L) -> LogicalStream<P, T>
where
    T: TupleData + WireDecode,
    P: ProvenanceSystem,
    L: FrameSource,
{
    let owned = name.to_string();
    plan.extend_source(name, "receive", move |q| add_receive(q, &owned, link))
}

/// The provenance of one sink tuple as captured at the provenance instance.
#[derive(Debug, Clone)]
pub struct ProvenanceRecord<D, S> {
    /// Unique id of the sink tuple.
    pub sink_id: genealog_spe::tuple::TupleId,
    /// Timestamp of the sink tuple.
    pub sink_ts: Timestamp,
    /// Payload of the sink tuple.
    pub sink_data: D,
    /// The contributing source tuples.
    pub sources: Vec<SourceRecord<S>>,
}

/// Result of a completed distributed run.
#[derive(Debug)]
pub struct DistributedOutcome<D, S> {
    /// Per-instance execution reports (instance 1, instance 2, provenance instance).
    pub reports: Vec<QueryReport>,
    /// The alerts received by the data Sink on instance 2.
    pub alerts: Vec<(Timestamp, D)>,
    /// Latency statistics of the data Sink.
    pub sink_stats: Arc<SinkStats>,
    /// The per-sink-tuple provenance assembled at the provenance instance (empty for
    /// the NP and BL configurations).
    pub provenance: Vec<ProvenanceRecord<D, S>>,
    /// Bytes shipped on the instance-1 → instance-2 data link.
    pub data_link_bytes: u64,
    /// Bytes shipped on the links towards the provenance instance.
    pub provenance_link_bytes: u64,
}

impl<D, S> DistributedOutcome<D, S> {
    /// Total source tuples injected by instance 1.
    pub fn source_tuples(&self) -> u64 {
        self.reports
            .first()
            .map(QueryReport::source_tuples)
            .unwrap_or(0)
    }

    /// Total bytes shipped over the simulated network.
    pub fn total_network_bytes(&self) -> u64 {
        self.data_link_bytes + self.provenance_link_bytes
    }
}

/// Groups a stream of unfolded events into one [`ProvenanceRecord`] per sink tuple,
/// preserving the order in which sink tuples first appeared.
pub fn group_provenance<D, S>(events: Vec<UnfoldedEvent<D, S>>) -> Vec<ProvenanceRecord<D, S>>
where
    D: TupleData,
    S: TupleData,
{
    group_by_sink(
        events,
        |e| e.sink_id,
        |e| ProvenanceRecord {
            sink_id: e.sink_id,
            sink_ts: e.sink_ts,
            sink_data: e.sink_data.clone(),
            sources: Vec::new(),
        },
        |record, e| {
            if let Some(data) = e.origin_data {
                record.sources.push(SourceRecord {
                    ts: e.origin_ts,
                    id: e.origin_id,
                    data,
                });
            }
        },
    )
}

// ---------------------------------------------------------------------------
// Distributed shard groups: spanning the Partition exchange across SPE instances
// ---------------------------------------------------------------------------

/// Number of logical channels multiplexed onto every shard's return link (see
/// [`ReturnChannels`]).
pub(crate) const RETURN_CHANNELS: usize = 3;

/// Mux index of the return link's data channel.
const DATA_CHANNEL: usize = 0;

/// The channels of one shard's return link, by role.
///
/// [`ReturnChannels::take`] is the one place that fixes their order on the mux;
/// both ends of every shard link — the in-process builder, the `spe-node` worker
/// and its client — go through it.
pub(crate) struct ReturnChannels<T> {
    /// The shard's result stream.
    pub(crate) data: T,
    /// The lineage side-stream ([`WireProvenance::ship_lineage`]); idle under
    /// systems that ship none.
    pub(crate) lineage: T,
    /// The instance's live metrics snapshots.
    pub(crate) metrics: T,
}

impl<T> ReturnChannels<T> {
    /// Takes the next [`RETURN_CHANNELS`] channels off `channels`, in mux order.
    ///
    /// # Panics
    /// Panics if fewer channels are left — a transport that ignored the channel
    /// count it was asked for.
    pub(crate) fn take(channels: &mut impl Iterator<Item = T>) -> Self {
        let mut next = || {
            channels
                .next()
                .expect("a shard's return link multiplexes RETURN_CHANNELS channels")
        };
        // Field order is mux order: `data` first, i.e. index DATA_CHANNEL.
        ReturnChannels {
            data: next(),
            lineage: next(),
            metrics: next(),
        }
    }
}

/// The physical links wiring one remote shard to its originating instance, as
/// built by a [`ShardTransport`].
///
/// The forward link carries the shard's partitioned sub-stream origin → remote;
/// the return link is multiplexed into `back_channels` logical channels
/// remote → origin; the shard-group builder assigns their roles.
pub struct ShardWiring {
    /// Origin-side sender of the forward link.
    pub forward_tx: Box<dyn FrameSink>,
    /// Remote-side receiver of the forward link.
    pub forward_rx: Box<dyn FrameSource>,
    /// Traffic counters of the forward link.
    pub forward_stats: Arc<LinkStats>,
    /// Remote-side senders of the return link's channels, in channel order.
    pub back_txs: Vec<Box<dyn FrameSink>>,
    /// Origin-side receivers of the return link's channels, in channel order.
    pub back_rxs: Vec<Box<dyn FrameSource>>,
    /// Traffic counters of the (shared) return link.
    pub back_stats: Arc<LinkStats>,
}

impl ShardWiring {
    /// Boxes the halves of a forward link and a multiplexed return link (channel
    /// halves in channel order).
    pub(crate) fn new(
        (forward_tx, forward_rx, forward_stats): (impl FrameSink, impl FrameSource, Arc<LinkStats>),
        (back_txs, back_rxs, back_stats): (
            Vec<impl FrameSink>,
            Vec<impl FrameSource>,
            Arc<LinkStats>,
        ),
    ) -> Self {
        ShardWiring {
            forward_tx: Box::new(forward_tx),
            forward_rx: Box::new(forward_rx),
            forward_stats,
            back_txs: back_txs
                .into_iter()
                .map(|tx| Box::new(tx) as Box<dyn FrameSink>)
                .collect(),
            back_rxs: back_rxs
                .into_iter()
                .map(|rx| Box::new(rx) as Box<dyn FrameSource>)
                .collect(),
            back_stats,
        }
    }

    /// Replaces the remote-side sender of the return link's data channel with
    /// `wrap(sender)` — how a transport decorator faults or kills a shard's result
    /// stream without knowing the channel layout.
    pub(crate) fn wrap_data_tx(
        &mut self,
        wrap: impl FnOnce(Box<dyn FrameSink>) -> Box<dyn FrameSink>,
    ) {
        let tx = self.back_txs.remove(DATA_CHANNEL);
        self.back_txs.insert(DATA_CHANNEL, wrap(tx));
    }
}

/// The transport seam of the distributed shard-group builder: everything above
/// it — wire framing, sequence numbers, provenance stitching, metrics
/// shipping — is transport-agnostic, so swapping [`SimulatedTransport`] for the
/// TCP transport (or anything else that moves frames) changes no bytes. A
/// transport can wrap another one to decorate the links it builds; that is how
/// faults are injected (`FaultyTransport`).
pub trait ShardTransport {
    /// Builds the forward and return links of shard `shard`, the return link
    /// multiplexed into `back_channels` channels.
    ///
    /// # Errors
    /// Returns an error when the transport cannot establish the links (e.g. a
    /// socket transport failing to connect).
    fn shard_links(&self, shard: usize, back_channels: usize) -> Result<ShardWiring, SpeError>;
}

/// The in-process [`ShardTransport`]: a [`SimulatedLink`] per direction with the
/// configured bandwidth/latency model.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedTransport {
    network: NetworkConfig,
}

impl SimulatedTransport {
    /// A transport with the given link characteristics.
    pub fn new(network: NetworkConfig) -> Self {
        SimulatedTransport { network }
    }
}

impl ShardTransport for SimulatedTransport {
    fn shard_links(&self, _shard: usize, back_channels: usize) -> Result<ShardWiring, SpeError> {
        Ok(ShardWiring::new(
            SimulatedLink::new(self.network),
            SharedLink::new(back_channels, self.network),
        ))
    }
}

/// Traffic counters of the links connecting one remote shard to its originating
/// instance.
#[derive(Debug, Clone)]
pub struct ShardLinks {
    /// Traffic origin → remote (the shard's partitioned sub-stream).
    pub forward: Arc<LinkStats>,
    /// Traffic remote → origin: the shard results, the lineage side-stream (when
    /// the provenance system ships one) and the metrics snapshots share this one
    /// physical link, multiplexed.
    pub back: Arc<LinkStats>,
}

/// The remote SPE instances hosting the shards of one distributed shard group.
///
/// Returned by [`remote_shard_group_over`] alongside the [`ShardPlacement`]s to
/// hand to `LogicalStream::place`. After the originating query has drained, call
/// [`RemoteShardGroup::wait`] to join the remote instances and fold their reports
/// into the origin's with
/// [`QueryReport::merge_distributed`](genealog_spe::runtime::QueryReport).
#[derive(Default)]
pub struct RemoteShardGroup {
    /// Engines of the instances this process hosts (none for a `spe-node` group:
    /// those run in the node processes).
    handles: Vec<QueryHandle>,
    links: Vec<ShardLinks>,
    shippers: Vec<MetricsShipper>,
    lineage_rxs: Vec<Box<dyn FrameSource>>,
    metrics_rxs: Vec<Box<dyn FrameSource>>,
    pumps: Vec<JoinHandle<()>>,
}

/// The thread continuously shipping one remote instance's metrics registry over a
/// channel of its return link, plus the flag that asks it for a final snapshot.
pub(crate) struct MetricsShipper {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl MetricsShipper {
    /// Asks the shipper for its final snapshot and joins the thread.
    pub(crate) fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Spawns the shipper thread of one remote instance: every ~20 ms (and once more
/// after the instance has drained, so the last shipment carries the final counter
/// values) it encodes the instance's registry and pushes it onto `link`.
///
/// The shipper's lifetime is tied to the *engine*, not to [`RemoteShardGroup::wait`]:
/// `link` is a sender clone of the shared physical return link, and the origin's
/// ingress detects a dead remote instance by that link closing. A shipper that kept
/// its sender alive after the engine tore down (e.g. a severed data channel failing
/// the remote mid-stream) would hold the link open forever and the originating
/// query — and with it the whole recovery path — would wedge waiting for an
/// end-of-stream that can no longer arrive.
fn spawn_metrics_shipper<L: FrameSink>(
    registry: Arc<MetricsRegistry>,
    link: L,
    engine: QueryCompletion,
) -> MetricsShipper {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_in_thread = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !stop_in_thread.load(Ordering::Relaxed) && !engine.is_finished() {
            if !link.send_frame(registry.local_samples().to_bytes()) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // Final snapshot, then drop the sender so the physical link can close.
        let _ = link.send_frame(registry.local_samples().to_bytes());
    });
    MetricsShipper { stop, thread }
}

/// Wires and deploys one remote shard instance — the body shared by
/// [`remote_shard_group_over`] and the `spe-node` worker, so in-process and
/// node-hosted shards cannot drift:
/// `Receive → build → [lineage side-stream] → Send`, then the metrics shipper
/// (when the engine's registry is enabled).
///
/// `q` arrives configured (provenance system, checkpoints); `build` adds the shard
/// operator and should name it with the group's logical name, the same in every
/// instance, so the per-instance reports fold into one operator.
///
/// # Errors
/// Propagates the engine's deployment error.
pub(crate) fn deploy_shard_instance<P, I, O, R, S, B>(
    mut q: Query<P>,
    name: &str,
    forward_rx: R,
    back: ReturnChannels<S>,
    build: B,
) -> Result<(QueryHandle, Option<MetricsShipper>), SpeError>
where
    P: WireProvenance,
    I: TupleData + WireEncode + WireDecode,
    O: TupleData + WireEncode + WireDecode,
    R: FrameSource,
    S: FrameSink,
    B: FnOnce(&mut Query<P>, StreamRef<I, P::Meta>) -> StreamRef<O, P::Meta>,
{
    let received = add_receive(&mut q, &format!("{name}.recv"), forward_rx);
    let out = build(&mut q, received);
    let to_send = P::ship_lineage::<I, O, S>(&mut q, name, out, back.lineage);
    add_send(&mut q, &format!("{name}.send"), to_send, back.data);
    let handle = q.deploy()?;
    let shipper = handle
        .registry()
        .is_enabled()
        .then(|| spawn_metrics_shipper(handle.registry(), back.metrics, handle.completion()));
    Ok((handle, shipper))
}

impl RemoteShardGroup {
    /// Registers a remote instance hosted by this process.
    pub(crate) fn host(&mut self, (handle, shipper): (QueryHandle, Option<MetricsShipper>)) {
        self.handles.push(handle);
        self.shippers.extend(shipper);
    }

    /// The origin's side of the next remote shard (shards attach in shard order):
    /// keeps its link counters and side-channel receivers, and returns the
    /// placement splicing it into the originating query — egress Send onto the
    /// forward link, ingress Receive from the return link's data channel, both
    /// tagged into per-endpoint shard groups so the runtime folds their reports
    /// across the group.
    pub(crate) fn attach_shard<P, I, O, S>(
        &mut self,
        name: &str,
        instances: usize,
        forward_tx: S,
        back: ReturnChannels<Box<dyn FrameSource>>,
        links: ShardLinks,
    ) -> ShardPlacement<P, I, O>
    where
        P: WireProvenance,
        I: TupleData + WireEncode,
        O: TupleData + WireDecode,
        S: FrameSink,
    {
        self.links.push(links);
        self.lineage_rxs.push(back.lineage);
        self.metrics_rxs.push(back.metrics);
        let group_name = name.to_string();
        let return_rx = back.data;
        ShardPlacement::remote(
            move |q: &mut Query<P>, idx: usize, shard: StreamRef<I, P::Meta>| {
                let egress = add_send(q, &format!("{group_name}.egress[{idx}]"), shard, forward_tx);
                q.set_shard_group(egress, format!("{group_name}.egress"), instances);
                let stream: StreamRef<O, P::Meta> =
                    add_receive(q, &format!("{group_name}.ingress[{idx}]"), return_rx);
                q.set_shard_group(
                    stream.producer(),
                    format!("{group_name}.ingress"),
                    instances,
                );
                stream
            },
        )
    }

    /// Streams the remote instances' registry snapshots into `registry` (normally
    /// the originating query's, see `Query::registry`): shard `i` installs as
    /// remote instance `{name}[i]`, making the spanning shard group one live
    /// metrics surface at the origin. The pump threads drain until the shard
    /// links close; [`RemoteShardGroup::wait`] joins them, so after it returns the
    /// registry holds every shard's final snapshot.
    pub fn stream_metrics_into(&mut self, name: &str, registry: &Arc<MetricsRegistry>) {
        for (i, link) in self.links.iter().enumerate() {
            link.forward
                .export_dropped_frames(registry, &format!("{name}[{i}].forward"));
            link.back
                .export_dropped_frames(registry, &format!("{name}[{i}].back"));
        }
        for (i, rx) in self.metrics_rxs.drain(..).enumerate() {
            let registry = Arc::clone(registry);
            let key = format!("{name}[{i}]");
            self.pumps.push(std::thread::spawn(move || {
                while let Some(frame) = rx.recv_frame() {
                    if let Ok(samples) = Vec::<Sample>::from_bytes(&frame) {
                        registry.install_remote(&key, samples);
                    }
                }
            }));
        }
    }

    /// Number of remote SPE instances in the group.
    pub fn instances(&self) -> usize {
        self.handles.len()
    }

    /// Per-shard link statistics, in shard order.
    pub fn links(&self) -> &[ShardLinks] {
        &self.links
    }

    /// Total bytes shipped from the originating instance to the remote shards.
    pub fn forward_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.forward.bytes()).sum()
    }

    /// Total bytes shipped from the remote shards back to the originating instance.
    pub fn back_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.back.bytes()).sum()
    }

    /// Waits for every remote instance to drain and returns their reports, in shard
    /// order.
    ///
    /// # Errors
    /// Returns the first remote instance's engine error encountered.
    pub fn wait(self) -> Result<Vec<QueryReport>, SpeError> {
        let reports: Result<Vec<QueryReport>, SpeError> =
            self.handles.into_iter().map(QueryHandle::wait).collect();
        // The remote queries have drained: ask each shipper for its final snapshot,
        // then join the pumps (they stop once the shard links close), so the
        // origin's registry reads the shards' final counters after this returns.
        for shipper in self.shippers {
            shipper.stop();
        }
        drop(self.metrics_rxs);
        for pump in self.pumps {
            let _ = pump.join();
        }
        reports
    }
}

/// What [`remote_shard_group_over`] hands back: the per-shard placements for the
/// originating query and the handle joining the remote instances.
pub type ShardGroupDeployment<P, I, O> = (Vec<ShardPlacement<P, I, O>>, RemoteShardGroup);

/// Builds the remote SPE instances of a distributed shard group and the matching
/// [`ShardPlacement`]s for the originating query — the one builder for every
/// provenance system and transport.
///
/// For each of the `instances` shards this spawns a dedicated SPE instance running
/// `Receive → (the plan built by `build`) → Send`, connected to the origin by the
/// forward and return links `transport` builds ([`SimulatedTransport`] for
/// in-process links, `TcpLoopbackTransport` for real sockets, either wrapped in a
/// fault decorator by the recovery tests). The returned placements splice each shard
/// into the origin's Partition exchange: the shard's partitioned sub-stream leaves
/// through an instrumented Send (`{name}.egress[i]`), and the remote results re-enter
/// through a Receive (`{name}.ingress[i]`) feeding the provenance-safe fan-in.
///
/// `provenance` is called once per instance so each remote engine gets its own id
/// namespace (e.g. `GeneaLog::for_instance`). Recovery drivers pass clones of one
/// long-lived system per shard instead: tuple ids must stay unique across restart
/// attempts (the checkpointed provenance prefix is grouped by sink tuple id, so a
/// rebuilt engine that restarted its id counter at zero could collide with ids the
/// failed attempt already persisted), and clones share the id counter.
///
/// Under a system that ships lineage ([`WireProvenance::ship_lineage`] — GeneaLog),
/// convert the result with [`GlShardGroup::from`] to get at the per-shard
/// provenance streams.
///
/// `build` should name the shard operator with the group's logical name (the same
/// in every instance) so
/// [`QueryReport::merge_distributed`](genealog_spe::runtime::QueryReport) folds the
/// per-instance reports into one operator with an `instances` count, exactly like a
/// local shard group.
///
/// # Errors
/// Propagates link-establishment errors from the transport and deployment errors
/// from the remote instances.
pub fn remote_shard_group_over<P, I, O, PF, B>(
    name: &str,
    instances: usize,
    transport: &dyn ShardTransport,
    config: QueryConfig,
    provenance: PF,
    build: B,
) -> Result<ShardGroupDeployment<P, I, O>, SpeError>
where
    P: WireProvenance,
    I: TupleData + WireEncode + WireDecode,
    O: TupleData + WireEncode + WireDecode,
    PF: Fn(usize) -> P,
    B: Fn(&mut Query<P>, usize, StreamRef<I, P::Meta>) -> StreamRef<O, P::Meta>,
{
    assert!(instances > 0, "a shard group needs at least one instance");
    let mut placements = Vec::with_capacity(instances);
    let mut group = RemoteShardGroup::default();
    for i in 0..instances {
        let wiring = transport.shard_links(i, RETURN_CHANNELS)?;
        group.host(deploy_shard_instance(
            Query::with_config(provenance(i), config),
            name,
            wiring.forward_rx,
            ReturnChannels::take(&mut wiring.back_txs.into_iter()),
            |q, received| build(q, i, received),
        )?);
        placements.push(group.attach_shard(
            name,
            instances,
            wiring.forward_tx,
            ReturnChannels::take(&mut wiring.back_rxs.into_iter()),
            ShardLinks {
                forward: wiring.forward_stats,
                back: wiring.back_stats,
            },
        ));
    }
    Ok((placements, group))
}

/// A distributed shard group under **GeneaLog**: the placements, the remote
/// instances, and the per-shard provenance streams needed to stitch lineage across
/// the REMOTE boundary (see [`logical_shard_provenance_sink`]).
///
/// Each remote instance walks the contribution graph of every shard result once and
/// ships its origins as one [`LineageGroup`] keyed by the delivering tuple's id,
/// back to the origin on the lineage channel of the shard's return link. The origin
/// resolves the REMOTE originating tuples of its own unfolded sink stream against
/// these groups with the multi-stream unfolder (Definition 6.4); see
/// [`logical_shard_provenance_sink`] for what the stitched records then hold.
pub struct GlShardGroup<I, O> {
    /// Placements for `LogicalStream::place` on the originating query.
    pub placements: Vec<ShardPlacement<GeneaLog, I, O>>,
    /// The remote instances and link counters.
    pub group: RemoteShardGroup,
    /// Per-shard receivers of the remote instances' lineage streams
    /// (`LineageGroup<I>` frames, multiplexed onto the shards' return links).
    pub provenance_links: Vec<Box<dyn FrameSource>>,
}

impl<I, O> From<ShardGroupDeployment<GeneaLog, I, O>> for GlShardGroup<I, O> {
    fn from((placements, mut group): ShardGroupDeployment<GeneaLog, I, O>) -> Self {
        let provenance_links = std::mem::take(&mut group.lineage_rxs);
        GlShardGroup {
            placements,
            group,
            provenance_links,
        }
    }
}

/// [`remote_shard_group_over`] under **GeneaLog** with the plain id-namespace
/// layout: remote instance `i` allocates tuple ids in namespace
/// `first_instance + i`; the originating query must use a different one.
///
/// # Errors
/// Same as [`remote_shard_group_over`].
pub fn remote_shard_group_gl_over<I, O, B>(
    name: &str,
    instances: usize,
    first_instance: u32,
    transport: &dyn ShardTransport,
    config: QueryConfig,
    build: B,
) -> Result<GlShardGroup<I, O>, SpeError>
where
    I: TupleData + WireEncode + WireDecode,
    O: TupleData + WireEncode + WireDecode,
    B: Fn(&mut Query<GeneaLog>, usize, StreamRef<I, GlMeta>) -> StreamRef<O, GlMeta>,
{
    let provenance = |i: usize| GeneaLog::for_instance(first_instance + i as u32);
    remote_shard_group_over(name, instances, transport, config, provenance, build)
        .map(GlShardGroup::from)
}

/// Collects the stitched provenance of a query whose plan contains distributed shard
/// groups (the output of [`logical_shard_provenance_sink`]): one record fragment per
/// derived event the stitch resolved, merged per sink tuple on the way out.
#[derive(Debug, Clone)]
pub struct ShardProvenanceCollector<O, S> {
    collected: CollectedStream<ProvenanceRecord<O, S>, GlMeta>,
}

/// Merges record fragments into one record per sink tuple, in the order sink tuples
/// first appear.
fn merge_fragments<'a, O: TupleData, S: TupleData>(
    fragments: impl IntoIterator<Item = &'a ProvenanceRecord<O, S>>,
) -> Vec<ProvenanceRecord<O, S>> {
    group_by_sink(
        fragments,
        |f| f.sink_id,
        |f| f.clone_header(),
        |record, f| record.sources.extend_from_slice(&f.sources),
    )
}

impl<D: Clone, S> ProvenanceRecord<D, S> {
    /// The record's sink tuple, without its sources.
    fn clone_header(&self) -> Self {
        ProvenanceRecord {
            sink_id: self.sink_id,
            sink_ts: self.sink_ts,
            sink_data: self.sink_data.clone(),
            sources: Vec::new(),
        }
    }
}

impl<O: TupleData, S: TupleData> ShardProvenanceCollector<O, S> {
    /// The per-sink-tuple provenance, in sink order.
    pub fn records(&self) -> Vec<ProvenanceRecord<O, S>> {
        merge_fragments(self.collected.tuples().iter().map(|t| &t.data))
    }

    /// Resolves a control-endpoint provenance query against the stitched shard
    /// provenance: parses `sink_id` (`origin#seq` or `origin-seq`) and renders that
    /// sink tuple's contribution set as JSON. This backs the
    /// [`genealog_control::ProvenanceQuery`] implementation, so the collector of a
    /// spanning shard group plugs directly into
    /// [`ControlPlane::with_provenance`](genealog_control::ControlPlane::with_provenance).
    pub fn contribution_json(&self, sink_id: &str) -> Option<String> {
        let id = genealog_spe::tuple::TupleId::parse(sink_id)?;
        // One request concerns one sink tuple: merge only its own fragments, not
        // the whole collection.
        let fragments = self.collected.select(|t| t.data.sink_id == id);
        let record = merge_fragments(fragments.iter().map(|t| &t.data)).pop()?;
        Some(contribution_document(
            record.sink_id,
            record.sink_ts,
            &record.sink_data,
            record
                .sources
                .iter()
                .map(|s| (s.id, s.ts, format!("{:?}", s.data))),
        ))
    }
}

impl<O, S> genealog_control::ProvenanceQuery for ShardProvenanceCollector<O, S>
where
    O: TupleData,
    S: TupleData,
{
    fn contribution_set(&self, sink_id: &str) -> Option<String> {
        self.contribution_json(sink_id)
    }
}

/// Attaches a provenance sink that stitches GeneaLog lineage across the REMOTE
/// boundaries of distributed shard groups: the unfolder, the multi-stream
/// unfolder's stitch and the stitched-provenance sink are spliced in behind the
/// [`LogicalStream`] at lowering time, and the collector is populated once the
/// lowered query runs.
///
/// The origin's own unfolded stream terminates at REMOTE originating tuples for
/// every sink tuple that crossed back from a remote shard; this helper resolves them
/// with the multi-stream unfolder of §6 against the lineage the remote instances
/// ship (`provenance_links`, from [`GlShardGroup`]: one [`LineageGroup`] per shard
/// result). It resolves **one REMOTE level**: a sink tuple's record lists the tuples
/// that *entered the shard group*, as the remote instance's traversal found them.
/// When those are the origin's SOURCE tuples — the shard group reads the source
/// stream directly — the records equal what `genealog::logical_provenance_sink`
/// reports for the equivalent single-instance plan. When an operator runs between
/// the source and the exchange (a Map, say), each record ends at that operator's
/// outputs, the shard inputs, carrying their payloads: the origin's graph below
/// them is not walked again. Local shards' lineage needs no stitching (their chain
/// pointers never left the process) and passes the unfolder through unchanged, so
/// mixed local/remote groups work too.
///
/// `upstream_window` is the stitch's window: it must cover the maximum time distance
/// between a sink tuple and the upstream delivering tuples contributing to it (the
/// sum of the plan's stateful window sizes, §6.1).
///
/// Returns the pass-through copy of `stream` (connect it to the query's Sink) and
/// the collector.
///
/// # Panics
/// Panics (at lowering) if `provenance_links` is empty: with no remote shard there
/// is no REMOTE boundary; use `genealog::logical_provenance_sink` instead.
pub fn logical_shard_provenance_sink<O, S, R>(
    stream: LogicalStream<GeneaLog, O>,
    name: &str,
    provenance_links: Vec<R>,
    upstream_window: Duration,
) -> (LogicalStream<GeneaLog, O>, ShardProvenanceCollector<O, S>)
where
    O: TupleData,
    S: TupleData + WireEncode + WireDecode,
    R: FrameSource,
{
    let collector = ShardProvenanceCollector {
        collected: CollectedStream::new(),
    };
    let copy = collector.clone();
    let name = name.to_string();
    let passthrough = stream.raw(&format!("{name}-stitch"), move |q, s| {
        q.note_provenance_collector();
        let (passthrough, unfolded) = attach_unfolder(q, &name, s);
        let derived = q.map_one(
            &format!("{name}.events"),
            unfolded,
            |u: &UnfoldedTuple<O>| u.to_event::<S>(),
        );
        let lineage = provenance_links
            .into_iter()
            .enumerate()
            .map(|(i, link)| {
                add_receive::<LineageGroup<S>, _, _>(q, &format!("{name}.upstream[{i}]"), link)
            })
            .collect();
        stitch_into(q, &name, derived, lineage, upstream_window, &copy);
        passthrough
    });
    (passthrough, collector)
}

/// Attaches the multi-stream unfolder's stitch over the origin's `derived` unfolded
/// stream and the `lineage` streams of its remote shards, and the sink collecting
/// one [`ProvenanceRecord`] fragment per resolved derived event (the body of
/// [`logical_shard_provenance_sink`]): a SOURCE-origin event is a fragment of its
/// one source, a REMOTE-origin event takes the sources of the lineage element it
/// matched. Lineage can be grouped ([`LineageGroup`], what remote shards ship) or
/// per pair ([`UpstreamEvent`]); both give the same records.
///
/// # Panics
/// Panics if `lineage` is empty.
pub fn attach_shard_stitch<O, S, U>(
    q: &mut Query<GeneaLog>,
    name: &str,
    derived: StreamRef<UnfoldedEvent<O, S>, GlMeta>,
    lineage: Vec<StreamRef<U, GlMeta>>,
    upstream_window: Duration,
) -> ShardProvenanceCollector<O, S>
where
    O: TupleData,
    S: TupleData,
    U: UpstreamLineage<S>,
{
    let collector = ShardProvenanceCollector {
        collected: CollectedStream::new(),
    };
    stitch_into(q, name, derived, lineage, upstream_window, &collector);
    collector
}

fn stitch_into<O, S, U>(
    q: &mut Query<GeneaLog>,
    name: &str,
    derived: StreamRef<UnfoldedEvent<O, S>, GlMeta>,
    lineage: Vec<StreamRef<U, GlMeta>>,
    upstream_window: Duration,
    collector: &ShardProvenanceCollector<O, S>,
) where
    O: TupleData,
    S: TupleData,
    U: UpstreamLineage<S>,
{
    let fragments = attach_stitch(
        q,
        name,
        derived,
        lineage,
        upstream_window,
        |d: &UnfoldedEvent<O, S>, u: Option<&U>| {
            let mut sources = Vec::new();
            match u {
                None => sources.extend(d.source_record()),
                Some(u) => u.push_sources(&mut sources),
            }
            ProvenanceRecord {
                sink_id: d.sink_id,
                sink_ts: d.sink_ts,
                sink_data: d.sink_data.clone(),
                sources,
            }
        },
    );
    q.collecting_sink_into(&format!("{name}.sink"), fragments, &collector.collected);
}

/// Applies stage 1 to instance 1's source stream (see [`deploy_two_stage`]).
type Stage1<P, S, D1> = Box<dyn FnOnce(LogicalStream<P, S>) -> LogicalStream<P, D1>>;

/// The skeleton the three `deploy_distributed_*` entry points share: instance 1
/// runs `source → stage 1` and ships the result over the data link, instance 2 runs
/// `receive → stage 2 → data sink`, an optional provenance instance runs beside
/// them, all are deployed, then drained in order, and the outcome is assembled.
/// Each instance's plan is built on the declarative [`LogicalPlan`] builder (the
/// planner owns fusion and channel budgets per instance); `stage1`/`stage2` remain
/// physical-layer callbacks, so the workload stage builders plug in unchanged.
///
/// What differs per provenance system comes in as closures: `ship` finishes
/// instance 1 given its source stream, the stage-1 application and the data link's
/// sender; `tap` splices into instance 2 between stage 2 and the data sink;
/// `collect` runs once everything drained and yields the provenance records and the
/// bytes shipped towards the provenance instance.
#[allow(clippy::too_many_arguments)]
fn deploy_two_stage<P, G, S, D1, D2>(
    name: &str,
    systems: [P; 2],
    generator: G,
    source_config: SourceConfig,
    stage1: impl FnOnce(&mut Query<P>, StreamRef<S, P::Meta>) -> StreamRef<D1, P::Meta> + 'static,
    stage2: impl FnOnce(&mut Query<P>, StreamRef<D1, P::Meta>) -> StreamRef<D2, P::Meta> + 'static,
    network: NetworkConfig,
    ship: impl FnOnce(LogicalStream<P, S>, Stage1<P, S, D1>, LinkSender),
    tap: impl FnOnce(LogicalStream<P, D2>) -> LogicalStream<P, D2>,
    provenance_plan: Option<LogicalPlan<NoProvenance>>,
    collect: impl FnOnce() -> (Vec<ProvenanceRecord<D2, S>>, u64),
) -> Result<DistributedOutcome<D2, S>, SpeError>
where
    P: ProvenanceSystem,
    G: SourceGenerator<Item = S>,
    S: TupleData,
    D1: TupleData + WireDecode,
    D2: TupleData,
{
    let (data_tx, data_rx, data_stats) = SimulatedLink::new(network);
    let [system1, system2] = systems;

    let plan1 = LogicalPlan::new(system1);
    let stage1_name = format!("{name}-stage1");
    ship(
        plan1.source_with(&format!("{name}-source"), generator, source_config),
        Box::new(move |source| source.raw(&stage1_name, stage1)),
        data_tx,
    );

    let plan2 = LogicalPlan::new(system2);
    let received: LogicalStream<P, D1> =
        receive_stream(&plan2, &format!("{name}-i2-receive"), data_rx);
    let data_sink = tap(received.raw(&format!("{name}-stage2"), stage2))
        .collecting_sink(&format!("{name}-data-sink"));

    let mut handles = vec![plan1.deploy()?, plan2.deploy()?];
    if let Some(plan3) = provenance_plan {
        handles.push(plan3.deploy()?);
    }
    let reports = handles
        .into_iter()
        .map(QueryHandle::wait)
        .collect::<Result<Vec<_>, _>>()?;

    let alerts = data_sink
        .tuples()
        .iter()
        .map(|t| (t.ts, t.data.clone()))
        .collect();
    let (provenance, provenance_link_bytes) = collect();
    Ok(DistributedOutcome {
        reports,
        alerts,
        sink_stats: Arc::clone(data_sink.stats()),
        provenance,
        data_link_bytes: data_stats.bytes(),
        provenance_link_bytes,
    })
}

/// Deploys a two-stage query over three SPE instances with **GeneaLog** provenance
/// (the GL rows of Figure 13), blocking until completion.
///
/// Instances 1 and 2 each run a single-stream unfolder next to their stage and ship
/// its unfolded stream to instance 3, whose multi-stream unfolder stitches them.
/// `provenance_window` is the MU's stitch window (the sum of the query's stateful window
/// sizes, §6.1).
///
/// # Errors
/// Propagates any engine deployment or runtime error from the three instances.
#[allow(clippy::too_many_arguments)]
pub fn deploy_distributed_genealog<G, D1, D2, S, F1, F2>(
    name: &str,
    generator: G,
    source_config: SourceConfig,
    stage1: F1,
    stage2: F2,
    provenance_window: Duration,
    network: NetworkConfig,
) -> Result<DistributedOutcome<D2, S>, SpeError>
where
    G: SourceGenerator<Item = S>,
    S: TupleData + WireEncode + WireDecode,
    D1: TupleData + WireEncode + WireDecode,
    D2: TupleData + WireEncode + WireDecode,
    F1: FnOnce(&mut Query<GeneaLog>, StreamRef<S, GlMeta>) -> StreamRef<D1, GlMeta> + 'static,
    F2: FnOnce(&mut Query<GeneaLog>, StreamRef<D1, GlMeta>) -> StreamRef<D2, GlMeta> + 'static,
{
    let (up_tx, up_rx, up_stats) = SimulatedLink::new(network);
    let (derived_tx, derived_rx, derived_stats) = SimulatedLink::new(network);

    // --- Instance 3: Receives + MU + provenance Sink ------------------------------
    let plan3 = LogicalPlan::new(NoProvenance);
    let n3 = name.to_string();
    let upstream: LogicalStream<NoProvenance, UpstreamEvent<S>> =
        receive_stream(&plan3, &format!("{name}-i3-receive-upstream"), up_rx);
    let derived: LogicalStream<NoProvenance, UnfoldedEvent<D2, S>> =
        receive_stream(&plan3, &format!("{name}-i3-receive-derived"), derived_rx);
    let provenance_sink = derived
        .raw_with(upstream, &format!("{name}-i3-mu"), move |q, d, u| {
            attach_multi_unfolder(q, &format!("{n3}-i3"), d, vec![u], provenance_window)
        })
        .collecting_sink(&format!("{name}-provenance-sink"));

    let (n1, n2) = (name.to_string(), name.to_string());
    let (ship_name, su_name) = (format!("{name}-i1-ship"), format!("{name}-i2-su"));
    deploy_two_stage(
        name,
        [GeneaLog::for_instance(1), GeneaLog::for_instance(2)],
        generator,
        source_config,
        stage1,
        stage2,
        network,
        // --- Instance 1: Source + stage 1 + SU + Sends ----------------------------
        move |source, stage1, data_tx| {
            stage1(source).raw_sink(&ship_name, move |q, s| {
                let (data_stream, unfolded1) = attach_unfolder(q, &format!("{n1}-i1"), s);
                add_send(q, &format!("{n1}-i1-send-data"), data_stream, data_tx);
                let upstream_events = q.map_one(
                    &format!("{n1}-i1-upstream"),
                    unfolded1,
                    |u: &genealog::UnfoldedTuple<D1>| u.to_event::<S>().to_upstream(),
                );
                add_send(q, &format!("{n1}-i1-send-upstream"), upstream_events, up_tx);
            })
        },
        // --- Instance 2: Receive + stage 2 + SU + Send + data Sink ----------------
        move |results| {
            results.raw(&su_name, move |q, s| {
                let (to_sink, unfolded2) = attach_unfolder(q, &format!("{n2}-i2"), s);
                let derived_events = q.map_one(
                    &format!("{n2}-i2-derived"),
                    unfolded2,
                    |u: &genealog::UnfoldedTuple<D2>| u.to_event::<S>(),
                );
                add_send(
                    q,
                    &format!("{n2}-i2-send-derived"),
                    derived_events,
                    derived_tx,
                );
                to_sink
            })
        },
        Some(plan3),
        move || {
            let events = provenance_sink.tuples();
            (
                group_provenance(events.iter().map(|t| t.data.clone()).collect()),
                up_stats.bytes() + derived_stats.bytes(),
            )
        },
    )
}

/// Deploys a two-stage query over two SPE instances with **no provenance**
/// (the NP rows of Figure 13), blocking until completion.
///
/// # Errors
/// Propagates any engine deployment or runtime error.
pub fn deploy_distributed_noprov<G, D1, D2, S, F1, F2>(
    name: &str,
    generator: G,
    source_config: SourceConfig,
    stage1: F1,
    stage2: F2,
    network: NetworkConfig,
) -> Result<DistributedOutcome<D2, S>, SpeError>
where
    G: SourceGenerator<Item = S>,
    S: TupleData + WireEncode + WireDecode,
    D1: TupleData + WireEncode + WireDecode,
    D2: TupleData + WireEncode + WireDecode,
    F1: FnOnce(&mut Query<NoProvenance>, StreamRef<S, ()>) -> StreamRef<D1, ()> + 'static,
    F2: FnOnce(&mut Query<NoProvenance>, StreamRef<D1, ()>) -> StreamRef<D2, ()> + 'static,
{
    let send_name = format!("{name}-i1-send-data");
    deploy_two_stage(
        name,
        [NoProvenance, NoProvenance],
        generator,
        source_config,
        stage1,
        stage2,
        network,
        move |source, stage1, data_tx| send_stream(stage1(source), &send_name, data_tx),
        |results| results,
        None,
        || (Vec::new(), 0),
    )
}

/// Deploys a two-stage query over three SPE instances with the **Ariadne-style
/// baseline** (the BL rows of Figure 13), blocking until completion.
///
/// Annotation-based provenance needs the source payloads next to the annotated sink
/// tuples, so — as in the paper's baseline deployment — the entire source stream is
/// additionally shipped to the provenance instance, which is what makes the network
/// the baseline's bottleneck. The provenance instance merely persists the forwarded
/// source stream; no complete provenance stream is produced (the paper reports the
/// same behaviour: "the system produces very little or no provenance data").
///
/// # Errors
/// Propagates any engine deployment or runtime error.
pub fn deploy_distributed_baseline<G, D1, D2, S, F1, F2>(
    name: &str,
    generator: G,
    source_config: SourceConfig,
    stage1: F1,
    stage2: F2,
    network: NetworkConfig,
) -> Result<DistributedOutcome<D2, S>, SpeError>
where
    G: SourceGenerator<Item = S>,
    S: TupleData + WireEncode + WireDecode,
    D1: TupleData + WireEncode + WireDecode,
    D2: TupleData + WireEncode + WireDecode,
    F1: FnOnce(
            &mut Query<AriadneBaseline>,
            StreamRef<S, genealog_baseline::BlMeta>,
        ) -> StreamRef<D1, genealog_baseline::BlMeta>
        + 'static,
    F2: FnOnce(
            &mut Query<AriadneBaseline>,
            StreamRef<D1, genealog_baseline::BlMeta>,
        ) -> StreamRef<D2, genealog_baseline::BlMeta>
        + 'static,
{
    let (source_tx, source_rx, source_stats) = SimulatedLink::new(network);

    // Instance 3: persist the forwarded source stream (the baseline's provenance store).
    let plan3 = LogicalPlan::new(NoProvenance);
    let forwarded: LogicalStream<NoProvenance, S> =
        receive_stream(&plan3, &format!("{name}-i3-receive-sources"), source_rx);
    let _store = forwarded.collecting_sink(&format!("{name}-source-store"));

    let n1 = name.to_string();
    deploy_two_stage(
        name,
        [AriadneBaseline::new(), AriadneBaseline::new()],
        generator,
        source_config,
        stage1,
        stage2,
        network,
        move |source, stage1, data_tx| {
            let mut branches = source.multiplex(&format!("{n1}-i1-mux"), 2).into_iter();
            let to_query = branches.next().expect("two branches");
            let to_provenance = branches.next().expect("two branches");
            send_stream(stage1(to_query), &format!("{n1}-i1-send-data"), data_tx);
            // The baseline has to make the raw source stream available wherever
            // provenance is materialised, so the whole stream crosses the network.
            send_stream(to_provenance, &format!("{n1}-i1-send-sources"), source_tx);
        },
        |results| results,
        Some(plan3),
        move || (Vec::new(), source_stats.bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
    use genealog_workloads::queries::{q1_provenance_window, q1_stage1, q1_stage2};
    use genealog_workloads::types::{PositionReport, StoppedCarCount};

    fn lr_config() -> LinearRoadConfig {
        LinearRoadConfig {
            cars: 30,
            rounds: 20,
            ..LinearRoadConfig::default()
        }
    }

    #[test]
    fn distributed_q1_with_genealog_captures_full_provenance() {
        let config = lr_config();
        let generator = LinearRoadGenerator::new(config);
        let expected_cars: std::collections::BTreeSet<u32> =
            generator.breakdown_cars().into_iter().collect();

        let outcome = deploy_distributed_genealog::<
            _,
            StoppedCarCount,
            StoppedCarCount,
            PositionReport,
            _,
            _,
        >(
            "q1",
            generator,
            SourceConfig::default(),
            q1_stage1,
            q1_stage2,
            q1_provenance_window(),
            NetworkConfig::unlimited(),
        )
        .expect("distributed deployment");

        assert!(!outcome.alerts.is_empty());
        let alert_cars: std::collections::BTreeSet<u32> =
            outcome.alerts.iter().map(|(_, a)| a.car_id).collect();
        assert_eq!(alert_cars, expected_cars);

        // Every alert has a complete provenance record of 4 zero-speed source reports.
        assert_eq!(outcome.provenance.len(), outcome.alerts.len());
        for record in &outcome.provenance {
            assert_eq!(record.sources.len(), 4, "Q1 provenance is 4 source tuples");
            assert!(record
                .sources
                .iter()
                .all(|s| s.data.speed == 0 && s.data.car_id == record.sink_data.car_id));
        }
        assert!(outcome.data_link_bytes > 0);
        assert!(outcome.provenance_link_bytes > 0);
        assert_eq!(outcome.reports.len(), 3);
        assert!(outcome.source_tuples() > 0);
    }

    #[test]
    fn distributed_q1_noprov_and_baseline_agree_on_alerts() {
        let config = lr_config();

        let np =
            deploy_distributed_noprov::<_, StoppedCarCount, StoppedCarCount, PositionReport, _, _>(
                "q1-np",
                LinearRoadGenerator::new(config),
                SourceConfig::default(),
                q1_stage1,
                q1_stage2,
                NetworkConfig::unlimited(),
            )
            .expect("np deployment");

        let bl = deploy_distributed_baseline::<
            _,
            StoppedCarCount,
            StoppedCarCount,
            PositionReport,
            _,
            _,
        >(
            "q1-bl",
            LinearRoadGenerator::new(config),
            SourceConfig::default(),
            q1_stage1,
            q1_stage2,
            NetworkConfig::unlimited(),
        )
        .expect("bl deployment");

        assert_eq!(np.alerts, bl.alerts);
        assert!(np.provenance.is_empty());
        // The baseline ships the whole source stream to the provenance node.
        let source_tuples = config.total_reports();
        assert!(bl.provenance_link_bytes >= source_tuples * 8);
        assert!(bl.provenance_link_bytes > np.total_network_bytes());
    }
}
