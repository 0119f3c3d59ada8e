//! The `spe-node` worker protocol: real multi-process shard hosting.
//!
//! A node is a long-lived process listening on a TCP port. The originating
//! query's side ([`connect_gl_node_group`]) dials each node, sends one
//! [`NodeDeployment`] frame describing which shards of a group the node should
//! host, and the same socket then becomes the multiplexed data plane of the
//! deployment — no second connection, no shared filesystem.
//!
//! # Wire protocol
//!
//! Every frame is length-delimited exactly like the [`tcp`](crate::tcp)
//! transport (little-endian `u32` length + payload). On a fresh connection:
//!
//! 1. client → node: one [`NodeDeployment`] (via [`WireEncode`]);
//! 2. node → client: the [`ACK`] frame;
//! 3. both directions switch to the [`SharedLink`] channel-prefix mux.
//!
//! With `k` hosted shards the channel layout is, in the client → node
//! direction, channel `j` = shard `j`'s partitioned sub-stream; in the node →
//! client direction, the `j`-th run of `RETURN_CHANNELS` channels is shard
//! `j`'s return link (results, lineage stream, metrics snapshots) —
//! the same per-shard channels, split by the same function, that
//! [`remote_shard_group_over`](crate::deployment::remote_shard_group_over)
//! wires in-process.
//!
//! A node connection that drops mid-deployment severs every hosted shard's
//! links at once (the accepted socket has nowhere to re-dial), which the
//! origin's Receive operators surface as a mid-stream close — the
//! `run_with_recovery` path, exactly like a simulated sever.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use genealog::{GeneaLog, GlMeta, GlWindowPersister};
use genealog_metrics::{MetricsRegistry, Tracer};
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::query::{Query, QueryConfig, StreamRef};
use genealog_spe::runtime::QueryReport;
use genealog_spe::state::{CheckpointConfig, CheckpointStore, InMemoryBackend, StateBackend};
use genealog_spe::{SpeError, WindowSpec};
use genealog_store::{DurableBackend, ScopedBackend, StoreOptions};
use parking_lot::Mutex;

use crate::deployment::{
    deploy_shard_instance, GlShardGroup, RemoteShardGroup, ReturnChannels, ShardLinks,
    RETURN_CHANNELS,
};
use crate::network::{FrameSink, FrameSource, LinkStats, SharedLink};
use crate::tcp::{
    apply_socket_options, read_frame, write_frame, ReadOutcome, TcpReceiver, TcpSender,
};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader};
use crate::NetworkConfig;

/// The node's answer to a well-formed [`NodeDeployment`] frame.
pub const ACK: &[u8] = b"genealog-node ok";

/// The payload type `spe-node` shards process: `(key, value)` readings, the
/// same shape as the distributed shard-group test workloads.
pub type NodeReading = (u32, i64);

/// The windowed operator a node runs on each hosted shard, chosen from a small
/// catalogue of serialisable specs (a node cannot receive closures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOpSpec {
    /// Per-key sum over a sliding window of `size_ms` / `slide_ms`.
    SumAggregate {
        /// Window size in milliseconds.
        size_ms: u64,
        /// Window slide in milliseconds.
        slide_ms: u64,
    },
    /// `filter(value % 3 != 0) → map(value * 2)` ahead of the same per-key
    /// windowed sum — the staged shape of the fused-shard equivalence tests.
    FilteredScaledSum {
        /// Window size in milliseconds.
        size_ms: u64,
        /// Window slide in milliseconds.
        slide_ms: u64,
    },
}

impl ShardOpSpec {
    fn window(&self) -> Result<WindowSpec, SpeError> {
        let (size_ms, slide_ms) = match *self {
            ShardOpSpec::SumAggregate { size_ms, slide_ms }
            | ShardOpSpec::FilteredScaledSum { size_ms, slide_ms } => (size_ms, slide_ms),
        };
        WindowSpec::new(
            genealog_spe::Duration::from_millis(size_ms),
            genealog_spe::Duration::from_millis(slide_ms),
        )
    }

    /// Splices the spec'd operator, windowed by `spec` (see
    /// [`ShardOpSpec::window`]), into a node-side query.
    fn build(
        &self,
        q: &mut Query<GeneaLog>,
        name: &str,
        input: StreamRef<NodeReading, GlMeta>,
        spec: WindowSpec,
    ) -> StreamRef<NodeReading, GlMeta> {
        let staged = match self {
            ShardOpSpec::SumAggregate { .. } => input,
            ShardOpSpec::FilteredScaledSum { .. } => {
                let kept = q.filter("keep", input, |r: &NodeReading| r.1 % 3 != 0);
                q.map_one("scale", kept, |r: &NodeReading| (r.0, r.1 * 2))
            }
        };
        q.aggregate(
            name,
            staged,
            spec,
            |r: &NodeReading| r.0,
            |w: &WindowView<'_, u32, NodeReading, GlMeta>| {
                (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
            },
        )
    }
}

impl WireEncode for ShardOpSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            ShardOpSpec::SumAggregate { size_ms, slide_ms } => {
                0u8.encode(out);
                size_ms.encode(out);
                slide_ms.encode(out);
            }
            ShardOpSpec::FilteredScaledSum { size_ms, slide_ms } => {
                1u8.encode(out);
                size_ms.encode(out);
                slide_ms.encode(out);
            }
        }
    }
}

impl WireDecode for ShardOpSpec {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tag = u8::decode(reader)?;
        let size_ms = u64::decode(reader)?;
        let slide_ms = u64::decode(reader)?;
        match tag {
            0 => Ok(ShardOpSpec::SumAggregate { size_ms, slide_ms }),
            1 => Ok(ShardOpSpec::FilteredScaledSum { size_ms, slide_ms }),
            tag => Err(WireError::Tag {
                what: "shard op",
                tag,
            }),
        }
    }
}

/// Everything a node needs to host its slice of one distributed shard group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeDeployment {
    /// Logical name of the shard group (used for operator names, shard-group
    /// report folding and the node's metrics keys).
    pub group: String,
    /// Global shard indices this node hosts, in the channel order of the
    /// connection's mux.
    pub shards: Vec<u32>,
    /// Total number of shards in the group, across all nodes.
    pub total_shards: u32,
    /// GeneaLog id-namespace base: shard `g` runs under instance
    /// `first_instance + g`. The origin must use a namespace outside
    /// `first_instance..first_instance + total_shards`.
    pub first_instance: u32,
    /// Whether the node's engines fuse adjacent stateless stages.
    pub fusion: bool,
    /// The operator every shard runs.
    pub op: ShardOpSpec,
    /// Barrier interval (tuples per epoch) of the originating query's
    /// checkpointing; `None` deploys without checkpoint participation. The
    /// hosted engines commit their window state against the node's own store —
    /// durable when the node runs with a state directory.
    pub checkpoint_interval: Option<u64>,
    /// The origin-pinned epoch the hosted shards must restore to before
    /// processing (a recovery re-deployment); `None` is a fresh start, which
    /// wipes any leftover on-disk state for the group.
    pub restore_epoch: Option<u64>,
}

impl WireEncode for NodeDeployment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.group.encode(out);
        self.shards.encode(out);
        self.total_shards.encode(out);
        self.first_instance.encode(out);
        self.fusion.encode(out);
        self.op.encode(out);
        self.checkpoint_interval.encode(out);
        self.restore_epoch.encode(out);
    }
}

impl WireDecode for NodeDeployment {
    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let deployment = NodeDeployment {
            group: String::decode(reader)?,
            shards: Vec::decode(reader)?,
            total_shards: u32::decode(reader)?,
            first_instance: u32::decode(reader)?,
            fusion: bool::decode(reader)?,
            op: ShardOpSpec::decode(reader)?,
            checkpoint_interval: Option::decode(reader)?,
            restore_epoch: Option::decode(reader)?,
        };
        if deployment.shards.is_empty() {
            return Err(WireError::Invalid("a node deployment must host shards"));
        }
        if deployment
            .shards
            .iter()
            .any(|&g| g >= deployment.total_shards)
        {
            return Err(WireError::Invalid("shard index out of range for the group"));
        }
        if deployment.checkpoint_interval == Some(0) {
            return Err(WireError::Invalid("checkpoint interval must be positive"));
        }
        if deployment.restore_epoch.is_some() && deployment.checkpoint_interval.is_none() {
            return Err(WireError::Invalid(
                "a restore epoch requires checkpointing to be enabled",
            ));
        }
        Ok(deployment)
    }
}

/// Discard half used where the mux only runs in one direction over a socket:
/// the node never *sends* on the client → node mux, and never *receives* on
/// the node → client one.
#[derive(Clone)]
struct NullSink;

impl FrameSink for NullSink {
    fn send_frame(&self, _frame: Vec<u8>) -> bool {
        false
    }
}

struct NullSource;

impl FrameSource for NullSource {
    fn recv_frame(&self) -> Option<Vec<u8>> {
        None
    }
}

fn invalid(err: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

fn runtime(err: impl std::fmt::Display) -> io::Error {
    io::Error::other(err.to_string())
}

/// The durable checkpoint stores a node process currently has open, shared
/// between the serving loop and the binary's signal handler so a SIGTERM can
/// flush every manifest before the process exits.
#[derive(Debug, Default, Clone)]
pub struct NodeStores {
    stores: Arc<Mutex<Vec<Arc<DurableBackend>>>>,
}

impl NodeStores {
    /// Creates an empty store registry.
    pub fn new() -> Self {
        NodeStores::default()
    }

    /// Registers `store`, replacing any previously-open store of the same
    /// directory (a group re-deployed on the same node).
    fn register(&self, store: Arc<DurableBackend>) {
        let mut stores = self.stores.lock();
        stores.retain(|s| s.dir() != store.dir());
        stores.push(store);
    }

    /// Flushes every open store's segment and manifest (marking a clean
    /// shutdown); returns how many stores flushed successfully.
    pub fn flush_all(&self) -> usize {
        let stores = self.stores.lock();
        let mut flushed = 0;
        for store in stores.iter() {
            match store.flush() {
                Ok(()) => flushed += 1,
                Err(err) => Tracer::global().emit(
                    "store-flush-failed",
                    "spe-node",
                    format!("flushing {} failed: {err}", store.dir().display()),
                ),
            }
        }
        flushed
    }

    /// A JSON array of per-store status objects (the control endpoint's
    /// `/store` payload).
    pub fn status_json(&self) -> String {
        let stores = self.stores.lock();
        let items: Vec<String> = stores.iter().map(|s| s.status_json()).collect();
        format!("[{}]", items.join(","))
    }
}

/// Serves one deployment connection: reads the [`NodeDeployment`] frame,
/// acknowledges it, hosts the requested shards until they drain, and returns
/// their reports in hosted-shard order.
///
/// The hosted engines' registries are mirrored into `registry` (the node's
/// long-lived registry, normally the one behind its control endpoint) as
/// remote instances keyed `{group}[{shard}]`, so `GET /metrics` on the node
/// shows the live counters of everything it hosts.
///
/// When the deployment asks for checkpointing and `state_dir` is set, every
/// hosted engine commits its window state — provenance included, byte-encoded
/// through [`GlWindowPersister`] — into a [`DurableBackend`] at
/// `state_dir/<group>` (incremental snapshots on), scoped per shard so a
/// killed-and-restarted node re-joins from **its own disk**; the store is
/// registered on `stores` so the binary's SIGTERM handler can flush its
/// manifest. A deployment carrying a `restore_epoch` restores the hosted
/// engines to that origin-pinned cut before processing; a fresh deployment
/// wipes the group's leftover state first. Without a `state_dir` the engines
/// fall back to per-deployment in-memory stores (barrier alignment still
/// works; nothing survives the process — the analyzer's GL014 diagnostic flags
/// this combination at the origin).
///
/// # Errors
/// Fails on a malformed handshake, socket setup, or an unopenable store
/// directory. A shard engine failing mid-deployment (e.g. its links severed)
/// is *not* an error here: the failure already propagated to the origin
/// through the closed links, the node stays up, and the failed shard's report
/// is simply absent from the result.
pub fn serve_node_connection(
    stream: TcpStream,
    registry: &Arc<MetricsRegistry>,
    network: NetworkConfig,
    state_dir: Option<&Path>,
    stores: &NodeStores,
) -> io::Result<Vec<QueryReport>> {
    let mut stream = stream;
    apply_socket_options(&stream, &network)?;
    let frame = match read_frame(&mut stream)? {
        ReadOutcome::Frame(frame) => frame,
        ReadOutcome::Goodbye => return Ok(Vec::new()),
    };
    let deployment = NodeDeployment::from_bytes(&frame).map_err(invalid)?;
    write_frame(&mut stream, ACK)?;

    let durable = match (state_dir, deployment.checkpoint_interval) {
        (Some(root), Some(_)) => {
            let dir = root.join(&deployment.group);
            if deployment.restore_epoch.is_none() {
                // A fresh deployment must not resurrect an earlier run's state.
                let _ = std::fs::remove_dir_all(&dir);
            }
            let backend =
                DurableBackend::open_with(&dir, StoreOptions::incremental()).map_err(runtime)?;
            backend.publish_metrics(registry);
            stores.register(Arc::clone(&backend));
            Tracer::global().emit(
                "node-store-open",
                &deployment.group,
                format!(
                    "durable checkpoint store at {} (restore epoch {:?}, latest complete {:?})",
                    backend.dir().display(),
                    deployment.restore_epoch,
                    backend.latest_complete_epoch(),
                ),
            );
            Some(backend)
        }
        _ => None,
    };

    let window = deployment.op.window().map_err(invalid)?;
    let k = deployment.shards.len();
    let (tx, _tx_stats) = TcpSender::from_stream(stream.try_clone()?, None, network);
    let lingering = stream.try_clone()?;
    let rx = TcpReceiver::from_stream(stream, None, network);
    let recv_stats = Arc::new(LinkStats::default());
    recv_stats.export_dropped_frames(registry, &format!("{}.node", deployment.group));
    // Client → node: one receiver per hosted shard (the senders go unused).
    let (_unused_txs, forward_rxs) = SharedLink::over(k, NullSink, rx, Arc::clone(&recv_stats));
    // Node → client: one return link's worth of channels per hosted shard (the
    // receivers go unused). The engines own these senders, so the goodbye
    // sentinel fires once the last shipper finishes.
    let (back_txs, _unused_rxs) = SharedLink::over(RETURN_CHANNELS * k, tx, NullSource, recv_stats);
    let mut back_txs = back_txs.into_iter();

    let mut handles = Vec::with_capacity(k);
    let mut shippers = Vec::with_capacity(k);
    let mut mirrors = Vec::with_capacity(k);
    for (&global, forward_rx) in deployment.shards.iter().zip(forward_rxs) {
        let group = deployment.group.as_str();
        let gl = GeneaLog::for_instance(deployment.first_instance + global);
        let config = QueryConfig::default()
            .with_fusion(deployment.fusion)
            .with_metrics(true);
        let q = Query::with_config(gl, config);
        if let Some(interval) = deployment.checkpoint_interval {
            // Each hosted engine gets its own checkpoint store (its barrier
            // alignment is engine-local) over a shard-scoped view of the
            // node's one durable backend, so same-named participants of
            // different shards stay distinct on disk.
            let backend: Arc<dyn StateBackend> = match &durable {
                Some(shared) => ScopedBackend::new(Arc::clone(shared), format!("shard{global}")),
                None => Arc::new(InMemoryBackend::new()),
            };
            let store = CheckpointStore::new(backend);
            if let Some(epoch) = deployment.restore_epoch {
                store.restore_to(epoch);
            }
            q.set_checkpoints(
                CheckpointConfig::new(interval, store)
                    .with_window_persister::<u32, NodeReading, GlMeta>(Arc::new(
                        GlWindowPersister::<u32, NodeReading, NodeReading>::new(),
                    )),
            );
        }
        let (handle, shipper) = deploy_shard_instance(
            q,
            group,
            forward_rx,
            ReturnChannels::take(&mut back_txs),
            |q, received| deployment.op.build(q, group, received, window),
        )
        .map_err(runtime)?;
        shippers.extend(shipper);
        // Mirror the engine's registry into the node's own, so the node's
        // control endpoint exposes what it hosts while it runs.
        let completion = handle.completion();
        let engine_registry = handle.registry();
        let node_registry = Arc::clone(registry);
        let key = format!("{group}[{global}]");
        mirrors.push(std::thread::spawn(move || loop {
            node_registry.install_remote(&key, engine_registry.local_samples());
            if completion.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }));
        handles.push(handle);
    }

    let mut reports = Vec::with_capacity(k);
    for (j, handle) in handles.into_iter().enumerate() {
        match handle.wait() {
            Ok(report) => reports.push(report),
            Err(err) => Tracer::global().emit(
                "node-shard-failed",
                format!("{}[{}]", deployment.group, deployment.shards[j]),
                format!("hosted shard failed: {err}"),
            ),
        }
    }
    for shipper in shippers {
        shipper.stop();
    }
    for mirror in mirrors {
        let _ = mirror.join();
    }
    drain_until_closed(lingering);
    Ok(reports)
}

/// Lingering close of a served connection. Every sender is gone by now — the
/// goodbye is written, the write side shut — but the client's own goodbye may
/// still sit unread in the socket, and closing a socket with unread input resets
/// the connection: the reset discards whatever return frames the client has not
/// read yet, which it then reports as a link closed before its end-of-stream
/// marker. Reading to the client's end-of-file first makes the close orderly;
/// the deadline bounds what a client that never closes can cost the node.
fn drain_until_closed(mut stream: TcpStream) {
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut discard = [0u8; 512];
    while std::time::Instant::now() < deadline {
        match stream.read(&mut discard) {
            Ok(0) => break,
            Ok(_) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

/// Runs a node's accept loop: every connection is served to completion with
/// [`serve_node_connection`], sequentially. `max_deployments` bounds how many
/// connections are served before returning (`None` = forever) — the `--once`
/// flag of the `spe-node` binary. Deployments that ask for checkpointing
/// persist into `state_dir` when one is given, and every opened store is
/// registered on `stores`.
///
/// # Errors
/// Fails if the listener breaks. Per-connection handshake errors are traced
/// and skipped; a node outlives a misbehaving client.
pub fn run_node(
    listener: TcpListener,
    registry: &Arc<MetricsRegistry>,
    network: NetworkConfig,
    max_deployments: Option<usize>,
    state_dir: Option<&Path>,
    stores: &NodeStores,
) -> io::Result<()> {
    for (served, stream) in listener.incoming().enumerate() {
        match stream.and_then(|s| serve_node_connection(s, registry, network, state_dir, stores)) {
            Ok(_) => {}
            Err(err) => {
                Tracer::global().emit("node-connection-failed", "spe-node", err.to_string());
            }
        }
        if max_deployments.is_some_and(|max| served + 1 >= max) {
            break;
        }
    }
    Ok(())
}

fn dial(addr: SocketAddr, config: &NetworkConfig) -> io::Result<TcpStream> {
    let mut backoff = config.reconnect_backoff;
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect_timeout(&addr, config.connect_timeout) {
            Ok(stream) => return Ok(stream),
            Err(err) if attempt >= config.reconnect_attempts => return Err(err),
            Err(_) => {
                attempt += 1;
                std::thread::sleep(backoff);
                backoff = backoff.checked_mul(2).unwrap_or(backoff);
            }
        }
    }
}

fn client_error(err: impl std::fmt::Display) -> SpeError {
    SpeError::Runtime {
        operator: "spe-node-client".into(),
        message: err.to_string(),
    }
}

/// Dials the `spe-node` processes of a distributed GeneaLog shard group and
/// returns the same [`GlShardGroup`] the in-process builder produces: the
/// placements (in global shard order) for `LogicalStream::place`, the group
/// handle for metrics streaming, and the per-shard provenance links
/// for [`logical_shard_provenance_sink`](crate::deployment::logical_shard_provenance_sink).
///
/// `nodes` maps each node address to the global shard indices it hosts; the
/// lists must partition `0..total_shards` of `deployment_for(node)`. The
/// deployment sent to node `n` is `template` with its `shards` replaced by
/// `n`'s list. Calling [`RemoteShardGroup::wait`] on the result joins no local
/// engines (they run in the node processes) but drains the metrics pumps.
///
/// # Errors
/// Fails when a node cannot be reached within the configured
/// connect/reconnect budget, rejects the handshake, or the shard lists do not
/// partition the group.
pub fn connect_gl_node_group(
    template: &NodeDeployment,
    nodes: &[(SocketAddr, Vec<u32>)],
    network: NetworkConfig,
) -> Result<GlShardGroup<NodeReading, NodeReading>, SpeError> {
    let total = template.total_shards as usize;
    let mut seen = vec![false; total];
    for (_, shards) in nodes {
        for &g in shards {
            let slot = seen
                .get_mut(g as usize)
                .ok_or_else(|| client_error(format!("shard {g} out of range")))?;
            if std::mem::replace(slot, true) {
                return Err(client_error(format!("shard {g} assigned twice")));
            }
        }
    }
    if seen.iter().any(|hosted| !hosted) {
        return Err(client_error(format!(
            "the node shard lists must partition 0..{total}"
        )));
    }

    // The origin's end of every shard, slotted by global shard index.
    let mut ends: Vec<Option<_>> = (0..total).map(|_| None).collect();
    for (addr, shards) in nodes {
        let k = shards.len();
        let deployment = NodeDeployment {
            shards: shards.clone(),
            ..template.clone()
        };
        let mut stream = dial(*addr, &network).map_err(client_error)?;
        apply_socket_options(&stream, &network).map_err(client_error)?;
        write_frame(&mut stream, &deployment.to_bytes()).map_err(client_error)?;
        match read_frame(&mut stream).map_err(client_error)? {
            ReadOutcome::Frame(ack) if ack == ACK => {}
            ReadOutcome::Frame(_) => {
                return Err(client_error(format!("node {addr} sent a malformed ack")))
            }
            ReadOutcome::Goodbye => {
                return Err(client_error(format!(
                    "node {addr} closed during the handshake"
                )))
            }
        }
        let (tx, forward_stats) =
            TcpSender::from_stream(stream.try_clone().map_err(client_error)?, None, network);
        let rx = TcpReceiver::from_stream(stream, None, network);
        let back_stats = Arc::new(LinkStats::default());
        // Client → node: one sender per hosted shard (the receivers go unused).
        let (forward_txs, _unused_rxs) =
            SharedLink::over(k, tx, NullSource, Arc::clone(&back_stats));
        // Node → client: one return link's worth of channels per hosted shard
        // (the senders go unused).
        let (_unused_txs, back_rxs) =
            SharedLink::over(RETURN_CHANNELS * k, NullSink, rx, Arc::clone(&back_stats));
        let mut back_rxs = back_rxs
            .into_iter()
            .map(|rx| Box::new(rx) as Box<dyn FrameSource>);
        for (&g, forward_tx) in shards.iter().zip(forward_txs) {
            let links = ShardLinks {
                forward: Arc::clone(&forward_stats),
                back: Arc::clone(&back_stats),
            };
            ends[g as usize] = Some((forward_tx, ReturnChannels::take(&mut back_rxs), links));
        }
    }

    let mut group = RemoteShardGroup::default();
    let placements = ends
        .into_iter()
        .map(|end| {
            let (forward_tx, back, links) = end.expect("partition checked");
            group.attach_shard(&template.group, total, forward_tx, back, links)
        })
        .collect();
    Ok(GlShardGroup::from((placements, group)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_deployments_round_trip_on_the_wire() {
        let deployment = NodeDeployment {
            group: "sum".into(),
            shards: vec![0, 2],
            total_shards: 3,
            first_instance: 1,
            fusion: true,
            op: ShardOpSpec::FilteredScaledSum {
                size_ms: 8_000,
                slide_ms: 4_000,
            },
            checkpoint_interval: Some(5),
            restore_epoch: Some(3),
        };
        let decoded = NodeDeployment::from_bytes(&deployment.to_bytes()).expect("decode");
        assert_eq!(decoded, deployment);
    }

    #[test]
    fn corrupt_node_deployments_are_rejected() {
        let deployment = NodeDeployment {
            group: "sum".into(),
            shards: vec![0],
            total_shards: 1,
            first_instance: 1,
            fusion: false,
            op: ShardOpSpec::SumAggregate {
                size_ms: 1_000,
                slide_ms: 1_000,
            },
            checkpoint_interval: None,
            restore_epoch: None,
        };
        let bytes = deployment.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                NodeDeployment::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // Out-of-range shard indices and unknown op tags are semantic errors.
        let out_of_range = NodeDeployment {
            shards: vec![5],
            ..deployment.clone()
        };
        assert!(NodeDeployment::from_bytes(&out_of_range.to_bytes()).is_err());
        let mut bad_op = deployment.to_bytes();
        // u8 op tag + two u64 op fields + the two encoded-None option bytes.
        let op_tag_at = bad_op.len() - 19;
        bad_op[op_tag_at] = 9;
        assert!(NodeDeployment::from_bytes(&bad_op).is_err());
        // A zero checkpoint interval and a restore epoch without checkpointing
        // are semantic errors too.
        let zero_interval = NodeDeployment {
            checkpoint_interval: Some(0),
            ..deployment.clone()
        };
        assert!(NodeDeployment::from_bytes(&zero_interval.to_bytes()).is_err());
        let orphan_restore = NodeDeployment {
            restore_epoch: Some(2),
            ..deployment.clone()
        };
        assert!(NodeDeployment::from_bytes(&orphan_restore.to_bytes()).is_err());
    }
}
