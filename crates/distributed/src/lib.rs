//! # genealog-distributed — inter-process provenance deployments (§6)
//!
//! The paper's inter-process evaluation runs every query on three Odroid boards
//! connected by a 100 Mbps switch: two boards process the data, the third receives and
//! persists the provenance stream. This crate reproduces that setup with three *SPE
//! instances* — independent engine runtimes that share no memory — connected by a
//! byte-level wire protocol over a simulated network link:
//!
//! * [`wire`] — tuples crossing an instance boundary are serialised, so no `Arc`
//!   (and therefore no GeneaLog pointer) survives the crossing, exactly the
//!   constraint §6 starts from. The bytes are written by the engine's one value
//!   codec, [`genealog_spe::codec`] — the same `Encode`/`Decode` pair and
//!   bounds-checked reader behind window-state containers and store records; this
//!   module re-exports them under the names [`wire::WireEncode`] /
//!   [`wire::WireDecode`]. A payload type becomes shippable (and durable) with one
//!   `genealog_spe::impl_codec_struct!` line next to its definition.
//! * [`network`] — [`network::SimulatedLink`]: a byte pipe with configurable bandwidth
//!   and propagation latency plus per-link byte/frame counters (used to compare how
//!   much GL and BL ship over the network).
//! * [`endpoint`] — the Send and Receive operators of §2; Receive re-materialises
//!   tuples and tags them through the provenance system's `remote_meta` hook (`REMOTE`
//!   kind, or `SOURCE` for forwarded source tuples).
//! * [`deployment`] — the three-instance deployments of Figures 7, 9C, 10C and 11C for
//!   Q1–Q4 under NP, GL and BL, wiring the single-stream unfolders on instances 1–2
//!   and the multi-stream unfolder on instance 3 — plus the **distributed shard
//!   group** builder [`deployment::remote_shard_group_over`], which spans a
//!   key-partitioned operator's Partition exchange across SPE instances for any
//!   provenance system over any [`deployment::ShardTransport`], with the provenance
//!   stitched back together by [`deployment::logical_shard_provenance_sink`].
//! * [`fault`] — controlled failure injection: [`fault::FaultyTransport`] decorates
//!   a shard transport with dropped, duplicated, delayed and severed frames
//!   ([`fault::FaultySender`], [`fault::LinkFaults`]), plus [`fault::FaultPlan`] and
//!   the fire-once triggers the recovery tests use to arm a fault on the first
//!   attempt only.
//! * [`tcp`] — a real TCP transport behind the same [`network::FrameSink`] /
//!   [`network::FrameSource`] traits: length-delimited frames, connect-with-backoff
//!   and bounded reconnect on broken pipes. Swapping it for the simulated link via
//!   [`deployment::ShardTransport`] changes no bytes on the wire above the framing
//!   layer.
//! * [`node`] — the `spe-node` worker protocol: a process that accepts a serialised
//!   remote-shard deployment over a socket and hosts the shards of one group —
//!   wired by the same per-instance function as the in-process builder — shipping
//!   results, provenance and metrics back over the multiplexed connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deployment;
pub mod endpoint;
pub mod fault;
pub mod network;
pub mod node;
pub mod tcp;
pub mod wire;

pub use deployment::{
    deploy_distributed_baseline, deploy_distributed_genealog, deploy_distributed_noprov,
    group_provenance, logical_shard_provenance_sink, remote_shard_group_gl_over,
    remote_shard_group_over, DistributedOutcome, GlShardGroup, ProvenanceRecord, RemoteShardGroup,
    ShardGroupDeployment, ShardLinks, ShardProvenanceCollector, ShardTransport, ShardWiring,
    SimulatedTransport,
};
pub use endpoint::{TupleFrameBuilder, WireFrame, WireProvenance, WireTag, WireTuple};
pub use fault::{FaultPlan, FaultySender, FaultyTransport, LinkFaults, OneShot};
pub use network::{
    FrameSink, FrameSource, LinkStats, MuxReceiver, MuxSender, NetworkConfig, SharedLink,
    SimulatedLink,
};
pub use node::{
    connect_gl_node_group, run_node, serve_node_connection, NodeDeployment, NodeReading,
    NodeStores, ShardOpSpec, ACK,
};
pub use tcp::{
    TcpLink, TcpLoopbackTransport, TcpReceiver, TcpSender, TcpSeverHandle, MAX_FRAME_BYTES,
};
pub use wire::{WireDecode, WireEncode, WireError, WireReader};
