//! # GeneaLog — fine-grained data streaming provenance at the edge
//!
//! This crate is the core contribution of the reproduction of *"GeneaLog: Fine-Grained
//! Data Streaming Provenance at the Edge"* (Palyvos-Giannas, Gulisano,
//! Papatriantafilou — Middleware '18): a provenance technique for deterministic
//! streaming queries that links every sink tuple (alert/event) back to the exact set
//! of source tuples that contributed to it, while adding only a **small, fixed-size**
//! amount of metadata per tuple and **without retaining non-contributing source
//! tuples**.
//!
//! ## How it works
//!
//! * Every tuple carries four meta-attributes ([`meta::GlMeta`]): its creating operator
//!   kind `T`, two upstream pointers `U1`/`U2` and a chain pointer `N` (§4 of the
//!   paper), plus the unique tuple id used for inter-process provenance (§6).
//! * The instrumented operators ([`system::GeneaLog`], plugged into the engine through
//!   [`genealog_spe::provenance::ProvenanceSystem`]) set the meta-attributes exactly
//!   as in §4.1: Map/Multiplex point `U1` at their input, Join points `U1`/`U2` at the
//!   matched pair, Aggregate points `U2`/`U1` at the earliest/latest window tuple and
//!   chains the window through `N`; Filter and Union forward tuples untouched.
//! * [`traversal::find_provenance`] walks the resulting contribution graph
//!   (the paper's Listing 1) from any tuple back to its originating `SOURCE` (or
//!   `REMOTE`) tuples.
//! * The single-stream unfolder ([`unfolder::attach_unfolder`], §5) and the
//!   multi-stream unfolder ([`unfolder::attach_multi_unfolder`], §6, one stitch
//!   fan-in: [`unfolder::attach_stitch`]) express the provenance pipeline itself
//!   with standard streaming operators, so provenance capture can be deployed and
//!   distributed like any other part of the query.
//!
//! Because the upstream pointers are `Arc` references, a source tuple stays in memory
//! exactly as long as some in-flight or sink tuple still (transitively) references it;
//! the moment nothing does, it is reclaimed — the paper's challenge C2.
//!
//! ## Quick example
//!
//! ```rust
//! use genealog::prelude::*;
//!
//! # fn main() -> Result<(), SpeError> {
//! // Detect "two consecutive readings above 100" and trace each alert to its inputs.
//! let mut q = GlQuery::new(GeneaLog::new());
//! let readings = q.source(
//!     "readings",
//!     VecSource::with_period(vec![10i64, 120, 130, 5, 140, 150], 30_000),
//! );
//! let high = q.filter("high", readings, |v| *v > 100);
//! let pairs = q.aggregate(
//!     "pairs",
//!     high,
//!     WindowSpec::new(Duration::from_secs(60), Duration::from_secs(30))?,
//!     |_| 0u8,
//!     |w| w.len(),
//! );
//! let alerts = q.filter("alerts", pairs, |count| *count >= 2);
//! let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
//! q.discard(out);
//! q.deploy()?.wait()?;
//!
//! for assignment in provenance.assignments() {
//!     let inputs: Vec<i64> = assignment.source_payloads::<i64>();
//!     assert!(inputs.iter().all(|v| *v > 100));
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meta;
pub mod persist;
pub mod sink;
pub mod system;
pub mod traversal;
pub mod unfolder;

/// Convenience re-exports for building provenance-enabled queries.
pub mod prelude {
    pub use crate::meta::{GlMeta, OpKind, ProvNode, ProvRef};
    pub use crate::sink::{
        attach_provenance_sink, logical_provenance_sink, ProvenanceAssignment, ProvenanceCollector,
    };
    pub use crate::system::GeneaLog;
    pub use crate::traversal::{find_provenance, find_provenance_with_stats, for_each_origin};
    pub use crate::unfolder::{
        attach_multi_unfolder, attach_stitch, attach_unfolder, LineageGroup, OriginRecord,
        SourceRecord, UnfoldedEvent, UnfoldedTuple, UpstreamEvent, UpstreamLineage,
    };
    pub use crate::{GlPlan, GlQuery};
    pub use genealog_spe::prelude::*;
}

pub use meta::{erase, GlMeta, OpKind, ProvNode, ProvRef};
pub use persist::GlWindowPersister;
pub use sink::{
    attach_provenance_sink, contribution_document, group_by_sink, logical_provenance_sink,
    ProvenanceAssignment, ProvenanceCollector,
};
pub use system::GeneaLog;
pub use traversal::{find_provenance, find_provenance_with_stats, for_each_origin, TraversalStats};
pub use unfolder::{
    attach_multi_unfolder, attach_stitch, attach_unfolder, LineageGroup, LineageRef, OriginRecord,
    SourceRecord, UnfoldedEvent, UnfoldedTuple, UpstreamEvent, UpstreamLineage,
};

/// A query instrumented with GeneaLog provenance.
pub type GlQuery = genealog_spe::Query<GeneaLog>;

/// A declarative logical plan instrumented with GeneaLog provenance (lowered to a
/// [`GlQuery`] by the planner).
pub type GlPlan = genealog_spe::LogicalPlan<GeneaLog>;
