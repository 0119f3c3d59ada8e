//! # genealog-spe — a deterministic, lightweight stream processing engine
//!
//! This crate is the *substrate* of the GeneaLog reproduction: a small stream
//! processing engine (SPE) in the spirit of [Liebre], the engine the original paper
//! builds on. It provides the standard streaming operators of the paper's §2
//! (Source, Map, Filter, Multiplex, Union, Aggregate, Join, Sink), deterministic
//! timestamp-ordered processing, sliding time windows, a typed query-builder API and
//! a thread-per-operator runtime with bounded, back-pressured channels. Stateful
//! operators can additionally run as N key-partitioned shard instances (the
//! [`parallel`] module: shuffle exchange → shards → provenance-safe fan-in) without
//! changing results or provenance.
//!
//! The engine deliberately knows nothing about *how* provenance metadata is
//! represented. Instead it exposes the [`provenance::ProvenanceSystem`] extension
//! point: every tuple is a [`tuple::GTuple<T, M>`] whose `M` metadata is produced by
//! the provenance system's hook exactly where the paper instruments the corresponding
//! operator. The `genealog` crate implements the paper's fixed-size metadata on top of
//! this hook; the `genealog-baseline` crate implements the Ariadne-style
//! variable-length annotations used as the evaluation baseline; [`provenance::NoProvenance`]
//! is the zero-cost "NP" configuration.
//!
//! ## Quick example
//!
//! ```rust
//! use genealog_spe::prelude::*;
//!
//! # fn main() -> Result<(), SpeError> {
//! // A query that doubles even numbers, with no provenance tracking.
//! let mut q = Query::new(NoProvenance);
//! let numbers = q.source("numbers", VecSource::with_period((0..100i64).collect(), 1_000));
//! let evens = q.filter("evens", numbers, |x| x % 2 == 0);
//! let doubled = q.map_one("double", evens, |x| x * 2);
//! let out = q.collecting_sink("out", doubled);
//! q.deploy()?.wait()?;
//! assert_eq!(out.tuples().len(), 50);
//! # Ok(())
//! # }
//! ```
//!
//! [Liebre]: https://github.com/vincenzo-gulisano/Liebre

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod error;
pub mod fusion;
pub mod logical;
pub mod merge;
pub mod metrics;
pub mod operator;
pub mod parallel;
pub mod persist;
pub mod planner;
pub mod provenance;
pub mod query;
pub mod queue;
pub(crate) mod reclaim;
pub mod runtime;
pub mod state;
pub mod time;
pub mod tuple;
pub mod window;

/// Convenience re-exports of the types needed to build and run queries.
pub mod prelude {
    pub use crate::channel::{Batch, BatchConfig};
    pub use crate::error::SpeError;
    pub use crate::logical::{Analyzed, LogicalPlan, LogicalStream};
    pub use crate::operator::aggregate::WindowView;
    pub use crate::operator::sink::CollectedStream;
    pub use crate::operator::source::{RateLimit, SourceConfig, SourceGenerator, VecSource};
    pub use crate::parallel::Parallelism;
    pub use crate::planner::{AnalysisMode, PlannerConfig};
    pub use crate::provenance::{MetaData, NoProvenance, ProvenanceSystem};
    pub use crate::query::{Query, QueryConfig, StreamRef};
    pub use crate::runtime::{QueryHandle, QueryReport};
    pub use crate::state::{
        run_with_recovery, CheckpointConfig, CheckpointStore, InMemoryBackend, RecoveryConfig,
        Snapshot, StateBackend,
    };
    pub use crate::time::{Duration, Timestamp};
    pub use crate::tuple::{Element, GTuple, TupleData, TupleId};
    pub use crate::window::WindowSpec;
}

pub use channel::{Batch, BatchConfig};
pub use error::SpeError;
pub use logical::{Analyzed, LogicalPlan, LogicalStream};
pub use parallel::Parallelism;
pub use planner::{AnalysisMode, PlannerConfig};
pub use provenance::{NoProvenance, ProvenanceSystem};
pub use query::{Query, QueryConfig, StreamRef};
pub use runtime::{QueryHandle, QueryReport};
pub use state::{
    run_with_recovery, CheckpointConfig, CheckpointHandle, CheckpointStore, InMemoryBackend,
    RecoveryConfig, Snapshot, StateBackend,
};
pub use time::{Duration, Timestamp};
pub use tuple::{Element, GTuple, TupleData, TupleId};
pub use window::WindowSpec;
