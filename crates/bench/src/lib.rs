//! # genealog-bench — harness support for the evaluation benchmarks
//!
//! The benchmark binaries (`benches/fig12_intra.rs`, `benches/fig13_inter.rs`,
//! `benches/fig14_traversal.rs`) reproduce the figures of the paper's §7. This library hosts the shared harness code: single-process run
//! functions for the NP/GL/BL configurations of each query, the instrumented
//! (traversal-timed) provenance unfolder, the memory-sampling loop and the
//! `Q4Relay` wrapper that lets Q4's two intermediate streams share one
//! instance-to-instance link in the distributed deployments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod q4relay;

pub use harness::{run_intra, BenchWorkloads, IntraConfig, IntraResult, QueryId, SystemUnderTest};
pub use q4relay::{q4_relay_stage1, q4_relay_stage2, Q4Relay};
