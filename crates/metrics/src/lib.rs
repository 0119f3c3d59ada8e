//! # genealog-metrics — measurement infrastructure for the evaluation
//!
//! The paper's evaluation (§7) reports four metrics per query and configuration:
//! throughput (source tuples per second), latency (time between the latest
//! contributing source tuple and the sink tuple), memory footprint (average and
//! maximum) and the contribution-graph traversal time. This crate provides the
//! measurement machinery the benchmark harnesses use to reproduce those figures:
//!
//! * [`alloc::TrackingAllocator`] — a counting [`core::alloc::GlobalAlloc`] wrapper
//!   reporting live/peak heap bytes (the substitute for the JVM heap measurements of
//!   the original testbed).
//! * [`recorder`] — traversal-time and memory-sample recorders.
//! * [`stats`] — means, standard deviations, 95 % confidence intervals, percentiles.
//! * [`report`] — figure-style tables (rows of NP/GL/BL per query) and CSV output.
//!
//! Since PR 7 the crate also hosts the **live observability plane**:
//!
//! * [`registry`] — the lock-free, shard-aware [`MetricsRegistry`] of counters,
//!   gauges and log-scale latency histograms that operators publish into while a
//!   query runs, with Prometheus text exposition and the fold of remote SPE
//!   instances' samples into one surface.
//! * [`trace`] — the ring-buffer event [`Tracer`] with pluggable subscribers that
//!   replaces ad-hoc `eprintln!` warnings.

// `alloc::TrackingAllocator` implements `GlobalAlloc`, which is inherently unsafe;
// everything else in the crate is forbidden from using unsafe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod stats;
pub mod trace;

pub use alloc::TrackingAllocator;
pub use recorder::{MemorySampler, TraversalRecorder};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Sample, SampleValue,
};
pub use report::{FigureTable, MetricCell, RunMeasurement};
pub use stats::Summary;
pub use trace::{CountingSubscriber, TraceEvent, TraceSubscriber, Tracer};
