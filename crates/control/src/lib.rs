//! The embedded control endpoint of a running query: a minimal, dependency-free
//! HTTP/1.1 server over `std::net` exposing the live observability plane.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness probe, returns `ok`.
//! * `GET /metrics` — Prometheus text exposition of the query's
//!   [`MetricsRegistry`](genealog_metrics::MetricsRegistry), including the deltas
//!   shipped in by remote SPE instances of a spanning shard group.
//! * `GET /topology.dot` — the deployed query graph in DOT form (as rendered by
//!   [`genealog_analysis::dot::physical`] from `Query::plan_facts()` before
//!   deployment).
//! * `GET /provenance/{sink_tuple_id}` — the GeneaLog contribution set of one sink
//!   tuple of the running query, as JSON. Sink ids are `origin#seq` (URL-encode the
//!   `#` as `%23`) or the curl-friendly `origin-seq`.
//!
//! The server is deliberately tiny: blocking accept loop on its own thread, one
//! short-lived handler thread per connection, `Connection: close` on every
//! response. It exists to *observe* — it never mutates the query.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod http;
pub mod json;
mod server;

pub use server::{ControlPlane, ControlServer, ProvenanceQuery};
