//! The standard streaming operators of the paper's §2.
//!
//! Every operator is a part of a chain ([`crate::fusion`]): *head → stages → one
//! tail*, on one thread.
//!
//! * A Source ([`source`]) is a head: its loop drives what follows it.
//! * Union, Join and the shard merge are *fan-in* heads: one loop ([`crate::merge`])
//!   merges their inputs in timestamp order and aligns their barriers, and each
//!   supplies only its rule — hooks for a released tuple, a watermark, an aligned
//!   barrier and the end, which forward by default ([`union`] overrides nothing but
//!   the release).
//! * Filter, Map and Aggregate are [`FusedStage`]s — [`filter::FilterStage`],
//!   [`map::MapStage`] and the stateful
//!   [`aggregate`] stage — composed behind the head, one stage per chain when
//!   fusion is off.
//! * Sink ([`sink`]), Multiplex ([`multiplex`]) and the shuffle exchange
//!   ([`crate::parallel`]) are [`Tail`]s: each seals the chain feeding it, owns its
//!   outputs and is built on the chain's thread from its node name and ledger row.
//!
//! The runtime spawns only chains ([`FusedOp`](crate::fusion::FusedOp)), one thread
//! each. Wherever an operator creates a tuple it calls the matching hook of the
//! query's [`ProvenanceSystem`](crate::provenance::ProvenanceSystem).
//!
//! An operator holds no counters of its own: each part of a chain is built from its
//! row of the operator ledger ([`crate::metrics`]), increments it and returns `()`.
//! What the parts counted is the runtime's to read and report.

pub mod aggregate;
pub mod filter;
pub mod join;
pub mod map;
pub mod multiplex;
pub mod sink;
pub mod source;
pub mod union;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::channel::ChannelClosed;
use crate::fusion::Tail;
use crate::provenance::MetaData;
use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData};

/// Tuple counts of one operator, as the runtime reports them after the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Operator name (unique within a query).
    pub name: String,
    /// Number of input tuples processed.
    pub tuples_in: u64,
    /// Number of output tuples produced.
    pub tuples_out: u64,
}

impl OperatorStats {
    /// Creates a statistics record for the named operator.
    pub fn new(name: impl Into<String>) -> Self {
        OperatorStats {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Folds another operator's counters into this record (used by the runtime to
    /// aggregate the per-shard statistics of a parallel operator into one report).
    pub fn absorb(&mut self, other: &OperatorStats) {
        self.tuples_in += other.tuples_in;
        self.tuples_out += other.tuples_out;
    }
}

/// A single-input/single-output processing step that the physical-plan fusion pass
/// ([`crate::fusion`]) composes with the parts around it into one thread.
///
/// Filter, Map and the meta-aware Map are stateless stages; the Aggregate is a
/// stage that holds its windows. A stage receives one input tuple and hands zero or
/// more output tuples to the rest of its chain. When fusion is enabled
/// ([`QueryConfig::fusion`](crate::query::QueryConfig)) the query builder chains
/// consecutive stages so that a tuple flows through all of them in a single call
/// stack — no intermediate channel, batch buffer or thread hand-off. When fusion is
/// disabled every stage still runs through the same pump, just as a chain of length
/// one, so fused and unfused plans execute identical per-tuple code.
///
/// The non-tuple elements reach a stage through hooks that forward by default,
/// which is the entire checkpoint protocol of a stateless stage. A stateful stage
/// overrides them: it closes what a watermark completes, commits its snapshot before
/// it forwards a barrier, and flushes at the end. Fusion is provenance-transparent
/// because a stage either forwards the input `Arc` (Filter) or calls the exact
/// provenance hook the standalone operator would call (Map, Aggregate), so GeneaLog
/// metadata is byte-identical whether or not the plan is fused.
pub trait FusedStage<I: TupleData, O: TupleData, M: MetaData>: Send + 'static {
    /// Processes one input tuple, handing each output tuple to `next.tuple`.
    ///
    /// # Errors
    /// Propagates [`ChannelClosed`] from `next` so the chain can shut down
    /// gracefully when the downstream consumer has gone away.
    fn process(
        &mut self,
        tuple: Arc<GTuple<I, M>>,
        next: &mut dyn Tail<O, M>,
    ) -> Result<(), ChannelClosed>;

    /// Takes a watermark; forwards it by default.
    ///
    /// # Errors
    /// Propagates [`ChannelClosed`] from `next`.
    fn watermark(&mut self, ts: Timestamp, next: &mut dyn Tail<O, M>) -> Result<(), ChannelClosed> {
        next.watermark(ts)
    }

    /// Takes an epoch barrier; forwards it by default.
    ///
    /// # Errors
    /// Propagates [`ChannelClosed`] from `next`.
    fn barrier(&mut self, epoch: u64, next: &mut dyn Tail<O, M>) -> Result<(), ChannelClosed> {
        next.barrier(epoch)
    }

    /// The input has ended; ends the rest of the chain by default.
    fn end(&mut self, next: &mut dyn Tail<O, M>) {
        next.end();
    }
}

/// Process-wide monotonic clock anchor used for stimulus/latency measurement.
fn clock_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds elapsed since the process-wide clock anchor.
///
/// Source operators stamp new tuples with this value (the *stimulus*); sinks subtract
/// it from the current value to obtain the latency metric of the evaluation (§7).
pub fn now_nanos() -> u64 {
    clock_anchor().elapsed().as_nanos() as u64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    use crate::fusion::FusedOp;
    use crate::metrics::OpCounters;

    /// Runs a chain outside a query, on this thread, and reads back what it counted
    /// into a detached ledger row — the way the runtime reads a deployed one.
    pub(crate) fn run_bare(op: FusedOp) -> OperatorStats {
        let counters = OpCounters::detached(op.name());
        let name = counters.name().to_string();
        op.run(counters.clone()).expect("chain runs to the end");
        OperatorStats {
            name,
            tuples_in: counters.tuples_in(),
            tuples_out: counters.tuples_out(),
        }
    }

    #[test]
    fn now_nanos_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn operator_stats_constructor() {
        let s = OperatorStats::new("filter");
        assert_eq!(s.name, "filter");
        assert_eq!(s.tuples_in, 0);
        assert_eq!(s.tuples_out, 0);
    }
}
