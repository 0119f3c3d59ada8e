//! The provenance extension point of the engine.
//!
//! The paper instruments the standard operators of its host SPE so that each
//! tuple-creating operator fills in the fixed-size meta-attributes `T`, `U1`, `U2`
//! and `N` (§4.1). In this reproduction the engine itself stays provenance-agnostic:
//! every operator calls the corresponding hook of the query's [`ProvenanceSystem`]
//! exactly where the paper's instrumentation sits.
//!
//! Three implementations exist in the workspace:
//!
//! * [`NoProvenance`] (this module) — the "NP" configuration of the evaluation:
//!   metadata is the unit type, all hooks compile to nothing.
//! * `genealog::GeneaLog` — the paper's contribution ("GL"): fixed-size metadata with
//!   reference-counted pointers to contributing tuples.
//! * `genealog_baseline::AriadneBaseline` — the state-of-the-art baseline ("BL"):
//!   variable-length annotations listing contributing source-tuple ids, plus a store
//!   retaining every source tuple.

use std::fmt;
use std::sync::Arc;

use crate::time::Timestamp;
use crate::tuple::{GTuple, TupleData, TupleId};

/// Marker bound for provenance metadata attached to tuples.
pub trait MetaData: Send + Sync + fmt::Debug + 'static {}
impl<M: Send + Sync + fmt::Debug + 'static> MetaData for M {}

/// Context handed to [`ProvenanceSystem::source_meta`] when a Source creates a tuple.
#[derive(Debug, Clone, Copy)]
pub struct SourceContext {
    /// Unique id (within the query deployment) of the Source operator.
    pub source_id: u32,
    /// Sequence number of the tuple within this Source.
    pub seq: u64,
    /// Logical timestamp of the new source tuple.
    pub ts: Timestamp,
}

impl SourceContext {
    /// The [`TupleId`] the paper's §6 assigns to the tuple (`origin` + counter).
    pub fn tuple_id(&self) -> TupleId {
        TupleId::new(self.source_id, self.seq)
    }
}

/// Context handed to [`ProvenanceSystem::remote_meta`] when a Receive operator
/// materialises a tuple that crossed a process boundary.
#[derive(Debug, Clone)]
pub struct RemoteContext {
    /// The unique id the tuple carried in the sending SPE instance.
    pub id: TupleId,
    /// Logical timestamp of the tuple.
    pub ts: Timestamp,
    /// Whether the tuple was a *source* tuple in the sending instance (the paper's
    /// Send operator keeps `T = SOURCE` for source tuples and sets `REMOTE` otherwise).
    pub was_source: bool,
}

/// The instrumentation hook: one method per tuple-creating operator of §4.1.
///
/// A provenance system is instantiated once per query and cloned into every operator,
/// so implementations carrying shared state (e.g. the baseline's source store) should
/// wrap it in `Arc`.
pub trait ProvenanceSystem: Clone + Send + Sync + 'static {
    /// The per-tuple metadata representation (the paper's meta-attributes).
    type Meta: MetaData;

    /// Short human-readable name ("NP", "GL", "BL", ...), used in reports.
    fn label(&self) -> &'static str;

    /// Metadata for a tuple created by a Source (`T = SOURCE`, no pointers).
    fn source_meta<T: TupleData>(&self, ctx: &SourceContext, data: &T) -> Self::Meta;

    /// Metadata for a tuple created by a Map from `input` (`T = MAP`, `U1 = input`).
    fn map_meta<I: TupleData>(&self, input: &Arc<GTuple<I, Self::Meta>>) -> Self::Meta;

    /// Metadata for a copy created by a Multiplex from `input`
    /// (`T = MULTIPLEX`, `U1 = input`).
    fn multiplex_meta<I: TupleData>(&self, input: &Arc<GTuple<I, Self::Meta>>) -> Self::Meta;

    /// Metadata for a tuple created by a Join from the matched pair
    /// (`T = JOIN`, `U1` = the more recent input, `U2` = the older one).
    fn join_meta<L: TupleData, R: TupleData>(
        &self,
        left: &Arc<GTuple<L, Self::Meta>>,
        right: &Arc<GTuple<R, Self::Meta>>,
    ) -> Self::Meta;

    /// Metadata for a tuple created by an Aggregate over `window` (earliest tuple
    /// first). Besides returning the output metadata (`T = AGGREGATE`, `U1` = latest,
    /// `U2` = earliest), implementations may link the window tuples through their `N`
    /// pointers, as the paper's instrumented Aggregate does.
    fn aggregate_meta<I: TupleData>(&self, window: &[Arc<GTuple<I, Self::Meta>>]) -> Self::Meta;

    /// Metadata for a tuple materialised by a Receive operator after crossing a
    /// process boundary (`T` stays `SOURCE` for forwarded source tuples and becomes
    /// `REMOTE` otherwise).
    fn remote_meta(&self, ctx: &RemoteContext) -> Self::Meta;

    /// Clones metadata for a checkpoint *restore* (see [`crate::state`]).
    ///
    /// Restored tuples re-enter live operator state (window buffers), so any
    /// metadata cell the provenance system mutates *after* tuple creation (GeneaLog's
    /// `N` pointer, written when a window closes) must come back **unset**: the
    /// recovered run will re-write it when its own windows close, and a stale value
    /// from the failed run would corrupt the re-stitched lineage. Immutable fields
    /// (kind, id, `U1`/`U2` back-pointers into the already-frozen part of the
    /// provenance graph) are cloned as-is.
    fn detach_meta(&self, meta: &Self::Meta) -> Self::Meta;

    /// Whether a tuple carrying `meta` holds upstream tuples alive through it — a
    /// contribution graph that its last holder frees. A sink that is the last holder
    /// of such a tuple hands it to a running Source to drop on the thread that
    /// allocated the graph (the engine's `reclaim` module); a tuple without one is
    /// dropped where it is. No graph by default.
    #[inline]
    fn owns_graph(_meta: &Self::Meta) -> bool {
        false
    }
}

/// Clones a buffered tuple for a checkpoint restore: same timestamp, stimulus and
/// payload, metadata detached through [`ProvenanceSystem::detach_meta`].
pub fn detach_tuple<T: TupleData, P: ProvenanceSystem>(
    provenance: &P,
    tuple: &Arc<GTuple<T, P::Meta>>,
) -> Arc<GTuple<T, P::Meta>> {
    Arc::new(GTuple::new(
        tuple.ts,
        tuple.stimulus,
        tuple.data.clone(),
        provenance.detach_meta(&tuple.meta),
    ))
}

/// The "NP" (no provenance) configuration: metadata is `()`, every hook is a no-op.
///
/// Queries deployed with `NoProvenance` pay no metadata cost at all, which makes this
/// the reference point of the evaluation's overhead measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProvenance;

impl ProvenanceSystem for NoProvenance {
    type Meta = ();

    fn label(&self) -> &'static str {
        "NP"
    }

    #[inline]
    fn source_meta<T: TupleData>(&self, _ctx: &SourceContext, _data: &T) -> Self::Meta {}

    #[inline]
    fn map_meta<I: TupleData>(&self, _input: &Arc<GTuple<I, Self::Meta>>) -> Self::Meta {}

    #[inline]
    fn multiplex_meta<I: TupleData>(&self, _input: &Arc<GTuple<I, Self::Meta>>) -> Self::Meta {}

    #[inline]
    fn join_meta<L: TupleData, R: TupleData>(
        &self,
        _left: &Arc<GTuple<L, Self::Meta>>,
        _right: &Arc<GTuple<R, Self::Meta>>,
    ) -> Self::Meta {
    }

    #[inline]
    fn aggregate_meta<I: TupleData>(&self, _window: &[Arc<GTuple<I, Self::Meta>>]) -> Self::Meta {}

    #[inline]
    fn remote_meta(&self, _ctx: &RemoteContext) -> Self::Meta {}

    #[inline]
    fn detach_meta(&self, _meta: &Self::Meta) -> Self::Meta {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    #[test]
    fn source_context_builds_paper_style_ids() {
        let ctx = SourceContext {
            source_id: 3,
            seq: 17,
            ts: Timestamp::from_secs(1),
        };
        assert_eq!(ctx.tuple_id(), TupleId::new(3, 17));
    }

    #[test]
    fn no_provenance_hooks_return_unit() {
        let np = NoProvenance;
        assert_eq!(np.label(), "NP");
        let ctx = SourceContext {
            source_id: 0,
            seq: 0,
            ts: Timestamp::MIN,
        };
        np.source_meta(&ctx, &42i64);
        let t = Arc::new(GTuple::new(Timestamp::MIN, 0, 1i64, ()));
        np.map_meta(&t);
        np.multiplex_meta(&t);
        np.join_meta(&t, &t);
        np.aggregate_meta(std::slice::from_ref(&t));
        np.remote_meta(&RemoteContext {
            id: TupleId::new(0, 0),
            ts: Timestamp::MIN,
            was_source: true,
        });
    }

    #[test]
    fn no_provenance_meta_is_zero_sized() {
        assert_eq!(
            std::mem::size_of::<<NoProvenance as ProvenanceSystem>::Meta>(),
            0
        );
    }
}
