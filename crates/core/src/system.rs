//! The GeneaLog provenance system: the instrumented operators of §4.1.
//!
//! [`GeneaLog`] implements the engine's
//! [`ProvenanceSystem`] extension point.
//! Each hook sets the fixed-size meta-attributes exactly as the paper prescribes:
//!
//! | operator  | `T`         | `U1`              | `U2`               | `N`                     |
//! |-----------|-------------|-------------------|--------------------|-------------------------|
//! | Source    | `SOURCE`    | —                 | —                  | —                       |
//! | Map       | `MAP`       | input             | —                  | —                       |
//! | Multiplex | `MULTIPLEX` | input             | —                  | —                       |
//! | Join      | `JOIN`      | more recent input | older input        | —                       |
//! | Aggregate | `AGGREGATE` | latest in window  | earliest in window | chains window tuples    |
//! | Receive   | `REMOTE`¹   | —                 | —                  | —                       |
//!
//! ¹ forwarded source tuples keep `SOURCE` across the process boundary, as the paper's
//! Send operator only rewrites `T` when it is not already `SOURCE`.
//!
//! Filter and Union forward existing tuples and therefore have no instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use genealog_spe::provenance::{ProvenanceSystem, RemoteContext, SourceContext};
use genealog_spe::tuple::{GTuple, TupleData, TupleId};

use crate::meta::{erase, GlMeta, OpKind};

/// The GeneaLog provenance system ("GL" in the evaluation).
///
/// Clone-cheap: all clones share the same id counter, so every tuple created inside
/// one SPE instance receives a unique [`TupleId`]. Use [`GeneaLog::for_instance`] to
/// give each SPE instance of a distributed deployment a distinct id namespace.
#[derive(Debug, Clone)]
pub struct GeneaLog {
    origin: u32,
    counter: Arc<AtomicU64>,
}

impl Default for GeneaLog {
    fn default() -> Self {
        Self::new()
    }
}

impl GeneaLog {
    /// Creates a provenance system for a single (or the first) SPE instance.
    pub fn new() -> Self {
        Self::for_instance(0)
    }

    /// Creates a provenance system whose tuple ids live in the namespace of the given
    /// SPE instance (used by distributed deployments, §6).
    pub fn for_instance(instance: u32) -> Self {
        GeneaLog {
            origin: instance,
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The instance id this system stamps into tuple ids.
    pub fn instance(&self) -> u32 {
        self.origin
    }

    /// Number of tuple ids handed out so far (i.e. number of tuples created).
    pub fn tuples_created(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    fn fresh_id(&self) -> TupleId {
        TupleId::new(self.origin, self.counter.fetch_add(1, Ordering::Relaxed))
    }
}

impl ProvenanceSystem for GeneaLog {
    type Meta = GlMeta;

    fn label(&self) -> &'static str {
        "GL"
    }

    fn source_meta<T: TupleData>(&self, _ctx: &SourceContext, _data: &T) -> GlMeta {
        GlMeta::leaf(OpKind::Source, self.fresh_id())
    }

    fn map_meta<I: TupleData>(&self, input: &Arc<GTuple<I, GlMeta>>) -> GlMeta {
        GlMeta::unary(OpKind::Map, self.fresh_id(), erase(input))
    }

    fn multiplex_meta<I: TupleData>(&self, input: &Arc<GTuple<I, GlMeta>>) -> GlMeta {
        GlMeta::unary(OpKind::Multiplex, self.fresh_id(), erase(input))
    }

    fn join_meta<L: TupleData, R: TupleData>(
        &self,
        left: &Arc<GTuple<L, GlMeta>>,
        right: &Arc<GTuple<R, GlMeta>>,
    ) -> GlMeta {
        // U1 is the more recent of the two contributing tuples, U2 the older one
        // (ties resolved towards the left input for determinism).
        let (recent, older) = if right.ts > left.ts {
            (erase(right), erase(left))
        } else {
            (erase(left), erase(right))
        };
        GlMeta::binary(OpKind::Join, self.fresh_id(), recent, older)
    }

    fn aggregate_meta<I: TupleData>(&self, window: &[Arc<GTuple<I, GlMeta>>]) -> GlMeta {
        assert!(
            !window.is_empty(),
            "aggregate windows that produce output are never empty"
        );
        // Chain the window tuples through their N pointers: t_i.N = t_{i+1}.
        for pair in window.windows(2) {
            pair[0].meta.next.set(erase(&pair[1]));
        }
        let earliest = erase(&window[0]);
        let latest = erase(&window[window.len() - 1]);
        GlMeta::binary(OpKind::Aggregate, self.fresh_id(), latest, earliest)
    }

    fn remote_meta(&self, ctx: &RemoteContext) -> GlMeta {
        // The paper's Send operator sets T to REMOTE only if it is not SOURCE, so
        // source tuples forwarded across processes keep their SOURCE kind.
        let kind = if ctx.was_source {
            OpKind::Source
        } else {
            OpKind::Remote
        };
        GlMeta::leaf(kind, ctx.id)
    }

    fn detach_meta(&self, meta: &GlMeta) -> GlMeta {
        meta.detach()
    }

    /// A tuple with an upstream pointer is the root of a contribution graph; a
    /// source or remote leaf has nothing behind it.
    fn owns_graph(meta: &GlMeta) -> bool {
        meta.u1.is_some() || meta.u2.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::Timestamp;

    fn source_tuple(gl: &GeneaLog, ts: u64, v: i64) -> Arc<GTuple<i64, GlMeta>> {
        let ctx = SourceContext {
            source_id: 0,
            seq: 0,
            ts: Timestamp::from_secs(ts),
        };
        let meta = gl.source_meta(&ctx, &v);
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, meta))
    }

    #[test]
    fn ids_are_unique_and_share_the_instance_namespace() {
        let gl = GeneaLog::for_instance(7);
        assert_eq!(gl.instance(), 7);
        let a = source_tuple(&gl, 1, 1);
        let gl2 = gl.clone();
        let b = source_tuple(&gl2, 2, 2);
        assert_eq!(a.meta.id.origin, 7);
        assert_eq!(b.meta.id.origin, 7);
        assert_ne!(a.meta.id, b.meta.id);
        assert_eq!(gl.tuples_created(), 2);
    }

    #[test]
    fn source_meta_has_no_pointers() {
        let gl = GeneaLog::new();
        let t = source_tuple(&gl, 1, 10);
        assert_eq!(t.meta.kind, OpKind::Source);
        assert!(t.meta.u1.is_none());
        assert!(t.meta.u2.is_none());
        assert!(!t.meta.next.is_set());
        assert!(
            !GeneaLog::owns_graph(&t.meta),
            "a leaf has nothing behind it"
        );
    }

    #[test]
    fn map_and_multiplex_point_u1_at_the_input() {
        let gl = GeneaLog::new();
        let input = source_tuple(&gl, 1, 10);
        let map_meta = gl.map_meta(&input);
        assert_eq!(map_meta.kind, OpKind::Map);
        assert_eq!(map_meta.u1.as_ref().unwrap().id(), input.meta.id);
        assert!(map_meta.u2.is_none());
        assert!(GeneaLog::owns_graph(&map_meta));
        let mux_meta = gl.multiplex_meta(&input);
        assert_eq!(mux_meta.kind, OpKind::Multiplex);
        assert_eq!(mux_meta.u1.as_ref().unwrap().id(), input.meta.id);
    }

    #[test]
    fn join_orders_u1_and_u2_by_recency() {
        let gl = GeneaLog::new();
        let older = source_tuple(&gl, 10, 1);
        let newer = source_tuple(&gl, 20, 2);
        // Left older, right newer.
        let meta = gl.join_meta(&older, &newer);
        assert_eq!(meta.kind, OpKind::Join);
        assert_eq!(meta.u1.as_ref().unwrap().ts(), Timestamp::from_secs(20));
        assert_eq!(meta.u2.as_ref().unwrap().ts(), Timestamp::from_secs(10));
        // Left newer, right older.
        let meta = gl.join_meta(&newer, &older);
        assert_eq!(meta.u1.as_ref().unwrap().ts(), Timestamp::from_secs(20));
        assert_eq!(meta.u2.as_ref().unwrap().ts(), Timestamp::from_secs(10));
        // Equal timestamps: the left input wins U1.
        let left = source_tuple(&gl, 30, 3);
        let right = source_tuple(&gl, 30, 4);
        let meta = gl.join_meta(&left, &right);
        assert_eq!(meta.u1.as_ref().unwrap().id(), left.meta.id);
    }

    #[test]
    fn aggregate_chains_the_window_and_points_at_its_ends() {
        let gl = GeneaLog::new();
        let window: Vec<_> = (0..4)
            .map(|i| source_tuple(&gl, 30 * (i + 1), i as i64))
            .collect();
        let meta = gl.aggregate_meta(&window);
        assert_eq!(meta.kind, OpKind::Aggregate);
        // U2 = earliest, U1 = latest.
        assert_eq!(meta.u2.as_ref().unwrap().id(), window[0].meta.id);
        assert_eq!(meta.u1.as_ref().unwrap().id(), window[3].meta.id);
        // N chain: w0 -> w1 -> w2 -> w3, last unset.
        for i in 0..3 {
            assert_eq!(
                window[i].meta.next.get_ref().unwrap().id(),
                window[i + 1].meta.id
            );
        }
        assert!(!window[3].meta.next.is_set());
    }

    /// The last holder of a closed window owns, through `U2` and the `N` chain, one
    /// tuple per window element; letting it go must not recurse once per element.
    /// A million-tuple one-key window, released on a default-sized thread like the
    /// ones the runtime gives its operators.
    #[test]
    fn dropping_the_last_holder_of_a_large_window_does_not_overflow_the_stack() {
        let gl = GeneaLog::new();
        let window: Vec<_> = (0..1_000_000u64)
            .map(|i| source_tuple(&gl, i, i as i64))
            .collect();
        let meta = gl.aggregate_meta(&window);
        let first = Arc::downgrade(&window[0]);
        let output = Arc::new(GTuple::new(Timestamp::from_secs(0), 0, 0i64, meta));
        drop(window);
        assert!(
            first.upgrade().is_some(),
            "the output keeps its window alive"
        );
        std::thread::Builder::new()
            .spawn(move || drop(output))
            .expect("spawns")
            .join()
            .expect("the drop returns");
        assert!(first.upgrade().is_none(), "and releases it when it goes");
    }

    #[test]
    fn single_tuple_window_has_u1_equal_u2() {
        let gl = GeneaLog::new();
        let window = vec![source_tuple(&gl, 30, 5)];
        let meta = gl.aggregate_meta(&window);
        assert_eq!(
            meta.u1.as_ref().unwrap().id(),
            meta.u2.as_ref().unwrap().id()
        );
        assert!(!window[0].meta.next.is_set());
    }

    #[test]
    fn remote_meta_keeps_source_kind_for_forwarded_source_tuples() {
        let gl = GeneaLog::new();
        let remote = gl.remote_meta(&RemoteContext {
            id: TupleId::new(3, 9),
            ts: Timestamp::from_secs(1),
            was_source: false,
        });
        assert_eq!(remote.kind, OpKind::Remote);
        assert_eq!(remote.id, TupleId::new(3, 9));
        let forwarded_source = gl.remote_meta(&RemoteContext {
            id: TupleId::new(3, 10),
            ts: Timestamp::from_secs(1),
            was_source: true,
        });
        assert_eq!(forwarded_source.kind, OpKind::Source);
    }

    #[test]
    fn label_is_gl() {
        assert_eq!(GeneaLog::new().label(), "GL");
    }
}
