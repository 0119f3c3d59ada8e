//! GeneaLog's fixed-size per-tuple meta-attributes (§4 of the paper).
//!
//! Every tuple processed by a GeneaLog-instrumented query carries a [`GlMeta`] with:
//!
//! * `T` ([`OpKind`]) — which operator *created* the tuple (`SOURCE`, `MAP`,
//!   `MULTIPLEX`, `JOIN`, `AGGREGATE` or `REMOTE`; forwarding operators such as Filter
//!   and Union never create tuples and therefore have no kind).
//! * `U1`, `U2` — references to the input tuples contributing to this tuple.
//! * `N` — the chain pointer set by the Aggregate to link the tuples of a window.
//! * `ID` — the unique tuple identifier used for inter-process provenance (§6).
//!
//! In the paper these are raw memory pointers whose reachability is managed by the
//! host process' garbage collector; here they are `Arc` references
//! ([`ProvRef`] = `Arc<dyn ProvNode>`), which gives the same property: a tuple stays
//! alive exactly as long as something downstream still references it, and is reclaimed
//! once nothing does (challenge C2).
//!
//! *Which thread* reclaims it is the engine's choice. When a sink is the last holder
//! of a tuple with upstream pointers ([`GeneaLog`](crate::GeneaLog)'s
//! `owns_graph`), it hands the tuple to the query's running Sources, and one of them
//! drops the whole graph — a closed window's source and map tuples — on its own
//! thread, which allocated those nodes. With no Source running (a query headed by a
//! Receive, or a window that closes at the end of the stream) the sink drops it in
//! place.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

use genealog_spe::codec::{CodecError, Decode, Encode, Reader};
use genealog_spe::tuple::{GTuple, TupleData, TupleId};
use genealog_spe::Timestamp;

/// The operator kind that created a tuple (the paper's meta-attribute `T`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Created by a Source: a source tuple, leaf of every contribution graph.
    Source = 0,
    /// Created by a Map.
    Map = 1,
    /// Created by a Multiplex.
    Multiplex = 2,
    /// Created by a Join.
    Join = 3,
    /// Created by an Aggregate.
    Aggregate = 4,
    /// Materialised by a Receive operator after crossing a process boundary; the
    /// traversal stops here and inter-process provenance resumes at the sending
    /// instance (§6).
    Remote = 5,
}

/// The discriminant is the kind's one-byte tag on the wire and on disk.
impl Encode for OpKind {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u8).encode(out);
    }
}

impl Decode for OpKind {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, CodecError> {
        use OpKind::*;
        let tag = u8::decode(reader)?;
        [Source, Map, Multiplex, Join, Aggregate, Remote]
            .into_iter()
            .find(|kind| *kind as u8 == tag)
            .ok_or(CodecError::Tag {
                what: "OpKind",
                tag,
            })
    }
}

impl OpKind {
    /// True for the kinds at which the contribution-graph traversal terminates.
    pub fn is_terminal(self) -> bool {
        matches!(self, OpKind::Source | OpKind::Remote)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpKind::Source => "SOURCE",
            OpKind::Map => "MAP",
            OpKind::Multiplex => "MULTIPLEX",
            OpKind::Join => "JOIN",
            OpKind::Aggregate => "AGGREGATE",
            OpKind::Remote => "REMOTE",
        };
        f.write_str(s)
    }
}

/// A reference to a tuple participating in a contribution graph.
pub type ProvRef = Arc<dyn ProvNode>;

/// The view of a tuple needed to traverse contribution graphs.
///
/// Implemented by `GTuple<T, GlMeta>` for every payload type `T`, so tuples of
/// *different schemas* (source reports, intermediate aggregates, alerts) can be linked
/// into one graph behind `Arc<dyn ProvNode>` references.
pub trait ProvNode: Send + Sync + fmt::Debug + 'static {
    /// The operator kind that created this tuple (meta-attribute `T`).
    fn kind(&self) -> OpKind;
    /// The tuple's logical timestamp.
    fn ts(&self) -> Timestamp;
    /// The tuple's stimulus (the wall-clock origin used for latency tracking).
    fn stimulus(&self) -> u64;
    /// The tuple's unique identifier (meta-attribute `ID`, §6).
    fn id(&self) -> TupleId;
    /// Upstream pointer `U1` (latest contributing tuple / Map input / Join's recent
    /// side), borrowed: clone it only to keep the target past this tuple.
    fn u1_ref(&self) -> Option<&ProvRef>;
    /// Upstream pointer `U2` (earliest window tuple / Join's older side), borrowed.
    fn u2_ref(&self) -> Option<&ProvRef>;
    /// Chain pointer `N` (next tuple of the same aggregate window), borrowed.
    fn next_ref(&self) -> Option<&ProvRef>;
    /// Detaches and returns `N`, leaving it unset. Needs exclusive access, so only
    /// the last owner of a tuple can call it: [`GlMeta`]'s `Drop` does, to take a
    /// chain apart link by link instead of recursing down it.
    fn take_next(&mut self) -> Option<ProvRef>;
    /// The tuple payload, type-erased (downcast with the `ProvNode` payload helpers).
    fn payload_any(&self) -> &(dyn Any + Send + Sync);
    /// Debug rendering of the payload, used when writing provenance to disk or logs.
    fn render(&self) -> String;

    /// Convenience: downcasts the payload to a concrete source schema.
    fn payload_as<S: TupleData>(&self) -> Option<&S>
    where
        Self: Sized,
    {
        self.payload_any().downcast_ref::<S>()
    }
}

impl dyn ProvNode {
    /// Downcasts the payload of a type-erased node to a concrete schema.
    pub fn payload<S: TupleData>(&self) -> Option<&S> {
        self.payload_any().downcast_ref::<S>()
    }
}

/// The `N` chain pointer: set after tuple creation by the instrumented Aggregate, so it
/// needs interior mutability inside the shared tuple.
///
/// The pointer is a lock-free *once-settable* cell. Within one aggregate group the
/// successor of a tuple in the `N` chain is always the next tuple of the same group in
/// timestamp order, so overlapping sliding windows only ever re-set a pointer to the
/// value it already holds; the first write wins and later identical writes are no-ops.
/// Readers ([`NextPointer::get_ref`], traversals on the hot path) never block.
#[derive(Default)]
pub struct NextPointer {
    cell: OnceLock<ProvRef>,
}

impl NextPointer {
    /// Creates an unset pointer.
    pub fn new() -> Self {
        NextPointer {
            cell: OnceLock::new(),
        }
    }

    /// Sets the pointer. The first write wins; subsequent writes (overlapping sliding
    /// windows legitimately re-chain a tuple to the same successor) are ignored.
    pub fn set(&self, next: ProvRef) {
        let _ = self.cell.set(next);
    }

    /// Borrowed view of the pointer (lock-free, no reference-count traffic).
    pub fn get_ref(&self) -> Option<&ProvRef> {
        self.cell.get()
    }

    /// Whether the pointer has been set.
    pub fn is_set(&self) -> bool {
        self.cell.get().is_some()
    }
}

impl fmt::Debug for NextPointer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NextPointer({})",
            if self.is_set() { "set" } else { "unset" }
        )
    }
}

/// GeneaLog's per-tuple metadata: the four meta-attributes of §4 plus the tuple id of §6.
///
/// The size of this struct is independent of how many source tuples contribute to the
/// tuple — the paper's challenge C1 — in contrast to the variable-length annotation
/// vector of the Ariadne-style baseline.
pub struct GlMeta {
    /// Meta-attribute `T`: the operator kind that created the tuple.
    pub kind: OpKind,
    /// Meta-attribute `ID`: unique tuple identifier (used for inter-process provenance).
    pub id: TupleId,
    /// Meta-attribute `U1`.
    pub u1: Option<ProvRef>,
    /// Meta-attribute `U2`.
    pub u2: Option<ProvRef>,
    /// Meta-attribute `N`.
    pub next: NextPointer,
}

impl GlMeta {
    /// Metadata for a tuple with no upstream pointers (source or remote tuples).
    pub fn leaf(kind: OpKind, id: TupleId) -> Self {
        GlMeta {
            kind,
            id,
            u1: None,
            u2: None,
            next: NextPointer::new(),
        }
    }

    /// Metadata for a tuple created from a single input (Map, Multiplex).
    pub fn unary(kind: OpKind, id: TupleId, u1: ProvRef) -> Self {
        GlMeta {
            kind,
            id,
            u1: Some(u1),
            u2: None,
            next: NextPointer::new(),
        }
    }

    /// Metadata for a tuple created from two inputs (Join) or a window (Aggregate).
    pub fn binary(kind: OpKind, id: TupleId, u1: ProvRef, u2: ProvRef) -> Self {
        GlMeta {
            kind,
            id,
            u1: Some(u1),
            u2: Some(u2),
            next: NextPointer::new(),
        }
    }

    /// Clone for a checkpoint restore: kind, id and the `U1`/`U2` back-pointers are
    /// preserved (they reference the part of the provenance graph that was frozen
    /// before the checkpoint barrier), but the `N` cell comes back **unset**.
    ///
    /// `N` is the only meta-attribute written after tuple creation — the aggregate
    /// chains a window's tuples when the window closes. A restored tuple sits in a
    /// window that had *not* closed at the checkpoint cut, so its `N` must be free
    /// for the recovered run's own window-close to claim; carrying over a value the
    /// failed run may have written after the cut would stitch the restored lineage
    /// into the abandoned run's graph.
    pub fn detach(&self) -> Self {
        GlMeta {
            kind: self.kind,
            id: self.id,
            u1: self.u1.clone(),
            u2: self.u2.clone(),
            next: NextPointer::new(),
        }
    }
}

/// Releases the `N` chain iteratively.
///
/// The default drop glue frees `N`'s target, whose own glue frees *its* `N`, and so
/// on: one stack frame per tuple of an aggregate window. The last holder of a large
/// window (a sink dropping an output tuple, a purge) would overflow its thread's
/// stack — a process abort, past any `catch_unwind`. Instead, walk the chain: while
/// the successor has no other owner, take over *its* successor before letting it go,
/// so every node is freed with `N` already empty. The walk stops at the first node
/// somebody else still references; that owner keeps the rest alive.
///
/// For a closed window this runs on a Source's thread while one is running: the
/// sink that holds the window's output last retires it to the Source, which
/// allocated the window's tuples, so the frees stay in that thread's allocator
/// arena instead of contending for its lock from the sink. Otherwise it runs
/// wherever the last holder lets go.
impl Drop for GlMeta {
    fn drop(&mut self) {
        let mut next = self.next.cell.take();
        while let Some(mut node) = next {
            next = Arc::get_mut(&mut node).and_then(|last_owner| last_owner.take_next());
        }
    }
}

impl fmt::Debug for GlMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlMeta")
            .field("kind", &self.kind)
            .field("id", &self.id)
            .field("u1", &self.u1.as_ref().map(|t| t.id()))
            .field("u2", &self.u2.as_ref().map(|t| t.id()))
            .field("next", &self.next)
            .finish()
    }
}

impl<T: TupleData> ProvNode for GTuple<T, GlMeta> {
    fn kind(&self) -> OpKind {
        self.meta.kind
    }

    fn ts(&self) -> Timestamp {
        self.ts
    }

    fn stimulus(&self) -> u64 {
        self.stimulus
    }

    fn id(&self) -> TupleId {
        self.meta.id
    }

    fn u1_ref(&self) -> Option<&ProvRef> {
        self.meta.u1.as_ref()
    }

    fn u2_ref(&self) -> Option<&ProvRef> {
        self.meta.u2.as_ref()
    }

    fn next_ref(&self) -> Option<&ProvRef> {
        self.meta.next.get_ref()
    }

    fn take_next(&mut self) -> Option<ProvRef> {
        self.meta.next.cell.take()
    }

    fn payload_any(&self) -> &(dyn Any + Send + Sync) {
        &self.data
    }

    fn render(&self) -> String {
        format!("{:?}@{}", self.data, self.ts)
    }
}

/// Erases a concrete tuple reference into a [`ProvRef`].
pub fn erase<T: TupleData>(tuple: &Arc<GTuple<T, GlMeta>>) -> ProvRef {
    Arc::clone(tuple) as ProvRef
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_tuple(ts: u64, value: i64, seq: u64) -> Arc<GTuple<i64, GlMeta>> {
        Arc::new(GTuple::new(
            Timestamp::from_secs(ts),
            0,
            value,
            GlMeta::leaf(OpKind::Source, TupleId::new(0, seq)),
        ))
    }

    #[test]
    fn op_kind_terminality_and_display() {
        assert!(OpKind::Source.is_terminal());
        assert!(OpKind::Remote.is_terminal());
        assert!(!OpKind::Map.is_terminal());
        assert!(!OpKind::Aggregate.is_terminal());
        assert_eq!(OpKind::Aggregate.to_string(), "AGGREGATE");
        assert_eq!(OpKind::Multiplex.to_string(), "MULTIPLEX");
    }

    #[test]
    fn prov_node_exposes_tuple_fields() {
        let t = leaf_tuple(8, 42, 3);
        let node: ProvRef = erase(&t);
        assert_eq!(node.kind(), OpKind::Source);
        assert_eq!(node.ts(), Timestamp::from_secs(8));
        assert_eq!(node.id(), TupleId::new(0, 3));
        assert!(node.u1_ref().is_none());
        assert!(node.u2_ref().is_none());
        assert!(node.next_ref().is_none());
        assert_eq!(node.payload::<i64>(), Some(&42));
        assert!(node.payload::<String>().is_none());
        assert!(node.render().contains("42"));
    }

    #[test]
    fn unary_and_binary_constructors_set_pointers() {
        let a = leaf_tuple(1, 1, 0);
        let b = leaf_tuple(2, 2, 1);
        let unary = GlMeta::unary(OpKind::Map, TupleId::new(1, 0), erase(&a));
        assert!(unary.u1.is_some());
        assert!(unary.u2.is_none());
        let binary = GlMeta::binary(OpKind::Join, TupleId::new(1, 1), erase(&b), erase(&a));
        assert_eq!(binary.u1.as_ref().unwrap().id(), TupleId::new(0, 1));
        assert_eq!(binary.u2.as_ref().unwrap().id(), TupleId::new(0, 0));
    }

    #[test]
    fn next_pointer_is_settable_after_creation() {
        let a = leaf_tuple(1, 1, 0);
        let b = leaf_tuple(2, 2, 1);
        assert!(!a.meta.next.is_set());
        a.meta.next.set(erase(&b));
        assert!(a.meta.next.is_set());
        assert_eq!(a.meta.next.get_ref().unwrap().id(), b.meta.id);
        // Re-setting (overlapping windows) is allowed.
        a.meta.next.set(erase(&b));
        assert_eq!(a.meta.next.get_ref().unwrap().id(), b.meta.id);
    }

    #[test]
    fn arc_references_keep_contributing_tuples_alive() {
        let source = leaf_tuple(1, 7, 0);
        let weak = Arc::downgrade(&source);
        let derived = Arc::new(GTuple::new(
            Timestamp::from_secs(2),
            0,
            "alert".to_string(),
            GlMeta::unary(OpKind::Map, TupleId::new(1, 0), erase(&source)),
        ));
        drop(source);
        // Still alive: the derived tuple references it.
        assert!(weak.upgrade().is_some());
        drop(derived);
        // Reclaimed as soon as nothing references it (challenge C2).
        assert!(weak.upgrade().is_none());
    }

    #[test]
    fn gl_meta_debug_is_shallow() {
        let a = leaf_tuple(1, 1, 0);
        let m = GlMeta::unary(OpKind::Map, TupleId::new(1, 5), erase(&a));
        let dbg = format!("{m:?}");
        assert!(dbg.contains("Map"));
        assert!(dbg.contains(&format!("{:?}", TupleId::new(1, 5))));
    }

    #[test]
    fn gl_meta_is_fixed_size() {
        // The metadata footprint must not depend on the number of contributing source
        // tuples (challenge C1). Pinned exactly, as the baseline a node-layout change
        // is measured against:
        //   id   `TupleId` (u32 origin + u64 seq, 4 padding)          16
        //   u1   `Option<Arc<dyn ProvNode>>` (fat pointer, niche)       16
        //   u2   the same                                               16
        //   next `OnceLock<Arc<dyn ProvNode>>` (u32 state + 4 padding)  24
        //   kind `OpKind` (one byte, padded to the 8-byte alignment)     8
        assert_eq!(std::mem::size_of::<GlMeta>(), 80);
        // A chain-node tuple: ts 8 + stimulus 8 + payload `(u32, i64)` 16 + meta 80.
        // Its `Arc` allocation adds the two 8-byte reference counts: 128 bytes.
        assert_eq!(std::mem::size_of::<GTuple<(u32, i64), GlMeta>>(), 112);
    }
}
