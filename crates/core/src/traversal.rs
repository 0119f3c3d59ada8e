//! Traversal of the contribution graph (the paper's Listing 1).
//!
//! Starting from any tuple, [`find_provenance`] performs a breadth-first search over
//! the `U1`/`U2`/`N` pointers and returns the *originating* tuples (Definition 4.1):
//! tuples of kind `SOURCE` or `REMOTE`. Inside a single SPE instance all originating
//! tuples are `SOURCE` tuples, which is exactly the fine-grained provenance of the
//! sink tuple; `REMOTE` tuples appear only in distributed deployments and are resolved
//! by the multi-stream unfolder of §6.
//!
//! This is Listing 1 walked through borrowed references: every node reachable from
//! the root stays alive as long as the root does, so the queue holds `&ProvRef`s
//! and a visit touches no reference count. [`for_each_origin`] hands each origin to
//! a callback, also borrowed; [`find_provenance`] clones the `Arc` of each origin it
//! returns and of nothing else. The visited set holds node addresses only.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use crate::meta::{OpKind, ProvRef};

/// Statistics of one contribution-graph traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Number of graph nodes visited (originating and intermediate).
    pub nodes_visited: usize,
    /// Number of originating tuples returned.
    pub originating: usize,
}

/// Hashes a node address with one multiply, folding the high half of the 128-bit
/// product into the low one so that the low bits (the table index) depend on every
/// address bit, not only on the low ones an allocator's alignment leaves at zero.
#[derive(Default)]
struct AddressHasher(u64);

impl Hasher for AddressHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only node addresses are hashed");
    }

    fn write_usize(&mut self, address: usize) {
        let product = u128::from(address as u64) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The visited set: addresses of the nodes a walk has reached.
type AddressSet = HashSet<usize, BuildHasherDefault<AddressHasher>>;

fn address(node: &ProvRef) -> usize {
    // Identity of the referenced tuple: the address of its allocation.
    std::sync::Arc::as_ptr(node) as *const () as usize
}

/// Calls `f` with every originating tuple of `root`, in breadth-first order, and
/// returns the traversal statistics.
///
/// This is Listing 1:
///
/// * `SOURCE` / `REMOTE` nodes are passed to `f`;
/// * `MAP` / `MULTIPLEX` nodes enqueue their `U1` pointer;
/// * `JOIN` nodes enqueue `U1` and `U2`;
/// * `AGGREGATE` nodes enqueue `U2`, then follow the `N` chain up to (and including)
///   `U1`, enqueueing every window tuple on the way.
///
/// The origins are borrowed for as long as `root` is, so `f` may keep them without
/// cloning. `f` may itself walk another graph.
pub fn for_each_origin<'a>(root: &'a ProvRef, mut f: impl FnMut(&'a ProvRef)) -> TraversalStats {
    // Breadth-first: `queue[head..]` is the frontier, `queue[..head]` the nodes
    // already visited.
    let mut queue = Vec::new();
    let mut visited = AddressSet::default();
    let mut enqueue = |node: &'a ProvRef, queue: &mut Vec<&'a ProvRef>| {
        if visited.insert(address(node)) {
            queue.push(node);
        }
    };
    enqueue(root, &mut queue);
    let mut head = 0;
    let mut stats = TraversalStats::default();
    while let Some(&tuple) = queue.get(head) {
        head += 1;
        match tuple.kind() {
            OpKind::Source | OpKind::Remote => {
                stats.originating += 1;
                f(tuple);
            }
            OpKind::Map | OpKind::Multiplex => {
                if let Some(u1) = tuple.u1_ref() {
                    enqueue(u1, &mut queue);
                }
            }
            OpKind::Join => {
                if let Some(u1) = tuple.u1_ref() {
                    enqueue(u1, &mut queue);
                }
                if let Some(u2) = tuple.u2_ref() {
                    enqueue(u2, &mut queue);
                }
            }
            OpKind::Aggregate => {
                let u1 = tuple.u1_ref();
                let u1_address = u1.map(address);
                if let Some(u2) = tuple.u2_ref() {
                    enqueue(u2, &mut queue);
                    // Walk the N chain from U2 towards U1 (exclusive); U1 itself is
                    // enqueued afterwards, mirroring Listing 1.
                    //
                    // A single-tuple window has U1 == U2 and the walk must not start
                    // at all: the tuple's N pointer — once a later overlapping window
                    // of the same group sets it — leads *past* this window's U1, and
                    // following it would (racily, depending on whether that window
                    // has closed yet) drag unrelated later tuples into the result.
                    let mut cursor = if Some(address(u2)) == u1_address {
                        None
                    } else {
                        u2.next_ref()
                    };
                    while let Some(temp) = cursor {
                        if Some(address(temp)) == u1_address {
                            break;
                        }
                        enqueue(temp, &mut queue);
                        cursor = temp.next_ref();
                    }
                }
                if let Some(u1) = u1 {
                    enqueue(u1, &mut queue);
                }
            }
        }
    }
    stats.nodes_visited = head;
    stats
}

/// Finds the originating tuples of `root`, returning them in breadth-first order
/// together with traversal statistics (see [`for_each_origin`]).
pub fn find_provenance_with_stats(root: &ProvRef) -> (Vec<ProvRef>, TraversalStats) {
    let mut origins = Vec::new();
    let stats = for_each_origin(root, |origin| origins.push(origin.clone()));
    (origins, stats)
}

/// Finds the originating tuples of `root` (see [`find_provenance_with_stats`]).
pub fn find_provenance(root: &ProvRef) -> Vec<ProvRef> {
    find_provenance_with_stats(root).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{erase, GlMeta, OpKind};
    use crate::system::GeneaLog;
    use genealog_spe::provenance::{ProvenanceSystem, SourceContext};
    use genealog_spe::tuple::{GTuple, TupleId};
    use genealog_spe::Timestamp;
    use std::sync::Arc;

    type Tup<T> = Arc<GTuple<T, GlMeta>>;

    fn gl() -> GeneaLog {
        GeneaLog::new()
    }

    fn source(gl: &GeneaLog, ts: u64, v: i64) -> Tup<i64> {
        let ctx = SourceContext {
            source_id: 0,
            seq: 0,
            ts: Timestamp::from_secs(ts),
        };
        let meta = gl.source_meta(&ctx, &v);
        Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, meta))
    }

    fn map_of(gl: &GeneaLog, input: &Tup<i64>, v: i64) -> Tup<i64> {
        Arc::new(GTuple::new(input.ts, 0, v, gl.map_meta(input)))
    }

    fn aggregate_of(gl: &GeneaLog, window: &[Tup<i64>], v: i64) -> Tup<i64> {
        Arc::new(GTuple::new(window[0].ts, 0, v, gl.aggregate_meta(window)))
    }

    fn join_of(gl: &GeneaLog, l: &Tup<i64>, r: &Tup<i64>, v: i64) -> Tup<i64> {
        Arc::new(GTuple::new(l.ts.max(r.ts), 0, v, gl.join_meta(l, r)))
    }

    fn ids(provenance: &[ProvRef]) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = provenance.iter().map(|p| p.id()).collect();
        ids.sort();
        ids
    }

    #[test]
    fn source_tuple_is_its_own_provenance() {
        let gl = gl();
        let s = source(&gl, 1, 10);
        let (prov, stats) = find_provenance_with_stats(&erase(&s));
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].id(), s.meta.id);
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.originating, 1);
    }

    #[test]
    fn map_chain_traverses_to_the_source() {
        let gl = gl();
        let s = source(&gl, 1, 10);
        let m1 = map_of(&gl, &s, 20);
        let m2 = map_of(&gl, &m1, 40);
        let prov = find_provenance(&erase(&m2));
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].id(), s.meta.id);
        assert_eq!(prov[0].payload::<i64>(), Some(&10));
    }

    #[test]
    fn aggregate_traversal_returns_every_window_tuple() {
        // Mirrors Figure 4: four position reports of the same car aggregate into one
        // output tuple.
        let gl = gl();
        let window: Vec<_> = (0..4).map(|i| source(&gl, 1 + 30 * i, i as i64)).collect();
        let agg = aggregate_of(&gl, &window, 4);
        let prov = find_provenance(&erase(&agg));
        assert_eq!(prov.len(), 4);
        assert_eq!(
            ids(&prov),
            ids(&window.iter().map(erase).collect::<Vec<_>>())
        );
    }

    #[test]
    fn aggregate_over_single_tuple_window() {
        let gl = gl();
        let window = vec![source(&gl, 30, 9)];
        let agg = aggregate_of(&gl, &window, 1);
        let prov = find_provenance(&erase(&agg));
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].id(), window[0].meta.id);
    }

    #[test]
    fn join_traversal_returns_both_sides() {
        let gl = gl();
        let l = source(&gl, 10, 1);
        let r = source(&gl, 20, 2);
        let j = join_of(&gl, &l, &r, 3);
        let prov = find_provenance(&erase(&j));
        assert_eq!(prov.len(), 2);
    }

    #[test]
    fn diamond_graphs_do_not_duplicate_sources() {
        // One source feeds a multiplex whose two copies are joined back together:
        // the source must be reported exactly once.
        let gl = gl();
        let s = source(&gl, 5, 50);
        let copy_a = Arc::new(GTuple::new(s.ts, 0, 50i64, gl.multiplex_meta(&s)));
        let copy_b = Arc::new(GTuple::new(s.ts, 0, 50i64, gl.multiplex_meta(&s)));
        let j = join_of(&gl, &copy_a, &copy_b, 100);
        let prov = find_provenance(&erase(&j));
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].id(), s.meta.id);
    }

    #[test]
    fn nested_aggregates_flatten_to_all_sources() {
        // Sources -> aggregate per pair -> aggregate of aggregates (like Q3's two
        // aggregation stages).
        let gl = gl();
        let sources: Vec<_> = (0..6).map(|i| source(&gl, 10 * i, i as i64)).collect();
        let level1: Vec<_> = sources
            .chunks(2)
            .map(|pair| aggregate_of(&gl, pair, 0))
            .collect();
        let level2 = aggregate_of(&gl, &level1, 0);
        let prov = find_provenance(&erase(&level2));
        assert_eq!(prov.len(), 6);
        assert_eq!(
            ids(&prov),
            ids(&sources.iter().map(erase).collect::<Vec<_>>())
        );
    }

    #[test]
    fn remote_tuples_terminate_the_traversal() {
        let gl = gl();
        let remote_meta = GlMeta::leaf(OpKind::Remote, TupleId::new(9, 1));
        let remote: Tup<i64> = Arc::new(GTuple::new(Timestamp::from_secs(1), 0, 77, remote_meta));
        let m = map_of(&gl, &remote, 78);
        let prov = find_provenance(&erase(&m));
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].kind(), OpKind::Remote);
        assert_eq!(prov[0].id(), TupleId::new(9, 1));
    }

    #[test]
    fn mixed_query_shape_matches_figure_2() {
        // Figure 1/2: Filter (no new tuple) -> Aggregate over 4 reports -> Filter.
        // The sink tuple's provenance is exactly the 4 reports of car `a`.
        let gl = gl();
        let reports: Vec<_> = (0..4).map(|i| source(&gl, 1 + 30 * i, 0)).collect();
        let other_car = source(&gl, 2, 55);
        let agg = aggregate_of(&gl, &reports, 4);
        // Filters forward `agg` unchanged, so the sink tuple *is* `agg`.
        let prov = find_provenance(&erase(&agg));
        assert_eq!(prov.len(), 4);
        assert!(!prov.iter().any(|p| p.id() == other_car.meta.id));
    }

    #[test]
    fn traversal_stats_count_intermediate_nodes() {
        let gl = gl();
        let s = source(&gl, 1, 1);
        let m1 = map_of(&gl, &s, 2);
        let m2 = map_of(&gl, &m1, 3);
        let (_, stats) = find_provenance_with_stats(&erase(&m2));
        // Visited: m2, m1, s.
        assert_eq!(stats.nodes_visited, 3);
        assert_eq!(stats.originating, 1);
    }

    #[test]
    fn overlapping_windows_traverse_correctly_after_n_pointer_reuse() {
        // Two sliding windows over the same group share tuples; the second window
        // extends the N chain. Traversing the first window's output must still stop at
        // its own U1 and return only its own tuples.
        let gl = gl();
        let tuples: Vec<_> = (0..5).map(|i| source(&gl, 30 * i, i as i64)).collect();
        let window1 = &tuples[0..4];
        let window2 = &tuples[1..5];
        let out1 = aggregate_of(&gl, window1, 0);
        let out2 = aggregate_of(&gl, window2, 0);
        let prov1 = find_provenance(&erase(&out1));
        let prov2 = find_provenance(&erase(&out2));
        assert_eq!(prov1.len(), 4);
        assert_eq!(prov2.len(), 4);
        assert_eq!(
            ids(&prov1),
            ids(&window1.iter().map(erase).collect::<Vec<_>>())
        );
        assert_eq!(
            ids(&prov2),
            ids(&window2.iter().map(erase).collect::<Vec<_>>())
        );
    }

    #[test]
    fn single_tuple_window_ignores_chain_pointers_of_later_windows() {
        // Regression: a window holding one tuple has U1 == U2. Once a later
        // overlapping window of the same group sets that tuple's N pointer, the
        // traversal of the single-tuple window's output must NOT follow the chain —
        // previously it walked past U1 and returned the later window's tuples too
        // (racily, depending on whether the later window had closed yet).
        let gl = gl();
        let alone = source(&gl, 60, 1);
        let later_a = source(&gl, 67, 2);
        let later_b = source(&gl, 69, 3);
        let single = aggregate_of(&gl, std::slice::from_ref(&alone), 0);
        // The next overlapping window [60, 68) chains `alone` to `later_a`.
        let _overlap = aggregate_of(&gl, &[alone.clone(), later_a.clone()], 0);
        let _overlap2 = aggregate_of(&gl, &[later_a, later_b], 0);
        let prov = find_provenance(&erase(&single));
        assert_eq!(prov.len(), 1, "only the window's own tuple contributes");
        assert_eq!(prov[0].id(), alone.meta.id);
    }

    #[test]
    fn large_graph_traversal_terminates() {
        // Q3-sized graphs: ~192 source tuples behind two aggregation levels.
        let gl = gl();
        let sources: Vec<_> = (0..192).map(|i| source(&gl, i, i as i64)).collect();
        let daily: Vec<_> = sources
            .chunks(24)
            .map(|day| aggregate_of(&gl, day, 0))
            .collect();
        let alert = aggregate_of(&gl, &daily, 0);
        let (prov, stats) = find_provenance_with_stats(&erase(&alert));
        assert_eq!(prov.len(), 192);
        assert!(stats.nodes_visited > 192 + 8);
    }

    #[test]
    fn for_each_origin_borrows_the_origins_find_provenance_returns() {
        let gl = gl();
        let sources: Vec<_> = (0..6).map(|i| source(&gl, 10 * i, i as i64)).collect();
        let level1: Vec<_> = sources
            .chunks(3)
            .map(|three| aggregate_of(&gl, three, 0))
            .collect();
        let root = erase(&join_of(&gl, &level1[0], &level1[1], 0));
        let mut borrowed: Vec<&ProvRef> = Vec::new();
        let stats = for_each_origin(&root, |origin| borrowed.push(origin));
        let (owned, owned_stats) = find_provenance_with_stats(&root);
        assert_eq!(stats, owned_stats);
        assert_eq!(borrowed.len(), owned.len());
        assert!(borrowed.iter().zip(&owned).all(|(b, o)| Arc::ptr_eq(b, o)));
    }

    #[test]
    fn a_callback_may_walk_another_graph() {
        let gl = gl();
        let window: Vec<_> = (0..4).map(|i| source(&gl, i, i as i64)).collect();
        let outer = erase(&aggregate_of(&gl, &window, 0));
        let other: Vec<_> = (0..3).map(|i| source(&gl, 10 + i, 0)).collect();
        let inner = erase(&aggregate_of(&gl, &other, 0));
        let mut inner_ids = Vec::new();
        let stats = for_each_origin(&outer, |_| inner_ids.push(ids(&find_provenance(&inner))));
        assert_eq!(stats.originating, 4);
        let expected = ids(&other.iter().map(erase).collect::<Vec<_>>());
        assert_eq!(inner_ids, vec![expected; 4]);
    }
}
