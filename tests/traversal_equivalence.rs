//! The borrowed walk (`for_each_origin`, and `find_provenance` on top of it) against
//! Listing 1 as the paper writes it: over random contribution graphs, both return
//! the same originating tuples — the same allocations, in the same order — and the
//! same `TraversalStats`, from every node of the graph.
//!
//! The graphs mix Map and Multiplex chains, Joins (diamonds that reach one source
//! twice among them), nested Aggregates, overlapping sliding windows that share one
//! `N` chain, single-tuple windows whose `N` a later window has set, and REMOTE
//! leaves.

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use proptest::prelude::*;

use genealog::{
    erase, find_provenance_with_stats, for_each_origin, GeneaLog, GlMeta, OpKind, ProvRef,
    TraversalStats,
};
use genealog_spe::provenance::{ProvenanceSystem, SourceContext};
use genealog_spe::tuple::{GTuple, TupleId};
use genealog_spe::Timestamp;

type Tup = Arc<GTuple<i64, GlMeta>>;

fn node_key(node: &ProvRef) -> usize {
    Arc::as_ptr(node) as *const () as usize
}

fn enqueue_if_not_visited(
    node: &ProvRef,
    queue: &mut VecDeque<ProvRef>,
    visited: &mut HashSet<usize>,
) {
    if visited.insert(node_key(node)) {
        queue.push_back(node.clone());
    }
}

/// The oracle: Listing 1 transcribed with an owned queue, as the traversal was
/// written before it walked borrowed.
fn listing_1(root: &ProvRef) -> (Vec<ProvRef>, TraversalStats) {
    let mut result = Vec::new();
    let mut visited: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<ProvRef> = VecDeque::new();
    let mut stats = TraversalStats::default();

    visited.insert(node_key(root));
    queue.push_back(root.clone());

    while let Some(tuple) = queue.pop_front() {
        stats.nodes_visited += 1;
        match tuple.kind() {
            OpKind::Source | OpKind::Remote => result.push(tuple),
            OpKind::Map | OpKind::Multiplex => {
                if let Some(u1) = tuple.u1_ref() {
                    enqueue_if_not_visited(u1, &mut queue, &mut visited);
                }
            }
            OpKind::Join => {
                if let Some(u1) = tuple.u1_ref() {
                    enqueue_if_not_visited(u1, &mut queue, &mut visited);
                }
                if let Some(u2) = tuple.u2_ref() {
                    enqueue_if_not_visited(u2, &mut queue, &mut visited);
                }
            }
            OpKind::Aggregate => {
                let u1_key = tuple.u1_ref().map(node_key);
                if let Some(u2) = tuple.u2_ref() {
                    enqueue_if_not_visited(u2, &mut queue, &mut visited);
                    // A single-tuple window (U1 == U2) does not follow N.
                    let mut cursor = if Some(node_key(u2)) == u1_key {
                        None
                    } else {
                        u2.next_ref().cloned()
                    };
                    while let Some(temp) = cursor {
                        if Some(node_key(&temp)) == u1_key {
                            break;
                        }
                        let next = temp.next_ref().cloned();
                        enqueue_if_not_visited(&temp, &mut queue, &mut visited);
                        cursor = next;
                    }
                }
                if let Some(u1) = tuple.u1_ref() {
                    enqueue_if_not_visited(u1, &mut queue, &mut visited);
                }
            }
        }
    }
    stats.originating = result.len();
    (result, stats)
}

fn source(gl: &GeneaLog, ts: u64) -> Tup {
    let ctx = SourceContext {
        source_id: 0,
        seq: ts,
        ts: Timestamp::from_secs(ts),
    };
    let meta = gl.source_meta(&ctx, &0i64);
    Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, ts as i64, meta))
}

/// One step of a graph build: `(op, a, b, c)`, the operands picked modulo what
/// exists when the step runs.
type Step = (u8, usize, usize, usize);

/// Builds a graph from `steps`. Every tuple may join one of four aggregate groups,
/// appended in creation order; an Aggregate step closes a window over a contiguous
/// run of one group, so windows of a group overlap and share its `N` chain, as a
/// sliding window's do. A window of one tuple whose successor a later window chains
/// is the single-tuple-window case.
fn build(steps: &[Step]) -> Vec<Tup> {
    let gl = GeneaLog::new();
    let mut nodes: Vec<Tup> = Vec::new();
    let mut groups: Vec<Vec<Tup>> = vec![Vec::new(); 4];
    let mut grouped: HashSet<usize> = HashSet::new();
    let mut ts = 0u64;
    for &(op, a, b, c) in steps {
        ts += 1;
        let at = Timestamp::from_secs(ts);
        let made: Tup = match (op, nodes.len()) {
            (_, 0) | (0, _) => source(&gl, ts),
            (1, _) => {
                let meta = GlMeta::leaf(OpKind::Remote, TupleId::new(9, ts));
                Arc::new(GTuple::new(at, 0, 0, meta))
            }
            (2, n) => Arc::new(GTuple::new(at, 0, 0, gl.map_meta(&nodes[a % n]))),
            (3, n) => Arc::new(GTuple::new(at, 0, 0, gl.multiplex_meta(&nodes[a % n]))),
            (4, n) => {
                let meta = gl.join_meta(&nodes[a % n], &nodes[b % n]);
                Arc::new(GTuple::new(at, 0, 0, meta))
            }
            (5, n) => {
                // Enter a group (a tuple belongs to one group at most).
                let node = &nodes[a % n];
                if grouped.insert(Arc::as_ptr(node) as usize) {
                    groups[b % 4].push(node.clone());
                }
                continue;
            }
            (_, _) => {
                let group = &groups[b % 4];
                if group.is_empty() {
                    source(&gl, ts)
                } else {
                    let start = a % group.len();
                    let len = 1 + c % (group.len() - start).min(6);
                    let window = &group[start..start + len];
                    Arc::new(GTuple::new(at, 0, 0, gl.aggregate_meta(window)))
                }
            }
        };
        nodes.push(made);
    }
    nodes
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..8, 0usize..64, 0usize..64, 0usize..64), 1..80)
}

fn same_origins(a: &[ProvRef], b: &[ProvRef]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_borrowed_walk_is_listing_1(steps in steps()) {
        let nodes = build(&steps);
        for node in &nodes {
            let root = erase(node);
            let (expected, expected_stats) = listing_1(&root);
            let (found, stats) = find_provenance_with_stats(&root);
            prop_assert!(same_origins(&found, &expected), "origins of {:?}", root.id());
            prop_assert_eq!(stats, expected_stats);
            let mut borrowed = Vec::new();
            let each_stats = for_each_origin(&root, |origin| borrowed.push(origin.clone()));
            prop_assert!(same_origins(&borrowed, &expected));
            prop_assert_eq!(each_stats, expected_stats);
        }
    }
}

/// The cases the property runs (the shim draws case `k` from its test name and `k`)
/// hold every shape it is meant to cover: a Join diamond, a nested Aggregate, a
/// window whose `N` chain a later overlapping window extends, a single-tuple window
/// whose `N` is set, and a REMOTE leaf.
#[test]
fn the_property_reaches_every_shape() {
    let mut seen = [false; 5];
    let strategy = steps();
    for case in 0..256 {
        let mut rng = proptest::TestRng::for_case("the_borrowed_walk_is_listing_1", case);
        for node in &build(&strategy.generate(&mut rng)) {
            let root = erase(node);
            let (u1, u2) = (root.u1_ref(), root.u2_ref());
            match (root.kind(), u1, u2) {
                (OpKind::Join, Some(u1), Some(u2)) => {
                    let left: HashSet<usize> = listing_1(u1).0.iter().map(node_key).collect();
                    seen[0] |= node_key(u1) != node_key(u2)
                        && listing_1(u2).0.iter().any(|o| left.contains(&node_key(o)));
                }
                (OpKind::Aggregate, Some(u1), Some(u2)) => {
                    seen[1] |= u1.kind() == OpKind::Aggregate;
                    let single = node_key(u1) == node_key(u2);
                    seen[2] |= !single && u1.next_ref().is_some();
                    seen[3] |= single && u2.next_ref().is_some();
                }
                _ => {}
            }
            seen[4] |= listing_1(&root)
                .0
                .iter()
                .any(|o| o.kind() == OpKind::Remote);
        }
    }
    assert_eq!(
        seen, [true; 5],
        "diamond, nested, overlapping, chained single, remote"
    );
}
