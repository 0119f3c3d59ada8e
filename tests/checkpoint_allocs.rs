//! Allocation budgets: a window-snapshot encode and a channel hop.
//!
//! Every barrier encodes the whole window store on the operator's thread, so
//! what an encode allocates is paid per epoch per shard. The container walk
//! writes keys and occurrences in place: the number of allocations must not
//! depend on how many occurrences are buffered, and the `Vec` it returns — a
//! state backend keeps it for as long as the epoch lives — must not carry
//! unused capacity. A count, not a timing: it repeats exactly.
//!
//! A channel hop pays one heap buffer per batch — the number batch-buffer recycling
//! will have to move, pinned here before it moves.
//!
//! This binary installs the counting allocator, so it holds exactly one test
//! (tests of one binary run on parallel threads and would count each other).

use std::sync::Arc;

use genealog::{erase, GlMeta, GlWindowPersister, OpKind};
use genealog_metrics::TrackingAllocator;
use genealog_spe::channel::{batch_budget, stream_channel, Batch};
use genealog_spe::persist::{is_container, PlainWindowPersister, WindowPersister};
use genealog_spe::time::{Duration, Timestamp};
use genealog_spe::tuple::{Element, GTuple, TupleId};
use genealog_spe::window::{WindowSpec, WindowStore, WindowStoreSnapshot};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

type Reading = (u32, i64);

const BUFFERS: u64 = 64;
/// Allocations an encode may make whatever the store holds: the container's
/// first few doublings, its one sizing reservation and the final trim.
const CONSTANT: usize = 8;

/// One tumbling window, `BUFFERS` keys, `occurrences` tuples spread over them.
fn store<M>(occurrences: u64, meta: impl Fn(u64) -> M) -> WindowStore<u32, Reading, M> {
    let spec = WindowSpec::tumbling(Duration::from_secs(3_600)).unwrap();
    let mut store = WindowStore::new(spec);
    for i in 0..occurrences {
        let key = (i % BUFFERS) as u32;
        store.insert(
            key,
            Arc::new(GTuple::new(
                Timestamp::from_millis(i),
                i,
                (key, i as i64),
                meta(i),
            )),
        );
    }
    store
}

/// A `MAP` occurrence over its own `SOURCE` terminal — what a shard buffers.
fn gl_meta(i: u64) -> GlMeta {
    let source = Arc::new(GTuple::new(
        Timestamp::from_millis(i),
        i,
        ((i % BUFFERS) as u32, i as i64),
        GlMeta::leaf(OpKind::Source, TupleId::new(1, i)),
    ));
    GlMeta::unary(OpKind::Map, TupleId::new(2, i), erase(&source))
}

/// Encodes `snapshot`, returning the bytes and the allocations the encode made.
fn counted<M>(
    persister: &dyn WindowPersister<u32, Reading, M>,
    snapshot: &WindowStoreSnapshot<u32, Reading, M>,
) -> (Vec<u8>, usize) {
    let before = ALLOC.allocation_count();
    let bytes = persister.encode(snapshot).expect("encodable");
    (bytes, ALLOC.allocation_count() - before)
}

fn check<M>(
    name: &str,
    persister: &dyn WindowPersister<u32, Reading, M>,
    meta: impl Fn(u64) -> M + Copy,
) {
    let small = store(1_000, meta).snapshot();
    let large = store(10_000, meta).snapshot();
    assert_eq!(large.entries().count() as u64, BUFFERS);
    assert_eq!(large.buffered_tuples(), 10_000);

    let (small_bytes, small_allocs) = counted(persister, &small);
    let (large_bytes, large_allocs) = counted(persister, &large);
    assert!(is_container(&large_bytes) && large_bytes.len() > 9 * small_bytes.len());

    assert!(
        large_allocs <= CONSTANT + BUFFERS as usize,
        "{name}: {large_allocs} allocations to encode 10 000 occurrences in {BUFFERS} buffers"
    );
    assert_eq!(
        large_allocs, small_allocs,
        "{name}: allocations must not depend on the occurrence count"
    );
    for bytes in [&small_bytes, &large_bytes] {
        assert_eq!(bytes.capacity(), bytes.len(), "{name}: retained capacity");
    }
}

/// Allocations made moving `batches` full batches of the default size through a
/// `stream_channel` sized as the planner sizes its edges. One thread fills the
/// channel and drains it, round after round, so the count repeats exactly.
fn hop_allocations(batches: usize) -> usize {
    const BATCH: usize = 32;
    let capacity = batch_budget(1024, BATCH);
    assert_eq!(batches % capacity, 0);
    let (tx, mut rx) = stream_channel::<Reading, ()>(capacity);
    let payload: Vec<_> = (0..BATCH as u64)
        .map(|i| Arc::new(GTuple::new(Timestamp::from_millis(i), i, (0, 0), ())))
        .collect();
    let before = ALLOC.allocation_count();
    for _ in 0..batches / capacity {
        for _ in 0..capacity {
            let mut run = Batch::with_capacity(BATCH);
            run.extend(payload.iter().cloned().map(Element::Tuple));
            tx.send_batch(run).expect("receiver alive");
        }
        for _ in 0..capacity {
            assert_eq!(rx.recv_batch().into_iter().count(), BATCH);
        }
    }
    ALLOC.allocation_count() - before
}

fn check_channel_hop() {
    // The queue's ring growing to the channel's capacity, once.
    const CONSTANT: usize = 8;
    let (few, many) = (hop_allocations(320), hop_allocations(3_200));
    assert!(few <= 320 + CONSTANT, "{few} allocations for 320 batches");
    assert_eq!(
        many - few,
        3_200 - 320,
        "one buffer per batch, nothing else"
    );

    let element = Element::<Reading, ()>::Watermark(Timestamp::from_millis(1));
    let before = ALLOC.allocation_count();
    let singleton = Batch::singleton(element);
    assert_eq!(ALLOC.allocation_count() - before, 1, "a singleton batch");
    drop(singleton);
}

#[test]
fn allocation_budgets_hold() {
    // Encoding allocates independently of the occurrence count.
    check("plain", &PlainWindowPersister, |_| ());
    check(
        "genealog",
        &GlWindowPersister::<u32, Reading, Reading>::new(),
        gl_meta,
    );
    check_channel_hop();
}
