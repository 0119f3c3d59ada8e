//! Engine-level behaviour exercised through the public API: back-pressure with tiny
//! channels, rate-limited sources, early stop, graph introspection, and provenance
//! flowing through every standard operator in one query.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_spe::channel::{stream_channel, OutputSlot};
use genealog_spe::metrics::OpCounters;
use genealog_spe::operator::join;
use genealog_spe::operator::source::{RateLimit, SourceConfig};
use genealog_spe::provenance::NoProvenance;
use genealog_spe::query::NodeKind;
use genealog_spe::QueryConfig;

#[test]
fn tiny_channels_do_not_change_results_or_provenance() {
    let readings: Vec<(u32, i64)> = (0..200).map(|i| (i % 4, (i % 7) as i64 * 20)).collect();
    let run = |capacity: usize| {
        let mut q = GlQuery::with_config(
            GeneaLog::new(),
            QueryConfig {
                channel_capacity: capacity,
                batch: BatchConfig::default(),
                ..QueryConfig::default()
            },
        );
        let src = q.source("sensors", VecSource::with_period(readings.clone(), 10_000));
        let hot = q.filter("hot", src, |(_, v): &(u32, i64)| *v >= 100);
        let counts = q.aggregate(
            "count",
            hot,
            WindowSpec::tumbling(Duration::from_secs(60)).unwrap(),
            |(s, _): &(u32, i64)| *s,
            |w| (*w.key, w.len()),
        );
        let alerts = q.filter("alerts", counts, |(_, n): &(u32, usize)| *n >= 1);
        let (out, prov) = attach_provenance_sink(&mut q, "prov", alerts);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();
        prov.assignments()
            .iter()
            .map(|a| {
                (
                    a.sink_ts.as_millis(),
                    format!("{:?}", a.sink_data),
                    a.source_records::<(u32, i64)>()
                        .iter()
                        .map(|r| (r.ts.as_millis(), r.data))
                        .collect::<BTreeSet<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let wide = run(2048);
    let narrow = run(1);
    assert_eq!(wide, narrow);
    assert!(!wide.is_empty());
}

#[test]
fn rate_limited_source_and_early_stop() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source_with(
        "slow",
        VecSource::with_period((0..100_000i64).collect(), 1),
        SourceConfig {
            rate: RateLimit::TuplesPerSecond(20_000),
            watermark_every: 10,
        },
    );
    let sink = q.collecting_sink("sink", src);
    let handle = q.deploy().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.stop();
    let report = handle.wait().unwrap();
    // The stop flag ends the run long before the full stream is injected, and
    // everything injected reaches the sink.
    assert!(report.source_tuples() < 100_000);
    assert_eq!(report.source_tuples(), sink.len() as u64);
}

#[test]
fn every_standard_operator_participates_in_one_provenanced_query() {
    // Source -> Multiplex -> (Filter | Map) -> Union -> Aggregate -> Join -> Sink,
    // with provenance captured at the end: the contribution graph crosses every
    // operator kind of §2.
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source(
        "numbers",
        VecSource::with_period((1..=40i64).collect(), 15_000),
    );
    let branches = q.multiplex("mux", src, 2);
    let mut branches = branches.into_iter();
    let evens = q.filter("evens", branches.next().unwrap(), |v| v % 2 == 0);
    let tripled = q.map_one("triple", branches.next().unwrap(), |v| v * 3);
    let merged = q.union("union", vec![evens, tripled]);
    let per_minute = q.aggregate(
        "per-minute",
        merged,
        WindowSpec::tumbling(Duration::from_mins(1)).unwrap(),
        |_: &i64| 0u8,
        |w| w.payloads().sum::<i64>(),
    );
    let mux2 = q.multiplex("mux2", per_minute, 2);
    let mut mux2 = mux2.into_iter();
    let left = mux2.next().unwrap();
    let right = mux2.next().unwrap();
    let joined = q.join(
        "self-join",
        left,
        right,
        Duration::from_mins(2),
        // A theta join: nothing to key on, the predicate sees every pair in the window.
        |_: &i64| (),
        |_: &i64| (),
        |a: &i64, b: &i64| a != b,
        |a: &i64, b: &i64| a + b,
    );
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", joined);
    q.discard(out);
    q.deploy().unwrap().wait().unwrap();

    let assignments = provenance.assignments();
    assert!(!assignments.is_empty());
    for assignment in &assignments {
        assert!(assignment.source_count() >= 2);
        // Every originating tuple is one of the injected numbers.
        for value in assignment.source_payloads::<i64>() {
            assert!((1..=40).contains(&value));
        }
    }
}

#[test]
fn query_graph_introspection_lists_nodes_and_edges() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("numbers", VecSource::with_period(vec![1i64, 2, 3], 1_000));
    let doubled = q.map_one("double", src, |v| v * 2);
    let _ = q.collecting_sink("sink", doubled);
    let facts = q.plan_facts();
    assert_eq!(facts.nodes.len(), 3);
    assert_eq!(facts.edges.len(), 2);
    let kinds: Vec<&str> = facts.nodes.iter().map(|n| n.kind.as_str()).collect();
    assert_eq!(
        kinds,
        vec![
            NodeKind::Source.label(),
            NodeKind::Map.label(),
            NodeKind::Sink.label()
        ]
    );
    let dot = genealog_analysis::dot::physical(&facts);
    assert!(dot.contains("digraph"));
    assert!(dot.contains("double"));
    q.deploy().unwrap().wait().unwrap();
}

#[test]
fn latency_is_reported_per_sink_tuple() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source(
        "numbers",
        VecSource::with_period((0..50i64).collect(), 1_000),
    );
    let stats = q.sink("sink", src, |_| {});
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(stats.tuple_count(), 50);
    assert_eq!(stats.latencies_ns().len(), 50);
    assert!(stats.mean_latency_ms() >= 0.0);
    // Latencies are bounded by the run duration (well under a minute here).
    assert!(stats.latencies_ns().iter().all(|&ns| ns < 60_000_000_000));
}

// ---------------------------------------------------------------------------
// Batched-transport semantics
// ---------------------------------------------------------------------------

fn gl_tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
    Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
}

#[test]
fn watermarks_are_never_reordered_past_data_within_a_batch() {
    // Data pushed before a watermark must arrive before it, even though the
    // watermark forces an immediate flush of the partial batch.
    let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::with_size(1_000));
    let (tx, mut rx) = stream_channel(16);
    slot.connect(tx);
    let mut out = slot.open();
    for i in 0..5 {
        out.send_tuple(gl_tuple(i, i as i64)).unwrap();
    }
    out.send_watermark(Timestamp::from_secs(4)).unwrap();
    out.send_tuple(gl_tuple(5, 5)).unwrap();
    out.send_end().unwrap();

    let mut seen_watermark = false;
    let mut data_before_watermark = 0;
    let mut data_after_watermark = 0;
    loop {
        match rx.recv() {
            Element::Tuple(_) if seen_watermark => data_after_watermark += 1,
            Element::Tuple(_) => data_before_watermark += 1,
            Element::Watermark(ts) => {
                assert_eq!(ts, Timestamp::from_secs(4));
                seen_watermark = true;
            }
            Element::Barrier(_) => {}
            Element::End => break,
        }
    }
    assert_eq!(data_before_watermark, 5);
    assert_eq!(data_after_watermark, 1);
}

#[test]
fn end_of_stream_flushes_partial_batches() {
    // A batch size far larger than the stream length must not strand elements:
    // Element::End flushes whatever is buffered ahead of it.
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        QueryConfig::default().with_batch_size(10_000),
    );
    let src = q.source(
        "numbers",
        VecSource::with_period((0..7i64).collect(), 1_000),
    );
    let doubled = q.map_one("double", src, |v| v * 2);
    let out = q.collecting_sink("sink", doubled);
    q.deploy().unwrap().wait().unwrap();
    let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
    assert_eq!(values, vec![0, 2, 4, 6, 8, 10, 12]);
}

#[test]
fn batch_size_one_matches_default_batching() {
    // With BatchConfig::unbatched() every element travels alone, reproducing the
    // original per-element transport; the observable behaviour must be identical.
    let run = |config: QueryConfig| {
        let mut q = GlQuery::with_config(GeneaLog::new(), config);
        let src = q.source(
            "numbers",
            VecSource::with_period((0..100i64).collect(), 5_000),
        );
        let odd = q.filter("odd", src, |v| v % 2 == 1);
        let windowed = q.aggregate(
            "sum",
            odd,
            WindowSpec::tumbling(Duration::from_secs(60)).unwrap(),
            |_: &i64| 0u8,
            |w| w.payloads().sum::<i64>(),
        );
        let (out, prov) = attach_provenance_sink(&mut q, "prov", windowed);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();
        prov.assignments()
            .iter()
            .map(|a| {
                (
                    a.sink_ts.as_millis(),
                    a.sink_data,
                    a.source_payloads::<i64>()
                        .into_iter()
                        .collect::<BTreeSet<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let unbatched = run(QueryConfig::default().unbatched());
    let batched = run(QueryConfig::default().with_batch_size(64));
    assert_eq!(unbatched, batched);
    assert!(!unbatched.is_empty());
}

#[test]
fn backpressure_blocks_a_fast_source_under_batching() {
    // A capacity-1 channel holds a single batch: an unthrottled source must block
    // behind a deliberately slow sink rather than buffer or drop elements.
    let total: i64 = 300;
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        QueryConfig {
            channel_capacity: 1,
            batch: BatchConfig::with_size(8),
            ..QueryConfig::default()
        },
    );
    let src = q.source("fast", VecSource::with_period((0..total).collect(), 1_000));
    let stats = q.sink("slow-sink", src, |_| {
        std::thread::sleep(std::time::Duration::from_micros(50));
    });
    let report = q.deploy().unwrap().wait().unwrap();
    assert_eq!(report.source_tuples(), total as u64);
    assert_eq!(
        stats.tuple_count(),
        total as u64,
        "no element may be dropped"
    );
}

// ---------------------------------------------------------------------------
// The keyed Join emits exactly what a scan of the whole window would
// ---------------------------------------------------------------------------

type Keyed = (u32, i64);
/// `(ts_millis, (key, left value, right value))`: one emitted pair.
type Pair = (u64, (u32, i64, i64));

/// Rejects some pairs of equal key.
fn residual(l: &Keyed, r: &Keyed) -> bool {
    (l.1 + r.1) % 3 != 0
}

/// Reference join, kept apart from the operator: no index, no purging, no
/// watermarks. Tuples are taken in timestamp order, left first on ties, and each
/// one is compared with every earlier tuple of the other side, oldest first.
fn brute_force_join(left: &[(u64, Keyed)], right: &[(u64, Keyed)], ws: u64) -> Vec<Pair> {
    let mut out = Vec::new();
    let (mut l, mut r) = (0, 0);
    while l < left.len() || r < right.len() {
        let take_left = r == right.len() || (l < left.len() && left[l].0 <= right[r].0);
        let seen = if take_left { &right[..r] } else { &left[..l] };
        for &(other_ts, other) in seen {
            let (ts, lv, rv) = if take_left {
                (left[l].0, left[l].1, other)
            } else {
                (right[r].0, other, right[r].1)
            };
            if ts.abs_diff(other_ts) <= ws && lv.0 == rv.0 && residual(&lv, &rv) {
                out.push((ts.max(other_ts) * 1000, (lv.0, lv.1, rv.1)));
            }
        }
        if take_left {
            l += 1;
        } else {
            r += 1;
        }
    }
    out
}

/// Runs one Join, alone in its chain, over the two element sequences and returns its
/// output.
fn drive_join<K, LK, RK, PR>(
    sides: &[Vec<Element<Keyed, ()>>; 2],
    ws: u64,
    left_key: LK,
    right_key: RK,
    predicate: PR,
) -> Vec<Pair>
where
    K: std::hash::Hash + Eq + Send + 'static,
    LK: FnMut(&Keyed) -> K + Send + 'static,
    RK: FnMut(&Keyed) -> K + Send + 'static,
    PR: FnMut(&Keyed, &Keyed) -> bool + Send + 'static,
{
    let [left_rx, right_rx] = sides.each_ref().map(|side| {
        let (tx, rx) = stream_channel(side.len() + 1);
        for element in side.iter().cloned().chain([Element::End]) {
            tx.send(element).unwrap();
        }
        rx
    });
    let slot = OutputSlot::<(u32, i64, i64), ()>::new();
    let (otx, mut orx) = stream_channel(64);
    slot.connect(otx);
    let op = join::chain(
        "join",
        left_rx,
        right_rx,
        Duration::from_secs(ws),
        left_key,
        right_key,
        predicate,
        |l: &Keyed, r: &Keyed| (l.0, l.1, r.1),
        NoProvenance,
        Default::default(),
    )
    .into_channel("join", slot);
    let running = std::thread::spawn(move || op.run(OpCounters::detached("join")));
    let mut out = Vec::new();
    loop {
        match orx.recv() {
            Element::Tuple(t) => out.push((t.ts.as_millis(), t.data)),
            Element::Watermark(_) | Element::Barrier(_) => {}
            Element::End => break,
        }
    }
    running.join().unwrap().unwrap();
    out
}

/// One side's steps `(key draw, value, gap to the previous tuple, watermark lead)`.
type Steps = Vec<(u32, u32, u64, u64)>;

/// Builds one side's elements. Timestamps repeat (gap 0); a
/// non-zero lead puts a watermark that far *ahead* of the tuple just sent, which
/// moves the join's frontier past data it has seen and forces purges. Key shapes:
/// 0 = one hot key among a few cold ones, 1 = every tuple its own key (the i-th
/// left tuple can only meet the i-th right tuple), 2 = three evenly used keys.
fn join_side(steps: &Steps, key_shape: u8) -> Vec<Element<Keyed, ()>> {
    let mut elements = Vec::new();
    let mut ts = 0u64;
    for (i, &(draw, value, gap, lead)) in steps.iter().enumerate() {
        ts += gap;
        let key = match key_shape {
            0 if draw < 8 => 0,
            0 => draw,
            1 => i as u32,
            _ => draw % 3,
        };
        elements.push(Element::Tuple(Arc::new(GTuple::new(
            Timestamp::from_secs(ts),
            0,
            (key, i64::from(value)),
            (),
        ))));
        if lead > 0 {
            ts += lead;
            elements.push(Element::Watermark(Timestamp::from_secs(ts)));
        }
    }
    elements
}

/// The `(ts_secs, payload)` of one side's tuples, as the reference takes them.
fn tuples_of(elements: &[Element<Keyed, ()>]) -> Vec<(u64, Keyed)> {
    elements
        .iter()
        .filter_map(|e| match e {
            Element::Tuple(t) => Some((t.ts.as_secs(), t.data)),
            _ => None,
        })
        .collect()
}

fn join_steps() -> impl Strategy<Value = Steps> {
    proptest::collection::vec((0u32..12, 0u32..50, 0u64..4, 0u64..3), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Window sizes of a few seconds against gaps of 0–3 s put many pairs at exactly
    /// `|Δts| == WS` and many just outside it.
    #[test]
    fn keyed_join_output_equals_the_brute_force_reference(
        left in join_steps(),
        right in join_steps(),
        key_shape in 0u8..3,
        ws in 1u64..6,
    ) {
        let sides = [join_side(&left, key_shape), join_side(&right, key_shape)];
        let expected = brute_force_join(&tuples_of(&sides[0]), &tuples_of(&sides[1]), ws);

        let keyed = drive_join(&sides, ws, |l: &Keyed| l.0, |r: &Keyed| r.0, residual);
        prop_assert_eq!(&keyed, &expected);
        // A theta join — unit keys, the equality in the predicate — is the scan of
        // the whole window the operator used to be.
        let scanned = drive_join(&sides, ws, |_: &Keyed| (), |_: &Keyed| (), |l: &Keyed, r: &Keyed| {
            l.0 == r.0 && residual(l, r)
        });
        prop_assert_eq!(&scanned, &expected);
    }
}
