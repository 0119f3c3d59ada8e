//! Property-based tests (proptest) of the core invariants:
//!
//! * GeneaLog provenance of a Q1-style query equals the brute-force oracle for
//!   arbitrary input streams;
//! * the traversal only ever returns SOURCE/REMOTE tuples and visits each node once;
//! * window assignment covers exactly the tuples inside `[start, start + WS)`;
//! * the wire codec round-trips arbitrary values;
//! * the deterministic merge produces a timestamp-sorted interleaving of its inputs.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_distributed::wire::{WireDecode, WireEncode};
use genealog_spe::channel::stream_channel;
use genealog_spe::merge::{DeterministicMerge, MergedElement};
use genealog_spe::provenance::{ProvenanceSystem, SourceContext};
use genealog_spe::tuple::{Element, GTuple};
use genealog_spe::WindowSpec;
use genealog_workloads::oracle::q1_oracle;
use genealog_workloads::queries::build_q1;
use genealog_workloads::types::PositionReport;

/// Strategy: a timestamp-ordered stream of position reports where cars may stall.
fn position_reports() -> impl Strategy<Value = Vec<(Timestamp, PositionReport)>> {
    // Up to 6 cars, up to 20 rounds, each report either moving or stopped at pos 5.
    (
        2u32..6,
        4u32..20,
        proptest::collection::vec(any::<bool>(), 8..120),
    )
        .prop_map(|(cars, rounds, stalls)| {
            let mut out = Vec::new();
            let mut stall_iter = stalls.into_iter().cycle();
            for round in 0..rounds {
                for car in 0..cars {
                    let stalled = stall_iter.next().unwrap_or(false);
                    let report = if stalled {
                        PositionReport {
                            car_id: car,
                            speed: 0,
                            pos: 5,
                        }
                    } else {
                        PositionReport {
                            car_id: car,
                            speed: 50,
                            pos: round * 10 + car,
                        }
                    };
                    out.push((Timestamp::from_secs(round as u64 * 30), report));
                }
            }
            out
        })
}

fn canonical(
    sources: impl IntoIterator<Item = (Timestamp, PositionReport)>,
) -> BTreeSet<(u64, String)> {
    sources
        .into_iter()
        .map(|(ts, r)| (ts.as_millis(), format!("{r:?}")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn genealog_q1_provenance_equals_oracle_for_random_streams(reports in position_reports()) {
        let oracle = q1_oracle(&reports);
        let mut q = GlQuery::new(GeneaLog::new());
        let src = q.source("reports", VecSource::new(reports.clone()));
        let alerts = build_q1(&mut q, src);
        let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();

        let gl_sets: BTreeSet<BTreeSet<(u64, String)>> = provenance
            .assignments()
            .iter()
            .map(|a| {
                a.source_records::<PositionReport>()
                    .into_iter()
                    .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                    .collect()
            })
            .collect();
        let oracle_sets: BTreeSet<BTreeSet<(u64, String)>> = oracle
            .iter()
            .map(|a| canonical(a.sources.iter().copied()))
            .collect();
        prop_assert_eq!(gl_sets, oracle_sets);
    }

    #[test]
    fn traversal_returns_only_terminal_nodes(window_size in 1usize..64) {
        let gl = GeneaLog::new();
        let window: Vec<Arc<GTuple<i64, genealog::GlMeta>>> = (0..window_size as u64)
            .map(|i| {
                let ctx = SourceContext { source_id: 0, seq: i, ts: Timestamp::from_secs(i) };
                let meta = gl.source_meta(&ctx, &(i as i64));
                Arc::new(GTuple::new(Timestamp::from_secs(i), 0, i as i64, meta))
            })
            .collect();
        let agg = Arc::new(GTuple::new(
            Timestamp::from_secs(0),
            0,
            0i64,
            gl.aggregate_meta(&window),
        ));
        let (provenance, stats) = find_provenance_with_stats(&genealog::meta::erase(&agg));
        prop_assert_eq!(provenance.len(), window_size);
        prop_assert!(provenance.iter().all(|p| p.kind().is_terminal()));
        prop_assert!(stats.nodes_visited >= window_size);
        prop_assert!(stats.nodes_visited <= window_size + 1);
    }

    #[test]
    fn window_assignment_covers_exactly_the_window_span(
        ts in 0u64..100_000,
        size_steps in 1u64..16,
        advance in 1u64..5_000,
    ) {
        let advance = Duration::from_millis(advance);
        let size = Duration::from_millis(advance.as_millis() * size_steps);
        let spec = WindowSpec::new(size, advance).unwrap();
        let ts = Timestamp::from_millis(ts);
        let starts: Vec<Timestamp> = spec.window_starts(ts).collect();
        prop_assert!(!starts.is_empty());
        // Every reported window contains the tuple; windows are aligned to the advance.
        for start in &starts {
            prop_assert!(*start <= ts);
            prop_assert!(ts < *start + size);
            prop_assert_eq!(start.as_millis() % advance.as_millis(), 0);
        }
        // No window was missed: the aligned window immediately before the earliest
        // reported one must not contain the tuple.
        if let Some(first) = starts.first() {
            if *first > Timestamp::MIN {
                let previous = first.saturating_sub(advance);
                prop_assert!(!(previous <= ts && ts < previous + size) || previous == *first);
            }
        }
        prop_assert!(starts.len() as u64 <= spec.windows_per_tuple());
    }

    #[test]
    fn wire_codec_round_trips_arbitrary_reports(
        car_id in any::<u32>(),
        speed in any::<u32>(),
        pos in any::<u32>(),
        meter in any::<u32>(),
        consumption in any::<u32>(),
        hour in 0u32..24,
    ) {
        let report = PositionReport { car_id, speed, pos };
        prop_assert_eq!(PositionReport::from_bytes(&report.to_bytes()).unwrap(), report);
        let reading = genealog_workloads::types::MeterReading {
            meter_id: meter,
            consumption,
            hour_of_day: hour,
        };
        prop_assert_eq!(
            genealog_workloads::types::MeterReading::from_bytes(&reading.to_bytes()).unwrap(),
            reading
        );
    }

    #[test]
    fn deterministic_merge_sorts_any_pair_of_sorted_streams(
        mut left in proptest::collection::vec(0u64..10_000, 0..50),
        mut right in proptest::collection::vec(0u64..10_000, 0..50),
    ) {
        left.sort_unstable();
        right.sort_unstable();
        let (ltx, lrx) = stream_channel::<u64, ()>(256);
        let (rtx, rrx) = stream_channel::<u64, ()>(256);
        for &ts in &left {
            ltx.send(Element::Tuple(Arc::new(GTuple::new(Timestamp::from_millis(ts), 0, ts, ())))).unwrap();
        }
        ltx.send(Element::End).unwrap();
        for &ts in &right {
            rtx.send(Element::Tuple(Arc::new(GTuple::new(Timestamp::from_millis(ts), 0, ts, ())))).unwrap();
        }
        rtx.send(Element::End).unwrap();

        let mut merge = DeterministicMerge::new(vec![lrx, rrx]);
        let mut merged = Vec::new();
        loop {
            match merge.next() {
                MergedElement::Tuple(t, _) => merged.push(t.data),
                MergedElement::Watermark(_) | MergedElement::Barrier(_) => {}
                MergedElement::End => break,
            }
        }
        let mut expected = [left, right].concat();
        expected.sort_unstable();
        prop_assert_eq!(merged, expected);
    }
}
