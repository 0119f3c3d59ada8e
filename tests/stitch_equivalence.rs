//! The multi-stream unfolder's stitch against the Figure-8 composition it replaces.
//!
//! Figure 8 draws the MU as standard operators: a Union of the upstream unfolded
//! streams, a Multiplex and two Filters splitting the derived stream by the kind of
//! its originating tuple, a Join on the tuple id resolving the REMOTE side, and an
//! output Union. The engine runs it as one fan-in (`genealog::attach_stitch`). This
//! suite keeps the composition, here only, as the oracle: over random derived and
//! upstream streams the stitch must yield the same per-sink-tuple records, whether
//! it resolves per pair (`attach_multi_unfolder`, and the shard sink fed
//! `UpstreamEvent`s) or per group (the shard sink fed the `LineageGroup`s remote
//! shards ship).
//!
//! The cases cover 1–3 upstreams, both arrival orders of a derived event and its
//! lineage, SOURCE pass-through, lineage outside the window and lineage that never
//! comes, one REMOTE id shared by several derived events, origins without a payload,
//! and epoch barriers mid-stream (every query checkpoints every 3 source tuples).

use proptest::prelude::*;

use genealog::prelude::*;
use genealog::{LineageGroup, OriginRecord};
use genealog_distributed::deployment::{attach_shard_stitch, group_provenance, ProvenanceRecord};
use genealog_spe::state::{CheckpointConfig, CheckpointStore};
use genealog_spe::tuple::TupleId;

type Derived = UnfoldedEvent<u32, i64>;
/// A record reduced to comparable data: sink id, timestamp and payload, and its
/// sources (id, timestamp in ms, payload) sorted.
type Canonical = (TupleId, u64, u32, Vec<(TupleId, u64, i64)>);

const WINDOW: Duration = Duration::from_secs(30);

/// One generated input: the derived unfolded stream and, per upstream instance,
/// its lineage groups, each stream in timestamp order.
#[derive(Debug)]
struct Scenario {
    derived: Vec<(Timestamp, Derived)>,
    groups: Vec<Vec<(Timestamp, LineageGroup<i64>)>>,
}

impl Scenario {
    /// The groups as per-pair upstream events, one per origin.
    fn pairs(&self) -> Vec<Vec<(Timestamp, UpstreamEvent<i64>)>> {
        self.groups
            .iter()
            .map(|stream| {
                stream
                    .iter()
                    .flat_map(|(ts, group)| {
                        group.origins.iter().map(move |origin| {
                            let event = UpstreamEvent {
                                sink_id: group.sink_id,
                                sink_ts: *ts,
                                origin_kind: origin.kind,
                                origin_ts: origin.ts,
                                origin_id: origin.id,
                                origin_data: origin.data,
                            };
                            (*ts, event)
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

/// Strategy: `upstreams` in 1..=3; up to 9 lineage groups, each on a random
/// upstream with 1–3 origins, some without a payload; up to 9 sink tuples, each
/// with 1–3 originating tuples that are SOURCE tuples or REMOTE ones naming a
/// group (often one another sink tuple names too) or an id no group has.
/// Timestamps span 200 s against a 30 s window.
fn scenarios() -> impl Strategy<Value = Scenario> {
    let groups = proptest::collection::vec((0u64..200, 0usize..3, 1usize..4, 0u64..8), 1..10);
    let origins = proptest::collection::vec((0u32..4, 0usize..12, 0u64..100), 1..4);
    let sinks = proptest::collection::vec((0u64..200, origins), 1..10);
    (1usize..4, groups, sinks).prop_map(|(upstreams, groups, sinks)| {
        let mut streams = vec![Vec::new(); upstreams];
        let mut ids = Vec::new();
        for (g, (secs, upstream, count, no_payload)) in groups.into_iter().enumerate() {
            let upstream = upstream % upstreams;
            let sink_id = TupleId::new(10 + upstream as u32, g as u64);
            let origins = (0..count)
                .map(|j| {
                    let seq = (g * 10 + j) as u64;
                    let payload = no_payload & (1 << j) == 0;
                    OriginRecord {
                        kind: if payload {
                            OpKind::Source
                        } else {
                            OpKind::Remote
                        },
                        ts: Timestamp::from_secs(seq),
                        id: TupleId::new(1, seq),
                        data: payload.then_some(seq as i64),
                    }
                })
                .collect();
            ids.push(sink_id);
            let group = LineageGroup { sink_id, origins };
            streams[upstream].push((Timestamp::from_secs(secs), group));
        }
        let mut derived = Vec::new();
        for (k, (secs, origins)) in sinks.into_iter().enumerate() {
            let sink_ts = Timestamp::from_secs(secs);
            for (j, (kind, pick, payload)) in origins.into_iter().enumerate() {
                let (origin_kind, origin_id, origin_data) = if kind == 0 {
                    let id = TupleId::new(0, (k * 10 + j) as u64);
                    (OpKind::Source, id, Some(payload as i64))
                } else {
                    let id = ids
                        .get(pick)
                        .copied()
                        .unwrap_or(TupleId::new(99, pick as u64));
                    (OpKind::Remote, id, None)
                };
                let event = UnfoldedEvent {
                    sink_ts,
                    sink_id: TupleId::new(5, k as u64),
                    sink_data: k as u32,
                    origin_kind,
                    origin_ts: sink_ts,
                    origin_id,
                    origin_data,
                };
                derived.push((sink_ts, event));
            }
        }
        derived.sort_by_key(|(ts, _)| *ts);
        for stream in &mut streams {
            stream.sort_by_key(|(ts, _)| *ts);
        }
        Scenario {
            derived,
            groups: streams,
        }
    })
}

/// Builds a checkpointing query over the scenario's derived stream and the given
/// lineage streams, lets `attach` wire the unfolder under test, runs it to the end
/// and returns what `attach`'s extractor reads.
fn run<U, R>(
    scenario: &Scenario,
    lineage: Vec<Vec<(Timestamp, U)>>,
    attach: impl FnOnce(
        &mut GlQuery,
        StreamRef<Derived, GlMeta>,
        Vec<StreamRef<U, GlMeta>>,
    ) -> Box<dyn FnOnce() -> R>,
) -> R
where
    U: genealog_spe::tuple::TupleData,
{
    let mut q = GlQuery::new(GeneaLog::for_instance(0));
    q.set_checkpoints(CheckpointConfig::new(3, CheckpointStore::in_memory()));
    let derived = q.source("derived", VecSource::new(scenario.derived.clone()));
    let upstreams = lineage
        .into_iter()
        .enumerate()
        .map(|(i, items)| q.source(&format!("upstream[{i}]"), VecSource::new(items)))
        .collect();
    let read = attach(&mut q, derived, upstreams);
    q.deploy().unwrap().wait().unwrap();
    read()
}

fn canonical(records: Vec<ProvenanceRecord<u32, i64>>) -> Vec<Canonical> {
    let mut records: Vec<Canonical> = records
        .into_iter()
        .map(|r| {
            let mut sources: Vec<_> = r
                .sources
                .iter()
                .map(|s| (s.id, s.ts.as_millis(), s.data))
                .collect();
            sources.sort();
            (r.sink_id, r.sink_ts.as_millis(), r.sink_data, sources)
        })
        .collect();
    records.sort();
    records
}

/// The complete unfolded stream collected, grouped into records.
fn unfolded_records(
    q: &mut GlQuery,
    complete: StreamRef<Derived, GlMeta>,
) -> Box<dyn FnOnce() -> Vec<Canonical>> {
    let sink = q.collecting_sink("sink", complete);
    Box::new(move || {
        canonical(group_provenance(
            sink.tuples().iter().map(|t| t.data.clone()).collect(),
        ))
    })
}

/// The oracle: Figure 8 built from standard operators.
fn figure_8(scenario: &Scenario) -> Vec<Canonical> {
    run(scenario, scenario.pairs(), |q, derived, mut upstreams| {
        let upstream = if upstreams.len() == 1 {
            upstreams.remove(0)
        } else {
            q.union("mu-upstream-union", upstreams)
        };
        let mut branches = q.multiplex("mu-mux", derived, 2).into_iter();
        let (first, second) = (branches.next().unwrap(), branches.next().unwrap());
        let remote = q.filter("mu-remote", first, |e: &Derived| {
            e.origin_kind != OpKind::Source
        });
        let source = q.filter("mu-source", second, |e: &Derived| {
            e.origin_kind == OpKind::Source
        });
        let resolved = q.join(
            "mu-join",
            remote,
            upstream,
            WINDOW,
            |d: &Derived| d.origin_id,
            |u: &UpstreamEvent<i64>| u.sink_id,
            |_: &Derived, _: &UpstreamEvent<i64>| true,
            |d: &Derived, u: &UpstreamEvent<i64>| UnfoldedEvent {
                sink_ts: d.sink_ts,
                sink_id: d.sink_id,
                sink_data: d.sink_data,
                origin_kind: u.origin_kind,
                origin_ts: u.origin_ts,
                origin_id: u.origin_id,
                origin_data: u.origin_data,
            },
        );
        let complete = q.union("mu-out", vec![resolved, source]);
        unfolded_records(q, complete)
    })
}

/// `attach_multi_unfolder`: the stitch resolving per pair.
fn multi_unfolder(scenario: &Scenario) -> Vec<Canonical> {
    run(scenario, scenario.pairs(), |q, derived, upstreams| {
        let complete = attach_multi_unfolder(q, "mu", derived, upstreams, WINDOW);
        unfolded_records(q, complete)
    })
}

/// The shard sink's stitch over `lineage` (grouped or per pair).
fn shard_stitch<U: UpstreamLineage<i64>>(
    scenario: &Scenario,
    lineage: Vec<Vec<(Timestamp, U)>>,
) -> Vec<Canonical> {
    run(scenario, lineage, |q, derived, upstreams| {
        let collector = attach_shard_stitch(q, "prov", derived, upstreams, WINDOW);
        Box::new(move || canonical(collector.records()))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_stitch_resolves_what_figure_8_resolves(scenario in scenarios()) {
        let oracle = figure_8(&scenario);
        // Per pair: attach_multi_unfolder, and the shard sink fed UpstreamEvents.
        prop_assert_eq!(&multi_unfolder(&scenario), &oracle);
        prop_assert_eq!(&shard_stitch(&scenario, scenario.pairs()), &oracle);
        // Grouped: the shard sink fed LineageGroups.
        prop_assert_eq!(&shard_stitch(&scenario, scenario.groups.clone()), &oracle);
    }
}
