//! Fault injection against the epoch-based checkpoint/recovery path (the tentpole
//! robustness guarantee): a run that loses a shard thread mid-stream, or whose
//! remote link is severed and re-established, must — after recovering from the
//! latest complete checkpoint — produce **byte-identical** results to a run that
//! never failed:
//!
//! * **sink bytes** — the same tuples in the same canonical `(timestamp, payload)`
//!   order, the recovered prefix coming out of the sink's checkpointed state and
//!   the suffix out of the replay;
//! * **GeneaLog contribution sets** — identical per-sink-tuple source sets, i.e.
//!   the checkpoint captured each operator's slice of the provenance graph well
//!   enough for the restored run to re-stitch lineage.
//!
//! Faults are armed through [`OneShot`] triggers and [`FaultPlan`]s so they hit
//! the first attempt only: the rebuilt attempt models the replacement thread /
//! re-established link and must run clean. Coverage spans shard counts {1, 2, 4},
//! local and remote placements, and operator fusion on/off.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_distributed::deployment::{
    logical_shard_provenance_sink, remote_shard_group_over, GlShardGroup, ShardTransport,
    SimulatedTransport,
};
use genealog_distributed::{
    FaultPlan, FaultyTransport, LinkFaults, NetworkConfig, OneShot, TcpLoopbackTransport,
};
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::parallel::Parallelism;
use genealog_spe::query::{QueryConfig, ShardPlacement};
use genealog_spe::state::{run_with_recovery, CheckpointConfig, CheckpointStore, RecoveryConfig};
use genealog_spe::PlannerConfig;

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Epoch length (tuples per barrier) used throughout: small enough that every
/// generated stream spans several epochs.
const INTERVAL: u64 = 5;

fn window_spec() -> WindowSpec {
    WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap()
}

fn sum_key(r: &Reading) -> Key {
    r.0
}

fn sum_window(w: &WindowView<'_, Key, Reading, GlMeta>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
}

fn canonical_tuples(
    sink: &genealog_spe::operator::sink::CollectedStream<Reading, GlMeta>,
) -> Vec<SinkTuple> {
    sink.tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect()
}

/// The contribution set of every sink tuple of a single-instance run, sorted.
fn canonical_lineage(provenance: &ProvenanceCollector<Reading>) -> Vec<Lineage> {
    let mut lineage: Vec<Lineage> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
            let sources: BTreeSet<SinkTuple> = a
                .source_records::<Reading>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    lineage
}

/// Outcome of one (possibly recovered) run, in canonical form.
struct Run {
    tuples: Vec<SinkTuple>,
    lineage: Vec<Lineage>,
    recoveries: u64,
    fault_fired: bool,
}

// ---------------------------------------------------------------------------
// Scenario A: a local shard thread is killed mid-stream
// ---------------------------------------------------------------------------

/// Runs `source -> aggregate(place all_local(shards)) -> provenance sink -> sink`
/// under GeneaLog with checkpointing on. When `kill_at_close` is set, the window
/// close function panics — once, on the first attempt — after that many window
/// closes, killing whichever shard thread happens to evaluate it; the recovery
/// runner rebuilds the plan, restores every operator from the latest complete
/// epoch and replays the sources from their committed offsets.
fn run_local(
    reports: &[(Timestamp, Reading)],
    shards: usize,
    fusion: bool,
    kill_at_close: Option<u64>,
) -> Run {
    let store = CheckpointStore::in_memory();
    let trigger = OneShot::armed();
    let closes = Arc::new(AtomicU64::new(0));
    // One provenance system for ALL attempts: clones share the id counter, so the
    // rebuilt engine keeps allocating tuple ids *after* the failed attempt's ids.
    // The checkpointed provenance prefix is grouped by sink tuple id — restarting
    // the counter at zero would let a post-restore sink tuple collide with a
    // checkpointed one and merge their contribution sets.
    let system = GeneaLog::new();

    let (_, (sink, provenance)) =
        run_with_recovery(&store, RecoveryConfig::default(), |_attempt| {
            let plan = GlPlan::with_config(
                system.clone(),
                PlannerConfig::default()
                    .with_fusion(fusion)
                    .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
            );
            let trigger = Arc::clone(&trigger);
            let closes = Arc::clone(&closes);
            let sums = plan
                .source("readings", VecSource::new(reports.to_vec()))
                .aggregate(
                    "sum",
                    window_spec(),
                    sum_key,
                    move |w: &WindowView<'_, Key, Reading, GlMeta>| {
                        if let Some(k) = kill_at_close {
                            if closes.fetch_add(1, Ordering::SeqCst) + 1 >= k && trigger.fire() {
                                panic!("injected shard failure");
                            }
                        }
                        sum_window(w)
                    },
                    |o: &Reading| o.0,
                )
                .place(ShardPlacement::<GeneaLog, Reading, Reading>::all_local(
                    shards,
                ));
            let (out, provenance) = logical_provenance_sink(sums, "prov");
            let sink = out.collecting_sink("sink");
            Ok((plan.deploy()?, (sink, provenance)))
        })
        .expect("recovery must succeed within the attempt budget");

    Run {
        tuples: canonical_tuples(&sink),
        lineage: canonical_lineage(&provenance),
        recoveries: store.recoveries(),
        fault_fired: kill_at_close.is_some() && !trigger.is_armed(),
    }
}

// ---------------------------------------------------------------------------
// Scenarios B and C: a remote shard's return link fails mid-stream
// ---------------------------------------------------------------------------

/// The shard transport of one recovery attempt. Links — sockets above all — cannot
/// outlive a failed attempt, so every attempt builds its transport afresh; faults
/// are armed on the first attempt only, the rebuilt one models the re-established
/// link and must run clean.
type TransportForAttempt<'a> = &'a dyn Fn(usize) -> Box<dyn ShardTransport>;

/// **Scenario B.** Links built by `inner` with `fault`'s frame faults (drop, sever,
/// ...) armed on shard 0's return-link data channel: the origin's ingress observes
/// a close without the end-of-stream marker (or a sequence gap), fences the store
/// and fails the query.
fn with_link_faults<'a, T: ShardTransport + 'static>(
    inner: impl Fn() -> T + 'a,
    fault: &'a FaultPlan,
) -> impl Fn(usize) -> Box<dyn ShardTransport> + 'a {
    move |attempt| {
        Box::new(FaultyTransport::new(
            inner(),
            0,
            fault.link_faults_for_attempt(attempt),
        ))
    }
}

/// **Scenario C.** Real loopback sockets under the links. `kill` severs shard 0's
/// return *socket* — `shutdown(2)` mid-stream, no goodbye sentinel, exactly what a
/// crashed peer or yanked cable looks like to the origin — before its `kill`-th
/// data frame. The origin's ingress observes the dropped connection as a
/// link-severed close (the socket equivalent of `FaultPlan::sever`).
///
/// A killed peer never dials back, so the receiver would wait out its whole
/// re-accept window before reporting the close: 6.35 s under
/// `NetworkConfig::unlimited()`. One 10 ms backoff plus a 100 ms connect timeout
/// shrinks that to 110 ms; loopback connects take well under a millisecond.
fn tcp_with_socket_kill(kill: Option<u64>) -> impl Fn(usize) -> Box<dyn ShardTransport> {
    let config = NetworkConfig::unlimited()
        .with_connect_timeout(std::time::Duration::from_millis(100))
        .with_reconnects(1, std::time::Duration::from_millis(10));
    move |attempt| {
        let transport = TcpLoopbackTransport::new(config);
        Box::new(match (kill, attempt) {
            (Some(before_frame), 0) => transport.with_return_kill(0, before_frame),
            _ => transport,
        })
    }
}

/// Runs the distributed plan — every shard of the aggregate on its own remote SPE
/// instance, reached over `transport_for(attempt)` — under GeneaLog with a
/// deployment-global checkpoint store shared by the origin and every remote engine.
/// When the transport fails a link mid-stream the attempt fails; the rebuilt
/// attempt re-establishes fresh links, restores the remote window state from the
/// shared store and replays.
fn run_remote(
    reports: &[(Timestamp, Reading)],
    instances: usize,
    fusion: bool,
    transport_for: TransportForAttempt<'_>,
) -> Run {
    let store = CheckpointStore::in_memory();
    // Long-lived provenance systems (origin = instance 0, remotes = 1..=instances):
    // every attempt gets clones sharing the id counters, so tuple ids stay unique
    // across restarts and the checkpointed provenance prefix cannot collide with
    // ids the rebuilt engines allocate after the restore point.
    let origin_system = GeneaLog::for_instance(0);
    let remote_systems: Vec<GeneaLog> = (0..instances)
        .map(|i| GeneaLog::for_instance(1 + i as u32))
        .collect();

    let (_, (sink, provenance, group)) =
        run_with_recovery(&store, RecoveryConfig::default(), |attempt| {
            let store_remote = Arc::clone(&store);
            let remote_systems = remote_systems.clone();
            let shards = GlShardGroup::from(remote_shard_group_over::<_, Reading, Reading, _, _>(
                "sum",
                instances,
                &*transport_for(attempt),
                QueryConfig::default(),
                move |i| remote_systems[i].clone(),
                move |rq, i, input| {
                    // Every remote engine joins the deployment-global checkpoint
                    // protocol; shard operators need per-instance participant
                    // names so their snapshots do not collide in the shared store.
                    rq.set_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store_remote)));
                    rq.aggregate(
                        &format!("sum[{i}]"),
                        input,
                        window_spec(),
                        sum_key,
                        sum_window,
                    )
                },
            )?);

            let plan = GlPlan::with_config(
                origin_system.clone(),
                PlannerConfig::default()
                    .with_fusion(fusion)
                    .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
            );
            let sums = plan
                .source("readings", VecSource::new(reports.to_vec()))
                .aggregate("sum", window_spec(), sum_key, sum_window, |o: &Reading| o.0)
                .place(shards.placements);
            let (out, provenance) = logical_shard_provenance_sink::<Reading, Reading, _>(
                sums,
                "prov",
                shards.provenance_links,
                Duration::from_hours(24),
            );
            let sink = out.collecting_sink("sink");
            Ok((plan.deploy()?, (sink, provenance, shards.group)))
        })
        .expect("recovery must succeed within the attempt budget");
    // The winning attempt's remote engines drain clean.
    group.wait().expect("winning attempt's remote instances");

    let tuples = canonical_tuples(&sink);
    let mut lineage: Vec<Lineage> = provenance
        .records()
        .iter()
        .map(|r| {
            let key = (r.sink_ts.as_millis(), format!("{:?}", r.sink_data));
            let sources: BTreeSet<SinkTuple> = r
                .sources
                .iter()
                .map(|s| (s.ts.as_millis(), format!("{:?}", s.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    let recoveries = store.recoveries();
    Run {
        tuples,
        lineage,
        recoveries,
        fault_fired: recoveries > 0,
    }
}

// ---------------------------------------------------------------------------
// Scenario D: a keyed join is killed between two barriers
// ---------------------------------------------------------------------------

/// Runs `left ⋈ right` (equal keys, 6 s window, a residual predicate) under
/// GeneaLog with checkpointing on, plain or sharded. When `kill_at_pair` is set,
/// the combine function panics — once, on the first attempt — at that many matched
/// pairs, killing the join (shard) thread somewhere between two barriers. The
/// replacement restores both time windows from the latest complete epoch and has
/// to rebuild its key index from them: post-restore tuples must find their
/// pre-barrier partners, and tuples purged since must stay gone.
fn run_join(
    left: &[(Timestamp, Reading)],
    right: &[(Timestamp, Reading)],
    shards: usize,
    kill_at_pair: Option<u64>,
) -> Run {
    let store = CheckpointStore::in_memory();
    let trigger = OneShot::armed();
    let pairs = Arc::new(AtomicU64::new(0));
    let system = GeneaLog::new();

    let (_, (sink, provenance)) =
        run_with_recovery(&store, RecoveryConfig::default(), |_attempt| {
            let plan = GlPlan::with_config(
                system.clone(),
                PlannerConfig::default()
                    .with_checkpoints(CheckpointConfig::new(INTERVAL, Arc::clone(&store))),
            );
            let trigger = Arc::clone(&trigger);
            let pairs = Arc::clone(&pairs);
            let matched = plan
                .source("left", VecSource::new(left.to_vec()))
                .join(
                    "match",
                    plan.source("right", VecSource::new(right.to_vec())),
                    Duration::from_secs(6),
                    sum_key,
                    sum_key,
                    sum_key,
                    |l: &Reading, r: &Reading| (l.1 + r.1) % 3 != 0,
                    move |l: &Reading, r: &Reading| {
                        if let Some(k) = kill_at_pair {
                            if pairs.fetch_add(1, Ordering::SeqCst) + 1 >= k && trigger.fire() {
                                panic!("injected join failure");
                            }
                        }
                        (l.0, l.1 * 1000 + r.1)
                    },
                )
                .with(Parallelism::shards(shards));
            let (out, provenance) = logical_provenance_sink(matched, "prov");
            let sink = out.collecting_sink("sink");
            Ok((plan.deploy()?, (sink, provenance)))
        })
        .expect("recovery must succeed within the attempt budget");

    Run {
        tuples: canonical_tuples(&sink),
        lineage: canonical_lineage(&provenance),
        recoveries: store.recoveries(),
        fault_fired: kill_at_pair.is_some() && !trigger.is_armed(),
    }
}

/// Strategy: a timestamp-ordered stream of keyed readings spanning several
/// checkpoint epochs and several window closes.
fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..4, 0u64..100, 0u64..5), 8..40).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(key, value, gap)| {
                ts += gap; // non-decreasing; repeated timestamps exercise tie-breaking
                (Timestamp::from_secs(ts), (key, value as i64 - 50))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// **Kill a shard thread mid-stream.** For every shard count in {1, 2, 4} and
    /// fusion on/off, a run whose shard aggregate panics at the `kill_at_close`-th
    /// window close recovers from the latest complete checkpoint and produces the
    /// identical sink bytes and identical GeneaLog contribution sets as the
    /// fault-free run of the same plan.
    #[test]
    fn killed_shard_recovers_byte_identically(
        reports in keyed_readings(),
        kill_at_close in 1u64..5,
    ) {
        for shards in [1usize, 2, 4] {
            for fusion in [true, false] {
                let clean = run_local(&reports, shards, fusion, None);
                prop_assert_eq!(clean.recoveries, 0);
                let recovered = run_local(&reports, shards, fusion, Some(kill_at_close));
                if recovered.fault_fired {
                    prop_assert!(
                        recovered.recoveries >= 1,
                        "the injected panic must push the run through recovery"
                    );
                }
                prop_assert_eq!(&clean.tuples, &recovered.tuples);
                prop_assert_eq!(&clean.lineage, &recovered.lineage);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// **Kill a join between two barriers.** Plain and sharded, a run whose join
    /// panics at its `kill_at_pair`-th match recovers from the latest complete
    /// checkpoint and produces the identical sink bytes and identical GeneaLog
    /// contribution sets as the fault-free run.
    #[test]
    fn killed_keyed_join_recovers_byte_identically(
        left in keyed_readings(),
        right in keyed_readings(),
        kill_at_pair in 1u64..12,
    ) {
        for shards in [1usize, 3] {
            let clean = run_join(&left, &right, shards, None);
            prop_assert_eq!(clean.recoveries, 0);
            let recovered = run_join(&left, &right, shards, Some(kill_at_pair));
            if recovered.fault_fired {
                prop_assert!(
                    recovered.recoveries >= 1,
                    "the injected panic must push the run through recovery"
                );
            }
            prop_assert_eq!(&clean.tuples, &recovered.tuples);
            prop_assert_eq!(&clean.lineage, &recovered.lineage);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// **Sever a remote link mid-stream.** For every remote shard count in
    /// {1, 2, 4} and fusion on/off at the origin, a distributed run whose shard-0
    /// return link is severed before its `sever_at`-th frame recovers — fresh
    /// links, remote window state restored from the shared store, sources
    /// replayed — and produces the identical sink bytes and stitched GeneaLog
    /// contribution sets as the fault-free distributed run.
    #[test]
    fn severed_remote_link_recovers_byte_identically(
        reports in keyed_readings(),
        sever_at in 1u64..5,
    ) {
        let fault = FaultPlan::with_link_faults(LinkFaults::none().severing_before(sever_at));
        let healthy = FaultPlan::default();
        let simulated = || SimulatedTransport::new(NetworkConfig::unlimited());
        for instances in [1usize, 2, 4] {
            for fusion in [true, false] {
                let clean = run_remote(
                    &reports, instances, fusion, &with_link_faults(simulated, &healthy),
                );
                prop_assert_eq!(clean.recoveries, 0);
                let recovered = run_remote(
                    &reports, instances, fusion, &with_link_faults(simulated, &fault),
                );
                prop_assert_eq!(&clean.tuples, &recovered.tuples);
                prop_assert_eq!(&clean.lineage, &recovered.lineage);
            }
        }
    }
}

/// **Kill a real TCP socket between two barriers.** The distributed plan runs over
/// loopback sockets; shard 0's return socket is shut down mid-epoch (no goodbye
/// sentinel, exactly like a crashed node), before its 2nd data frame — i.e.
/// between the first two barrier-delimited epochs of the stream. The dropped
/// socket must flow through the ingress as a link-severed close, push the run
/// through `run_with_recovery`, and the re-dialed attempt must produce the
/// identical sink bytes and stitched GeneaLog contribution sets as a fault-free
/// TCP run of the same plan.
#[test]
fn severed_tcp_socket_mid_epoch_recovers_byte_identically() {
    let reports: Vec<(Timestamp, Reading)> = (0..28u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 3) as Key, i as i64 - 10)))
        .collect();
    for instances in [1usize, 2] {
        let clean = run_remote(&reports, instances, true, &tcp_with_socket_kill(None));
        assert_eq!(clean.recoveries, 0, "fault-free TCP run must not recover");
        let recovered = run_remote(&reports, instances, true, &tcp_with_socket_kill(Some(2)));
        assert!(
            recovered.fault_fired,
            "the socket shutdown must push the run through recovery"
        );
        assert_eq!(clean.tuples, recovered.tuples);
        assert_eq!(clean.lineage, recovered.lineage);
    }
}

/// **Frame faults compose over a real socket.** The same decorator that arms link
/// faults over simulated links wraps the loopback-TCP transport: a data frame of
/// shard 0 dropped above the socket (a sequence gap at the origin's ingress) and the
/// data channel severed above it (a mid-stream close while the socket itself stays
/// up for the sibling channels) must both push the run through recovery and yield
/// the identical sink bytes and stitched GeneaLog contribution sets as the
/// fault-free TCP run.
#[test]
fn link_faults_over_tcp_recover_byte_identically() {
    let reports: Vec<(Timestamp, Reading)> = (0..28u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 3) as Key, i as i64 - 10)))
        .collect();
    let sockets = || TcpLoopbackTransport::new(NetworkConfig::unlimited());
    let healthy = FaultPlan::default();
    for instances in [1usize, 2] {
        let clean = run_remote(
            &reports,
            instances,
            true,
            &with_link_faults(sockets, &healthy),
        );
        assert_eq!(clean.recoveries, 0, "fault-free TCP run must not recover");
        for faults in [
            LinkFaults::none().dropping([1]),
            LinkFaults::none().severing_before(2),
        ] {
            let fault = FaultPlan::with_link_faults(faults);
            let recovered = run_remote(
                &reports,
                instances,
                true,
                &with_link_faults(sockets, &fault),
            );
            assert!(
                recovered.fault_fired,
                "{:?} must push the run through recovery",
                fault.link
            );
            assert_eq!(clean.tuples, recovered.tuples);
            assert_eq!(clean.lineage, recovered.lineage);
        }
    }
}

/// Back-pressure during recovery (regression): with a *bounded* link send queue, a
/// severed return link must not deadlock the deployment. The origin's ingress dies
/// and stops pulling the shared return link, so the remote's sends can fill the
/// bounded queue; the link-layer send timeout must unwedge the remote engines so
/// the failed attempt tears down and the replay completes. Run under a watchdog:
/// the historical failure mode is a hang, not a wrong answer.
#[test]
fn bounded_links_with_replay_do_not_deadlock() {
    let reports: Vec<(Timestamp, Reading)> = (0..32u64)
        .map(|i| (Timestamp::from_secs(i), ((i % 3) as Key, i as i64)))
        .collect();
    let bounded = NetworkConfig::unlimited()
        .with_send_queue_frames(2)
        .with_send_timeout(std::time::Duration::from_millis(200));
    let fault = FaultPlan::with_link_faults(LinkFaults::none().severing_before(2));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let links = || SimulatedTransport::new(bounded);
        let clean = run_remote(
            &reports,
            2,
            true,
            &with_link_faults(links, &FaultPlan::default()),
        );
        let recovered = run_remote(&reports, 2, true, &with_link_faults(links, &fault));
        done_tx.send((clean, recovered)).ok();
    });
    let (clean, recovered) = done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("bounded-queue recovery deadlocked: the return link never unwedged");
    assert_eq!(clean.tuples, recovered.tuples);
    assert_eq!(clean.lineage, recovered.lineage);
}

// ---------------------------------------------------------------------------
// Scenario E: no fault at all — checkpointing on must equal checkpointing off
// ---------------------------------------------------------------------------

/// `sparse ∪ dense → 1 s tumbling count`, optionally checkpointed every 50 source
/// tuples. The sparse source advances a second of event time per tuple and is paced;
/// the dense one advances 10 ms per tuple and is not, so it reaches every barrier
/// first and waits there while the union lets the sparse side run ~50 s ahead. What
/// the dense source sends after each cut is that much older than what was released
/// past it, and must still be counted.
fn skewed_union_counts<P: ProvenanceSystem>(
    system: P,
    checkpoints: bool,
) -> (LogicalPlan<P>, LogicalStream<P, Reading>) {
    let mut config = PlannerConfig::default();
    if checkpoints {
        config = config.with_checkpoints(CheckpointConfig::new(50, CheckpointStore::in_memory()));
    }
    let plan = LogicalPlan::with_config(system, config);
    let readings = |period_ms: u64, key: Key| -> Vec<(Timestamp, Reading)> {
        (0..200)
            .map(|i| (Timestamp::from_millis(i * period_ms), (key, i as i64)))
            .collect()
    };
    let paced = SourceConfig {
        rate: RateLimit::TuplesPerSecond(4_000),
        ..SourceConfig::default()
    };
    let sparse = plan.source_with("sparse", VecSource::new(readings(1_000, 0)), paced);
    let dense = plan.source("dense", VecSource::new(readings(10, 1)));
    let counts = LogicalStream::union("both", vec![sparse, dense]).aggregate(
        "count",
        WindowSpec::tumbling(Duration::from_secs(1)).unwrap(),
        |_: &Reading| 0,
        |w: &WindowView<'_, Key, Reading, P::Meta>| (*w.key, w.payloads().count() as i64),
        |o: &Reading| o.0,
    );
    (plan, counts)
}

fn skewed_union_np(checkpoints: bool) -> Vec<SinkTuple> {
    let (plan, counts) = skewed_union_counts(NoProvenance, checkpoints);
    let sink = counts.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    let tuples = sink.tuples();
    tuples
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect()
}

fn skewed_union_gl(checkpoints: bool) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let (plan, counts) = skewed_union_counts(GeneaLog::new(), checkpoints);
    let (out, provenance) = logical_provenance_sink(counts, "prov");
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();
    (canonical_tuples(&sink), canonical_lineage(&provenance))
}

/// Barriers are alignment points, not event-time promises: a fan-in holding one
/// input at a cut must not let its output watermark pass what that input delivers
/// after the cut, or every window downstream closes on tuples still to come — no
/// fault, no restart, no error, just fewer tuples counted. Repeated because which
/// side waits where is up to the scheduler.
#[test]
fn checkpointed_skewed_union_counts_what_the_uncheckpointed_one_does() {
    let np_off = skewed_union_np(false);
    let (gl_off, lineage_off) = skewed_union_gl(false);
    assert_eq!(np_off, gl_off);
    // 200 one-second windows; the first two also hold the dense source's 200 tuples.
    let first_counts: Vec<&str> = np_off[..3].iter().map(|(_, data)| data.as_str()).collect();
    assert_eq!(first_counts, ["(0, 101)", "(0, 101)", "(0, 1)"]);
    assert_eq!(lineage_off.iter().map(|(_, s)| s.len()).sum::<usize>(), 400);
    for repetition in 0..20 {
        assert_eq!(skewed_union_np(true), np_off, "NP, repetition {repetition}");
        let (gl_on, lineage_on) = skewed_union_gl(true);
        assert_eq!(gl_on, gl_off, "GL, repetition {repetition}");
        assert_eq!(
            lineage_on, lineage_off,
            "GL lineage, repetition {repetition}"
        );
    }
}
