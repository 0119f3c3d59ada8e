//! The four evaluation queries (Q1–Q4) as reusable builders.
//!
//! Every builder is generic over the engine's
//! [`ProvenanceSystem`], so the same query
//! graph can be deployed with `NoProvenance` (NP), `genealog::GeneaLog` (GL) or
//! `genealog_baseline::AriadneBaseline` (BL).
//!
//! Each query is exposed both as a single function building the whole graph
//! (`build_qN`) and as two *stages* matching the distributed deployments of
//! Figures 7, 9C, 10C and 11C (`qN_stage1` deployed on the first SPE instance,
//! `qN_stage2` on the second); the third instance of those deployments only runs the
//! provenance MU operator, which lives in `genealog::unfolder`.

use std::collections::BTreeSet;

use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::provenance::ProvenanceSystem;
use genealog_spe::query::{Query, StreamRef};
use genealog_spe::{Duration, WindowSpec};

use crate::types::{
    AccidentAlert, AnomalyAlert, BlackoutAlert, DailyConsumption, MeterReading, PositionReport,
    StoppedCarCount,
};

/// Window size of the Q1/Q2 stopped-car Aggregate (120 s).
pub const Q1_WINDOW_SIZE: Duration = Duration::from_millis(120_000);
/// Window advance of the Q1/Q2 stopped-car Aggregate (30 s).
pub const Q1_WINDOW_ADVANCE: Duration = Duration::from_millis(30_000);
/// Number of consecutive zero-speed reports that define a stopped car.
pub const Q1_STOPPED_REPORTS: u32 = 4;
/// Window size/advance of the Q2 accident Aggregate (30 s).
pub const Q2_ACCIDENT_WINDOW: Duration = Duration::from_millis(30_000);
/// Minimum number of stopped cars at one position that defines an accident.
pub const Q2_MIN_STOPPED_CARS: u32 = 2;
/// Window of the daily aggregations in Q3/Q4 (1 day).
pub const Q3_DAY_WINDOW: Duration = Duration::from_millis(86_400_000);
/// Minimum number of zero-consumption meters that defines a blackout.
pub const Q3_MIN_ZERO_METERS: u32 = 7;
/// Window of the Q4 Join (1 hour).
pub const Q4_JOIN_WINDOW: Duration = Duration::from_millis(3_600_000);
/// Threshold on the consumption difference that defines a Q4 anomaly.
pub const Q4_ANOMALY_THRESHOLD: u32 = 200;

fn q1_window() -> WindowSpec {
    WindowSpec::new(Q1_WINDOW_SIZE, Q1_WINDOW_ADVANCE).expect("constants are valid")
}

fn day_window() -> WindowSpec {
    WindowSpec::tumbling(Q3_DAY_WINDOW).expect("constants are valid")
}

// ---------------------------------------------------------------------------
// Q1 — broken-down vehicle detection (Linear Road)
// ---------------------------------------------------------------------------

/// First stage of Q1 (deployed on SPE instance 1 in Figure 7): zero-speed Filter
/// followed by the per-car 120 s / 30 s Aggregate.
pub fn q1_stage1<P: ProvenanceSystem>(
    q: &mut Query<P>,
    reports: StreamRef<PositionReport, P::Meta>,
) -> StreamRef<StoppedCarCount, P::Meta> {
    let stopped = q.filter("q1-speed0", reports, |r: &PositionReport| r.speed == 0);
    q.aggregate(
        "q1-count",
        stopped,
        q1_window(),
        |r: &PositionReport| r.car_id,
        |w: &WindowView<'_, u32, PositionReport, P::Meta>| {
            let mut distinct = BTreeSet::new();
            let mut last_pos = 0;
            let mut count = 0u32;
            for report in w.payloads() {
                distinct.insert(report.pos);
                last_pos = report.pos;
                count += 1;
            }
            StoppedCarCount {
                car_id: *w.key,
                count,
                distinct_pos: distinct.len() as u32,
                last_pos,
            }
        },
    )
}

/// Second stage of Q1 (SPE instance 2 in Figure 7): the `count == 4 && dist_pos == 1`
/// Filter producing the broken-down-car alerts.
pub fn q1_stage2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    counts: StreamRef<StoppedCarCount, P::Meta>,
) -> StreamRef<StoppedCarCount, P::Meta> {
    q.filter("q1-alert", counts, |c: &StoppedCarCount| {
        c.count == Q1_STOPPED_REPORTS && c.distinct_pos == 1
    })
}

/// Builds the whole Q1 graph on one query.
pub fn build_q1<P: ProvenanceSystem>(
    q: &mut Query<P>,
    reports: StreamRef<PositionReport, P::Meta>,
) -> StreamRef<StoppedCarCount, P::Meta> {
    let counts = q1_stage1(q, reports);
    q1_stage2(q, counts)
}

/// Time span the provenance of a Q1 sink tuple can reach into the past (used to size
/// the MU Join window in distributed deployments).
pub fn q1_provenance_window() -> Duration {
    Q1_WINDOW_SIZE + Q1_WINDOW_ADVANCE
}

// ---------------------------------------------------------------------------
// Q2 — accident detection (Linear Road)
// ---------------------------------------------------------------------------

/// Second stage of Q2 (SPE instance 2 in Figure 9C): Q1's alert Filter, the per-position
/// 30 s Aggregate counting distinct stopped cars, and the `count >= 2` Filter.
pub fn q2_stage2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    counts: StreamRef<StoppedCarCount, P::Meta>,
) -> StreamRef<AccidentAlert, P::Meta> {
    let stopped = q.filter("q2-stopped", counts, |c: &StoppedCarCount| {
        c.count == Q1_STOPPED_REPORTS && c.distinct_pos == 1
    });
    let per_position = q.aggregate(
        "q2-accident-count",
        stopped,
        WindowSpec::tumbling(Q2_ACCIDENT_WINDOW).expect("constant window"),
        |c: &StoppedCarCount| c.last_pos,
        |w: &WindowView<'_, u32, StoppedCarCount, P::Meta>| {
            let distinct_cars: BTreeSet<u32> = w.payloads().map(|c| c.car_id).collect();
            AccidentAlert {
                pos: *w.key,
                stopped_cars: distinct_cars.len() as u32,
            }
        },
    );
    q.filter("q2-alert", per_position, |a: &AccidentAlert| {
        a.stopped_cars >= Q2_MIN_STOPPED_CARS
    })
}

/// Builds the whole Q2 graph on one query (stage 1 is shared with Q1).
pub fn build_q2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    reports: StreamRef<PositionReport, P::Meta>,
) -> StreamRef<AccidentAlert, P::Meta> {
    let counts = q1_stage1(q, reports);
    q2_stage2(q, counts)
}

/// Provenance reach of a Q2 sink tuple (see [`q1_provenance_window`]).
pub fn q2_provenance_window() -> Duration {
    Q1_WINDOW_SIZE + Q1_WINDOW_ADVANCE + Q2_ACCIDENT_WINDOW
}

// ---------------------------------------------------------------------------
// Q3 — long-term blackout detection (Smart Grid)
// ---------------------------------------------------------------------------

/// First stage of Q3 (SPE instance 1 in Figure 10C): per-meter daily consumption sum
/// followed by the zero-consumption Filter.
pub fn q3_stage1<P: ProvenanceSystem>(
    q: &mut Query<P>,
    readings: StreamRef<MeterReading, P::Meta>,
) -> StreamRef<DailyConsumption, P::Meta> {
    let daily = q.aggregate(
        "q3-daily-sum",
        readings,
        day_window(),
        |r: &MeterReading| r.meter_id,
        |w: &WindowView<'_, u32, MeterReading, P::Meta>| DailyConsumption {
            meter_id: *w.key,
            total: w.payloads().map(|r| r.consumption).sum(),
        },
    );
    q.filter("q3-zero", daily, |d: &DailyConsumption| d.total == 0)
}

/// Second stage of Q3 (SPE instance 2 in Figure 10C): the daily count of
/// zero-consumption meters and the `count > 7` Filter.
pub fn q3_stage2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    zero_days: StreamRef<DailyConsumption, P::Meta>,
) -> StreamRef<BlackoutAlert, P::Meta> {
    let per_day = q.aggregate(
        "q3-zero-count",
        zero_days,
        day_window(),
        |_: &DailyConsumption| 0u8,
        |w: &WindowView<'_, u8, DailyConsumption, P::Meta>| BlackoutAlert {
            zero_meters: w.len() as u32,
        },
    );
    q.filter("q3-alert", per_day, |a: &BlackoutAlert| {
        a.zero_meters > Q3_MIN_ZERO_METERS
    })
}

/// Builds the whole Q3 graph on one query.
pub fn build_q3<P: ProvenanceSystem>(
    q: &mut Query<P>,
    readings: StreamRef<MeterReading, P::Meta>,
) -> StreamRef<BlackoutAlert, P::Meta> {
    let zero_days = q3_stage1(q, readings);
    q3_stage2(q, zero_days)
}

/// Provenance reach of a Q3 sink tuple: two nested day-long windows.
pub fn q3_provenance_window() -> Duration {
    Q3_DAY_WINDOW + Q3_DAY_WINDOW + Duration::from_hours(1)
}

// ---------------------------------------------------------------------------
// Q4 — meter anomaly detection (Smart Grid)
// ---------------------------------------------------------------------------

/// First stage of Q4 (SPE instance 1 in Figure 11C): the Multiplex splitting the
/// readings into the per-meter daily Aggregate and the midnight Filter. Returns the
/// two streams that the second stage joins.
pub fn q4_stage1<P: ProvenanceSystem>(
    q: &mut Query<P>,
    readings: StreamRef<MeterReading, P::Meta>,
) -> (
    StreamRef<DailyConsumption, P::Meta>,
    StreamRef<MeterReading, P::Meta>,
) {
    let branches = q.multiplex("q4-mux", readings, 2);
    let mut branches = branches.into_iter();
    let to_aggregate = branches.next().expect("two branches");
    let to_filter = branches.next().expect("two branches");
    let daily = q.aggregate(
        "q4-daily-sum",
        to_aggregate,
        day_window(),
        |r: &MeterReading| r.meter_id,
        |w: &WindowView<'_, u32, MeterReading, P::Meta>| DailyConsumption {
            meter_id: *w.key,
            total: w.payloads().map(|r| r.consumption).sum(),
        },
    );
    let midnight = q.filter("q4-midnight", to_filter, |r: &MeterReading| {
        r.hour_of_day == 0
    });
    (daily, midnight)
}

/// Second stage of Q4 (SPE instance 2 in Figure 11C): the one-hour Join of the daily
/// totals with the midnight readings and the anomaly-threshold Filter.
pub fn q4_stage2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    daily: StreamRef<DailyConsumption, P::Meta>,
    midnight: StreamRef<MeterReading, P::Meta>,
) -> StreamRef<AnomalyAlert, P::Meta> {
    let joined = q.join(
        "q4-join",
        daily,
        midnight,
        Q4_JOIN_WINDOW,
        |d: &DailyConsumption| d.meter_id,
        |r: &MeterReading| r.meter_id,
        |_: &DailyConsumption, _: &MeterReading| true,
        |d: &DailyConsumption, r: &MeterReading| AnomalyAlert {
            meter_id: d.meter_id,
            consumption_diff: (r.consumption * 24).abs_diff(d.total),
        },
    );
    q.filter("q4-alert", joined, |a: &AnomalyAlert| {
        a.consumption_diff > Q4_ANOMALY_THRESHOLD
    })
}

/// Builds the whole Q4 graph on one query.
pub fn build_q4<P: ProvenanceSystem>(
    q: &mut Query<P>,
    readings: StreamRef<MeterReading, P::Meta>,
) -> StreamRef<AnomalyAlert, P::Meta> {
    let (daily, midnight) = q4_stage1(q, readings);
    q4_stage2(q, daily, midnight)
}

/// Provenance reach of a Q4 sink tuple: one day-long window plus the Join window.
pub fn q4_provenance_window() -> Duration {
    Q3_DAY_WINDOW + Q4_JOIN_WINDOW + Duration::from_hours(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_road::{LinearRoadConfig, LinearRoadGenerator};
    use crate::smart_grid::{SmartGridConfig, SmartGridGenerator};
    use genealog_spe::provenance::NoProvenance;

    #[test]
    fn q1_detects_exactly_the_broken_down_cars() {
        let config = LinearRoadConfig::default();
        let generator = LinearRoadGenerator::new(config);
        let expected: std::collections::BTreeSet<u32> =
            generator.breakdown_cars().into_iter().collect();

        let mut q = Query::new(NoProvenance);
        let reports = q.source("linear-road", generator);
        let alerts = build_q1(&mut q, reports);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();

        let detected: std::collections::BTreeSet<u32> =
            out.tuples().iter().map(|t| t.data.car_id).collect();
        assert_eq!(detected, expected);
        // Every alert has exactly 4 zero-speed reports at one position.
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.data.count == 4 && t.data.distinct_pos == 1));
    }

    #[test]
    fn q2_detects_exactly_the_accident_positions() {
        let config = LinearRoadConfig::default();
        let generator = LinearRoadGenerator::new(config);
        let accident_groups = generator.accident_groups();
        assert!(!accident_groups.is_empty());

        let mut q = Query::new(NoProvenance);
        let reports = q.source("linear-road", generator);
        let alerts = build_q2(&mut q, reports);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();

        let alerts = out.tuples();
        assert!(!alerts.is_empty());
        assert!(alerts.iter().all(|t| t.data.stopped_cars >= 2));
        // Each accident group (>= 2 cars stopped at one position) is reported at least once.
        assert!(alerts.len() >= accident_groups.len());
    }

    #[test]
    fn q3_detects_the_blackout_day() {
        let config = SmartGridConfig::default();
        let mut q = Query::new(NoProvenance);
        let readings = q.source("smart-grid", SmartGridGenerator::new(config));
        let alerts = build_q3(&mut q, readings);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();

        let alerts = out.tuples();
        assert_eq!(alerts.len(), 1, "exactly one blackout day is injected");
        assert_eq!(alerts[0].data.zero_meters, config.blackout_meters);
        // The alert carries the blackout day's timestamp.
        assert_eq!(
            alerts[0].ts.as_millis(),
            config.blackout_day as u64 * Q3_DAY_WINDOW.as_millis()
        );
    }

    #[test]
    fn q3_raises_no_alert_without_enough_blackout_meters() {
        let config = SmartGridConfig {
            blackout_meters: 5, // below the > 7 threshold
            ..SmartGridConfig::default()
        };
        let mut q = Query::new(NoProvenance);
        let readings = q.source("smart-grid", SmartGridGenerator::new(config));
        let alerts = build_q3(&mut q, readings);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn q4_detects_exactly_the_anomalous_meters() {
        let config = SmartGridConfig::default();
        let generator = SmartGridGenerator::new(config);
        let expected: std::collections::BTreeSet<u32> =
            generator.anomalous_meters().into_iter().collect();
        assert!(!expected.is_empty());

        let mut q = Query::new(NoProvenance);
        let readings = q.source("smart-grid", generator);
        let alerts = build_q4(&mut q, readings);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();

        let detected: std::collections::BTreeSet<u32> =
            out.tuples().iter().map(|t| t.data.meter_id).collect();
        assert_eq!(detected, expected);
        assert!(out
            .tuples()
            .iter()
            .all(|t| t.data.consumption_diff > Q4_ANOMALY_THRESHOLD));
    }

    #[test]
    fn healthy_meters_never_trigger_q4() {
        let config = SmartGridConfig {
            anomaly_every: 0,
            blackout_meters: 0,
            ..SmartGridConfig::default()
        };
        let mut q = Query::new(NoProvenance);
        let readings = q.source("smart-grid", SmartGridGenerator::new(config));
        let alerts = build_q4(&mut q, readings);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn provenance_windows_cover_the_query_windows() {
        assert!(q1_provenance_window() >= Q1_WINDOW_SIZE);
        assert!(q2_provenance_window() >= Q1_WINDOW_SIZE + Q2_ACCIDENT_WINDOW);
        assert!(q3_provenance_window() >= Q3_DAY_WINDOW + Q3_DAY_WINDOW);
        assert!(q4_provenance_window() >= Q3_DAY_WINDOW + Q4_JOIN_WINDOW);
    }

    #[test]
    fn stage_split_equals_full_query_for_q1() {
        let config = LinearRoadConfig::small();
        // Full query.
        let mut q_full = Query::new(NoProvenance);
        let reports = q_full.source("lr", LinearRoadGenerator::new(config));
        let alerts = build_q1(&mut q_full, reports);
        let out_full = q_full.collecting_sink("alerts", alerts);
        q_full.deploy().unwrap().wait().unwrap();
        // Staged query (still within one process, but composed from the two stages).
        let mut q_staged = Query::new(NoProvenance);
        let reports = q_staged.source("lr", LinearRoadGenerator::new(config));
        let counts = q1_stage1(&mut q_staged, reports);
        let alerts = q1_stage2(&mut q_staged, counts);
        let out_staged = q_staged.collecting_sink("alerts", alerts);
        q_staged.deploy().unwrap().wait().unwrap();

        let full: Vec<_> = out_full.tuples().iter().map(|t| (t.ts, t.data)).collect();
        let staged: Vec<_> = out_staged.tuples().iter().map(|t| (t.ts, t.data)).collect();
        assert_eq!(full, staged);
    }
}
