//! Tuple schemas of the evaluation queries.
//!
//! Source schemas follow the paper: Linear Road position reports are
//! `⟨ts, car_id, speed, pos⟩` and smart-meter readings are `⟨ts, meter_id, cons⟩`
//! (the timestamp lives on the engine tuple, not in the payload). Intermediate and
//! alert schemas mirror the figures of §7.

use genealog_spe::impl_codec_struct;

/// A Linear Road position report (`⟨car_id, speed, pos⟩`), emitted every 30 seconds
/// per car.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PositionReport {
    /// Vehicle identifier.
    pub car_id: u32,
    /// Reported speed (0 when the car is stationary).
    pub speed: u32,
    /// Position on the expressway (single scalar position, as in the paper's
    /// simplified schema).
    pub pos: u32,
}

/// Output of Q1's Aggregate and of the final Q1 Filter: per-car statistics over the
/// 120-second window (`⟨car_id, count, dist_pos, last_pos⟩`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoppedCarCount {
    /// Vehicle identifier (the group-by key).
    pub car_id: u32,
    /// Number of zero-speed reports of the car in the window.
    pub count: u32,
    /// Number of distinct positions among those reports.
    pub distinct_pos: u32,
    /// Last reported position (the extra field Q2 groups by).
    pub last_pos: u32,
}

/// Output of Q2: an accident alert (`⟨last_pos, count⟩` with `count >= 2` stopped cars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccidentAlert {
    /// Position at which the stopped cars were detected.
    pub pos: u32,
    /// Number of distinct stopped cars at the position.
    pub stopped_cars: u32,
}

/// A smart-meter reading (`⟨meter_id, cons⟩`), emitted hourly.
///
/// The reading also carries the local hour of day (0–23); the paper's Q4 filters
/// midnight readings with a predicate on the timestamp (`ts % 24 == 0`), and exposing
/// the hour in the payload lets the same predicate be expressed with a standard
/// payload Filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeterReading {
    /// Meter identifier.
    pub meter_id: u32,
    /// Energy consumed in the past hour (integer consumption units).
    pub consumption: u32,
    /// Local hour of day of the reading (0 = midnight).
    pub hour_of_day: u32,
}

/// Output of the per-meter daily aggregation in Q3/Q4 (`⟨meter_id, cons_sum⟩`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DailyConsumption {
    /// Meter identifier (the group-by key).
    pub meter_id: u32,
    /// Total consumption over the day.
    pub total: u32,
}

/// Output of Q3: a blackout alert (`⟨count⟩` meters with zero daily consumption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlackoutAlert {
    /// Number of meters that reported zero consumption for the whole day.
    pub zero_meters: u32,
}

/// Output of Q4: an anomaly alert
/// (`⟨meter_id, cons_diff⟩` where the midnight reading is inconsistent with the daily total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnomalyAlert {
    /// Meter identifier.
    pub meter_id: u32,
    /// Absolute difference between the extrapolated midnight consumption and the
    /// daily total.
    pub consumption_diff: u32,
}

// One line per schema makes it shippable over a link *and* durable in a window
// checkpoint (see `genealog_spe::codec`).
impl_codec_struct!(PositionReport { car_id, speed, pos });
impl_codec_struct!(StoppedCarCount {
    car_id,
    count,
    distinct_pos,
    last_pos
});
impl_codec_struct!(AccidentAlert { pos, stopped_cars });
impl_codec_struct!(MeterReading {
    meter_id,
    consumption,
    hour_of_day
});
impl_codec_struct!(DailyConsumption { meter_id, total });
impl_codec_struct!(BlackoutAlert { zero_meters });
impl_codec_struct!(AnomalyAlert {
    meter_id,
    consumption_diff
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schemas_are_value_types() {
        fn assert_value<T: Copy + Eq + std::hash::Hash + std::fmt::Debug + Send + Sync>() {}
        assert_value::<PositionReport>();
        assert_value::<StoppedCarCount>();
        assert_value::<AccidentAlert>();
        assert_value::<MeterReading>();
        assert_value::<DailyConsumption>();
        assert_value::<BlackoutAlert>();
        assert_value::<AnomalyAlert>();
    }

    #[test]
    fn reports_hash_and_compare_by_value() {
        let a = PositionReport {
            car_id: 1,
            speed: 0,
            pos: 7,
        };
        let b = PositionReport {
            car_id: 1,
            speed: 0,
            pos: 7,
        };
        assert_eq!(a, b);
        let set: HashSet<PositionReport> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }
}
