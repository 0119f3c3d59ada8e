//! A single-stream relay of Q4's two intermediate streams.
//!
//! In Figure 11C the first SPE instance of Q4 ships *two* streams (the per-meter daily
//! totals and the midnight readings) to the second instance. The generic two-stage
//! distributed deployments of `genealog-distributed` move exactly one stream between
//! the processing instances, so for the distributed benchmarks the two streams are
//! multiplexed onto one link as a tagged union ([`Q4Relay`]) and split again on the
//! receiving side. The extra Map/Union/Multiplex operators do not change which source
//! tuples contribute to each alert, so provenance (and the workload shipped across the
//! network) is unaffected.

use genealog_spe::provenance::ProvenanceSystem;
use genealog_spe::query::{Query, StreamRef};

use genealog_workloads::queries::{q4_stage1, q4_stage2};
use genealog_workloads::types::{AnomalyAlert, DailyConsumption, MeterReading};

/// One element of the combined Q4 intermediate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Q4Relay {
    /// A per-meter daily consumption total (the Aggregate branch).
    Daily(DailyConsumption),
    /// A midnight reading (the Filter branch).
    Midnight(MeterReading),
}

genealog_spe::impl_codec_struct!(
    enum Q4Relay {
        Daily(DailyConsumption) = 0,
        Midnight(MeterReading) = 1,
    }
);

/// Stage 1 of the distributed Q4: the original stage 1 followed by the relay union.
pub fn q4_relay_stage1<P: ProvenanceSystem>(
    q: &mut Query<P>,
    readings: StreamRef<MeterReading, P::Meta>,
) -> StreamRef<Q4Relay, P::Meta> {
    let (daily, midnight) = q4_stage1(q, readings);
    let daily = q.map_one("q4-relay-daily", daily, |d: &DailyConsumption| {
        Q4Relay::Daily(*d)
    });
    let midnight = q.map_one("q4-relay-midnight", midnight, |m: &MeterReading| {
        Q4Relay::Midnight(*m)
    });
    q.union("q4-relay-union", vec![daily, midnight])
}

/// Stage 2 of the distributed Q4: splits the relay back into its two streams and runs
/// the original stage 2 (Join + threshold Filter).
pub fn q4_relay_stage2<P: ProvenanceSystem>(
    q: &mut Query<P>,
    relay: StreamRef<Q4Relay, P::Meta>,
) -> StreamRef<AnomalyAlert, P::Meta> {
    let branches = q.multiplex("q4-relay-split", relay, 2);
    let mut branches = branches.into_iter();
    let first = branches.next().expect("two branches");
    let second = branches.next().expect("two branches");
    let daily = q.map("q4-relay-extract-daily", first, |r: &Q4Relay| match r {
        Q4Relay::Daily(d) => vec![*d],
        Q4Relay::Midnight(_) => Vec::new(),
    });
    let midnight = q.map("q4-relay-extract-midnight", second, |r: &Q4Relay| match r {
        Q4Relay::Midnight(m) => vec![*m],
        Q4Relay::Daily(_) => Vec::new(),
    });
    q4_stage2(q, daily, midnight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genealog_spe::codec::{Decode, Encode};
    use genealog_spe::provenance::NoProvenance;
    use genealog_workloads::queries::build_q4;
    use genealog_workloads::smart_grid::{SmartGridConfig, SmartGridGenerator};

    #[test]
    fn relay_round_trips_on_the_wire() {
        let daily = Q4Relay::Daily(DailyConsumption {
            meter_id: 3,
            total: 240,
        });
        let midnight = Q4Relay::Midnight(MeterReading {
            meter_id: 3,
            consumption: 10,
            hour_of_day: 0,
        });
        for relay in [daily, midnight] {
            let decoded = Q4Relay::from_bytes(&relay.to_bytes()).unwrap();
            assert_eq!(decoded, relay);
        }
        assert!(Q4Relay::from_bytes(&[7]).is_err());
    }

    #[test]
    fn relayed_q4_produces_the_same_alerts_as_the_direct_q4() {
        let config = SmartGridConfig::default();

        let mut direct = Query::new(NoProvenance);
        let readings = direct.source("sg", SmartGridGenerator::new(config));
        let alerts = build_q4(&mut direct, readings);
        let direct_out = direct.collecting_sink("alerts", alerts);
        direct.deploy().unwrap().wait().unwrap();

        let mut relayed = Query::new(NoProvenance);
        let readings = relayed.source("sg", SmartGridGenerator::new(config));
        let relay = q4_relay_stage1(&mut relayed, readings);
        let alerts = q4_relay_stage2(&mut relayed, relay);
        let relayed_out = relayed.collecting_sink("alerts", alerts);
        relayed.deploy().unwrap().wait().unwrap();

        let direct_alerts: Vec<_> = direct_out.tuples().iter().map(|t| (t.ts, t.data)).collect();
        let mut relayed_alerts: Vec<_> = relayed_out
            .tuples()
            .iter()
            .map(|t| (t.ts, t.data))
            .collect();
        relayed_alerts.sort_by_key(|(ts, a)| (*ts, a.meter_id));
        let mut direct_sorted = direct_alerts.clone();
        direct_sorted.sort_by_key(|(ts, a)| (*ts, a.meter_id));
        assert_eq!(direct_sorted, relayed_alerts);
        assert!(!direct_alerts.is_empty());
    }
}
