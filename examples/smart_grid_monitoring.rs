//! Smart-grid monitoring: detect day-long blackouts (Q3) and anomalous meters (Q4) and
//! trace every alert back to the hourly readings that caused it.
//!
//! Run with `cargo run --release --example smart_grid_monitoring`.

use genealog::prelude::*;
use genealog_workloads::queries::{build_q3, build_q4};
use genealog_workloads::smart_grid::{SmartGridConfig, SmartGridGenerator};
use genealog_workloads::types::MeterReading;

fn main() -> Result<(), SpeError> {
    let config = SmartGridConfig {
        meters: 50,
        days: 3,
        ..SmartGridConfig::default()
    };
    println!(
        "simulating {} smart meters for {} days ({} hourly readings)...\n",
        config.meters,
        config.days,
        config.total_readings()
    );

    // --- Q3: long-term blackout detection ------------------------------------------
    // Declared on the logical builder; the workload's physical stage builder plugs
    // in through the `raw` escape hatch and the planner lowers (and fuses) the plan.
    let q3 = GlPlan::new(GeneaLog::new());
    let alerts = q3
        .source("smart-grid", SmartGridGenerator::new(config))
        .raw("q3", build_q3);
    let (stream, provenance) = logical_provenance_sink(alerts, "q3-provenance");
    stream.discard();
    q3.deploy()?.wait()?;

    for assignment in provenance.assignments() {
        println!(
            "Q3 blackout alert on day starting {}: {} meters reported zero consumption",
            assignment.sink_ts, assignment.sink_data.zero_meters
        );
        let meters: std::collections::BTreeSet<u32> = assignment
            .source_payloads::<MeterReading>()
            .iter()
            .map(|r| r.meter_id)
            .collect();
        println!(
            "  proven by {} hourly readings from meters {:?}",
            assignment.source_count(),
            meters
        );
    }

    // --- Q4: anomalous meter detection ----------------------------------------------
    let q4 = GlPlan::new(GeneaLog::new());
    let alerts = q4
        .source("smart-grid", SmartGridGenerator::new(config))
        .raw("q4", build_q4);
    let (stream, provenance) = logical_provenance_sink(alerts, "q4-provenance");
    stream.discard();
    q4.deploy()?.wait()?;

    let assignments = provenance.assignments();
    println!("\nQ4: {} anomaly alert(s)", assignments.len());
    for assignment in assignments.iter().take(5) {
        println!(
            "  meter {} is inconsistent (diff {}), {} contributing readings, midnight reading: {:?}",
            assignment.sink_data.meter_id,
            assignment.sink_data.consumption_diff,
            assignment.source_count(),
            assignment
                .source_payloads::<MeterReading>()
                .iter()
                .find(|r| r.hour_of_day == 0)
                .map(|r| r.consumption)
        );
    }
    if assignments.len() > 5 {
        println!("  ... and {} more", assignments.len() - 5);
    }
    Ok(())
}
