//! Vehicular monitoring on the Linear Road workload: detect broken-down cars (Q1) and
//! accidents (Q2) and show, for every alert, the position reports that prove it.
//!
//! Run with `cargo run --release --example linear_road_accidents`.

use genealog::prelude::*;
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::queries::{build_q1, build_q2};
use genealog_workloads::types::PositionReport;

fn main() -> Result<(), SpeError> {
    let config = LinearRoadConfig {
        cars: 60,
        rounds: 40,
        ..LinearRoadConfig::default()
    };
    println!(
        "simulating {} cars for {} rounds ({} position reports)...\n",
        config.cars,
        config.rounds,
        config.total_reports()
    );

    // --- Q1: broken-down vehicles -------------------------------------------------
    // Declared on the logical builder; the workload's physical stage builder plugs
    // in through the `raw` escape hatch and the planner lowers (and fuses) the plan.
    let q1 = GlPlan::new(GeneaLog::new());
    let alerts = q1
        .source("linear-road", LinearRoadGenerator::new(config))
        .raw("q1", build_q1);
    let (stream, provenance) = logical_provenance_sink(alerts, "q1-provenance");
    stream.discard();
    q1.deploy()?.wait()?;

    let assignments = provenance.assignments();
    println!("Q1: {} broken-down-car alert(s)", assignments.len());
    for assignment in assignments.iter().take(3) {
        println!(
            "  car {} stopped at {} (window {}), proven by:",
            assignment.sink_data.car_id, assignment.sink_data.last_pos, assignment.sink_ts
        );
        for record in assignment.source_records::<PositionReport>() {
            println!(
                "    <- {} car {} speed {} pos {}",
                record.ts, record.data.car_id, record.data.speed, record.data.pos
            );
        }
    }
    if assignments.len() > 3 {
        println!("  ... and {} more", assignments.len() - 3);
    }

    // --- Q2: accidents (two or more cars stopped at the same position) -------------
    let q2 = GlPlan::new(GeneaLog::new());
    let alerts = q2
        .source("linear-road", LinearRoadGenerator::new(config))
        .raw("q2", build_q2);
    let (stream, provenance) = logical_provenance_sink(alerts, "q2-provenance");
    stream.discard();
    q2.deploy()?.wait()?;

    let assignments = provenance.assignments();
    println!("\nQ2: {} accident alert(s)", assignments.len());
    for assignment in assignments.iter().take(3) {
        println!(
            "  accident at position {} involving {} car(s); {} contributing reports:",
            assignment.sink_data.pos,
            assignment.sink_data.stopped_cars,
            assignment.source_count()
        );
        let cars: std::collections::BTreeSet<u32> = assignment
            .source_payloads::<PositionReport>()
            .iter()
            .map(|r| r.car_id)
            .collect();
        println!("    cars involved: {cars:?}");
    }
    Ok(())
}
