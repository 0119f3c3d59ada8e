//! Quickstart: declare a small monitoring query once on the logical-plan builder,
//! let the planner lower it (fusion, sharding and channel budgets are *its* job),
//! enable GeneaLog provenance, and trace every alert back to the exact source
//! readings that caused it.
//!
//! Run with `cargo run --release --example quickstart`.

use genealog::prelude::*;

fn main() -> Result<(), SpeError> {
    // A toy temperature-monitoring query: sensor readings arrive every 30 seconds; an
    // alert is raised when three readings above 90 degrees fall in a 2-minute window.
    let readings: Vec<(u32, i64)> = vec![
        (1, 72),
        (2, 95),
        (1, 91),
        (1, 93),
        (2, 70),
        (1, 97),
        (2, 96),
        (1, 60),
    ];

    // 1. Declare the query once on the logical plan. No physical decisions here:
    //    whether `hot` fuses with its neighbours, or `hot-count` runs sharded, is
    //    decided by the planner at lowering time (annotate with
    //    `.with(Parallelism::shards(n))` / `.place(..)` to shard the aggregate —
    //    the declaration itself never changes).
    let plan = GlPlan::new(GeneaLog::new());
    let alerts = plan
        .source("sensors", VecSource::with_period(readings, 30_000))
        .filter("hot", |(_, temp): &(u32, i64)| *temp > 90)
        .aggregate(
            "hot-count",
            WindowSpec::new(Duration::from_secs(120), Duration::from_secs(30))?,
            |(sensor, _): &(u32, i64)| *sensor,
            |window: &WindowView<'_, u32, (u32, i64), GlMeta>| (*window.key, window.len()),
            |(sensor, _): &(u32, usize)| *sensor,
        )
        .filter("alerts", |(_, n): &(u32, usize)| *n >= 3);

    // 2. Attach the provenance sink (the single-stream unfolder of the paper's §5).
    let (alert_stream, provenance) = logical_provenance_sink(alerts, "provenance");
    let alert_sink = alert_stream.collecting_sink("alert-sink");

    // 3. Lower the plan and run the physical query to completion.
    plan.deploy()?.wait()?;

    // 4. Inspect the alerts and, for each, the source readings that explain it.
    println!("{} alert(s) raised\n", alert_sink.len());
    for assignment in provenance.assignments() {
        let (sensor, count) = assignment.sink_data;
        println!(
            "alert at {}: sensor {sensor} had {count} hot readings; caused by {} source reading(s):",
            assignment.sink_ts,
            assignment.source_count()
        );
        for record in assignment.source_records::<(u32, i64)>() {
            println!(
                "  <- {} sensor {} read {} degrees (tuple id {})",
                record.ts, record.data.0, record.data.1, record.id
            );
        }
        println!();
    }

    // The provenance can also be persisted, as the evaluation does.
    let mut buffer = Vec::new();
    provenance.write_to(&mut buffer).expect("in-memory write");
    println!(
        "--- provenance log ({} bytes) ---\n{}",
        buffer.len(),
        String::from_utf8_lossy(&buffer)
    );
    Ok(())
}
