//! Key-partitioned parallel execution with provenance, on the declarative builder:
//! a Smart-Grid-style keyed aggregate is *declared once* and annotated with
//! `.with(Parallelism::shards(4))` — the planner inserts the shuffle exchange, the
//! four shard instances and the provenance-safe fan-in, and every alert's
//! provenance still resolves to exactly the readings of its own meter.
//!
//! Run with: `cargo run --release --example parallel_aggregate`

use genealog::prelude::*;

fn main() {
    let meters: u32 = 16;
    let readings_per_meter: u64 = 48;

    // One reading per meter per 30 minutes.
    let mut readings: Vec<(Timestamp, (u32, i64))> = Vec::new();
    for round in 0..readings_per_meter {
        for meter in 0..meters {
            let ts = Timestamp::from_secs(round * 1_800);
            let load = ((round * 7 + meter as u64 * 13) % 50) as i64;
            readings.push((ts, (meter, load)));
        }
    }

    // Total load per meter over tumbling 4-hour windows; the shard count is an
    // annotation, not a different method. The `spike` filter after the aggregate
    // stays *inside* the shard region: the planner runs it per shard, ahead of the
    // canonical fan-in, on each shard's thread behind its aggregate (`load+spike`).
    let plan = GlPlan::new(GeneaLog::new());
    let spikes = plan
        .source("meters", VecSource::new(readings))
        .aggregate(
            "load",
            WindowSpec::tumbling(Duration::from_hours(4)).expect("valid window"),
            |r: &(u32, i64)| r.0,
            |w: &WindowView<'_, u32, (u32, i64), GlMeta>| {
                (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
            },
            |o: &(u32, i64)| o.0,
        )
        .with(Parallelism::shards(4))
        .filter("spike", |(_, total): &(u32, i64)| *total > 200);

    let (out, provenance) = logical_provenance_sink(spikes, "prov");
    let sink = out.collecting_sink("alerts");
    let report = plan.deploy().expect("deploy").wait().expect("run");

    println!(
        "{} readings -> {} spike alerts ({} shard instances reported as one operator)",
        report.source_tuples(),
        sink.len(),
        report.operator("load+spike").map_or(0, |o| o.instances),
    );
    for assignment in provenance.assignments().iter().take(5) {
        let (meter, total) = assignment.sink_data;
        println!(
            "meter {meter:2} window @{}s total {total}: {} contributing readings, all meter {meter}",
            assignment.sink_ts.as_secs(),
            assignment.source_count(),
        );
        assert!(assignment
            .source_records::<(u32, i64)>()
            .iter()
            .all(|r| r.data.0 == meter));
    }
}
