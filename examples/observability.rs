//! The live observability plane, scrapable from outside the process.
//!
//! Runs the mini Linear Road Q1 (stopped-car alerts) under GeneaLog with the
//! embedded control endpoint attached, then holds the endpoint open so external
//! tools can scrape it:
//!
//! ```text
//! cargo run --example observability -- --hold 30 &
//! sleep 2; ADDR=$(cat control_addr.txt); SINK=$(cat provenance_id.txt)
//! curl -s http://$ADDR/healthz
//! curl -s http://$ADDR/metrics | grep genealog_operator_tuples_in_total
//! curl -s http://$ADDR/provenance/$SINK      # the alert's contribution set
//! curl -s http://$ADDR/topology.dot | dot -Tsvg > topology.svg
//! ```
//!
//! The example writes `control_addr.txt` (the bound `host:port`) and
//! `provenance_id.txt` (one sink tuple id in the URL-friendly `origin-seq`
//! form) into the current directory, so a driving script — the CI smoke job —
//! need not parse stdout.

use genealog::prelude::*;
use genealog_control::ControlPlane;

/// `(car, speed)` position reports, one per 30 s simulated time.
type Report = (u32, u32);

fn main() {
    let hold = std::env::args()
        .skip_while(|a| a != "--hold")
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);

    // Car 7 stops (4 zero-speed reports in one 150 s window) — one alert.
    let reports: Vec<Report> = vec![
        (7, 0),
        (7, 0),
        (7, 0),
        (9, 0),
        (7, 0),
        (8, 31),
        (9, 55),
        (8, 28),
    ];
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("reports", VecSource::with_period(reports, 30_000));
    let stopped = q.filter("stopped", src, |r: &Report| r.1 == 0);
    let counts = q.aggregate(
        "per-car",
        stopped,
        WindowSpec::tumbling(Duration::from_secs(150)).unwrap(),
        |r: &Report| r.0,
        |w| (*w.key, w.len()),
    );
    let alerts = q.filter("alerts", counts, |c: &(u32, usize)| c.1 >= 4);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
    let sink = q.collecting_sink("alert-sink", out);

    // The control plane needs the registry and DOT before deployment consumes
    // the query; the provenance collector fills in while the query runs.
    let server = ControlPlane::new(q.registry())
        .with_topology(genealog_analysis::dot::physical(&q.plan_facts()))
        .with_provenance(provenance.clone())
        .serve()
        .expect("bind control endpoint");
    std::fs::write("control_addr.txt", server.addr().to_string()).expect("write address file");
    println!("control endpoint: http://{}", server.addr());

    q.deploy().expect("deploy").wait().expect("run");

    let alerts = sink.tuples();
    assert_eq!(alerts.len(), 1, "exactly one stopped-car alert");
    let assignment = &provenance.assignments()[0];
    assert_eq!(assignment.source_count(), 4, "4 contributing reports");
    let sink_id = assignment.sink_id;
    std::fs::write(
        "provenance_id.txt",
        format!("{}-{}", sink_id.origin, sink_id.seq),
    )
    .expect("write provenance id file");

    println!("alert: {:?} (sink tuple {sink_id})", alerts[0].data);
    println!("contribution set:");
    for source in &assignment.sources {
        println!("  <- {} {}", source.id(), source.render());
    }
    println!("scrape me: curl -s {}", server.url("/metrics"));
    println!(
        "provenance: curl -s {}",
        server.url(&format!("/provenance/{}-{}", sink_id.origin, sink_id.seq))
    );

    if hold > 0 {
        println!("holding the endpoint open for {hold}s ...");
        std::thread::sleep(std::time::Duration::from_secs(hold));
    }
    server.shutdown();
}
