//! Distributed (inter-process) provenance: deploy Q1 across three SPE instances — two
//! processing instances and one provenance instance — connected by a simulated
//! 100 Mbps link, exactly like the paper's Figure 7, and inspect the provenance
//! assembled at the third instance.
//!
//! Run with `cargo run --release --example distributed_provenance`.

use genealog_distributed::{deploy_distributed_genealog, NetworkConfig};
use genealog_spe::operator::source::SourceConfig;
use genealog_spe::SpeError;
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::queries::{q1_provenance_window, q1_stage1, q1_stage2};
use genealog_workloads::types::{PositionReport, StoppedCarCount};

fn main() -> Result<(), SpeError> {
    let config = LinearRoadConfig {
        cars: 40,
        rounds: 30,
        ..LinearRoadConfig::default()
    };
    let network = NetworkConfig::default();
    println!(
        "deploying Q1 over three SPE instances ({} position reports, {} Mbps link)...\n",
        config.total_reports(),
        network.bandwidth_bps / 1_000_000
    );

    let outcome =
        deploy_distributed_genealog::<_, StoppedCarCount, StoppedCarCount, PositionReport, _, _>(
            "q1",
            LinearRoadGenerator::new(config),
            SourceConfig::default(),
            // Instance 1: zero-speed Filter + per-car Aggregate (plus its unfolder).
            q1_stage1,
            // Instance 2: the alert Filter and the data Sink (plus its unfolder).
            q1_stage2,
            q1_provenance_window(),
            network,
        )?;

    println!(
        "instance reports: {} | alerts at the data sink: {} | provenance records: {}",
        outcome.reports.len(),
        outcome.alerts.len(),
        outcome.provenance.len()
    );
    println!(
        "network traffic: {} bytes on the data link, {} bytes towards the provenance instance\n",
        outcome.data_link_bytes, outcome.provenance_link_bytes
    );

    for record in outcome.provenance.iter().take(4) {
        println!(
            "alert: car {} stopped (window {}), {} contributing position reports:",
            record.sink_data.car_id,
            record.sink_ts,
            record.sources.len()
        );
        for source in &record.sources {
            println!(
                "  <- {} car {} speed {} pos {} (id {})",
                source.ts, source.data.car_id, source.data.speed, source.data.pos, source.id
            );
        }
    }
    if outcome.provenance.len() > 4 {
        println!("... and {} more alerts", outcome.provenance.len() - 4);
    }
    Ok(())
}
