//! What one engine run reports back. Every run happens in a process of its own —
//! as a deployed query does — and hands its numbers to the orchestrating process
//! as one line of JSON.

use crate::gate::Ops;
use crate::json::Value;
use crate::runs::{RunOutcome, SetupTimes};
use crate::stats::percentile_u64;
use crate::trace::Span;

/// Checkpoint-store activity of a run, reduced to what the ledger reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreSummary {
    /// `put` calls seen by the backend wrapper.
    pub puts: u64,
    /// Serialised snapshot bytes handed to `put`.
    pub snapshot_bytes: u64,
    /// Median `put` duration.
    pub put_p50_ns: f64,
    /// 95th percentile `put` duration.
    pub put_p95_ns: f64,
    /// Time inside `put`, all calls.
    pub put_total_ns: f64,
    /// 95th percentile first-put-to-complete latency of an epoch.
    pub epoch_commit_p95_ns: f64,
    /// Completed epochs.
    pub epochs: u64,
    /// Bytes the backend physically wrote.
    pub bytes_written: u64,
    /// Segment files.
    pub segments: u64,
    /// Compactions.
    pub compactions: u64,
    /// Median fsync latency from the store's own histogram.
    pub fsync_p50_ns: u64,
    /// Reopen plus read-back of the last complete epoch.
    pub reopen_ms: f64,
}

/// Shard-link activity of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireSummary {
    /// Frames on all links, both directions.
    pub frames: u64,
    /// Bytes origin → shard, per shard.
    pub forward_bytes: Vec<u64>,
    /// Bytes shard → origin, all shards.
    pub back_bytes: u64,
    /// Frames a demultiplexer discarded.
    pub dropped_frames: u64,
    /// Median `send_frame` duration.
    pub send_p50_ns: f64,
    /// 95th percentile `send_frame` duration.
    pub send_p95_ns: f64,
}

/// The numbers of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunSummary {
    /// Set-up step timings of the run itself.
    pub setup: SetupTimes,
    /// Total set-up seconds of the run and of every set-up-only repetition
    /// performed after it in the same process.
    pub setup_samples_s: Vec<f64>,
    /// From `deploy` returning to the last instance drained.
    pub wall_s: f64,
    /// Tuples the sources injected.
    pub source_tuples: u64,
    /// Tuples the data sink received.
    pub sink_tuples: u64,
    /// Peak live heap above the pre-deployment level.
    pub peak_bytes: u64,
    /// Heap allocations during the run.
    pub allocations: u64,
    /// Number of sink latency samples.
    pub latency_samples: u64,
    /// Median sink latency.
    pub latency_p50_ns: f64,
    /// 95th percentile sink latency.
    pub latency_p95_ns: f64,
    /// Number of source lateness samples (paced runs).
    pub lag_samples: u64,
    /// Median source lateness, in milliseconds.
    pub lag_p50_ms: f64,
    /// 95th percentile source lateness, in milliseconds.
    pub lag_p95_ms: f64,
    /// (sink tuple, source tuple) pairs the provenance path delivered.
    pub unfold_records: u64,
    /// Back-pressure stalls over all edges.
    pub stalls: u64,
    /// The edge with the most stalls.
    pub top_stall_edge: String,
    /// Sources the baseline still held at the end of a BL run.
    pub bl_retained_sources: u64,
    /// Store activity, when the pipeline checkpoints.
    pub store: Option<StoreSummary>,
    /// Link activity, when shards are remote.
    pub wire: Option<WireSummary>,
    /// The run's operations against the reference.
    pub ops: Ops,
    /// Spans the run recorded (traced runs).
    pub spans: Vec<Span>,
}

impl RunSummary {
    /// Source tuples per wall second (0 for a run that did not complete).
    pub fn throughput_tps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.source_tuples as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Wall nanoseconds per source tuple (0 for a run that did not complete).
    pub fn ns_per_tuple(&self) -> f64 {
        if self.source_tuples > 0 {
            self.wall_s * 1e9 / self.source_tuples as f64
        } else {
            0.0
        }
    }

    /// A run that did not complete: nothing measured, every operation failed.
    pub fn failed(ops: Ops) -> Self {
        RunSummary {
            ops,
            ..RunSummary::default()
        }
    }

    /// Reduces a run's raw outcome.
    pub fn of(outcome: &RunOutcome, ops: Ops, spans: Vec<Span>) -> Self {
        let lag_ns: Vec<u64> = outcome
            .lag_us
            .iter()
            .map(|&us| u64::from(us) * 1_000)
            .collect();
        RunSummary {
            setup: outcome.setup,
            setup_samples_s: vec![outcome.setup.total_s()],
            wall_s: outcome.wall_s,
            source_tuples: outcome.source_tuples,
            sink_tuples: outcome.sink_tuples,
            peak_bytes: outcome.peak_bytes,
            allocations: outcome.allocations,
            latency_samples: outcome.latencies_ns.len() as u64,
            latency_p50_ns: percentile_u64(&outcome.latencies_ns, 50.0),
            latency_p95_ns: percentile_u64(&outcome.latencies_ns, 95.0),
            lag_samples: lag_ns.len() as u64,
            lag_p50_ms: percentile_u64(&lag_ns, 50.0) / 1e6,
            lag_p95_ms: percentile_u64(&lag_ns, 95.0) / 1e6,
            unfold_records: outcome.unfold_records(),
            stalls: outcome.stalls,
            top_stall_edge: outcome.top_stall_edge.clone(),
            bl_retained_sources: outcome.bl_retained_sources,
            store: outcome.store.as_ref().map(|s| StoreSummary {
                puts: s.puts,
                snapshot_bytes: s.snapshot_bytes,
                put_p50_ns: percentile_u64(&s.put_ns, 50.0),
                put_p95_ns: percentile_u64(&s.put_ns, 95.0),
                put_total_ns: s.put_ns.iter().sum::<u64>() as f64,
                epoch_commit_p95_ns: percentile_u64(&s.epoch_commit_ns, 95.0),
                epochs: s.epochs,
                bytes_written: s.bytes_written,
                segments: s.segments,
                compactions: s.compactions,
                fsync_p50_ns: s.fsync_p50_ns,
                reopen_ms: s.reopen_ms,
            }),
            wire: outcome.wire.as_ref().map(|w| WireSummary {
                frames: w.frames,
                forward_bytes: w.forward_bytes.clone(),
                back_bytes: w.back_bytes,
                dropped_frames: w.dropped_frames,
                send_p50_ns: percentile_u64(&w.send_ns, 50.0),
                send_p95_ns: percentile_u64(&w.send_ns, 95.0),
            }),
            ops,
            spans,
        }
    }

    /// The one-line JSON form.
    pub fn to_json(&self) -> Value {
        let n = |v: u64| Value::Num(v as f64);
        let setup = &self.setup;
        Value::obj([
            (
                "setup",
                Value::Arr(
                    [
                        setup.build_inputs_s,
                        setup.store_open_s,
                        setup.connect_s,
                        setup.lower_and_analyze_s,
                        setup.analyze_s,
                        setup.deploy_s,
                    ]
                    .map(Value::Num)
                    .to_vec(),
                ),
            ),
            (
                "setup_samples_s",
                Value::Arr(
                    self.setup_samples_s
                        .iter()
                        .copied()
                        .map(Value::Num)
                        .collect(),
                ),
            ),
            ("wall_s", Value::Num(self.wall_s)),
            ("source_tuples", n(self.source_tuples)),
            ("sink_tuples", n(self.sink_tuples)),
            ("peak_bytes", n(self.peak_bytes)),
            ("allocations", n(self.allocations)),
            ("latency_samples", n(self.latency_samples)),
            ("latency_p50_ns", Value::Num(self.latency_p50_ns)),
            ("latency_p95_ns", Value::Num(self.latency_p95_ns)),
            ("lag_samples", n(self.lag_samples)),
            ("lag_p50_ms", Value::Num(self.lag_p50_ms)),
            ("lag_p95_ms", Value::Num(self.lag_p95_ms)),
            ("unfold_records", n(self.unfold_records)),
            ("stalls", n(self.stalls)),
            ("top_stall_edge", Value::str(self.top_stall_edge.clone())),
            ("bl_retained_sources", n(self.bl_retained_sources)),
            (
                "store",
                self.store.as_ref().map_or(Value::Null, |s| {
                    Value::obj([
                        ("puts", n(s.puts)),
                        ("snapshot_bytes", n(s.snapshot_bytes)),
                        ("put_p50_ns", Value::Num(s.put_p50_ns)),
                        ("put_p95_ns", Value::Num(s.put_p95_ns)),
                        ("put_total_ns", Value::Num(s.put_total_ns)),
                        ("epoch_commit_p95_ns", Value::Num(s.epoch_commit_p95_ns)),
                        ("epochs", n(s.epochs)),
                        ("bytes_written", n(s.bytes_written)),
                        ("segments", n(s.segments)),
                        ("compactions", n(s.compactions)),
                        ("fsync_p50_ns", n(s.fsync_p50_ns)),
                        ("reopen_ms", Value::Num(s.reopen_ms)),
                    ])
                }),
            ),
            (
                "wire",
                self.wire.as_ref().map_or(Value::Null, |w| {
                    Value::obj([
                        ("frames", n(w.frames)),
                        (
                            "forward_bytes",
                            Value::Arr(w.forward_bytes.iter().map(|&b| n(b)).collect()),
                        ),
                        ("back_bytes", n(w.back_bytes)),
                        ("dropped_frames", n(w.dropped_frames)),
                        ("send_p50_ns", Value::Num(w.send_p50_ns)),
                        ("send_p95_ns", Value::Num(w.send_p95_ns)),
                    ])
                }),
            ),
            ("ops_attempted", n(self.ops.attempted)),
            ("ops_failed", n(self.ops.failed)),
            (
                "ops_notes",
                Value::Arr(self.ops.notes.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::Arr(vec![
                                Value::str(s.name),
                                n(s.start_ns),
                                n(s.end_ns),
                                s.parent.map_or(Value::Null, |p| n(p as u64)),
                                n(u64::from(s.run)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads the one-line JSON form back.
    ///
    /// # Errors
    /// Names the first missing or mistyped member.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let num = |from: &Value, key: &str| {
            from.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run summary: `{key}` missing or not a number"))
        };
        let int = |from: &Value, key: &str| num(from, key).map(|v| v as u64);
        let setup: Vec<f64> = value
            .get("setup")
            .and_then(Value::as_arr)
            .map(|a| a.iter().filter_map(Value::as_f64).collect())
            .filter(|a: &Vec<f64>| a.len() == 6)
            .ok_or("run summary: `setup` is not six numbers")?;
        let store = match value.get("store") {
            None | Some(Value::Null) => None,
            Some(s) => Some(StoreSummary {
                puts: int(s, "puts")?,
                snapshot_bytes: int(s, "snapshot_bytes")?,
                put_p50_ns: num(s, "put_p50_ns")?,
                put_p95_ns: num(s, "put_p95_ns")?,
                put_total_ns: num(s, "put_total_ns")?,
                epoch_commit_p95_ns: num(s, "epoch_commit_p95_ns")?,
                epochs: int(s, "epochs")?,
                bytes_written: int(s, "bytes_written")?,
                segments: int(s, "segments")?,
                compactions: int(s, "compactions")?,
                fsync_p50_ns: int(s, "fsync_p50_ns")?,
                reopen_ms: num(s, "reopen_ms")?,
            }),
        };
        let wire = match value.get("wire") {
            None | Some(Value::Null) => None,
            Some(w) => Some(WireSummary {
                frames: int(w, "frames")?,
                forward_bytes: w
                    .get("forward_bytes")
                    .and_then(Value::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_f64)
                            .map(|b| b as u64)
                            .collect()
                    })
                    .ok_or("run summary: `forward_bytes` missing")?,
                back_bytes: int(w, "back_bytes")?,
                dropped_frames: int(w, "dropped_frames")?,
                send_p50_ns: num(w, "send_p50_ns")?,
                send_p95_ns: num(w, "send_p95_ns")?,
            }),
        };
        let spans = value
            .get("spans")
            .and_then(Value::as_arr)
            .ok_or("run summary: `spans` missing")?
            .iter()
            .map(|row| {
                let row = row.as_arr().filter(|r| r.len() == 5)?;
                Some(Span {
                    name: span_name(row[0].as_str()?)?,
                    start_ns: row[1].as_f64()? as u64,
                    end_ns: row[2].as_f64()? as u64,
                    parent: row[3].as_f64().map(|p| p as usize),
                    run: row[4].as_f64()? as u32,
                })
            })
            .collect::<Option<Vec<Span>>>()
            .ok_or("run summary: malformed span")?;
        Ok(RunSummary {
            setup: SetupTimes {
                build_inputs_s: setup[0],
                store_open_s: setup[1],
                connect_s: setup[2],
                lower_and_analyze_s: setup[3],
                analyze_s: setup[4],
                deploy_s: setup[5],
            },
            setup_samples_s: value
                .get("setup_samples_s")
                .and_then(Value::as_arr)
                .map(|a| a.iter().filter_map(Value::as_f64).collect())
                .ok_or("run summary: `setup_samples_s` missing")?,
            wall_s: num(value, "wall_s")?,
            source_tuples: int(value, "source_tuples")?,
            sink_tuples: int(value, "sink_tuples")?,
            peak_bytes: int(value, "peak_bytes")?,
            allocations: int(value, "allocations")?,
            latency_samples: int(value, "latency_samples")?,
            latency_p50_ns: num(value, "latency_p50_ns")?,
            latency_p95_ns: num(value, "latency_p95_ns")?,
            lag_samples: int(value, "lag_samples")?,
            lag_p50_ms: num(value, "lag_p50_ms")?,
            lag_p95_ms: num(value, "lag_p95_ms")?,
            unfold_records: int(value, "unfold_records")?,
            stalls: int(value, "stalls")?,
            top_stall_edge: value
                .get("top_stall_edge")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            bl_retained_sources: int(value, "bl_retained_sources")?,
            store,
            wire,
            ops: Ops {
                attempted: int(value, "ops_attempted")?,
                failed: int(value, "ops_failed")?,
                notes: value
                    .get("ops_notes")
                    .and_then(Value::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_str)
                            .map(String::from)
                            .collect()
                    })
                    .unwrap_or_default(),
            },
            spans,
        })
    }
}

/// Every span name the benchmark records; a span read back from a run's summary
/// gets its `&'static str` name from here.
pub const SPAN_NAMES: &[&str] = &[
    "bench.setup",
    "workloads.build_inputs",
    "spe.plan_lower",
    "analysis.analyze",
    "store.open",
    "distributed.connect",
    "spe.deploy",
    "bench.run",
    "spe.wait",
    "store.put",
    "distributed.send_frame",
    "core.find_provenance",
];

fn span_name(name: &str) -> Option<&'static str> {
    SPAN_NAMES.iter().copied().find(|known| *known == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_round_trips_through_json() {
        let summary = RunSummary {
            setup: SetupTimes {
                build_inputs_s: 0.012_345_678_9,
                store_open_s: 0.002,
                connect_s: 0.0,
                lower_and_analyze_s: 0.000_3,
                analyze_s: 0.000_002,
                deploy_s: 0.000_4,
            },
            setup_samples_s: vec![0.015_045_678_9, 0.014, 0.016],
            wall_s: 1.234_567_891,
            source_tuples: 500_000,
            sink_tuples: 2_304,
            peak_bytes: 20_000_000,
            allocations: 2_100_000,
            latency_samples: 2_304,
            latency_p50_ns: 1.5e6,
            latency_p95_ns: 3.25e6,
            lag_samples: 100,
            lag_p50_ms: 0.031,
            lag_p95_ms: 0.125,
            unfold_records: 500_000,
            stalls: 12,
            top_stall_edge: "events.out->live".into(),
            bl_retained_sources: 0,
            store: Some(StoreSummary {
                puts: 150,
                fsync_p50_ns: 900_000,
                reopen_ms: 12.5,
                ..StoreSummary::default()
            }),
            wire: Some(WireSummary {
                frames: 4_000,
                forward_bytes: vec![10, 20],
                ..WireSummary::default()
            }),
            ops: Ops {
                attempted: 4_608,
                failed: 1,
                notes: vec!["run 3: one \"bad\" set".into()],
            },
            spans: vec![
                Span {
                    name: "bench.run",
                    start_ns: 5,
                    end_ns: 50,
                    parent: None,
                    run: 3,
                },
                Span {
                    name: "store.put",
                    start_ns: 10,
                    end_ns: 20,
                    parent: Some(0),
                    run: 3,
                },
            ],
        };
        let line = summary.to_json().render();
        assert!(!line.contains('\n'));
        let back = RunSummary::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn a_truncated_summary_is_an_error() {
        let value = Value::parse("{\"wall_s\": 1}").unwrap();
        assert!(RunSummary::from_json(&value).is_err());
    }
}
