//! What leaves the benchmark: the human-readable listing, the one-line result the
//! driver reads, the stable `--out` record, and `--compare` over such records.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::bench::{Better, MetricDef, Report, WorkloadId, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::stats::{median, spread};

/// Schema tag of an `--out` record.
pub const RECORD_SCHEMA: &str = "genealog-standing/1";

/// Facts about the machine and checkout a record was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct HostFacts {
    /// `git rev-parse HEAD`, or `"unknown"` outside a git checkout.
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// Filesystem type under the durable state directory.
    pub fs_type: String,
}

impl HostFacts {
    /// Gathers the facts; `state_dir` is where durable state would be written.
    pub fn gather(state_dir: &Path) -> Self {
        HostFacts {
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            fs_type: fs_type_of(state_dir).unwrap_or_else(|| "unknown".into()),
        }
    }
}

fn git_commit() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let commit = String::from_utf8(output.stdout).ok()?.trim().to_string();
    (output.status.success() && !commit.is_empty()).then_some(commit)
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
fn fs_type_of(path: &Path) -> Option<String> {
    // The directory may not exist yet; its nearest existing ancestor is on the
    // same mount unless something is mounted in between, which nothing is here.
    let existing = path.ancestors().find(|p| p.exists())?.canonicalize().ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    fs_type_in(&mountinfo, &existing)
}

fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    mountinfo
        .lines()
        .filter_map(|line| {
            let (mount, fs) = line.split_once(" - ")?;
            let mount_point = mount.split(' ').nth(4)?;
            let fs_type = fs.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type.to_string())
}

/// A measured value for a table: four decimals, more below 1 so that a set-up of
/// a quarter of a millisecond in seconds keeps its digits.
pub fn shown(value: f64) -> String {
    if value != 0.0 && value.abs() < 1.0 {
        format!("{value:.7}")
    } else {
        format!("{value:.4}")
    }
}

fn metrics_object(report: &Report) -> Value {
    Value::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(m.def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// The one JSON object the driver reads from the last line of standard output.
pub fn result_line(report: &Report) -> String {
    Value::obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Num(report.ops.attempted as f64)),
        ("failed", Value::Num(report.ops.failed as f64)),
        ("metrics", metrics_object(report)),
    ])
    .render()
}

/// The `--out` record of one pass: one JSON object on one line.
pub fn record(report: &Report, facts: &HostFacts) -> Value {
    Value::obj([
        ("schema", Value::str(RECORD_SCHEMA)),
        ("commit", Value::str(facts.commit.clone())),
        ("workload", Value::str(report.workload.name())),
        ("seed", Value::Num(report.options.seed as f64)),
        ("seconds", Value::Num(report.options.seconds)),
        ("trace", Value::Bool(report.options.trace)),
        ("smoke", Value::Bool(report.options.smoke)),
        ("nproc", Value::Num(facts.nproc as f64)),
        ("fs_type", Value::str(facts.fs_type.clone())),
        ("correct", Value::Bool(report.correct())),
        ("ops_attempted", Value::Num(report.ops.attempted as f64)),
        ("ops_failed", Value::Num(report.ops.failed as f64)),
        (
            "counts",
            Value::Obj(
                report
                    .counts
                    .iter()
                    .map(|(name, count)| (name.to_string(), Value::Num(*count as f64)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_object(report)),
        (
            "notes",
            Value::Arr(
                report
                    .notes
                    .iter()
                    .chain(&report.ops.notes)
                    .map(|n| Value::str(n.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// Writes the listing of one pass: every metric by name with its unit, the
/// operation counts, the sample counts and the notes.
///
/// # Errors
/// Propagates the writer's error (a closed pipe, typically).
pub fn write_listing(out: &mut impl Write, report: &Report) -> std::io::Result<()> {
    let pass = if report.options.trace {
        "traced"
    } else {
        "untraced"
    };
    writeln!(
        out,
        "workload {} seed {} seconds {} pass {pass}",
        report.workload.name(),
        report.options.seed,
        report.options.seconds
    )?;
    for m in &report.metrics {
        writeln!(
            out,
            "  {:<38} {:>18} {}",
            m.def.name,
            shown(m.value),
            m.def.unit
        )?;
    }
    writeln!(
        out,
        "  ops_attempted {} ops_failed {}",
        report.ops.attempted, report.ops.failed
    )?;
    for (name, count) in &report.counts {
        writeln!(out, "  {name} {count}")?;
    }
    for note in report.notes.iter().chain(&report.ops.notes) {
        writeln!(out, "  note: {note}")?;
    }
    Ok(())
}

/// Writes `--list`: the workloads and every metric with unit, direction and bound.
///
/// # Errors
/// Propagates the writer's error.
pub fn write_list(out: &mut impl Write) -> std::io::Result<()> {
    writeln!(out, "workloads:")?;
    for workload in WorkloadId::ALL {
        writeln!(out, "  {:<18} {}", workload.name(), workload.why())?;
    }
    let table = |out: &mut dyn Write, title: &str, defs: &[MetricDef]| -> std::io::Result<()> {
        writeln!(out, "{title}:")?;
        for def in defs {
            let bound = def
                .bound
                .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0));
            writeln!(
                out,
                "  {:<38} {:<6} better {}{bound}",
                def.name,
                def.unit,
                def.better.as_str()
            )?;
        }
        Ok(())
    };
    table(out, "end-to-end metrics (--trace 0)", END_TO_END)?;
    table(out, "per-layer metrics (--trace 1)", PER_LAYER)
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// The judgement on one workload × end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound of the base.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// records cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub def: MetricDef,
    /// Median of the base records.
    pub base: f64,
    /// Median of the new records.
    pub new: f64,
    /// The wider of the two sides' spreads.
    pub spread: f64,
    /// The judgement.
    pub verdict: Verdict,
}

impl Comparison {
    /// `new / base`.
    pub fn ratio(&self) -> f64 {
        self.new / self.base
    }
}

/// Judges `new` against `base` for a metric with the given direction and bound.
pub fn judge(better: Better, bound: f64, base: f64, new: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse, as a share of the base.
    let worse_by = match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Values of the untraced records in `text` (one JSON object per line), keyed by
/// workload and metric.
///
/// # Errors
/// Returns the line number and reason of the first line that is not a record.
pub fn parse_records(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", index + 1);
        let record = Value::parse(line).map_err(|e| at(&e))?;
        if record.get("schema").and_then(Value::as_str) != Some(RECORD_SCHEMA) {
            return Err(at("not a genealog-standing/1 record"));
        }
        if record.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no workload"))?;
        let metrics = record
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| at("no metrics"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| at("metric without a value"))?;
            values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(values)
}

/// Compares two sets of records: per workload × end-to-end metric present in
/// both, the medians, their ratio and a verdict under the metric's bound.
///
/// # Errors
/// Returns an error when either text holds a malformed record.
pub fn compare(base: &str, new: &str) -> Result<Vec<Comparison>, String> {
    let base = parse_records(base).map_err(|e| format!("base: {e}"))?;
    let new = parse_records(new).map_err(|e| format!("new: {e}"))?;
    let mut rows = Vec::new();
    for workload in WorkloadId::ALL {
        for def in END_TO_END {
            let key = (workload.name().to_string(), def.name.to_string());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let (base_median, new_median) = (median(b), median(n));
            let widest = spread(b).max(spread(n));
            rows.push(Comparison {
                workload: key.0,
                def: *def,
                base: base_median,
                new: new_median,
                spread: widest,
                verdict: judge(
                    def.better,
                    def.bound.unwrap_or(0.0),
                    base_median,
                    new_median,
                    widest,
                ),
            });
        }
    }
    Ok(rows)
}

/// Writes the comparison table.
///
/// # Errors
/// Propagates the writer's error.
pub fn write_comparison(out: &mut impl Write, rows: &[Comparison]) -> std::io::Result<()> {
    writeln!(
        out,
        "{:<18} {:<20} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "ratio", "spread", "bound"
    )?;
    for row in rows {
        writeln!(
            out,
            "{:<18} {:<20} {:>16} {:>16} {:>8.3} {:>7.1}% {:>6.0}%  {}",
            row.workload,
            row.def.name,
            shown(row.base),
            shown(row.new),
            row.ratio(),
            row.spread * 100.0,
            row.def.bound.unwrap_or(0.0) * 100.0,
            row.verdict.as_str()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{Measured, Options};
    use crate::gate::Ops;

    fn report(throughput: f64, trace: bool) -> Report {
        Report {
            workload: WorkloadId::ChainAgg,
            options: Options {
                workload: WorkloadId::ChainAgg,
                seed: 7,
                seconds: 24.0,
                trace,
                smoke: false,
                corrupt_reference: false,
            },
            metrics: END_TO_END
                .iter()
                .map(|def| Measured {
                    def: *def,
                    value: if def.name == "np_throughput_tps" {
                        throughput
                    } else {
                        1.234_567_890_123
                    },
                })
                .collect(),
            ops: Ops {
                attempted: 100,
                failed: 0,
                notes: Vec::new(),
            },
            counts: vec![("latency_samples", 25_600)],
            notes: vec!["a \"note\"".into()],
        }
    }

    fn facts() -> HostFacts {
        HostFacts {
            commit: "abc123".into(),
            nproc: 2,
            fs_type: "ext4".into(),
        }
    }

    #[test]
    fn record_round_trips_through_its_own_parser() {
        let original = record(&report(2.5e6, false), &facts());
        let parsed = Value::parse(&original.render()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(RECORD_SCHEMA)
        );
        assert_eq!(parsed.get("fs_type").and_then(Value::as_str), Some("ext4"));
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        assert_eq!(value, Some(1.234_567_890_123), "all digits survive");
        let counts = parsed.get("counts").and_then(|c| c.get("latency_samples"));
        assert_eq!(counts.and_then(Value::as_f64), Some(25_600.0));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = Value::parse(&result_line(&report(1.0, false))).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            line.get("metrics").and_then(Value::as_obj).unwrap().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(judge(Higher, 0.08, 100.0, 95.0, 0.01), Verdict::Unchanged);
        assert_eq!(judge(Higher, 0.08, 100.0, 90.0, 0.01), Verdict::Regressed);
        assert_eq!(judge(Higher, 0.08, 100.0, 110.0, 0.01), Verdict::Improved);
        assert_eq!(judge(Lower, 0.10, 10.0, 11.5, 0.01), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.10, 10.0, 8.5, 0.01), Verdict::Improved);
        assert_eq!(judge(Lower, 0.10, 10.0, 20.0, 0.2), Verdict::Unresolved);
    }

    #[test]
    fn compare_takes_medians_of_untraced_records_per_workload() {
        let lines = |values: &[f64]| {
            let mut text: String = values
                .iter()
                .map(|v| record(&report(*v, false), &facts()).render() + "\n")
                .collect();
            // A traced record in the same file is not an end-to-end sample.
            text += &(record(&report(1.0, true), &facts()).render() + "\n");
            text
        };
        let rows = compare(&lines(&[100.0, 101.0, 99.0]), &lines(&[60.0, 61.0, 59.0])).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        let throughput = rows
            .iter()
            .find(|r| r.def.name == "np_throughput_tps")
            .unwrap();
        assert_eq!((throughput.base, throughput.new), (100.0, 60.0));
        assert_eq!(throughput.verdict, Verdict::Regressed);
        assert!(rows
            .iter()
            .filter(|r| r.def.name != "np_throughput_tps")
            .all(|r| r.verdict == Verdict::Unchanged));
        assert!(compare("{\"schema\": \"other\"}", "").is_err());
    }

    #[test]
    fn fs_type_picks_the_longest_matching_mount() {
        let mountinfo = "\
22 1 254:0 / / rw,relatime - ext4 /dev/vda rw
30 22 0:25 / /tmp rw,nosuid - tmpfs tmpfs rw
31 22 0:26 / /tmpfiles rw - xfs /dev/vdb rw
";
        assert_eq!(
            fs_type_in(mountinfo, Path::new("/root/repo/target")).as_deref(),
            Some("ext4")
        );
        assert_eq!(
            fs_type_in(mountinfo, Path::new("/tmp/x")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_type_in(mountinfo, Path::new("/tmpfiles/x")).as_deref(),
            Some("xfs")
        );
    }

    #[test]
    fn listing_names_every_metric_with_its_unit() {
        let mut out = Vec::new();
        write_listing(&mut out, &report(2.0, false)).unwrap();
        let text = String::from_utf8(out).unwrap();
        for def in END_TO_END {
            assert!(text.contains(def.name), "{text}");
        }
        assert!(text.contains("ops_attempted 100 ops_failed 0"));
        let mut out = Vec::new();
        write_list(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tcp_shards") && text.contains("store.reopen_ms"));
    }
}
