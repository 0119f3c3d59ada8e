//! Command line of the `standing` binary.
//!
//! ```text
//! standing --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]
//! standing --list
//! standing --compare BASE.jsonl NEW.jsonl
//! standing --self-check --workload <name> [--seed N] [--seconds S] [--smoke]
//! ```

use std::io::Write;
use std::path::PathBuf;

use genealog_metrics::TrackingAllocator;

use crate::bench::{measure, Host, Options, RunRequest, WorkloadId, END_TO_END};
use crate::report::{
    compare, judge, record, result_line, shown, write_comparison, write_list, write_listing,
    HostFacts, Verdict,
};

/// Seconds measured when `--seconds` is not given (`BENCHMARK.json`'s `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "\
usage: standing --workload <lr_q1|chain_agg|chain_agg_durable|tcp_shards>
                [--seed N] [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]
       standing --list
       standing --compare BASE.jsonl NEW.jsonl
       standing --self-check --workload <name> [--seed N] [--seconds S] [--smoke]";

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    List,
    Compare(PathBuf, PathBuf),
    Measure {
        options: Options,
        out: Option<PathBuf>,
        self_check: bool,
    },
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (1u64, DEFAULT_SECONDS);
    let (mut trace, mut smoke, mut corrupt, mut self_check) = (false, false, false, false);
    let mut out = None;
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--compare" => {
                let base = value("two files")?;
                return Ok(Command::Compare(base.into(), value("two files")?.into()));
            }
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    WorkloadId::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds needs a positive number".to_string())?;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver spells it `--trace 0|1`.
                trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => smoke = true,
            "--self-check" => self_check = true,
            // Test hook: proves a wrong reference turns into a non-zero exit.
            "--corrupt-reference" => corrupt = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Measure {
        options: Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
            corrupt_reference: corrupt,
        },
        out,
        self_check,
    })
}

/// The build's target directory, from where the running executable sits
/// (`<target>/<profile>/standing`): inside the checkout, on its filesystem.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Runs the command line and returns the process exit code: 0 when everything
/// measured was correct, 1 when outputs were wrong or a check failed, 2 for a
/// malformed command line.
pub fn run(args: &[String], alloc: &'static TrackingAllocator) -> i32 {
    // A locked handle and `writeln!`: a reader that closes the pipe early ends
    // the listing, not the process.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match execute(args, alloc, &mut out) {
        Ok(code) => {
            let _ = out.flush();
            code
        }
        Err(Failure::Usage(message)) => {
            eprintln!("{message}\n{USAGE}");
            2
        }
        Err(Failure::Io(error)) if error.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(Failure::Io(error)) => {
            eprintln!("standing: {error}");
            1
        }
    }
}

enum Failure {
    Usage(String),
    Io(std::io::Error),
}

impl From<std::io::Error> for Failure {
    fn from(error: std::io::Error) -> Self {
        Failure::Io(error)
    }
}

fn execute(
    args: &[String],
    alloc: &'static TrackingAllocator,
    out: &mut impl Write,
) -> Result<i32, Failure> {
    let host = || Host {
        alloc,
        target_dir: target_dir(),
        exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("standing")),
    };
    // One engine run, asked for by an orchestrating `standing` process.
    if let Some((flag, request)) = args.split_first().filter(|(flag, _)| *flag == "--run") {
        let request =
            RunRequest::from_args(request).map_err(|e| Failure::Usage(format!("{flag}: {e}")))?;
        writeln!(out, "{}", request.perform(&host()).to_json().render())?;
        return Ok(0);
    }
    match parse(args).map_err(Failure::Usage)? {
        Command::List => {
            write_list(out)?;
            Ok(0)
        }
        Command::Compare(base, new) => {
            let read = |path: &PathBuf| {
                std::fs::read_to_string(path)
                    .map_err(|e| Failure::Usage(format!("{}: {e}", path.display())))
            };
            let rows = compare(&read(&base)?, &read(&new)?).map_err(Failure::Usage)?;
            write_comparison(out, &rows)?;
            Ok(i32::from(
                rows.iter().any(|r| r.verdict == Verdict::Regressed),
            ))
        }
        Command::Measure {
            options,
            out: out_file,
            self_check,
        } => {
            let host = host();
            if self_check {
                return self_check_pass(&host, &options, out);
            }
            let report = measure(&host, &options);
            write_listing(out, &report)?;
            if let Some(path) = out_file {
                let facts = HostFacts::gather(&host.target_dir);
                let mut file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?;
                writeln!(file, "{}", record(&report, &facts).render())?;
            }
            writeln!(out, "{}", result_line(&report))?;
            Ok(i32::from(!report.correct()))
        }
    }
}

/// `--self-check`: the workload's full untraced set twice; fails if any
/// end-to-end metric of the second disagrees with the first beyond its bound.
fn self_check_pass(host: &Host, options: &Options, out: &mut impl Write) -> Result<i32, Failure> {
    let options = Options {
        trace: false,
        ..options.clone()
    };
    let first = measure(host, &options);
    let second = measure(host, &options);
    let mut failed = !(first.correct() && second.correct());
    writeln!(
        out,
        "self-check {}: two sets of runs of the same code",
        options.workload.name()
    )?;
    for def in END_TO_END {
        let (a, b) = (
            first.value(def.name).unwrap_or(0.0),
            second.value(def.name).unwrap_or(0.0),
        );
        let bound = def.bound.unwrap_or(0.0);
        // Either set may be the "base": the two must agree both ways round.
        let agree = judge(def.better, bound, a, b, 0.0) == Verdict::Unchanged
            && judge(def.better, bound, b, a, 0.0) == Verdict::Unchanged;
        failed |= !agree;
        writeln!(
            out,
            "  {:<20} {:>16} {:>16} ratio {:>6.3} bound {:>3.0}%  {}",
            def.name,
            shown(a),
            shown(b),
            b / a,
            bound * 100.0,
            if agree { "agree" } else { "DISAGREE" }
        )?;
    }
    writeln!(
        out,
        "  ops_failed {} + {}",
        first.ops.failed, second.ops.failed
    )?;
    Ok(i32::from(failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let command = parse(&args(
            "--workload tcp_shards --seed 9 --seconds 24 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            command,
            Command::Measure {
                options: Options {
                    workload: WorkloadId::TcpShards,
                    seed: 9,
                    seconds: 24.0,
                    trace: true,
                    smoke: false,
                    corrupt_reference: false,
                },
                out: None,
                self_check: false,
            }
        );
        let options_of = |text: &str| match parse(&args(text)).unwrap() {
            Command::Measure { options, .. } => options,
            other => panic!("a measure command, not {other:?}"),
        };
        assert!(!options_of("--workload lr_q1 --trace 0 --seed 3").trace);
        let bare = options_of("--workload lr_q1 --trace --smoke");
        assert!(bare.trace && bare.smoke, "bare --trace means on");
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--workload sg_q4",
            "--workload",
            "--workload lr_q1 --seed x",
            "--workload lr_q1 --seconds 0",
            "--workload lr_q1 --frobnicate",
            "--compare only-one",
        ] {
            assert!(parse(&args(bad)).is_err(), "`{bad}` must be refused");
        }
        assert_eq!(parse(&args("--list")).unwrap(), Command::List);
    }
}
