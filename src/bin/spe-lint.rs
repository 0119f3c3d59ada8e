//! `spe-lint`: the workspace's static-analysis driver.
//!
//! Two check families, both built on `genealog-analysis`:
//!
//! * `spe-lint src [ROOT]` — textual source checks over every `.rs` file under
//!   `ROOT/crates` (default `.`): no direct standard-stream printing outside the
//!   `crates/bench` figure benches, `genealog_*` metric naming.
//! * `spe-lint plans [--deny-warnings]` — runs the deploy-time plan analyzer
//!   over the example-mirror suite (`genealog_repro::plans`) and prints each
//!   report; error-severity findings fail the run (`-D` semantics), warnings
//!   fail it only under `--deny-warnings`.
//! * `spe-lint all [ROOT]` — both.
//!
//! Exit code 0 when clean, 1 when any check fails. This binary is the one place
//! in the engine workspace allowed to print: it *is* the terminal reporter.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use genealog_analysis::source::{check_file, SourceViolation};
use genealog_repro::plans;

fn collect_rust_files(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn run_source_checks(root: &Path) -> Result<usize, String> {
    let crates = root.join("crates");
    if !crates.is_dir() {
        return Err(format!("no `crates/` directory under {}", root.display()));
    }
    let mut files = Vec::new();
    collect_rust_files(&crates, &mut files);
    files.sort();
    let mut violations: Vec<SourceViolation> = Vec::new();
    for file in &files {
        let Ok(contents) = std::fs::read_to_string(file) else {
            continue;
        };
        // Report paths relative to the workspace root, matching the exemption
        // rules (`crates/bench`, `crates/metrics`) regardless of where the
        // binary runs from.
        let rel = file.strip_prefix(root).unwrap_or(file);
        violations.extend(check_file(&rel.to_string_lossy(), &contents));
    }
    for v in &violations {
        println!("{}", v.render());
    }
    println!(
        "spe-lint src: {} file(s) checked, {} violation(s)",
        files.len(),
        violations.len()
    );
    if violations.is_empty() {
        Ok(files.len())
    } else {
        Err(format!("{} source violation(s)", violations.len()))
    }
}

fn run_plan_checks(deny_warnings: bool) -> Result<(), String> {
    let mut errors = 0;
    let mut warnings = 0;
    for plan in plans::analyze_all() {
        errors += plan.report.error_count();
        warnings += plan.report.warning_count();
        if plan.report.is_empty() {
            println!("plan `{}`: clean", plan.name);
        } else {
            println!("plan `{}`:", plan.name);
            for line in plan.report.render().lines() {
                println!("  {line}");
            }
        }
    }
    println!("spe-lint plans: {errors} error(s), {warnings} warning(s)");
    if errors > 0 || (deny_warnings && warnings > 0) {
        Err(format!("{errors} error(s), {warnings} warning(s)"))
    } else {
        Ok(())
    }
}

fn usage() -> ExitCode {
    println!("usage: spe-lint <src [ROOT] | plans [--deny-warnings] | all [ROOT]>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        return usage();
    };
    let root = args
        .iter()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let result = match mode.as_str() {
        "src" => run_source_checks(&root).map(|_| ()),
        "plans" => run_plan_checks(deny_warnings),
        "all" => run_source_checks(&root)
            .map(|_| ())
            .and_then(|()| run_plan_checks(deny_warnings)),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            println!("spe-lint failed: {reason}");
            ExitCode::FAILURE
        }
    }
}
