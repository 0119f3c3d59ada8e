//! The smoke suite: the real binary, at `--smoke` sizes, over all four workloads —
//! both provenance modes, the paced run, the traced pass and the correctness gate —
//! plus the checks that tie the binary to `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, Output};

use genealog_standing::bench::{WorkloadId, END_TO_END, PER_LAYER};
use genealog_standing::json::Value;

fn standing(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_standing"))
        .args(args)
        .output()
        .expect("the standing binary starts")
}

fn result_of(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Value::parse(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}):\n{stdout}"))
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` missing from {}", result.render()))
}

/// Runs both passes of one workload at smoke size and checks the contract of the
/// result line, the gate and the bypass predictions.
fn smoke(workload: WorkloadId) {
    let name = workload.name();
    let untraced = standing(&[
        "--workload",
        name,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    let result = result_of(&untraced);
    assert!(
        untraced.status.success(),
        "{name} untraced: {}",
        String::from_utf8_lossy(&untraced.stdout)
    );
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let reported = result.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(reported.len(), END_TO_END.len());
    for def in END_TO_END {
        assert!(
            metric(&result, def.name) > 0.0,
            "{name}: {} is never 0",
            def.name
        );
    }

    let traced = standing(&[
        "--workload",
        name,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    let ledger = result_of(&traced);
    assert!(
        traced.status.success(),
        "{name} traced: {}",
        String::from_utf8_lossy(&traced.stdout)
    );
    assert_eq!(ledger.get("correct"), Some(&Value::Bool(true)), "{name}");
    let reported = ledger.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(reported.len(), PER_LAYER.len());
    for def in PER_LAYER {
        assert!(
            metric(&ledger, def.name).is_finite(),
            "{name}: {}",
            def.name
        );
    }
    assert!(metric(&ledger, "spe.np_ns_per_tuple") > 0.0);
    assert!(metric(&ledger, "spe.source_tuples") > 0.0);
    assert_eq!(metric(&ledger, "distributed.dropped_frames"), 0.0);

    // The bypass predictions: a layer the workload does not use does nothing.
    let durable = workload == WorkloadId::ChainAggDurable;
    let remote = workload == WorkloadId::TcpShards;
    assert_eq!(
        metric(&ledger, "store.puts") > 0.0,
        durable,
        "{name}: store.puts"
    );
    assert_eq!(metric(&ledger, "store.reopen_ms") > 0.0, durable, "{name}");
    assert_eq!(
        metric(&ledger, "distributed.frames") > 0.0,
        remote,
        "{name}: distributed.frames"
    );
    if workload == WorkloadId::LrQ1 {
        assert_eq!(metric(&ledger, "core.graph_sources_mean"), 4.0);
        assert!(metric(&ledger, "baseline.bl_throughput_tps") > 0.0);
    }

    // The traced pass leaves a span file next to the build.
    let listing = String::from_utf8_lossy(&traced.stdout);
    let path = listing
        .lines()
        .find_map(|l| {
            l.split_once("spans written to ")
                .map(|(_, p)| PathBuf::from(p.trim()))
        })
        .unwrap_or_else(|| panic!("{name}: no trace file mentioned:\n{listing}"));
    let trace = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let spans = trace.get("spans").and_then(Value::as_arr).unwrap();
    let has = |span: &str| {
        spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some(span))
    };
    for span in [
        "bench.setup",
        "workloads.build_inputs",
        "spe.plan_lower",
        "spe.deploy",
        "bench.run",
        "spe.wait",
    ] {
        assert!(has(span), "{name}: no `{span}` span");
    }
    assert_eq!(has("store.put"), durable, "{name}: store.put spans");
    assert_eq!(has("distributed.send_frame"), remote, "{name}");
}

#[test]
fn lr_q1_smoke() {
    smoke(WorkloadId::LrQ1);
}

#[test]
fn chain_agg_smoke() {
    smoke(WorkloadId::ChainAgg);
}

#[test]
fn chain_agg_durable_smoke() {
    smoke(WorkloadId::ChainAggDurable);
}

#[test]
fn tcp_shards_smoke() {
    smoke(WorkloadId::TcpShards);
}

#[test]
fn a_corrupted_reference_makes_the_binary_exit_non_zero() {
    let output = standing(&[
        "--workload",
        "chain_agg",
        "--seed",
        "5",
        "--seconds",
        "1",
        "--smoke",
        "--corrupt-reference",
    ]);
    assert_eq!(output.status.code(), Some(1));
    let result = result_of(&output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_f64).unwrap() >= 1.0);
}

/// The sustainable-rate rule: a source that is behind its schedule most of the
/// time fails every operation of its run, whatever came out of the sink.
#[test]
fn an_unsustainable_paced_rate_fails_every_operation() {
    let output = standing(&[
        "--run",
        "--workload",
        "chain_agg",
        "--variant",
        "standard",
        "--system",
        "gl",
        "--tuples",
        "65536",
        "--rate",
        "1000000000",
        "--seed",
        "5",
        "--run-id",
        "0",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(
        output.status.success(),
        "a run reports its verdict; it does not exit with it"
    );
    let summary = result_of(&output);
    let number = |key: &str| summary.get(key).and_then(Value::as_f64).unwrap();
    assert!(number("lag_p50_ms") > 20.0, "{}", summary.render());
    assert!(number("ops_attempted") > 0.0);
    assert_eq!(number("ops_failed"), number("ops_attempted"));
}

#[test]
fn a_malformed_command_line_exits_with_usage() {
    let output = standing(&["--workload", "sg_q4"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty(), "no result is printed");
}

#[test]
fn out_records_append_and_compare_reads_them_back() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let file = dir.join(format!("records-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&file);
    let path = file.to_str().unwrap();
    for seed in ["1", "2"] {
        let output = standing(&[
            "--workload",
            "lr_q1",
            "--seed",
            seed,
            "--seconds",
            "1",
            "--smoke",
            "--out",
            path,
        ]);
        assert!(output.status.success());
    }
    let text = std::fs::read_to_string(&file).unwrap();
    assert_eq!(text.lines().count(), 2, "one record per invocation");
    let record = Value::parse(text.lines().next().unwrap()).unwrap();
    for key in [
        "schema",
        "commit",
        "seed",
        "nproc",
        "fs_type",
        "counts",
        "metrics",
        "ops_attempted",
    ] {
        assert!(record.get(key).is_some(), "record lacks `{key}`");
    }
    let compared = standing(&["--compare", path, path]);
    let table = String::from_utf8_lossy(&compared.stdout);
    assert!(compared.status.success(), "{table}");
    assert_eq!(
        table.lines().filter(|l| l.starts_with("lr_q1")).count(),
        END_TO_END.len(),
        "{table}"
    );
    assert!(
        !table.contains("regressed"),
        "a file agrees with itself:\n{table}"
    );
    let _ = std::fs::remove_file(&file);
}

/// `BENCHMARK.json` repeats the binary's tables; the two must not drift apart.
#[test]
fn benchmark_json_matches_the_binary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let bench = Value::parse(&text).unwrap();
    let keys: Vec<&str> = bench
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        bench.get("run_seconds").and_then(Value::as_f64),
        Some(genealog_standing::cli::DEFAULT_SECONDS)
    );

    let workloads = bench.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WorkloadId::ALL.len());
    for (entry, workload) in workloads.iter().zip(WorkloadId::ALL) {
        assert_eq!(
            entry.get("name").and_then(Value::as_str),
            Some(workload.name())
        );
        let why = entry.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        let sizes = workload.sizes(false);
        assert!(
            why.contains(&sizes.tuples.to_string())
                && why.contains(&sizes.paced_rate_tps.to_string()),
            "`why` of {} states its fixed sizes: {why}",
            workload.name()
        );
    }

    let same_table = |key: &str, defs: &[genealog_standing::bench::MetricDef]| {
        let entries = bench.get(key).and_then(Value::as_arr).unwrap();
        assert_eq!(entries.len(), defs.len(), "{key}");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                def.bound,
                "{}",
                def.name
            );
        }
    };
    same_table("end_to_end", END_TO_END);
    same_table("per_layer", PER_LAYER);
}
