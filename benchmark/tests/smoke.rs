//! Drives the built benchmark at smoke size. Run with
//! `cargo test --release --offline --manifest-path benchmark/Cargo.toml`:
//! a debug build runs the same smoke workloads an order of magnitude
//! slower.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn contract() -> Value {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn names(contract: &Value, key: &str) -> BTreeSet<String> {
    contract[key]
        .as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_canopy_benchmark"))
        .args(args)
        .env_remove("CANOPY_POOL_SERIAL")
        .output()
        .expect("the benchmark runs")
}

/// The last line of standard output: the contract's result object.
fn result_of(output: &Output) -> Value {
    assert!(
        output.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn detail_of(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .expect("a detail line");
    serde_json::from_str(line).expect("the detail line is JSON")
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

#[test]
fn contract_file_is_within_the_drivers_limits() {
    let c = contract();
    let keys: BTreeSet<&str> = c.as_object().unwrap().keys().map(String::as_str).collect();
    let wanted = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    assert_eq!(keys, wanted.into_iter().collect());
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);

    let workloads = c["workloads"].as_array().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(is_name(w["name"].as_str().unwrap()));
        let why = w["why"].as_str().unwrap();
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = c["end_to_end"].as_array().unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        let bound = m["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    let per_layer = c["per_layer"].as_array().unwrap();
    assert!((1..=128).contains(&per_layer.len()));

    let mut seen = BTreeSet::new();
    for m in end_to_end.iter().chain(per_layer).chain(workloads) {
        let name = m["name"].as_str().unwrap();
        assert!(is_name(name), "{name}");
        assert!(seen.insert(name.to_string()), "{name} is used twice");
    }
    for m in end_to_end.iter().chain(per_layer) {
        let unit = m["unit"].as_str().unwrap();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
            "{unit}"
        );
        assert!(matches!(m["better"].as_str(), Some("higher" | "lower")));
    }
    let seconds = c["run_seconds"].as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
}

#[test]
fn every_workload_reports_every_metric_and_nothing_fails() {
    let c = contract();
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_summary.json");
    let out = out.to_str().unwrap();
    let run = benchmark(&["--workload", "all", "--smoke", "--seed", "1", "--out", out]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(out).expect("the summary was written");
    assert!(text.ends_with("\"claim\":null}"), "no gain is claimed");
    let summary: Value = serde_json::from_str(&text).expect("the summary parses");
    let runs = summary["runs"].as_array().unwrap();
    let workloads = names(&c, "workloads");
    assert_eq!(runs.len(), 2 * workloads.len());

    let mut untraced = BTreeSet::new();
    for run in runs {
        let traced = run["trace"] == Value::Bool(true);
        let workload = run["workload"].as_str().unwrap().to_string();
        let wanted = names(&c, if traced { "per_layer" } else { "end_to_end" });
        let metrics = run["metrics"].as_object().unwrap();
        let got: BTreeSet<String> = metrics.keys().cloned().collect();
        assert_eq!(got, wanted, "{workload} traced={traced}");
        for (name, m) in metrics {
            assert!(is_name(name));
            assert!(
                m["value"].as_f64().unwrap().is_finite(),
                "{workload} {name}"
            );
        }
        assert_eq!(run["failed"].as_u64(), Some(0), "{workload}");
        assert!(run["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(run["failure_rate"].as_f64(), Some(0.0));
        assert_eq!(run["env"]["canopy_pool_serial"].as_str(), Some("unset"));
        if traced {
            let m = |name: &str| metrics[name]["value"].as_f64().unwrap();
            assert_eq!(m("bench.trace_divergence"), 0.0, "{workload}");
            assert!(m("bench.span_coverage") >= 0.95, "{workload}");
            match workload.as_str() {
                "fleet_sync" => assert_eq!(m("core.batch_mean"), 256.0),
                "fleet_stagger" => assert_eq!(m("core.batch_mean"), 1.0),
                _ => {}
            }
        } else {
            for name in ["ops_per_s", "setup_s", "peak_rss_mb"] {
                assert!(
                    metrics[name]["value"].as_f64().unwrap() > 0.0,
                    "{workload} {name}"
                );
            }
            untraced.insert(workload);
        }
    }
    assert_eq!(untraced, workloads);
}

#[test]
fn the_seed_decides_the_inputs() {
    for workload in names(&contract(), "workloads") {
        let digest = |seed: &str| {
            let run = benchmark(&["--workload", &workload, "--smoke", "--seed", seed]);
            let result = result_of(&run);
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result["correct"],
                Value::Bool(true),
                "{workload} seed {seed}"
            );
            detail_of(&run)["digest"].as_str().unwrap().to_string()
        };
        let first = digest("1");
        assert_ne!(
            first,
            digest("2"),
            "{workload}: another seed, another input"
        );
        assert_eq!(first, digest("1"), "{workload}: same seed, same result");
    }
}

#[test]
fn refuses_to_measure_the_serial_dispatch_engine() {
    let run = Command::new(env!("CARGO_BIN_EXE_canopy_benchmark"))
        .args(["--workload", "train_step", "--smoke"])
        .env("CANOPY_POOL_SERIAL", "1")
        .output()
        .expect("the benchmark runs");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty(), "no result is printed");
}
