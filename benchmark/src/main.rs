//! The Canopy reproduction's benchmark: five end-to-end workloads, each
//! measured untraced for the end-to-end metrics and traced, with the
//! benchmark owning the loop, for the per-layer ones. See `README.md`.
//!
//! ```text
//! canopy_benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out FILE] [--chrome FILE] [--calibrate K]
//! ```

mod fleet;
mod harness;
mod search;
mod sweep;
mod train;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use harness::{cpu_seconds, median, peak_rss_mb, quartiles, timed_reps, Rep, Tally, Tracer};
use workload::{Layers, Params, Workload};

/// The metric and workload definitions: the contract file is the single
/// list of names and units, compiled in so the two cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Timed reps an untraced run makes at the least.
const MIN_REPS: usize = 7;
/// Set-up is repeated, and its median reported, because one set-up of a
/// few milliseconds does not repeat within its bound: first in a block
/// before the warm-up rep, then in a short burst before every timed rep.
/// The box has slow phases of seconds to a minute; samples spread over the
/// whole run meet them in proportion, a single block is inside one or not.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_SECONDS: f64 = 1.0;
const BURST_SETUPS: usize = 20;
const BURST_SECONDS: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    chrome: Option<String>,
    calibrate: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
        chrome: None,
        calibrate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name or `all`")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            "--chrome" => args.chrome = Some(value("a file")?),
            "--calibrate" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--calibrate: {e}"))?;
                if k < 2 {
                    return Err("--calibrate needs at least 2 sets".into());
                }
                args.calibrate = Some(k);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The names under one key of the contract file, with their units.
fn contract_metrics(contract: &Value, key: &str) -> Vec<(String, String)> {
    contract[key]
        .as_array()
        .expect("contract lists its metrics")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("metric has name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workload_names(contract: &Value) -> Vec<String> {
    contract["workloads"]
        .as_array()
        .expect("contract lists its workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload has a name").to_string())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how this run was measured. A number without this block
/// cannot be compared with another.
fn environment(params: &Params) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_dirty = match command_line("git", &["status", "--porcelain"]).as_str() {
        "unknown" => "unknown",
        "" => "clean",
        _ => "dirty",
    };
    json!({
        "nproc": nproc,
        "cpu_model": cpu_model,
        "rustc": (command_line("rustc", &["-V"])),
        "git_sha": (command_line("git", &["rev-parse", "HEAD"])),
        "git_tree": git_dirty,
        "canopy_threads": (params.threads),
        "canopy_pool_serial": "unset",
        "profile": (if cfg!(debug_assertions) { "dev" } else { "release, lto=thin" }),
        "target_avx2": (cfg!(target_feature = "avx2")),
        "target_fma": (cfg!(target_feature = "fma")),
        "seed": (params.seed),
        "smoke": (params.smoke)
    })
}

/// What one pass over a workload measured.
struct Pass {
    /// The contract key that lists this pass's metrics.
    key: &'static str,
    metrics: BTreeMap<String, f64>,
    /// Everything else worth keeping beside the metrics.
    detail: serde_json::Map,
    tally: Tally,
    reference: Rep,
}

/// The untraced pass: warm-up, timed reps with a burst of set-ups before
/// each, invariance reps.
fn untraced_pass<W: Workload>(
    workload: &W,
    params: &Params,
    seconds: f64,
    mut setups: Vec<f64>,
) -> Pass {
    let min_reps = if params.smoke { 3 } else { MIN_REPS };
    let run = timed_reps(seconds, min_reps, || {
        let mut spent = 0.0;
        for _ in 0..BURST_SETUPS {
            let (_, s) = harness::time(|| W::setup(params));
            setups.push(s);
            spent += s;
            if spent >= BURST_SECONDS {
                break;
            }
        }
        workload.rep()
    });
    let mut tally = run.tally;
    for rep in workload.invariance_reps() {
        tally.count(&rep, &run.warmup);
    }
    let walls: Vec<f64> = run.reps.iter().map(|r| r.wall_s).collect();
    let (q1, med, q3) = quartiles(&walls);
    let mut metrics = BTreeMap::new();
    metrics.insert("ops_per_s".to_string(), run.warmup.ops as f64 / med);
    metrics.insert("setup_s".to_string(), median(&setups));
    metrics.insert("peak_rss_mb".to_string(), peak_rss_mb());
    let mut detail = serde_json::Map::new();
    detail.insert("setups".into(), json!((setups.len())));
    detail.insert("reps".into(), json!((walls.len())));
    detail.insert("rep_s_q1".into(), json!(q1));
    detail.insert("rep_s_median".into(), json!(med));
    detail.insert("rep_s_q3".into(), json!(q3));
    detail.insert("warmup_rep_s".into(), json!((run.warmup.wall_s)));
    Pass {
        key: "end_to_end",
        metrics,
        detail,
        tally,
        reference: run.warmup,
    }
}

/// The traced pass; the spans go to `chrome` when a path is given.
fn traced_pass<W: Workload>(
    workload: &W,
    params: &Params,
    seconds: f64,
    chrome: Option<&str>,
) -> std::io::Result<Pass> {
    let cpu0 = cpu_seconds();
    let started = std::time::Instant::now();
    let warmup = workload.rep();
    let mut tracer = Tracer::default();
    let mut layers = Layers::new();
    let mut tally = workload.traced(seconds, &warmup, &mut tracer, &mut layers);
    // The warm-up is an attempt like any other.
    tally.count(&warmup, &warmup);
    layers.insert("bench.warmup_rep_s", warmup.wall_s);
    layers.insert(
        "proc.cpu_s_per_wall_s",
        (cpu_seconds() - cpu0) / started.elapsed().as_secs_f64(),
    );
    layers.insert("proc.threads", params.threads as f64);
    let self_s: serde_json::Map = tracer
        .self_times()
        .into_iter()
        .map(|(name, s)| (name.to_string(), json!(s)))
        .collect();
    let mut detail = serde_json::Map::new();
    detail.insert("span_self_s".into(), Value::Object(self_s));
    detail.insert("spans".into(), json!((tracer.spans().len())));
    if let Some(path) = chrome {
        std::fs::write(path, tracer.chrome_trace())?;
    }
    Ok(Pass {
        key: "per_layer",
        metrics: layers
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        detail,
        tally,
        reference: warmup,
    })
}

/// Runs one workload in this process and prints its result; the last line
/// of standard output is the contract's result object.
fn run_workload<W: Workload>(args: &Args, contract: &Value, params: &Params) -> ExitCode {
    let seconds = args.seconds.unwrap_or_else(|| {
        let full = contract["run_seconds"]
            .as_f64()
            .expect("contract has run_seconds");
        if args.smoke {
            full / 20.0
        } else {
            full
        }
    });

    // Set-up, several times over when its time is reported; the last one
    // is the one the reps use.
    let mut setups = Vec::new();
    let workload = loop {
        let (w, s) = harness::time(|| W::setup(params));
        setups.push(s);
        let spent: f64 = setups.iter().sum();
        let enough = setups.len() >= MIN_SETUPS && spent >= SETUP_SECONDS;
        if args.trace || enough || setups.len() >= MAX_SETUPS {
            break w;
        }
    };
    let pass = if args.trace {
        match traced_pass(&workload, params, seconds, args.chrome.as_deref()) {
            Ok(pass) => pass,
            Err(e) => {
                eprintln!("cannot write the Chrome trace: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        untraced_pass(&workload, params, seconds, setups)
    };
    let Pass {
        key,
        mut metrics,
        mut detail,
        tally,
        reference,
    } = pass;

    let expected = contract_metrics(contract, key);
    for name in metrics.keys() {
        assert!(
            expected.iter().any(|(n, _)| n == name),
            "`{name}` is not under `{key}` in BENCHMARK.json"
        );
    }
    // A layer a workload does not run did no work in it.
    for (name, _) in &expected {
        metrics.entry(name.clone()).or_insert(0.0);
    }
    let correct = tally.failed == 0 && metrics.values().all(|v| v.is_finite());
    let metric_objects: serde_json::Map = expected
        .iter()
        .map(|(name, unit)| {
            (
                name.clone(),
                json!({"value": (metrics[name]), "unit": unit}),
            )
        })
        .collect();
    for (name, unit) in &expected {
        println!("{:<40} {:>16.6} {unit}", name, metrics[name]);
    }
    detail.insert("workload".into(), json!((args.workload)));
    detail.insert("trace".into(), json!((args.trace)));
    detail.insert("seconds".into(), json!(seconds));
    detail.insert("ops_per_rep".into(), json!((reference.ops)));
    detail.insert(
        "digest".into(),
        json!((format!("{:016x}", reference.digest.0))),
    );
    detail.insert("attempted".into(), json!((tally.attempted)));
    detail.insert("failed".into(), json!((tally.failed)));
    detail.insert(
        "failure_rate".into(),
        json!((tally.failed as f64 / tally.attempted.max(1) as f64)),
    );
    detail.insert("metrics".into(), Value::Object(metric_objects.clone()));
    detail.insert("env".into(), environment(params));
    let detail = serde_json::to_string(&Value::Object(detail)).expect("detail serialises");
    println!("detail {detail}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &detail) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let result = json!({
        "correct": correct,
        "attempted": (tally.attempted),
        "failed": (tally.failed),
        "metrics": (Value::Object(metric_objects))
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serialises")
    );
    ExitCode::SUCCESS
}

/// One child process per run, so that peak memory is per workload and a
/// crash in one cannot take the others' results with it. Returns the
/// child's detail object.
fn spawn_run(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(out)) = (trace, &args.out) {
        let stem = out.strip_suffix(".json").unwrap_or(out);
        cmd.args(["--chrome", &format!("{stem}.{workload}.trace.json")]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or(format!("{workload} printed no detail line"))?;
    serde_json::from_str(detail).map_err(|e| format!("{workload} detail does not parse: {e}"))
}

fn print_run(detail: &Value) {
    let workload = detail["workload"].as_str().unwrap_or("?");
    let pass = if detail["trace"] == Value::Bool(true) {
        "traced"
    } else {
        "untraced"
    };
    println!(
        "== {workload} ({pass}): digest {} attempted {} failed {}",
        detail["digest"].as_str().unwrap_or("?"),
        detail["attempted"].as_u64().unwrap_or(0),
        detail["failed"].as_u64().unwrap_or(0),
    );
    if let Some(metrics) = detail["metrics"].as_object() {
        for (name, m) in metrics {
            println!(
                "{workload:<14} {name:<40} {:>16.6} {}",
                m["value"].as_f64().unwrap_or(f64::NAN),
                m["unit"].as_str().unwrap_or("")
            );
        }
    }
}

/// Every workload, untraced then traced, each run in its own process.
fn run_all(args: &Args, contract: &Value) -> ExitCode {
    let mut runs = Vec::new();
    let mut failed = false;
    for workload in workload_names(contract) {
        for trace in [false, true] {
            match spawn_run(args, &workload, args.seed, trace) {
                Ok(detail) => {
                    print_run(&detail);
                    failed |= detail["failed"].as_u64() != Some(0);
                    runs.push(detail);
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    // This benchmark defines the instrument; it claims no gain.
    let runs = serde_json::to_string(&Value::Array(runs)).expect("runs serialise");
    let summary = format!("{{\"schema\":\"canopy-benchmark/v1\",\"runs\":{runs},\"claim\":null}}");
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &summary) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => println!("{summary}"),
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// `sets` back-to-back untraced sets, each on the next seed, the way the
/// driver measures spread: per workload and end-to-end metric, the
/// interquartile range and the widest gap of the set values as shares of
/// their median, beside the bound the contract gives the metric.
fn calibrate(args: &Args, contract: &Value, sets: usize) -> ExitCode {
    let workloads = workload_names(contract);
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for workload in &workloads {
            let detail = match spawn_run(args, workload, args.seed + set as u64, false) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(1);
                }
            };
            if detail["failed"].as_u64() != Some(0) {
                eprintln!("{workload}: operations failed in set {set}");
                return ExitCode::from(1);
            }
            for (name, m) in detail["metrics"].as_object().expect("detail has metrics") {
                values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(m["value"].as_f64().expect("metric has a value"));
            }
            eprintln!("set {set}: {workload} done");
        }
    }
    println!("| workload | metric | median | IQR ÷ median | (max − min) ÷ median | bound |");
    println!("|---|---|---|---|---|---|");
    let mut supported = true;
    for ((workload, name), v) in &values {
        let (q1, med, q3) = quartiles(v);
        let (lo, hi) = v
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                (lo.min(*x), hi.max(*x))
            });
        let bound = contract["end_to_end"]
            .as_array()
            .and_then(|ms| ms.iter().find(|m| m["name"].as_str() == Some(name)))
            .and_then(|m| m["bound"].as_f64())
            .expect("end-to-end metric has a bound");
        let spread = (q3 - q1) / med;
        // The driver does not hold set-up time to a spread.
        if name != "setup_s" && spread > bound {
            supported = false;
        }
        println!(
            "| {workload} | {name} | {med:.6} | {:.2} % | {:.2} % | {:.0} % |",
            spread * 100.0,
            (hi - lo) / med * 100.0,
            bound * 100.0
        );
    }
    if supported {
        ExitCode::SUCCESS
    } else {
        eprintln!("a spread exceeds its bound: widen the bound or steady the metric");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("CANOPY_POOL_SERIAL").is_some() {
        eprintln!("CANOPY_POOL_SERIAL is set: it swaps the dispatch engine; unset it to measure");
        return ExitCode::from(2);
    }
    if cfg!(debug_assertions) && !args.smoke {
        eprintln!("this is a debug build: measure with `cargo run --release`");
        return ExitCode::from(2);
    }
    // The box has two cores; more workers than cores only measures the
    // scheduler. Set before any thread exists.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(2);
    std::env::set_var("CANOPY_THREADS", threads.to_string());

    let contract: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let params = Params {
        seed: args.seed,
        smoke: args.smoke,
        threads,
    };
    if let Some(sets) = args.calibrate {
        return calibrate(&args, &contract, sets);
    }
    match args.workload.as_str() {
        "all" => run_all(&args, &contract),
        "fleet_sync" => run_workload::<fleet::FleetSync>(&args, &contract, &params),
        "fleet_stagger" => run_workload::<fleet::FleetStagger>(&args, &contract, &params),
        "train_step" => run_workload::<train::TrainStep>(&args, &contract, &params),
        "certify_sweep" => run_workload::<sweep::CertifySweep>(&args, &contract, &params),
        "search_gen" => run_workload::<search::SearchGen>(&args, &contract, &params),
        other => {
            eprintln!("unknown workload `{other}`");
            ExitCode::from(2)
        }
    }
}
