//! Shared plumbing for the evaluation harness.
//!
//! The [`figures`] registry regenerates every table and figure of the
//! paper's evaluation through one `figures` binary; `scenario_lab`,
//! `scenario_search`, `harden` and `serve_lab` drive the scenario matrix,
//! adversarial search, the hardening loop and the serving fleet. They
//! share: a fixed default seed, the cached model store (so every run sees
//! identical trained controllers), scheme-name resolution, simple table
//! printers, and a `--smoke` mode that shrinks runs enough for CI.

pub mod figures;

use std::path::PathBuf;
use std::str::FromStr;

use canopy_core::env::NoiseConfig;
use canopy_core::eval::Scheme;
use canopy_core::models::{self, ModelKind, TrainBudget, TrainedModel};
use canopy_core::trainer::TrainingHistory;
use canopy_netsim::Time;
use canopy_scenarios::ScenarioSpec;
use canopy_telemetry::{Artifact, FlightRecorder, TelemetryReport};

/// The seed every figure uses unless overridden with `--seed N`.
pub const DEFAULT_SEED: u64 = 20260427;

/// The value following `flag` on a strict command line: a missing or
/// malformed value is an error naming the flag — never a silent default.
pub fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let bad = |_| format!("{flag}: bad value `{value}`");
    value.parse().map_err(bad)
}

/// A [`flag_value`] that must also satisfy `ok` (else "`flag` must be
/// `what`").
pub fn flag_value_where<T: FromStr>(
    flag: &str,
    value: Option<&String>,
    ok: impl Fn(&T) -> bool,
    what: &str,
) -> Result<T, String> {
    let value = flag_value(flag, value)?;
    if ok(&value) {
        Ok(value)
    } else {
        Err(format!("{flag} must be {what}"))
    }
}

/// Command-line options shared by all harness binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Master seed.
    pub seed: u64,
    /// Shrink durations/budgets for smoke testing.
    pub smoke: bool,
}

impl HarnessOpts {
    /// Parses `--seed N` and `--smoke` out of `args` (the command line
    /// without the program name and without whatever the binary consumed
    /// itself). Anything else is an error, as is a `--seed` without a
    /// value or with one that is not a `u64` — never the default seed.
    pub fn parse(args: &[String]) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts {
            seed: DEFAULT_SEED,
            smoke: false,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => opts.smoke = true,
                "--seed" => opts.seed = flag_value(arg, args.next())?,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The training budget for learned models under these options.
    pub fn budget(&self) -> TrainBudget {
        if self.smoke {
            TrainBudget::smoke()
        } else {
            TrainBudget::standard()
        }
    }

    /// The evaluation duration for single-flow runs.
    pub fn eval_duration(&self) -> Time {
        if self.smoke {
            Time::from_secs(4)
        } else {
            Time::from_secs(20)
        }
    }
}

/// The model-training seed of the adversarial harnesses: seed 3 in smoke
/// mode (the test suite's shared smoke controller, so committed fixtures
/// replay against a model the tests rebuild in seconds), else
/// [`DEFAULT_SEED`].
pub fn model_seed(smoke: bool) -> u64 {
    if smoke {
        3
    } else {
        DEFAULT_SEED
    }
}

/// The shared on-disk model cache used by all figures.
pub fn model_dir() -> PathBuf {
    std::env::var("CANOPY_MODEL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| models::default_cache_dir())
}

/// Loads (or trains and caches) one of the paper's models.
pub fn model(kind: ModelKind, opts: &HarnessOpts) -> (TrainedModel, TrainingHistory) {
    models::load_or_train(&model_dir(), kind, opts.seed, opts.budget())
}

/// Resolves a scheme name: a classic kernel (`canopy_cc::by_name`) or one
/// of the paper's trained models ([`ModelKind::parse`]), loaded from the
/// model cache.
pub fn resolve_scheme(name: &str, opts: &HarnessOpts) -> Result<Scheme, String> {
    if canopy_cc::by_name(name).is_some() {
        return Ok(Scheme::Baseline(name.to_string()));
    }
    let kind = ModelKind::parse(name).ok_or_else(|| format!("unknown scheme `{name}`"))?;
    Ok(Scheme::Learned(model(kind, opts).0))
}

/// The Figure 11 evaluation conditions as declarative scenario specs: for
/// each evaluation trace, a clean run and a ±5 % delay-noise run over a
/// 2 BDP buffer and 40 ms propagation RTT — committed under
/// `fixtures/fig11/specs.json` (full mode, default seed) so the figure's
/// conditions are data, and replayed through the scenario-matrix runner
/// by `figures fig11`. Specs come in (clean, noisy) pairs, trace-major.
pub fn fig11_specs(seed: u64, smoke: bool) -> Vec<ScenarioSpec> {
    let mut traces = if smoke {
        canopy_traces::synthetic::all(seed)[..3].to_vec()
    } else {
        canopy_traces::synthetic::all(seed)
    };
    traces.extend(canopy_traces::cellular::all(seed));
    // The same horizon every single-flow harness uses, from one place.
    let duration = HarnessOpts { seed, smoke }.eval_duration();
    let mut specs = Vec::with_capacity(traces.len() * 2);
    for trace in &traces {
        for noisy in [false, true] {
            let mut spec = ScenarioSpec::from_eval_trace(trace.name(), seed);
            let condition = if noisy { "noisy" } else { "clean" };
            spec.name = format!("fig11-{}-{condition}", trace.name());
            spec.family = "fig11".to_string();
            spec.buffer_bdp = 2.0;
            spec.duration = duration;
            spec.noise = noisy.then_some(NoiseConfig {
                mu: 0.05,
                seed: seed ^ 0x11,
            });
            debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
            specs.push(spec);
        }
    }
    specs
}

/// The Chrome-trace twin of a telemetry report path: `X.json` becomes
/// `X.chrome.json` (any other name just gets the suffix appended), so
/// `--trace-out` always yields both the canonical report and something a
/// Perfetto / `chrome://tracing` viewer opens directly.
pub fn chrome_trace_path(path: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    }
}

/// Validates and writes one telemetry report to `path`, plus its
/// Chrome-trace export next to it. Every `--trace-out` flag funnels here
/// so the two artifacts never drift apart.
pub fn write_trace(path: &str, report: &TelemetryReport) -> Result<(), String> {
    report.write(path).map_err(|e| e.to_string())?;
    let chrome = chrome_trace_path(path);
    std::fs::write(&chrome, canopy_telemetry::chrome_trace(report))
        .map_err(|e| format!("cannot write {chrome}: {e}"))?;
    let schema = TelemetryReport::SCHEMA;
    println!("wrote {path} (schema {schema}) and {chrome}");
    Ok(())
}

/// Writes the live-observability artifacts of a finished run into `dir`:
/// the JSONL metrics stream (`metrics.jsonl`, one
/// `canopy-live-metrics/v1` snapshot per line), the latest
/// Prometheus-style exposition (`exposition.prom`), and — when an SLO
/// watchdog ran — the canonical alert ledger (`alerts.json`,
/// `canopy-alerts/v1`). Every `--live-out` flag funnels here. The
/// snapshots and then the ledger are validated before anything else is
/// written.
pub fn write_live_out(dir: &str, rec: &FlightRecorder) -> Result<(), String> {
    let metrics = format!("{dir}/metrics.jsonl");
    let alerts = format!("{dir}/alerts.json");
    for snap in rec.live_snapshots() {
        snap.validate().map_err(|e| format!("{metrics}: {e}"))?;
    }
    if let Some(ledger) = rec.alert_ledger() {
        ledger.validate().map_err(|e| format!("{alerts}: {e}"))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    std::fs::write(&metrics, rec.live_metrics_jsonl())
        .map_err(|e| format!("cannot write {metrics}: {e}"))?;
    let prom = format!("{dir}/exposition.prom");
    std::fs::write(&prom, rec.live_exposition())
        .map_err(|e| format!("cannot write {prom}: {e}"))?;
    let mut wrote = format!(
        "wrote {metrics} ({} snapshots) and {prom}",
        rec.live_snapshots().len()
    );
    if let Some(ledger) = rec.alert_ledger() {
        ledger.write(&alerts).map_err(|e| e.to_string())?;
        wrote.push_str(&format!(" and {alerts} ({} alerts)", ledger.alerts.len()));
    }
    println!("{wrote}");
    Ok(())
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a float with 3 decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Mean and population standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    fn parse(args: &[&str]) -> Result<HarnessOpts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        HarnessOpts::parse(&args)
    }

    #[test]
    fn parse_reads_seed_and_smoke_and_rejects_everything_else() {
        let o = parse(&[]).expect("empty command line");
        assert_eq!((o.seed, o.smoke), (DEFAULT_SEED, false));
        let o = parse(&["--seed", "7"]).expect("valid seed");
        assert_eq!((o.seed, o.smoke), (7, false));
        let o = parse(&["--smoke", "--seed", "9"]).expect("both");
        assert_eq!((o.seed, o.smoke), (9, true));
        // A typo, a stray positional, or a flag missing its value must
        // never silently run the full-size default.
        for bad in [&["--smok"][..], &["fig99"], &["--smoke", "7"], &["--seed"]] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse(&["--smok"]).expect_err("typo");
        assert!(err.contains("unknown argument `--smok`"), "{err}");
    }

    #[test]
    fn parse_rejects_a_bad_seed_instead_of_defaulting() {
        for bad in [
            &["--seed", "7x"][..],
            &["--seed", "-1"],
            &["--seed", ""],
            &["--smoke", "--seed"],
        ] {
            let err = parse(bad).expect_err("bad seed");
            assert!(err.contains("--seed"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn default_opts() {
        let o = HarnessOpts {
            seed: DEFAULT_SEED,
            smoke: true,
        };
        assert_eq!(o.budget(), TrainBudget::smoke());
        // Smoke runs use the test suite's shared seed-3 controller.
        assert_eq!((model_seed(true), model_seed(false)), (3, DEFAULT_SEED));
    }
}
