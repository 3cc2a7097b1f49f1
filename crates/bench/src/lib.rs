//! Shared plumbing for the evaluation harness.
//!
//! The [`figures`] registry regenerates every table and figure of the
//! paper's evaluation through one `figures` binary; `scenario_lab`,
//! `scenario_search`, `harden` and `serve_lab` drive the scenario matrix,
//! adversarial search, the hardening loop and the serving fleet. Each
//! binary holds its own logic only; every mechanism they share is stated
//! once, here:
//!
//! - command lines: each harness's options struct and pure parser, the
//!   one strict flag loop, comma lists, and the exit-status mapping of
//!   every `main` live in [`cli`];
//! - models: [`model`] loads (or trains and caches) a model for a
//!   [`HarnessOpts`]; [`HarnessOpts::adversarial`] is the adversarial
//!   harnesses' model lineage and [`HarnessOpts::search_horizon`] their
//!   smoke horizon; [`resolve_scheme`] turns a scheme name into a scheme;
//! - tables: the [`title!`], [`header!`] and [`row!`] macros;
//! - recordings: a [`Recording`] replays scenarios on a flight recorder
//!   and exports a telemetry report; [`write_trace`] and
//!   [`write_live_out`] write what it holds;
//! - violations: [`minimize`] shrinks a search's worst case into a named
//!   report entry and fixture.

// The table macros come before the modules, which use them by textual
// scope.

/// Prints a table's title from a format string.
#[macro_export]
macro_rules! title {
    ($($arg:tt)*) => { println!("\n# {}\n", format_args!($($arg)*)) };
}

/// Prints a Markdown table's header row and separator from a
/// ` | `-separated format string.
#[macro_export]
macro_rules! header {
    ($($arg:tt)*) => {{
        let columns = format!($($arg)*);
        println!("| {columns} |\n|{}", "---|".repeat(columns.split(" | ").count()));
    }};
}

/// Prints one Markdown table row from a ` | `-separated format string.
#[macro_export]
macro_rules! row {
    ($($arg:tt)*) => { println!("| {} |", format_args!($($arg)*)) };
}

pub mod cli;
pub mod figures;

use std::cell::{RefCell, RefMut};
use std::path::PathBuf;
use std::rc::Rc;

use canopy_core::env::NoiseConfig;
use canopy_core::eval::Scheme;
use canopy_core::models::{self, ModelKind, TrainBudget, TrainedModel};
use canopy_core::trainer::TrainingHistory;
use canopy_netsim::Time;
use canopy_scenarios::{run_scenario_recorded, Family, ScenarioSpec};
use canopy_search::{AdversarialFixture, Minimized, Objective, ShrinkConfig};
use canopy_telemetry::{Artifact, FlightRecorder, SharedRecorder, TelemetryReport};

/// The seed every figure uses unless overridden with `--seed N`.
pub const DEFAULT_SEED: u64 = 20260427;

/// Command-line options shared by all harness binaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Master seed.
    pub seed: u64,
    /// Shrink durations/budgets for smoke testing.
    pub smoke: bool,
}

impl HarnessOpts {
    /// The model lineage of the adversarial harnesses (`scenario_search`,
    /// `harden`): seed 3 in smoke mode (the test suite's shared smoke
    /// controller, so committed fixtures replay against a model the tests
    /// rebuild in seconds), else [`DEFAULT_SEED`].
    pub fn adversarial(smoke: bool) -> HarnessOpts {
        let seed = if smoke { 3 } else { DEFAULT_SEED };
        HarnessOpts { seed, smoke }
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
    pub(crate) fn eval_duration(&self) -> Time {
        if self.smoke {
            Time::from_secs(4)
        } else {
            Time::from_secs(20)
        }
    }

    /// The horizon cap on decoded search scenarios: 4 s under `--smoke`
    /// (so committed fixtures replay at the horizon they were found at),
    /// none otherwise.
    pub fn search_horizon(&self) -> Option<Time> {
        self.smoke.then(|| Time::from_secs(4))
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
/// of the paper's trained models ([`ModelKind`]), loaded from the model
/// cache.
pub fn resolve_scheme(name: &str, opts: &HarnessOpts) -> Result<Scheme, String> {
    if canopy_cc::by_name(name).is_some() {
        return Ok(Scheme::Baseline(name.to_string()));
    }
    Ok(Scheme::Learned(model(name.parse()?, opts).0))
}

/// The Figure 11 evaluation conditions as declarative scenario specs: for
/// each evaluation trace, a clean run and a ±5 % delay-noise run over a
/// 2 BDP buffer and 40 ms propagation RTT — committed under
/// `fixtures/fig11/specs.json` (full mode, default seed) so the figure's
/// conditions are data, and replayed through the scenario-matrix runner
/// by `figures fig11`. Specs come in (clean, noisy) pairs, trace-major.
pub fn fig11_specs(seed: u64, smoke: bool) -> Vec<ScenarioSpec> {
    let mut traces = if smoke {
        canopy_netsim::traces::synthetic::all(seed)[..3].to_vec()
    } else {
        canopy_netsim::traces::synthetic::all(seed)
    };
    traces.extend(canopy_netsim::traces::cellular::all(seed));
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

/// Validates and writes one telemetry report to `path`, plus its
/// Chrome-trace twin next to it — `X.json` becomes `X.chrome.json` (any
/// other name just gets the suffix appended), which a Perfetto /
/// `chrome://tracing` viewer opens directly. Every `--trace-out` flag
/// funnels here so the two artifacts never drift apart.
pub fn write_trace(path: &str, report: &TelemetryReport) -> Result<(), String> {
    report.write(path).map_err(|e| e.to_string())?;
    let chrome = format!("{}.chrome.json", path.strip_suffix(".json").unwrap_or(path));
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

/// A flight recorder shared with the searches and replays that record
/// into it: the one way a harness replays a scenario on a recorder and
/// exports the recording.
#[derive(Default)]
pub struct Recording(Rc<RefCell<FlightRecorder>>);

impl Recording {
    /// Records on `recorder` (a default one is [`Recording::default`]).
    pub fn new(recorder: FlightRecorder) -> Recording {
        Recording(Rc::new(RefCell::new(recorder)))
    }

    /// The handle a search records through.
    pub fn handle(&self) -> SharedRecorder {
        self.0.clone()
    }

    /// Replays `spec` under `scheme` on the recorder.
    pub fn replay(&self, scheme: &Scheme, spec: &ScenarioSpec) -> Result<(), String> {
        run_scenario_recorded(scheme, spec, None, &self.handle()).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// The recorder itself.
    pub fn recorder(&self) -> RefMut<'_, FlightRecorder> {
        self.0.borrow_mut()
    }

    /// The recording as a telemetry report labelled `label` for `model`.
    pub fn report(&self, label: &str, model: &str) -> TelemetryReport {
        TelemetryReport::from_recorder(&self.0.borrow(), label, model)
    }
}

/// Minimizes a violation the search over `family` seeded `search_seed`
/// found — `found` at its badness against `objective` — within
/// [`ShrinkConfig::default`]'s budget, and names it
/// `{family}-{objective}-[r{round}-]s{search_seed}-min`: as the report's
/// [`Minimized`] entry and as a fixture of the smoke or standard
/// adversarial lineage ([`HarnessOpts::adversarial`]).
pub fn minimize(
    objective: &Objective,
    family: Family,
    (found, badness): (&ScenarioSpec, f64),
    search_seed: u64,
    round: Option<usize>,
    smoke: bool,
) -> Result<(Minimized, AdversarialFixture), String> {
    let threshold = objective.kind.violation_threshold();
    let config = ShrinkConfig::default();
    let shrunk =
        canopy_search::shrink(found, badness, threshold, &config, |s| objective.badness(s))
            .map_err(|e| e.to_string())?;
    let mut spec = shrunk.spec;
    let round = round.map_or(String::new(), |r| format!("r{r}-"));
    let kind = objective.kind.name().replace('_', "-");
    spec.name = format!("{}-{kind}-{round}s{search_seed}-min", family.name());
    let lineage = HarnessOpts::adversarial(smoke);
    let fixture = AdversarialFixture::new(
        family,
        objective,
        lineage.seed,
        smoke,
        search_seed,
        shrunk.badness,
        spec.clone(),
    );
    let minimized = Minimized {
        badness: shrunk.badness,
        threshold,
        evaluations: shrunk.evaluations,
        applied: shrunk.applied,
        spec,
    };
    Ok((minimized, fixture))
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
pub(crate) fn mean_std(values: &[f64]) -> (f64, f64) {
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

    #[test]
    fn default_opts() {
        let o = HarnessOpts {
            seed: DEFAULT_SEED,
            smoke: true,
        };
        assert_eq!(o.budget(), TrainBudget::smoke());
        // Smoke runs use the test suite's shared seed-3 controller.
        let lineage = |smoke| HarnessOpts::adversarial(smoke).seed;
        assert_eq!((lineage(true), lineage(false)), (3, DEFAULT_SEED));
    }
}
