//! Adversarial scenario search: hunt a fuzz family's parameter space for
//! the conditions where a learned scheme fails, minimize what is found,
//! and emit committable regression fixtures.
//!
//! ```text
//! cargo run -p canopy_bench --release --bin scenario_search -- \
//!     --family flash-crowd --seed 7 --objective qc_sat --budget 64 \
//!     [--scheme canopy-shallow] [--population N] [--min-gap BADNESS] \
//!     [--smoke] \
//!     [--out SEARCH_report.json] [--fixture-out DIR] [--trace-out PATH]
//! ```
//!
//! `--trace-out PATH` attaches a flight recorder: the search records
//! one event per generation and the worst case found is replayed once
//! more behind the QC fallback monitor to capture its decision timeline.
//! The `canopy-telemetry/v1` report lands at PATH with a Chrome-trace
//! twin next to it.
//!
//! Objectives: `qc_sat` (minimize the runtime certificate), `fallback_rate`
//! (maximize QC-monitor overrides), `reward_gap` (maximize reward conceded
//! to Cubic on the identical scenario). The search (the cross-entropy
//! method) is deterministic in `(family, seed, objective, scheme, budget,
//! population)` and bitwise reproducible at any `CANOPY_THREADS`; the
//! committed `SEARCH_report.json` is regenerated and compared byte for
//! byte by `crates/bench/tests/regenerate.rs`. `--smoke` switches to the
//! smoke-budget model (seed 3, the test suite's shared controller) and
//! caps decoded horizons at 4 s so a CI run stays inside a wall-clock
//! budget. When the worst case found clears the objective's violation
//! threshold, it is delta-debugged (within [`ShrinkConfig::default`]'s
//! budget) down to a minimal spec; `--fixture-out` additionally writes
//! that spec as a self-contained
//! `canopy-adversarial-fixture/v1` JSON replayed by the regression suite.
//!
//! `--min-gap BADNESS` turns the run into a hardening gate: if the search
//! never reaches that badness the binary exits with status 3 and the
//! report records `below_min_gap: true` — "hardened" (search failed to
//! find a weakness of the required size) is reported distinctly from an
//! ordinary run and from operational errors (status 1).

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use canopy_bench::{
    f3, flag_value, flag_value_where, header, model, model_seed, row, write_trace, HarnessOpts,
    DEFAULT_SEED,
};
use canopy_core::models::ModelKind;
use canopy_netsim::Time;
use canopy_scenarios::{run_scenario_recorded, Family};
use canopy_search::{
    search_with_recorder, AdversarialFixture, Minimized, Objective, ObjectiveKind, SearchConfig,
    SearchReport, SearchSpace, ShrinkConfig, OPTIMIZER,
};
use canopy_telemetry::{Artifact, FlightRecorder, SharedRecorder, TelemetryReport};

struct SearchOpts {
    family: Family,
    objective: ObjectiveKind,
    scheme: ModelKind,
    seed: u64,
    budget: usize,
    population: usize,
    min_gap: Option<f64>,
    smoke: bool,
    out: String,
    fixture_out: Option<String>,
    trace_out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<SearchOpts, String> {
    let mut opts = SearchOpts {
        family: Family::FlashCrowd,
        objective: ObjectiveKind::QcSat,
        scheme: ModelKind::Shallow,
        seed: DEFAULT_SEED,
        budget: 64,
        population: 16,
        min_gap: None,
        smoke: false,
        out: "SEARCH_report.json".to_string(),
        fixture_out: None,
        trace_out: None,
    };
    let at_least_1 = |n: &usize| *n >= 1;
    let positive = |x: &f64| x.is_finite() && *x > 0.0;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--family" => {
                let v: String = flag_value(flag, args.next())?;
                opts.family =
                    Family::parse(v.trim()).ok_or_else(|| format!("unknown family `{v}`"))?;
            }
            "--objective" => {
                let v: String = flag_value(flag, args.next())?;
                opts.objective = ObjectiveKind::parse(v.trim())
                    .ok_or_else(|| format!("unknown objective `{v}`"))?;
            }
            "--scheme" => {
                let v: String = flag_value(flag, args.next())?;
                opts.scheme = ModelKind::parse(v.trim())
                    .ok_or_else(|| format!("unknown scheme `{v}` (expected a model name)"))?;
            }
            "--seed" => opts.seed = flag_value(flag, args.next())?,
            "--budget" => {
                opts.budget = flag_value_where(flag, args.next(), at_least_1, "at least 1")?
            }
            "--population" => {
                opts.population = flag_value_where(flag, args.next(), at_least_1, "at least 1")?
            }
            "--min-gap" => {
                let gap = flag_value_where(flag, args.next(), positive, "positive badness")?;
                opts.min_gap = Some(gap);
            }
            "--out" => opts.out = flag_value(flag, args.next())?,
            "--fixture-out" => opts.fixture_out = Some(flag_value(flag, args.next())?),
            "--trace-out" => opts.trace_out = Some(flag_value(flag, args.next())?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

impl SearchOpts {
    /// The horizon cap on decoded scenarios: 4 s under `--smoke`, none
    /// otherwise.
    fn max_duration(&self) -> Option<Time> {
        self.smoke.then(|| Time::from_secs(4))
    }
}

/// `Ok(true)` means the `--min-gap` hardening gate tripped (exit 3).
fn run() -> Result<bool, String> {
    canopy_core::pool::env_threads()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_opts(&args)?;
    let harness = HarnessOpts {
        seed: model_seed(opts.smoke),
        smoke: opts.smoke,
    };
    let (trained, _) = model(opts.scheme, &harness);
    println!(
        "# Adversarial search — {} × {} on {} ({}; budget {}, population {}, seed {})\n",
        opts.family.name(),
        opts.objective.name(),
        trained.name,
        OPTIMIZER,
        opts.budget,
        opts.population,
        opts.seed
    );

    let space = SearchSpace::new(opts.family, opts.seed).with_duration_cap(opts.max_duration());
    let objective = Objective::new(opts.objective, trained.clone());
    let config = SearchConfig {
        budget: opts.budget,
        population: opts.population,
        seed: opts.seed,
        threads: None,
    };
    let recorder = opts
        .trace_out
        .as_ref()
        .map(|_| Rc::new(RefCell::new(FlightRecorder::default())));
    let handle: Option<SharedRecorder> = recorder.as_ref().map(|r| r.clone() as SharedRecorder);
    let outcome = search_with_recorder(&space, &objective, &config, handle.clone())
        .map_err(|e| e.to_string())?;

    header(&["batch", "best badness"]);
    for (i, b) in outcome.trajectory.iter().enumerate() {
        row(&[format!("{}", i + 1), f3(*b)]);
    }

    let threshold = opts.objective.violation_threshold();
    let mut minimized: Option<Minimized> = None;
    if outcome.best_badness >= threshold {
        let shrunk = canopy_search::shrink(
            &outcome.best_spec,
            outcome.best_badness,
            threshold,
            &ShrinkConfig::default(),
            |s| objective.badness(s),
        )
        .map_err(|e| e.to_string())?;
        println!(
            "\nviolation (badness {:.3} ≥ {threshold}); minimized in {} steps / {} evals to badness {:.3}",
            outcome.best_badness,
            shrunk.applied.len(),
            shrunk.evaluations,
            shrunk.badness
        );
        let mut spec = shrunk.spec;
        spec.name = format!(
            "{}-{}-s{}-min",
            opts.family.name(),
            opts.objective.name().replace('_', "-"),
            opts.seed
        );
        minimized = Some(Minimized {
            badness: shrunk.badness,
            threshold,
            evaluations: shrunk.evaluations,
            applied: shrunk.applied,
            spec,
        });
    } else {
        println!(
            "\nno violation found (best badness {:.3} < threshold {threshold})",
            outcome.best_badness
        );
    }

    let report = SearchReport {
        schema: SearchReport::SCHEMA.to_string(),
        family: opts.family.name().to_string(),
        scheme: trained.name.clone(),
        objective: opts.objective.name().to_string(),
        optimizer: OPTIMIZER.to_string(),
        search_seed: opts.seed,
        budget: opts.budget,
        population: opts.population,
        evaluations: outcome.evaluations,
        duration_cap_s: opts.max_duration().map(Time::as_secs_f64),
        violation_threshold: threshold,
        min_gap: opts.min_gap,
        below_min_gap: opts.min_gap.is_some_and(|g| outcome.best_badness < g),
        best_badness: outcome.best_badness,
        trajectory: outcome.trajectory.clone(),
        best_spec: outcome.best_spec.clone(),
        minimized,
    };
    report.write(&opts.out).map_err(|e| e.to_string())?;
    println!("wrote {} (schema {})", opts.out, report.schema);

    if let (Some(dir), Some(min)) = (&opts.fixture_out, &report.minimized) {
        let fixture = AdversarialFixture::new(
            opts.family,
            &objective,
            model_seed(opts.smoke),
            opts.smoke,
            opts.seed,
            min.badness,
            min.spec.clone(),
        );
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = format!("{dir}/{}", fixture.file_name());
        fixture.write(&path).map_err(|e| e.to_string())?;
        println!("wrote fixture {path}");
    }

    if let (Some(path), Some(recorder), Some(handle)) = (&opts.trace_out, &recorder, &handle) {
        // Replay the worst case behind the QC fallback monitor so the
        // decision timeline carries QC_sat and fallback engagement.
        let scheme = objective.fallback_scheme();
        run_scenario_recorded(&scheme, &outcome.best_spec, None, handle)
            .map_err(|e| e.to_string())?;
        let label = format!(
            "scenario_search {} × {}",
            opts.family.name(),
            opts.objective.name()
        );
        let telemetry = TelemetryReport::from_recorder(&recorder.borrow(), &label, &trained.name);
        write_trace(path, &telemetry)?;
    }

    match opts.min_gap {
        Some(gap) if report.below_min_gap => println!(
            "hardened: search failed to reach --min-gap {gap} (best badness {:.3})",
            report.best_badness
        ),
        Some(gap) => println!(
            "search succeeded: best badness {:.3} ≥ --min-gap {gap}",
            report.best_badness
        ),
        None => {}
    }
    Ok(report.below_min_gap)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        // Distinct status for "the gate tripped": callers can tell a
        // hardened scheme (3) apart from an operational failure (1).
        Ok(true) => ExitCode::from(3),
        Err(e) => {
            eprintln!("scenario_search: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn acceptance_flags_parse() {
        let opts = parse_opts(&argv(&[
            "--family",
            "flash-crowd",
            "--seed",
            "7",
            "--objective",
            "qc_sat",
            "--budget",
            "64",
        ]))
        .unwrap();
        assert_eq!(opts.family, Family::FlashCrowd);
        assert_eq!(opts.objective, ObjectiveKind::QcSat);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.budget, 64);
        assert!(opts.max_duration().is_none());
    }

    #[test]
    fn smoke_mode_caps_horizons() {
        let opts = parse_opts(&argv(&["--smoke"])).unwrap();
        assert_eq!(opts.max_duration(), Some(Time::from_secs(4)));
    }

    #[test]
    fn min_gap_parses_and_rejects_nonsense() {
        let opts = parse_opts(&argv(&["--min-gap", "0.35"])).unwrap();
        assert_eq!(opts.min_gap, Some(0.35));
        assert_eq!(parse_opts(&argv(&[])).unwrap().min_gap, None);
        assert!(parse_opts(&argv(&["--min-gap", "0"])).is_err());
        assert!(parse_opts(&argv(&["--min-gap", "-1"])).is_err());
        assert!(parse_opts(&argv(&["--min-gap", "inf"])).is_err());
        assert!(parse_opts(&argv(&["--min-gap"])).is_err());
    }

    #[test]
    fn trace_out_parses() {
        let opts = parse_opts(&argv(&["--trace-out", "trace.json"])).unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(parse_opts(&argv(&[])).unwrap().trace_out, None);
        assert!(parse_opts(&argv(&["--trace-out"])).is_err());
    }

    #[test]
    fn bad_flags_fail_loudly() {
        assert!(parse_opts(&argv(&["--family", "tsunami"])).is_err());
        assert!(parse_opts(&argv(&["--objective", "latency"])).is_err());
        assert!(parse_opts(&argv(&["--budget", "0"])).is_err());
        assert!(parse_opts(&argv(&["--scheme", "cubic"])).is_err());
        assert!(parse_opts(&argv(&["--mystery"])).is_err());
    }
}
