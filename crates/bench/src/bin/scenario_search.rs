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
//! The `canopy-telemetry/v4` report lands at PATH with a Chrome-trace
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
//! threshold, [`canopy_bench::minimize`] delta-debugs it down to a
//! minimal spec; `--fixture-out` additionally writes that spec as a
//! self-contained `canopy-adversarial-fixture/v1` JSON replayed by the
//! regression suite.
//!
//! `--min-gap BADNESS` turns the run into a hardening gate: if the search
//! never reaches that badness the binary exits with status 3 and the
//! report records `below_min_gap: true` — "hardened" (search failed to
//! find a weakness of the required size) is reported distinctly from an
//! ordinary run and from operational errors (status 1).

use std::process::ExitCode;

use canopy_bench::cli::{run_main, SearchOpts};
use canopy_bench::{f3, header, minimize, model, row, write_trace, HarnessOpts, Recording};
use canopy_netsim::Time;
use canopy_search::{
    search_with_recorder, Objective, SearchConfig, SearchReport, SearchSpace, OPTIMIZER,
};
use canopy_telemetry::Artifact;

/// Exits 3 when the `--min-gap` hardening gate trips.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = SearchOpts::parse(args)?;
    let (family, kind, seed) = (opts.family.name(), opts.objective.name(), opts.seed);
    let lineage = HarnessOpts::adversarial(opts.smoke);
    let (trained, _) = model(opts.scheme, &lineage);
    println!(
        "# Adversarial search — {family} × {kind} on {} ({OPTIMIZER}; budget {}, population {}, seed {seed})\n",
        trained.name, opts.budget, opts.population
    );

    let horizon = lineage.search_horizon();
    let space = SearchSpace::new(opts.family, seed).with_duration_cap(horizon);
    let objective = Objective::new(opts.objective, trained.clone());
    let config = SearchConfig {
        budget: opts.budget,
        population: opts.population,
        seed,
        threads: None,
    };
    let recording = opts.trace_out.as_ref().map(|_| Recording::default());
    let handle = recording.as_ref().map(Recording::handle);
    let outcome =
        search_with_recorder(&space, &objective, &config, handle).map_err(|e| e.to_string())?;

    header!("batch | best badness");
    for (i, b) in outcome.trajectory.iter().enumerate() {
        row!("{} | {}", i + 1, f3(*b));
    }

    let (best, threshold) = (outcome.best_badness, opts.objective.violation_threshold());
    let found = (&outcome.best_spec, best);
    let violation = (best >= threshold)
        .then(|| minimize(&objective, opts.family, found, seed, None, opts.smoke))
        .transpose()?;
    match &violation {
        Some((min, _)) => println!(
            "\nviolation (badness {best:.3} ≥ {threshold}); minimized in {} steps / {} evals to badness {:.3}",
            min.applied.len(),
            min.evaluations,
            min.badness
        ),
        None => println!("\nno violation found (best badness {best:.3} < threshold {threshold})"),
    }
    let (minimized, fixture) = violation.unzip();

    let report = SearchReport {
        schema: SearchReport::SCHEMA.to_string(),
        family: family.to_string(),
        scheme: trained.name.clone(),
        objective: kind.to_string(),
        optimizer: OPTIMIZER.to_string(),
        search_seed: seed,
        budget: opts.budget,
        population: opts.population,
        evaluations: outcome.evaluations,
        duration_cap_s: horizon.map(Time::as_secs_f64),
        violation_threshold: threshold,
        min_gap: opts.min_gap,
        below_min_gap: opts.min_gap.is_some_and(|g| best < g),
        best_badness: best,
        trajectory: outcome.trajectory.clone(),
        best_spec: outcome.best_spec.clone(),
        minimized,
    };
    report.write(&opts.out).map_err(|e| e.to_string())?;
    println!("wrote {} (schema {})", opts.out, report.schema);

    if let (Some(dir), Some(fixture)) = (&opts.fixture_out, &fixture) {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let path = format!("{dir}/{}", fixture.file_name());
        fixture.write(&path).map_err(|e| e.to_string())?;
        println!("wrote fixture {path}");
    }

    if let (Some(path), Some(recording)) = (&opts.trace_out, &recording) {
        // Replay the worst case behind the QC fallback monitor so the
        // decision timeline carries QC_sat and fallback engagement.
        recording.replay(&objective.fallback_scheme(), &outcome.best_spec)?;
        let label = format!("scenario_search {family} × {kind}");
        write_trace(path, &recording.report(&label, &trained.name))?;
    }

    match opts.min_gap {
        Some(gap) if report.below_min_gap => {
            println!("hardened: search failed to reach --min-gap {gap} (best badness {best:.3})")
        }
        Some(gap) => println!("search succeeded: best badness {best:.3} ≥ --min-gap {gap}"),
        None => {}
    }
    // Distinct status for "the gate tripped": callers can tell a hardened
    // scheme (3) apart from an operational failure (1).
    Ok(ExitCode::from(if report.below_min_gap { 3 } else { 0 }))
}

fn main() -> ExitCode {
    run_main("scenario_search: ", 1, run)
}
