//! The closed adversarial loop: fixture-driven hardening rounds with a
//! committed robustness ledger.
//!
//! ```text
//! cargo run -p canopy_bench --release --bin harden -- \
//!     [--scheme canopy-shallow] [--objective reward_gap] [--seed N] \
//!     [--rounds N] [--budget N] [--population N] [--smoke] \
//!     [--ledger ROBUSTNESS_ledger.json] [--fixture-out fixtures/adversarial] \
//!     [--trace-out TELEMETRY_report.json]
//! ```
//!
//! Each round: (1) train a model whose episode sampler mixes a seeded
//! half (`MIX_FRACTION`) of adversarial episodes — fuzz-family scenarios
//! plus every fixture in the committed corpus plus this run's earlier
//! finds — into the standard training pool; (2) gate it on a certification
//! probe (a collapsed-`QC_sat` model is rejected and the previous
//! round's model keeps searching); (3) re-run adversarial search over
//! every fuzz family against the admitted model; (4) append one ledger
//! entry per family with the worst case's `reward_gap` / `QC_sat` /
//! `fallback_rate`; (5) minimize the round's worst find and, when it
//! also violates against the *base* model, commit it to the fixture
//! corpus so the corpus grows monotonically. Round 0 records the
//! unhardened base model. The loop stops when the round's violation
//! mass (total badness in excess of the objective threshold) stops
//! shrinking, hits zero, or the round budget runs out.
//!
//! The whole run is deterministic in its flags and the corpus snapshot,
//! and bitwise invariant to `CANOPY_THREADS`; the committed ledger, its
//! fixtures and their traces are regenerated and compared byte for byte
//! by `crates/bench/tests/regenerate.rs`.
//!
//! `--trace-out PATH` attaches a flight recorder to the hardening run:
//! every search records one event per generation
//! and the report lands at PATH with a Chrome-trace twin. Independently
//! of that flag, every *committed* fixture gets a decision-trace
//! artifact at `{fixture-out}/traces/{fixture}.trace.json` — the
//! minimized scenario replayed once against the base model behind the
//! QC fallback monitor, so the regression corpus carries the decision
//! timeline that exhibits each violation. `--retrace` skips the rounds
//! entirely and (re-)emits those trace artifacts for every fixture
//! already in the corpus, rebuilding each fixture's recorded model from
//! its own metadata.

use std::io::ErrorKind;
use std::process::ExitCode;

use canopy_bench::cli::{run_main, HardenOpts};
use canopy_bench::{
    f3, header, minimize, model, model_dir, row, write_trace, HarnessOpts, Recording,
};
use canopy_core::env::EpisodeSpec;
use canopy_core::models::{trainer_config, TrainedModel};
use canopy_core::trainer::{EpisodeMix, Trainer};
use canopy_netsim::Time;
use canopy_scenarios::{episode_spec, generate, Family, ScenarioSpec};
use canopy_search::{
    load_corpus, search_with_recorder, AdversarialFixture, LedgerEntry, Objective, ObjectiveKind,
    RobustnessLedger, SearchConfig, SearchSpace,
};
use canopy_telemetry::artifact::Cause;
use canopy_telemetry::Artifact;

/// The share of episode boundaries that redraw from the adversarial pool.
const MIX_FRACTION: f64 = 0.5;

/// The horizon cap for mix-pool *episodes*. Shorter than the search cap:
/// the sampler only redraws at episode boundaries, so episodes must be
/// short relative to the round's training budget or one adversarial draw
/// would swallow the whole run.
fn mix_episode_cap(opts: &HardenOpts) -> Time {
    if opts.smoke {
        Time::from_millis(1500)
    } else {
        Time::from_secs(3)
    }
}

/// The dedicated mix-RNG seed for one round (any deterministic mixing of
/// lineage identity and round index works; this one keeps distinct rounds
/// on well-separated streams).
fn mix_seed(model_seed: u64, round: usize) -> u64 {
    model_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64)
}

/// The adversarial episode pool for one round: two seeded scenarios per
/// fuzz family, plus the whole fixture corpus, plus every violating
/// scenario earlier rounds of this run found. Specs that cannot compile
/// into an episode are dropped (the trainer would reject them anyway).
fn build_pool(
    specs_from_rounds: &[ScenarioSpec],
    corpus: &[AdversarialFixture],
    k: usize,
    cap: Time,
) -> Vec<EpisodeSpec> {
    let generated = Family::ALL
        .into_iter()
        .flat_map(|f| [11, 12].map(|s| generate(f, s)));
    let committed = corpus.iter().map(|fixture| fixture.spec.clone());
    let specs = generated
        .chain(committed)
        .chain(specs_from_rounds.iter().cloned());
    specs
        .filter_map(|spec| episode_spec(&spec, k, Some(cap)).ok())
        .collect()
}

/// Trains round `round`'s hardened model: the base recipe with the
/// adversarial episode mix spliced into its sampler.
fn train_hardened(opts: &HardenOpts, pool: Vec<EpisodeSpec>, round: usize) -> TrainedModel {
    let lineage = HarnessOpts::adversarial(opts.smoke);
    let mut cfg = trainer_config(opts.scheme, lineage.seed, lineage.budget());
    if opts.smoke {
        // The stock smoke budget (a few hundred steps over 6 s episodes)
        // never reaches an episode boundary, so the mix would never draw.
        // Hardened smoke rounds instead train longer on shortened
        // episodes, crossing many boundaries per run.
        cfg.epochs = 6;
        cfg.steps_per_epoch = 200;
        for env in &mut cfg.envs {
            env.episode = mix_episode_cap(opts);
        }
    }
    cfg.name = format!("{}+hard-r{round}", opts.scheme.name());
    cfg.mix = Some(EpisodeMix {
        fraction: MIX_FRACTION,
        seed: mix_seed(lineage.seed, round),
        pool,
    });
    Trainer::new(cfg).train().model
}

/// Mean `QC_sat` of the certification gate: the admitted model must keep
/// its runtime certificate alive on a fixed probe scenario.
fn gate_qc_sat(objective: &Objective, probe: &ScenarioSpec) -> Result<f64, String> {
    let gate = Objective {
        kind: ObjectiveKind::QcSat,
        ..objective.clone()
    };
    Ok(1.0 - gate.badness(probe).map_err(|e| e.to_string())?)
}

/// A hardened model whose probe `QC_sat` drops below this is rejected.
const GATE_FLOOR: f64 = 0.25;

/// Runs the rounds after the ledger's last one (round 0 for a fresh
/// lineage), appending each round's entries to `ledger`; returns the
/// fixtures they committed.
fn run_rounds(
    opts: &HardenOpts,
    base: &TrainedModel,
    corpus_snapshot: &[AdversarialFixture],
    ledger: &mut RobustnessLedger,
    recording: Option<&Recording>,
) -> Result<Vec<AdversarialFixture>, String> {
    // The search horizon of the smoke lineage, so committed fixtures
    // replay at the horizon they were found at.
    let lineage = HarnessOpts::adversarial(opts.smoke);
    let cap = lineage.search_horizon().unwrap_or(Time::from_secs(6));
    let threshold = opts.objective.violation_threshold();
    let probe = ScenarioSpec::simple("harden-gate", 24e6, Time::from_millis(40), cap);
    let base_objective = Objective::new(opts.objective, base.clone());
    let k = base.k;

    let mut corpus: Vec<AdversarialFixture> = corpus_snapshot.to_vec();
    let mut found_specs: Vec<ScenarioSpec> = Vec::new();
    let mut fixtures = Vec::new();
    let mut current = base.clone();
    let mut prev_mass: Option<f64> = None;
    let first_round = ledger.last_round().map_or(0, |r| r + 1);
    let last_round = first_round + opts.rounds;
    for round in first_round..=last_round {
        // Round 0 measures the unhardened base; every later round
        // retrains with the corpus accumulated so far mixed in.
        if round > first_round || first_round > 0 {
            let pool = build_pool(&found_specs, &corpus, k, mix_episode_cap(opts));
            let hardened = train_hardened(opts, pool, round);
            let hardened_obj = Objective::new(opts.objective, hardened.clone());
            let gate = gate_qc_sat(&hardened_obj, &probe)?;
            if gate < GATE_FLOOR {
                println!(
                    "round {round}: hardened model REJECTED (gate QC_sat {gate:.3} < {GATE_FLOOR}); keeping {}",
                    current.name
                );
            } else {
                current = hardened;
            }
        }
        let objective = Objective::new(opts.objective, current.clone());
        let gate = gate_qc_sat(&objective, &probe)?;

        println!("\n## Round {round} — {}\n", current.name);
        header!("family | badness | reward gap | qc_sat | fallback");

        let search_seed = opts.seed + round as u64;
        let mut worst: Option<(Family, f64, ScenarioSpec)> = None;
        for family in Family::ALL {
            let space = SearchSpace::new(family, search_seed).with_duration_cap(Some(cap));
            let config = SearchConfig {
                budget: opts.budget,
                population: opts.population,
                seed: search_seed,
                threads: None,
            };
            let handle = recording.map(Recording::handle);
            let outcome = search_with_recorder(&space, &objective, &config, handle)
                .map_err(|e| e.to_string())?;
            let scores = objective
                .score_all(&outcome.best_spec)
                .map_err(|e| e.to_string())?;
            let violation = outcome.best_badness >= threshold;
            row!(
                "{} | {} | {} | {} | {}",
                family.name(),
                f3(outcome.best_badness),
                f3(scores.reward_gap),
                f3(scores.qc_sat),
                f3(scores.fallback_rate),
            );
            if violation {
                found_specs.push(outcome.best_spec.clone());
                if worst.as_ref().is_none_or(|w| outcome.best_badness > w.1) {
                    worst = Some((family, outcome.best_badness, outcome.best_spec.clone()));
                }
            }
            ledger.entries.push(LedgerEntry {
                round,
                model: current.name.clone(),
                family: family.name().to_string(),
                objective: opts.objective.name().to_string(),
                search_seed,
                evaluations: outcome.evaluations,
                badness: outcome.best_badness,
                reward_gap: scores.reward_gap,
                qc_sat: scores.qc_sat,
                fallback_rate: scores.fallback_rate,
                gate_qc_sat: gate,
                violation,
                fixture: None,
            });
        }

        // Minimize the round's worst find and grow the corpus with it —
        // but only when it also violates against the *base* model, so
        // every committed fixture replays from the file alone (the
        // regression suite can only rebuild base models).
        if let Some((family, badness, spec)) = worst.filter(|_| round > 0) {
            let base_badness = base_objective.badness(&spec).map_err(|e| e.to_string())?;
            if base_badness >= threshold {
                let found = (&spec, base_badness);
                let (_, fixture) = minimize(
                    &base_objective,
                    family,
                    found,
                    search_seed,
                    Some(round),
                    opts.smoke,
                )?;
                fixture
                    .validate()
                    .map_err(|e| format!("round {round} fixture: {e}"))?;
                let name = fixture.file_name();
                if !corpus.iter().any(|f| f.file_name() == name) {
                    let mut entries = ledger.entries.iter_mut().rev();
                    let entry = entries.find(|e| e.round == round && e.family == family.name());
                    if let Some(e) = entry {
                        e.fixture = Some(name.clone());
                    }
                    println!(
                        "\nround {round}: committed {} (badness {badness:.3} vs {}, {:.3} minimized vs base)",
                        name, current.name, fixture.recorded_badness
                    );
                    corpus.push(fixture.clone());
                    fixtures.push(fixture);
                }
            }
        }

        let mass = ledger.violation_mass(round);
        println!("\nround {round}: violation mass {mass:.3}");
        if round > first_round {
            if mass == 0.0 {
                println!("fully hardened — no family violates; stopping");
                break;
            }
            if prev_mass.is_some_and(|p| mass >= p) {
                println!("violation mass stopped shrinking; stopping");
                break;
            }
        }
        prev_mass = Some(mass);
    }
    Ok(fixtures)
}

/// The ledger this run appends to: the one at `--ledger` when it belongs
/// to this run's lineage (new rounds continue past its last round), a
/// fresh round-0 lineage when no file is there. Any other failure to read
/// it — unreadable, not UTF-8, not a valid ledger, another lineage — is
/// an error, so a file the run cannot resume is never overwritten.
fn resume_ledger(opts: &HardenOpts) -> Result<RobustnessLedger, String> {
    let model_seed = HarnessOpts::adversarial(opts.smoke).seed;
    let fresh = RobustnessLedger::new(opts.scheme.name(), model_seed, opts.smoke);
    let ledger = match RobustnessLedger::read(&opts.ledger) {
        Err(e) if matches!(&e.cause, Cause::Io(e) if e.kind() == ErrorKind::NotFound) => {
            return Ok(fresh)
        }
        read => read.map_err(|e| e.to_string())?,
    };
    if ledger.scheme != opts.scheme.name()
        || ledger.model_seed != model_seed
        || ledger.smoke != opts.smoke
    {
        return Err(format!(
            "{}: existing ledger is for {}/seed {}/smoke {}, not this run's lineage",
            opts.ledger, ledger.scheme, ledger.model_seed, ledger.smoke
        ));
    }
    Ok(ledger)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = HardenOpts::parse(args)?;
    let (kind, dir, ledger_path) = (opts.objective.name(), &opts.fixture_out, &opts.ledger);
    if opts.retrace {
        let corpus = load_corpus(dir).map_err(|e| e.to_string())?;
        if corpus.is_empty() {
            return Err(format!("--retrace: no fixtures in {dir}"));
        }
        println!("retracing {} fixtures in {dir}", corpus.len());
        for fixture in &corpus {
            write_fixture_trace(dir, fixture)?;
        }
        return Ok(());
    }
    let mut ledger = resume_ledger(&opts)?;
    let first_round = ledger.last_round().map_or(0, |r| r + 1);
    let (base, _) = model(opts.scheme, &HarnessOpts::adversarial(opts.smoke));
    println!(
        "# Hardening loop — {} × {kind} ({} rounds max, budget {}, population {}, fraction {MIX_FRACTION}, seed {})",
        base.name, opts.rounds, opts.budget, opts.population, opts.seed
    );

    let corpus = load_corpus(dir).map_err(|e| e.to_string())?;
    let n = corpus.len();
    println!("corpus: {n} fixtures in {dir}; ledger {ledger_path} starts at round {first_round}");

    let recording = opts.trace_out.as_ref().map(|_| Recording::default());
    let fixtures = run_rounds(&opts, &base, &corpus, &mut ledger, recording.as_ref())?;

    ledger.write(ledger_path).map_err(|e| e.to_string())?;
    let (schema, entries) = (RobustnessLedger::SCHEMA, ledger.entries.len());
    println!("wrote {ledger_path} (schema {schema}, {entries} entries)");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for fixture in &fixtures {
        let path = format!("{dir}/{}", fixture.file_name());
        fixture.write(&path).map_err(|e| e.to_string())?;
        println!("wrote fixture {path}");
        write_fixture_trace(dir, fixture)?;
    }

    if let (Some(path), Some(recording)) = (&opts.trace_out, &recording) {
        let label = format!("harden {} × {kind} rounds {first_round}..", base.name);
        write_trace(path, &recording.report(&label, &base.name))?;
    }
    Ok(())
}

/// Replays one committed fixture's minimized scenario against its own
/// recorded model behind the QC fallback monitor with a fresh flight
/// recorder, and writes the decision trace next to the fixture under
/// `traces/`. Everything is rebuilt from the fixture's metadata, so the
/// trace — like the fixture — reproduces from the repository alone.
fn write_fixture_trace(fixture_out: &str, fixture: &AdversarialFixture) -> Result<(), String> {
    let objective = fixture
        .objective(&model_dir())
        .map_err(|e| format!("{}: {e}", fixture.file_name()))?;
    let recording = Recording::default();
    recording.replay(&objective.fallback_scheme(), &fixture.spec)?;
    let name = fixture.file_name();
    let stem = name.strip_suffix(".json").unwrap_or(&name);
    let label = format!("harden fixture {name}");
    let report = recording.report(&label, &objective.model.name);
    let dir = format!("{fixture_out}/traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/{stem}.trace.json");
    report.write(&path).map_err(|e| e.to_string())?;
    println!("wrote decision trace {path}");
    Ok(())
}

fn main() -> ExitCode {
    run_main("harden: ", 1, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_file_is_not_a_corpus_directory() {
        // `--fixture-out` naming a file must stop the run before any round
        // trains without the corpus, not read as an empty corpus.
        let file = std::env::temp_dir().join("canopy-harden-corpus-file.json");
        std::fs::write(&file, "{}").expect("temp file");
        let loaded = load_corpus(file.to_str().expect("utf-8 temp path"));
        let _ = std::fs::remove_file(&file);
        assert!(loaded.is_err(), "a file read as a corpus: {loaded:?}");
    }

    #[test]
    fn a_ledger_that_cannot_be_read_stops_the_run() {
        // Only a missing file starts a fresh lineage; a file that is there
        // but unreadable as a ledger must stop the run before it
        // overwrites what is there.
        let path =
            std::env::temp_dir().join(format!("canopy-harden-ledger-{}", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path");
        let opts = HardenOpts::parse(&argv(&["--smoke", "--ledger", path_str])).unwrap();
        let _ = std::fs::remove_file(&path);
        let fresh = resume_ledger(&opts).expect("a missing ledger is a fresh lineage");
        assert!(fresh.entries.is_empty() && fresh.last_round().is_none());

        std::fs::write(&path, [0xff]).expect("temp ledger");
        let not_utf8 = resume_ledger(&opts);
        let _ = std::fs::remove_file(&path);
        let err = not_utf8.expect_err("a non-UTF-8 ledger is an error");
        assert!(err.contains(path_str), "{err}");

        std::fs::create_dir_all(&path).expect("temp dir");
        let dir = resume_ledger(&opts);
        let _ = std::fs::remove_dir(&path);
        let err = dir.expect_err("a directory is not a ledger");
        assert!(err.contains(path_str), "{err}");
    }

    #[test]
    fn mix_seeds_separate_rounds() {
        assert_ne!(mix_seed(3, 1), mix_seed(3, 2));
        assert_ne!(mix_seed(3, 1), mix_seed(4, 1));
    }

    #[test]
    fn pool_builds_from_families_alone() {
        let pool = build_pool(&[], &[], 3, Time::from_secs(4));
        // Two seeds per family, and every generated spec must compile.
        assert_eq!(pool.len(), 2 * Family::ALL.len());
        assert!(pool.iter().all(|e| e.k == 3));
    }
}
