//! The seeded black-box optimizer over the unit cube: the cross-entropy
//! method.
//!
//! CEM keeps a per-dimension Gaussian, samples a population, and refits
//! mean/std to the elite fraction — pulling the whole search toward a
//! family's bad region. Every generation's population is evaluated in one
//! fork of the persistent worker pool (`canopy_core::pool`, which is
//! `canopy_nn::pool`). All randomness lives on the coordinator
//! thread (one seeded [`StdRng`]), and batch evaluation goes through the
//! order-preserving [`parallel_map`](canopy_core::pool::parallel_map), so
//! a search is bitwise reproducible at any `CANOPY_THREADS`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use canopy_core::pool;
use canopy_scenarios::{ScenarioSpec, SpecError};
use canopy_telemetry::{SearchEvent, SharedRecorder};

use crate::objective::Objective;
use crate::space::SearchSpace;

/// The optimizer's name in search reports and fixture file names.
pub const OPTIMIZER: &str = "cem";

/// Fraction of a CEM batch, best first, that refits the distribution.
const ELITE_FRAC: f64 = 0.25;

/// Search budget and batch shape.
#[derive(Clone, Copy, Debug)]
pub struct SearchConfig {
    /// Total scenario evaluations the search may spend.
    pub budget: usize,
    /// Candidates per batch (clamped to the remaining budget).
    pub population: usize,
    /// Seed of the coordinator RNG (and the decoded specs' provenance).
    pub seed: u64,
    /// Worker override (`None` consults `CANOPY_THREADS`).
    pub threads: Option<usize>,
}

impl SearchConfig {
    /// A search with the default population shape.
    pub fn new(seed: u64, budget: usize) -> SearchConfig {
        SearchConfig {
            budget: budget.max(1),
            population: 16,
            seed,
            threads: None,
        }
    }
}

/// The result of one search run.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The worst point found, in unit-cube coordinates.
    pub best_unit: Vec<f64>,
    /// The worst point decoded to its scenario.
    pub best_spec: ScenarioSpec,
    /// Its badness (larger is worse for the scheme under test).
    pub best_badness: f64,
    /// Scenario evaluations actually spent.
    pub evaluations: usize,
    /// Best badness after each batch (the search trajectory).
    pub trajectory: Vec<f64>,
}

/// One standard-normal draw (Box–Muller on the coordinator RNG).
fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.random::<f64>(); // (0, 1]: log stays finite
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Evaluates a batch of unit points on the worker pool, preserving order.
fn eval_batch(
    space: &SearchSpace,
    objective: &Objective,
    threads: Option<usize>,
    points: &[Vec<f64>],
) -> Result<Vec<f64>, SpecError> {
    let results = pool::parallel_map(
        points,
        pool::resolve_threads(threads).min(points.len().max(1)),
        |unit| objective.badness(&space.decode_unit(unit)),
    );
    results.into_iter().collect()
}

/// Index of the batch maximum, ties to the lowest index (determinism).
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// Runs the configured search, maximizing `objective` badness over
/// `space`. Deterministic in `(space, objective, config)`.
pub fn search(
    space: &SearchSpace,
    objective: &Objective,
    config: &SearchConfig,
) -> Result<SearchOutcome, SpecError> {
    search_with_recorder(space, objective, config, None)
}

/// [`search`], emitting one [`SearchEvent`] per optimizer generation into
/// the recorder when one is attached. All evaluation happens on the worker
/// pool but recording stays on the coordinator thread, so a recording is
/// bitwise identical at any `CANOPY_THREADS` — and an inert recorder
/// leaves the search outcome bitwise unchanged.
pub fn search_with_recorder(
    space: &SearchSpace,
    objective: &Objective,
    config: &SearchConfig,
    recorder: Option<SharedRecorder>,
) -> Result<SearchOutcome, SpecError> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let d = space.dims();
    let mut mean = vec![0.5; d];
    let mut std = vec![0.3; d];
    let mut best_unit = mean.clone();
    let mut best_badness = f64::NEG_INFINITY;
    let mut evaluations = 0usize;
    let mut trajectory = Vec::new();

    while evaluations < config.budget {
        let batch = config.population.max(1).min(config.budget - evaluations);
        let points: Vec<Vec<f64>> = (0..batch)
            .map(|_| {
                (0..d)
                    .map(|j| (mean[j] + std[j] * gauss(&mut rng)).clamp(0.0, 1.0))
                    .collect()
            })
            .collect();
        let values = eval_batch(space, objective, config.threads, &points)?;
        evaluations += points.len();

        let top = argmax(&values);
        if values[top] > best_badness {
            best_badness = values[top];
            best_unit = points[top].clone();
        }
        record_generation(
            recorder.as_ref(),
            trajectory.len() as u64,
            evaluations,
            values[top],
            best_badness,
        );
        trajectory.push(best_badness);

        // Refit to the elite set: stable sort by badness descending, index
        // ascending, so the refit is independent of evaluation order.
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by(|&a, &b| {
            values[b]
                .partial_cmp(&values[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let n_elite = ((points.len() as f64 * ELITE_FRAC).ceil() as usize).clamp(1, points.len());
        let elites = &order[..n_elite];
        for j in 0..d {
            let m = elites.iter().map(|&i| points[i][j]).sum::<f64>() / n_elite as f64;
            let var = elites
                .iter()
                .map(|&i| (points[i][j] - m) * (points[i][j] - m))
                .sum::<f64>()
                / n_elite as f64;
            mean[j] = m;
            // A variance floor keeps late iterations exploring.
            std[j] = var.sqrt().max(0.02);
        }
    }

    Ok(SearchOutcome {
        best_spec: space.decode_unit(&best_unit),
        best_unit,
        best_badness,
        evaluations,
        trajectory,
    })
}

/// Emits one generation event when a recorder is attached.
fn record_generation(
    recorder: Option<&SharedRecorder>,
    generation: u64,
    evaluations: usize,
    batch_best: f64,
    best_badness: f64,
) {
    if let Some(r) = recorder {
        r.borrow_mut().record_search(&SearchEvent {
            generation,
            evaluations: evaluations as u64,
            batch_best,
            best_badness,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_core::models::{train_model, ModelKind, TrainBudget};
    use canopy_netsim::Time;
    use canopy_scenarios::Family;

    use crate::objective::ObjectiveKind;

    fn tiny_search(threads: usize) -> SearchOutcome {
        let model = train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model;
        let objective = Objective::new(ObjectiveKind::QcSat, model);
        let space =
            SearchSpace::new(Family::BufferSweep, 5).with_duration_cap(Some(Time::from_secs(2)));
        let config = SearchConfig {
            budget: 6,
            population: 3,
            seed: 9,
            threads: Some(threads),
        };
        search(&space, &objective, &config).expect("searches")
    }

    #[test]
    fn searches_are_thread_invariant_and_spend_their_budget() {
        let seq = tiny_search(1);
        let par = tiny_search(4);
        assert_eq!(seq.evaluations, 6);
        assert_eq!(
            seq.best_badness.to_bits(),
            par.best_badness.to_bits(),
            "thread-count variance"
        );
        assert_eq!(seq.best_unit, par.best_unit);
        assert_eq!(seq.best_spec.to_json(), par.best_spec.to_json());
        assert_eq!(seq.trajectory, par.trajectory);
        // Trajectories are best-so-far: monotone non-decreasing.
        assert!(seq
            .trajectory
            .windows(2)
            .all(|w| w[1] >= w[0] || (w[1].is_nan() && w[0].is_nan())));
        assert!(seq.best_spec.validate().is_ok());
    }

    #[test]
    fn cem_maximizes_a_synthetic_landscape() {
        // Pure optimizer check on a known landscape (no simulator): badness
        // = -(distance from 0.8)², optimum at 0.8 per dimension.
        let mut rng = StdRng::seed_from_u64(1);
        let d = 4;
        let mut mean = vec![0.5; d];
        let mut std = vec![0.3; d];
        for _ in 0..12 {
            let pts: Vec<Vec<f64>> = (0..24)
                .map(|_| {
                    (0..d)
                        .map(|j| (mean[j] + std[j] * gauss(&mut rng)).clamp(0.0, 1.0))
                        .collect()
                })
                .collect();
            let vals: Vec<f64> = pts
                .iter()
                .map(|p| -p.iter().map(|x| (x - 0.8) * (x - 0.8)).sum::<f64>())
                .collect();
            let mut order: Vec<usize> = (0..pts.len()).collect();
            order.sort_by(|&a, &b| vals[b].partial_cmp(&vals[a]).unwrap().then(a.cmp(&b)));
            let elites = &order[..6];
            for j in 0..d {
                let m = elites.iter().map(|&i| pts[i][j]).sum::<f64>() / 6.0;
                let var = elites.iter().map(|&i| (pts[i][j] - m).powi(2)).sum::<f64>() / 6.0;
                mean[j] = m;
                std[j] = var.sqrt().max(0.02);
            }
        }
        for m in &mean {
            assert!((m - 0.8).abs() < 0.1, "CEM failed to converge: {mean:?}");
        }
    }

    #[test]
    fn population_one_is_honored_exactly() {
        // The engine must run the configured batch shape, not a silent
        // minimum — the report's provenance depends on it.
        let model = train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model;
        let objective = Objective::new(ObjectiveKind::RewardGap, model);
        let space =
            SearchSpace::new(Family::BufferSweep, 2).with_duration_cap(Some(Time::from_secs(1)));
        let config = SearchConfig {
            budget: 3,
            population: 1,
            seed: 4,
            threads: Some(1),
        };
        let out = search(&space, &objective, &config).expect("searches");
        assert_eq!(out.evaluations, 3);
        // One trajectory entry per batch: three one-point batches.
        assert_eq!(out.trajectory.len(), 3);
    }
}
