//! `search_gen`: the adversarial-search generation loop. Cross-entropy
//! search (budget 64 = 4 generations of 16, reward-gap objective, 4 s
//! horizon cap) over four scenario families — flash crowd, incast burst,
//! parking-lot unfairness, lossy wireless — against a smoke-trained
//! model. Each evaluation is a Cubic cell and a learned cell of the
//! scenario matrix, so this is the netsim + cc + scenarios workload,
//! multi-hop paths included, with the abstract interpreter absent: an IBP
//! optimisation must show no change here, a simulator one must show here.

use std::time::Instant;

use canopy_core::eval::Scheme;
use canopy_core::models::{train_model, ModelKind, TrainBudget};
use canopy_netsim::Time;
use canopy_scenarios::{run_matrix_with_threads, run_scenario, Family, ScenarioSpec};
use canopy_search::{search, Objective, ObjectiveKind, SearchConfig, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{median, time, Digest, Rep, Tally, Tracer};
use crate::workload::{instrument_health, Layers, Params, Workload};

const FAMILIES: [Family; 4] = [
    Family::FlashCrowd,
    Family::IncastBurst,
    Family::ParkingLotUnfairness,
    Family::LossyWireless,
];
/// The model under attack is one fixed training run and the optimiser's
/// own stream is fixed, both properties of the workload: which region of a
/// family CEM samples decides how many packets an evaluation simulates, and
/// with a seed-drawn stream evaluations per second spread by 60 %. The
/// seed is the decoded scenarios' provenance seed — their impairment and
/// noise streams — so later generations drift apart from there.
const MODEL_SEED: u64 = 1;
const OPTIMISER_SEED: u64 = 1;
/// Uniform points per family the traced pass evaluates cell by cell.
const CELL_POINTS: usize = 6;

pub struct SearchGen {
    spaces: Vec<SearchSpace>,
    objective: Objective,
    seed: u64,
    budget: usize,
    threads: usize,
}

impl SearchGen {
    /// One search per family at `threads` workers; also returns the worst
    /// badness any family's search found.
    fn generations(&self, threads: usize) -> (Rep, f64) {
        let config = SearchConfig {
            threads: Some(threads),
            ..SearchConfig::new(OPTIMISER_SEED, self.budget)
        };
        let mut digest = Digest::default();
        let mut evaluations = 0u64;
        let mut ok = true;
        let mut worst = f64::NEG_INFINITY;
        let t0 = Instant::now();
        for space in &self.spaces {
            match search(space, &self.objective, &config) {
                Ok(outcome) => {
                    evaluations += outcome.evaluations as u64;
                    ok &= outcome.best_badness.is_finite();
                    worst = worst.max(outcome.best_badness);
                    digest.push_f64(outcome.best_badness);
                    digest.push(outcome.evaluations as u64);
                }
                Err(e) => {
                    eprintln!("search over {} failed: {}", space.family().name(), e.0);
                    ok = false;
                }
            }
        }
        let rep = Rep {
            wall_s: t0.elapsed().as_secs_f64(),
            ops: evaluations,
            digest,
            ok: ok && evaluations == (self.spaces.len() * self.budget) as u64,
        };
        (rep, worst)
    }

    /// Seeded uniform points of every family's unit cube.
    fn uniform_points(&self) -> Vec<(usize, Vec<f64>)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut points = Vec::new();
        for (family, space) in self.spaces.iter().enumerate() {
            for _ in 0..CELL_POINTS {
                points.push((
                    family,
                    (0..space.dims()).map(|_| rng.random::<f64>()).collect(),
                ));
            }
        }
        points
    }
}

#[derive(Default)]
struct CellTotals {
    points: u64,
    decode_s: f64,
    cubic_s: f64,
    learned_s: f64,
    pkts: u64,
    rounds: u64,
}

impl Workload for SearchGen {
    fn setup(params: &Params) -> Self {
        let model = train_model(ModelKind::Shallow, MODEL_SEED, TrainBudget::smoke()).model;
        // Below two seconds some flash-crowd points decode to cross flows
        // that stop before they start, and the search refuses them.
        let cap = Time::from_secs(if params.smoke { 2 } else { 4 });
        SearchGen {
            spaces: FAMILIES
                .iter()
                .map(|&f| SearchSpace::new(f, params.seed).with_duration_cap(Some(cap)))
                .collect(),
            objective: Objective::new(ObjectiveKind::RewardGap, model),
            seed: params.seed,
            budget: if params.smoke { 16 } else { 64 },
            threads: params.threads,
        }
    }

    fn rep(&self) -> Rep {
        self.generations(self.threads).0
    }

    /// The search outcome must not depend on the worker count.
    fn invariance_reps(&self) -> Vec<Rep> {
        vec![self.generations(1).0]
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally {
        let cubic = Scheme::Baseline("cubic".into());
        let learned = Scheme::Learned(self.objective.model.clone());
        let points = self.uniform_points();

        let mut tally = Tally::default();
        let mut acc = CellTotals::default();
        let (mut real_s, mut one_s, mut pool_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut matrix_one_s, mut matrix_pool_s) = (Vec::new(), Vec::new());
        let mut divergence = 0.0;
        let mut best_badness = 0.0;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds || pool_s.len() < 2 {
            let rep = self.rep();
            tally.count(&rep, reference);
            real_s.push(rep.wall_s);

            // The search itself, spanned as one call at each worker count.
            for (threads, walls) in [(1, &mut one_s), (self.threads, &mut pool_s)] {
                tracer.next_rep();
                let rep_span = tracer.begin("rep");
                let id = tracer.begin("search.search");
                let (rep, worst) = self.generations(threads);
                best_badness = worst;
                tracer.end(id);
                walls.push(tracer.end(rep_span));
                if threads == 1 {
                    tally.count(&rep, reference);
                } else if rep.digest != reference.digest || !rep.ok {
                    divergence = 1.0;
                }
            }

            // What one evaluation is made of, cell by cell on one thread.
            tracer.next_rep();
            let rep_span = tracer.begin("rep");
            let mut specs: Vec<ScenarioSpec> = Vec::with_capacity(points.len());
            for (family, unit) in &points {
                let id = tracer.begin("scenarios.decode_compile");
                let spec = self.spaces[*family].decode_unit(unit);
                spec.validate().expect("decoded points are legal");
                std::hint::black_box(spec.compile_topology().expect("decoded points compile"));
                acc.decode_s += tracer.end(id);

                let id = tracer.begin("netsim.cell_cubic");
                let m = run_scenario(&cubic, &spec, None).expect("cubic cell runs");
                acc.cubic_s += tracer.end(id);
                acc.pkts += m.primary.acked_packets;

                let id = tracer.begin("core.cell_learned");
                let m = run_scenario(&learned, &spec, None).expect("learned cell runs");
                acc.learned_s += tracer.end(id);
                acc.pkts += m.primary.acked_packets;
                acc.points += 1;
                specs.push(spec);
            }
            tracer.end(rep_span);
            acc.rounds += 1;

            // The same cells as a matrix on the pool, one worker and all.
            let schemes = [cubic.clone(), learned.clone()];
            for (threads, walls) in [(1, &mut matrix_one_s), (self.threads, &mut matrix_pool_s)] {
                let (cells, s) =
                    time(|| run_matrix_with_threads(&schemes, &specs, None, Some(threads)));
                assert_eq!(cells.expect("matrix runs").len(), 2 * specs.len());
                walls.push(s);
            }
        }

        let n = acc.points as f64;
        let rounds = acc.rounds as f64;
        let cells_s = acc.cubic_s + acc.learned_s;
        layers.insert("scenarios.decode_compile_us", acc.decode_s / n * 1e6);
        layers.insert("netsim.cell_cubic_ms", acc.cubic_s / n * 1e3);
        layers.insert("core.cell_learned_ms", acc.learned_s / n * 1e3);
        // Per round of the uniform points; every round runs the same cells.
        layers.insert("netsim.busy_s", cells_s / rounds);
        layers.insert("netsim.pkts", (acc.pkts / acc.rounds) as f64);
        layers.insert("netsim.ns_per_pkt", cells_s / acc.pkts.max(1) as f64 * 1e9);
        layers.insert("search.evals", reference.ops as f64);
        layers.insert("search.best_badness", best_badness);
        // One worker's wall is, to a thousandth, the sum of the cell times
        // (decode and the optimiser's own arithmetic are ≈ 0.1 %), so the
        // pool's idle and coordination share follows from the two walls.
        layers.insert(
            "search.coordinator_share",
            1.0 - median(&one_s) / (self.threads as f64 * median(&pool_s)),
        );
        layers.insert(
            "core.pool_speedup_2t",
            median(&matrix_one_s) / median(&matrix_pool_s),
        );
        instrument_health(layers, &pool_s, median(&real_s), divergence, tracer);
        tally
    }
}
