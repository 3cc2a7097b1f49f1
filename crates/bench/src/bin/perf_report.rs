//! `perf_report`: machine-readable microbenchmarks for the workspace's
//! hot paths, emitting `BENCH_report.json` so every PR leaves a perf
//! trajectory behind.
//!
//! ```text
//! cargo run -p canopy_bench --release --bin perf_report -- \
//!     [--smoke] [--check] [--write-baseline] [--seed N] [--only PREFIX]
//! ```
//!
//! `--only PREFIX` restricts the run to bench groups whose name starts
//! with `PREFIX` (e.g. `--only run_multiflow` for the multi-flow CI
//! smoke job); `--check` then gates only the benches that actually ran.
//!
//! Benches (median ns/op over several samples):
//!
//! * `td3_update/batched` vs `td3_update/reference` — one TD3 update step
//!   through the whole-batch GEMM path vs the seed's per-transition loop
//!   (kept verbatim as [`Td3::update_reference`]; the headline
//!   `speedups.td3_update` compares against it). `td3_update/seed`
//!   additionally replicates the seed's original *primitives* (traced
//!   clones, flatten-based Adam/Polyak, unfused dots) for a stricter
//!   `td3_update_vs_seed_replica` figure.
//! * `actor_forward/batched` vs `actor_forward/scalar` — a 64-sample
//!   policy evaluation.
//! * `certify_adaptive/batched_threads{1,4}` vs `certify_adaptive/seed` —
//!   branch-and-bound certification through the chunked batched-IBP
//!   worker pool vs the seed's scalar `propagate_mlp` stack loop
//!   (replicated here from the pre-batching implementation).
//! * `simulator/cubic_2s` — a 2-simulated-second single-flow Cubic run.
//! * `run_multiflow/32flows_2s` — a 2-simulated-second, 32-agent-flow
//!   shared-bottleneck `run_multiflow` with one shared deployment-shaped
//!   policy (k = 10, 64×64 tanh) and synchronized decision instants — the
//!   fleet workload the `DriverPool`'s cross-flow batched dispatch
//!   targets (every monitor interval is one 32-deep actor batch).
//! * `serve/fleet256_1s`, `serve/fleet256_ns_per_decision`, and
//!   `serve/fleet256_p99_ns` — the `canopy_serve` runtime: a 256-flow
//!   dumbbell fleet run flat-out for one simulated second (median wall
//!   time, per-decision cost, p99 decision latency); the report's `serve`
//!   block carries the non-gated decisions/sec and real-time factor.
//! * `telemetry/recorder_overhead_{off,flight,live}` — one identical
//!   64-flow fleet run under an inert `NoopRecorder`, the bounded
//!   `FlightRecorder`, and the flight recorder with the full live
//!   observability layer (windowed feeds, cadence snapshots, SLO
//!   watchdog, hot-path spans) — the recorder's overhead ladder
//!   (`speedups.live_observability_overhead` is the live/off ratio).
//! * `topology/incast8_2s` and `topology/parkinglot3_2s` — 2-simulated-
//!   second multi-hop runs (an 8-flow incast tree and a 3-hop parking
//!   lot with per-hop competitors): the HopArrival forwarding path and
//!   per-link calendar lanes the topology graph added.
//! * `decision_latency/p50`/`p95`/`p99` — per-decision wall-clock latency
//!   percentiles of the deployment decision loop (state assembly + policy
//!   forward + clamp at the deep model's k = 10 shape), measured through
//!   `canopy_telemetry::LogHistogram` — the tail the flight recorder's
//!   sim-time histograms deliberately cannot see, gated by `--check` like
//!   every other bench.
//! * `episode_sampler/base_env` vs `episode_sampler/episode_dumbbell` and
//!   `episode_sampler/episode_multihop` — environment construction on the
//!   trainer's episode boundary: the plain link env rebuild against the
//!   `EpisodeSpec → CcEnv` adapter the adversarial mix draws through
//!   (`speedups.episode_sampling_overhead` is the dumbbell ratio).
//!
//! `--write-baseline` records the current medians to
//! `BENCH_baseline.json`; `--check` compares against that file and exits
//! non-zero if any bench regressed more than 2× (the CI perf-smoke gate).

use std::time::Instant;

use canopy_absint::{propagate_mlp, BoxState, Interval};
use canopy_core::obs::StateLayout;
use canopy_core::orca::{f_cwnd, f_cwnd_abstract};
use canopy_core::property::PropertyParams;
use canopy_core::{Property, StepContext, Verifier};
use canopy_netsim::{BandwidthTrace, FlowConfig, LinkConfig, Simulator, Time};
use canopy_nn::{Activation, Batch, BatchScratch, Mlp};
use canopy_rl::{ReplayBuffer, Td3, Td3Config, Transition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

const REPORT_PATH: &str = "BENCH_report.json";
const BASELINE_PATH: &str = "BENCH_baseline.json";

/// A bench regresses when it runs more than this factor slower than the
/// checked-in baseline (generous because CI hardware differs from the
/// machine that recorded the baseline).
const REGRESSION_FACTOR: f64 = 2.0;

#[derive(Clone)]
struct Opts {
    smoke: bool,
    check: bool,
    write_baseline: bool,
    seed: u64,
    only: Option<String>,
}

impl Opts {
    /// Whether the bench group with this name prefix should run.
    fn runs(&self, group: &str) -> bool {
        self.only.as_deref().is_none_or(|p| group.starts_with(p))
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        smoke: false,
        check: false,
        write_baseline: false,
        seed: canopy_bench::DEFAULT_SEED,
        only: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--write-baseline" => opts.write_baseline = true,
            "--seed" => {
                if let Some(v) = args.get(i + 1) {
                    opts.seed = v.parse().unwrap_or(opts.seed);
                    i += 1;
                }
            }
            "--only" => {
                if let Some(v) = args.get(i + 1) {
                    opts.only = Some(v.clone());
                    i += 1;
                }
            }
            other => eprintln!("perf_report: ignoring unknown argument `{other}`"),
        }
        i += 1;
    }
    opts
}

/// Median wall-clock nanoseconds per call of `f`, over `samples` timed
/// batches of `iters` calls each (plus one warmup batch).
fn median_ns(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters.max(1) as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

// --- TD3 update step -----------------------------------------------------

fn td3_fixture(seed: u64) -> (Td3, ReplayBuffer) {
    // The paper's deep model observes k = 10 monitor intervals → a
    // 50-feature state (5 features per step), the production-scale shape.
    let state_dim = 50;
    let action_dim = 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let agent = Td3::new(
        &mut rng,
        state_dim,
        action_dim,
        Td3Config {
            hidden: vec![64, 64],
            batch_size: 64,
            ..Td3Config::default()
        },
    );
    let mut replay = ReplayBuffer::new(512);
    for i in 0..256 {
        let state: Vec<f64> = (0..state_dim)
            .map(|d| ((i * 13 + d * 7) % 29) as f64 / 29.0 - 0.5)
            .collect();
        let action = vec![rng.random_range(-1.0..1.0)];
        replay.push(Transition {
            reward: -action[0].abs(),
            next_state: state.iter().map(|s| -s).collect(),
            state,
            action,
            done: i % 9 == 0,
        });
    }
    (agent, replay)
}

fn bench_td3(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 4) } else { (9, 16) };
    {
        let (mut agent, replay) = td3_fixture(opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 1);
        out.push((
            "td3_update/batched".into(),
            median_ns(samples, iters, || {
                std::hint::black_box(agent.update(&replay, &mut rng));
            }),
        ));
    }
    {
        let (mut agent, replay) = td3_fixture(opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 1);
        out.push((
            "td3_update/reference".into(),
            median_ns(samples, iters, || {
                std::hint::black_box(agent.update_reference(&replay, &mut rng));
            }),
        ));
    }
    {
        let (_, replay) = td3_fixture(opts.seed);
        let mut agent = SeedTd3::new(opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 1);
        out.push((
            "td3_update/seed".into(),
            median_ns(samples, iters, || {
                std::hint::black_box(agent.update(&replay, &mut rng));
            }),
        ));
    }
}

// --- Seed TD3 replica ------------------------------------------------------
//
// The pre-batching TD3 implementation, replicated from the seed tree as
// the recorded perf baseline — exactly like `certify_adaptive_seed` below
// replicates the seed verifier. This includes the seed's allocation
// behaviour (per-layer activation clones in the forward trace,
// flatten-based Adam and Polyak updates, per-transition `concat`) and its
// unfused `acc += w * x` dot products. `Td3::update_reference` measures
// the same loop *structure* on today's shared primitives; this replica
// measures what the seed actually shipped.

/// Seed-style forward pass: per-layer `Vec` allocations, unfused dots.
fn seed_forward(net: &Mlp, x: &[f64]) -> Vec<f64> {
    let mut h = x.to_vec();
    for layer in net.layers() {
        let mut z = Vec::with_capacity(layer.fan_out());
        for r in 0..layer.fan_out() {
            let mut acc = 0.0;
            for (w, xi) in layer.weights.row(r).iter().zip(&h) {
                acc += w * xi;
            }
            z.push(layer.activation.apply(acc + layer.bias[r]));
        }
        h = z;
    }
    h
}

/// Seed-style traced forward: records pre/post per layer, with the seed's
/// `post.push(y.clone())` copy.
#[allow(clippy::type_complexity)]
fn seed_forward_trace(net: &Mlp, x: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut pre = Vec::with_capacity(net.layers().len());
    let mut post = Vec::with_capacity(net.layers().len());
    let mut h = x.to_vec();
    for layer in net.layers() {
        let mut z = Vec::with_capacity(layer.fan_out());
        for r in 0..layer.fan_out() {
            let mut acc = 0.0;
            for (w, xi) in layer.weights.row(r).iter().zip(&h) {
                acc += w * xi;
            }
            z.push(acc + layer.bias[r]);
        }
        let y: Vec<f64> = z.iter().map(|&zi| layer.activation.apply(zi)).collect();
        pre.push(z);
        post.push(y.clone());
        h = y;
    }
    (h, pre, post)
}

/// Seed-style reverse pass: fresh `Vec` per layer, unfused arithmetic.
fn seed_backward(
    net: &mut Mlp,
    input: &[f64],
    pre: &[Vec<f64>],
    post: &[Vec<f64>],
    grad_output: &[f64],
) -> Vec<f64> {
    let mut grad = grad_output.to_vec();
    for (i, layer) in net.layers_mut().iter_mut().enumerate().rev() {
        layer.ensure_grads();
        for ((g, &z), &y) in grad.iter_mut().zip(&pre[i]).zip(&post[i]) {
            *g *= layer.activation.derivative(z, y);
        }
        let layer_input: &[f64] = if i == 0 { input } else { &post[i - 1] };
        for (r, &gr) in grad.iter().enumerate() {
            for (w, xi) in layer.grad_weights.row_mut(r).iter_mut().zip(layer_input) {
                *w += gr * xi;
            }
        }
        for (gb, g) in layer.grad_bias.iter_mut().zip(&grad) {
            *gb += g;
        }
        let mut next = vec![0.0; layer.fan_in()];
        for (r, &gr) in grad.iter().enumerate() {
            for (o, w) in next.iter_mut().zip(layer.weights.row(r)) {
                *o += w * gr;
            }
        }
        grad = next;
    }
    grad
}

/// The seed's flatten-based Adam.
struct SeedAdam {
    lr: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl SeedAdam {
    fn new(param_count: usize, lr: f64) -> SeedAdam {
        SeedAdam {
            lr,
            t: 0,
            m: vec![0.0; param_count],
            v: vec![0.0; param_count],
        }
    }

    fn step(&mut self, net: &mut Mlp, grad_scale: f64) {
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        self.t += 1;
        let mut params = net.params_flat();
        let grads = net.grads_flat();
        let bc1 = 1.0 - beta1_pow(beta1, self.t);
        let bc2 = 1.0 - beta1_pow(beta2, self.t);
        for i in 0..params.len() {
            let g = grads[i] * grad_scale;
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + eps);
        }
        net.set_params_flat(&params);
        net.zero_grads();
    }
}

fn beta1_pow(beta: f64, t: u64) -> f64 {
    beta.powi(t as i32)
}

/// The seed's flatten-based Polyak update.
fn seed_soft_update(target: &mut Mlp, source: &Mlp, tau: f64) {
    let theirs = source.params_flat();
    let mut ours = target.params_flat();
    for (o, t) in ours.iter_mut().zip(&theirs) {
        *o = (1.0 - tau) * *o + tau * t;
    }
    target.set_params_flat(&ours);
}

struct SeedTd3 {
    config: Td3Config,
    actor: Mlp,
    actor_target: Mlp,
    critic1: Mlp,
    critic2: Mlp,
    critic1_target: Mlp,
    critic2_target: Mlp,
    actor_opt: SeedAdam,
    critic1_opt: SeedAdam,
    critic2_opt: SeedAdam,
    updates: u64,
}

impl SeedTd3 {
    /// Mirrors `Td3::new` (same RNG draw order) for the `td3_fixture`
    /// shape: state 50, action 1, hidden 64×64.
    fn new(seed: u64) -> SeedTd3 {
        let config = Td3Config {
            hidden: vec![64, 64],
            batch_size: 64,
            ..Td3Config::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let actor = Mlp::new(&mut rng, &[50, 64, 64, 1], Activation::Tanh);
        let critic1 = Mlp::new(&mut rng, &[51, 64, 64, 1], Activation::Identity);
        let critic2 = Mlp::new(&mut rng, &[51, 64, 64, 1], Activation::Identity);
        SeedTd3 {
            actor_opt: SeedAdam::new(actor.param_count(), config.actor_lr),
            critic1_opt: SeedAdam::new(critic1.param_count(), config.critic_lr),
            critic2_opt: SeedAdam::new(critic2.param_count(), config.critic_lr),
            actor_target: actor.clone(),
            critic1_target: critic1.clone(),
            critic2_target: critic2.clone(),
            actor,
            critic1,
            critic2,
            config,
            updates: 0,
        }
    }

    /// The seed's per-transition update loop, verbatim.
    fn update<R: rand::Rng>(&mut self, replay: &ReplayBuffer, rng: &mut R) -> Option<(f64, f64)> {
        fn concat(a: &[f64], b: &[f64]) -> Vec<f64> {
            let mut v = Vec::with_capacity(a.len() + b.len());
            v.extend_from_slice(a);
            v.extend_from_slice(b);
            v
        }

        if replay.len() < self.config.batch_size {
            return None;
        }
        let batch = replay.sample(rng, self.config.batch_size);
        let n = batch.len() as f64;
        let smoothing = canopy_rl::GaussianNoise::new(self.config.target_noise_std);

        let mut targets = Vec::with_capacity(batch.len());
        for t in &batch {
            let mut a_next = seed_forward(&self.actor_target, &t.next_state);
            for a in &mut a_next {
                *a = (*a + smoothing.sample_clipped(rng, self.config.target_noise_clip))
                    .clamp(-1.0, 1.0);
            }
            let xa = concat(&t.next_state, &a_next);
            let q1 = seed_forward(&self.critic1_target, &xa)[0];
            let q2 = seed_forward(&self.critic2_target, &xa)[0];
            let not_done = if t.done { 0.0 } else { 1.0 };
            targets.push(t.reward + self.config.gamma * not_done * q1.min(q2));
        }

        let mut critic_loss = 0.0;
        self.critic1.zero_grads();
        self.critic2.zero_grads();
        for (t, &y) in batch.iter().zip(&targets) {
            let xa = concat(&t.state, &t.action);
            let (q1, pre1, post1) = seed_forward_trace(&self.critic1, &xa);
            let err1 = q1[0] - y;
            critic_loss += err1 * err1;
            seed_backward(&mut self.critic1, &xa, &pre1, &post1, &[err1]);
            let (q2, pre2, post2) = seed_forward_trace(&self.critic2, &xa);
            let err2 = q2[0] - y;
            critic_loss += err2 * err2;
            seed_backward(&mut self.critic2, &xa, &pre2, &post2, &[err2]);
        }
        critic_loss /= 2.0 * n;
        self.critic1_opt.step(&mut self.critic1, 1.0 / n);
        self.critic2_opt.step(&mut self.critic2, 1.0 / n);

        self.updates += 1;

        let mut actor_loss = 0.0;
        if self.updates.is_multiple_of(self.config.policy_delay) {
            self.actor.zero_grads();
            for t in &batch {
                let (a, a_pre, a_post) = seed_forward_trace(&self.actor, &t.state);
                let xa = concat(&t.state, &a);
                let (q, c_pre, c_post) = seed_forward_trace(&self.critic1, &xa);
                actor_loss -= q[0];
                let grad_in = seed_backward(&mut self.critic1, &xa, &c_pre, &c_post, &[-1.0]);
                let grad_action = &grad_in[t.state.len()..];
                seed_backward(&mut self.actor, &t.state, &a_pre, &a_post, grad_action);
            }
            self.critic1.zero_grads();
            self.actor_opt.step(&mut self.actor, 1.0 / n);

            let tau = self.config.tau;
            seed_soft_update(&mut self.actor_target, &self.actor, tau);
            seed_soft_update(&mut self.critic1_target, &self.critic1, tau);
            seed_soft_update(&mut self.critic2_target, &self.critic2, tau);
        }

        Some((critic_loss, actor_loss))
    }
}

// --- Batched vs scalar policy evaluation ---------------------------------

fn bench_forward(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 50) } else { (9, 400) };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let net = Mlp::new(&mut rng, &[12, 64, 64, 1], Activation::Tanh);
    let n = 64;
    let data: Vec<f64> = (0..n * 12).map(|_| rng.random_range(-1.0..1.0)).collect();
    let batch = Batch::from_vec(n, 12, data);
    let mut scratch = BatchScratch::new();
    out.push((
        "actor_forward/batched".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(net.forward_batch(&batch, &mut scratch).get(0, 0));
        }),
    ));
    out.push((
        "actor_forward/scalar".into(),
        median_ns(samples, iters, || {
            let mut acc = 0.0;
            for r in 0..n {
                acc += net.forward(batch.row(r))[0];
            }
            std::hint::black_box(acc);
        }),
    ));
}

// --- Backward + optimizer primitives --------------------------------------

fn bench_train_primitives(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 100) } else { (9, 800) };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut net = Mlp::new(&mut rng, &[13, 64, 64, 1], Activation::Identity);
    let n = 64;
    let x = Batch::from_vec(
        n,
        13,
        (0..n * 13).map(|_| rng.random_range(-1.0..1.0)).collect(),
    );
    let g = Batch::from_vec(n, 1, (0..n).map(|_| rng.random_range(-1.0..1.0)).collect());
    let mut scratch = BatchScratch::new();
    out.push((
        "train/backward_batched".into(),
        median_ns(samples, iters, || {
            net.forward_trace_batch(&x, &mut scratch);
            std::hint::black_box(net.backward_batch(&x, &mut scratch, &g).get(0, 0));
        }),
    ));
    let mut opt = canopy_nn::Adam::new(net.param_count(), 1e-3);
    out.push((
        "train/adam_step".into(),
        median_ns(samples, iters, || {
            opt.step(&mut net, 1.0 / n as f64);
        }),
    ));
}

// --- Raw GEMM kernel ------------------------------------------------------

fn bench_gemm(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 200) } else { (9, 2000) };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let size = 64;
    let a = Batch::from_vec(
        size,
        size,
        (0..size * size)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect(),
    );
    let b = Batch::from_vec(
        size,
        size,
        (0..size * size)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect(),
    );
    let mut c = canopy_nn::Matrix::zeros(size, size);
    out.push((
        "gemm/64x64x64".into(),
        median_ns(samples, iters, || {
            a.matmul_into(&b, &mut c);
            std::hint::black_box(c.get(0, 0));
        }),
    ));
}

// --- Adaptive certification ----------------------------------------------

fn certify_fixture(seed: u64) -> (Mlp, Property, StateLayout, StepContext) {
    let layout = StateLayout::new(3);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut actor = Mlp::new(&mut rng, &[layout.dim(), 48, 48, 1], Activation::Tanh);
    // Zero the weights and the output bias but keep the hidden biases at
    // 0.1: the action is exactly 0, so Δcwnd's sound bound straddles the
    // P1 threshold by the rounding-slack floor at every box while the
    // centre probe never finds a counterexample — refinement runs to
    // full depth everywhere. This is the worst-case (tight-margin)
    // certification workload, with the same per-box propagation cost as
    // a trained network of this shape. The nonzero hidden biases keep
    // the seed replica out of the subnormal range: its scalar path rounds
    // a zero deviation up with `next_up`, to the smallest subnormal, and
    // an all-zero network would then measure ~100-cycle microcode assists
    // instead of the algorithm. The batched path floors at `WIDEN_FLOOR`
    // (2⁻⁴⁹⁸, see `canopy_absint::ibp`) and has no such penalty.
    let n_layers = actor.layers().len();
    for (i, layer) in actor.layers_mut().iter_mut().enumerate() {
        layer.weights.fill_zero();
        let bias = if i + 1 == n_layers { 0.0 } else { 0.1 };
        layer.bias.fill(bias);
    }
    let params = PropertyParams {
        q_min_delay: 0.5,
        ..PropertyParams::default()
    };
    let property = Property::p1(&params);
    let ctx = StepContext {
        state: vec![0.1; layout.dim()],
        cwnd_tcp: 100.0,
        cwnd_prev: 100.0,
    };
    (actor, property, layout, ctx)
}

/// The seed implementation of `certify_adaptive`, replicated verbatim
/// (scalar `propagate_mlp` per box, sequential stack) as the recorded
/// perf baseline. Returns the leaf count so the workload size is visible
/// in the report.
fn certify_adaptive_seed(
    actor: &Mlp,
    property: &Property,
    layout: StateLayout,
    ctx: &StepContext,
    max_depth: usize,
) -> (usize, f64) {
    let region = property.input_region(&ctx.state, layout);
    let axis = property.split_axis(layout);
    let allowed = property.allowed_output();
    let concrete_cwnd = 0.0; // P1 is a NoDecrease property.
    let total_width = region.dim_interval(axis).width();

    let check = |part: &BoxState| -> (Interval, bool, f64) {
        let action = propagate_mlp(actor, part).dim_interval(0);
        let cwnd = f_cwnd_abstract(action, ctx.cwnd_tcp);
        let output = cwnd.sub(Interval::point(ctx.cwnd_prev));
        (
            output,
            output.is_subset_of(allowed),
            output.fraction_within(allowed),
        )
    };

    let mut leaves = 0usize;
    let mut feedback = 0.0;
    let mut stack = vec![(region, 0usize)];
    while let Some((part, depth)) = stack.pop() {
        let (_, satisfied, fb) = check(&part);
        let width = part.dim_interval(axis).width();
        let weight = if total_width > 0.0 {
            width / total_width
        } else {
            1.0
        };
        if satisfied || depth >= max_depth || width <= 0.0 {
            leaves += 1;
            feedback += fb * weight;
            continue;
        }
        let action = actor.forward(&part.center)[0];
        if f_cwnd(action, ctx.cwnd_tcp) - ctx.cwnd_prev < 0.0 {
            leaves += 1;
            feedback += fb * weight;
            continue;
        }
        for half in part.split_dim(axis, 2) {
            stack.push((half, depth + 1));
        }
    }
    let _ = concrete_cwnd;
    (leaves, feedback)
}

fn bench_certify(opts: &Opts, out: &mut Vec<(String, f64)>) -> usize {
    let (samples, iters, depth) = if opts.smoke { (5, 2, 10) } else { (9, 4, 12) };
    let (actor, property, layout, ctx) = certify_fixture(opts.seed);
    let leaves = certify_adaptive_seed(&actor, &property, layout, &ctx, depth).0;

    out.push((
        "certify_adaptive/seed".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(certify_adaptive_seed(
                &actor, &property, layout, &ctx, depth,
            ));
        }),
    ));
    for threads in [1usize, 4] {
        let verifier = Verifier::new(1).with_threads(threads);
        out.push((
            format!("certify_adaptive/batched_threads{threads}"),
            median_ns(samples, iters, || {
                std::hint::black_box(
                    verifier.certify_adaptive(&actor, &property, layout, &ctx, depth),
                );
            }),
        ));
    }
    leaves
}

// --- IBP primitives -------------------------------------------------------

fn bench_ibp(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 200) } else { (9, 1000) };
    let (actor, property, layout, ctx) = certify_fixture(opts.seed);
    let region = property.input_region(&ctx.state, layout);
    let axis = property.split_axis(layout);
    let parts = region.split_dim(axis, 32);
    out.push((
        "ibp/scalar_box".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(propagate_mlp(&actor, &parts[0]).dim_interval(0));
        }),
    ));
    let prepared = canopy_absint::PreparedMlp::new(&actor);
    let mut scratch = canopy_absint::IbpBatchScratch::new();
    out.push((
        "ibp/batched_chunk32".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(prepared.propagate_boxes_dim(&parts, 0, &mut scratch).len());
        }),
    ));
}

// --- Simulator -----------------------------------------------------------

fn bench_simulator(opts: &Opts, out: &mut Vec<(String, f64)>) {
    let (samples, iters) = if opts.smoke { (5, 2) } else { (9, 6) };
    let trace = BandwidthTrace::constant("bench", 24e6);
    out.push((
        "simulator/cubic_2s".into(),
        median_ns(samples, iters, || {
            let link = LinkConfig::with_bdp_buffer(trace.clone(), Time::from_millis(40), 1.0);
            let mut sim = Simulator::new(link);
            let flow = sim.add_flow(
                FlowConfig::new(Time::from_millis(40)),
                Box::new(canopy_cc::Cubic::new()),
            );
            sim.run_until(Time::from_secs(2));
            std::hint::black_box(sim.flow_stats(flow).acked_bytes);
        }),
    ));
}

// --- Multi-flow event path ------------------------------------------------

/// A deployment-shaped policy (k = 10 history → 64×64 tanh) wrapped as a
/// [`TrainedModel`] so agent `FlowSpec`s can carry it; no training runs —
/// the bench measures inference dispatch, not policy quality.
fn synthetic_model(seed: u64) -> canopy_core::models::TrainedModel {
    let k = 10;
    let mut rng = StdRng::seed_from_u64(seed);
    canopy_core::models::TrainedModel {
        name: "bench-synthetic".into(),
        actor: Mlp::new(
            &mut rng,
            &[StateLayout::new(k).dim(), 64, 64, 1],
            Activation::Tanh,
        ),
        k,
        lambda: 0.0,
        n_components: 1,
        property_names: Vec::new(),
        seed,
    }
}

fn bench_multiflow(opts: &Opts, out: &mut Vec<(String, f64)>) {
    use canopy_core::eval::{run_multiflow, FlowScheme, FlowSpec};
    let (samples, iters) = if opts.smoke { (3, 1) } else { (7, 2) };
    // 32 *agent* flows sharing one deployment-shaped policy on a 192 Mbps
    // bottleneck, arriving together on a uniform 20 ms RTT so all 32
    // decide at identical instants: every monitor interval is one full
    // 32-deep batch through the pool's grouped actor path. This is the
    // workload cross-flow batching targets — before batching it paid 32
    // scalar forwards (plus 32 pool scans) per instant.
    let trace = BandwidthTrace::constant("bench32", 192e6);
    let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
    let model = synthetic_model(opts.seed);
    let flows: Vec<FlowSpec> = (0..32)
        .map(|_| FlowSpec::new(FlowScheme::Agent(model.clone()), Time::from_millis(20)))
        .collect();
    out.push((
        "run_multiflow/32flows_2s".into(),
        median_ns(samples, iters, || {
            let series = run_multiflow(
                link.clone(),
                &flows,
                Time::from_secs(2),
                Time::from_millis(500),
            );
            std::hint::black_box(series[0].len());
        }),
    ));
}

// --- Fleet serving ---------------------------------------------------------

/// The `canopy_serve` sustained-throughput runtime: a 256-flow dumbbell
/// fleet run flat-out for one simulated second. Gated benches record the
/// median wall time, per-decision cost, and p99 decision latency; the
/// returned JSON block carries the non-gated sustained-throughput figures
/// (decisions/sec, real-time factor) for the committed report.
fn bench_serve(opts: &Opts, out: &mut Vec<(String, f64)>) -> Value {
    use canopy_serve::{Fleet, FleetConfig};
    let samples = if opts.smoke { 3 } else { 5 };
    let model = synthetic_model(opts.seed);
    let config = FleetConfig::dumbbell(256, 512e6, model.k);
    let duration = Time::from_secs(1);

    let mut reports = Vec::with_capacity(samples + 1);
    for _ in 0..=samples {
        let mut fleet = Fleet::new(&config, model.actor.clone());
        reports.push(fleet.run(duration));
    }
    reports.remove(0); // warmup
    reports.sort_by_key(|r| r.wall_ns);
    let median = reports[reports.len() / 2];

    out.push(("serve/fleet256_1s".into(), median.wall_ns as f64));
    out.push((
        "serve/fleet256_ns_per_decision".into(),
        median.wall_ns as f64 / median.decisions.max(1) as f64,
    ));
    out.push((
        "serve/fleet256_p99_ns".into(),
        median.p99_decision_ns as f64,
    ));
    json!({
        "flows": (median.flows),
        "sim_ns": (median.sim_ns),
        "decisions": (median.decisions),
        "batches": (median.batches),
        "mean_batch": (median.mean_batch),
        "decisions_per_sec": (median.decisions_per_sec),
        "realtime_factor": (median.realtime_factor),
        "sustains_realtime": (median.sustains_realtime()),
    })
}

// --- Recorder overhead ------------------------------------------------------

/// What telemetry costs on the serving hot path: one identical 64-flow
/// dumbbell fleet run three ways — (a) an attached-but-inert
/// `NoopRecorder`, (b) the bounded `FlightRecorder`, and (c) the flight
/// recorder with the full live layer enabled (windowed registry feeds,
/// cadence snapshots, SLO watchdog, hot-path spans). Whole-run wall-time
/// medians; the `off → flight → live` progression is the recorder's
/// overhead ladder.
fn bench_recorder_overhead(opts: &Opts, out: &mut Vec<(String, f64)>) {
    use canopy_serve::{Fleet, FleetConfig};
    use canopy_telemetry::{
        shared, FlightRecorder, LiveConfig, NoopRecorder, RecorderConfig, SloKind, SloSpec,
    };
    use std::cell::RefCell;
    use std::rc::Rc;
    let samples = if opts.smoke { 3 } else { 5 };
    let model = synthetic_model(opts.seed);
    let config = FleetConfig::dumbbell(64, 256e6, model.k);
    let duration = Time::from_millis(500);

    let mut run = |label: &str, attach: &dyn Fn(&mut Fleet)| {
        let mut walls = Vec::with_capacity(samples + 1);
        for _ in 0..=samples {
            let mut fleet = Fleet::new(&config, model.actor.clone());
            attach(&mut fleet);
            walls.push(fleet.run(duration).wall_ns as f64);
        }
        walls.remove(0); // warmup
        walls.sort_by(f64::total_cmp);
        out.push((
            format!("telemetry/recorder_overhead_{label}"),
            walls[walls.len() / 2],
        ));
    };
    run("off", &|fleet| {
        fleet.set_recorder(Some(shared(NoopRecorder)));
    });
    run("flight", &|fleet| {
        fleet.set_recorder(Some(shared(FlightRecorder::default())));
    });
    run("live", &|fleet| {
        fleet.attach_live(Rc::new(RefCell::new(FlightRecorder::with_live(
            RecorderConfig::default(),
            LiveConfig::default()
                .with_label("bench")
                .with_slo(SloSpec::new(
                    "p99-latency",
                    SloKind::MaxP99DecisionLatencyNs,
                    5e6,
                )),
        ))));
    });
}

// --- Multi-hop topologies -------------------------------------------------

fn bench_topology(opts: &Opts, out: &mut Vec<(String, f64)>) {
    use canopy_netsim::Topology;
    let (samples, iters) = if opts.smoke { (3, 1) } else { (7, 2) };

    // An 8-flow incast tree: eight Cubic senders, one per leaf uplink,
    // all fanning into a shared 96 Mbps root. Every data packet crosses
    // two links, so this exercises the HopArrival forwarding path and
    // the per-link calendar lanes the topology refactor added.
    let fan_in = 8;
    let root = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("bench-root", 96e6),
        Time::from_millis(20),
        1.0,
    );
    let leaf = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("bench-leaf", 192e6),
        Time::from_millis(20),
        1.0,
    );
    let tree = Topology::incast(root, leaf, fan_in);
    out.push((
        "topology/incast8_2s".into(),
        median_ns(samples, iters, || {
            let mut sim = Simulator::with_topology(tree.clone());
            let flows: Vec<_> = (0..fan_in)
                .map(|i| {
                    sim.add_flow(
                        FlowConfig::new(Time::from_millis(40))
                            .on_path(Topology::incast_path(i, fan_in)),
                        Box::new(canopy_cc::Cubic::new()),
                    )
                })
                .collect();
            sim.run_until(Time::from_secs(2));
            std::hint::black_box(sim.flow_stats(flows[0]).acked_bytes);
        }),
    ));

    // A 3-hop parking lot: one long Cubic flow across all three
    // bottlenecks plus a one-hop Cubic competitor per hop — the classic
    // RTT-unfairness construction, with queues contested at every hop.
    let hops = 3;
    let hop = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("bench-hop", 48e6),
        Time::from_millis(20),
        1.0,
    )
    .with_delay(Time::from_millis(5));
    let lot = Topology::parking_lot(hop, hops);
    out.push((
        "topology/parkinglot3_2s".into(),
        median_ns(samples, iters, || {
            let mut sim = Simulator::with_topology(lot.clone());
            let long = sim.add_flow(
                FlowConfig::new(Time::from_millis(40))
                    .on_path(Topology::parking_lot_long_path(hops)),
                Box::new(canopy_cc::Cubic::new()),
            );
            for i in 0..hops {
                sim.add_flow(
                    FlowConfig::new(Time::from_millis(40))
                        .on_path(Topology::parking_lot_hop_path(i, hops)),
                    Box::new(canopy_cc::Cubic::new()),
                );
            }
            sim.run_until(Time::from_secs(2));
            std::hint::black_box(sim.flow_stats(long).acked_bytes);
        }),
    ));
}

// --- Decision-loop latency -------------------------------------------------

/// Per-decision wall-clock latency through the deployment decision loop
/// (state assembly + policy forward + clamp), fed into the telemetry
/// layer's log-scale histogram and reported as p50/p95/p99 ns. This is
/// the one sanctioned wall-clock use of [`LogHistogram`] — everywhere
/// else the telemetry layer records sim time only, to stay deterministic.
fn bench_decision_latency(opts: &Opts, out: &mut Vec<(String, f64)>) {
    use canopy_core::env::{CcEnv, EnvConfig};
    use canopy_telemetry::LogHistogram;
    let decisions = if opts.smoke { 500 } else { 4000 };
    let mut rng = StdRng::seed_from_u64(opts.seed);
    // The deep model's deployment shape: k = 10 monitor intervals → a
    // 50-feature state through a 64×64 tanh policy.
    let k = 10;
    let mut config = EnvConfig::new(
        BandwidthTrace::constant("bench-decision", 24e6),
        Time::from_millis(40),
        1.0,
    );
    config.k = k;
    let policy = Mlp::new(
        &mut rng,
        &[StateLayout::new(k).dim(), 64, 64, 1],
        Activation::Tanh,
    );
    let mut env = CcEnv::new(config);
    let mut hist = LogHistogram::new();
    // Warm up caches and the env history window before timing.
    for _ in 0..decisions.min(50) {
        let action = policy.forward(&env.state())[0].clamp(-1.0, 1.0);
        if env.step(action).done {
            env.reset();
        }
    }
    for _ in 0..decisions {
        let t = Instant::now();
        let state = env.state();
        let action = policy.forward(&state)[0].clamp(-1.0, 1.0);
        hist.record(t.elapsed().as_nanos() as u64);
        if env.step(action).done {
            env.reset();
        }
    }
    out.push(("decision_latency/p50".into(), hist.p50() as f64));
    out.push(("decision_latency/p95".into(), hist.p95() as f64));
    out.push(("decision_latency/p99".into(), hist.p99() as f64));
}

// --- Episode-sampling overhead --------------------------------------------

fn bench_episode_sampler(opts: &Opts, out: &mut Vec<(String, f64)>) {
    use canopy_core::env::{CcEnv, EnvConfig, EpisodeCrossFlow, EpisodeSpec};
    use canopy_core::orca::RewardConfig;
    use canopy_netsim::{LinkId, Topology};
    let (samples, iters) = if opts.smoke { (5, 50) } else { (9, 300) };

    // What the trainer pays per episode boundary today: rebuilding the
    // plain single-link environment.
    let config = EnvConfig::new(
        BandwidthTrace::constant("bench-episode", 24e6),
        Time::from_millis(40),
        1.0,
    )
    .with_episode(Time::from_secs(2));
    out.push((
        "episode_sampler/base_env".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(CcEnv::new(config.clone()));
        }),
    ));

    // What an adversarial mix draw pays instead: path validation plus
    // topology construction through the `EpisodeSpec` adapter.
    let dumbbell = EpisodeSpec {
        name: "bench-episode-dumbbell".into(),
        topology: Topology::dumbbell(LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("bench-episode", 24e6),
            Time::from_millis(40),
            1.0,
        )),
        primary_path: vec![LinkId(0)],
        primary_min_rtt: Time::from_millis(40),
        monitor_interval: Time::ZERO,
        episode: Time::from_secs(2),
        k: 3,
        reward: RewardConfig::default(),
        noise: None,
        cross: Vec::new(),
    };
    out.push((
        "episode_sampler/episode_dumbbell".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(CcEnv::from_episode(dumbbell.clone()).expect("valid episode"));
        }),
    ));

    // The expensive end of the pool: a parking lot with per-hop cross
    // flows, the shape fixture-corpus episodes typically take.
    let hops = 3;
    let hop = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("bench-episode-hop", 48e6),
        Time::from_millis(20),
        1.0,
    )
    .with_delay(Time::from_millis(5));
    let multihop = EpisodeSpec {
        name: "bench-episode-multihop".into(),
        topology: Topology::parking_lot(hop, hops),
        primary_path: Topology::parking_lot_long_path(hops),
        primary_min_rtt: Time::from_millis(40),
        monitor_interval: Time::ZERO,
        episode: Time::from_secs(2),
        k: 3,
        reward: RewardConfig::default(),
        noise: None,
        cross: (0..hops)
            .map(|i| EpisodeCrossFlow {
                cc: "cubic".into(),
                start: Time::from_millis(200 * i as u64),
                stop: None,
                min_rtt: Time::from_millis(20),
                path: Topology::parking_lot_hop_path(i, hops),
            })
            .collect(),
    };
    out.push((
        "episode_sampler/episode_multihop".into(),
        median_ns(samples, iters, || {
            std::hint::black_box(CcEnv::from_episode(multihop.clone()).expect("valid episode"));
        }),
    ));
}

// --- Report assembly -----------------------------------------------------

fn find(benches: &[(String, f64)], name: &str) -> Option<f64> {
    benches.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Reads the committed baseline (the single parse path for both the
/// `vs_baseline` report block and the `--check` gate).
fn read_baseline() -> Result<Value, String> {
    let text = std::fs::read_to_string(BASELINE_PATH)
        .map_err(|e| format!("cannot read {BASELINE_PATH}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {BASELINE_PATH}: {e}"))
}

fn main() {
    let opts = parse_opts();
    let mut benches: Vec<(String, f64)> = Vec::new();

    if opts.runs("td3_update") {
        eprintln!("perf_report: td3 update step…");
        bench_td3(&opts, &mut benches);
    }
    if opts.runs("actor_forward") {
        eprintln!("perf_report: policy evaluation…");
        bench_forward(&opts, &mut benches);
    }
    if opts.runs("gemm") {
        eprintln!("perf_report: gemm kernel…");
        bench_gemm(&opts, &mut benches);
    }
    if opts.runs("train") {
        eprintln!("perf_report: training primitives…");
        bench_train_primitives(&opts, &mut benches);
    }
    if opts.runs("ibp") {
        eprintln!("perf_report: ibp primitives…");
        bench_ibp(&opts, &mut benches);
    }
    let mut certify_leaves = 0usize;
    if opts.runs("certify_adaptive") {
        eprintln!("perf_report: adaptive certification…");
        certify_leaves = bench_certify(&opts, &mut benches);
    }
    if opts.runs("simulator") {
        eprintln!("perf_report: simulator…");
        bench_simulator(&opts, &mut benches);
    }
    if opts.runs("run_multiflow") {
        eprintln!("perf_report: multi-flow event path…");
        bench_multiflow(&opts, &mut benches);
    }
    let mut serve_info = Value::Null;
    if opts.runs("serve") {
        eprintln!("perf_report: fleet serving…");
        serve_info = bench_serve(&opts, &mut benches);
    }
    if opts.runs("telemetry") {
        eprintln!("perf_report: recorder overhead…");
        bench_recorder_overhead(&opts, &mut benches);
    }
    if opts.runs("topology") {
        eprintln!("perf_report: multi-hop topologies…");
        bench_topology(&opts, &mut benches);
    }
    if opts.runs("episode_sampler") {
        eprintln!("perf_report: episode-sampling overhead…");
        bench_episode_sampler(&opts, &mut benches);
    }
    if opts.runs("decision_latency") {
        eprintln!("perf_report: decision-loop latency…");
        bench_decision_latency(&opts, &mut benches);
    }

    // In-run speedups (both sides measured this invocation).
    let mut speedups = serde_json::Map::new();
    for (key, num, den) in [
        ("td3_update", "td3_update/reference", "td3_update/batched"),
        (
            "td3_update_vs_seed_replica",
            "td3_update/seed",
            "td3_update/batched",
        ),
        (
            "actor_forward",
            "actor_forward/scalar",
            "actor_forward/batched",
        ),
        (
            "certify_adaptive_4threads_vs_seed",
            "certify_adaptive/seed",
            "certify_adaptive/batched_threads4",
        ),
        (
            "certify_adaptive_1thread_vs_seed",
            "certify_adaptive/seed",
            "certify_adaptive/batched_threads1",
        ),
        // Overhead ratio, not a speedup: >1 means an adversarial-mix draw
        // costs more than the plain episode rebuild it replaces.
        (
            "episode_sampling_overhead",
            "episode_sampler/episode_dumbbell",
            "episode_sampler/base_env",
        ),
        // Also an overhead ratio: what the full live layer (windowed
        // feeds + snapshots + watchdog + spans) costs relative to an
        // inert recorder on the identical fleet run.
        (
            "live_observability_overhead",
            "telemetry/recorder_overhead_live",
            "telemetry/recorder_overhead_off",
        ),
    ] {
        if let (Some(n), Some(d)) = (find(&benches, num), find(&benches, den)) {
            speedups.insert(key.to_string(), json!(n / d));
        }
    }
    let speedups = Value::Object(speedups);

    // Cross-run speedups against the committed baseline (`> 1` is faster
    // than the baseline recorded with `--write-baseline`). This is where
    // engine rewrites — e.g. the per-flow calendar sharding — leave their
    // before/after evidence in the committed report.
    let mut vs_baseline = serde_json::Map::new();
    if let Ok(baseline) = read_baseline() {
        if let Some(base) = baseline["benches"].as_object() {
            for (name, ns) in &benches {
                if let Some(base_ns) = base.get(name).and_then(Value::as_f64) {
                    vs_baseline.insert(name.clone(), json!(base_ns / ns));
                }
            }
        }
    }

    let bench_map: serde_json::Map = benches.iter().map(|(n, v)| (n.clone(), json!(v))).collect();
    let report = json!({
        "generated_by": "perf_report",
        "smoke": (opts.smoke),
        "seed": (opts.seed),
        "certify_leaves": (certify_leaves),
        "benches": (Value::Object(bench_map.clone())),
        "speedups": (speedups.clone()),
        "vs_baseline": (Value::Object(vs_baseline)),
        // Sustained-throughput context for the serve benches (not gated —
        // decisions/sec and the real-time factor are hardware figures, not
        // regressions to trip on).
        "serve": (serve_info),
    });
    let report_text = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(REPORT_PATH, report_text + "\n").expect("write BENCH_report.json");

    println!("\n| bench | median ns/op |");
    println!("|---|---|");
    for (name, ns) in &benches {
        println!("| {name} | {ns:.0} |");
    }
    println!(
        "\nspeedups: {}",
        serde_json::to_string(&speedups).expect("serialize speedups")
    );
    println!("report written to {REPORT_PATH}");

    if opts.write_baseline {
        let baseline = json!({ "benches": (Value::Object(bench_map)), "smoke": (opts.smoke) });
        let text = serde_json::to_string(&baseline).expect("serialize baseline");
        std::fs::write(BASELINE_PATH, text + "\n").expect("write baseline");
        println!("baseline written to {BASELINE_PATH}");
    }

    if opts.check {
        // A gate that measured nothing must fail loudly, not pass: an
        // `--only` prefix that matches no bench group (typo, renamed
        // bench) would otherwise silently disable the regression check.
        if benches.is_empty() {
            eprintln!(
                "perf_report: --check ran zero benches (--only {:?} matched nothing)",
                opts.only.as_deref().unwrap_or("")
            );
            std::process::exit(1);
        }
        let baseline: Value = match read_baseline() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perf_report: {e}");
                std::process::exit(1);
            }
        };
        if let Value::Bool(base_smoke) = baseline["smoke"] {
            if base_smoke != opts.smoke {
                eprintln!(
                    "perf_report: warning: comparing a {} run against a {} baseline; \
                     mode-sensitive benches (certification depth) are not comparable",
                    if opts.smoke { "smoke" } else { "full" },
                    if base_smoke { "smoke" } else { "full" },
                );
            }
        }
        let mut regressions = Vec::new();
        if let Some(base) = baseline["benches"].as_object() {
            for (name, ns) in &benches {
                match base.get(name).and_then(Value::as_f64) {
                    Some(base_ns) => {
                        let ratio = ns / base_ns;
                        if ratio > REGRESSION_FACTOR {
                            regressions.push(format!(
                                "{name}: {ns:.0} ns vs baseline {base_ns:.0} ns ({ratio:.2}x)"
                            ));
                        }
                    }
                    None => eprintln!(
                        "perf_report: warning: `{name}` has no baseline entry \
                         (re-record with --write-baseline); not gated"
                    ),
                }
            }
        }
        if regressions.is_empty() {
            println!("check: no bench regressed more than {REGRESSION_FACTOR}x — OK");
        } else {
            eprintln!("check: regressions detected:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
