//! The one Orca decision loop.
//!
//! Every harness in the workspace drives a learned controller the same
//! way: once per monitor interval it drains the flow's monitor sample,
//! perturbs the observed queuing delay with the configured noise stream,
//! pushes the observation into the rolling `k`-step state, evaluates the
//! actor (optionally behind its certificate monitor), and applies the
//! resulting window through `f_cwnd` (Eq. 1). [`OrcaDriver`] owns one
//! flow's share of that loop — sampling, noise, state, policy, window
//! application, and the `prev_action`/`prev_cwnd` bookkeeping — over a
//! [`Simulator`] and [`FlowId`] it does not own. Both come from
//! [`world::spawn`](crate::world::spawn), the one place a flow is added
//! and a driver bound to its bottleneck link, so the training environment
//! ([`CcEnv`](crate::env::CcEnv)), the multi-flow experiment driver
//! ([`eval::run_multiflow`](crate::eval::run_multiflow)), the
//! scenario-matrix runner and the serving fleet are bitwise consistent by
//! construction.
//!
//! There is one engine that schedules and computes self-driven decisions:
//! [`DriverPool`]. A solo learned flow is a pool of one. A pool serves one
//! policy, as the runtime of §4.4 deploys one certified actor: it batches
//! same-instant decisions and forwards and certifies each distinct state
//! of a batch once, however many flows share it.
//!
//! A policy has at most one certificate monitor
//! ([`FallbackController`]), and so one per-decision `QC_sat` stream
//! ([`OrcaDriver::fallback_qc_values`]). QC evaluation is an observing
//! monitor, which certifies every decision and never falls back; the
//! runtime fallback of §4.4 is an arbitrating one, which benches the agent
//! below its threshold.
//!
//! # Decision timing
//!
//! A pooled driver decides at `start + i·MI` for `i = 1, 2, …`,
//! **strictly before** the run horizon: a decision scheduled exactly at
//! the horizon does not fire. (The first interval `[start, start + MI)`
//! runs on the unmodified kernel; the first observation the agent sees is
//! that interval's sample.) Every evaluation harness follows this
//! protocol. Only the RL training loop decides *at* time zero — it acts on
//! the initial all-zero state — and [`CcEnv`](crate::env::CcEnv) does so
//! through the
//! `apply_agent`/[`observe`](OrcaDriver::observe)
//! primitives directly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use canopy_absint::{IbpBatchScratch, PreparedMlp};
use canopy_netsim::traces::fnv1a;
use canopy_netsim::{FlowId, LinkConfig, MonitorSample, Simulator, Time};
use canopy_nn::Mlp;
use canopy_telemetry::{BatchRecord, DecisionRecord, SharedRecorder};

use crate::env::NoiseConfig;
use crate::obs::{Normalizer, Observation, StateBuilder, StateLayout};
use crate::orca::f_cwnd;
use crate::plan::CertPlan;
use crate::property::Property;
use crate::runtime::FallbackController;
use crate::verifier::{StepContext, Verifier};

/// Static configuration of one driver: everything about the decision loop
/// that is not the policy itself.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Propagation RTT of the controlled flow's path.
    pub min_rtt: Time,
    /// History depth `k`.
    pub k: usize,
    /// Optional observation noise (queuing delay × `1 + η`,
    /// `η ~ U(−μ, μ)`).
    pub noise: Option<NoiseConfig>,
    /// When the flow starts; the first self-driven decision fires one
    /// monitor interval later.
    pub start: Time,
    /// When the flow departs; decisions at or after this instant are
    /// skipped and the driver deactivates.
    pub stop: Option<Time>,
}

impl DriverConfig {
    /// A driver configuration with the default monitor interval and no
    /// noise, starting at time zero.
    pub fn new(min_rtt: Time, k: usize) -> DriverConfig {
        DriverConfig {
            min_rtt,
            k,
            noise: None,
            start: Time::ZERO,
            stop: None,
        }
    }

    /// The monitor interval, by Orca's rule: `max(min_rtt, 20 ms)`.
    pub fn effective_mi(&self) -> Time {
        self.min_rtt.max(Time::from_millis(20))
    }

    /// Sets the flow start time.
    pub fn starting_at(mut self, t: Time) -> DriverConfig {
        self.start = t;
        self
    }
}

/// The decision policy of a self-driving driver: the actor network,
/// optionally behind one certificate monitor.
///
/// The actor is shared (`Arc`): cloning a policy, or pooling drivers, keeps
/// one copy of the weights.
#[derive(Clone, Debug)]
pub struct DriverPolicy {
    actor: Arc<Mlp>,
    monitor: Option<FallbackController>,
}

/// Exact equality of two actors: shapes, activations, and parameter bits.
fn same_actor(a: &Arc<Mlp>, b: &Arc<Mlp>) -> bool {
    let bits = |xs: &[f64], ys: &[f64]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    Arc::ptr_eq(a, b)
        || (a.layers().len() == b.layers().len()
            && a.layers().iter().zip(b.layers()).all(|(x, y)| {
                x.activation == y.activation
                    && x.fan_in() == y.fan_in()
                    && bits(x.weights.as_slice(), y.weights.as_slice())
                    && bits(&x.bias, &y.bias)
            }))
}

impl DriverPolicy {
    /// A plain learned policy.
    pub fn new(actor: Mlp) -> DriverPolicy {
        DriverPolicy {
            actor: Arc::new(actor),
            monitor: None,
        }
    }

    /// Puts the policy behind a certificate monitor, replacing any other.
    /// Every decision is certified; an arbitrating monitor applies the
    /// actor's window only when the certificate clears its threshold
    /// (otherwise the interval runs on the unmodified kernel), an observing
    /// one always applies it.
    pub fn with_fallback(mut self, monitor: FallbackController) -> DriverPolicy {
        self.monitor = Some(monitor);
        self
    }

    /// The actor network.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The certificate monitor, when the policy has one.
    pub fn monitor(&self) -> Option<&FallbackController> {
        self.monitor.as_ref()
    }

    /// Whether one compiled policy serves both: bit-equal actors and equal
    /// monitor verifier and properties. A monitor's threshold and counters
    /// are per driver, so an observing and an arbitrating monitor over one
    /// `(Verifier, properties)` compile alike.
    pub(crate) fn compiles_like(&self, other: &DriverPolicy) -> bool {
        fn config(p: &DriverPolicy) -> Option<(&Verifier, &[Property])> {
            p.monitor.as_ref().map(|m| (m.verifier(), m.properties()))
        }
        same_actor(&self.actor, &other.actor) && config(self) == config(other)
    }
}

/// The observation half of one decision, produced by
/// [`OrcaDriver::prepare_decision`]: the drained monitor sample and the
/// decision-point context (state *after* the history push). The action
/// the policy computes for it, applied through
/// [`OrcaDriver::apply_decision`], completes the decision.
#[derive(Clone, Debug)]
pub struct PreparedDecision {
    /// The noise-free monitor sample paired with the decision.
    pub sample: MonitorSample,
    /// The verifier's (and actor's) view of the decision point.
    pub ctx: StepContext,
}

/// The shared per-flow decision loop (see the module docs).
///
/// The driver never owns the simulator: every method that advances or
/// mutates simulation state takes `&mut Simulator`, so one simulator can
/// host many drivers (see [`DriverPool`]) next to classic kernels.
#[derive(Debug)]
pub struct OrcaDriver {
    flow: FlowId,
    mi: Time,
    start: Time,
    stop: Option<Time>,
    next_decision: Time,
    layout: StateLayout,
    builder: StateBuilder,
    noise: Option<NoiseConfig>,
    noise_rng: Option<StdRng>,
    prev_action: f64,
    prev_cwnd: f64,
    policy: Option<DriverPolicy>,
    decisions: u64,
    fallback_qc: Vec<f64>,
}

impl OrcaDriver {
    /// Builds a driver for `flow` on the given link. The normalizer is
    /// derived from the link exactly as in training, so states transfer
    /// between harnesses. Harnesses get their drivers from
    /// [`world::spawn`](crate::world::spawn), which picks the link.
    pub fn new(config: &DriverConfig, link: &LinkConfig, flow: FlowId) -> OrcaDriver {
        let mi = config.effective_mi();
        let layout = StateLayout::new(config.k);
        let normalizer = Normalizer::for_link(link, config.min_rtt, mi);
        OrcaDriver {
            flow,
            mi,
            start: config.start,
            stop: config.stop,
            next_decision: config.start + mi,
            layout,
            builder: StateBuilder::new(layout, normalizer),
            noise: config.noise,
            noise_rng: config.noise.map(|n| StdRng::seed_from_u64(n.seed)),
            prev_action: 0.0,
            prev_cwnd: canopy_cc::cubic::INITIAL_CWND,
            policy: None,
            decisions: 0,
            fallback_qc: Vec::new(),
        }
    }

    /// Attaches a self-driving policy.
    pub fn with_policy(mut self, policy: DriverPolicy) -> OrcaDriver {
        self.policy = Some(policy);
        self
    }

    /// The attached policy, when self-driving.
    pub fn policy(&self) -> Option<&DriverPolicy> {
        self.policy.as_ref()
    }

    // --- Primitives (the pieces every harness shares) --------------------

    /// Drains the flow's monitor sample, applies observation noise, and
    /// pushes the (noisy) observation into the state history together with
    /// the action that led to it. Returns the noise-free sample.
    pub fn observe(&mut self, sim: &mut Simulator) -> MonitorSample {
        let sample = sim.monitor_sample(self.flow);
        let mut obs = Observation::from_sample(&sample);
        if let (Some(noise), Some(rng)) = (self.noise, self.noise_rng.as_mut()) {
            let eta = rng.random_range(-noise.mu..=noise.mu);
            obs.queue_delay_ms *= 1.0 + eta;
        }
        self.builder.push(&obs, self.prev_action);
        sample
    }

    /// The verifier's view of the current decision point.
    pub fn step_context(&self, sim: &Simulator) -> StepContext {
        StepContext {
            state: self.builder.state(),
            cwnd_tcp: sim.cwnd(self.flow),
            cwnd_prev: self.prev_cwnd,
        }
    }

    /// Applies an agent action through Eq. (1) — **the** action→cwnd
    /// runtime path — and records it for the next observation. Returns the
    /// enforced window.
    pub(crate) fn apply_agent(&mut self, sim: &mut Simulator, action: f64) -> f64 {
        let cwnd_tcp = sim.cwnd(self.flow);
        let cwnd = f_cwnd(action, cwnd_tcp);
        sim.set_cwnd(self.flow, cwnd);
        self.prev_action = action;
        self.prev_cwnd = cwnd;
        cwnd
    }

    /// Lets the interval run on the unmodified kernel (the fallback path
    /// and baseline evaluation through the same bookkeeping): the recorded
    /// action is 0 — `f_cwnd(0, w) = w`, i.e. "keep TCP's window".
    pub(crate) fn apply_kernel(&mut self, sim: &mut Simulator) -> f64 {
        let cwnd = sim.cwnd(self.flow);
        self.prev_action = 0.0;
        self.prev_cwnd = cwnd;
        cwnd
    }

    /// Resets the episode state (history, bookkeeping, `QC_sat` stream) while
    /// deterministically **continuing** the noise stream, exactly as
    /// [`CcEnv::reset`](crate::env::CcEnv::reset) requires.
    pub(crate) fn reset_episode(&mut self) {
        self.builder.reset();
        self.prev_action = 0.0;
        self.prev_cwnd = canopy_cc::cubic::INITIAL_CWND;
        self.next_decision = self.start + self.mi;
        self.decisions = 0;
        self.fallback_qc.clear();
    }

    // --- The two halves of a pooled decision ------------------------------

    /// The next decision instant ([`Time::MAX`] once the flow departed).
    pub fn next_decision(&self) -> Time {
        self.next_decision
    }

    /// The observation half of the decision scheduled at the current
    /// simulation time: drains the monitor sample and pushes the state
    /// history, returning everything the policy evaluation needs. Returns
    /// `None` (and deactivates the driver) when the flow has departed.
    ///
    /// Preparing touches only this flow's accumulators and advances no
    /// simulation time, so the pool prepares every same-instant decision
    /// before computing or applying any of them — bitwise identical to
    /// preparing and applying flow by flow.
    pub fn prepare_decision(&mut self, sim: &mut Simulator) -> Option<PreparedDecision> {
        if self.stop.is_some_and(|s| sim.now() >= s) {
            // The flow departed; stop waking up for it.
            self.next_decision = Time::MAX;
            return None;
        }
        let sample = self.observe(sim);
        let ctx = self.step_context(sim);
        Some(PreparedDecision { sample, ctx })
    }

    /// The application half: arbitrates an already-computed decision and
    /// enforces it. `action` is the actor output for the prepared state;
    /// `qc_sat` carries the certificate aggregate when the policy has a
    /// monitor (the stream and the monitor's bookkeeping are updated here,
    /// via [`FallbackController::arbitrate`]). A non-finite `action` never
    /// reaches the agent path: the interval runs on the kernel, as on a
    /// fallback.
    ///
    /// Returns the enforced window and whether the agent set it (`false`
    /// when the kernel kept the interval).
    ///
    /// # Panics
    ///
    /// Panics if no policy is attached, or if a monitored policy's
    /// aggregate is missing.
    pub fn apply_decision(
        &mut self,
        sim: &mut Simulator,
        action: f64,
        qc_sat: Option<f64>,
    ) -> (f64, bool) {
        // A documented precondition (`# Panics`); the pool, which calls
        // this for every pooled decision, pools only drivers with a policy.
        let policy = self
            .policy
            .as_mut()
            .expect("self-driving decisions require a policy");
        let use_agent = match policy.monitor.as_mut() {
            Some(monitor) => {
                // The pool certifies every monitored group before it
                // applies (`# Panics` states it for any other caller).
                let agg = qc_sat.expect("callers certify a monitored policy first (see # Panics)");
                self.fallback_qc.push(agg);
                monitor.arbitrate(agg).use_agent
            }
            None => true,
        };
        // A non-finite action has no window under Eq. (1), and stored as
        // `prev_action` it would poison every later state: the kernel keeps
        // the interval, as on a fallback.
        let use_agent = use_agent && action.is_finite();
        let cwnd = if use_agent {
            self.apply_agent(sim, action)
        } else {
            self.apply_kernel(sim)
        };
        self.decisions += 1;
        self.next_decision += self.mi;
        (cwnd, use_agent)
    }

    // --- Accessors --------------------------------------------------------

    /// The flow under control.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The effective monitor interval.
    pub fn mi(&self) -> Time {
        self.mi
    }

    /// The state layout.
    pub fn layout(&self) -> StateLayout {
        self.layout
    }

    /// The normalizer derived from the link.
    pub fn normalizer(&self) -> &Normalizer {
        self.builder.normalizer()
    }

    /// The current flat state vector.
    pub fn state(&self) -> Vec<f64> {
        self.builder.state()
    }

    /// The window applied at the previous decision.
    pub fn prev_cwnd(&self) -> f64 {
        self.prev_cwnd
    }

    /// The action recorded at the previous decision (0 on fallback).
    pub fn prev_action(&self) -> f64 {
        self.prev_action
    }

    /// Self-driven decisions executed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Per-decision `QC_sat` from the policy's monitor, observing or
    /// arbitrating — the one stream of certified decisions.
    pub fn fallback_qc_values(&self) -> &[f64] {
        &self.fallback_qc
    }

    /// The policy's monitor when it arbitrates (an observing monitor never
    /// falls back, so it has no fallback statistics).
    fn fallback(&self) -> Option<&FallbackController> {
        let monitor = self.policy.as_ref().and_then(DriverPolicy::monitor);
        monitor.filter(|m| m.threshold().is_some())
    }

    /// Fraction of decisions the fallback monitor overrode, when the
    /// policy's monitor arbitrates.
    pub fn fallback_rate(&self) -> Option<f64> {
        self.fallback().map(FallbackController::fallback_rate)
    }

    /// How many times the fallback monitor engaged (agent → Cubic
    /// transitions), when the policy's monitor arbitrates.
    pub fn fallback_engagements(&self) -> Option<u64> {
        self.fallback().map(FallbackController::engagements)
    }
}

/// Summary of one pooled dispatch instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchDispatch {
    /// The simulation instant the batch fired at.
    pub at: Time,
    /// Decisions executed (drivers due, minus any that departed).
    pub decisions: usize,
}

/// The pool's policy, compiled: everything the pool derives from it that
/// does not depend on the decision — one copy of the actor, its transposed
/// weights (which serve the forward pass and batched IBP alike), the
/// monitor's [`CertPlan`], and the scratch all of them reuse.
#[derive(Debug)]
struct CompiledPolicy {
    /// The policy compiled, holding the pool's one copy of the actor. Its
    /// monitor's threshold and counters go unused: each driver keeps its
    /// own.
    policy: DriverPolicy,
    net: PreparedMlp,
    /// The monitor's certification pass, when the policy has a monitor.
    plan: Option<CertPlan>,
    /// Stages the forward pass. Its own, so that the forward's few rows
    /// and certification's many do not resize (and refill) one set of
    /// buffers back and forth on every dispatch.
    forward: IbpBatchScratch,
    /// `[0]` stages sequential certification; the certification fan-out
    /// grows one more per worker.
    scratch: Vec<IbpBatchScratch>,
}

impl CompiledPolicy {
    /// Compiles `policy`; the plan is built only when it has a monitor.
    fn compile(policy: &DriverPolicy, layout: StateLayout) -> CompiledPolicy {
        let net = PreparedMlp::new(&policy.actor);
        let plan = policy
            .monitor
            .as_ref()
            .map(|m| CertPlan::compile(*m.verifier(), &net, m.properties(), layout));
        CompiledPolicy {
            policy: policy.clone(),
            net,
            plan,
            forward: IbpBatchScratch::new(),
            scratch: vec![IbpBatchScratch::new()],
        }
    }

    /// Re-targets the compiled form at `actor`, keeping the monitor's
    /// stages and the scratch ([`CertPlan::rebind`]).
    fn rebind(&mut self, actor: Arc<Mlp>) {
        self.net = PreparedMlp::new(&actor);
        if let Some(plan) = &mut self.plan {
            plan.rebind(&self.net);
        }
        self.policy.actor = actor;
    }

    /// Decides `n` same-instant contexts of this policy — one batched
    /// forward and, under a monitor, one [`CertPlan`] run, each over the
    /// distinct states among them only — and hands context `j`'s action and
    /// Eq. (7) aggregate to `out(j, action, agg)`. A context shares its
    /// representative's action and certified rows (both are row-wise in
    /// the state), but its aggregate is judged against its own
    /// `cwnd_tcp`/`cwnd_prev`.
    fn decide<'a>(
        &mut self,
        n: usize,
        ctx: impl Fn(usize) -> &'a StepContext + Sync,
        distinct: &mut DistinctStates,
        mut out: impl FnMut(usize, f64, Option<f64>),
    ) {
        distinct.group(n, |j| &ctx(j).state);
        let DistinctStates {
            reps,
            rep_of,
            actions,
            ..
        } = distinct;
        let CompiledPolicy {
            policy,
            net,
            plan,
            forward,
            scratch,
        } = self;
        let (states, _) = forward.stage(reps.len(), net.input_dim());
        for (r, &j) in reps.iter().enumerate() {
            states.set_row(r, &ctx(j).state);
        }
        let forward = net.forward_staged(forward);
        actions.clear();
        actions.extend((0..reps.len()).map(|r| forward.get(r, 0)));
        if let Some(plan) = plan {
            plan.run(
                net,
                &policy.actor,
                reps.len(),
                |r| &ctx(reps[r]).state,
                scratch,
            );
        }
        for (j, &r) in rep_of.iter().enumerate() {
            let action = actions[r];
            let agg = plan.as_ref().map(|p| p.aggregate(r, ctx(j), || action));
            out(j, action, agg);
        }
    }
}

/// Multiplexes any number of self-driving drivers over one simulator by
/// next-decision time: the pool repeatedly runs the simulator to the
/// earliest pending decision (a min-heap, not an `O(N)` scan) and
/// dispatches every driver due at that instant in insertion order (the
/// deterministic tie-break).
///
/// A pool serves **one policy**: [`push`](Self::push) compiles the first
/// driver's — shared actor, resident transposed weights, certification
/// plan and scratch — and every later driver must carry one that compiles
/// alike (bit-equal actor, equal monitor verifier and properties; its
/// monitor's threshold and counters stay its own). Nothing
/// decision-independent is rebuilt per dispatch.
///
/// Same-instant decisions are **batched**: the pool prepares every due
/// driver, runs one batched actor pass (and one [`CertPlan`] pass when the
/// policy has a monitor), then applies the results in insertion order.
/// Each pass covers each **distinct state once**: flows whose states are
/// bitwise equal (in practice, flows whose monitor windows saw no ACK)
/// share one forward row and one block of certified rows, while each
/// flow's certificate is still judged against its own windows. The
/// batched paths are bitwise identical to the per-sample paths, every row
/// depends on its own state alone, and same-instant decisions are
/// independent across flows, so a dispatch is bitwise identical to
/// deciding flow by flow with per-call `Verifier::certify_all` and
/// `Mlp::forward` — the oracle `tests/batched_pool.rs` rebuilds from the
/// driver's public primitives.
#[derive(Debug)]
pub struct DriverPool {
    drivers: Vec<OrcaDriver>,
    /// The drivers' one policy, compiled; `None` while the pool is empty.
    compiled: Option<CompiledPolicy>,
    /// Min-heap of `(next_decision, index)` with exactly one live entry
    /// per active driver — the pool is the only mutator of pooled
    /// drivers' schedules, so entries never go stale. `Reverse` pops
    /// ascending `(time, index)`, which *is* the insertion-order
    /// tie-break for equal times.
    queue: BinaryHeap<Reverse<(Time, usize)>>,
    /// Where each decision, each dispatch's [`BatchRecord`] and the
    /// simulator's link samples go, when attached.
    recorder: Option<SharedRecorder>,
    /// Per-dispatch working set, reused across dispatches.
    batch: BatchBuffers,
}

/// What one dispatch fills in: the drivers due, their prepared decisions
/// and their distinct states. Reused across dispatches: once they have
/// grown to the largest batch, neither the due list nor the grouping
/// allocates.
#[derive(Debug, Default)]
struct BatchBuffers {
    due: Vec<usize>,
    items: Vec<(usize, PreparedDecision)>,
    distinct: DistinctStates,
}

/// One batch's states, grouped by bit pattern: sorting the members
/// by a 64-bit key of their state bits ([`fnv1a`] over the `f64` words),
/// ties broken by the bits themselves and then the index, puts equal
/// states in runs. The key only orders; equality is always the full bit
/// comparison, so a collision costs a comparison and nothing else.
#[derive(Debug, Default)]
struct DistinctStates {
    /// (key, member index) in ascending (key, state bits, index) order.
    order: Vec<(u64, usize)>,
    /// One member per distinct state: the lowest index of its run.
    reps: Vec<usize>,
    /// `rep_of[j]`: the position in `reps` of member `j`'s state.
    rep_of: Vec<usize>,
    /// The forward pass's action per entry of `reps`.
    actions: Vec<f64>,
}

impl DistinctStates {
    /// Groups the states of members `0..n`.
    fn group<'a>(&mut self, n: usize, state: impl Fn(usize) -> &'a [f64]) {
        let DistinctStates {
            order,
            reps,
            rep_of,
            ..
        } = self;
        reps.clear();
        rep_of.clear();
        rep_of.resize(n, 0);
        if n == 1 {
            reps.push(0);
            return;
        }
        let bits = |j: usize| state(j).iter().map(|x| x.to_bits());
        order.clear();
        order.extend((0..n).map(|j| (fnv1a(bits(j)), j)));
        order.sort_unstable_by(|&(key_a, a), &(key_b, b)| {
            key_a
                .cmp(&key_b)
                .then_with(|| bits(a).cmp(bits(b)))
                .then(a.cmp(&b))
        });
        for (pos, &(key, j)) in order.iter().enumerate() {
            let new_run = pos == 0 || {
                let (prev_key, prev) = order[pos - 1];
                key != prev_key || !bits(j).eq(bits(prev))
            };
            if new_run {
                reps.push(j);
            }
            rep_of[j] = reps.len() - 1;
        }
    }
}

impl Default for DriverPool {
    fn default() -> DriverPool {
        DriverPool::new()
    }
}

/// Pools drivers in iteration order — how a harness takes over
/// [`World::drivers`](crate::world::World::drivers).
///
/// # Panics
///
/// As [`DriverPool::push`].
impl FromIterator<OrcaDriver> for DriverPool {
    fn from_iter<I: IntoIterator<Item = OrcaDriver>>(drivers: I) -> DriverPool {
        let mut pool = DriverPool::new();
        for driver in drivers {
            pool.push(driver);
        }
        pool
    }
}

impl DriverPool {
    /// An empty pool.
    pub fn new() -> DriverPool {
        DriverPool {
            drivers: Vec::new(),
            compiled: None,
            queue: BinaryHeap::new(),
            recorder: None,
            batch: BatchBuffers::default(),
        }
    }

    /// Adds a driver and returns its index. The first driver's policy is
    /// compiled; a later driver shares its compiled form and its copy of
    /// the actor.
    ///
    /// # Panics
    ///
    /// Panics if the driver carries no policy, or one that does not compile
    /// like the pool's (a bit-different actor, another monitor verifier or
    /// property set): a pool serves one policy.
    pub fn push(&mut self, mut driver: OrcaDriver) -> usize {
        let layout = driver.layout;
        // Documented preconditions of `push`: the pool decides for the
        // driver, so it needs the driver's policy, and it decides with
        // one compiled policy.
        let policy = driver
            .policy
            .as_mut()
            .expect("pooled drivers must be self-driving (attach a DriverPolicy)");
        match &self.compiled {
            Some(compiled) => {
                assert!(
                    policy.compiles_like(&compiled.policy),
                    "a pool serves one policy: driver {} differs from the first",
                    self.drivers.len()
                );
                policy.actor = compiled.policy.actor.clone();
            }
            None => self.compiled = Some(CompiledPolicy::compile(policy, layout)),
        }
        let index = self.drivers.len();
        if driver.next_decision < Time::MAX {
            self.queue.push(Reverse((driver.next_decision, index)));
        }
        self.drivers.push(driver);
        index
    }

    /// Number of drivers in the pool.
    pub fn len(&self) -> usize {
        self.drivers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.drivers.is_empty()
    }

    /// The drivers, in insertion order.
    pub fn drivers(&self) -> &[OrcaDriver] {
        &self.drivers
    }

    /// Replaces the actor of every pooled driver's policy — the
    /// certificate-checked fleet-wide rollout: one shared copy of `actor`,
    /// compiled once. Scheduling state is untouched, so the heap invariant
    /// holds across swaps.
    pub fn swap_actor_all(&mut self, actor: Mlp) {
        let actor = Arc::new(actor);
        // `push` pools only drivers that carry a policy: this is every one.
        for policy in self.drivers.iter_mut().filter_map(|d| d.policy.as_mut()) {
            policy.actor = actor.clone();
        }
        if let Some(compiled) = &mut self.compiled {
            compiled.rebind(actor);
        }
    }

    /// Attaches (or detaches) the recorder. The pool is the one place a
    /// decision is recorded: each applied decision, each batch dispatch,
    /// and the simulator's link samples. Records stay
    /// `CANOPY_THREADS`-invariant: the pool dispatches decisions on the
    /// coordinator thread in deterministic order.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// The earliest pending decision across the pool ([`Time::MAX`] when
    /// idle).
    pub fn next_decision(&self) -> Time {
        self.queue.peek().map_or(Time::MAX, |Reverse((t, _))| *t)
    }

    /// Advances the simulator to the earliest pending decision strictly
    /// before `horizon` and dispatches every driver due at that instant
    /// as one batch. Returns `None` without touching the simulator when
    /// no decision is due. This is the single-step API: `Fleet::run`
    /// (`canopy_serve`) calls it flat out and times each batch it returns.
    pub fn dispatch_next(&mut self, sim: &mut Simulator, horizon: Time) -> Option<BatchDispatch> {
        let next = self.next_decision();
        if next >= horizon {
            return None;
        }
        sim.run_until(next);
        // Before the decisions at `next`, so the recorder sees link
        // samples and decisions in sim-time order.
        self.drain_link_samples(sim);
        // Pop everything due at this instant; the heap yields equal-time
        // entries in ascending index order, i.e. insertion order.
        self.batch.due.clear();
        while let Some(&Reverse((t, i))) = self.queue.peek() {
            if t > next {
                break;
            }
            self.queue.pop();
            self.batch.due.push(i);
        }
        let dispatch = self.dispatch_batched(sim);
        for &i in &self.batch.due {
            let nd = self.drivers[i].next_decision;
            if nd < Time::MAX {
                self.queue.push(Reverse((nd, i)));
            }
        }
        if dispatch.decisions > 0 {
            if let Some(recorder) = &self.recorder {
                recorder.borrow_mut().record_batch(&BatchRecord {
                    t_ns: dispatch.at.as_nanos(),
                    size: dispatch.decisions as u64,
                });
            }
        }
        Some(dispatch)
    }

    /// Runs the simulator to `horizon`, dispatching every pooled decision
    /// scheduled strictly before it (ties in insertion order, same-instant
    /// decisions batched), and lands the clock exactly on `horizon`.
    pub fn run_until(&mut self, sim: &mut Simulator, horizon: Time) {
        while self.dispatch_next(sim, horizon).is_some() {}
        sim.run_until(horizon);
        self.drain_link_samples(sim);
    }

    /// Hands the simulator's pending link samples (none unless the host
    /// enabled link sampling) to the attached recorder.
    fn drain_link_samples(&self, sim: &mut Simulator) {
        if let Some(recorder) = &self.recorder {
            let mut rec = recorder.borrow_mut();
            for sample in sim.take_link_samples() {
                rec.record_link(&sample);
            }
        }
    }

    /// One batched dispatch of the drivers in `batch.due`: prepare them in
    /// insertion order, one batched actor/certification pass, apply in
    /// insertion order. The pass covers each distinct state once
    /// ([`CompiledPolicy::decide`]): flows whose states are bitwise equal
    /// share one forward row and one block of certified rows, and each
    /// flow's certificate is still judged against its own windows.
    ///
    /// When a recorder is attached, each decision emits one
    /// [`DecisionRecord`], stamped in simulation time, right after its
    /// driver applies it; [`dispatch_next`](Self::dispatch_next) then
    /// records the dispatch as one [`BatchRecord`].
    fn dispatch_batched(&mut self, sim: &mut Simulator) -> BatchDispatch {
        let DriverPool {
            drivers,
            compiled,
            batch,
            recorder,
            ..
        } = self;
        let BatchBuffers {
            due,
            items,
            distinct,
        } = batch;
        let recorder = recorder.as_ref();
        items.clear();
        for &i in due.iter() {
            if let Some(prepared) = drivers[i].prepare_decision(sim) {
                items.push((i, prepared));
            }
        }
        let at = sim.now();
        let decisions = items.len();
        let Some(compiled) = compiled.as_mut().filter(|_| decisions > 0) else {
            return BatchDispatch { at, decisions };
        };
        let t_ns = at.as_nanos();
        let ctx_of = |j: usize| &items[j].1.ctx;
        compiled.decide(decisions, ctx_of, distinct, |j, action, qc_sat| {
            let (i, prepared) = &items[j];
            let (cwnd, by_agent) = drivers[*i].apply_decision(sim, action, qc_sat);
            let Some(rec) = recorder else { return };
            let state = &prepared.ctx.state;
            rec.borrow_mut().record_decision(&DecisionRecord {
                t_ns,
                flow: drivers[*i].flow.0 as u64,
                state_mean: state.iter().sum::<f64>() / state.len().max(1) as f64,
                state_min: state.iter().copied().fold(f64::INFINITY, f64::min),
                state_max: state.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                action,
                action_clamped: if by_agent {
                    action.clamp(-1.0, 1.0)
                } else {
                    0.0
                },
                cwnd,
                qdelay_ns: prepared.sample.avg_queue_delay.as_nanos(),
                qc_sat,
                fallback: !by_agent,
            });
        });
        BatchDispatch { at, decisions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{Property, PropertyParams};
    use canopy_cc::Cubic;
    use canopy_netsim::{BandwidthTrace, FlowConfig};

    fn link(rate_bps: f64) -> LinkConfig {
        LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("drv", rate_bps),
            Time::from_millis(40),
            1.0,
        )
    }

    fn actor(k: usize, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            &mut rng,
            &[StateLayout::new(k).dim(), 8, 1],
            canopy_nn::Activation::Tanh,
        )
    }

    fn driver_on(link: &LinkConfig, sim: &mut Simulator, cfg: &DriverConfig) -> OrcaDriver {
        let mut flow_cfg = FlowConfig::new(cfg.min_rtt)
            .starting_at(cfg.start)
            .without_samples();
        if let Some(stop) = cfg.stop {
            flow_cfg = flow_cfg.stopping_at(stop);
        }
        let flow = sim.add_flow(flow_cfg, Box::new(Cubic::new()));
        OrcaDriver::new(cfg, link, flow)
    }

    /// A solo learned flow: a pool of one.
    fn pool_of_one(
        link: &LinkConfig,
        sim: &mut Simulator,
        cfg: &DriverConfig,
        policy: DriverPolicy,
    ) -> DriverPool {
        let mut pool = DriverPool::new();
        pool.push(driver_on(link, sim, cfg).with_policy(policy));
        pool
    }

    #[test]
    fn decisions_fire_strictly_before_the_horizon() {
        // MI = 40 ms; a 2 s horizon is an exact multiple, so the decision
        // scheduled at exactly 2 s must NOT fire: 49 decisions, not 50.
        let link = link(24e6);
        let cfg = DriverConfig::new(Time::from_millis(40), 3);
        let mut sim = Simulator::new(link.clone());
        let mut pool = pool_of_one(&link, &mut sim, &cfg, DriverPolicy::new(actor(3, 1)));
        pool.run_until(&mut sim, Time::from_secs(2));
        assert_eq!(pool.drivers()[0].decisions(), 49);
        assert_eq!(sim.now(), Time::from_secs(2));

        // One nanosecond past the multiple, the boundary decision fires.
        let mut sim2 = Simulator::new(link.clone());
        let mut pool2 = pool_of_one(&link, &mut sim2, &cfg, DriverPolicy::new(actor(3, 1)));
        pool2.run_until(&mut sim2, Time::from_secs(2) + Time::from_nanos(1));
        assert_eq!(pool2.drivers()[0].decisions(), 50);
    }

    #[test]
    fn departed_driver_goes_idle() {
        let link = link(24e6);
        let cfg = DriverConfig {
            stop: Some(Time::from_millis(200)),
            ..DriverConfig::new(Time::from_millis(40), 3)
        };
        let mut sim = Simulator::new(link.clone());
        let mut pool = pool_of_one(&link, &mut sim, &cfg, DriverPolicy::new(actor(3, 2)));
        pool.run_until(&mut sim, Time::from_secs(1));
        // Decisions at 40/80/120/160 ms fire; the one at 200 ms hits the
        // departure and deactivates the driver.
        let d = &pool.drivers()[0];
        assert_eq!(d.decisions(), 4);
        assert_eq!(d.next_decision(), Time::MAX);
        assert_eq!(pool.next_decision(), Time::MAX);
        assert_eq!(sim.now(), Time::from_secs(1));
    }

    #[test]
    fn pool_dispatches_in_insertion_order_and_matches_solo_runs() {
        // Two identical agent flows on their own links must behave exactly
        // like one (per-flow state is fully owned by each driver).
        let run_pair = || {
            let link = link(48e6);
            let mut sim = Simulator::new(link.clone());
            let mut pool = DriverPool::new();
            for i in 0..2 {
                let cfg = DriverConfig::new(Time::from_millis(40), 3)
                    .starting_at(Time::from_millis(100 * i));
                let d =
                    driver_on(&link, &mut sim, &cfg).with_policy(DriverPolicy::new(actor(3, 7)));
                pool.push(d);
            }
            pool.run_until(&mut sim, Time::from_secs(2));
            let stats: Vec<u64> = pool
                .drivers()
                .iter()
                .map(|d| sim.flow_stats(d.flow()).acked_packets)
                .collect();
            (stats, pool.drivers()[0].decisions())
        };
        assert_eq!(run_pair(), run_pair());
    }

    #[test]
    fn monitored_policies_record_one_qc_stream() {
        let link = link(12e6);
        let cfg = DriverConfig::new(Time::from_millis(40), 3);
        let properties = Property::shallow_set(&PropertyParams::default());
        let run = |monitor: FallbackController| {
            let mut sim = Simulator::new(link.clone());
            let policy = DriverPolicy::new(actor(3, 3)).with_fallback(monitor);
            let mut pool = pool_of_one(&link, &mut sim, &cfg, policy);
            pool.run_until(&mut sim, Time::from_secs(1));
            pool.drivers.remove(0)
        };
        // An arbitrating monitor reports its rate; the unreachable
        // threshold benches every decision.
        let fb = run(FallbackController::new(properties.clone(), 2.0, 4));
        assert!(fb.decisions() > 0);
        assert_eq!(fb.fallback_qc_values().len() as u64, fb.decisions());
        assert_eq!(fb.fallback_rate(), Some(1.0));
        assert_eq!(fb.fallback_engagements(), Some(1));
        // An observing monitor certifies the same decisions the same way
        // and reports no fallback at all.
        let observed = run(FallbackController::observing(properties, 4));
        assert_eq!(
            observed.fallback_qc_values().len() as u64,
            observed.decisions()
        );
        assert_eq!(observed.fallback_rate(), None);
        assert_eq!(observed.fallback_engagements(), None);
        let first = |d: &OrcaDriver| d.fallback_qc_values()[0].to_bits();
        assert_eq!(first(&fb), first(&observed));
    }

    /// Seven contexts of one policy over four distinct states — one a
    /// state that differs from another only by the sign of a zero — with
    /// duplicates that differ in their windows. The forward pass and the
    /// plan each see the four states, and every context's action and
    /// aggregate equal its own `Mlp::forward` and `Verifier::certify_all`
    /// bit for bit. Mutation-checked: handing each context the
    /// neighbouring representative's action and rows fails this test, and
    /// so does handing them to the repeated contexts alone.
    #[test]
    fn each_distinct_state_is_forwarded_and_certified_once() {
        let layout = StateLayout::new(3);
        let net = actor(3, 9);
        let mut states: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                (0..layout.dim())
                    .map(|i| ((9 * s + 7 * i) % 11) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let mut signed = states[0].clone();
        assert_eq!(signed[0].to_bits(), 0);
        signed[0] = -0.0;
        states.push(signed);
        let ctxs: Vec<StepContext> = [2, 0, 3, 2, 1, 0, 2]
            .iter()
            .enumerate()
            .map(|(j, &s)| StepContext {
                state: states[s].clone(),
                cwnd_tcp: 10.0 + 7.0 * j as f64,
                cwnd_prev: 12.0 + 5.0 * j as f64,
            })
            .collect();
        let props = Property::shallow_set(&PropertyParams::default());
        for monitor in [None, Some(FallbackController::observing(props, 4))] {
            let mut policy = DriverPolicy::new(net.clone());
            if let Some(m) = &monitor {
                policy = policy.with_fallback(m.clone());
            }
            let mut compiled = CompiledPolicy::compile(&policy, layout);
            let mut got = Vec::new();
            let mut distinct = DistinctStates::default();
            compiled.decide(
                ctxs.len(),
                |j| &ctxs[j],
                &mut distinct,
                |j, a, agg| got.push((j, a.to_bits(), agg.map(f64::to_bits))),
            );
            // The forward staged one row per distinct state, and
            // certification one per distinct state, property and component.
            assert_eq!(compiled.forward.staged().0.rows(), 4);
            if let Some(m) = &monitor {
                let staged = compiled.scratch[0].staged().0.rows();
                assert_eq!(staged, 4 * m.properties().len() * 4);
            }
            let want: Vec<_> = ctxs
                .iter()
                .enumerate()
                .map(|(j, ctx)| {
                    let qc = monitor.as_ref().map(|m| {
                        m.verifier()
                            .certify_all(&net, m.properties(), layout, ctx)
                            .1
                    });
                    (
                        j,
                        net.forward(&ctx.state)[0].to_bits(),
                        qc.map(f64::to_bits),
                    )
                })
                .collect();
            assert_eq!(got, want);
            // Contexts 0 and 3 share a state, not their windows.
            if monitor.is_some() {
                assert_ne!(got[0].2, got[3].2);
            }
        }
    }

    #[test]
    fn a_pool_compiles_one_policy_by_exact_equality() {
        let link = link(24e6);
        let cfg = DriverConfig::new(Time::from_millis(40), 3);
        let mut sim = Simulator::new(link.clone());
        let props = || Property::shallow_set(&PropertyParams::default());
        let monitored = |net: Mlp| {
            DriverPolicy::new(net).with_fallback(FallbackController::new(props(), 0.5, 4))
        };
        let mut pool = DriverPool::new();

        // Equal actors built separately share the pool's copy of the
        // weights, and an observing monitor over the same config compiles
        // alike: the threshold is the driver's, not the pool's.
        let observing =
            DriverPolicy::new(actor(3, 5)).with_fallback(FallbackController::observing(props(), 4));
        for policy in [monitored(actor(3, 5)), monitored(actor(3, 5)), observing] {
            pool.push(driver_on(&link, &mut sim, &cfg).with_policy(policy));
        }
        let shared = |d: &OrcaDriver| Arc::as_ptr(&d.policy().expect("pooled").actor);
        assert!(pool
            .drivers()
            .iter()
            .all(|d| shared(d) == shared(&pool.drivers()[0])));
        assert_eq!(pool.drivers()[2].fallback_rate(), None);

        // Equality is exact: an actor one weight bit away, and an equal
        // actor under another monitor config, compile otherwise.
        let compiled = &pool.compiled.as_ref().expect("compiled on push").policy;
        let mut flipped = actor(3, 5);
        let w = flipped.layers_mut()[0].weights.get_mut(0, 0);
        *w = f64::from_bits(w.to_bits() ^ 1);
        assert!(!monitored(flipped).compiles_like(compiled));
        let observing = FallbackController::observing(props(), 3);
        let other = DriverPolicy::new(actor(3, 5)).with_fallback(observing);
        assert!(!other.compiles_like(compiled));
        assert!(!DriverPolicy::new(actor(3, 5)).compiles_like(compiled));

        // A swap repoints every driver at one new copy and re-targets the
        // compiled policy at it.
        pool.swap_actor_all(actor(3, 6));
        let compiled = &pool.compiled.as_ref().expect("still compiled").policy;
        assert!(pool
            .drivers()
            .iter()
            .all(|d| shared(d) == Arc::as_ptr(&compiled.actor)));
        assert!(monitored(actor(3, 6)).compiles_like(compiled));
    }
}
