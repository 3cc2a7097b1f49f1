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
//! [`DriverPool`]. A solo learned flow is a pool of one.
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
//! [`apply_agent`](OrcaDriver::apply_agent)/[`observe`](OrcaDriver::observe)
//! primitives directly.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use canopy_absint::{IbpBatchScratch, PreparedMlp};
use canopy_netsim::{FlowId, LinkConfig, MonitorSample, Simulator, Time};
use canopy_nn::Mlp;
use canopy_telemetry::{BatchRecord, DecisionRecord, SharedRecorder, SpanRecord, SpanStage};

use crate::env::NoiseConfig;
use crate::obs::{Normalizer, Observation, StateBuilder, StateLayout};
use crate::orca::f_cwnd;
use crate::plan::CertPlan;
use crate::runtime::FallbackController;
use crate::verifier::StepContext;

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
/// The actor is shared (`Arc`): cloning a policy, or pooling drivers whose
/// policies are equal, keeps one copy of the weights.
#[derive(Clone, Debug)]
pub struct DriverPolicy {
    actor: Arc<Mlp>,
    monitor: Option<FallbackController>,
    /// [`fingerprint`] of `actor`, computed when the actor is set, so
    /// cloned policies never re-hash.
    actor_key: u64,
}

/// A hash of an actor's architecture and exact parameter bits. The pool
/// looks compiled policies up by it and confirms a hit by exact
/// comparison ([`CompiledPolicy::matches`]).
fn fingerprint(actor: &Mlp) -> u64 {
    let mut h = DefaultHasher::new();
    for layer in actor.layers() {
        layer.fan_in().hash(&mut h);
        layer.fan_out().hash(&mut h);
        std::mem::discriminant(&layer.activation).hash(&mut h);
        for p in layer.weights.as_slice().iter().chain(&layer.bias) {
            p.to_bits().hash(&mut h);
        }
    }
    h.finish()
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
            actor_key: fingerprint(&actor),
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
}

/// The observation half of one decision, produced by
/// [`OrcaDriver::prepare_decision`]: the drained monitor sample and the
/// decision-point context (state *after* the history push). Feeding it
/// back through [`OrcaDriver::apply_decision`] with the computed action
/// completes the decision.
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
    recorder: Option<SharedRecorder>,
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
            recorder: None,
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

    /// Replaces the policy's actor in place — the model hot-swap path.
    /// Scheduling state is untouched. (A pooled driver is swapped through
    /// [`DriverPool::swap_actor`], which also re-interns its compiled
    /// policy.)
    ///
    /// # Panics
    ///
    /// Panics if no policy is attached.
    pub fn swap_actor(&mut self, actor: Mlp) {
        self.adopt_actor(&DriverPolicy::new(actor));
    }

    /// Takes over `donor`'s (shared, already hashed) actor.
    fn adopt_actor(&mut self, donor: &DriverPolicy) {
        let policy = self
            .policy
            .as_mut()
            .expect("swap_actor requires an attached policy");
        policy.actor = donor.actor.clone();
        policy.actor_key = donor.actor_key;
    }

    /// Attaches or detaches the telemetry recorder in place: every
    /// decision (self-driven or training-loop) emits one [`DecisionRecord`]
    /// timestamped in simulation time. Recording only reads decision state,
    /// so an inert recorder leaves the run bitwise unchanged.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        self.recorder = recorder;
    }

    /// Emits one decision record when a recorder is attached. `t_ns` is
    /// the decision instant, `state` the vector the policy acted on,
    /// `sample` the monitor sample paired with the decision, `action` the
    /// raw actor output, `applied` the action actually enforced through
    /// Eq. (1) (0 on fallback), `cwnd` the resulting window.
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &self,
        t_ns: u64,
        state: &[f64],
        sample: &MonitorSample,
        action: f64,
        applied: f64,
        cwnd: f64,
        qc_sat: Option<f64>,
        fallback: bool,
    ) {
        let Some(recorder) = &self.recorder else {
            return;
        };
        let n = state.len().max(1) as f64;
        let record = DecisionRecord {
            t_ns,
            flow: self.flow.0 as u64,
            state_mean: state.iter().sum::<f64>() / n,
            state_min: state.iter().copied().fold(f64::INFINITY, f64::min),
            state_max: state.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            action,
            action_clamped: applied.clamp(-1.0, 1.0),
            cwnd,
            qdelay_ns: sample.avg_queue_delay.as_nanos(),
            qc_sat,
            fallback,
        };
        recorder.borrow_mut().record_decision(&record);
    }

    /// Whether a telemetry recorder is attached.
    pub fn has_recorder(&self) -> bool {
        self.recorder.is_some()
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
    pub fn apply_agent(&mut self, sim: &mut Simulator, action: f64) -> f64 {
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
    pub fn apply_kernel(&mut self, sim: &mut Simulator) -> f64 {
        let cwnd = sim.cwnd(self.flow);
        self.prev_action = 0.0;
        self.prev_cwnd = cwnd;
        cwnd
    }

    /// Resets the episode state (history, bookkeeping, telemetry) while
    /// deterministically **continuing** the noise stream, exactly as
    /// [`CcEnv::reset`](crate::env::CcEnv::reset) requires.
    pub fn reset_episode(&mut self) {
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
    /// enforces it. `action` is the actor output for `prepared.ctx.state`;
    /// `qc_sat` carries the certificate aggregate when the policy has a
    /// monitor (the stream and the monitor's bookkeeping are updated here,
    /// via [`FallbackController::arbitrate`]). A non-finite `action` never
    /// reaches the agent path: the interval runs on the kernel and is
    /// recorded as a fallback.
    ///
    /// # Panics
    ///
    /// Panics if no policy is attached, or if a monitored policy's
    /// aggregate is missing.
    pub fn apply_decision(
        &mut self,
        sim: &mut Simulator,
        prepared: &PreparedDecision,
        action: f64,
        qc_sat: Option<f64>,
    ) {
        let policy = self
            .policy
            .as_mut()
            .expect("self-driving decisions require a policy");
        let (qc_sat, use_agent) = match policy.monitor.as_mut() {
            Some(monitor) => {
                let agg = qc_sat.expect("monitor attached but no aggregate was supplied");
                self.fallback_qc.push(agg);
                (Some(agg), monitor.arbitrate(agg).use_agent)
            }
            None => (None, true),
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
        if self.recorder.is_some() {
            let applied = if use_agent { action } else { 0.0 };
            self.record_decision(
                sim.now().as_nanos(),
                &prepared.ctx.state,
                &prepared.sample,
                action,
                applied,
                cwnd,
                qc_sat,
                !use_agent,
            );
        }
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
    /// Distinct policy groups the batch split into (each group paid one
    /// batched actor pass and at most one batched certification pass).
    pub groups: usize,
}

/// One interned policy: everything the pool derives from a policy that
/// does not depend on the decision, shared by every driver whose policy is
/// exactly equal — one copy of the actor, its transposed weights (which
/// serve the forward pass and batched IBP alike), the monitor's
/// [`CertPlan`], and the scratch all of them reuse. A monitor's threshold
/// and counters are per driver, so observing and arbitrating monitors over
/// one `(Verifier, properties)` share an entry.
#[derive(Debug)]
struct CompiledPolicy {
    key: u64,
    /// Drivers currently pointing at this entry.
    users: usize,
    actor: Arc<Mlp>,
    net: PreparedMlp,
    /// The monitor's certification pass, when the policy has a monitor.
    plan: Option<CertPlan>,
    /// `[0]` stages the forward pass and sequential certification; the
    /// certification fan-out grows one more per worker.
    scratch: Vec<IbpBatchScratch>,
}

impl CompiledPolicy {
    /// Compiles `policy`; the plan is built only when it has a monitor.
    fn compile(key: u64, policy: &DriverPolicy, layout: StateLayout) -> CompiledPolicy {
        let net = PreparedMlp::new(&policy.actor);
        let plan = policy
            .monitor
            .as_ref()
            .map(|m| CertPlan::compile(*m.verifier(), &net, m.properties(), layout));
        CompiledPolicy {
            key,
            users: 1,
            actor: policy.actor.clone(),
            net,
            plan,
            scratch: vec![IbpBatchScratch::new()],
        }
    }

    /// Whether this entry was compiled from a policy exactly equal to
    /// `policy` up to its monitor's threshold (never called on the
    /// dispatch path).
    fn matches(&self, policy: &DriverPolicy) -> bool {
        let compiled = self.plan.as_ref().map(|p| (p.verifier(), p.properties()));
        let wanted = policy
            .monitor
            .as_ref()
            .map(|m| (m.verifier(), m.properties()));
        same_actor(&self.actor, &policy.actor) && compiled == wanted
    }
}

/// The pool's intern table of compiled policies.
#[derive(Debug, Default)]
struct PolicyTable {
    /// Slots are stable while an entry has users, and reused afterwards.
    entries: Vec<Option<CompiledPolicy>>,
}

impl PolicyTable {
    /// Finds or compiles the entry for `policy` and returns its slot,
    /// pointing the policy at the entry's copy of the actor. `key` only
    /// narrows the search: a hit is confirmed by exact comparison, so two
    /// policies that collide on it still get separate entries.
    fn intern(&mut self, key: u64, policy: &mut DriverPolicy, layout: StateLayout) -> usize {
        let hit = self.entries.iter_mut().enumerate().find_map(|(slot, e)| {
            let e = e.as_mut().filter(|e| e.key == key && e.matches(policy))?;
            Some((slot, e))
        });
        if let Some((slot, entry)) = hit {
            entry.users += 1;
            policy.actor = entry.actor.clone();
            return slot;
        }
        let compiled = Some(CompiledPolicy::compile(key, policy, layout));
        match self.entries.iter().position(Option::is_none) {
            Some(slot) => {
                self.entries[slot] = compiled;
                slot
            }
            None => {
                self.entries.push(compiled);
                self.entries.len() - 1
            }
        }
    }

    /// Drops one user of `slot`, and the entry with its last user.
    fn release(&mut self, slot: usize) {
        let entry = self.entries[slot].as_mut().expect("released a live slot");
        entry.users -= 1;
        if entry.users == 0 {
            self.entries[slot] = None;
        }
    }
}

/// Multiplexes any number of self-driving drivers over one simulator by
/// next-decision time: the pool repeatedly runs the simulator to the
/// earliest pending decision (a min-heap, not an `O(N)` scan) and
/// dispatches every driver due at that instant in insertion order (the
/// deterministic tie-break).
///
/// Policies are **interned**: [`push`](Self::push) and
/// [`swap_actor`](Self::swap_actor) look the driver's policy up (by
/// fingerprint, confirmed by exact comparison) in a table of compiled
/// policies — shared actor, resident transposed weights, certification
/// plans and scratch — compiling it on first sight and dropping it with
/// its last driver. Nothing decision-independent is rebuilt per dispatch.
///
/// Same-instant decisions are **batched**: the pool prepares every due
/// driver, groups the prepared states by compiled policy, runs one batched
/// actor pass per group (and one [`CertPlan`] pass per group whose policy
/// has a monitor), then applies the results in insertion order. The
/// batched paths are bitwise identical to the per-sample paths and
/// same-instant decisions are independent across flows, so a dispatch is
/// bitwise identical to deciding flow by flow with per-call
/// `Verifier::certify_all` and `Mlp::forward` — the oracle
/// `tests/batched_pool.rs` rebuilds from the driver's public primitives.
#[derive(Debug)]
pub struct DriverPool {
    drivers: Vec<OrcaDriver>,
    /// `slots[i]` is driver `i`'s entry in `table`.
    slots: Vec<usize>,
    table: PolicyTable,
    /// Min-heap of `(next_decision, index)` with exactly one live entry
    /// per active driver — the pool is the only mutator of pooled
    /// drivers' schedules, so entries never go stale. `Reverse` pops
    /// ascending `(time, index)`, which *is* the insertion-order
    /// tie-break for equal times.
    queue: BinaryHeap<Reverse<(Time, usize)>>,
    recorder: Option<SharedRecorder>,
    /// Per-dispatch working set, reused across dispatches.
    batch: BatchBuffers,
    /// Batched dispatches executed so far — the span profiler's batch
    /// sequence number (deterministic: one per non-empty dispatch).
    dispatches: u64,
}

/// What one batched dispatch fills in: the prepared decisions, the
/// distinct table slots among them (first-seen order), the current
/// group's positions in `items`, and the per-item results.
#[derive(Debug, Default)]
struct BatchBuffers {
    items: Vec<(usize, PreparedDecision)>,
    groups: Vec<usize>,
    members: Vec<usize>,
    actions: Vec<f64>,
    aggs: Vec<Option<f64>>,
}

impl Default for DriverPool {
    fn default() -> DriverPool {
        DriverPool::new()
    }
}

/// Pools drivers in iteration order — how a harness takes over
/// [`World::drivers`](crate::world::World::drivers).
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
            slots: Vec::new(),
            table: PolicyTable::default(),
            queue: BinaryHeap::new(),
            recorder: None,
            batch: BatchBuffers::default(),
            dispatches: 0,
        }
    }

    /// Adds a driver (it must carry a policy) and returns its index. The
    /// policy is interned: if an exactly equal one is already pooled, the
    /// driver shares its compiled form and its copy of the actor.
    pub fn push(&mut self, mut driver: OrcaDriver) -> usize {
        let layout = driver.layout;
        let policy = driver
            .policy
            .as_mut()
            .expect("pooled drivers must be self-driving (attach a DriverPolicy)");
        self.slots
            .push(self.table.intern(policy.actor_key, policy, layout));
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

    /// How many distinct compiled policies the pool currently holds.
    pub fn compiled_policies(&self) -> usize {
        self.table.entries.iter().flatten().count()
    }

    /// Replaces the actor of driver `index`'s policy in place — the
    /// certificate-checked hot-swap path. Scheduling state is untouched,
    /// so the heap invariant holds across swaps; the driver moves to the
    /// new policy's compiled entry, and the old entry is dropped with its
    /// last driver.
    pub fn swap_actor(&mut self, index: usize, actor: Mlp) {
        self.adopt_actor(index..index + 1, actor);
    }

    /// [`swap_actor`](Self::swap_actor) for every pooled driver at once —
    /// the fleet-wide rollout: one shared copy of `actor`, hashed once,
    /// compiled once per distinct monitor config.
    pub fn swap_actor_all(&mut self, actor: Mlp) {
        self.adopt_actor(0..self.drivers.len(), actor);
    }

    fn adopt_actor(&mut self, indices: Range<usize>, actor: Mlp) {
        let donor = DriverPolicy::new(actor);
        for i in indices {
            let driver = &mut self.drivers[i];
            driver.adopt_actor(&donor);
            let policy = driver.policy.as_mut().expect("checked by adopt_actor");
            let slot = self.table.intern(policy.actor_key, policy, driver.layout);
            self.table
                .release(std::mem::replace(&mut self.slots[i], slot));
        }
    }

    /// Attaches (or detaches) one shared recorder on every pooled driver
    /// and on the pool itself (batch-dispatch records). Records stay
    /// `CANOPY_THREADS`-invariant: the pool dispatches decisions on the
    /// coordinator thread in deterministic order.
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        for driver in &mut self.drivers {
            driver.set_recorder(recorder.clone());
        }
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
    /// no decision is due — the single-step API `canopy_serve` paces its
    /// wall-clock loop around.
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
        let mut due = Vec::new();
        while let Some(&Reverse((t, i))) = self.queue.peek() {
            if t > next {
                break;
            }
            self.queue.pop();
            due.push(i);
        }
        let dispatch = self.dispatch_batched(sim, &due);
        for &i in &due {
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
                    groups: dispatch.groups as u64,
                });
            }
        }
        Some(dispatch)
    }

    /// Runs the simulator to `horizon`, dispatching every pooled decision
    /// scheduled strictly before it (ties in insertion order, same-instant
    /// decisions batched per policy group), and lands the clock exactly on
    /// `horizon`.
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

    /// One batched dispatch: prepare all due drivers in insertion order,
    /// group by compiled policy, one batched actor/certification pass per
    /// group, apply in insertion order.
    ///
    /// When a recorder is attached, the span profiler emits one
    /// [`SpanRecord`] per hot-path stage (a `dispatch` parent plus
    /// `prepare`/`group`/`forward`/`certify`/`apply` children). Span
    /// *structure* is deterministic; wall-clock durations are measured
    /// only when the recorder asks for them (`wants_span_timing`) and
    /// recorded as 0 otherwise, so deterministic artifacts never carry
    /// timing bytes.
    fn dispatch_batched(&mut self, sim: &mut Simulator, due: &[usize]) -> BatchDispatch {
        let DriverPool {
            drivers,
            slots,
            table,
            batch,
            recorder,
            dispatches,
            ..
        } = self;
        let BatchBuffers {
            items,
            groups,
            members,
            actions,
            aggs,
        } = batch;
        let timing = recorder
            .as_ref()
            .is_some_and(|r| r.borrow().wants_span_timing());
        let span_ns = |a: Option<std::time::Instant>, b: Option<std::time::Instant>| -> u64 {
            match (a, b) {
                (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                _ => 0,
            }
        };
        let t_start = timing.then(std::time::Instant::now);
        items.clear();
        for &i in due {
            if let Some(prepared) = drivers[i].prepare_decision(sim) {
                items.push((i, prepared));
            }
        }
        let t_prepared = timing.then(std::time::Instant::now);
        if items.is_empty() {
            return BatchDispatch {
                at: sim.now(),
                decisions: 0,
                groups: 0,
            };
        }
        // The distinct compiled policies among the items, in first-seen
        // order. A linear scan beats a hash map at realistic group counts
        // (fleets share a handful of policies).
        groups.clear();
        for (i, _) in items.iter() {
            if !groups.contains(&slots[*i]) {
                groups.push(slots[*i]);
            }
        }
        let t_grouped = timing.then(std::time::Instant::now);
        actions.clear();
        actions.resize(items.len(), 0.0);
        aggs.clear();
        aggs.resize(items.len(), None);
        let mut forward_ns = 0u64;
        let mut certify_ns = 0u64;
        let mut certify_items = 0u64;
        for &slot in groups.iter() {
            let g_start = timing.then(std::time::Instant::now);
            members.clear();
            members.extend((0..items.len()).filter(|&pos| slots[items[pos].0] == slot));
            let ctx_of = |j: usize| &items[members[j]].1.ctx;
            let compiled = table.entries[slot]
                .as_mut()
                .expect("pooled drivers point at live entries");
            let CompiledPolicy {
                actor,
                net,
                plan,
                scratch,
                ..
            } = compiled;
            let (states, _) = scratch[0].stage(members.len(), net.input_dim());
            for j in 0..members.len() {
                states.set_row(j, &ctx_of(j).state);
            }
            let out = net.forward_staged(&mut scratch[0]);
            for (j, &pos) in members.iter().enumerate() {
                actions[pos] = out.get(j, 0);
            }
            let g_forwarded = timing.then(std::time::Instant::now);
            forward_ns += span_ns(g_start, g_forwarded);
            if let Some(plan) = plan {
                plan.run(net, actor, members.len(), |j| &ctx_of(j).state, scratch);
                for (j, &pos) in members.iter().enumerate() {
                    aggs[pos] = Some(plan.aggregate(j, ctx_of(j), || actions[pos]));
                }
                certify_items += members.len() as u64;
            }
            certify_ns += span_ns(g_forwarded, timing.then(std::time::Instant::now));
        }
        let t_certified = timing.then(std::time::Instant::now);
        for (pos, (i, prepared)) in items.iter().enumerate() {
            drivers[*i].apply_decision(sim, prepared, actions[pos], aggs[pos]);
        }
        let dispatch = BatchDispatch {
            at: sim.now(),
            decisions: items.len(),
            groups: groups.len(),
        };
        if let Some(rec) = recorder {
            let t_end = timing.then(std::time::Instant::now);
            let t_ns = dispatch.at.as_nanos();
            let batch = *dispatches;
            let stages: [(SpanStage, u64, u64); 6] = [
                (
                    SpanStage::Dispatch,
                    items.len() as u64,
                    span_ns(t_start, t_end),
                ),
                (
                    SpanStage::Prepare,
                    due.len() as u64,
                    span_ns(t_start, t_prepared),
                ),
                (
                    SpanStage::Group,
                    items.len() as u64,
                    span_ns(t_prepared, t_grouped),
                ),
                (SpanStage::Forward, items.len() as u64, forward_ns),
                (SpanStage::Certify, certify_items, certify_ns),
                (
                    SpanStage::Apply,
                    items.len() as u64,
                    span_ns(t_certified, t_end),
                ),
            ];
            let mut rec = rec.borrow_mut();
            for (stage, items, dur_ns) in stages {
                rec.record_span(&SpanRecord {
                    t_ns,
                    batch,
                    stage,
                    items,
                    dur_ns,
                });
            }
        }
        *dispatches += 1;
        dispatch
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

    #[test]
    fn interning_shares_equal_policies_and_never_aliases() {
        let layout = StateLayout::new(3);
        let props = || Property::shallow_set(&PropertyParams::default());
        let monitored = |net: Mlp| {
            DriverPolicy::new(net).with_fallback(FallbackController::new(props(), 0.5, 4))
        };
        let mut table = PolicyTable::default();

        // Equal actors built separately share one entry, and from then on
        // one copy of the weights.
        let (mut a, mut b) = (monitored(actor(3, 5)), monitored(actor(3, 5)));
        assert!(!Arc::ptr_eq(&a.actor, &b.actor));
        assert_eq!(a.actor_key, b.actor_key);
        let slot = table.intern(a.actor_key, &mut a, layout);
        assert_eq!(table.intern(b.actor_key, &mut b, layout), slot);
        assert!(Arc::ptr_eq(&a.actor, &b.actor));

        // The threshold is the driver's, not the entry's: an observing
        // monitor over the same config shares it.
        let observing = FallbackController::observing(props(), 4);
        let mut e = DriverPolicy::new(actor(3, 5)).with_fallback(observing);
        assert_eq!(table.intern(e.actor_key, &mut e, layout), slot);
        table.release(slot);

        // The key only narrows the search. Forced onto `a`'s key, an actor
        // one weight bit away, and an equal actor under another monitor
        // config, still get their own entries.
        let mut flipped = actor(3, 5);
        let w = flipped.layers_mut()[0].weights.get_mut(0, 0);
        *w = f64::from_bits(w.to_bits() ^ 1);
        let mut c = monitored(flipped);
        let observing = FallbackController::observing(props(), 3);
        let mut d = DriverPolicy::new(actor(3, 5)).with_fallback(observing);
        let slot_c = table.intern(a.actor_key, &mut c, layout);
        let slot_d = table.intern(a.actor_key, &mut d, layout);
        assert!(slot_c != slot && slot_d != slot && slot_c != slot_d);
        assert!(!Arc::ptr_eq(&a.actor, &c.actor));
        assert!(!Arc::ptr_eq(&a.actor, &d.actor));

        // An entry goes with its last user, and its slot is reused.
        table.release(slot);
        assert!(table.entries[slot].is_some());
        table.release(slot);
        assert!(table.entries[slot].is_none());
        let mut plain = DriverPolicy::new(actor(3, 6));
        assert_eq!(table.intern(plain.actor_key, &mut plain, layout), slot);
        assert!(table.entries[slot].as_ref().unwrap().plan.is_none());
    }
}
