//! Fleet-scale serving: hundreds-to-thousands of self-driving flows on
//! one simulator, paced against the wall clock.
//!
//! The training and evaluation harnesses ask "what does this policy do to
//! the network?"; this crate asks the deployment question instead: **can
//! one process sustain an entire fleet's decision loops in real time?** A
//! [`Fleet`] describes its flows (on a dumbbell or an incast tree) to
//! [`canopy_core::world`] like every other harness, and drives the
//! resulting simulator and per-flow drivers through the [`DriverPool`]'s
//! batched dispatch —
//! flows sharing one policy that decide at the same instant cost one
//! batched actor pass, not N scalar ones. [`Fleet::run`] measures
//! sustained decisions/sec and
//! per-decision latency quantiles; [`Fleet::run_realtime`] additionally
//! paces dispatch so simulation time never runs ahead of the wall clock,
//! which is how a live serving process would tick.
//!
//! Model hot-swap is certificate-gated: [`Fleet::promote`] certifies the
//! candidate actor against every flow's *current* decision context (one
//! batched [`Verifier::certify_all_many`] pass) and swaps only if every
//! aggregate clears the gate's threshold — a rollout never replaces a
//! policy with one that is uncertified on live state.
//!
//! Live observability rides on the same recorder: [`Fleet::attach_live`]
//! wires a [`FlightRecorder`] with an enabled live layer into the pool,
//! so runs stream [`MetricsSnapshot`](canopy_telemetry::MetricsSnapshot)s
//! on the sim-time cadence, the SLO watchdog appends to the alert ledger,
//! and — the degradation hook — [`Fleet::promote`] is **vetoed** while
//! any SLO breach is active: a fleet that is currently violating its
//! objectives never hot-swaps models until the breach clears.
//!
//! Wall-clock readings appear **only** in the returned [`FleetReport`]
//! and in the live layer's wall-latency SLO feed; the simulation itself
//! stays bitwise deterministic (pacing changes when work happens, never
//! what it computes).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use canopy_core::driver::{DriverPolicy, DriverPool};
use canopy_core::obs::StateLayout;
use canopy_core::property::Property;
use canopy_core::runtime::FallbackController;
use canopy_core::verifier::{StepContext, Verifier};
use canopy_core::world::{self, Controller, FlowSpec};
use canopy_netsim::{BandwidthTrace, LinkConfig, Simulator, Time, Topology};
use canopy_nn::Mlp;
use canopy_telemetry::{FlightRecorder, LogHistogram, SharedRecorder};

/// The network the fleet runs over.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FleetTopology {
    /// All flows share one bottleneck link.
    Dumbbell {
        /// Bottleneck rate, bits/second.
        rate_bps: f64,
    },
    /// `fan_in` leaf links converging on one root; flow `i` enters
    /// through leaf `i % fan_in`. Each driver is normalised by its own
    /// flow's bottleneck like everywhere else — the slower of its leaf
    /// and the root — not by the root regardless.
    Incast {
        /// Root rate, bits/second.
        root_bps: f64,
        /// Per-leaf rate, bits/second.
        leaf_bps: f64,
        /// Number of leaf links.
        fan_in: usize,
    },
}

/// Per-flow runtime certificate monitoring: when set on a
/// [`FleetConfig`], every pooled driver gets a
/// [`FallbackController`] built from these parameters, so each decision
/// carries a `QC_sat` aggregate and engages the Cubic fallback when the
/// aggregate falls below `threshold`. A threshold above 1.0 can never be
/// met, which makes it a deterministic breach generator for SLO drills.
#[derive(Clone, Debug)]
pub struct QcMonitorConfig {
    /// Properties certified on every live decision.
    pub properties: Vec<Property>,
    /// Minimum acceptable `QC_sat`; below it the fallback engages.
    pub threshold: f64,
    /// Verifier split count.
    pub n_components: usize,
}

/// Static configuration of a [`Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of self-driving flows.
    pub flows: usize,
    /// The network they share.
    pub topology: FleetTopology,
    /// Propagation RTT of every flow (also the normalizer's anchor).
    pub min_rtt: Time,
    /// History depth `k` (must match the actor's input layout).
    pub k: usize,
    /// Arrival spacing between consecutive flows. [`Time::ZERO`] starts
    /// everyone together, aligning all decision instants — the maximal
    /// batching (and maximal load) regime.
    pub stagger: Time,
    /// Optional per-flow runtime certificate monitor (QC + fallback).
    pub qc_monitor: Option<QcMonitorConfig>,
}

impl FleetConfig {
    /// A dumbbell fleet with a 20 ms RTT and synchronized arrivals.
    pub fn dumbbell(flows: usize, rate_bps: f64, k: usize) -> FleetConfig {
        FleetConfig {
            flows,
            topology: FleetTopology::Dumbbell { rate_bps },
            min_rtt: Time::from_millis(20),
            k,
            stagger: Time::ZERO,
            qc_monitor: None,
        }
    }

    /// An incast fleet with a 20 ms RTT and synchronized arrivals.
    pub fn incast(
        flows: usize,
        root_bps: f64,
        leaf_bps: f64,
        fan_in: usize,
        k: usize,
    ) -> FleetConfig {
        FleetConfig {
            flows,
            topology: FleetTopology::Incast {
                root_bps,
                leaf_bps,
                fan_in,
            },
            min_rtt: Time::from_millis(20),
            k,
            stagger: Time::ZERO,
            qc_monitor: None,
        }
    }

    /// Sets the arrival spacing.
    pub fn with_stagger(mut self, stagger: Time) -> FleetConfig {
        self.stagger = stagger;
        self
    }

    /// Enables per-flow runtime certificate monitoring with fallback.
    pub fn with_qc_monitor(mut self, monitor: QcMonitorConfig) -> FleetConfig {
        self.qc_monitor = Some(monitor);
        self
    }
}

/// What one [`Fleet::run`] sustained.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetReport {
    /// Fleet size.
    pub flows: usize,
    /// Simulated duration, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_ns: u64,
    /// Decisions executed.
    pub decisions: u64,
    /// Batched dispatches executed.
    pub batches: u64,
    /// Sustained decision throughput (decisions per wall-clock second).
    pub decisions_per_sec: f64,
    /// How much faster than real time the fleet ran (`sim_ns / wall_ns`);
    /// at least 1.0 means the fleet sustains real time.
    pub realtime_factor: f64,
    /// Median per-decision latency (batch wall time ÷ batch size), ns.
    pub p50_decision_ns: u64,
    /// 99th-percentile per-decision latency, ns.
    pub p99_decision_ns: u64,
    /// Mean decisions per batched dispatch.
    pub mean_batch: f64,
    /// Alert-ledger entries (breaches + clears) appended by the live
    /// layer's SLO watchdog during this run; 0 when no live layer is
    /// attached.
    pub slo_alerts: u64,
    /// Whether any SLO breach was still active when the run finished.
    /// While true, [`Fleet::promote`] is vetoed.
    pub slo_breach_active: bool,
}

impl FleetReport {
    /// Whether the fleet kept up with the wall clock.
    pub fn sustains_realtime(&self) -> bool {
        self.realtime_factor >= 1.0
    }
}

/// The certification gate a candidate model must clear to be promoted.
#[derive(Clone, Debug)]
pub struct PromotionGate {
    /// Properties certified on every flow's live decision context.
    pub properties: Vec<Property>,
    /// Minimum acceptable `QC_sat` aggregate, per flow.
    pub threshold: f64,
    /// Verifier split count.
    pub n_components: usize,
}

/// The outcome of one [`Fleet::promote`] attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PromoteOutcome {
    /// Whether the candidate replaced the deployed actor.
    pub promoted: bool,
    /// The weakest per-flow `QC_sat` aggregate observed.
    pub min_qc: f64,
    /// How many live contexts were certified.
    pub flows: usize,
    /// Whether the attempt was refused *before* certification because an
    /// SLO breach was active on the attached live layer. A vetoed
    /// outcome certifies nothing: `min_qc` is 0 and `flows` is 0.
    pub vetoed: bool,
}

/// A self-driving fleet: one simulator, one pooled driver per flow, one
/// shared policy (until a [`promote`](Fleet::promote) swaps it).
pub struct Fleet {
    sim: Simulator,
    pool: DriverPool,
    layout: StateLayout,
    flows: usize,
    actor: Mlp,
    live: Option<Rc<RefCell<FlightRecorder>>>,
}

impl Fleet {
    /// Builds the fleet: the topology, one Cubic-kerneled flow per slot,
    /// and one pooled driver per flow, all sharing `actor`.
    ///
    /// # Panics
    ///
    /// Panics if the actor's input width does not match `config.k`.
    pub fn new(config: &FleetConfig, actor: Mlp) -> Fleet {
        let layout = StateLayout::new(config.k);
        assert_eq!(
            actor.input_dim(),
            layout.dim(),
            "actor input width must match the k={} state layout",
            config.k
        );
        let link_of = |name: &str, rate_bps: f64| {
            LinkConfig::with_bdp_buffer(
                BandwidthTrace::constant(name, rate_bps),
                config.min_rtt,
                1.0,
            )
        };
        let (topology, fan_in) = match config.topology {
            FleetTopology::Dumbbell { rate_bps } => {
                (Topology::dumbbell(link_of("fleet", rate_bps)), 0)
            }
            FleetTopology::Incast {
                root_bps,
                leaf_bps,
                fan_in,
            } => {
                let root = link_of("fleet-root", root_bps);
                let leaf = link_of("fleet-leaf", leaf_bps);
                (Topology::incast(root, leaf, fan_in), fan_in)
            }
        };
        // One policy for the whole fleet: clones share the actor and its
        // fingerprint, and the pool compiles it once.
        let mut policy = DriverPolicy::new(actor.clone());
        if let Some(monitor) = &config.qc_monitor {
            policy = policy.with_fallback(FallbackController::new(
                monitor.properties.clone(),
                monitor.threshold,
                monitor.n_components,
            ));
        }
        // One flow description, re-aimed per slot and spawned at once, so
        // a large fleet never materialises its flow list.
        let controller = Controller::Orca {
            k: config.k,
            policy: Some(policy),
        };
        let mut spec = FlowSpec::new(controller, config.min_rtt);
        let mut sim = Simulator::with_topology(topology.clone());
        let mut pool = DriverPool::new();
        for i in 0..config.flows {
            spec.start = Time::from_nanos(config.stagger.as_nanos() * i as u64);
            if fan_in > 0 {
                spec.path = Topology::incast_path(i, fan_in);
            }
            let (_, driver) = world::spawn(&mut sim, &topology, i, &spec)
                .expect("fleet flows run Cubic on the topology's own paths");
            pool.push(driver.expect("steered flows come with a driver"));
        }
        Fleet {
            sim,
            pool,
            layout,
            flows: config.flows,
            actor,
            live: None,
        }
    }

    /// The simulator (current clock, flow stats).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The pooled drivers.
    pub fn pool(&self) -> &DriverPool {
        &self.pool
    }

    /// The deployed actor.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Attaches (or detaches) a telemetry recorder on the pool.
    ///
    /// Detaching also drops any live layer attached via
    /// [`attach_live`](Self::attach_live).
    pub fn set_recorder(&mut self, recorder: Option<SharedRecorder>) {
        if recorder.is_none() {
            self.live = None;
        }
        self.pool.set_recorder(recorder);
    }

    /// Attaches a [`FlightRecorder`] that the fleet keeps a handle to:
    /// the pool records through it, runs close out its live layer
    /// ([`FlightRecorder::finish`]) and feed the wall-latency SLO, the
    /// returned [`FleetReport`] carries its breach state, and
    /// [`promote`](Self::promote) is vetoed while a breach is active.
    ///
    /// A fleet enables no link sampling on its simulator, so the
    /// recorder sees no link samples and a
    /// [`MaxLinkDropRate`](canopy_telemetry::SloKind::MaxLinkDropRate)
    /// objective has no data here: it neither breaches nor clears.
    pub fn attach_live(&mut self, recorder: Rc<RefCell<FlightRecorder>>) {
        self.pool
            .set_recorder(Some(recorder.clone() as SharedRecorder));
        self.live = Some(recorder);
    }

    /// The live recorder, when one is attached.
    pub fn live(&self) -> Option<&Rc<RefCell<FlightRecorder>>> {
        self.live.as_ref()
    }

    /// Whether any SLO breach is currently active on the live layer.
    pub fn breach_active(&self) -> bool {
        self.live
            .as_ref()
            .is_some_and(|rec| rec.borrow().breach_active())
    }

    /// Runs the fleet flat out for `duration` of simulation time,
    /// measuring sustained throughput and per-decision latency.
    pub fn run(&mut self, duration: Time) -> FleetReport {
        self.run_inner(duration, false)
    }

    /// [`run`](Self::run), but paced: each dispatch waits until the wall
    /// clock has caught up with its simulation instant, the way a live
    /// serving tick loop would. Throughput then reads as real-time rate,
    /// and `realtime_factor` hovers near 1.0 when the fleet keeps up.
    pub fn run_realtime(&mut self, duration: Time) -> FleetReport {
        self.run_inner(duration, true)
    }

    fn run_inner(&mut self, duration: Time, pace: bool) -> FleetReport {
        let sim_start = self.sim.now();
        let horizon = sim_start + duration;
        let wall_start = Instant::now();
        let mut latency = LogHistogram::new();
        let mut decisions = 0u64;
        let mut batches = 0u64;
        loop {
            if pace {
                let next = self.pool.next_decision();
                if next >= horizon {
                    break;
                }
                let due_ns = next.saturating_sub(sim_start).as_nanos();
                let elapsed_ns = wall_start.elapsed().as_nanos() as u64;
                if due_ns > elapsed_ns {
                    std::thread::sleep(std::time::Duration::from_nanos(due_ns - elapsed_ns));
                }
            }
            let t0 = Instant::now();
            let Some(batch) = self.pool.dispatch_next(&mut self.sim, horizon) else {
                break;
            };
            if batch.decisions > 0 {
                let per = t0.elapsed().as_nanos() as u64 / batch.decisions as u64;
                latency.record(per.max(1));
                decisions += batch.decisions as u64;
                batches += 1;
                if let Some(rec) = &self.live {
                    // Wall latency feeds only the p99-latency SLO; it
                    // never enters a snapshot, so artifacts stay bitwise.
                    rec.borrow_mut()
                        .record_wall_latency_ns(batch.at.as_nanos(), per.max(1));
                }
            }
        }
        self.sim.run_until(horizon);
        let (slo_alerts, slo_breach_active) = match &self.live {
            Some(rec) => {
                let mut rec = rec.borrow_mut();
                rec.finish(self.sim.now().as_nanos());
                (
                    rec.alert_ledger().map_or(0, |l| l.alerts.len() as u64),
                    rec.breach_active(),
                )
            }
            None => (0, false),
        };
        let wall_ns = (wall_start.elapsed().as_nanos() as u64).max(1);
        FleetReport {
            flows: self.flows,
            sim_ns: duration.as_nanos(),
            wall_ns,
            decisions,
            batches,
            decisions_per_sec: decisions as f64 / (wall_ns as f64 / 1e9),
            realtime_factor: duration.as_nanos() as f64 / wall_ns as f64,
            p50_decision_ns: latency.p50(),
            p99_decision_ns: latency.p99(),
            mean_batch: if batches == 0 {
                0.0
            } else {
                decisions as f64 / batches as f64
            },
            slo_alerts,
            slo_breach_active,
        }
    }

    /// Certificate-gated model hot-swap: certifies `candidate` against
    /// every flow's current decision context in one batched pass and
    /// deploys it only if the weakest aggregate clears the gate. On
    /// rejection the running fleet is untouched. A candidate that is not a
    /// single-output actor with finite parameters, and any candidate for a
    /// fleet with no flows (no live context to certify it on), is rejected
    /// before the verifier sees it (`min_qc` 0, `flows` 0).
    ///
    /// # Panics
    ///
    /// Panics if the candidate's input width does not match the fleet's
    /// state layout.
    pub fn promote(&mut self, candidate: Mlp, gate: &PromotionGate) -> PromoteOutcome {
        assert_eq!(
            candidate.input_dim(),
            self.layout.dim(),
            "candidate input width must match the fleet's state layout"
        );
        let refused = |vetoed| PromoteOutcome {
            promoted: false,
            min_qc: 0.0,
            flows: 0,
            vetoed,
        };
        // A non-finite parameter is no model to certify, the certificate
        // reads output 0 as *the* action, and an empty fleet would promote
        // on no evidence at all.
        let malformed =
            candidate.output_dim() != 1 || candidate.params_flat().iter().any(|p| !p.is_finite());
        if malformed || self.pool.is_empty() {
            return refused(false);
        }
        // Degradation hook: while an SLO breach is active, the fleet's
        // live state is exactly the state we do *not* want to certify a
        // rollout against — refuse before touching the verifier.
        if self.breach_active() {
            return refused(true);
        }
        let verifier = Verifier::new(gate.n_components);
        let ctxs: Vec<StepContext> = self
            .pool
            .drivers()
            .iter()
            .map(|d| d.step_context(&self.sim))
            .collect();
        let results = verifier.certify_all_many(&candidate, &gate.properties, self.layout, &ctxs);
        let min_qc = results
            .iter()
            .map(|(_, agg)| *agg)
            .fold(f64::INFINITY, f64::min);
        let promoted = min_qc >= gate.threshold;
        if promoted {
            self.pool.swap_actor_all(candidate.clone());
            self.actor = candidate;
        }
        PromoteOutcome {
            promoted,
            min_qc,
            flows: ctxs.len(),
            vetoed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_core::property::PropertyParams;
    use canopy_nn::Activation;
    use canopy_telemetry::{Artifact, LiveConfig, RecorderConfig, SloKind, SloSpec, SpanStage};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn actor(k: usize, seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(
            &mut rng,
            &[StateLayout::new(k).dim(), 16, 1],
            Activation::Tanh,
        )
    }

    /// The one `Mlp` every pooled driver's policy points at.
    fn shared_actor(fleet: &Fleet) -> *const Mlp {
        let drivers = fleet.pool().drivers();
        let first = drivers[0].policy().expect("pooled").actor();
        assert!(drivers
            .iter()
            .all(|d| std::ptr::eq(d.policy().expect("pooled").actor(), first)));
        first as *const Mlp
    }

    /// An actor that always outputs `value` (zero weights, biased output).
    fn constant_actor(k: usize, value: f64) -> Mlp {
        let mut net = actor(k, 0);
        for layer in net.layers_mut() {
            layer.weights.fill_zero();
            layer.bias.fill(0.0);
        }
        let last = net.layers_mut().len() - 1;
        net.layers_mut()[last].bias[0] = value.clamp(-0.999, 0.999).atanh();
        net
    }

    #[test]
    fn dumbbell_fleet_batches_synchronized_decisions() {
        let config = FleetConfig::dumbbell(32, 192e6, 3);
        let mut fleet = Fleet::new(&config, actor(3, 1));
        let report = fleet.run(Time::from_millis(200));
        // 20 ms MI over 200 ms: decisions at 20..=180 ms, 9 per flow.
        assert_eq!(report.decisions, 32 * 9);
        assert_eq!(
            report.batches, 9,
            "synchronized fleet fills one batch per MI"
        );
        assert!((report.mean_batch - 32.0).abs() < 1e-9);
        assert!(report.decisions_per_sec > 0.0);
        assert!(report.p50_decision_ns <= report.p99_decision_ns);
        assert_eq!(fleet.sim().now(), Time::from_millis(200));
    }

    #[test]
    fn incast_fleet_runs_and_reports() {
        let config = FleetConfig::incast(24, 120e6, 40e6, 8, 3);
        let mut fleet = Fleet::new(&config, actor(3, 2));
        let report = fleet.run(Time::from_millis(100));
        assert_eq!(report.flows, 24);
        assert_eq!(report.decisions, 24 * 4);
        assert!(report.sustains_realtime() || report.realtime_factor > 0.0);
    }

    #[test]
    fn staggered_arrivals_split_batches() {
        let config = FleetConfig::dumbbell(4, 48e6, 3).with_stagger(Time::from_millis(5));
        let mut fleet = Fleet::new(&config, actor(3, 3));
        let report = fleet.run(Time::from_millis(100));
        // Starts at 0/5/10/15 ms with a 20 ms MI never coincide.
        assert!((report.mean_batch - 1.0).abs() < 1e-9);
        assert!(report.batches > 0);
    }

    #[test]
    fn realtime_pacing_does_not_outrun_the_wall_clock() {
        let config = FleetConfig::dumbbell(2, 24e6, 3);
        let mut fleet = Fleet::new(&config, actor(3, 4));
        let report = fleet.run_realtime(Time::from_millis(50));
        // Paced: the run takes at least as long as the last decision's
        // instant (40 ms), so the factor cannot blow past real time.
        assert!(
            report.realtime_factor <= 1.5,
            "paced run stayed near real time"
        );
        assert_eq!(report.decisions, 2 * 2);
    }

    #[test]
    fn promote_rejects_uncertified_and_deploys_certified_models() {
        let p = PropertyParams::default();
        let gate = PromotionGate {
            properties: vec![Property::p1(&p)],
            threshold: 0.9,
            n_components: 4,
        };
        // A fresh fleet: every context has cwnd_tcp == cwnd_prev (the
        // initial window), so the P1 Δcwnd sign is exactly the action
        // sign and both verdicts below are deterministic.
        let config = FleetConfig::dumbbell(8, 96e6, 3);
        let mut fleet = Fleet::new(&config, constant_actor(3, 0.5));

        // A decrease-everywhere candidate violates P1 on every context.
        let before = fleet.actor().params_flat();
        let rejected = fleet.promote(constant_actor(3, -0.5), &gate);
        assert!(!rejected.promoted);
        assert_eq!(rejected.flows, 8);
        assert_eq!(rejected.min_qc, 0.0);
        assert_eq!(fleet.actor().params_flat(), before, "rejection is a no-op");

        // An increase-everywhere candidate certifies with QC_sat = 1.
        let candidate = constant_actor(3, 0.25);
        let accepted = fleet.promote(candidate.clone(), &gate);
        assert!(accepted.promoted);
        assert_eq!(accepted.min_qc, 1.0);
        assert_eq!(fleet.actor().params_flat(), candidate.params_flat());
        for d in fleet.pool().drivers() {
            let deployed = d.policy().expect("pooled driver has a policy").actor();
            assert_eq!(deployed.params_flat(), candidate.params_flat());
        }
        // The swapped fleet keeps running.
        let report = fleet.run(Time::from_millis(60));
        assert!(report.decisions > 0);
    }

    /// A candidate the verifier cannot soundly read — a NaN weight, a `±∞`
    /// bias (which used to abort inside `Interval::new`), two outputs — is
    /// rejected where it enters, and the fleet keeps its actor and its one
    /// compiled policy.
    #[test]
    fn promote_rejects_malformed_candidates_without_certifying() {
        let gate = PromotionGate {
            properties: vec![Property::p1(&PropertyParams::default())],
            threshold: 0.0,
            n_components: 4,
        };
        let mut fleet = Fleet::new(&FleetConfig::dumbbell(4, 96e6, 3), constant_actor(3, 0.5));
        let before = fleet.actor().params_flat();
        let compiled = shared_actor(&fleet);

        let mut nan_weight = constant_actor(3, 0.25);
        *nan_weight.layers_mut()[1].weights.get_mut(0, 2) = f64::NAN;
        let mut inf_bias = constant_actor(3, 0.25);
        inf_bias.layers_mut()[0].bias[0] = f64::INFINITY;
        let mut neg_inf_bias = constant_actor(3, 0.25);
        neg_inf_bias.layers_mut()[0].bias[5] = f64::NEG_INFINITY;
        let two_outputs = Mlp::new(
            &mut StdRng::seed_from_u64(1),
            &[StateLayout::new(3).dim(), 16, 2],
            Activation::Tanh,
        );
        for candidate in [nan_weight, inf_bias, neg_inf_bias, two_outputs] {
            let outcome = fleet.promote(candidate, &gate);
            let rejected = PromoteOutcome {
                promoted: false,
                min_qc: 0.0,
                flows: 0,
                vetoed: false,
            };
            assert_eq!(outcome, rejected);
            assert_eq!(fleet.actor().params_flat(), before);
            assert_eq!(shared_actor(&fleet), compiled);
            assert_eq!(fleet.pool().compiled_policies(), 1);
        }
        // The same gate deploys a well-formed candidate.
        assert!(fleet.promote(constant_actor(3, 0.25), &gate).promoted);
    }

    /// A candidate whose enclosure overflows (finite weights scaled by
    /// 1e300) certifies nothing and is refused, without a panic.
    #[test]
    fn promote_refuses_an_overflowing_candidate() {
        let gate = PromotionGate {
            properties: vec![Property::p1(&PropertyParams::default())],
            threshold: 0.9,
            n_components: 4,
        };
        let mut fleet = Fleet::new(&FleetConfig::dumbbell(4, 96e6, 3), constant_actor(3, 0.5));
        let before = fleet.actor().params_flat();
        let mut huge = actor(3, 9);
        for layer in huge.layers_mut() {
            layer
                .weights
                .as_mut_slice()
                .iter_mut()
                .for_each(|w| *w *= 1e300);
            layer.bias.iter_mut().for_each(|b| *b *= 1e300);
        }
        let outcome = fleet.promote(huge, &gate);
        assert!(!outcome.promoted && !outcome.vetoed, "{outcome:?}");
        assert_eq!(outcome.flows, 4);
        assert!((0.0..=1.0).contains(&outcome.min_qc), "{outcome:?}");
        assert_eq!(fleet.actor().params_flat(), before);
    }

    /// A fleet with no flows has no live context to certify a candidate
    /// on, so it refuses instead of promoting vacuously.
    #[test]
    fn an_empty_fleet_refuses_every_promotion() {
        let gate = PromotionGate {
            properties: vec![Property::p1(&PropertyParams::default())],
            threshold: 0.0,
            n_components: 4,
        };
        let mut fleet = Fleet::new(&FleetConfig::dumbbell(0, 96e6, 3), constant_actor(3, 0.5));
        let refused = PromoteOutcome {
            promoted: false,
            min_qc: 0.0,
            flows: 0,
            vetoed: false,
        };
        assert_eq!(fleet.promote(constant_actor(3, 0.25), &gate), refused);
    }

    /// The pool's compiled policy follows the deployed actor: an accepted
    /// promote compiles the candidate (so the very next decision is
    /// certified against the *new* weights) and frees the old plan; a
    /// rejected or vetoed one touches nothing.
    #[test]
    fn promote_swaps_the_one_compiled_policy() {
        let p = PropertyParams::default();
        let monitor = QcMonitorConfig {
            properties: vec![Property::p1(&p)],
            threshold: 0.9,
            n_components: 4,
        };
        let gate = |threshold| PromotionGate {
            properties: monitor.properties.clone(),
            threshold,
            n_components: 4,
        };
        // Stagger by a quarter MI so the 8 flows decide at 4 instants.
        let config = FleetConfig::dumbbell(8, 96e6, 3)
            .with_qc_monitor(monitor.clone())
            .with_stagger(Time::from_millis(5));
        // Deployed: decrease everywhere — P1 fails, every decision falls back.
        let mut fleet = Fleet::new(&config, constant_actor(3, -0.9));
        assert_eq!(fleet.pool().compiled_policies(), 1);
        fleet.run(Time::from_millis(60));
        let qc_len = |fleet: &Fleet, i: usize| fleet.pool().drivers()[i].fallback_qc_values().len();
        for d in fleet.pool().drivers() {
            let qc = d.fallback_qc_values();
            assert!(!qc.is_empty() && qc.iter().all(|&qc| qc == 0.0));
        }
        let before = shared_actor(&fleet);

        // Rejected (the candidate also violates P1): table untouched.
        assert!(!fleet.promote(constant_actor(3, -0.8), &gate(0.9)).promoted);
        assert_eq!(fleet.pool().compiled_policies(), 1);
        assert_eq!(shared_actor(&fleet), before);

        // Accepted: one new compiled policy, the old one freed, and every
        // flow's first decision after the swap sees the new weights.
        let seen: Vec<usize> = (0..8).map(|i| qc_len(&fleet, i)).collect();
        assert!(fleet.promote(constant_actor(3, 0.5), &gate(0.9)).promoted);
        assert_eq!(fleet.pool().compiled_policies(), 1);
        assert_ne!(shared_actor(&fleet), before);
        fleet.run(Time::from_millis(40));
        for (i, d) in fleet.pool().drivers().iter().enumerate() {
            assert!(qc_len(&fleet, i) > seen[i]);
            assert!(d.fallback_qc_values()[seen[i]..]
                .iter()
                .all(|&qc| qc == 1.0));
        }

        // Vetoed: an unmeetable SLO breaches on the first snapshot.
        fleet.attach_live(live_recorder(vec![SloSpec::new(
            "qc-floor",
            SloKind::MinWindowQcSat,
            2.0,
        )]));
        fleet.run(Time::from_millis(100));
        assert!(fleet.breach_active());
        let deployed = shared_actor(&fleet);
        assert!(fleet.promote(constant_actor(3, 0.25), &gate(0.0)).vetoed);
        assert_eq!(fleet.pool().compiled_policies(), 1);
        assert_eq!(shared_actor(&fleet), deployed);
    }

    /// A fleet whose QC monitor can never be satisfied (threshold 2.0):
    /// every decision engages the fallback, deterministically.
    fn breached_fleet(flows: usize) -> Fleet {
        let p = PropertyParams::default();
        let config = FleetConfig::dumbbell(flows, 96e6, 3).with_qc_monitor(QcMonitorConfig {
            properties: vec![Property::p1(&p)],
            threshold: 2.0,
            n_components: 4,
        });
        Fleet::new(&config, constant_actor(3, 0.25))
    }

    fn live_recorder(slos: Vec<SloSpec>) -> Rc<RefCell<FlightRecorder>> {
        let mut live = LiveConfig::default()
            .with_cadence(20_000_000, 8)
            .with_label("serve-test");
        for s in slos {
            live = live.with_slo(s);
        }
        Rc::new(RefCell::new(FlightRecorder::with_live(
            RecorderConfig::default(),
            live,
        )))
    }

    #[test]
    fn slo_breach_reaches_the_ledger_and_the_report() {
        let mut fleet = breached_fleet(8);
        let rec = live_recorder(vec![SloSpec::new(
            "fallback-rate",
            SloKind::MaxFallbackRate,
            0.1,
        )]);
        fleet.attach_live(rec.clone());
        let report = fleet.run(Time::from_millis(200));
        assert!(report.decisions > 0);
        assert!(
            report.slo_breach_active,
            "always-on fallback must breach the 10% rate SLO"
        );
        assert!(report.slo_alerts >= 1);
        assert!(fleet.breach_active());
        let rec = rec.borrow();
        let ledger = rec.alert_ledger().expect("live layer keeps a ledger");
        ledger.validate().expect("ledger is schema-valid");
        assert!(ledger.alerts.iter().any(|a| a.active));
        assert!(!rec.live_snapshots().is_empty());
    }

    #[test]
    fn active_breach_vetoes_promotion_until_it_clears() {
        let mut fleet = breached_fleet(8);
        fleet.attach_live(live_recorder(vec![SloSpec::new(
            "fallback-rate",
            SloKind::MaxFallbackRate,
            0.1,
        )]));
        fleet.run(Time::from_millis(200));
        assert!(fleet.breach_active());

        let p = PropertyParams::default();
        let gate = PromotionGate {
            properties: vec![Property::p1(&p)],
            threshold: 0.9,
            n_components: 4,
        };
        let before = fleet.actor().params_flat();
        // The candidate would certify cleanly — the veto fires first.
        let vetoed = fleet.promote(constant_actor(3, 0.25), &gate);
        assert!(vetoed.vetoed);
        assert!(!vetoed.promoted);
        assert_eq!(vetoed.flows, 0, "a vetoed attempt certifies nothing");
        assert_eq!(fleet.actor().params_flat(), before);

        // Detaching the live layer clears the degradation hook, and the
        // same candidate promotes.
        fleet.set_recorder(None);
        assert!(!fleet.breach_active());
        let outcome = fleet.promote(constant_actor(3, 0.25), &gate);
        assert!(!outcome.vetoed);
        assert!(outcome.promoted);
    }

    #[test]
    fn span_table_accounts_for_the_decision_path() {
        // With wall-clock span timing enabled, the five child stages are
        // contiguous checkpoint intervals inside the dispatch parent, so
        // they must account for (nearly) all measured decision-path time.
        let config = FleetConfig::dumbbell(32, 192e6, 3);
        let mut fleet = Fleet::new(&config, actor(3, 7));
        let rec = Rc::new(RefCell::new(FlightRecorder::new(RecorderConfig {
            span_timing: true,
        })));
        fleet.attach_live(rec.clone());
        let report = fleet.run(Time::from_millis(200));
        assert!(report.decisions > 0);
        let rec = rec.borrow();
        let totals = rec.span_stage_totals();
        assert_eq!(totals.len(), SpanStage::ALL.len());
        let parent_ns: u64 = totals
            .iter()
            .filter(|(s, ..)| *s == SpanStage::Dispatch)
            .map(|(_, _, _, d)| *d)
            .sum();
        let children_ns: u64 = totals
            .iter()
            .filter(|(s, ..)| *s != SpanStage::Dispatch)
            .map(|(_, _, _, d)| *d)
            .sum();
        assert!(parent_ns > 0, "timing was enabled, durations are real");
        let coverage = children_ns as f64 / parent_ns as f64;
        assert!(
            coverage >= 0.95,
            "stage table covers {coverage:.3} of decision-path time"
        );
    }

    #[test]
    fn live_artifacts_are_bitwise_reproducible() {
        let run = || {
            let mut fleet = breached_fleet(8);
            let rec = live_recorder(vec![SloSpec::new(
                "fallback-rate",
                SloKind::MaxFallbackRate,
                0.1,
            )]);
            fleet.attach_live(rec.clone());
            fleet.run(Time::from_millis(200));
            let rec = rec.borrow();
            (
                rec.live_metrics_jsonl(),
                rec.live_exposition(),
                rec.alert_ledger().expect("ledger").to_json(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "sim-time cadence keeps live artifacts bitwise");
        assert!(!a.0.is_empty());
        assert!(a.1.starts_with("# canopy-live-metrics/v1"));
    }
}
