//! `fleet_sync` and `fleet_stagger`: the paper's deployment — a runtime
//! certificate with Cubic fallback on every decision — at fleet scale.
//!
//! Both run 256 flows over one 512 Mbps dumbbell with the {P1, P2} QC
//! monitor on. `fleet_sync` starts every flow together, so each of the 199
//! decision instants is one batch of 256 (batched forward, one
//! `certify_all_many` over 2 560 boxes). `fleet_stagger` spaces arrivals by
//! a monitor interval ÷ 256, so no two decisions coincide and every
//! dispatch is a singleton: scalar forward, one-context certification,
//! heap churn. A change that helps batches but taxes singletons shows as a
//! gain on one and a loss on the other.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use canopy_absint::{BoxState, IbpBatchScratch, PreparedMlp};
use canopy_cc::Cubic;
use canopy_core::driver::{DriverConfig, DriverPolicy, DriverPool, OrcaDriver};
use canopy_core::property::{Property, PropertyParams};
use canopy_core::runtime::FallbackController;
use canopy_core::verifier::{StepContext, Verifier};
use canopy_core::StateLayout;
use canopy_netsim::{BandwidthTrace, FlowConfig, LinkConfig, Simulator, Time, Topology};
use canopy_nn::{Activation, BatchScratch, Matrix, Mlp};
use canopy_serve::{Fleet, FleetConfig, FleetTopology, PromotionGate, QcMonitorConfig};
use canopy_telemetry::{shared, FlightRecorder, LiveConfig, NoopRecorder, RecorderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{median, percentile, quartiles, time, Digest, Rep, Tally, Tracer};
use crate::workload::{instrument_health, Layers, Params, Workload};

const FLOWS: usize = 256;
const RATE_BPS: f64 = 512e6;
/// The seed moves the bottleneck rate by up to this share either way: every
/// packet time, and so every decision, changes; the kind of work does not.
const RATE_JITTER: f64 = 0.01;
/// The actor is one fixed draw, a property of the workload like the flow
/// count. Batched IBP skips zero entries, so its cost follows the weights'
/// sparsity, and an actor that never falls back drives every window to
/// the cap (2.8 M packets a rep instead of 0.19 M, twice the memory): over
/// ten seed-drawn actors `ops_per_s` ranged 22 000–44 000, which no bound
/// on the metric could absorb. This is the first draw whose windows stay
/// bounded and whose fallback engages on about half of the decisions, so
/// both arbitration outcomes are exercised.
const ACTOR_SEED: u64 = 2;
const K: usize = 10;
const N_COMPONENTS: usize = 5;
const QC_THRESHOLD: f64 = 0.5;
/// 20 ms monitor interval ÷ 256 flows.
const ARRIVAL_SPACING: Time = Time::from_nanos(78_125);
/// The traced loop probes the layers under a dispatch on every 16th tick.
const PROBE_EVERY: u64 = 16;

/// `STAGGER` selects `fleet_stagger`; otherwise `fleet_sync`.
pub struct FleetWorkload<const STAGGER: bool> {
    config: FleetConfig,
    actor: Mlp,
    duration: Time,
    /// Decisions the run must execute, from the arrival schedule alone.
    expected_decisions: u64,
    /// Decisions every dispatch must carry: 256 in sync, 1 in stagger.
    expected_batch: u64,
    /// How long the first `Fleet::new` took, milliseconds.
    fleet_new_ms: f64,
}

pub type FleetSync = FleetWorkload<false>;
pub type FleetStagger = FleetWorkload<true>;

fn monitor() -> QcMonitorConfig {
    let params = PropertyParams::default();
    QcMonitorConfig {
        properties: vec![Property::p1(&params), Property::p2(&params)],
        threshold: QC_THRESHOLD,
        n_components: N_COMPONENTS,
    }
}

impl<const STAGGER: bool> FleetWorkload<STAGGER> {
    fn build(params: &Params) -> Self {
        let layout = StateLayout::new(K);
        let mut rng = StdRng::seed_from_u64(ACTOR_SEED);
        let actor = Mlp::new(&mut rng, &[layout.dim(), 64, 64, 1], Activation::Tanh);
        let jitter = StdRng::seed_from_u64(params.seed).random_range(-RATE_JITTER..=RATE_JITTER);
        let rate_bps = RATE_BPS * (1.0 + jitter);
        let mut config = FleetConfig::dumbbell(FLOWS, rate_bps, K).with_qc_monitor(monitor());
        if STAGGER {
            config = config.with_stagger(ARRIVAL_SPACING);
        }
        let duration = match (STAGGER, params.smoke) {
            (false, false) => Time::from_secs(4),
            (false, true) => Time::from_millis(200),
            (true, false) => Time::from_secs(2),
            (true, true) => Time::from_millis(100),
        };
        // Decisions fire at start + n·MI for n ≥ 1, strictly before the
        // horizon.
        let mi = DriverConfig::new(config.min_rtt, K)
            .effective_mi()
            .as_nanos();
        let expected_decisions = (0..FLOWS as u64)
            .map(|i| {
                let start = config.stagger.as_nanos() * i;
                (duration.as_nanos() - 1).saturating_sub(start) / mi
            })
            .sum();
        let (fleet, new_s) = time(|| Fleet::new(&config, actor.clone()));
        drop(fleet);
        Self {
            config,
            actor,
            duration,
            expected_decisions,
            expected_batch: if STAGGER { 1 } else { FLOWS as u64 },
            fleet_new_ms: new_s * 1e3,
        }
    }

    /// The result of a finished run: counts, per-flow packet totals,
    /// fallback engagements and final windows.
    fn finish(&self, wall_s: f64, sim: &Simulator, pool: &DriverPool, batches: u64) -> Rep {
        let mut digest = Digest::default();
        let mut decisions = 0u64;
        let mut finite = true;
        for driver in pool.drivers() {
            let stats = sim.flow_stats(driver.flow());
            let cwnd = sim.cwnd(driver.flow());
            decisions += driver.decisions();
            finite &= cwnd.is_finite();
            digest.push(stats.sent_packets);
            digest.push(stats.acked_packets);
            digest.push(driver.fallback_engagements().unwrap_or(0));
            digest.push_f64(cwnd);
        }
        digest.push(decisions);
        digest.push(batches);
        Rep {
            wall_s,
            ops: decisions,
            digest,
            ok: finite
                && decisions == self.expected_decisions
                && batches * self.expected_batch == decisions,
        }
    }

    fn fleet_run_rep(&self) -> Rep {
        let mut fleet = Fleet::new(&self.config, self.actor.clone());
        let (report, wall_s) = time(|| fleet.run(self.duration));
        let mut rep = self.finish(wall_s, fleet.sim(), fleet.pool(), report.batches);
        rep.ok &= report.decisions == rep.ops;
        rep
    }

    /// The simulator and driver pool exactly as `Fleet::new` builds them
    /// for a dumbbell, from public constructors only.
    fn build_own(&self) -> (Simulator, DriverPool) {
        let FleetTopology::Dumbbell { rate_bps } = self.config.topology else {
            unreachable!("both fleet workloads run on a dumbbell");
        };
        let monitor = self.config.qc_monitor.as_ref().expect("QC monitor is on");
        let link = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("fleet", rate_bps),
            self.config.min_rtt,
            1.0,
        );
        let mut sim = Simulator::with_topology(Topology::dumbbell(link.clone()));
        let mut pool = DriverPool::new();
        for i in 0..self.config.flows {
            let start = Time::from_nanos(self.config.stagger.as_nanos() * i as u64);
            let flow_cfg = FlowConfig::new(self.config.min_rtt)
                .starting_at(start)
                .without_samples();
            let flow = sim.add_flow(flow_cfg, Box::new(Cubic::new()));
            let driver_cfg =
                DriverConfig::new(self.config.min_rtt, self.config.k).starting_at(start);
            let policy =
                DriverPolicy::new(self.actor.clone()).with_fallback(FallbackController::new(
                    monitor.properties.clone(),
                    monitor.threshold,
                    monitor.n_components,
                ));
            pool.push(OrcaDriver::new(&driver_cfg, &link, flow).with_policy(policy));
        }
        (sim, pool)
    }

    /// The same run through `DriverPool::dispatch_next` directly, without
    /// `Fleet`'s per-dispatch clock reads and latency histogram.
    fn own_loop_rep(&self) -> Rep {
        let (mut sim, mut pool) = self.build_own();
        let t0 = Instant::now();
        let mut batches = 0u64;
        while let Some(batch) = pool.dispatch_next(&mut sim, self.duration) {
            batches += (batch.decisions > 0) as u64;
        }
        sim.run_until(self.duration);
        self.finish(t0.elapsed().as_secs_f64(), &sim, &pool, batches)
    }

    /// The own loop again with a span around every public call. After
    /// every 16th dispatch the layers under it are probed on the contexts
    /// it just decided: after, so that the dispatch itself runs in the
    /// cache state it would have without a probe. Returns the rep, its
    /// wall net of probe time.
    fn spanned_rep(&self, tracer: &mut Tracer, acc: &mut ProbeTotals) -> Rep {
        let (mut sim, mut pool) = self.build_own();
        let mut probe = Probe::new(self);
        let horizon = self.duration;

        tracer.next_rep();
        let rep_span = tracer.begin("rep");
        let mut batches = 0u64;
        let mut probe_s = 0.0;
        let mut tick = 0u64;
        loop {
            let next = pool.next_decision();
            if next >= horizon {
                break;
            }
            let id = tracer.begin("netsim.run_until");
            sim.run_until(next);
            acc.netsim_s += tracer.end(id);

            let probing = tick.is_multiple_of(PROBE_EVERY);
            let due: Vec<usize> = if probing {
                let drivers = pool.drivers();
                (0..drivers.len())
                    .filter(|&i| drivers[i].next_decision() == next)
                    .collect()
            } else {
                Vec::new()
            };

            let id = tracer.begin("core.dispatch");
            let batch = pool
                .dispatch_next(&mut sim, horizon)
                .expect("a decision is due before the horizon");
            let dispatch_s = tracer.end(id);
            acc.dispatch_s += dispatch_s;
            acc.dispatch_us.push(dispatch_s * 1e6);
            batches += (batch.decisions > 0) as u64;
            tick += 1;

            if probing {
                let id = tracer.begin("probe");
                let ctxs: Vec<StepContext> = due
                    .iter()
                    .map(|&i| pool.drivers()[i].step_context(&sim))
                    .collect();
                probe.run(&ctxs, tracer, acc);
                acc.probed_dispatch_s += dispatch_s;
                acc.probed_decisions += batch.decisions as u64;
                probe_s += tracer.end(id);
            }
        }
        let id = tracer.begin("netsim.run_until");
        sim.run_until(horizon);
        acc.netsim_s += tracer.end(id);
        let wall_s = tracer.end(rep_span) - probe_s;

        acc.reps += 1;
        acc.pkts = pool
            .drivers()
            .iter()
            .map(|d| sim.flow_stats(d.flow()).sent_packets)
            .sum();
        acc.dispatches = batches;
        let drivers = pool.drivers();
        acc.fallback_rate = drivers
            .iter()
            .filter_map(|d| d.fallback_rate())
            .sum::<f64>()
            / drivers.len() as f64;
        let qc: Vec<f64> = drivers
            .iter()
            .flat_map(|d| d.fallback_qc_values().iter().copied())
            .collect();
        acc.qc_sat_mean = qc.iter().sum::<f64>() / qc.len().max(1) as f64;
        self.finish(wall_s, &sim, &pool, batches)
    }

    /// Added cost per decision of each recorder against no recorder, the
    /// four variants interleaved rep by rep on a quarter-length run.
    fn telemetry_ladder(&self, rounds: usize, layers: &mut Layers) {
        let duration = Time::from_nanos(self.duration.as_nanos() / 4);
        let attach: [&dyn Fn(&mut Fleet); 4] = [
            &|_| {},
            &|f| f.set_recorder(Some(shared(NoopRecorder))),
            &|f| f.set_recorder(Some(shared(FlightRecorder::default()))),
            &|f| {
                f.attach_live(Rc::new(RefCell::new(FlightRecorder::with_live(
                    RecorderConfig::default(),
                    LiveConfig::default(),
                ))))
            },
        ];
        let mut walls: [Vec<f64>; 4] = Default::default();
        let mut decisions = 1u64;
        for round in 0..=rounds {
            // Rotated, so that no variant always follows the same one.
            for variant in (0..4).map(|v| (v + round) % 4) {
                let mut fleet = Fleet::new(&self.config, self.actor.clone());
                attach[variant](&mut fleet);
                let (report, wall_s) = time(|| fleet.run(duration));
                decisions = report.decisions.max(1);
                if round > 0 {
                    walls[variant].push(wall_s);
                }
            }
        }
        let per_decision = |s: f64| s / decisions as f64 * 1e9;
        let base = median(&walls[0]);
        let (q1, _, q3) = quartiles(&walls[0]);
        layers.insert(
            "telemetry.noop_ns_per_decision",
            per_decision(median(&walls[1]) - base),
        );
        layers.insert(
            "telemetry.flight_ns_per_decision",
            per_decision(median(&walls[2]) - base),
        );
        layers.insert(
            "telemetry.live_ns_per_decision",
            per_decision(median(&walls[3]) - base),
        );
        layers.insert("telemetry.spread_ns_per_decision", per_decision(q3 - q1));
    }

    fn traced_pass(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally {
        // The recorder ladder only resolves on the batched run, where the
        // recorder's share is largest; it gets a quarter of the time.
        let ladder = self.expected_batch > 1;
        let loop_seconds = if ladder { seconds * 0.75 } else { seconds };

        let mut tally = Tally::default();
        let mut acc = ProbeTotals::default();
        let (mut fleet_s, mut own_s, mut spanned_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut divergence = 0.0;
        let mut realtime = Vec::new();
        let mut promote_ms = Vec::new();
        let monitor = monitor();
        let gate = PromotionGate {
            properties: monitor.properties.clone(),
            threshold: 0.0,
            n_components: monitor.n_components,
        };
        let started = Instant::now();
        // `Fleet::run`, the plain own loop and the spanned own loop,
        // interleaved so that drift hits all three alike.
        while started.elapsed().as_secs_f64() < loop_seconds || spanned_s.len() < 2 {
            let mut fleet = Fleet::new(&self.config, self.actor.clone());
            let (report, wall_s) = time(|| fleet.run(self.duration));
            let rep = self.finish(wall_s, fleet.sim(), fleet.pool(), report.batches);
            tally.count(&rep, reference);
            fleet_s.push(wall_s);
            realtime.push(report.realtime_factor);
            let (outcome, s) = time(|| fleet.promote(self.actor.clone(), &gate));
            assert_eq!(outcome.flows, FLOWS, "promotion certifies every flow");
            promote_ms.push(s * 1e3);

            let rep = self.own_loop_rep();
            tally.count(&rep, reference);
            own_s.push(rep.wall_s);

            let rep = self.spanned_rep(tracer, &mut acc);
            if rep.digest != reference.digest || !rep.ok {
                divergence = 1.0;
            }
            spanned_s.push(rep.wall_s);
        }
        if ladder {
            let round_s = median(&fleet_s);
            let rounds = ((seconds - loop_seconds) / round_s).round().max(3.0) as usize;
            self.telemetry_ladder(rounds, layers);
        }

        let reps = acc.reps as f64;
        let decisions = reference.ops as f64;
        let boxes_per_decision = (monitor.properties.len() * monitor.n_components) as f64;
        let per_probed_decision = |s: f64| s / acc.probed_decisions.max(1) as f64 * 1e9;
        layers.insert("netsim.busy_s", acc.netsim_s / reps);
        layers.insert("netsim.pkts", acc.pkts as f64);
        layers.insert(
            "netsim.ns_per_pkt",
            acc.netsim_s / reps / acc.pkts.max(1) as f64 * 1e9,
        );
        layers.insert(
            "nn.forward_ns_per_row",
            acc.forward_s / acc.probed_rows.max(1) as f64 * 1e9,
        );
        layers.insert(
            "absint.ibp_ns_per_box",
            acc.kernel_s / acc.probed_boxes.max(1) as f64 * 1e9,
        );
        layers.insert("absint.boxes", decisions * boxes_per_decision);
        layers.insert(
            "core.certify_many_ns_per_decision",
            per_probed_decision(acc.certify_s),
        );
        layers.insert(
            "core.verifier_glue_ratio",
            acc.certify_one_thread_s / acc.kernel_s,
        );
        layers.insert("core.dispatches", acc.dispatches as f64);
        layers.insert("core.batch_mean", decisions / acc.dispatches.max(1) as f64);
        layers.insert("core.dispatch_busy_s", acc.dispatch_s / reps);
        layers.insert("core.dispatch_us_p50", median(&acc.dispatch_us));
        layers.insert("core.dispatch_us_p99", percentile(&acc.dispatch_us, 0.99));
        layers.insert("core.dispatch_samples", acc.dispatch_us.len() as f64);
        layers.insert(
            "core.driver_self_ns_per_decision",
            per_probed_decision(acc.probed_dispatch_s - acc.forward_s - acc.certify_s),
        );
        layers.insert("core.fallback_rate", acc.fallback_rate);
        layers.insert("core.qc_sat_mean", acc.qc_sat_mean);
        layers.insert("serve.fleet_new_ms", self.fleet_new_ms);
        layers.insert("serve.promote_ms", median(&promote_ms));
        layers.insert("serve.realtime_factor", median(&realtime));
        layers.insert(
            "serve.run_overhead_ratio",
            median(&fleet_s) / median(&own_s),
        );
        instrument_health(layers, &spanned_s, median(&own_s), divergence, tracer);
        tally
    }
}

/// The layers under one dispatch, called directly on the contexts the
/// dispatch decided: the actor forward the way the pool runs it (scalar
/// for one context, batched otherwise), the certification as the fallback
/// monitor runs it, the same on one worker, and the raw batched-IBP kernel
/// on the same boxes.
struct Probe<'a> {
    actor: &'a Mlp,
    properties: &'a [Property],
    n_components: usize,
    layout: StateLayout,
    verifier: Verifier,
    prepared: PreparedMlp,
    ibp_scratch: IbpBatchScratch,
    fwd_scratch: BatchScratch,
    states: Matrix,
}

impl<'a> Probe<'a> {
    fn new<const STAGGER: bool>(workload: &'a FleetWorkload<STAGGER>) -> Probe<'a> {
        let monitor = workload
            .config
            .qc_monitor
            .as_ref()
            .expect("QC monitor is on");
        Probe {
            actor: &workload.actor,
            properties: &monitor.properties,
            n_components: monitor.n_components,
            layout: StateLayout::new(workload.config.k),
            verifier: Verifier::new(monitor.n_components),
            prepared: PreparedMlp::new(&workload.actor),
            ibp_scratch: IbpBatchScratch::new(),
            fwd_scratch: BatchScratch::default(),
            states: Matrix::zeros(0, 0),
        }
    }

    fn run(&mut self, ctxs: &[StepContext], tracer: &mut Tracer, acc: &mut ProbeTotals) {
        let boxes: Vec<BoxState> = ctxs
            .iter()
            .flat_map(|ctx| {
                self.properties.iter().flat_map(|p| {
                    p.input_region(&ctx.state, self.layout)
                        .split_dim(p.split_axis(self.layout), self.n_components)
                })
            })
            .collect();

        let id = tracer.begin("nn.forward");
        if let [ctx] = ctxs {
            std::hint::black_box(self.actor.forward(&ctx.state));
        } else {
            self.states.reshape(ctxs.len(), self.actor.input_dim());
            for (r, ctx) in ctxs.iter().enumerate() {
                self.states.set_row(r, &ctx.state);
            }
            std::hint::black_box(
                self.actor
                    .forward_batch(&self.states, &mut self.fwd_scratch),
            );
        }
        acc.forward_s += tracer.end(id);

        for (verifier, total) in [
            (self.verifier, &mut acc.certify_s),
            (self.verifier.with_threads(1), &mut acc.certify_one_thread_s),
        ] {
            let id = tracer.begin("core.certify_all_many");
            std::hint::black_box(verifier.certify_all_many(
                self.actor,
                self.properties,
                self.layout,
                ctxs,
            ));
            *total += tracer.end(id);
        }

        let id = tracer.begin("absint.propagate_boxes_dim");
        std::hint::black_box(self.prepared.propagate_boxes_dim(
            boxes.iter(),
            0,
            &mut self.ibp_scratch,
        ));
        acc.kernel_s += tracer.end(id);

        acc.probed_rows += ctxs.len() as u64;
        acc.probed_boxes += boxes.len() as u64;
    }
}

/// Sums over every spanned rep; last-rep values for the exact statistics,
/// which are the same in every rep.
#[derive(Default)]
struct ProbeTotals {
    reps: u64,
    netsim_s: f64,
    dispatch_s: f64,
    dispatch_us: Vec<f64>,
    forward_s: f64,
    certify_s: f64,
    certify_one_thread_s: f64,
    kernel_s: f64,
    probed_rows: u64,
    probed_boxes: u64,
    probed_dispatch_s: f64,
    probed_decisions: u64,
    pkts: u64,
    dispatches: u64,
    fallback_rate: f64,
    qc_sat_mean: f64,
}

impl<const STAGGER: bool> Workload for FleetWorkload<STAGGER> {
    fn setup(params: &Params) -> Self {
        Self::build(params)
    }

    fn rep(&self) -> Rep {
        self.fleet_run_rep()
    }

    fn invariance_reps(&self) -> Vec<Rep> {
        vec![self.own_loop_rep()]
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally {
        self.traced_pass(seconds, reference, tracer, layers)
    }
}
