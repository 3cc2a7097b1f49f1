//! The measurement vocabulary behind every evaluation figure: the scheme
//! under test ([`Scheme`]), per-flow and per-link metrics read off a
//! finished simulation ([`flow_metrics`], [`link_metrics`]), and the
//! shared-bottleneck competition/fairness runs of one learned policy
//! against classic kernels or copies of itself ([`run_multiflow`]).
//! Single-flow conditions are `canopy_scenarios::ScenarioSpec`s run through
//! `canopy_scenarios::run_scenario`/`run_matrix` — on the same
//! [`DriverPool`] over a [`world`]-built simulator as the multi-flow runs
//! here.

use serde::{Deserialize, Serialize};

use canopy_netsim::{BandwidthTrace, FlowId, LinkConfig, LinkId, Simulator, Time, Topology};

use crate::driver::{DriverPolicy, DriverPool};
use crate::models::TrainedModel;
use crate::property::Property;
use crate::runtime::FallbackController;
use crate::world::{self, Controller, FlowSpec, WorldError};

/// A congestion-control scheme under evaluation.
#[derive(Clone, Debug)]
pub enum Scheme {
    /// A classic kernel from `canopy-cc` ("cubic", "newreno", "vegas",
    /// "bbr").
    Baseline(String),
    /// A learned controller driven Orca-style.
    Learned(TrainedModel),
    /// A learned controller behind the QC-guided fallback monitor.
    LearnedFallback {
        /// The controller.
        model: TrainedModel,
        /// Properties monitored at runtime.
        properties: Vec<Property>,
        /// `QC_sat` threshold below which the flow falls back to Cubic.
        threshold: f64,
        /// Verifier components for the runtime certificate.
        n_components: usize,
    },
}

impl Scheme {
    /// Display name for tables.
    pub fn name(&self) -> String {
        match self {
            Scheme::Baseline(n) => n.clone(),
            Scheme::Learned(m) => m.name.clone(),
            Scheme::LearnedFallback {
                model, threshold, ..
            } => {
                format!("{}+fb{:.2}", model.name, threshold)
            }
        }
    }

    /// The scheme as a flow's [`Controller`]: the kernel name, or the
    /// model's policy behind its one monitor — the fallback scheme's
    /// arbitrating monitor, or for a plain learned scheme an observing one
    /// when `qc` asks for per-decision certificates (a fallback scheme's
    /// monitor already certifies every decision).
    pub fn controller(&self, qc: Option<&QcEval>) -> Controller {
        let (model, monitor) = match self {
            Scheme::Baseline(name) => return Controller::Kernel(name.clone()),
            Scheme::Learned(model) => (
                model,
                qc.map(|q| FallbackController::observing(q.properties.clone(), q.n_components)),
            ),
            Scheme::LearnedFallback {
                model,
                properties,
                threshold,
                n_components,
            } => {
                let fb = FallbackController::new(properties.clone(), *threshold, *n_components);
                (model, Some(fb))
            }
        };
        let mut policy = DriverPolicy::new(model.actor.clone());
        if let Some(monitor) = monitor {
            policy = policy.with_fallback(monitor);
        }
        Controller::Orca {
            k: model.k,
            policy: Some(policy),
        }
    }
}

/// Optional per-step certificate evaluation attached to a run.
#[derive(Clone, Debug)]
pub struct QcEval {
    /// Properties to certify at every decision step.
    pub properties: Vec<Property>,
    /// Components per certificate (the paper evaluates with 50).
    pub n_components: usize,
}

/// Metrics from one single-flow run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Scheme name.
    pub scheme: String,
    /// Trace name.
    pub trace: String,
    /// Delivered bytes over link capacity in `[0, ~1]`.
    pub utilization: f64,
    /// Mean queuing delay over per-ACK samples, milliseconds.
    pub avg_qdelay_ms: f64,
    /// 95th-percentile queuing delay, milliseconds.
    pub p95_qdelay_ms: f64,
    /// Mean RTT, milliseconds.
    pub avg_rtt_ms: f64,
    /// 95th-percentile RTT, milliseconds.
    pub p95_rtt_ms: f64,
    /// Average goodput, Mbps.
    pub throughput_mbps: f64,
    /// Packets cumulatively acknowledged over the active interval (the
    /// denominator behind loss-rate style objectives).
    pub acked_packets: u64,
    /// Packets actually lost on the wire (droptail + random impairment);
    /// sender-side declared losses can overcount after timeouts.
    pub losses: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Mean per-step `QC_sat`, when certificate evaluation was requested
    /// and the scheme has a network to certify.
    pub qc_sat: Option<f64>,
    /// Std-dev of per-step `QC_sat` (same availability).
    pub qc_sat_std: Option<f64>,
    /// Fraction of decisions that fell back to Cubic (fallback runs only).
    pub fallback_rate: Option<f64>,
    /// Peak queue occupancy at the flow's bottleneck link over the whole
    /// run, bytes.
    pub peak_queue_bytes: u64,
    /// How many times the fallback monitor *engaged* — transitions from
    /// agent control into Cubic fallback, not fallback decisions (a single
    /// sustained excursion counts once). Fallback runs only.
    pub fallback_engagements: Option<u64>,
}

/// Per-flow metrics from any simulator the caller drove itself, normalized
/// to the flow's **active interval** (start event to departure), not the
/// run length — a flow that joined late or left early is judged over the
/// time it was actually sending. Utilization integrates the capacity of
/// the flow's **bottleneck** link (the slowest hop of its path; the only
/// hop, on a dumbbell) over the same interval. This is the metric kernel
/// behind the scenario-matrix runner.
pub fn flow_metrics(sim: &Simulator, flow: FlowId, scheme: &str) -> RunMetrics {
    let stats = sim.flow_stats(flow);
    let trace = &sim.link_at(sim.bottleneck_of(flow)).trace;
    let (start, end) = stats.active_interval(sim.now());
    let capacity = trace.capacity_bytes(start, end).max(1.0);
    let throughput_mbps = stats.throughput_mbps(sim.now());
    RunMetrics {
        scheme: scheme.to_string(),
        trace: trace.name().to_string(),
        utilization: stats.acked_bytes as f64 / capacity,
        avg_qdelay_ms: stats.mean_queue_delay_ms(),
        p95_qdelay_ms: stats.queue_delay_quantile_ms(0.95),
        avg_rtt_ms: stats.mean_rtt_ms(),
        p95_rtt_ms: stats.rtt_quantile_ms(0.95),
        throughput_mbps,
        acked_packets: stats.acked_packets,
        losses: stats.dropped_packets + stats.random_losses,
        retransmits: stats.retransmits,
        qc_sat: None,
        qc_sat_std: None,
        fallback_rate: None,
        peak_queue_bytes: sim.link_at(sim.bottleneck_of(flow)).queue.peak_bytes(),
        fallback_engagements: None,
    }
}

/// Per-link aggregate metrics over a finished run, one row per link of the
/// topology. On a dumbbell this is a single row describing the bottleneck;
/// on parking-lot and incast topologies it localizes where queueing and
/// drops actually happened, which the scenario matrix surfaces as per-link
/// utilization and queue-occupancy columns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkMetrics {
    /// Index of the link in its [`canopy_netsim::Topology`].
    pub link: usize,
    /// Fraction of the link's trace capacity actually serialized onto the
    /// wire over the whole run (served bytes / capacity bytes).
    pub utilization: f64,
    /// Exact time-averaged queue occupancy in bytes.
    pub mean_queue_bytes: f64,
    /// Peak queue occupancy in bytes.
    pub peak_queue_bytes: u64,
    /// Packets tail-dropped at this link's queue.
    pub drops: u64,
}

/// Computes [`LinkMetrics`] for every link of a finished simulation, in
/// topology order.
pub fn link_metrics(sim: &Simulator) -> Vec<LinkMetrics> {
    let now = sim.now();
    (0..sim.link_count())
        .map(|l| {
            let link = sim.link_at(LinkId(l));
            let capacity = link.trace.capacity_bytes(Time::ZERO, now).max(1.0);
            LinkMetrics {
                link: l,
                utilization: link.served_bytes as f64 / capacity,
                mean_queue_bytes: link.queue.mean_bytes(now),
                peak_queue_bytes: link.queue.peak_bytes(),
                drops: link.queue.drops(),
            }
        })
        .collect()
}

/// Per-flow, per-bin throughput (Mbps) from a shared-bottleneck run — the
/// raw material for the friendliness (Fig. 14) and fairness (Fig. 15)
/// experiments. Steered flows are multiplexed over the shared simulator by
/// a [`DriverPool`], so they honour each spec's observation noise exactly
/// like every other harness, and steered flows that decide at the same
/// instant ride the pool's batched actor path (bitwise identical to serial
/// dispatch, substantially faster at fleet scale). A pool serves one
/// policy, so every steered flow carries the same learned one: a run
/// races one learned scheme against classic kernels, or copies of it.
///
/// Errors on a flow [`world::spawn_all`] rejects, on a steered flow
/// without a policy or with a policy other than the first steered flow's,
/// and on a zero `bin`.
pub fn run_multiflow(
    link: LinkConfig,
    flows: &[FlowSpec],
    duration: Time,
    bin: Time,
) -> Result<Vec<Vec<f64>>, WorldError> {
    if bin == Time::ZERO {
        return Err(WorldError::ZeroBin);
    }
    let mut first = None;
    for (flow, spec) in flows.iter().enumerate() {
        let Controller::Orca { policy, .. } = &spec.controller else {
            continue;
        };
        let policy = policy.as_ref().ok_or(WorldError::NoPolicy { flow })?;
        if !policy.compiles_like(first.get_or_insert(policy)) {
            return Err(WorldError::MixedPolicies { flow });
        }
    }
    let world = world::spawn_all(&Topology::dumbbell(link), flows)?;
    let (mut sim, ids) = (world.sim, world.flows);
    let mut pool: DriverPool = world.drivers.into_iter().collect();

    let bins = (duration.as_nanos() / bin.as_nanos()) as usize;
    let mut series = vec![Vec::with_capacity(bins); flows.len()];
    let mut last_bytes = vec![0u64; flows.len()];
    let mut next_bin = bin;

    loop {
        pool.run_until(&mut sim, next_bin.min(duration));
        if sim.now() >= next_bin {
            for (i, &id) in ids.iter().enumerate() {
                let bytes = sim.flow_stats(id).acked_bytes;
                let mbps = (bytes - last_bytes[i]) as f64 * 8.0 / bin.as_secs_f64() / 1e6;
                series[i].push(mbps);
                last_bytes[i] = bytes;
            }
            next_bin += bin;
        }
        if sim.now() >= duration {
            break;
        }
    }
    Ok(series)
}

/// Friendliness ratio (Fig. 14): the scheme-under-test's throughput over
/// the mean throughput of `n_competitors` Cubic flows sharing the link.
pub fn friendliness_ratio(
    scheme: &Controller,
    n_competitors: usize,
    trace: &BandwidthTrace,
    min_rtt: Time,
    buffer_bdp: f64,
    duration: Time,
) -> Result<f64, WorldError> {
    let link = LinkConfig::with_bdp_buffer(trace.clone(), min_rtt, buffer_bdp);
    let mut flows = vec![FlowSpec::new(scheme.clone(), min_rtt)];
    for _ in 0..n_competitors {
        flows.push(FlowSpec::new(Controller::Kernel("cubic".into()), min_rtt));
    }
    let series = run_multiflow(link, &flows, duration, Time::from_secs(1))?;
    // Skip the first quarter as warm-up.
    let steady = series[0].len() / 4;
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let tested = mean(&series[0][steady..]);
    let competitors: f64 =
        series[1..].iter().map(|s| mean(&s[steady..])).sum::<f64>() / n_competitors.max(1) as f64;
    Ok(if competitors <= 0.0 {
        f64::INFINITY
    } else {
        tested / competitors
    })
}

/// A whole-run Orca-style reward proxy over aggregate [`RunMetrics`]: the
/// same shape as the per-interval training reward (Eq. 2/3 — normalized
/// throughput minus ζ·loss-rate, discounted by delay beyond the β·minRTT
/// forgiveness band), evaluated once on run-level aggregates. Bounded in
/// `[−ζ, 1]`; higher is better. This is the score behind the adversarial
/// reward-gap objective, which hunts for conditions where a learned scheme
/// earns meaningfully less than Cubic on the identical scenario.
pub fn run_reward(m: &RunMetrics, min_rtt_ms: f64) -> f64 {
    let delivered = m.acked_packets + m.losses;
    let loss_rate = if delivered == 0 {
        0.0
    } else {
        m.losses as f64 / delivered as f64
    };
    let thr_norm = m.utilization.clamp(0.0, 1.0);
    crate::orca::RewardConfig::default().reward(thr_norm, loss_rate, m.avg_rtt_ms, min_rtt_ms)
}

/// Jain's fairness index over per-flow throughputs.
pub fn jain_index(throughputs: &[f64]) -> f64 {
    let n = throughputs.len() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_netsim::FlowConfig;

    fn cubic() -> Controller {
        Controller::Kernel("cubic".into())
    }

    #[test]
    fn multiflow_cubic_flows_converge_to_fair_share() {
        let trace = BandwidthTrace::constant("fair", 48e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
        let flows = vec![FlowSpec::new(cubic(), Time::from_millis(20)); 2];
        let series =
            run_multiflow(link, &flows, Time::from_secs(20), Time::from_secs(1)).expect("runs");
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].len(), 20);
        // Steady-state: the two identical Cubic flows share fairly.
        let tail = 10;
        let t1: f64 = series[0][tail..].iter().sum();
        let t2: f64 = series[1][tail..].iter().sum();
        let jain = jain_index(&[t1, t2]);
        assert!(jain > 0.85, "jain {jain}, t1 {t1}, t2 {t2}");
    }

    #[test]
    fn run_reward_orders_good_runs_above_bad_ones() {
        let rtt = Time::from_millis(40);
        let trace = BandwidthTrace::constant("eval", 24e6);
        let mut sim = Simulator::new(LinkConfig::with_bdp_buffer(trace, rtt, 1.0));
        let flow = sim.add_flow(FlowConfig::new(rtt), Box::new(canopy_cc::Cubic::new()));
        sim.run_until(Time::from_secs(8));
        let good = flow_metrics(&sim, flow, "cubic");
        let r = run_reward(&good, 40.0);
        assert!((-5.0..=1.0).contains(&r), "{r}");
        // Starving the same run's throughput must lower the proxy.
        let mut starved = good.clone();
        starved.utilization = 0.1 * good.utilization;
        assert!(run_reward(&starved, 40.0) < r);
        // Piling on losses must lower it too.
        let mut lossy = good.clone();
        lossy.losses = lossy.acked_packets.max(1);
        assert!(run_reward(&lossy, 40.0) < r);
        // Within the β·minRTT forgiveness band delay does not discount.
        let mut snappy = good.clone();
        snappy.avg_rtt_ms = 40.0;
        let mut laggy = good;
        laggy.avg_rtt_ms = 400.0;
        assert!(run_reward(&laggy, 40.0) < run_reward(&snappy, 40.0));
    }

    #[test]
    fn jain_index_properties() {
        assert!((jain_index(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 0.0);
    }

    #[test]
    fn friendliness_of_cubic_vs_cubic_is_near_one() {
        let trace = BandwidthTrace::constant("friendly", 48e6);
        let ratio = friendliness_ratio(
            &cubic(),
            1,
            &trace,
            Time::from_millis(20),
            1.0,
            Time::from_secs(20),
        )
        .expect("runs");
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
    }

    #[test]
    fn multiflow_rejects_an_unknown_kernel_instead_of_panicking() {
        let trace = BandwidthTrace::constant("bad", 48e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
        let flows = [
            FlowSpec::new(cubic(), Time::from_millis(20)),
            FlowSpec::new(Controller::Kernel("reno2".into()), Time::from_millis(20)),
        ];
        let err = run_multiflow(link, &flows, Time::from_secs(1), Time::from_secs(1));
        let unknown = WorldError::UnknownKernel {
            flow: 1,
            name: "reno2".into(),
        };
        assert_eq!(err, Err(unknown));
    }

    #[test]
    fn multiflow_rejects_a_steered_flow_without_a_policy_instead_of_panicking() {
        let trace = BandwidthTrace::constant("bad", 48e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
        let flows = [
            FlowSpec::new(cubic(), Time::from_millis(20)),
            FlowSpec::new(
                Controller::Orca { k: 3, policy: None },
                Time::from_millis(20),
            ),
        ];
        let err = run_multiflow(link, &flows, Time::from_secs(1), Time::from_secs(1));
        assert_eq!(err, Err(WorldError::NoPolicy { flow: 1 }));
        let message = err.unwrap_err().to_string();
        assert_eq!(
            message,
            "flow 1: a self-driving run needs a policy on every steered flow"
        );
    }

    #[test]
    fn multiflow_rejects_a_zero_bin_instead_of_spinning() {
        let trace = BandwidthTrace::constant("bad", 48e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
        let flows = [FlowSpec::new(cubic(), Time::from_millis(20))];
        let err = run_multiflow(link, &flows, Time::from_micros(10), Time::ZERO);
        assert_eq!(err, Err(WorldError::ZeroBin));
    }
}
