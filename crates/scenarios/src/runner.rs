//! The scenario matrix executor.
//!
//! Runs every `Scheme × Scenario` cell as an independent deterministic
//! simulation, fanned over the `canopy_core::pool` worker pool, and
//! aggregates per-scenario metrics into a stable-schema report. Results
//! are bitwise identical at any `CANOPY_THREADS` because each cell owns
//! all of its state (simulator, RNG streams, verifier) and the pool
//! preserves job order.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use canopy_core::driver::DriverPool;
use canopy_core::eval::{
    flow_metrics, jain_index, link_metrics, LinkMetrics, QcEval, RunMetrics, Scheme,
};
use canopy_core::{pool, world};
use canopy_netsim::{FlowId, Time};
use canopy_telemetry::{Artifact, SharedRecorder, LINK_CADENCE_NS};

use crate::episode::episode_spec;
use crate::spec::{ScenarioSpec, SpecError};

/// Per-scenario evaluation results for one scheme.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioMetrics {
    /// Scenario name.
    pub scenario: String,
    /// The family it was generated from.
    pub family: String,
    /// The generator seed.
    pub seed: u64,
    /// The scheme under test.
    pub scheme: String,
    /// The topology label (`dumbbell`, `parking-lot-3`, `incast-8`).
    pub topology: String,
    /// Total flows that took part (primary + cross traffic).
    pub flows: usize,
    /// The primary flow's metrics, normalized to its active interval.
    pub primary: RunMetrics,
    /// Jain fairness over all flows' active-interval throughputs — only
    /// meaningful when the scenario actually shares the bottleneck, so
    /// single-flow scenarios report `None` instead of a trivial 1.0.
    pub jain_fairness: Option<f64>,
    /// Jain fairness *across hop counts*: flows are grouped by how many
    /// links their path crosses, each group contributes its mean
    /// throughput, and the index is taken over the group means. `1.0`
    /// means path length costs nothing; a parking lot's RTT unfairness
    /// shows up as a value well below it. Present only when at least two
    /// distinct hop counts actually ran (so dumbbells report `None`).
    pub hop_fairness: Option<f64>,
    /// Each cross flow's active-interval throughput, Mbps (spec order).
    pub cross_throughput_mbps: Vec<f64>,
    /// Per-link utilization and queue occupancy, in topology order.
    pub links: Vec<LinkMetrics>,
}

/// Runs one scheme over one scenario.
///
/// The primary flow carries the scheme under test (a classic kernel, or a
/// learned controller driven Orca-style on its monitor clock, optionally
/// behind the QC fallback monitor and under the spec's observation noise);
/// cross-traffic flows arrive and depart on the spec's schedule. `qc`
/// puts a plain learned scheme behind an observing monitor, which
/// certifies every decision and never falls back (fallback schemes always
/// report their own monitor's `QC_sat`).
pub fn run_scenario(
    scheme: &Scheme,
    spec: &ScenarioSpec,
    qc: Option<&QcEval>,
) -> Result<ScenarioMetrics, SpecError> {
    run_scenario_inner(scheme, spec, qc, None)
}

/// [`run_scenario`] with a flight recorder attached: the simulator emits
/// per-link samples every [`LINK_CADENCE_NS`] and the learned driver (when
/// the scheme has one) records every decision, the link samples reaching
/// the recorder in sim-time order between decisions (the pool drains them
/// before each dispatch). With a no-op recorder the metrics are
/// bitwise identical to [`run_scenario`] — sampling only reads link state
/// and recording happens after each decision is applied.
pub fn run_scenario_recorded(
    scheme: &Scheme,
    spec: &ScenarioSpec,
    qc: Option<&QcEval>,
    recorder: &SharedRecorder,
) -> Result<ScenarioMetrics, SpecError> {
    run_scenario_inner(scheme, spec, qc, Some(recorder))
}

fn run_scenario_inner(
    scheme: &Scheme,
    spec: &ScenarioSpec,
    qc: Option<&QcEval>,
    recorder: Option<&SharedRecorder>,
) -> Result<ScenarioMetrics, SpecError> {
    // The scenario as an episode (`k` rides on the scheme's controller)
    // with the scheme under test in control of its first flow — the world
    // `episode_env` steps for the trainer. Only the flow under test keeps
    // per-ACK samples, for its delay percentiles.
    let episode = episode_spec(spec, 0, None)?;
    let flows = episode.flows(scheme.controller(qc), true);
    let world = world::spawn_all(&episode.topology, &flows)?;
    let (mut sim, ids) = (world.sim, world.flows);
    let (primary, cross_ids) = (ids[0], &ids[1..]);
    if recorder.is_some() {
        sim.enable_link_sampling(Time::from_nanos(LINK_CADENCE_NS));
    }

    // Even one learned flow dispatches through the pool, so every harness
    // shares the batched engine (and its telemetry); under a classic
    // kernel the pool is empty and `run_until` just runs the simulator to
    // the horizon, draining link samples on the way.
    let mut pool: DriverPool = world.drivers.into_iter().collect();
    pool.set_recorder(recorder.cloned());
    pool.run_until(&mut sim, spec.duration);
    // The scheme's monitor — a fallback scheme's, or the observing one
    // `qc` gave a plain learned scheme — certified every decision.
    let driver = pool.drivers().first();
    let qc_values = driver.map_or(&[][..], |d| d.fallback_qc_values());

    let mut metrics = flow_metrics(&sim, primary, &scheme.name());
    if !qc_values.is_empty() {
        let n = qc_values.len() as f64;
        let mean = qc_values.iter().sum::<f64>() / n;
        let var = qc_values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        metrics.qc_sat = Some(mean);
        metrics.qc_sat_std = Some(var.sqrt());
    }
    metrics.fallback_rate = driver.and_then(|d| d.fallback_rate());
    metrics.fallback_engagements = driver.and_then(|d| d.fallback_engagements());

    // Fairness over every flow that actually ran — the flow under test
    // always, a cross flow once it has been active — each share normalized
    // to its own active interval by the shared FlowStats rule. A scenario
    // without cross traffic has no sharing to score, so the column is
    // absent rather than a trivial 1.0.
    let now = sim.now();
    let mbps = |f: &FlowId| sim.flow_stats(*f).throughput_mbps(now);
    let ran = |f: &&FlowId| **f == primary || sim.flow_stats(**f).active_duration(now) > Time::ZERO;
    let cross_throughput_mbps: Vec<f64> = cross_ids.iter().map(mbps).collect();
    let jain_fairness = (!cross_ids.is_empty())
        .then(|| jain_index(&ids.iter().filter(ran).map(mbps).collect::<Vec<f64>>()));

    // Cross-hop fairness: group every flow that ran by its path length and
    // score Jain over the per-group mean throughputs. Only meaningful when
    // path lengths actually differ (a dumbbell has one group).
    let mut by_hops: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for f in ids.iter().filter(ran) {
        by_hops
            .entry(sim.flow_path(*f).len())
            .or_default()
            .push(mbps(f));
    }
    let hop_fairness = (by_hops.len() >= 2).then(|| {
        let means: Vec<f64> = by_hops
            .values()
            .map(|g| g.iter().sum::<f64>() / g.len() as f64)
            .collect();
        jain_index(&means)
    });

    Ok(ScenarioMetrics {
        scenario: spec.name.clone(),
        family: spec.family.clone(),
        seed: spec.seed,
        scheme: scheme.name(),
        topology: spec.topology.label(),
        flows: 1 + spec.cross_traffic.len(),
        primary: metrics,
        jain_fairness,
        hop_fairness,
        cross_throughput_mbps,
        links: link_metrics(&sim),
    })
}

/// Runs the full `schemes × specs` matrix on the worker pool, returning
/// results in scheme-major order (every scenario for the first scheme,
/// then the second, ...). Identical output at any thread count.
pub fn run_matrix(
    schemes: &[Scheme],
    specs: &[ScenarioSpec],
    qc: Option<&QcEval>,
) -> Result<Vec<ScenarioMetrics>, SpecError> {
    run_matrix_with_threads(schemes, specs, qc, None)
}

/// [`run_matrix`] with an explicit worker-count override (`None` consults
/// `CANOPY_THREADS`/available parallelism), for callers comparing thread
/// counts inside one process without mutating the environment.
pub fn run_matrix_with_threads(
    schemes: &[Scheme],
    specs: &[ScenarioSpec],
    qc: Option<&QcEval>,
    threads: Option<usize>,
) -> Result<Vec<ScenarioMetrics>, SpecError> {
    let jobs: Vec<(&Scheme, &ScenarioSpec)> = schemes
        .iter()
        .flat_map(|s| specs.iter().map(move |sp| (s, sp)))
        .collect();
    let results = pool::parallel_map(
        &jobs,
        pool::resolve_threads(threads).min(jobs.len().max(1)),
        |(scheme, spec)| run_scenario(scheme, spec, qc),
    );
    results.into_iter().collect()
}

/// The aggregate output of a matrix run (`SCENARIOS_report.json`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Schema tag, `canopy-scenarios-report/v4`.
    pub schema: String,
    /// Families covered, in run order.
    pub families: Vec<String>,
    /// Schemes covered, in run order.
    pub schemes: Vec<String>,
    /// One entry per `Scheme × Scenario` cell, scheme-major.
    pub results: Vec<ScenarioMetrics>,
}

impl ScenarioReport {
    /// Builds the report from matrix results.
    pub fn new(results: Vec<ScenarioMetrics>) -> ScenarioReport {
        let mut families: Vec<String> = Vec::new();
        let mut schemes: Vec<String> = Vec::new();
        for r in &results {
            if !families.contains(&r.family) {
                families.push(r.family.clone());
            }
            if !schemes.contains(&r.scheme) {
                schemes.push(r.scheme.clone());
            }
        }
        ScenarioReport {
            schema: Self::SCHEMA.to_string(),
            families,
            schemes,
            results,
        }
    }
}

impl Artifact for ScenarioReport {
    /// Bumped when [`ScenarioMetrics`] fields change.
    /// v2: `jain_fairness` became nullable (present exactly for multi-flow
    /// scenarios) and the primary metrics gained `acked_packets`.
    /// v3: cells gained a `topology` label, per-link `links` columns
    /// (utilization, mean/peak queue bytes, drops — one row per link in
    /// topology order), and nullable `hop_fairness` (Jain over
    /// per-hop-count mean throughputs, present exactly when ≥ 2 distinct
    /// path lengths ran). Dumbbell cells keep their v2 metric values.
    /// v4: primary metrics gained `peak_queue_bytes` (peak bottleneck-queue
    /// occupancy over the run) and nullable `fallback_engagements` (agent →
    /// Cubic transitions, present exactly for fallback schemes).
    const SCHEMA: &'static str = "canopy-scenarios-report/v4";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Basic metric invariants — the gate the CI smoke job runs against
    /// freshly generated reports.
    fn check(&self) -> Result<(), String> {
        if self.results.is_empty() {
            return Err("report contains no results".into());
        }
        let mut cells: Vec<(&str, &str)> = Vec::with_capacity(self.results.len());
        for r in &self.results {
            let tag = format!("{} × {}", r.scheme, r.scenario);
            if r.scenario.is_empty() || r.family.is_empty() || r.scheme.is_empty() {
                return Err(format!("{tag}: empty identity field"));
            }
            if r.flows == 0 {
                return Err(format!("{tag}: zero flows"));
            }
            cells.push((r.scheme.as_str(), r.scenario.as_str()));
            let finite = [
                r.primary.utilization,
                r.primary.throughput_mbps,
                r.primary.avg_qdelay_ms,
                r.primary.p95_qdelay_ms,
            ];
            if finite.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(format!("{tag}: non-finite or negative metric"));
            }
            match r.jain_fairness {
                Some(j) if r.flows > 1 && !(0.0..=1.0).contains(&j) => {
                    return Err(format!("{tag}: Jain index {j} outside [0,1]"));
                }
                Some(_) if r.flows == 1 => {
                    return Err(format!("{tag}: Jain index on a single-flow scenario"));
                }
                None if r.flows > 1 => {
                    return Err(format!("{tag}: multi-flow scenario missing Jain index"));
                }
                _ => {}
            }
            if r.topology.is_empty() {
                return Err(format!("{tag}: empty topology label"));
            }
            if let Some(h) = r.hop_fairness {
                if !(0.0..=1.0).contains(&h) {
                    return Err(format!("{tag}: hop fairness {h} outside [0,1]"));
                }
                if r.topology == "dumbbell" {
                    return Err(format!("{tag}: hop fairness on a single-hop topology"));
                }
            }
            if r.links.is_empty() {
                return Err(format!("{tag}: no per-link columns"));
            }
            for lm in &r.links {
                let ok = lm.utilization.is_finite()
                    && lm.utilization >= 0.0
                    && lm.mean_queue_bytes.is_finite()
                    && lm.mean_queue_bytes >= 0.0;
                if !ok {
                    return Err(format!("{tag}: link {} has a bad column", lm.link));
                }
            }
        }
        // A duplicated cell means the same (scheme, scenario) ran twice —
        // the degenerate matrix a duplicated seed list would produce.
        cells.sort_unstable();
        if let Some(w) = cells.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate cell {} × {}", w[0].0, w[0].1));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Family};
    use crate::spec::CrossFlow;
    use canopy_netsim::link::{ImpairmentPhase, ImpairmentSchedule};

    fn short(mut spec: ScenarioSpec) -> ScenarioSpec {
        spec.duration = Time::from_secs(4);
        spec
    }

    #[test]
    fn baseline_runs_a_generated_scenario() {
        let spec = short(generate(Family::FlashCrowd, 1));
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).expect("runs");
        assert_eq!(m.scenario, spec.name);
        assert_eq!(m.flows, 1 + spec.cross_traffic.len());
        assert!(m.primary.throughput_mbps > 0.0, "{m:?}");
        let jain = m.jain_fairness.expect("multi-flow scenarios score Jain");
        assert!((0.0..=1.0).contains(&jain));
        assert_eq!(m.cross_throughput_mbps.len(), spec.cross_traffic.len());

        // A single-flow scenario has nothing to share, so no Jain column.
        let solo = ScenarioSpec::simple("solo", 24e6, Time::from_millis(30), Time::from_secs(4));
        let sm = run_scenario(&Scheme::Baseline("cubic".into()), &solo, None).expect("runs");
        assert!(sm.jain_fairness.is_none());
    }

    fn constant(buffer_bdp: f64, secs: u64) -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::simple("eval", 24e6, Time::from_millis(40), Time::from_secs(secs));
        spec.buffer_bdp = buffer_bdp;
        spec
    }

    #[test]
    fn baseline_metrics_are_sane() {
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &constant(1.0, 8), None)
            .expect("runs")
            .primary;
        assert!(m.utilization > 0.5 && m.utilization <= 1.05, "{m:?}");
        assert!(m.p95_rtt_ms >= m.avg_rtt_ms * 0.5);
        assert!(m.throughput_mbps > 10.0);
        assert!(m.qc_sat.is_none());

        // An unknown kernel is an error value, not a panic.
        let err = run_scenario(&Scheme::Baseline("reno2".into()), &constant(1.0, 8), None)
            .expect_err("unknown scheme");
        assert!(err.0.contains("flow 0: unknown kernel `reno2`"), "{err}");
    }

    #[test]
    fn cubic_bufferbloats_deep_buffers_more_than_vegas() {
        let p95 = |name: &str| {
            run_scenario(&Scheme::Baseline(name.into()), &constant(5.0, 10), None)
                .expect("runs")
                .primary
                .p95_qdelay_ms
        };
        let (cubic, vegas) = (p95("cubic"), p95("vegas"));
        assert!(cubic > vegas, "cubic {cubic} vs vegas {vegas}");
    }

    #[test]
    fn cross_traffic_depresses_primary_share() {
        // A scenario with four competitors sharing the whole run must leave
        // the primary with a meaningfully smaller share than a solo run.
        let mut solo =
            ScenarioSpec::simple("solo", 48e6, Time::from_millis(20), Time::from_secs(6));
        let mut crowded = solo.clone();
        crowded.name = "crowded".into();
        for _ in 0..4 {
            crowded.cross_traffic.push(CrossFlow {
                cc: "cubic".into(),
                start: Time::ZERO,
                stop: None,
                min_rtt: Time::from_millis(20),
            });
        }
        solo.buffer_bdp = 1.0;
        let cubic = Scheme::Baseline("cubic".into());
        let a = run_scenario(&cubic, &solo, None).unwrap();
        let b = run_scenario(&cubic, &crowded, None).unwrap();
        assert!(
            b.primary.throughput_mbps < 0.6 * a.primary.throughput_mbps,
            "crowded {} vs solo {}",
            b.primary.throughput_mbps,
            a.primary.throughput_mbps
        );
    }

    #[test]
    fn matrix_is_thread_invariant_and_ordered() {
        let specs: Vec<ScenarioSpec> = [Family::BandwidthCliff, Family::CrossTrafficChurn]
            .iter()
            .flat_map(|&f| (0..2).map(move |s| short(generate(f, s))))
            .collect();
        let schemes = [
            Scheme::Baseline("cubic".into()),
            Scheme::Baseline("bbr".into()),
        ];
        let run = |threads: usize| {
            run_matrix_with_threads(&schemes, &specs, None, Some(threads)).expect("matrix runs")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.len(), schemes.len() * specs.len());
        let to_json = |v: &Vec<ScenarioMetrics>| serde_json::to_string(v).expect("serializes");
        assert_eq!(to_json(&seq), to_json(&par), "thread-count variance");
        // Scheme-major order.
        assert!(seq[..specs.len()].iter().all(|m| m.scheme == "cubic"));
        assert!(seq[specs.len()..].iter().all(|m| m.scheme == "bbr"));
    }

    /// Generates `(family, seed)` with the experiment horizon capped at
    /// decode time, so fractional arrival times stay inside the run —
    /// unlike [`short`], which truncates after the schedule is resolved.
    fn capped(family: Family, seed: u64, secs: u64) -> ScenarioSpec {
        let mut rng = crate::gen::rng_for(family, seed);
        crate::params::draw(family, seed, &mut rng, Some(Time::from_secs(secs)))
    }

    #[test]
    fn multi_hop_scenarios_fill_the_new_columns() {
        // A parking lot: the long flow crosses every hop against per-hop
        // competitors, so hop fairness must exist and sit below 1, and the
        // short-hop flows must outrun the long one (RTT unfairness).
        let spec = capped(Family::ParkingLotUnfairness, 0, 6);
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).expect("runs");
        assert!(m.topology.starts_with("parking-lot-"), "{}", m.topology);
        assert!(m.links.len() >= 2, "one column per hop: {:?}", m.links);
        let hop = m.hop_fairness.expect("distinct hop counts ran");
        assert!((0.0..=1.0).contains(&hop));
        let best_cross = m
            .cross_throughput_mbps
            .iter()
            .cloned()
            .fold(f64::NAN, f64::max);
        assert!(
            best_cross > m.primary.throughput_mbps,
            "short-hop {best_cross} vs long-hop {}",
            m.primary.throughput_mbps
        );

        // An incast burst: the root (link 0) is where the pain lands.
        let spec = capped(Family::IncastBurst, 0, 6);
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).expect("runs");
        assert!(m.topology.starts_with("incast-"), "{}", m.topology);
        assert!(m.links.len() >= 3);
        let root = &m.links[0];
        assert!(
            m.links[1..]
                .iter()
                .all(|l| root.mean_queue_bytes >= l.mean_queue_bytes),
            "root must queue hardest: {:?}",
            m.links
        );

        // Dumbbell cells keep the columns trivial: one link, no hop split.
        let spec = short(generate(Family::FlashCrowd, 0));
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).expect("runs");
        assert_eq!(m.topology, "dumbbell");
        assert_eq!(m.links.len(), 1);
        assert!(m.hop_fairness.is_none());
    }

    #[test]
    fn impairment_phases_register_in_metrics() {
        let mut spec =
            ScenarioSpec::simple("lossy", 24e6, Time::from_millis(30), Time::from_secs(6));
        spec.impairments = Some(ImpairmentSchedule::new(
            vec![ImpairmentPhase {
                start: Time::from_secs(1),
                random_loss: 0.03,
                max_jitter: Time::ZERO,
            }],
            13,
        ));
        let m = run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).unwrap();
        assert!(m.primary.losses > 0, "scheduled loss must register: {m:?}");
    }

    #[test]
    fn learned_schemes_report_qc_and_fallback() {
        use canopy_core::models::{train_model, ModelKind, TrainBudget};
        use canopy_core::property::{Property, PropertyParams};
        let model = train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model;
        // Jitter-storm specs carry observation noise, exercising the noisy
        // observation path of the learned driver.
        let spec = short(generate(Family::JitterStorm, 0));
        assert!(spec.noise.is_some());
        let m = run_scenario(
            &Scheme::LearnedFallback {
                model: model.clone(),
                properties: Property::shallow_set(&PropertyParams::default()),
                threshold: 0.5,
                n_components: 5,
            },
            &spec,
            None,
        )
        .expect("fallback scheme runs");
        let qc = m.primary.qc_sat.expect("fallback runs report QC_sat");
        assert!((0.0..=1.0).contains(&qc), "{qc}");
        let rate = m.primary.fallback_rate.expect("fallback rate present");
        assert!((0.0..=1.0).contains(&rate), "{rate}");
        assert!(m.primary.throughput_mbps > 0.0);

        let plain = Scheme::Learned(model);
        let m = run_scenario(&plain, &spec, None).expect("plain runs");
        assert!(m.primary.qc_sat.is_none());
        assert!(m.primary.fallback_rate.is_none());
        assert!(m.primary.throughput_mbps > 0.0);

        // A plain learned scheme certifies per decision only on request.
        let qc = QcEval {
            properties: Property::shallow_set(&PropertyParams::default()),
            n_components: 10,
        };
        let m = run_scenario(&plain, &spec, Some(&qc)).expect("certified run");
        let qc_sat = m.primary.qc_sat.expect("qc requested");
        assert!((0.0..=1.0).contains(&qc_sat), "{qc_sat}");
        assert!(m.primary.fallback_rate.is_none());
    }

    #[test]
    fn report_validates_and_round_trips() {
        let spec = short(generate(Family::BufferSweep, 2));
        let results = run_matrix(&[Scheme::Baseline("cubic".into())], &[spec], None).expect("runs");
        let report = ScenarioReport::new(results);
        report.validate().expect("fresh report is valid");
        let text = report.to_json();
        let back = ScenarioReport::from_json(&text).expect("parses");
        assert_eq!(back.to_json(), text);
        back.validate().expect("parsed report is valid");

        let mut broken = back;
        broken.schema = "canopy-scenarios-report/v3".into();
        let err = broken.validate().expect_err("the previous tag is refused");
        assert!(err.to_string().contains("schema mismatch"), "{err}");
    }
}
