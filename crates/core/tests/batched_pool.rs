//! Equivalence suite for the `DriverPool` dispatch engine.
//!
//! The pool (prepare every same-instant decision, group by compiled
//! policy, one batched forward and at most one `CertPlan` pass per group,
//! apply in insertion order) must be **bitwise** identical to deciding
//! flow by flow with per-call certification. The pool is the only engine
//! in the crate, so the oracle is rebuilt here from public primitives
//! only: the earliest `next_decision`, then for each due driver in
//! insertion order `prepare_decision` → `Mlp::forward` → the monitor's
//! `Verifier::certify_all` → `apply_decision`. The suite races the two
//! over plain × observed × arbitrated policies × noise × topology ×
//! arrival-pattern × mid-run hot-swap combinations and compares every
//! observable bit: decision counts, bookkeeping windows, the per-decision
//! certificate stream, fallback monitor statistics, state vectors, and
//! simulator flow stats.
//!
//! Thread invariance: this binary runs in CI under a `CANOPY_THREADS`
//! matrix (1 and 4), so the equivalences here are also pinned at both
//! thread counts — batching must not introduce any thread-count
//! sensitivity.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use canopy_core::driver::{DriverConfig, DriverPolicy, DriverPool, OrcaDriver};
use canopy_core::env::NoiseConfig;
use canopy_core::obs::StateLayout;
use canopy_core::property::{Property, PropertyParams};
use canopy_core::runtime::FallbackController;
use canopy_netsim::{BandwidthTrace, FlowConfig, LinkConfig, Simulator, Time, Topology};
use canopy_nn::{Activation, Mlp};

const K: usize = 3;
/// Components of every monitor's certificate.
const COMPONENTS: usize = 3;

#[derive(Clone, Copy, Debug)]
enum Topo {
    Single,
    ParkingLot,
    Incast,
}

#[derive(Clone, Copy, Debug)]
enum PolicyKind {
    Plain,
    /// QC evaluation: an observing monitor, which never falls back.
    Observed,
    /// The runtime fallback: an arbitrating monitor.
    Arbitrated,
}

#[derive(Clone, Debug)]
struct Scenario {
    flows: usize,
    topo: Topo,
    policy: PolicyKind,
    noisy: bool,
    /// Synchronized arrivals (every decision instant is a full batch) vs
    /// staggered arrivals and mixed RTTs (partial overlaps).
    aligned: bool,
    /// Two distinct actors instead of one shared policy — exercises the
    /// per-batch grouping.
    mixed_actors: bool,
    /// One flow departs mid-run — exercises heap entry retirement, inside
    /// a batch when arrivals are aligned.
    departing: bool,
    /// The last flow's actor is hot-swapped at 300 ms — exercises
    /// re-interning (no stale compiled policy).
    swap: bool,
    duration: Time,
}

fn actor(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(
        &mut rng,
        &[StateLayout::new(K).dim(), 8, 1],
        Activation::Tanh,
    )
}

fn link(name: &str, rate_bps: f64) -> LinkConfig {
    LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant(name, rate_bps),
        Time::from_millis(20),
        1.0,
    )
}

/// The scenario's simulator and its self-driving drivers, in insertion
/// order, not yet owned by any engine.
fn build(s: &Scenario) -> (Simulator, Vec<OrcaDriver>) {
    let bottleneck = link("bp", 96e6);
    let mut sim = match s.topo {
        Topo::Single => Simulator::new(bottleneck.clone()),
        Topo::ParkingLot => Simulator::with_topology(Topology::parking_lot(bottleneck.clone(), 3)),
        Topo::Incast => {
            Simulator::with_topology(Topology::incast(bottleneck.clone(), link("leaf", 48e6), 3))
        }
    };
    let mut drivers = Vec::new();
    for i in 0..s.flows {
        let (start, min_rtt) = if s.aligned {
            (Time::ZERO, Time::from_millis(20))
        } else {
            (
                Time::from_millis(7 * i as u64),
                Time::from_millis(20 + 10 * (i % 2) as u64),
            )
        };
        let stop = (s.departing && i == 0).then(|| Time::from_millis(300));
        let mut flow_cfg = FlowConfig::new(min_rtt)
            .starting_at(start)
            .without_samples();
        if let Some(t) = stop {
            flow_cfg = flow_cfg.stopping_at(t);
        }
        flow_cfg = match s.topo {
            Topo::Single => flow_cfg,
            Topo::ParkingLot => flow_cfg.on_path(if i % 2 == 0 {
                Topology::parking_lot_long_path(3)
            } else {
                Topology::parking_lot_hop_path(i, 3)
            }),
            Topo::Incast => flow_cfg.on_path(Topology::incast_path(i, 3)),
        };
        let flow = sim.add_flow(flow_cfg, Box::new(canopy_cc::Cubic::new()));
        let mut cfg = DriverConfig::new(min_rtt, K).starting_at(start);
        cfg.stop = stop;
        if s.noisy {
            cfg.noise = Some(NoiseConfig {
                mu: 0.2,
                seed: 40 + i as u64,
            });
        }
        let actor_seed = if s.mixed_actors {
            100 + (i % 2) as u64
        } else {
            100
        };
        let mut policy = DriverPolicy::new(actor(actor_seed));
        let props = Property::shallow_set(&PropertyParams::default());
        let monitor = match s.policy {
            PolicyKind::Plain => None,
            PolicyKind::Observed => Some(FallbackController::observing(props, COMPONENTS)),
            PolicyKind::Arbitrated => Some(FallbackController::new(props, 0.6, COMPONENTS)),
        };
        if let Some(monitor) = monitor {
            policy = policy.with_fallback(monitor);
        }
        drivers.push(OrcaDriver::new(&cfg, &bottleneck, flow).with_policy(policy));
    }
    (sim, drivers)
}

fn build_pool(s: &Scenario) -> (Simulator, DriverPool) {
    let (sim, drivers) = build(s);
    let mut pool = DriverPool::new();
    for driver in drivers {
        pool.push(driver);
    }
    (sim, pool)
}

/// Every observable bit of a finished run.
type Fingerprint = Vec<(
    u64,         // decisions
    u64,         // prev_cwnd bits
    u64,         // prev_action bits
    Vec<u64>,    // QC_sat stream, bitwise
    Option<u64>, // fallback rate bits
    Option<u64>, // fallback engagements
    Vec<u64>,    // final state vector, bitwise
    u64,         // acked packets
    u64,         // acked bytes
)>;

fn fingerprint(sim: &Simulator, drivers: &[OrcaDriver]) -> Fingerprint {
    drivers
        .iter()
        .map(|d| {
            let stats = sim.flow_stats(d.flow());
            (
                d.decisions(),
                d.prev_cwnd().to_bits(),
                d.prev_action().to_bits(),
                d.fallback_qc_values().iter().map(|v| v.to_bits()).collect(),
                d.fallback_rate().map(f64::to_bits),
                d.fallback_engagements(),
                d.state().iter().map(|v| v.to_bits()).collect(),
                stats.acked_packets,
                stats.acked_bytes,
            )
        })
        .collect()
}

/// When the scenario swaps the last flow's actor, and to what.
const SWAP_AT: Time = Time::from_millis(300);
const SWAP_SEED: u64 = 300;

fn run_pool(s: &Scenario) -> Fingerprint {
    let (mut sim, mut pool) = build_pool(s);
    if s.swap {
        pool.run_until(&mut sim, SWAP_AT);
        pool.swap_actor(s.flows - 1, actor(SWAP_SEED));
    }
    pool.run_until(&mut sim, s.duration);
    assert_eq!(sim.now(), s.duration);
    fingerprint(&sim, pool.drivers())
}

/// The oracle's `run_until`: every decision scheduled strictly before
/// `horizon`, earliest first, same-instant ties in insertion order, each
/// one computed on its own through the per-call entry points.
fn oracle_run_until(sim: &mut Simulator, drivers: &mut [OrcaDriver], horizon: Time) {
    let due = |drivers: &[OrcaDriver]| {
        let next = drivers.iter().map(OrcaDriver::next_decision).min();
        next.filter(|&t| t < horizon)
    };
    while let Some(next) = due(drivers) {
        sim.run_until(next);
        for d in drivers.iter_mut().filter(|d| d.next_decision() == next) {
            let Some(prepared) = d.prepare_decision(sim) else {
                continue;
            };
            let policy = d.policy().expect("self-driving");
            let action = policy.actor().forward(&prepared.ctx.state)[0];
            let qc_sat = policy.monitor().map(|m| {
                let ctx = &prepared.ctx;
                m.verifier()
                    .certify_all(policy.actor(), m.properties(), d.layout(), ctx)
                    .1
            });
            d.apply_decision(sim, &prepared, action, qc_sat);
        }
    }
    sim.run_until(horizon);
}

fn run_oracle(s: &Scenario) -> Fingerprint {
    let (mut sim, mut drivers) = build(s);
    if s.swap {
        oracle_run_until(&mut sim, &mut drivers, SWAP_AT);
        drivers[s.flows - 1].swap_actor(actor(SWAP_SEED));
    }
    oracle_run_until(&mut sim, &mut drivers, s.duration);
    assert_eq!(sim.now(), s.duration);
    fingerprint(&sim, &drivers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pool_dispatch_is_bitwise_identical_to_the_per_call_oracle(
        flows in 2usize..5,
        topo_pick in 0usize..3,
        policy_pick in 0usize..3,
        noisy in [false, true],
        aligned in [false, true],
        mixed_actors in [false, true],
        departing in [false, true],
        swap in [false, true],
    ) {
        let s = Scenario {
            flows,
            topo: [Topo::Single, Topo::ParkingLot, Topo::Incast][topo_pick],
            policy: [
                PolicyKind::Plain,
                PolicyKind::Observed,
                PolicyKind::Arbitrated,
            ][policy_pick],
            noisy,
            aligned,
            mixed_actors,
            departing,
            swap,
            duration: Time::from_millis(600),
        };
        prop_assert_eq!(run_pool(&s), run_oracle(&s), "engines diverged on {:?}", s);
    }
}

/// The densest regime — one shared policy, synchronized arrivals, QC on
/// every decision — pinned as a plain test so it always runs.
#[test]
fn synchronized_qc_fleet_matches_the_oracle_bitwise() {
    let s = Scenario {
        flows: 6,
        topo: Topo::Single,
        policy: PolicyKind::Observed,
        noisy: false,
        aligned: true,
        mixed_actors: false,
        departing: false,
        swap: false,
        duration: Time::from_secs(1),
    };
    let batched = run_pool(&s);
    assert_eq!(batched, run_oracle(&s));
    // Sanity: decisions actually fired (49 per flow at a 20 ms MI less
    // the strict-horizon boundary).
    assert!(batched.iter().all(|d| d.0 == 49));
}

#[test]
fn fallback_arbitration_matches_the_oracle_bitwise() {
    let s = Scenario {
        flows: 4,
        topo: Topo::ParkingLot,
        policy: PolicyKind::Arbitrated,
        noisy: true,
        aligned: true,
        mixed_actors: true,
        departing: true,
        swap: true,
        duration: Time::from_millis(800),
    };
    assert_eq!(run_pool(&s), run_oracle(&s));
}

/// A monitored policy pays exactly one certification pass per decision,
/// observing or arbitrating, and a plain one none: the certify span's item
/// count is the number of (decision, pass) pairs.
#[test]
fn a_monitored_decision_is_certified_once() {
    use canopy_telemetry::{FlightRecorder, SpanStage};
    use std::cell::RefCell;
    use std::rc::Rc;

    for (policy, passes) in [
        (PolicyKind::Plain, 0),
        (PolicyKind::Observed, 1),
        (PolicyKind::Arbitrated, 1),
    ] {
        let s = Scenario {
            flows: 4,
            topo: Topo::Single,
            policy,
            noisy: true,
            aligned: true,
            mixed_actors: true,
            departing: true,
            swap: true,
            duration: Time::from_millis(500),
        };
        let (mut sim, mut pool) = build_pool(&s);
        let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
        pool.set_recorder(Some(recorder.clone()));
        pool.run_until(&mut sim, s.duration);
        let decisions: u64 = pool.drivers().iter().map(|d| d.decisions()).sum();
        let totals = recorder.borrow().span_stage_totals();
        let certified = totals
            .iter()
            .find(|t| t.0 == SpanStage::Certify)
            .expect("stage");
        assert_eq!(certified.2, passes * decisions, "{policy:?}");
        let streamed: u64 = pool
            .drivers()
            .iter()
            .map(|d| d.fallback_qc_values().len() as u64)
            .sum();
        assert_eq!(streamed, passes * decisions, "{policy:?}");
    }
}

/// Batched runs narrate their dispatches: sizes recorded per batch sum to
/// the total decision count, and the `decisions_per_batch` histogram in
/// the registry sees one observation per batch.
#[test]
fn batched_runs_emit_consistent_batch_telemetry() {
    use canopy_telemetry::FlightRecorder;
    use std::cell::RefCell;
    use std::rc::Rc;

    let s = Scenario {
        flows: 5,
        topo: Topo::Single,
        policy: PolicyKind::Plain,
        noisy: false,
        aligned: true,
        mixed_actors: true,
        departing: false,
        swap: false,
        duration: Time::from_millis(400),
    };
    let (mut sim, mut pool) = build_pool(&s);
    let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
    pool.set_recorder(Some(recorder.clone()));
    pool.run_until(&mut sim, s.duration);

    let rec = recorder.borrow();
    let batches = rec.batches();
    assert!(!batches.is_empty());
    let recorded: u64 = batches.iter().map(|b| b.size).sum();
    let executed: u64 = pool.drivers().iter().map(|d| d.decisions()).sum();
    assert_eq!(recorded, executed, "batch sizes must cover every decision");
    // Two distinct actors among five synchronized flows: every full batch
    // splits into exactly two policy groups.
    assert!(batches.iter().all(|b| b.groups == 2 && b.size == 5));
    let hist = rec
        .registry()
        .histogram("decisions_per_batch")
        .expect("histogram registered");
    assert_eq!(hist.count(), batches.len() as u64);
    assert_eq!(
        rec.registry().counter("batches_total"),
        batches.len() as u64
    );
}
