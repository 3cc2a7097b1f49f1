//! Equivalence suite for the `DriverPool` dispatch engine.
//!
//! The pool (prepare every same-instant decision, one batched forward and
//! at most one `CertPlan` pass of its one compiled policy, apply in
//! insertion order) must be **bitwise** identical to deciding flow by flow
//! with per-call certification. The pool is the only engine in the crate,
//! so the oracle is rebuilt here from public primitives only: the earliest
//! `next_decision`, then for each due driver in insertion order
//! `prepare_decision` → `Mlp::forward` → the monitor's
//! `Verifier::certify_all` → `apply_decision`. The suite races the two
//! over plain × observed × arbitrated policies × noise × topology ×
//! arrival-pattern × mid-run fleet-wide hot-swap combinations and compares
//! every observable bit: decision counts, bookkeeping windows, the
//! per-decision certificate stream, fallback monitor statistics, state
//! vectors, and simulator flow stats.
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
use canopy_core::world::{Controller, FlowSpec, WorldError};
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
    /// The runtime fallback: an arbitrating monitor, its threshold 0.6 on
    /// even flows and 0.4 on odd ones — one compiled policy, a threshold
    /// per driver.
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
    /// One flow departs mid-run — exercises heap entry retirement, inside
    /// a batch when arrivals are aligned.
    departing: bool,
    /// Every flow's actor is hot-swapped at 300 ms — exercises the
    /// re-targeted compiled policy (no stale weights or plan).
    swap: bool,
    /// The bottleneck runs at half rate and is dark for its first `OUTAGE`:
    /// flows see empty monitor windows, and those whose first windows were
    /// lost see no ACK at all, so their states coincide bit for bit.
    outage: bool,
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

/// How long the outage scenarios' bottleneck carries nothing from the start
/// of each one-second cycle of its trace.
const OUTAGE: Time = Time::from_millis(300);

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
    let mut bottleneck = link("bp", if s.outage { 48e6 } else { 96e6 });
    if s.outage {
        let dark = BandwidthTrace::constant("dark", 0.0);
        bottleneck.trace = bottleneck.trace.spliced(Time::ZERO, &dark, OUTAGE);
    }
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
        let mut policy = DriverPolicy::new(actor(ACTOR_SEED));
        let props = Property::shallow_set(&PropertyParams::default());
        let monitor = match s.policy {
            PolicyKind::Plain => None,
            PolicyKind::Observed => Some(FallbackController::observing(props, COMPONENTS)),
            PolicyKind::Arbitrated => {
                let threshold = 0.6 - 0.2 * (i % 2) as f64;
                Some(FallbackController::new(props, threshold, COMPONENTS))
            }
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
    (sim, drivers.into_iter().collect())
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

/// Every flow's actor, until the scenario swaps it.
const ACTOR_SEED: u64 = 100;
/// When the scenario swaps every flow's actor, and to what.
const SWAP_AT: Time = Time::from_millis(300);
const SWAP_SEED: u64 = 101;

fn run_pool(s: &Scenario) -> Fingerprint {
    let (mut sim, mut pool) = build_pool(s);
    if s.swap {
        pool.run_until(&mut sim, SWAP_AT);
        pool.swap_actor_all(actor(SWAP_SEED));
    }
    pool.run_until(&mut sim, s.duration);
    assert_eq!(sim.now(), s.duration);
    fingerprint(&sim, pool.drivers())
}

/// The oracle's `run_until`: every decision scheduled strictly before
/// `horizon`, earliest first, same-instant ties in insertion order, each
/// one computed on its own through the per-call entry points with `net`,
/// every driver's actor until the oracle swaps it. Returns how many
/// decisions repeat, bit for bit, the state of an earlier decision at the
/// same instant (the pool forwards and certifies such a state once).
fn oracle_run_until(
    sim: &mut Simulator,
    drivers: &mut [OrcaDriver],
    net: &Mlp,
    horizon: Time,
) -> usize {
    let due = |drivers: &[OrcaDriver]| {
        let next = drivers.iter().map(OrcaDriver::next_decision).min();
        next.filter(|&t| t < horizon)
    };
    let mut repeats = 0;
    while let Some(next) = due(drivers) {
        sim.run_until(next);
        let mut seen: Vec<Vec<u64>> = Vec::new();
        for d in drivers.iter_mut().filter(|d| d.next_decision() == next) {
            let Some(prepared) = d.prepare_decision(sim) else {
                continue;
            };
            let bits: Vec<u64> = prepared.ctx.state.iter().map(|x| x.to_bits()).collect();
            if seen.contains(&bits) {
                repeats += 1;
            } else {
                seen.push(bits);
            }
            let policy = d.policy().expect("self-driving");
            let action = net.forward(&prepared.ctx.state)[0];
            let qc_sat = policy.monitor().map(|m| {
                let ctx = &prepared.ctx;
                m.verifier()
                    .certify_all(net, m.properties(), d.layout(), ctx)
                    .1
            });
            d.apply_decision(sim, action, qc_sat);
        }
    }
    sim.run_until(horizon);
    repeats
}

/// The oracle's fingerprint and its count of same-instant repeated states.
fn run_oracle(s: &Scenario) -> (Fingerprint, usize) {
    let (mut sim, mut drivers) = build(s);
    let mut net = actor(ACTOR_SEED);
    let mut repeats = 0;
    if s.swap {
        repeats += oracle_run_until(&mut sim, &mut drivers, &net, SWAP_AT);
        net = actor(SWAP_SEED);
    }
    repeats += oracle_run_until(&mut sim, &mut drivers, &net, s.duration);
    assert_eq!(sim.now(), s.duration);
    (fingerprint(&sim, &drivers), repeats)
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
            departing,
            swap,
            outage: false,
            duration: Time::from_millis(600),
        };
        prop_assert_eq!(run_pool(&s), run_oracle(&s).0, "engines diverged on {:?}", s);
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
        departing: false,
        swap: false,
        outage: false,
        duration: Time::from_secs(1),
    };
    let batched = run_pool(&s);
    assert_eq!(batched, run_oracle(&s).0);
    // Sanity: decisions actually fired (49 per flow at a 20 ms MI less
    // the strict-horizon boundary).
    assert!(batched.iter().all(|d| d.0 == 49));
}

/// Most flows of each batch share a state: 24 identical synchronized flows
/// on one dumbbell that is dark for its first 300 ms. Every batch of the
/// outage is one state; after it, the flows that still see no ACK share
/// states while the others spread out (10 distinct states in each batch of
/// 24 from 360 ms on). That is the case the pool forwards and certifies once per
/// distinct state, each flow still judged and arbitrated against its own
/// windows. The oracle decides every flow on its own and counts the
/// repeats, so the race covers the grouping only because repeats really
/// occur. Mutation-checked: handing each flow the neighbouring distinct
/// state's action and certified rows fails this test, and so does handing
/// them to the repeats alone, which every other test here passes.
#[test]
fn a_batch_of_repeated_states_matches_the_oracle_bitwise() {
    let s = Scenario {
        flows: 24,
        topo: Topo::Single,
        policy: PolicyKind::Arbitrated,
        noisy: false,
        aligned: true,
        departing: false,
        swap: false,
        outage: true,
        duration: Time::from_secs(1),
    };
    let (oracle, repeats) = run_oracle(&s);
    let decisions: u64 = oracle.iter().map(|d| d.0).sum();
    assert!(
        2 * repeats as u64 > decisions,
        "only {repeats} of {decisions} decisions repeat a state of their batch"
    );
    assert_eq!(run_pool(&s), oracle);
}

#[test]
fn fallback_arbitration_matches_the_oracle_bitwise() {
    let s = Scenario {
        flows: 4,
        topo: Topo::ParkingLot,
        policy: PolicyKind::Arbitrated,
        noisy: true,
        aligned: true,
        departing: true,
        swap: true,
        outage: false,
        duration: Time::from_millis(800),
    };
    assert_eq!(run_pool(&s), run_oracle(&s).0);
}

/// A monitored policy pays exactly one certification pass per decision,
/// observing or arbitrating, and a plain one none: the registry's
/// `decisions_certified_total` counts the decisions that carry a
/// certificate, and the monitor's `QC_sat` stream holds one value each.
#[test]
fn a_monitored_decision_is_certified_once() {
    use canopy_telemetry::FlightRecorder;
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
            departing: true,
            swap: true,
            outage: false,
            duration: Time::from_millis(500),
        };
        let (mut sim, mut pool) = build_pool(&s);
        let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
        pool.set_recorder(Some(recorder.clone()));
        pool.run_until(&mut sim, s.duration);
        let decisions: u64 = pool.drivers().iter().map(|d| d.decisions()).sum();
        let rec = recorder.borrow();
        let registry = rec.registry();
        assert_eq!(registry.counter("decisions_total"), decisions, "{policy:?}");
        assert_eq!(
            registry.counter("decisions_certified_total"),
            passes * decisions,
            "{policy:?}"
        );
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
        departing: false,
        swap: false,
        outage: false,
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
    // Five synchronized flows: every batch is full.
    assert!(batches.iter().all(|b| b.size == 5));
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

/// FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The recorded decision stream of a pool with everything a committed
/// artifact lacks — several flows per batch, fallback decisions next to
/// agent ones in one batch (per-driver thresholds), a fleet-wide swap to
/// an actor the monitor keeps, observation noise and a departing flow —
/// pinned by the digest of its canonical report, so any change to what
/// the pool records, in which order, or with which stamp shows up here.
#[test]
fn recorded_stream_of_an_arbitrated_pool_is_pinned() {
    use canopy_telemetry::{Artifact, FlightRecorder, TelemetryReport};
    use std::cell::RefCell;
    use std::rc::Rc;

    let s = Scenario {
        flows: 4,
        topo: Topo::Single,
        policy: PolicyKind::Arbitrated,
        noisy: true,
        aligned: true,
        departing: true,
        swap: true,
        outage: false,
        duration: Time::from_millis(600),
    };
    let (mut sim, mut pool) = build_pool(&s);
    let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
    pool.set_recorder(Some(recorder.clone()));
    pool.run_until(&mut sim, SWAP_AT);
    pool.swap_actor_all(actor(SWAP_SEED));
    pool.run_until(&mut sim, s.duration);
    let rec = recorder.borrow();

    let decisions: Vec<_> = rec.decisions().iter().collect();
    let executed: u64 = pool.drivers().iter().map(|d| d.decisions()).sum();
    assert_eq!(decisions.len() as u64, executed);
    let fallbacks = decisions.iter().filter(|d| d.fallback).count();
    assert!(fallbacks > 0, "the threshold benches some decisions");
    assert!(
        fallbacks < decisions.len(),
        "and lets the agent keep others"
    );
    assert!(decisions
        .iter()
        .filter(|d| d.fallback)
        .all(|d| d.action_clamped == 0.0));
    let mixed = |t_ns| {
        let batch = decisions.iter().filter(|d| d.t_ns == t_ns);
        batch.clone().any(|d| d.fallback) && batch.clone().any(|d| !d.fallback)
    };
    assert!(decisions.iter().any(|d| mixed(d.t_ns)), "a batch splits");

    let json = TelemetryReport::from_recorder(&rec, "pinned", "one-policy").to_json();
    assert_eq!(
        fnv1a(&json),
        0x496a_3cd5_efa0_b79e,
        "report digest moved; the report as found:\n{json}"
    );
}

/// A multi-flow run races one learned policy: copies of it (equal actors
/// built separately) run, a second learned actor is refused before any
/// flow is built, named by its index in the flow list.
#[test]
fn run_multiflow_refuses_a_second_learned_policy() {
    use canopy_core::eval::run_multiflow;

    let learned = |seed| Controller::Orca {
        k: K,
        policy: Some(DriverPolicy::new(actor(seed))),
    };
    let rtt = Time::from_millis(20);
    let run = |second| {
        let flows = [
            FlowSpec::new(learned(ACTOR_SEED), rtt),
            FlowSpec::new(Controller::Kernel("cubic".into()), rtt),
            FlowSpec::new(learned(second), rtt),
        ];
        run_multiflow(
            link("mf", 48e6),
            &flows,
            Time::from_secs(1),
            Time::from_secs(1),
        )
    };
    assert!(run(ACTOR_SEED).is_ok());
    assert_eq!(run(SWAP_SEED), Err(WorldError::MixedPolicies { flow: 2 }));
}

/// A pool serves one policy: pushing a driver whose actor differs from
/// the first driver's is a documented panic.
#[test]
#[should_panic(expected = "a pool serves one policy")]
fn pushing_a_second_policy_panics() {
    let s = Scenario {
        flows: 2,
        topo: Topo::Single,
        policy: PolicyKind::Plain,
        noisy: false,
        aligned: true,
        departing: false,
        swap: false,
        outage: false,
        duration: Time::from_millis(100),
    };
    let (_, mut drivers) = build(&s);
    let second = drivers.pop().expect("two flows");
    let mut pool: DriverPool = drivers.into_iter().collect();
    pool.push(second.with_policy(DriverPolicy::new(actor(SWAP_SEED))));
}
