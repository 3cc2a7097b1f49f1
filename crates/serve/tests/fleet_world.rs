//! A [`Fleet`] is nothing but `canopy_core::world` flows in a
//! `DriverPool`: the same staggered, QC-monitored flows described as
//! [`FlowSpec`]s, spawned at once and run through a bare pool, end in the
//! same per-flow counters and fallback engagements as the fleet.

use rand::rngs::StdRng;
use rand::SeedableRng;

use canopy_core::driver::{DriverPolicy, DriverPool};
use canopy_core::obs::StateLayout;
use canopy_core::property::{Property, PropertyParams};
use canopy_core::runtime::FallbackController;
use canopy_core::world::{self, Controller, FlowSpec};
use canopy_netsim::{BandwidthTrace, LinkConfig, Time, Topology};
use canopy_nn::{Activation, Mlp};
use canopy_serve::{Fleet, FleetConfig, QcMonitorConfig};

#[test]
fn fleet_matches_a_pool_filled_from_the_world_builder() {
    let (flows, k, rate_bps) = (12, 3, 96e6);
    let stagger = Time::from_millis(7);
    let duration = Time::from_millis(600);
    let monitor = QcMonitorConfig {
        properties: Property::shallow_set(&PropertyParams::default()),
        threshold: 0.5,
        n_components: 4,
    };
    let actor = Mlp::new(
        &mut StdRng::seed_from_u64(5),
        &[StateLayout::new(k).dim(), 16, 1],
        Activation::Tanh,
    );

    let config = FleetConfig::dumbbell(flows, rate_bps, k)
        .with_stagger(stagger)
        .with_qc_monitor(monitor.clone());
    let mut fleet = Fleet::new(&config, actor.clone());
    fleet.run(duration);

    // The same fleet, described flow by flow.
    let link = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("fleet", rate_bps),
        config.min_rtt,
        1.0,
    );
    let policy = DriverPolicy::new(actor).with_fallback(FallbackController::new(
        monitor.properties,
        monitor.threshold,
        monitor.n_components,
    ));
    let controller = Controller::Orca {
        k,
        policy: Some(policy),
    };
    let specs: Vec<FlowSpec> = (0..flows as u64)
        .map(|i| FlowSpec::new(controller.clone(), config.min_rtt).starting_at(stagger * i))
        .collect();
    let world = world::spawn_all(&Topology::dumbbell(link), &specs).expect("builds");
    let mut sim = world.sim;
    let mut pool: DriverPool = world.drivers.into_iter().collect();
    pool.run_until(&mut sim, duration);

    assert_eq!(fleet.pool().len(), pool.len());
    let mut engagements = 0;
    for (i, (a, b)) in fleet
        .pool()
        .drivers()
        .iter()
        .zip(pool.drivers())
        .enumerate()
    {
        assert_eq!(a.flow(), world.flows[i], "flow {i}: id follows the list");
        let (x, y) = (fleet.sim().flow_stats(a.flow()), sim.flow_stats(b.flow()));
        assert_eq!(x.sent_packets, y.sent_packets, "flow {i}");
        assert_eq!(x.acked_packets, y.acked_packets, "flow {i}");
        assert_eq!(a.decisions(), b.decisions(), "flow {i}");
        assert_eq!(
            a.fallback_engagements(),
            b.fallback_engagements(),
            "flow {i}"
        );
        engagements += a.fallback_engagements().expect("monitored");
    }
    assert!(
        engagements > 0,
        "the monitor must actually engage somewhere"
    );
}
