//! The one way a described set of flows becomes a running world: a
//! [`Simulator`], its [`FlowId`]s and the [`OrcaDriver`]s bound to them.
//!
//! Every harness — [`CcEnv`](crate::env::CcEnv),
//! [`eval::run_multiflow`](crate::eval::run_multiflow), the scenario
//! runner, the figure explorer, the `canopy_serve` fleet — describes its
//! flows as [`FlowSpec`]s and calls [`spawn`] (or [`spawn_all`] over a
//! list), so the conventions below hold everywhere by construction:
//!
//! * **Cubic under every steered flow.** A [`Controller::Orca`] flow runs
//!   a Cubic kernel that the driver overrides once per monitor interval,
//!   exactly as in training.
//! * **The bottleneck normalises.** A steered flow's driver is built on
//!   `topology.link(sim.bottleneck_of(flow))` — the slowest hop of the
//!   flow's own path — so states are on the scale the policy was trained
//!   on, whatever the topology.
//! * **Flow ids follow the list.** Flows are added in the order they are
//!   described (the flow under test first, then cross traffic in spec
//!   order; fleet flows in index order), so `FlowId(i)` is flow `i`.
//! * **Bad input is a [`WorldError`].** Paths are checked against the
//!   topology and kernels looked up by name before the simulator sees
//!   them; nothing here panics on a described flow.

use canopy_cc::Cubic;
use canopy_netsim::{CongestionControl, FlowConfig, FlowId, LinkId, Simulator, Time, Topology};

use crate::driver::{DriverConfig, DriverPolicy, OrcaDriver};
use crate::env::NoiseConfig;

/// Who sets a flow's congestion window.
#[derive(Clone, Debug)]
pub enum Controller {
    /// A classic kernel from `canopy_cc`, by name (`cubic`, `bbr`, ...).
    Kernel(String),
    /// A Cubic kernel steered Orca-style by a driver of history depth `k`:
    /// self-driving on its own monitor clock when it carries a policy
    /// (pushed into a [`DriverPool`](crate::driver::DriverPool)), stepped
    /// by its owner when not (the training environment). Cloning shares
    /// the policy's actor.
    Orca {
        /// History depth `k` of the driver's state.
        k: usize,
        /// The self-driving policy, if any.
        policy: Option<DriverPolicy>,
    },
}

/// One flow of a world: who controls it, where it runs, and when.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// The controller.
    pub controller: Controller,
    /// The links the flow crosses, in hop order.
    pub path: Vec<LinkId>,
    /// When the flow starts.
    pub start: Time,
    /// When the flow departs (`None` runs to the end).
    pub stop: Option<Time>,
    /// Propagation RTT of this flow's path.
    pub min_rtt: Time,
    /// Observation noise of a steered flow (classic kernels ignore it).
    pub noise: Option<NoiseConfig>,
    /// Record per-ACK delay samples (needed for delay percentiles; off
    /// wherever only counters are read).
    pub record_samples: bool,
}

impl FlowSpec {
    /// A flow on the dumbbell route (link 0), active for the whole run,
    /// noise-free, without per-ACK samples.
    pub fn new(controller: Controller, min_rtt: Time) -> FlowSpec {
        FlowSpec {
            controller,
            path: vec![LinkId(0)],
            start: Time::ZERO,
            stop: None,
            min_rtt,
            noise: None,
            record_samples: false,
        }
    }

    /// Routes the flow over an explicit sequence of links.
    pub fn on_path(mut self, path: Vec<LinkId>) -> FlowSpec {
        self.path = path;
        self
    }

    /// Sets the arrival time.
    pub fn starting_at(mut self, t: Time) -> FlowSpec {
        self.start = t;
        self
    }

    /// Sets the departure time.
    pub fn stopping_at(mut self, t: Time) -> FlowSpec {
        self.stop = Some(t);
        self
    }

    /// Enables observation noise on a steered flow.
    pub fn with_noise(mut self, noise: NoiseConfig) -> FlowSpec {
        self.noise = Some(noise);
        self
    }
}

/// Why a described world (or a run over one) was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldError {
    /// A flow names a kernel `canopy_cc` does not have.
    UnknownKernel {
        /// Index of the flow in its list.
        flow: usize,
        /// The name it asked for.
        name: String,
    },
    /// A flow's path does not fit the topology.
    BadPath {
        /// Index of the flow in its list.
        flow: usize,
        /// What [`Topology::validate_path`] found.
        reason: String,
    },
    /// A training episode's cross flow carries its own driver: the
    /// environment steps exactly one flow, the first.
    SteeredCross {
        /// Index of the flow in its list.
        flow: usize,
    },
    /// A self-driving run was handed a steered flow without a policy:
    /// nothing would decide for it.
    NoPolicy {
        /// Index of the flow in its list.
        flow: usize,
    },
    /// A self-driving run was handed steered flows with different
    /// policies: its pool serves one.
    MixedPolicies {
        /// Index of the first flow whose policy differs from the first
        /// steered flow's.
        flow: usize,
    },
    /// A binned run was asked for zero-width bins.
    ZeroBin,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::UnknownKernel { flow, name } => {
                write!(f, "flow {flow}: unknown kernel `{name}`")
            }
            WorldError::BadPath { flow, reason } => write!(f, "flow {flow}: {reason}"),
            WorldError::SteeredCross { flow } => write!(
                f,
                "flow {flow}: an episode steps only its first flow, cross traffic must run classic kernels"
            ),
            WorldError::NoPolicy { flow } => {
                write!(f, "flow {flow}: a self-driving run needs a policy on every steered flow")
            }
            WorldError::MixedPolicies { flow } => write!(
                f,
                "flow {flow}: a self-driving run serves one policy, the first steered flow's"
            ),
            WorldError::ZeroBin => f.write_str("bin width must be positive"),
        }
    }
}

impl std::error::Error for WorldError {}

/// Checks flow `index`'s path against the topology and resolves the
/// kernel it runs on.
fn kernel_for(
    topology: &Topology,
    index: usize,
    spec: &FlowSpec,
) -> Result<Box<dyn CongestionControl>, WorldError> {
    topology
        .validate_path(&spec.path)
        .map_err(|reason| WorldError::BadPath {
            flow: index,
            reason,
        })?;
    match &spec.controller {
        Controller::Kernel(name) => {
            canopy_cc::by_name(name).ok_or_else(|| WorldError::UnknownKernel {
                flow: index,
                name: name.clone(),
            })
        }
        Controller::Orca { .. } => Ok(Box::new(Cubic::new())),
    }
}

/// Everything [`spawn_all`] would reject, without building anything.
pub fn check(topology: &Topology, flows: &[FlowSpec]) -> Result<(), WorldError> {
    flows
        .iter()
        .enumerate()
        .try_for_each(|(i, spec)| kernel_for(topology, i, spec).map(drop))
}

/// Adds flow `index` of a list to `sim` (which must have been built over
/// `topology`) and, for a steered flow, binds its driver — see the module
/// docs for the conventions.
pub fn spawn(
    sim: &mut Simulator,
    topology: &Topology,
    index: usize,
    spec: &FlowSpec,
) -> Result<(FlowId, Option<OrcaDriver>), WorldError> {
    let kernel = kernel_for(topology, index, spec)?;
    let mut config = FlowConfig {
        min_rtt: spec.min_rtt,
        start_time: spec.start,
        stop_time: None,
        record_samples: spec.record_samples,
        path: spec.path.clone(),
    };
    if let Some(stop) = spec.stop {
        config = config.stopping_at(stop);
    }
    let flow = sim.add_flow(config, kernel);
    let Controller::Orca { k, policy } = &spec.controller else {
        return Ok((flow, None));
    };
    let config = DriverConfig {
        min_rtt: spec.min_rtt,
        k: *k,
        noise: spec.noise,
        start: spec.start,
        stop: spec.stop,
    };
    let driver = OrcaDriver::new(&config, topology.link(sim.bottleneck_of(flow)), flow);
    Ok((
        flow,
        Some(match policy {
            Some(policy) => driver.with_policy(policy.clone()),
            None => driver,
        }),
    ))
}

/// A spawned flow list.
pub struct World {
    /// The simulator, at time zero.
    pub sim: Simulator,
    /// One id per described flow, in list order.
    pub flows: Vec<FlowId>,
    /// The steered flows' drivers, in list order.
    pub drivers: Vec<OrcaDriver>,
}

/// Builds the simulator over `topology` and [`spawn`]s every flow.
pub fn spawn_all(topology: &Topology, flows: &[FlowSpec]) -> Result<World, WorldError> {
    let mut world = World {
        sim: Simulator::with_topology(topology.clone()),
        flows: Vec::with_capacity(flows.len()),
        drivers: Vec::new(),
    };
    for (i, spec) in flows.iter().enumerate() {
        let (flow, driver) = spawn(&mut world.sim, topology, i, spec)?;
        world.flows.push(flow);
        world.drivers.extend(driver);
    }
    Ok(world)
}
