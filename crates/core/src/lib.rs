//! Canopy: property-driven learning for congestion control.
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates of this workspace:
//!
//! * [`obs`] — Orca's observation vector (Table 1), normalization, and the
//!   `k`-step state layout shared by the agent and the verifier.
//! * [`orca`] — the two-level control law `cwnd = 2^(2a) · cwnd_tcp`
//!   (Eq. 1) and Orca's power-metric reward (Eqs. 2–3).
//! * [`property`] — the property language and the five concrete properties
//!   P1–P5 of Table 2/3 (shallow/deep buffer behaviour, noise robustness).
//! * [`qc`] — quantitative certificates: per-component proofs plus the
//!   smoothed feedback of Eq. 6 and the multi-property aggregate of Eq. 7.
//! * [`verifier`] — abstract interpretation of the actor network and the
//!   `f_cwnd` computation (Eq. 5) over partitioned input regions.
//! * [`world`] — the one flow description ([`FlowSpec`]) and the one
//!   builder that turns a list of them into a simulator, its flows and
//!   their bound drivers; every harness enters through it.
//! * [`driver`] — the one Orca decision loop: sampling, noise, state,
//!   policy, and `f_cwnd` application over the simulator `world` built,
//!   plus the pool that multiplexes many drivers by next-decision time.
//! * [`mod@env`] — the congestion-control RL environment: an episode's
//!   controlled flow stepped one monitor interval at a time (a thin
//!   episode wrapper around one driver).
//! * [`trainer`] — certification-in-the-loop training: TD3 on the λ-mixed
//!   reward `(1−λ)·R + λ·R_verifier` (Eq. 10).
//! * [`runtime`] — QC_sat-guided runtime monitoring with TCP-Cubic
//!   fallback (Section 4.4).
//! * [`eval`] — experiment drivers computing the utilization/delay/QC_sat
//!   metrics reported in the paper's figures.
//! * [`plan`] — compiled certification plans: the decision-independent
//!   part of a runtime certificate, built once per policy.
//! * [`pool`] — the std-only scoped worker pool behind parallel
//!   certification and evaluation sweeps (`CANOPY_THREADS`).
//! * [`models`] — deterministic scaled-down training recipes for the
//!   shallow / deep / robust Canopy models and the Orca baseline, with
//!   on-disk caching for the benchmark harness.

pub mod driver;
pub mod env;
pub mod eval;
pub mod models;
pub mod obs;
pub mod orca;
pub mod plan;
pub mod pool;
pub mod property;
pub mod qc;
pub mod runtime;
pub mod trainer;
pub mod verifier;
pub mod world;

pub use canopy_telemetry as telemetry;
pub use driver::{
    BatchDispatch, DriverConfig, DriverPolicy, DriverPool, OrcaDriver, PreparedDecision,
};
pub use env::{CcEnv, EnvConfig, EpisodeSpec, NoiseConfig, StepResult};
pub use models::{ModelKind, TrainedModel};
pub use obs::{Normalizer, Observation, StateBuilder, StateLayout};
pub use property::{Postcondition, Property, PropertyParams};
pub use qc::{Certificate, ComponentResult};
pub use trainer::{Trainer, TrainerConfig, TrainingHistory};
pub use verifier::{StepContext, Verifier};
pub use world::{Controller, FlowSpec, WorldError};
