//! Declarative scenario generation, fuzzing, and stress evaluation.
//!
//! Canopy's claims are only as strong as the conditions they are evaluated
//! under, and the paper's fixed 21-trace single-flow suite leaves most of
//! the condition space unexplored. This crate makes "handles as many
//! scenarios as you can imagine" concrete, in three layers:
//!
//! * [`spec`] — a serde-serializable [`ScenarioSpec`] describing a full
//!   experiment: a bandwidth *program* composed from combinators over
//!   [`canopy_netsim::BandwidthTrace`] (scale, shift, clamp, concat,
//!   splice, periodic repeat), buffer depth, a time-scheduled impairment
//!   program, observation noise, a multi-flow schedule with staggered
//!   arrivals/departures and baseline cross-traffic, and a
//!   [`TopologySpec`] selecting the network shape (dumbbell,
//!   parking-lot, or incast).
//! * [`gen`] — seeded generators for eight named stress families
//!   (flash-crowd, bandwidth-cliff, jitter-storm, lossy-wireless,
//!   buffer-sweep, cross-traffic-churn, incast-burst,
//!   parking-lot-unfairness — the last two on multi-hop topologies); any
//!   scenario reproduces from `(family, seed)` alone and round-trips
//!   through JSON. Each family is one decoder in [`params`], run on seeded
//!   draws by the fuzzer and on unit-cube points by adversarial search.
//! * [`runner`] — a `Scheme × Scenario` matrix executor fanned over the
//!   persistent worker pool (`canopy_nn::pool`, re-exported as
//!   `canopy_core::pool`), emitting per-scenario metrics
//!   (throughput, p95 queuing delay, loss, Jain fairness, `QC_sat`,
//!   fallback rate) and an aggregate stable-schema report.
//!
//! ```
//! use canopy_core::eval::Scheme;
//! use canopy_scenarios::{generate, run_scenario, Family};
//!
//! let spec = generate(Family::BandwidthCliff, 42);
//! let parsed = canopy_scenarios::ScenarioSpec::from_json(&spec.to_json()).unwrap();
//! let metrics = run_scenario(&Scheme::Baseline("cubic".into()), &parsed, None).unwrap();
//! assert!(metrics.primary.throughput_mbps > 0.0);
//! ```

pub mod episode;
pub mod gen;
pub mod params;
pub mod runner;
pub mod spec;

pub use episode::{episode_env, episode_spec};
pub use gen::{fuzz_suite_seeds, generate, Family};
pub use params::{decode_unit, dims, draw};
pub use runner::{
    run_matrix, run_matrix_with_threads, run_scenario, run_scenario_recorded, ScenarioMetrics,
    ScenarioReport,
};
pub use spec::{CompiledTopology, CrossFlow, ScenarioSpec, SpecError, TopologySpec, TraceProgram};
