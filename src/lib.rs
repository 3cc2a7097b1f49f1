//! Canopy reproduction — umbrella crate.
//!
//! Re-exports the workspace crates under one roof so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`netsim`] — deterministic packet-level network simulator
//! * [`cc`] — classic congestion-control kernels (Cubic, NewReno, Vegas, BBR)
//! * [`nn`] — minimal dense neural networks with backprop and Adam
//! * [`absint`] — box-domain abstract interpretation / IBP
//! * [`rl`] — TD3 reinforcement learning
//! * [`traces`] — synthetic, cellular, and real-world workload traces
//! * [`core`] — Canopy itself: properties, quantitative certificates,
//!   certification-in-the-loop training, runtime fallback, evaluation
//! * [`scenarios`] — declarative scenario specs, the seeded stress-family
//!   fuzzer, and the `Scheme × Scenario` matrix runner
//! * [`search`] — adversarial scenario search: bounded family spaces,
//!   failure objectives, a seeded CEM optimizer, counterexample shrinking
//! * [`serve`] — fleet-scale serving: batched decision dispatch for
//!   hundreds of flows, real-time pacing, certificate-gated model hot-swap
//! * [`telemetry`] — the deterministic flight recorder and metrics layer
//!   threaded through the decision loop, simulator, trainer, and search
//!
//! # Quickstart
//!
//! ```no_run
//! use canopy_repro::core::models::{train_model, ModelKind, TrainBudget};
//!
//! // Train a scaled-down Canopy model with shallow-buffer properties.
//! let result = train_model(ModelKind::Shallow, 1, TrainBudget::smoke());
//! println!("final verifier reward: {:.3}",
//!          result.history.last().unwrap().verifier_reward);
//! ```

pub use canopy_absint as absint;
pub use canopy_cc as cc;
pub use canopy_core as core;
pub use canopy_netsim as netsim;
pub use canopy_nn as nn;
pub use canopy_rl as rl;
pub use canopy_scenarios as scenarios;
pub use canopy_search as search;
pub use canopy_serve as serve;
pub use canopy_telemetry as telemetry;
pub use canopy_traces as traces;
