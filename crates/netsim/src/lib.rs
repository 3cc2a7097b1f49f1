//! Deterministic packet-level discrete-event network simulator.
//!
//! This crate is the Mahimahi substitute used throughout the Canopy
//! reproduction. It models the canonical single-bottleneck dumbbell used in
//! congestion-control research:
//!
//! ```text
//! sender(s) --> [ droptail queue | trace-driven link ] --prop delay--> receiver
//!      ^                                                                  |
//!      +------------------------- ACK path (pure delay) -----------------+
//! ```
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Same seed and configuration always produce the same
//!    packet trace. All event ties are broken by insertion order and there is
//!    no wall-clock anywhere.
//! 2. **Faithful control-loop dynamics.** Queue build-up, bufferbloat,
//!    droptail loss, ACK clocking, duplicate-ACK fast retransmit, and RTO
//!    timeouts are modelled at packet granularity, because those are the
//!    signals a congestion controller (classic or learned) consumes.
//! 3. **Multi-flow.** Several flows with distinct propagation delays and
//!    congestion controllers can share the bottleneck, which the paper's
//!    fairness (Fig. 15) and friendliness (Fig. 14) experiments require.
//! 4. **Multi-hop.** Beyond the dumbbell, a [`Topology`] composes links
//!    into parking-lot chains and incast fan-in trees, with per-flow paths
//!    and per-link queues/traces/impairments — the regimes (RTT
//!    unfairness, fan-in collapse) where certificate-guided congestion
//!    control earns its keep. The dumbbell remains the default and is
//!    bit-for-bit identical to the historical single-link engine.

pub mod cc;
mod event;
pub mod flow;
pub mod link;
pub mod packet;
pub mod queue;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod traces;

pub use canopy_telemetry::LinkSample;
pub use cc::{AckInfo, CongestionControl, FixedWindow, LossInfo};
pub use flow::{FlowConfig, FlowId};
pub use link::{ImpairmentPhase, ImpairmentSchedule, LinkConfig};
pub use packet::MSS_BYTES;
pub use sim::Simulator;
pub use stats::{FlowStats, MonitorSample};
pub use time::Time;
pub use topology::{LinkId, Topology};
pub use trace::BandwidthTrace;
