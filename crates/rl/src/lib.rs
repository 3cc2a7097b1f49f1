//! Twin Delayed Deep Deterministic policy gradient (TD3).
//!
//! Orca — and therefore Canopy — trains its coarse-grained congestion
//! controller with TD3 (Fujimoto et al., 2018). This crate implements the
//! full algorithm on top of `canopy-nn`:
//!
//! * twin critics with clipped double-Q targets,
//! * target networks with Polyak averaging,
//! * delayed policy updates,
//! * target policy smoothing (clipped Gaussian noise on target actions),
//! * a uniform replay buffer.
//!
//! Everything is deterministic given a seed; the exploration and sampling
//! randomness flows through caller-supplied RNGs.

mod noise;
pub mod replay;
pub mod td3;

pub use replay::{ReplayBuffer, Transition};
pub use td3::{ActorRegularizer, Td3, Td3Config, UpdateStats};
