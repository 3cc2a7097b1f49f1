//! A minimal dense neural-network library.
//!
//! This is the TensorFlow/Sonnet substitute for the Canopy reproduction.
//! It provides exactly what Orca-style agents need — multilayer perceptrons
//! with ReLU/tanh activations, reverse-mode gradients, and Adam — while
//! keeping the layer structure explicit so the abstract interpreter in
//! `canopy-absint` can walk the same layers with interval semantics
//! (the role Sonnet's composable modules played in the paper's prototype).
//!
//! Everything is `f64` and deterministic: initialization draws from a
//! caller-supplied seeded RNG, and no operation depends on iteration order
//! of hash maps or on threading. The batched paths in [`batch`] are
//! bitwise identical to the per-sample paths, so switching between them
//! never changes a result. [`pool`] is the workspace's one worker pool:
//! persistent helper threads whose forks give the same results at every
//! thread count.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod adam;
pub mod batch;
mod init;
pub mod layer;
pub mod mlp;
pub mod pool;
pub mod tensor;

pub use adam::Adam;
pub use batch::{Batch, BatchScratch};
pub use layer::{relu, Activation, Dense};
pub use mlp::{ForwardTrace, Mlp};
pub use tensor::Matrix;
