//! Abstract interpretation for neural controllers.
//!
//! This crate implements the verification machinery of Section 3.2 of the
//! Canopy paper: the **box (hyper-interval) abstract domain** in
//! centre/deviation form, sound abstract transformers for the operations a
//! controller's computation graph uses (affine maps, `Add`, `ReLU`, `tanh`,
//! `2^x`), and **interval bound propagation** (IBP) through the MLPs built
//! by `canopy-nn`.
//!
//! Soundness under `f64`: every transformer widens its result outward to
//! cover floating-point rounding — dot products carry a standard
//! `γ_n = n·u·Σ|aᵢbᵢ|`-style error bound and elementary functions are
//! expanded by a few ULPs. The abstract output therefore always contains
//! every concretely reachable value, which is what makes a
//! quantitative-certificate proof a proof.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod batch_ibp;
pub mod boxdom;
pub mod diff_ibp;
pub mod ibp;
pub mod interval;
mod lanes;
pub mod zonotope;

pub use batch_ibp::{IbpBatchScratch, PreparedMlp};
pub use boxdom::{axis_slices, BoxState};
pub use diff_ibp::{backward_bounds, forward_bounds, BoundGrads, BoundsTrace, DiffIbp};
pub use ibp::{propagate_dense, propagate_mlp};
pub use interval::Interval;
pub use zonotope::{propagate_mlp_zonotope, Zonotope};
