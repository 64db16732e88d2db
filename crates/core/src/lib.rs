//! Provable repair of deep neural networks — the PRDNN contribution
//! (Sotoudeh & Thakur, PLDI 2021).
//!
//! This crate implements the paper's three contributions:
//!
//! 1. **Decoupled DNNs** ([`DecoupledNetwork`], §4): a network architecture
//!    with separate *activation* and *value* weight channels such that the
//!    output is exactly linear in any single value-channel layer's
//!    parameters (Theorem 4.5) and value-channel edits never move the
//!    network's linear regions (Theorem 4.6).
//! 2. **Provable Point Repair** ([`repair_points`], Algorithm 1): given a
//!    finite set of points and an output polytope for each, find the
//!    ℓ1/ℓ∞-minimal single-layer change satisfying every constraint — or
//!    prove that none exists — by solving one linear program.
//! 3. **Provable Polytope Repair** ([`repair_polytopes`], Algorithm 2): the
//!    same, but the specification quantifies over *infinitely many* points in
//!    bounded convex input polytopes; for piecewise-linear networks this
//!    reduces exactly to point repair at the vertices of the network's
//!    linear regions.
//!
//! # Quickstart
//!
//! ```
//! use prdnn_core::{paper_example, repair_points, RepairConfig};
//!
//! # fn main() -> Result<(), prdnn_core::RepairError> {
//! let buggy = paper_example::n1();
//! let spec = paper_example::equation_2_spec();
//! let outcome = repair_points(&buggy, 0, &spec, &RepairConfig::default())?;
//! assert!(spec.is_satisfied_by(|x| outcome.repaired.forward(x), 1e-6));
//! # Ok(())
//! # }
//! ```

mod ddnn;
pub mod paper_example;
mod point_repair;
mod polytope_repair;
mod repair;
mod spec;

pub use ddnn::{ChannelMismatch, DecoupledNetwork};
pub use point_repair::{repair_points, repair_points_ddnn, repair_points_ddnn_in};
pub use polytope_repair::{repair_polytopes, repair_polytopes_ddnn, PolytopeRepairOutcome};
pub use repair::{
    RepairConfig, RepairError, RepairNorm, RepairOutcome, RepairProvenance, RepairStats,
    RepairTiming,
};
pub use spec::{InputPolytope, OutputPolytope, PointSpec, PolytopeSpec};
