//! PRDNN — a reproduction of *Provable Repair of Deep Neural Networks*
//! (Sotoudeh & Thakur, PLDI 2021).
//!
//! This facade crate re-exports the workspace so examples and downstream
//! users can depend on a single crate:
//!
//! * [`linalg`] — dense matrices and vectors,
//! * [`lp`] — an LP solver (a dual simplex from the slack basis,
//!   resumable after rows are appended; ℓ1/ℓ∞ norm objectives),
//! * [`nn`] — the DNN substrate (layers, activations, training),
//! * [`par`] — the thread pool behind the parallel hot paths,
//! * [`syrenn`] — exact linear-region computation for PWL networks,
//! * [`core`] — Decoupled DNNs and the provable point/polytope repair
//!   algorithms (the paper's contribution),
//! * [`baselines`] — fine-tuning baselines from the evaluation,
//! * [`datasets`] — the synthetic evaluation workloads.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, which walks through the paper's running
//! example (Figures 3–5) end to end: build the network, decouple it, repair
//! two points, and repair a whole input interval.

pub use prdnn_baselines as baselines;
pub use prdnn_core as core;
pub use prdnn_datasets as datasets;
pub use prdnn_linalg as linalg;
pub use prdnn_lp as lp;
pub use prdnn_nn as nn;
pub use prdnn_par as par;
pub use prdnn_syrenn as syrenn;
