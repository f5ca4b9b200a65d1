//! # dbds-costmodel — node cost model and static performance estimator
//!
//! Reproduces §5.3 of the DBDS paper: every IR node kind carries an
//! abstract `cycles`/`size` annotation ([`NodeCost`]); the
//! [`CostModel`] aggregates them into block-level and graph-level
//! estimates, weights blocks by profile-derived execution frequencies (the
//! *static performance estimator* the simulation tier uses to compute
//! *cycles saved*), and converts interpreter execution tallies into
//! dynamic cycle counts (the harness's peak-performance metric).
//!
//! # Examples
//!
//! ```
//! use dbds_costmodel::CostModel;
//! use dbds_ir::InstKind;
//!
//! let m = CostModel::new();
//! // Figure 3 of the paper: x / 2 → x >> 1 saves 31 cycles.
//! assert_eq!(m.cycles(InstKind::Div) - m.cycles(InstKind::Shr), 31);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod estimate;
mod model;

pub use model::{CostModel, NodeCost};
