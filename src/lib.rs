//! # dbds — Dominance-Based Duplication Simulation
//!
//! A from-scratch Rust reproduction of *"Dominance-Based Duplication
//! Simulation (DBDS): Code Duplication to Enable Compiler Optimizations"*
//! (Leopoldseder et al., CGO 2018): a compiler optimization phase that
//! decides — by *simulating* duplications on a synonym map instead of
//! performing them — which control-flow merges are worth tail-duplicating
//! so that constant folding, conditional elimination, partial escape
//! analysis, read elimination and strength reduction become applicable.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ir`] | `dbds-ir` | SSA CFG, builder, verifier, text format, interpreter |
//! | [`analysis`] | `dbds-analysis` | dominators, loops, block frequencies, stamps |
//! | [`costmodel`] | `dbds-costmodel` | per-node cycle/size table, static performance estimator |
//! | [`opt`] | `dbds-opt` | applicability checks + action steps, canonicalize, scalar replacement, DCE, CFG simplify, SSA repair |
//! | [`core`] | `dbds-core` | the DBDS simulation / trade-off / optimization tiers, backtracking and dupalot baselines |
//! | [`backend`] | `dbds-backend` | liveness, linear-scan register allocation, machine-code emission |
//! | [`workloads`] | `dbds-workloads` | the synthetic Java DaCapo / Scala DaCapo / micro / Octane suites |
//! | [`harness`] | `dbds-harness` | the evaluation reproducing the paper's Figures 5–8 |
//!
//! # Quick start
//!
//! Run the paper's Figure 1 end to end — build the diamond with the φ,
//! let DBDS discover and perform the duplication, and check both paths:
//!
//! ```
//! use dbds::core::{compile, DbdsConfig, OptLevel};
//! use dbds::costmodel::CostModel;
//! use dbds::ir::{execute, parse_module, Value};
//!
//! let mut graph = parse_module(
//!     "func @foo(x: int) {\n\
//!      entry:\n\
//!        zero: int = const 0\n\
//!        c: bool = cmp gt x, zero\n\
//!        branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n\
//!        p: int = phi [bt: x, bf: zero]\n\
//!        two: int = const 2\n\
//!        sum: int = add two, p\n\
//!        return sum\n\
//!      }",
//! )?
//! .graphs
//! .remove(0);
//!
//! let stats = compile(
//!     &mut graph,
//!     &CostModel::new(),
//!     OptLevel::Dbds,
//!     &DbdsConfig::default(),
//! );
//! assert!(stats.duplications >= 1);
//! assert_eq!(execute(&graph, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
//! assert_eq!(execute(&graph, &[Value::Int(-3)]).outcome, Ok(Value::Int(2)));
//! # Ok::<(), dbds::ir::ParseError>(())
//! ```
//!
//! # Reproducing the evaluation
//!
//! ```text
//! cargo run -p dbds-harness --bin figures --release -- --all
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured comparison of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The SSA intermediate representation (re-export of `dbds-ir`).
pub mod ir {
    pub use dbds_ir::*;
}

/// Control-flow analyses (re-export of `dbds-analysis`).
pub mod analysis {
    pub use dbds_analysis::*;
}

/// The node cost model (re-export of `dbds-costmodel`).
pub mod costmodel {
    pub use dbds_costmodel::*;
}

/// Optimizations as applicability checks and action steps (re-export of
/// `dbds-opt`).
pub mod opt {
    pub use dbds_opt::*;
}

/// The DBDS algorithm itself (re-export of `dbds-core`).
pub mod core {
    pub use dbds_core::*;
}

/// The compiler back end (re-export of `dbds-backend`).
pub mod backend {
    pub use dbds_backend::*;
}

/// The synthetic benchmark suites (re-export of `dbds-workloads`).
pub mod workloads {
    pub use dbds_workloads::*;
}

/// The evaluation harness (re-export of `dbds-harness`).
pub mod harness {
    pub use dbds_harness::*;
}
