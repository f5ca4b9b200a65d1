//! # dbds-core — dominance-based duplication simulation
//!
//! The paper's primary contribution (Leopoldseder et al., *Dominance-Based
//! Duplication Simulation (DBDS): Code Duplication to Enable Compiler
//! Optimizations*, CGO 2018): a three-tier algorithm that decides *which*
//! control-flow merges to tail-duplicate.
//!
//! 1. **Simulation** ([`simulate`]) — a dominator-tree DFS launches a
//!    *duplication simulation traversal* per predecessor→merge pair,
//!    mapping φs through synonym maps and pricing every applicability
//!    check that fires with the static performance estimator. No IR is
//!    copied.
//! 2. **Trade-off** ([`select`], [`should_duplicate`]) — candidates are
//!    ranked by probability-weighted benefit and accepted while
//!    `b × p × 256 > c` and the code-size budgets hold.
//! 3. **Optimization** ([`duplicate`], [`run_dbds`]) — accepted
//!    duplications are performed (with full SSA repair) and the enabled
//!    optimizations applied.
//!
//! The crate also ships the paper's comparison strategies: the
//! [`run_backtracking`] baseline (Algorithm 1, whole-graph copies) and
//! the *dupalot* configuration (every beneficial duplication, no cost
//! model), both reachable through [`compile`] with an [`OptLevel`].
//!
//! # Examples
//!
//! Reproduce Figure 1 end to end:
//!
//! ```
//! use dbds_core::{compile, DbdsConfig, OptLevel};
//! use dbds_costmodel::CostModel;
//! use dbds_ir::{execute, parse_module, Value};
//!
//! let mut g = parse_module(
//!     "func @foo(x: int) {\n\
//!      entry:\n  zero: int = const 0\n  c: bool = cmp gt x, zero\n  branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n  p: int = phi [bt: x, bf: zero]\n  two: int = const 2\n  sum: int = add two, p\n  return sum\n}",
//! )?
//! .graphs
//! .remove(0);
//!
//! let stats = compile(&mut g, &CostModel::new(), OptLevel::Dbds, &DbdsConfig::default());
//! assert!(stats.duplications >= 1);
//! assert_eq!(execute(&g, &[Value::Int(-3)]).outcome, Ok(Value::Int(2)));
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod backtracking;
mod bailout;
pub mod faultinject;
pub mod lint;
pub mod par;
mod phase;
mod simulation;
mod tradeoff;
mod transform;

pub use backtracking::run_backtracking;
pub use bailout::{checkpoint, isolate, transact, BailoutReason, BailoutRecord, Budget, Tier};
pub use lint::{lint_frontier, lint_simulation, lint_tail_copy};
pub use phase::{compile, run_dbds, DbdsConfig, OptLevel, PhaseStats};
pub use simulation::{
    audit_opportunities, count_mispredictions, simulate, simulate_paths, simulate_paths_budgeted,
    CandidateKind, Opportunity, SimulationOutcome, SimulationResult, BRANCH_SPLIT_DEFAULT,
};
pub use tradeoff::{
    select, select_with_rejections, should_duplicate, Selection, SelectionMode, TradeoffConfig,
};
pub use transform::{duplicate, try_duplicate, Duplication, TransformError};
