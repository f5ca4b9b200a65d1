//! # dbds-workloads — synthetic benchmark suites
//!
//! The paper evaluates on Java DaCapo, Scala DaCapo, a Java/Scala
//! micro-benchmark suite and JavaScript Octane (§6.1). Those are JVM/JS
//! artifacts we cannot execute here, so this crate generates *synthetic
//! stand-ins*: one seeded, deterministic IR compilation unit per benchmark
//! name, with a per-suite mix of code shapes chosen to mimic each suite's
//! documented character (see DESIGN.md §2 for the substitution argument).
//! Each workload carries interpreter inputs, so the harness can measure
//! dynamic-cycle peak performance.
//!
//! # Examples
//!
//! ```
//! use dbds_workloads::Suite;
//!
//! let suite = Suite::Micro.workloads();
//! assert_eq!(suite.len(), 12);
//! let wordcount = suite.iter().find(|w| w.name == "wordcount").unwrap();
//! assert!(!wordcount.graph.merge_blocks().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod fragments;
mod generator;
mod suites;

pub use fragments::{FragmentCtx, FragmentKind, SharedState};
pub use generator::{generate_graph, generate_inputs, standard_classes, Profile, StandardClasses};
pub use suites::{Suite, SPLIT_BENCHMARKS};

use dbds_ir::{Graph, Value};

/// One benchmark: a named compilation unit plus its interpreter inputs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as printed in the paper's figures.
    pub name: String,
    /// The suite it belongs to.
    pub suite: Suite,
    /// The compilation unit.
    pub graph: Graph,
    /// Argument vectors the harness interprets to measure peak
    /// performance.
    pub inputs: Vec<Vec<Value>>,
}

/// Generates every workload of every suite, in paper order.
pub fn all_workloads() -> Vec<Workload> {
    Suite::ALL.iter().flat_map(|s| s.workloads()).collect()
}
