//! # dbds-ir — SSA intermediate representation
//!
//! The IR substrate for the reproduction of *Dominance-Based Duplication
//! Simulation (DBDS)* (Leopoldseder et al., CGO 2018). It provides a
//! scheduled SSA control-flow graph — the form Graal IR takes after
//! scheduling — with explicit φ instructions at control-flow merges,
//! heap operations (objects, fields, arrays), opaque calls and
//! profile-annotated branches.
//!
//! The crate contains:
//!
//! - the graph data structure with an invariant-preserving edge-mutation
//!   API ([`Graph`]),
//! - an ergonomic [`GraphBuilder`],
//! - a structural + SSA [`verify`]er,
//! - a round-trippable textual format ([`print_graph`] / [`parse_module`]),
//! - a reference interpreter with per-instruction-kind execution counters
//!   ([`execute`]), which higher layers combine with the node cost model to
//!   obtain the paper's machine-independent peak-performance metric.
//!
//! # Examples
//!
//! Build and run Figure 1a of the paper:
//!
//! ```
//! use dbds_ir::{execute, ClassTable, CmpOp, GraphBuilder, Type, Value};
//! use std::sync::Arc;
//!
//! let mut b = GraphBuilder::new("foo", &[Type::Int], Arc::new(ClassTable::new()));
//! let x = b.param(0);
//! let zero = b.iconst(0);
//! let cond = b.cmp(CmpOp::Gt, x, zero);
//! let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
//! b.branch(cond, bt, bf, 0.5);
//! b.switch_to(bt);
//! b.jump(bm);
//! b.switch_to(bf);
//! b.jump(bm);
//! b.switch_to(bm);
//! let phi = b.phi(vec![x, zero], Type::Int);
//! let two = b.iconst(2);
//! let sum = b.add(two, phi);
//! b.ret(Some(sum));
//! let graph = b.finish();
//!
//! assert_eq!(execute(&graph, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod builder;
mod classes;
mod graph;
mod hash;
mod ids;
mod inline;
mod inst;
mod interp;
pub mod lint;
mod parse;
mod print;
mod types;
mod uses;
mod verify;

pub use builder::GraphBuilder;
pub use classes::{ClassInfo, ClassTable, FieldInfo};
pub use graph::{Graph, InstData, TxnFootprint, UndoStats};
pub use hash::{content_hash, fnv1a, FastHasher, FastMap, FastSet, FastState, Fnv64};
pub use ids::{BlockId, ClassId, FieldId, InstId};
pub use inst::{BinOp, CmpOp, Inst, InstKind, KindCounts, Successors, Terminator};
pub use interp::{
    execute, execute_with_heap, ExecResult, Heap, Outcome, Trap, Value, DEFAULT_FUEL,
};
pub use lint::{
    lint, lint_soundness, lint_soundness_work, Diagnostic, LintId, LintReport, Severity, VerifyWork,
};
pub use parse::{parse_graph, parse_module, Module, ParseError};
pub use print::{print_class_table, print_graph};
pub use types::{ConstValue, Type};
pub use uses::Use;
pub use verify::{verify, VerifyErrors};
