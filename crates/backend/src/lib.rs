//! # dbds-backend — compiler back end substrate
//!
//! The paper measures *compile time* of whole compilations and *code
//! size* of installed machine code (§6.1). Both need a back end, so this
//! crate provides one for a compact fictional ISA:
//!
//! 1. [`Linearization`] — reverse-postorder block layout with global
//!    instruction numbering,
//! 2. [`live_intervals`] — liveness by SSA path exploration (each use
//!    walks predecessors back to its definition) and live-interval
//!    construction (φ inputs live at predecessor ends),
//! 3. [`linear_scan`] — Poletto–Sarkar linear-scan register allocation
//!    with spilling,
//! 4. [`compile_to_machine_code`] — byte-accurate emission, including
//!    φ-resolving edge moves, spill reload/store code, write-barrier and
//!    bounds-check stubs, and call argument marshalling.
//!
//! The evaluation harness runs this back end after the optimizer in every
//! configuration, so compile-time and code-size comparisons cover the
//! whole pipeline like the paper's do.
//!
//! # Examples
//!
//! ```
//! use dbds_backend::compile_to_machine_code;
//! use dbds_ir::parse_module;
//!
//! let m = parse_module(
//!     "func @f(x: int) {\n\
//!      entry:\n  one: int = const 1\n  s: int = add x, one\n  return s\n}",
//! )?;
//! let code = compile_to_machine_code(&m.graphs[0]);
//! assert!(code.size() > 0);
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod emit;
mod linearize;
mod liveness;
mod regalloc;

pub use emit::{compile_to_machine_code, MachineCode, NUM_REGS};
pub use linearize::Linearization;
pub use liveness::{live_intervals, Interval};
pub use regalloc::{linear_scan, Allocation, Location};
