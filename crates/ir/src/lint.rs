//! Structured static-analysis framework for the IR.
//!
//! Where [`crate::verify`] answers "is this graph sound?" with a flat
//! list of strings, this module gives every check an identity
//! ([`LintId`]), a severity ([`Severity`]) and a location, so bailout
//! records, the harness and CI can reason about *which* invariant broke
//! and how often. The pieces:
//!
//! - [`Diagnostic`]: one finding — lint id, severity, optional block /
//!   instruction anchor and the human-readable message.
//! - [`lint`] / [`lint_soundness`]: the graph-level passes, plain
//!   functions run in a fixed order. Higher layers (dbds-analysis'
//!   cached-analysis audit, dbds-core's cost-sanity and prediction
//!   audits) contribute [`Diagnostic`]s for the non-graph lints of
//!   [`LintId`] through [`LintReport::extend`].
//! - [`LintReport`]: the sorted, deterministic result. Diagnostics are
//!   ordered by (block, instruction, lint, message) regardless of the
//!   order passes emitted them, so two runs over the same graph render
//!   byte-identical output.
//!
//! [`crate::verify`] is a thin wrapper over this module: it runs the
//! passes that can emit error-severity lints ([`lint_soundness`]) and
//! reports their messages.
//!
//! The error-severity rules that read one block's slots (the `*_rules`
//! functions and `SlotRules`) run in one walk over the blocks, which
//! reads each operand slot once and also collects the use lists the
//! slots imply, so the use-list recount walks each def-use list once.
//! Dominance queries are interval compares on the verifier's own
//! dominator tree, numbered by preorder.
//!
//! # Examples
//!
//! ```
//! use dbds_ir::{lint, parse_module, LintId};
//!
//! let m = parse_module(
//!     "func @f(c: bool) {\n\
//!      entry:\n  branch c, bt, bf, prob 0.5\n\
//!      bt:\n  jump bm\n\
//!      bf:\n  jump bm\n\
//!      bm:\n  return\n}",
//! )?;
//! let report = lint(&m.graphs[0]);
//! assert!(report.is_clean());
//! assert_eq!(report.count_of(LintId::SsaDominance), 0);
//! # Ok::<(), dbds_ir::ParseError>(())
//! ```

use crate::ids::{BlockId, InstId};
use crate::inst::{CmpOp, Inst, Terminator};
use crate::types::{ConstValue, Type};
use crate::uses::{Use, UseLists};
use crate::Graph;
use std::fmt;

/// How bad a [`Diagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A hygiene or quality finding; the graph is still sound.
    Warn,
    /// A broken invariant; the graph must not be compiled further.
    Error,
}

impl Severity {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declares [`LintId`] in one place: the variant (with its doc), its
/// stable kebab-case name and its fixed severity. The `ALL` slice,
/// `name()` and `severity()` are generated from the same list, so adding
/// a lint cannot desync the per-lint counters that iterate `ALL` — the
/// compiler derives the slice length from the declaration itself.
macro_rules! declare_lints {
    ($( $(#[$meta:meta])* $variant:ident = $name:literal => $sev:ident ),+ $(,)?) => {
        /// The identity of one lint. Every diagnostic the workspace
        /// produces carries one of these, and the per-lint counters of
        /// the harness report iterate [`LintId::ALL`] in this (stable)
        /// order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintId {
            $( $(#[$meta])* $variant, )+
        }

        impl LintId {
            /// Every lint, in report order. Generated alongside the enum,
            /// so the slice can never go out of sync with the variants.
            pub const ALL: &'static [LintId] = &[ $(LintId::$variant),+ ];

            /// Stable kebab-case name (used by reports and the CI gate).
            pub fn name(self) -> &'static str {
                match self { $(LintId::$variant => $name),+ }
            }

            /// The fixed severity of this lint.
            pub fn severity(self) -> Severity {
                match self { $(LintId::$variant => Severity::$sev),+ }
            }
        }
    };
}

declare_lints! {
    /// Edge / listing bookkeeping: pred–succ symmetry, entry
    /// predecessors, duplicate branch targets, unreachable predecessors
    /// of reachable blocks, instruction↔block record mismatches.
    GraphConsistency = "graph-consistency" => Error,
    /// Branch probability outside `[0, 1]` or NaN.
    BranchProbability = "branch-probability" => Error,
    /// φ after a non-φ, φ arity vs. predecessor count, φ in a block
    /// without predecessors.
    PhiPlacement = "phi-placement" => Error,
    /// Param outside the entry block, index out of range, or type
    /// mismatch with the signature.
    ParamPlacement = "param-placement" => Error,
    /// A use of an out-of-range value or a removed instruction.
    DanglingUse = "dangling-use" => Error,
    /// An instruction whose operand or result types violate its rules.
    TypeError = "type-error" => Error,
    /// A use not dominated by its definition (including φ inputs that do
    /// not dominate their predecessor).
    SsaDominance = "ssa-dominance" => Error,
    /// A block unreachable from entry that still holds instructions —
    /// the cleanup pass should have emptied it.
    UnreachableBlock = "unreachable-block" => Warn,
    /// A φ whose inputs are all the same value (or itself): a synonym
    /// the simplifier should have folded.
    TrivialPhi = "trivial-phi" => Warn,
    /// A critical edge into a merge: the source has several successors
    /// and the target several predecessors, so nothing can be sunk onto
    /// the edge without splitting it.
    CriticalEdge = "critical-edge" => Warn,
    /// A versioned [`AnalysisCache`](https://docs.rs/) entry that claims
    /// to be current but differs from a from-scratch recomputation
    /// (emitted by dbds-analysis' audit).
    StaleAnalysis = "stale-analysis" => Error,
    /// A simulation result with a non-finite (or negative) probability
    /// or cycles-saved estimate (emitted by dbds-core).
    NonFiniteBenefit = "non-finite-benefit" => Error,
    /// A candidate sequence whose accrued size would go below zero
    /// (emitted by dbds-core).
    NegativeAccruedSize = "negative-accrued-size" => Error,
    /// A recorded opportunity whose applicability check no longer fires
    /// on the graph it is about to be applied to (emitted by the
    /// optimization tier's prediction audit).
    Misprediction = "misprediction" => Warn,
    /// A reachable block with no path to any exit block: an infinite
    /// region the profile-driven tiers cannot attenuate.
    NoExitPath = "no-exit-path" => Warn,
    /// Code that is control dependent on a statically-dead branch edge
    /// (probability exactly 0 toward it): the profile and the
    /// control-dependence structure contradict each other.
    ControlDepViolation = "control-dep-violation" => Error,
    /// A duplication's copy is not a tail copy of its merge: its
    /// predecessors are not exactly the one duplicated predecessor, or
    /// its successors differ from the merge's (emitted by dbds-core's
    /// O(1) post-duplication check, `lint_tail_copy`; `lint_frontier`,
    /// its dominance-frontier reference form, emits it too).
    FrontierViolation = "frontier-violation" => Error,
    /// A value's def-use list ([`Graph::uses`]) is not the multiset of
    /// live operand slots that mention it: some mutation changed an
    /// operand behind the lists' back.
    UseListMismatch = "use-list-mismatch" => Error,
}

impl fmt::Display for LintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding of a lint pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: LintId,
    /// The lint's severity (always `lint.severity()`).
    pub severity: Severity,
    /// The block the finding anchors to, if any.
    pub block: Option<BlockId>,
    /// The instruction the finding anchors to, if any.
    pub inst: Option<InstId>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity comes from the lint.
    pub fn new(
        lint: LintId,
        block: Option<BlockId>,
        inst: Option<InstId>,
        message: String,
    ) -> Self {
        Diagnostic {
            lint,
            severity: lint.severity(),
            block,
            inst,
            message,
        }
    }

    /// The deterministic report order: (block, inst, lint); anchorless
    /// diagnostics sort last within their group.
    fn sort_key(&self) -> (u64, u64, LintId, &str) {
        (
            self.block.map_or(u64::MAX, |b| b.index() as u64),
            self.inst.map_or(u64::MAX, |i| i.index() as u64),
            self.lint,
            &self.message,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.lint, self.message)
    }
}

/// The sorted result of running lint passes.
///
/// Diagnostics are kept ordered by (block, inst, lint, message), so the
/// rendered form is identical across runs no matter which pass emitted
/// what first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report from unordered diagnostics.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        LintReport { diagnostics }
    }

    /// All diagnostics, in report order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Merges further diagnostics (e.g. from a non-graph pass) into the
    /// report, restoring the sorted order.
    pub fn extend(&mut self, more: Vec<Diagnostic>) {
        self.diagnostics.extend(more);
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// The error-severity diagnostics, in report order.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warn-severity diagnostics, in report order.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warn-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// `true` when no *error*-severity diagnostics were found (warnings
    /// are hygiene, not soundness).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// How many diagnostics carry `lint`.
    pub fn count_of(&self, lint: LintId) -> usize {
        self.diagnostics.iter().filter(|d| d.lint == lint).count()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Runs the passes that can emit an error-severity lint — what
/// [`crate::verify`] runs: everything [`lint`] runs except the warn-only
/// hygiene pass.
pub fn lint_soundness(g: &Graph) -> LintReport {
    lint_soundness_work(g).0
}

/// [`lint_soundness`] plus the exact work it did.
pub fn lint_soundness_work(g: &Graph) -> (LintReport, VerifyWork) {
    let mut out = Vec::new();
    let work = soundness_passes(g, &DomForest::forward(g), &mut Sink { out: &mut out });
    (LintReport::from_diagnostics(out), work)
}

/// Runs every built-in pass over `g`: the soundness passes plus CFG
/// hygiene.
pub fn lint(g: &Graph) -> LintReport {
    let mut out = Vec::new();
    let mut s = Sink { out: &mut out };
    let dom = DomForest::forward(g);
    soundness_passes(g, &dom, &mut s);
    hygiene_pass(g, &dom, &mut s);
    LintReport::from_diagnostics(out)
}

/// The work of one soundness run, counted exactly: deterministic
/// functions of the graph, for pinning the verifier's cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyWork {
    /// Operand slots the operand sweep read, each once: those of every
    /// listed instruction and every terminator (and of an attached
    /// instruction no block lists under its own record).
    pub slots_read: u64,
    /// Block-to-block dominance queries: cross-block uses and φ inputs
    /// of reachable blocks.
    pub dominance_queries: u64,
    /// Def-use list nodes the use-list check walked: every list once.
    pub chain_nodes: u64,
}

/// The error-capable passes, all reading the one dominator tree `dom`
/// (its domain is the set of blocks reachable from the entry). The
/// report is sorted, so their order is not observable.
fn soundness_passes(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) -> VerifyWork {
    let (expected, mut work) = block_sweep(g, dom, s);
    reverse_cfg_pass(g, dom, s);
    use_list_pass(g, &expected, s, &mut work);
    work
}

/// Shared emit helper for the built-in rules.
struct Sink<'a> {
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
    #[cold]
    fn emit(
        &mut self,
        lint: LintId,
        block: Option<BlockId>,
        inst: Option<InstId>,
        message: String,
    ) {
        self.out.push(Diagnostic::new(lint, block, inst, message));
    }

    /// `i` sits in `b`'s instruction list but records another block.
    #[cold]
    fn misfiled(&mut self, b: BlockId, i: InstId, recorded: Option<BlockId>) {
        self.emit(
            LintId::GraphConsistency,
            Some(b),
            Some(i),
            format!("{i} listed in {b} but records block {recorded:?}"),
        );
    }

    /// A use (by instruction `at`, or by `b`'s terminator) of the
    /// detached instruction `input`.
    #[cold]
    fn removed_use(&mut self, b: BlockId, at: Option<InstId>, input: InstId) {
        let message = match at {
            Some(i) => format!("{i} in {b} uses removed instruction {input}"),
            None => format!("terminator of {b} uses removed instruction {input}"),
        };
        self.emit(LintId::DanglingUse, Some(b), at, message);
    }

    /// A use (by instruction `at`, or by `b`'s terminator) of `input`,
    /// an id outside the instruction arena.
    #[cold]
    fn out_of_range(&mut self, b: BlockId, at: Option<InstId>, input: InstId) {
        let message = match at {
            Some(i) => format!("{i} references out-of-range value {input}"),
            None => format!("terminator of {b} references out-of-range value {input}"),
        };
        self.emit(LintId::DanglingUse, Some(b), at, message);
    }

    /// A use (by instruction `at`, or by `b`'s terminator) that its
    /// definition `input` does not dominate.
    #[cold]
    fn undominated_use(&mut self, b: BlockId, at: Option<InstId>, input: InstId) {
        let message = match at {
            Some(i) => format!("{i} in {b}: use of {input} not dominated by its definition"),
            None => format!("terminator of {b}: use of {input} not dominated by its definition"),
        };
        self.emit(LintId::SsaDominance, Some(b), at, message);
    }

    /// A φ input that is not available at the end of its predecessor.
    #[cold]
    fn undominated_phi_input(&mut self, b: BlockId, phi: InstId, input: InstId, pred: BlockId) {
        self.emit(
            LintId::SsaDominance,
            Some(b),
            Some(phi),
            format!("{phi} in {b}: phi input {input} does not dominate predecessor {pred}"),
        );
    }
}

// ---------------------------------------------------------------------
// Error-severity rules of one block, instruction or operand slot.
// ---------------------------------------------------------------------

/// Edge bookkeeping of `b`: entry predecessors, duplicate branch
/// targets, pred/succ mirrors in both directions, branch probability,
/// and — `b` being reachable — no unreachable predecessors (the cleanup
/// pass must disconnect dead code before verification).
fn edge_rules(g: &Graph, dom: &DomForest, b: BlockId, s: &mut Sink<'_>) {
    if b == g.entry() && !g.preds(b).is_empty() {
        s.emit(
            LintId::GraphConsistency,
            Some(b),
            None,
            format!("entry {b} has predecessors"),
        );
    }
    let succs = g.succs(b);
    if succs.len() == 2 && succs[0] == succs[1] {
        s.emit(
            LintId::GraphConsistency,
            Some(b),
            None,
            format!("{b} branches to the same block twice"),
        );
    }
    for succ in &succs {
        let n = g.preds(*succ).iter().filter(|&&p| p == b).count();
        if n != 1 {
            s.emit(
                LintId::GraphConsistency,
                Some(b),
                None,
                format!(
                    "edge {b} -> {succ}: successor records {n} matching pred entries, expected 1"
                ),
            );
        }
    }
    for &p in g.preds(b) {
        if !g.succs(p).contains(&b) {
            s.emit(
                LintId::GraphConsistency,
                Some(b),
                None,
                format!("{b} lists pred {p}, but {p} does not branch to {b}"),
            );
        }
    }
    if let Terminator::Branch { prob_then, .. } = g.terminator(b) {
        if !(0.0..=1.0).contains(prob_then) || prob_then.is_nan() {
            s.emit(
                LintId::BranchProbability,
                Some(b),
                None,
                format!("{b}: branch probability {prob_then} outside [0,1]"),
            );
        }
    }
    if dom.contains(b) {
        for &p in g.preds(b) {
            if !dom.contains(p) {
                s.emit(
                    LintId::GraphConsistency,
                    Some(b),
                    None,
                    format!("reachable {b} has unreachable predecessor {p}"),
                );
            }
        }
    }
}

/// φ and param placement of `i`, listed in `b` after instructions that
/// set `seen_non_phi` if any of them is not a φ.
fn placement_rules(g: &Graph, b: BlockId, i: InstId, seen_non_phi: &mut bool, s: &mut Sink<'_>) {
    match g.inst(i) {
        Inst::Phi { inputs } => {
            if *seen_non_phi {
                s.emit(
                    LintId::PhiPlacement,
                    Some(b),
                    Some(i),
                    format!("{b}: phi {i} appears after non-phi instructions"),
                );
            }
            if inputs.len() != g.preds(b).len() {
                s.emit(
                    LintId::PhiPlacement,
                    Some(b),
                    Some(i),
                    format!(
                        "{b}: phi {i} has {} inputs but the block has {} predecessors",
                        inputs.len(),
                        g.preds(b).len()
                    ),
                );
            }
            if g.preds(b).is_empty() {
                s.emit(
                    LintId::PhiPlacement,
                    Some(b),
                    Some(i),
                    format!("{b}: phi {i} in a block without predecessors"),
                );
            }
        }
        Inst::Param(idx) => {
            if b != g.entry() {
                s.emit(
                    LintId::ParamPlacement,
                    Some(b),
                    Some(i),
                    format!("param {i} outside the entry block"),
                );
            }
            if *idx as usize >= g.param_types().len() {
                s.emit(
                    LintId::ParamPlacement,
                    Some(b),
                    Some(i),
                    format!("param {i} index {idx} out of range"),
                );
            } else if g.ty(i) != g.param_types()[*idx as usize] {
                s.emit(
                    LintId::ParamPlacement,
                    Some(b),
                    Some(i),
                    format!("param {i} type mismatch with signature"),
                );
            }
            *seen_non_phi = true;
        }
        _ => *seen_non_phi = true,
    }
}

fn comparable(a: Type, b: Type) -> bool {
    matches!(
        (a, b),
        (Type::Int, Type::Int)
            | (Type::Bool, Type::Bool)
            | (Type::Arr, Type::Arr)
            | (Type::Ref(_), Type::Ref(_))
    )
}

fn check_receiver(
    s: &mut Sink<'_>,
    g: &Graph,
    b: BlockId,
    at: InstId,
    object: InstId,
    field: crate::ids::FieldId,
) {
    let table = g.class_table();
    if !table.contains_field(field) {
        s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: unknown field {field}"),
        );
        return;
    }
    match g.ty(object) {
        Type::Ref(c) => {
            if !table.field_belongs_to(field, c) {
                s.emit(
                    LintId::TypeError,
                    Some(b),
                    Some(at),
                    format!("{at}: field {field} does not belong to class {c}"),
                );
            }
        }
        other => s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: field access on {other}"),
        ),
    }
}

fn expect_type(s: &mut Sink<'_>, g: &Graph, b: BlockId, at: InstId, v: InstId, ty: Type) {
    let actual = g.ty(v);
    if actual != ty {
        s.emit(
            LintId::TypeError,
            Some(b),
            Some(at),
            format!("{at}: operand {v} has type {actual}, expected {ty}"),
        );
    }
}

/// The type rules of `i`, listed in `b`, whose operands are all in the
/// arena (an out-of-range operand is a [`LintId::DanglingUse`] finding;
/// typing it would index past the instruction table).
#[allow(clippy::too_many_lines)]
fn inst_type_rules(g: &Graph, b: BlockId, i: InstId, s: &mut Sink<'_>) {
    let table = g.class_table();
    let ty = g.ty(i);
    let err = |s: &mut Sink<'_>, msg: String| s.emit(LintId::TypeError, Some(b), Some(i), msg);
    match g.inst(i) {
        Inst::Const(c) => {
            if c.ty() != ty {
                err(s, format!("{i}: constant {c} typed {ty}"));
            }
            if let ConstValue::Null(cl) = c {
                if !table.contains_class(*cl) {
                    err(s, format!("{i}: null of unknown class {cl}"));
                }
            }
        }
        Inst::Param(_) => {}
        Inst::Binary { lhs, rhs, .. } => {
            expect_type(s, g, b, i, *lhs, Type::Int);
            expect_type(s, g, b, i, *rhs, Type::Int);
            if ty != Type::Int {
                err(s, format!("{i}: binary op typed {ty}"));
            }
        }
        Inst::Compare { op, lhs, rhs } => {
            let lt = g.ty(*lhs);
            let rt = g.ty(*rhs);
            let ordered = matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
            if ordered && (lt != Type::Int || rt != Type::Int) {
                err(s, format!("{i}: ordered comparison of {lt} and {rt}"));
            }
            if !ordered && !comparable(lt, rt) {
                err(s, format!("{i}: equality comparison of {lt} and {rt}"));
            }
            if ty != Type::Bool {
                err(s, format!("{i}: comparison typed {ty}"));
            }
        }
        Inst::Not(x) => {
            expect_type(s, g, b, i, *x, Type::Bool);
            if ty != Type::Bool {
                err(s, format!("{i}: not typed {ty}"));
            }
        }
        Inst::Neg(x) => {
            expect_type(s, g, b, i, *x, Type::Int);
            if ty != Type::Int {
                err(s, format!("{i}: neg typed {ty}"));
            }
        }
        Inst::Phi { inputs } => {
            for &input in inputs {
                if g.ty(input) != ty {
                    err(
                        s,
                        format!(
                            "{i}: phi typed {ty} has input {input} of type {}",
                            g.ty(input)
                        ),
                    );
                }
            }
        }
        Inst::New { class } => {
            if !table.contains_class(*class) {
                err(s, format!("{i}: new of unknown class {class}"));
            } else if ty != Type::Ref(*class) {
                err(s, format!("{i}: new {class} typed {ty}"));
            }
        }
        Inst::LoadField { object, field } => {
            check_receiver(s, g, b, i, *object, *field);
            if table.contains_field(*field) && ty != table.field(*field).ty {
                err(s, format!("{i}: load of {field} typed {ty}"));
            }
        }
        Inst::StoreField {
            object,
            field,
            value,
        } => {
            check_receiver(s, g, b, i, *object, *field);
            if table.contains_field(*field) && g.ty(*value) != table.field(*field).ty {
                err(s, format!("{i}: store of {} into {field}", g.ty(*value)));
            }
            if ty != Type::Void {
                err(s, format!("{i}: store typed {ty}"));
            }
        }
        Inst::InstanceOf { object, class } => {
            if !matches!(g.ty(*object), Type::Ref(_)) {
                err(s, format!("{i}: instanceof on {}", g.ty(*object)));
            }
            if !table.contains_class(*class) {
                err(s, format!("{i}: instanceof unknown class {class}"));
            }
            if ty != Type::Bool {
                err(s, format!("{i}: instanceof typed {ty}"));
            }
        }
        Inst::NewArray { length } => {
            expect_type(s, g, b, i, *length, Type::Int);
            if ty != Type::Arr {
                err(s, format!("{i}: newarray typed {ty}"));
            }
        }
        Inst::ArrayLoad { array, index } => {
            expect_type(s, g, b, i, *array, Type::Arr);
            expect_type(s, g, b, i, *index, Type::Int);
            if ty != Type::Int {
                err(s, format!("{i}: aload typed {ty}"));
            }
        }
        Inst::ArrayStore {
            array,
            index,
            value,
        } => {
            expect_type(s, g, b, i, *array, Type::Arr);
            expect_type(s, g, b, i, *index, Type::Int);
            expect_type(s, g, b, i, *value, Type::Int);
            if ty != Type::Void {
                err(s, format!("{i}: astore typed {ty}"));
            }
        }
        Inst::ArrayLength(a) => {
            expect_type(s, g, b, i, *a, Type::Arr);
            if ty != Type::Int {
                err(s, format!("{i}: alength typed {ty}"));
            }
        }
        Inst::Invoke { args } => {
            for &a in args {
                if g.ty(a) == Type::Void {
                    err(s, format!("{i}: invoke passes void value {a}"));
                }
            }
            if ty != Type::Int {
                err(s, format!("{i}: invoke typed {ty}"));
            }
        }
    }
}

/// The typing of `b`'s terminator: a boolean branch condition, no
/// returned void value.
fn terminator_type_rule(g: &Graph, b: BlockId, s: &mut Sink<'_>) {
    let message = match *g.terminator(b) {
        Terminator::Branch { cond, .. }
            if cond.index() < g.inst_count() && g.ty(cond) != Type::Bool =>
        {
            format!("terminator of {b}: branch on {}", g.ty(cond))
        }
        Terminator::Return { value: Some(v) }
            if v.index() < g.inst_count() && g.ty(v) == Type::Void =>
        {
            format!("terminator of {b}: returns void value {v}")
        }
        _ => return,
    };
    s.emit(LintId::TypeError, Some(b), None, message);
}

/// What the dominance property asks of one operand slot.
#[derive(Clone, Copy)]
enum Needs {
    /// Nothing: the block is unreachable, or the slot is a φ input past
    /// the block's predecessors.
    Nothing,
    /// A definition earlier in the block than this list position, or in
    /// a dominating block.
    DefBefore(usize),
    /// The φ input of `phi` is available at the end of `pred`.
    AvailableAt { phi: InstId, pred: BlockId },
}

/// Marker of [`SlotRules`]' position table for "not listed".
const NO_POS: u32 = u32::MAX;

/// The rules of one operand slot, with what they read across slots.
struct SlotRules<'a, 'o> {
    g: &'a Graph,
    dom: &'a DomForest,
    s: &'a mut Sink<'o>,
    /// The work counted so far (the use-list walk adds its own).
    work: VerifyWork,
    /// Position of each instruction in the last block list that names
    /// it ([`NO_POS`] if none), for the same-block dominance rule.
    pos: Vec<u32>,
    /// The use lists the live operand slots imply.
    expected: UseLists,
}

impl SlotRules<'_, '_> {
    /// Checks the slot of `at` (`b`'s terminator if `None`) that names
    /// `v`: a dangling reference, then `needs`. Records the slot in the
    /// expected lists under `user` when it is live. Returns whether `v`
    /// is in the arena.
    fn check(
        &mut self,
        b: BlockId,
        at: Option<InstId>,
        v: InstId,
        user: Option<Use>,
        needs: Needs,
    ) -> bool {
        self.work.slots_read += 1;
        if let Some(user) = user {
            self.expected.add(v, user);
        }
        let in_range = v.index() < self.g.inst_count();
        let def = if in_range { self.g.block_of(v) } else { None };
        if !in_range {
            self.s.out_of_range(b, at, v);
        } else if def.is_none() {
            self.s.removed_use(b, at, v);
        }
        match needs {
            Needs::Nothing => {}
            Needs::DefBefore(use_pos) => {
                let dominated = match def {
                    // `NO_POS` is past every list position.
                    Some(db) if db == b => (self.pos[v.index()] as usize) < use_pos,
                    Some(db) => self.dominates(db, b),
                    None => false,
                };
                if !dominated {
                    self.s.undominated_use(b, at, v);
                }
            }
            Needs::AvailableAt { phi, pred } => {
                if !def.is_some_and(|db| self.dominates(db, pred)) {
                    self.s.undominated_phi_input(b, phi, v, pred);
                }
            }
        }
        in_range
    }

    fn dominates(&mut self, a: BlockId, b: BlockId) -> bool {
        self.work.dominance_queries += 1;
        self.dom.dominates(a, b)
    }
}

// ---------------------------------------------------------------------
// Whole-graph passes: the per-block rules over every block, plus the
// rules that are not a function of one block's slots.
// ---------------------------------------------------------------------

/// Every per-block rule in one walk over the blocks, reading each
/// operand slot once: edge bookkeeping; then per listed instruction its
/// block record, its operand slots (dangling references and — in
/// reachable blocks — the dominance property: every operand defined
/// earlier in its block or in a dominating block, every φ input
/// available at the end of its predecessor), φ and param placement and
/// typing; then the terminator's slots and typing. Returns the use lists
/// the live operand slots imply: those of every attached instruction,
/// once, and of every terminator.
fn block_sweep(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) -> (UseLists, VerifyWork) {
    let n = g.inst_count();
    let mut pos = vec![NO_POS; n];
    for b in g.blocks() {
        for (k, &i) in g.block_insts(b).iter().enumerate() {
            pos[i.index()] = k as u32;
        }
    }
    let mut rules = SlotRules {
        g,
        dom,
        s,
        work: VerifyWork::default(),
        pos,
        expected: UseLists::with_arena(n),
    };
    // Attached instructions whose slots are recorded already.
    let mut counted = vec![false; n];
    for b in g.blocks() {
        edge_rules(g, dom, b, rules.s);
        let reachable = dom.contains(b);
        let preds = g.preds(b);
        let mut seen_non_phi = false;
        for (k, &i) in g.block_insts(b).iter().enumerate() {
            let filed = g.block_of(i) == Some(b);
            if !filed {
                rules.s.misfiled(b, i, g.block_of(i));
            }
            placement_rules(g, b, i, &mut seen_non_phi, rules.s);
            let first_listing = filed && !std::mem::replace(&mut counted[i.index()], true);
            let user = first_listing.then_some(Use::Inst(i));
            let inst = g.inst(i);
            let (is_phi, mut in_range, mut slot) = (inst.is_phi(), true, 0);
            inst.for_each_input(|v| {
                let needs = match (reachable, is_phi) {
                    (false, _) => Needs::Nothing,
                    (true, false) => Needs::DefBefore(k),
                    (true, true) => preds
                        .get(slot)
                        .map_or(Needs::Nothing, |&pred| Needs::AvailableAt { phi: i, pred }),
                };
                slot += 1;
                in_range &= rules.check(b, Some(i), v, user, needs);
            });
            if in_range {
                inst_type_rules(g, b, i, rules.s);
            }
        }
        let needs = if reachable {
            Needs::DefBefore(g.block_insts(b).len())
        } else {
            Needs::Nothing
        };
        g.terminator(b).for_each_input(|v| {
            rules.check(b, None, v, Some(Use::Term(b)), needs);
        });
        terminator_type_rule(g, b, rules.s);
    }
    // An attached instruction no block lists under its own record still
    // owns live slots.
    for (index, _) in counted.iter().enumerate().filter(|&(_, &c)| !c) {
        let i = InstId::from_index(index);
        if g.block_of(i).is_some() {
            g.inst(i).for_each_input(|v| {
                rules.work.slots_read += 1;
                rules.expected.add(v, Use::Inst(i));
            });
        }
    }
    (rules.expected, rules.work)
}

/// The def-use lists against `expected`, the lists the operand sweep
/// found the live slots to imply. Not a per-block rule: a list is a
/// property of every slot that could mention the value.
fn use_list_pass(g: &Graph, expected: &UseLists, s: &mut Sink<'_>, work: &mut VerifyWork) {
    let (mismatches, walked) = g.use_list_mismatches_against(expected);
    work.chain_nodes += walked;
    for (v, held, expected) in mismatches {
        let block = (v.index() < g.inst_count())
            .then(|| g.block_of(v))
            .flatten();
        s.emit(
            LintId::UseListMismatch,
            block,
            Some(v),
            format!("use list of {v} holds {held} entries, {expected} operand slots mention it"),
        );
    }
}

/// CFG hygiene: findings the soundness checks cannot express — populated
/// dead blocks, trivial φs, critical edges into merges. All warn-severity.
fn hygiene_pass(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) {
    for b in g.blocks() {
        if !dom.contains(b) && !g.block_insts(b).is_empty() {
            s.emit(
                LintId::UnreachableBlock,
                Some(b),
                None,
                format!(
                    "unreachable {b} still holds {} instructions",
                    g.block_insts(b).len()
                ),
            );
        }
        for &i in g.phis(b) {
            if let Inst::Phi { inputs } = g.inst(i) {
                let mut distinct: Option<InstId> = None;
                let mut trivial = true;
                for &input in inputs {
                    if input == i {
                        continue; // self-reference through a back edge
                    }
                    match distinct {
                        None => distinct = Some(input),
                        Some(d) if d == input => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial && !inputs.is_empty() {
                    s.emit(
                        LintId::TrivialPhi,
                        Some(b),
                        Some(i),
                        format!("{b}: phi {i} is trivial (every input is the same value)"),
                    );
                }
            }
        }
        let succs = g.succs(b);
        if succs.len() > 1 {
            for succ in succs {
                if g.preds(succ).len() > 1 {
                    s.emit(
                        LintId::CriticalEdge,
                        Some(b),
                        None,
                        format!(
                            "critical edge {b} -> {succ} into a merge ({} successors, {} predecessors)",
                            g.succs(b).len(),
                            g.preds(succ).len()
                        ),
                    );
                }
            }
        }
    }
}

/// Reverse-CFG structure: exit reachability ([`LintId::NoExitPath`]) and
/// the cross-check of branch probabilities against control dependence
/// ([`LintId::ControlDepViolation`]), on the post-dominator forest of the
/// reachable blocks that reach an exit. Exit reachability is that
/// forest's domain; only the cross-check reads post-dominators, and only
/// from a branch of probability exactly 0 or 1, so the reverse solve
/// runs only when such a branch exists.
fn reverse_cfg_pass(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) {
    let mut pdom = DomForest::search(g, Dir::Reverse, Some(dom));
    for b in g.blocks().filter(|&b| dom.contains(b) && !pdom.contains(b)) {
        s.emit(
            LintId::NoExitPath,
            Some(b),
            None,
            format!("reachable {b} has no path to any exit block"),
        );
    }

    // Control-dependence vs. probability cross-check: code that is
    // control dependent on a branch edge the profile says never
    // executes (probability exactly 0 toward it) contradicts the
    // profile the whole trade-off tier prices with. The chain walk is
    // Ferrante's: everything from the dead successor up to (exclusive)
    // the branch's immediate post-dominator is decided by that edge.
    let dead_edges: Vec<(BlockId, BlockId, f64)> = g
        .blocks()
        .filter(|&a| pdom.contains(a))
        .filter_map(|a| match *g.terminator(a) {
            Terminator::Branch {
                then_bb, prob_then, ..
            } if prob_then == 0.0 => Some((a, then_bb, prob_then)),
            Terminator::Branch {
                else_bb, prob_then, ..
            } if prob_then == 1.0 => Some((a, else_bb, prob_then)),
            _ => None,
        })
        .collect();
    if dead_edges.is_empty() {
        return;
    }
    pdom.solve(g);
    for (a, dead, prob_then) in dead_edges {
        let target = pdom.parent(a);
        let mut runner = Some(dead);
        while runner != target {
            let Some(r) = runner else { break };
            if !pdom.contains(r) {
                break;
            }
            if !g.block_insts(r).is_empty() {
                s.emit(
                    LintId::ControlDepViolation,
                    Some(r),
                    None,
                    format!(
                        "{r} is control dependent on the never-taken edge {a} -> {dead} \
                         (probability {prob_then} branch)"
                    ),
                );
            }
            runner = pdom.parent(r);
        }
    }
}

/// Which way a [`DomForest`] reads the CFG.
#[derive(Clone, Copy)]
enum Dir {
    /// Dominators: the search follows successors from the entry.
    Forward,
    /// Post-dominators: the search follows predecessors from the exits.
    Reverse,
}

impl Dir {
    /// Is `b` a root: the entry forward, an exit in reverse?
    fn is_root(self, g: &Graph, b: BlockId) -> bool {
        match self {
            Dir::Forward => b == g.entry(),
            Dir::Reverse => g.succs(b).is_empty(),
        }
    }

    /// The `k`-th edge the search follows out of `b`.
    fn edge(self, g: &Graph, b: BlockId, k: usize) -> Option<BlockId> {
        match self {
            Dir::Forward => g.succs(b).get(k).copied(),
            Dir::Reverse => g.preds(b).get(k).copied(),
        }
    }

    /// The `k`-th edge into `b`: the predecessors the solver intersects.
    fn back_edge(self, g: &Graph, b: BlockId, k: usize) -> Option<BlockId> {
        match self {
            Dir::Forward => g.preds(b).get(k).copied(),
            Dir::Reverse => g.succs(b).get(k).copied(),
        }
    }
}

/// A block index no block carries: outside the domain, or not yet solved.
const UNSEEN: u32 = u32::MAX;

/// The verifier's dominator solver, for either edge direction: a DFS
/// from the roots, then Cooper–Harvey–Kennedy with a virtual root one
/// past the real blocks, placed above the roots. Forward, the root is
/// the entry and the domain the reachable blocks; in reverse, the roots
/// are the reachable exits and the domain the reachable blocks that
/// reach one. The solved forest is numbered by preorder and subtree
/// end, so a dominance query is two compares. `dbds-analysis` depends
/// on this crate, so the verifier carries its own solver.
struct DomForest {
    dir: Dir,
    /// The domain in reverse postorder of the search.
    rpo: Vec<BlockId>,
    /// Position in `rpo` plus one per block, 0 for the virtual root (the
    /// last slot), [`UNSEEN`] outside the domain.
    pos: Vec<u32>,
    /// The solved parent per block: the virtual root above the roots,
    /// [`UNSEEN`] outside the domain; empty before [`DomForest::solve`].
    parent: Vec<u32>,
    /// Preorder number per block in the solved forest, [`UNSEEN`]
    /// outside the domain. Empty before [`DomForest::solve`], or when a
    /// solved parent does not precede its child in `rpo`, which only a
    /// graph whose predecessor and successor lists disagree solves to.
    pre: Vec<u32>,
    /// One past the last preorder number of each block's subtree, 0
    /// outside the domain; empty when `pre` is.
    end: Vec<u32>,
}

impl DomForest {
    /// The dominator tree of the blocks reachable from the entry.
    fn forward(g: &Graph) -> Self {
        let mut dom = Self::search(g, Dir::Forward, None);
        dom.solve(g);
        dom
    }

    /// The domain and its order, searched from the roots in `dir` over
    /// the blocks of `within`'s domain (every block if `None`); nothing
    /// is solved yet.
    fn search(g: &Graph, dir: Dir, within: Option<&DomForest>) -> Self {
        let n = g.block_count();
        let allowed = |b: BlockId| within.is_none_or(|w| w.contains(b));
        // `pos` marks the visited blocks with 0 until they are numbered.
        let mut pos = vec![UNSEEN; n + 1];
        let mut post: Vec<BlockId> = Vec::new();
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for root in g.blocks().filter(|&b| allowed(b) && dir.is_root(g, b)) {
            if pos[root.index()] != UNSEEN {
                continue;
            }
            pos[root.index()] = 0;
            stack.push((root, 0));
            while let Some(&mut (b, ref mut k)) = stack.last_mut() {
                if let Some(next) = dir.edge(g, b, *k) {
                    *k += 1;
                    if pos[next.index()] == UNSEEN && allowed(next) {
                        pos[next.index()] = 0;
                        stack.push((next, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        for (i, &b) in post.iter().enumerate() {
            pos[b.index()] = i as u32 + 1;
        }
        pos[n] = 0;
        DomForest {
            dir,
            rpo: post,
            pos,
            parent: Vec::new(),
            pre: Vec::new(),
            end: Vec::new(),
        }
    }

    /// Cooper–Harvey–Kennedy over the searched domain, then the
    /// numbering. A root's parent is the virtual root, which is above
    /// every block.
    ///
    /// The first sweep is already the fixpoint when every predecessor it
    /// skipped (still unsolved when its block was reached) is dominated,
    /// in the first sweep's tree, by the block that skipped it: a second
    /// sweep would meet each such predecessor below the block's parent
    /// and keep that parent. An acyclic domain skips none; a reducible
    /// loop skips only its back edges, whose header dominates their
    /// source. Only otherwise do confirming sweeps run.
    fn solve(&mut self, g: &Graph) {
        self.parent = vec![UNSEEN; self.pos.len()];
        let mut skipped = Vec::new();
        self.sweep(g, &mut skipped);
        self.number();
        let settled = !self.pre.is_empty()
            && skipped
                .iter()
                .all(|&(p, b)| self.parent[b.index()] != UNSEEN && self.dominates(b, p));
        if settled {
            debug_assert!(
                !self.sweep(g, &mut Vec::new()),
                "a settled first sweep is not the fixpoint"
            );
        } else {
            while self.sweep(g, &mut Vec::new()) {}
            self.number();
        }
    }

    /// One sweep in reverse postorder: each block's parent becomes the
    /// nearest common ancestor of its solved predecessors. Collects the
    /// `(predecessor, block)` edges whose in-domain predecessor was still
    /// unsolved; returns whether a parent changed.
    fn sweep(&mut self, g: &Graph, skipped: &mut Vec<(BlockId, BlockId)>) -> bool {
        let virtual_root = (self.pos.len() - 1) as u32;
        let mut changed = false;
        for &b in &self.rpo {
            let mut new_parent = UNSEEN;
            if self.dir.is_root(g, b) {
                new_parent = virtual_root;
            } else {
                for p in (0..).map_while(|k| self.dir.back_edge(g, b, k)) {
                    if self.parent[p.index()] != UNSEEN {
                        let p = p.index() as u32;
                        new_parent = match new_parent {
                            UNSEEN => p,
                            cur => self.intersect(p, cur),
                        };
                    } else if self.contains(p) {
                        skipped.push((p, b));
                    }
                }
            }
            if new_parent != UNSEEN && self.parent[b.index()] != new_parent {
                self.parent[b.index()] = new_parent;
                changed = true;
            }
        }
        changed
    }

    /// Numbers the solved forest by preorder and subtree end in two
    /// sweeps over `rpo`, where a parent precedes its children: subtree
    /// sizes backwards, then forwards each block takes the next free
    /// number of its parent and reserves its subtree's range after it.
    /// No child lists, no stack. A block left unsolved hangs under the
    /// virtual root, where its chain ends.
    fn number(&mut self) {
        let virtual_root = self.pos.len() - 1;
        let parent = |b: usize| match self.parent[b] {
            UNSEEN => virtual_root,
            p => p as usize,
        };
        // `end` holds subtree sizes, then each numbered block's next free
        // number, which ends one past its subtree.
        let mut end = vec![0u32; virtual_root + 1];
        for &b in self.rpo.iter().rev() {
            let (b, p) = (b.index(), parent(b.index()));
            if self.pos[p] >= self.pos[b] {
                (self.pre, self.end) = (Vec::new(), Vec::new());
                return;
            }
            end[b] += 1;
            end[p] += end[b];
        }
        end[virtual_root] = 0;
        let mut pre = vec![UNSEEN; virtual_root + 1];
        for &b in &self.rpo {
            let (b, p) = (b.index(), parent(b.index()));
            let size = end[b];
            pre[b] = end[p];
            end[p] += size;
            end[b] = pre[b] + 1;
        }
        self.pre = pre;
        self.end = end;
    }

    fn intersect(&self, mut a: u32, mut b: u32) -> u32 {
        while a != b {
            while self.pos[a as usize] > self.pos[b as usize] {
                a = self.parent[a as usize];
            }
            while self.pos[b as usize] > self.pos[a as usize] {
                b = self.parent[b as usize];
            }
        }
        a
    }

    /// Is `b` in the domain?
    fn contains(&self, b: BlockId) -> bool {
        self.pos[b.index()] != UNSEEN
    }

    /// The immediate (post-)dominator of `b`: `None` when that is the
    /// virtual root, outside the domain, or before [`DomForest::solve`].
    fn parent(&self, b: BlockId) -> Option<BlockId> {
        let p = self.parent[b.index()] as usize;
        (p < self.pos.len() - 1).then(|| BlockId::from_index(p))
    }

    /// Does `a` (post-)dominate `b` (reflexively)? `b`'s number falls in
    /// `a`'s subtree range. Blocks outside the domain neither dominate
    /// nor are dominated — not even by themselves: their range is empty
    /// and their number past every range. Without a numbering the query
    /// walks `b`'s parent chain.
    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.pre.is_empty() {
            let mut chain = self.contains(b).then_some(b);
            while let Some(c) = chain {
                if c == a {
                    return true;
                }
                chain = self.parent(c);
            }
            return false;
        }
        let (a, b) = (a.index(), b.index());
        self.pre[a] <= self.pre[b] && self.pre[b] < self.end[a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::classes::ClassTable;
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    fn diamond() -> Graph {
        let mut b = GraphBuilder::new("d", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, zero], Type::Int);
        b.ret(Some(phi));
        b.finish()
    }

    #[test]
    fn clean_graph_yields_clean_report() {
        let report = lint(&diamond());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn report_order_is_deterministic_and_sorted() {
        // A graph with several problems across blocks: use-before-def and
        // a type error in the entry block.
        let mut g = Graph::new("multi", &[], empty_table());
        let e = g.entry();
        let t = g.append_inst(e, Inst::Const(ConstValue::Bool(true)), Type::Bool);
        let neg = g.append_inst(e, Inst::Neg(t), Type::Int);
        let add = g.append_inst(
            e,
            Inst::Binary {
                op: crate::inst::BinOp::Add,
                lhs: neg,
                rhs: InstId(9),
            },
            Type::Int,
        );
        let _late = g.append_inst(e, Inst::Const(ConstValue::Int(1)), Type::Int);
        g.set_terminator(e, Terminator::Return { value: Some(add) });
        let a = lint(&g);
        let b = lint(&g);
        assert_eq!(a, b);
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "two runs must render identically"
        );
        let keys: Vec<_> = a
            .diagnostics()
            .iter()
            .map(|d| (d.block, d.inst, d.lint))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_by_key(|(b, i, l)| {
            (
                b.map_or(u64::MAX, |b| b.index() as u64),
                i.map_or(u64::MAX, |i| i.index() as u64),
                *l,
            )
        });
        assert_eq!(keys, sorted, "diagnostics must come out in sort order");
        assert!(a.error_count() >= 2);
    }

    #[test]
    fn severity_tracks_lint() {
        for &id in LintId::ALL {
            let d = Diagnostic::new(id, None, None, "x".into());
            assert_eq!(d.severity, id.severity());
        }
    }

    #[test]
    fn lint_names_are_unique_and_kebab() {
        let mut names: Vec<_> = LintId::ALL.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn no_exit_path_warns_on_infinite_regions() {
        let mut b = GraphBuilder::new("inf", &[Type::Bool], empty_table());
        let c = b.param(0);
        let spin = b.new_block();
        let done = b.new_block();
        b.branch(c, spin, done, 0.5);
        b.switch_to(spin);
        b.jump(spin);
        b.switch_to(done);
        b.ret(None);
        let report = lint(&b.finish());
        assert_eq!(report.count_of(LintId::NoExitPath), 1);
        assert!(report.is_clean(), "no-exit-path is hygiene, not soundness");
    }

    #[test]
    fn control_dep_violation_fires_on_dead_edge_code() {
        // bt holds real code but is control dependent on an edge the
        // profile says is never taken (prob_then = 0).
        let mut b = GraphBuilder::new("dead", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.0);
        b.switch_to(bt);
        let y = b.add(x, x);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![y, zero], Type::Int);
        b.ret(Some(phi));
        let report = lint(&b.finish());
        assert_eq!(report.count_of(LintId::ControlDepViolation), 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn live_edges_do_not_trip_the_control_dep_check() {
        // The shared diamond has both edges live (prob 0.5): clean.
        let report = lint(&diamond());
        assert_eq!(report.count_of(LintId::ControlDepViolation), 0);
        assert_eq!(report.count_of(LintId::NoExitPath), 0);
    }

    #[test]
    fn soundness_registry_finds_exactly_the_errors() {
        // Use-before-def plus a type error: the error-capable passes
        // report what the full set reports at error severity.
        let mut g = Graph::new("errs", &[], empty_table());
        let e = g.entry();
        let t = g.append_inst(e, Inst::Const(ConstValue::Bool(true)), Type::Bool);
        let neg = g.append_inst(e, Inst::Neg(t), Type::Int);
        g.set_terminator(e, Terminator::Return { value: Some(neg) });
        for g in [g, diamond()] {
            let all = lint(&g);
            let sound = lint_soundness(&g);
            assert_eq!(
                all.errors().collect::<Vec<_>>(),
                sound.errors().collect::<Vec<_>>()
            );
        }
        // The warn-only hygiene pass is the one thing `lint` adds.
        let mut g = diamond();
        let dead = g.add_block();
        g.append_inst(dead, Inst::Const(ConstValue::Int(1)), Type::Int);
        assert_eq!(lint(&g).count_of(LintId::UnreachableBlock), 1);
        assert_eq!(lint_soundness(&g).warning_count(), 0);
    }

    #[test]
    fn broken_pred_mirror_is_caught_from_the_untouched_side() {
        // bm loses its entry for bt while bt (untouched, so outside the
        // transaction's footprint) still jumps to it: the edge rules of
        // bt see the mismatch.
        let mut g = diamond();
        let (bt, bm) = (BlockId(1), BlockId(3));
        g.begin_txn();
        g.break_pred_mirror(bm, 0);
        assert_eq!(g.txn_footprint().blocks, vec![bm]);
        assert!(lint(&g)
            .errors()
            .any(|d| d.lint == LintId::GraphConsistency && d.block == Some(bt)));
        g.rollback_txn();
        assert!(lint(&g).is_clean());
    }

    #[test]
    fn dropped_use_list_entry_is_caught_by_the_whole_graph_lint_only() {
        // x loses one use-list entry while every operand still names it:
        // no block's slot is wrong, so only the recount can see it.
        let mut g = diamond();
        let x = g.param_values()[0];
        g.begin_txn();
        let footprint = g.txn_footprint();
        g.break_use_list(x);
        assert_eq!(
            g.txn_footprint(),
            footprint,
            "lists are not footprint slots"
        );

        let report = lint(&g);
        assert_eq!(report.count_of(LintId::UseListMismatch), 1);
        assert_eq!(report.error_count(), 1);
        let d = report.errors().next().expect("one error");
        assert_eq!((d.block, d.inst), (Some(g.entry()), Some(x)));
        let errs = crate::verify(&g).expect_err("verify runs the use-list pass");
        assert!(errs.problems[0].contains("use list of v0 holds 1 entries, 2 operand slots"));
        g.commit_txn();
    }

    #[test]
    fn stale_use_behind_a_dropped_list_entry_waits_for_the_whole_graph_lint() {
        // entry → {bt, bf} → bm → tail → tail2; `v` is defined in bm and
        // used only in tail2. Retargeting bt past bm leaves that use
        // undominated in a block the edit never touched, and `v`'s list
        // then loses the entry: the whole-graph passes report both, the
        // dominance rule reading operands and the recount reading lists.
        let mut b = GraphBuilder::new("tail", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        let (tail, tail2) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let v = b.add(x, x);
        b.jump(tail);
        b.switch_to(tail);
        b.jump(tail2);
        b.switch_to(tail2);
        let user = b.neg(v);
        b.ret(Some(user));
        let mut g = b.finish();
        assert!(lint(&g).is_clean());

        g.begin_txn();
        let bypass = g.add_block();
        g.set_terminator(bypass, Terminator::Jump { target: tail });
        g.retarget_edge(bt, bm, bypass, &[]);
        assert!(!g.txn_footprint().blocks.contains(&tail2));

        g.break_use_list(v);
        let whole = lint(&g);
        assert_eq!(whole.count_of(LintId::UseListMismatch), 1, "{whole}");
        assert_eq!(whole.count_of(LintId::SsaDominance), 1, "{whole}");
        let problems = crate::verify(&g).expect_err("verify recounts").problems;
        assert!(problems.iter().any(|p| p.contains("use list of")));
        assert!(problems.iter().any(|p| p.contains("not dominated")));
        g.commit_txn();
    }

    #[test]
    fn moved_record_is_caught_in_the_block_that_still_lists_it() {
        // `zero` now records bt while the entry block — none of whose
        // slots changed — still lists it: the entry block's layout rule
        // sees the mismatch.
        let mut g = diamond();
        let (entry, bt) = (g.entry(), BlockId(1));
        let zero = g.block_insts(entry)[1];
        g.begin_txn();
        g.move_inst_record(zero, bt);
        let fp = g.txn_footprint();
        assert_eq!(fp.insts, vec![zero]);
        assert!(fp.blocks.is_empty(), "no block slot changed");
        assert!(lint(&g)
            .errors()
            .any(|d| d.lint == LintId::GraphConsistency && d.block == Some(entry)));
        g.rollback_txn();
        assert!(lint(&g).is_clean());
    }

    #[test]
    fn extend_restores_sorted_order() {
        let mut report = lint(&diamond());
        report.extend(vec![Diagnostic::new(
            LintId::StaleAnalysis,
            Some(BlockId(0)),
            None,
            "injected".into(),
        )]);
        assert_eq!(report.count_of(LintId::StaleAnalysis), 1);
        let keys: Vec<_> = report
            .diagnostics()
            .iter()
            .map(Diagnostic::sort_key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    /// A random CFG of `n` empty blocks: each ends in a return, a jump or
    /// a two-way branch to random blocks, itself included, so self-loops,
    /// irreducible cycles and unreachable blocks all occur.
    fn random_cfg(n: usize, seed: u64) -> Graph {
        let mut g = Graph::new("cfg", &[Type::Bool], empty_table());
        let c = g.param_values()[0];
        let entry = g.entry();
        let blocks: Vec<BlockId> = std::iter::once(entry)
            .chain((1..n).map(|_| g.add_block()))
            .collect();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut pick = |k: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % k as u64) as usize
        };
        for &b in &blocks {
            let term = match pick(4) {
                0 => Terminator::Return { value: None },
                1 => Terminator::Jump {
                    target: blocks[pick(n)],
                },
                _ => match (blocks[pick(n)], blocks[pick(n)]) {
                    (t, e) if t == e => Terminator::Jump { target: t },
                    (then_bb, else_bb) => Terminator::Branch {
                        cond: c,
                        then_bb,
                        else_bb,
                        prob_then: 0.5,
                    },
                },
            };
            g.set_terminator(b, term);
        }
        g
    }

    /// The interval query against ancestry along the parent chain, on
    /// every block pair of both forests.
    fn assert_intervals_match_chains(g: &Graph) {
        let forward = DomForest::forward(g);
        let mut reverse = DomForest::search(g, Dir::Reverse, Some(&forward));
        reverse.solve(g);
        for dom in [&forward, &reverse] {
            assert!(!dom.pre.is_empty(), "a mirrored graph is numbered:\n{g}");
            for a in g.blocks() {
                for b in g.blocks() {
                    let mut chain = dom.contains(b).then_some(b);
                    while chain.is_some_and(|c| c != a) {
                        chain = chain.and_then(|c| dom.parent(c));
                    }
                    assert_eq!(dom.dominates(a, b), chain.is_some(), "{a} over {b}:\n{g}");
                }
            }
        }
    }

    #[test]
    fn interval_queries_equal_parent_chain_ancestry() {
        for seed in 0..3000 {
            assert_intervals_match_chains(&random_cfg(2 + seed as usize % 13, seed));
        }
    }

    #[test]
    fn interval_queries_cover_irreducible_loops_self_loops_and_dead_blocks() {
        // entry branches into both a and b, which branch to each other:
        // a cycle with two entries. s loops on itself; d is unreachable
        // and jumps into the cycle.
        let mut g = Graph::new("irreducible", &[Type::Bool], empty_table());
        let c = g.param_values()[0];
        let entry = g.entry();
        let [a, b, x, s, d] = [(); 5].map(|()| g.add_block());
        let branch = |then_bb, else_bb| Terminator::Branch {
            cond: c,
            then_bb,
            else_bb,
            prob_then: 0.5,
        };
        g.set_terminator(entry, branch(a, b));
        g.set_terminator(a, branch(b, x));
        g.set_terminator(b, branch(a, s));
        g.set_terminator(s, branch(s, x));
        g.set_terminator(x, Terminator::Return { value: None });
        g.set_terminator(d, Terminator::Jump { target: a });
        assert_intervals_match_chains(&g);
        let dom = DomForest::forward(&g);
        assert!(dom.dominates(entry, a) && dom.dominates(entry, b));
        assert!(!dom.dominates(a, b) && !dom.dominates(b, a));
        assert!(dom.dominates(s, s) && !dom.dominates(d, d) && !dom.dominates(entry, d));
    }

    #[test]
    fn a_deep_chain_reports_its_undominated_use_on_a_small_stack() {
        // entry branches to a side block and to the head of a 20 000-block
        // jump chain; the side block defines `v` and joins the head, and
        // the chain's last block uses `v`, which does not dominate it.
        let report = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut g = Graph::new("deep", &[Type::Bool], empty_table());
                let (entry, c) = (g.entry(), g.param_values()[0]);
                let side = g.add_block();
                let chain: Vec<BlockId> = (0..20_000).map(|_| g.add_block()).collect();
                let v = g.append_inst(side, Inst::Const(ConstValue::Int(1)), Type::Int);
                g.set_terminator(
                    entry,
                    Terminator::Branch {
                        cond: c,
                        then_bb: side,
                        else_bb: chain[0],
                        prob_then: 0.5,
                    },
                );
                g.set_terminator(side, Terminator::Jump { target: chain[0] });
                for pair in chain.windows(2) {
                    g.set_terminator(pair[0], Terminator::Jump { target: pair[1] });
                }
                let last = chain[chain.len() - 1];
                let user = g.append_inst(last, Inst::Neg(v), Type::Int);
                g.set_terminator(last, Terminator::Return { value: Some(user) });
                lint_soundness(&g)
            })
            .expect("spawn the verifier thread")
            .join()
            .expect("the verifier fits a 256 KiB stack");
        assert_eq!(report.error_count(), 1, "{report}");
        assert_eq!(report.count_of(LintId::SsaDominance), 1, "{report}");
    }
}
