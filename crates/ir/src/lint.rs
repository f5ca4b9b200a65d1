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
//! Every error-severity rule that reads one block's slots is a function
//! of that block (the `*_rules` functions); the whole-graph passes loop
//! them over all blocks.
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
    let mut out = Vec::new();
    soundness_passes(g, &DomForest::forward(g), &mut Sink { out: &mut out });
    LintReport::from_diagnostics(out)
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

/// The error-capable passes, all reading the one dominator tree `dom`
/// (its domain is the set of blocks reachable from the entry). The
/// report is sorted, so their order is not observable.
fn soundness_passes(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) {
    edge_pass(g, dom, s);
    // Block layout: instruction↔block records, φ placement and arity,
    // param placement, dangling value references.
    for b in g.blocks() {
        layout_rules(g, b, s);
    }
    // Per-instruction type rules plus branch-condition typing.
    for b in g.blocks() {
        type_rules(g, b, s);
    }
    dominance_pass(g, dom, s);
    reverse_cfg_pass(g, dom, s);
    use_list_pass(g, s);
}

/// Shared emit helper for the built-in rules.
struct Sink<'a> {
    out: &'a mut Vec<Diagnostic>,
}

impl Sink<'_> {
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
    fn removed_use(&mut self, b: BlockId, at: Option<InstId>, input: InstId) {
        let message = match at {
            Some(i) => format!("{i} in {b} uses removed instruction {input}"),
            None => format!("terminator of {b} uses removed instruction {input}"),
        };
        self.emit(LintId::DanglingUse, Some(b), at, message);
    }

    /// A use (by instruction `at`, or by `b`'s terminator) that its
    /// definition `input` does not dominate.
    fn undominated_use(&mut self, b: BlockId, at: Option<InstId>, input: InstId) {
        let message = match at {
            Some(i) => format!("{i} in {b}: use of {input} not dominated by its definition"),
            None => format!("terminator of {b}: use of {input} not dominated by its definition"),
        };
        self.emit(LintId::SsaDominance, Some(b), at, message);
    }

    /// A φ input that is not available at the end of its predecessor.
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
// Error-severity rules, one function per block.
// ---------------------------------------------------------------------

/// Edge bookkeeping of `b`: entry predecessors, duplicate branch
/// targets, pred/succ mirrors in both directions, branch probability.
fn edge_rules(g: &Graph, b: BlockId, s: &mut Sink<'_>) {
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
}

/// Layout of `b`: instruction↔block records, φ placement and arity,
/// param placement, dangling value references.
fn layout_rules(g: &Graph, b: BlockId, s: &mut Sink<'_>) {
    let mut seen_non_phi = false;
    for &i in g.block_insts(b) {
        if g.block_of(i) != Some(b) {
            s.misfiled(b, i, g.block_of(i));
        }
        match g.inst(i) {
            Inst::Phi { inputs } => {
                if seen_non_phi {
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
                seen_non_phi = true;
            }
            _ => seen_non_phi = true,
        }
        g.inst(i).for_each_input(|input| {
            if input.index() >= g.inst_count() {
                s.emit(
                    LintId::DanglingUse,
                    Some(b),
                    Some(i),
                    format!("{i} references out-of-range value {input}"),
                );
            } else if g.block_of(input).is_none() {
                s.removed_use(b, Some(i), input);
            }
        });
    }
    g.terminator(b).for_each_input(|input| {
        if g.block_of(input).is_none() {
            s.removed_use(b, None, input);
        }
    });
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

/// Per-instruction type rules of `b` plus its terminator's typing.
#[allow(clippy::too_many_lines)]
fn type_rules(g: &Graph, b: BlockId, s: &mut Sink<'_>) {
    let table = g.class_table();
    for &i in g.block_insts(b) {
        // Out-of-range operands are DanglingUse findings; typing
        // them would index past the instruction table.
        let mut out_of_range = false;
        g.inst(i).for_each_input(|input| {
            if input.index() >= g.inst_count() {
                out_of_range = true;
            }
        });
        if out_of_range {
            continue;
        }
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

/// Marker of [`dominance_rules`]' position table for "not listed".
const NO_POS: u32 = u32::MAX;

/// Is `v` available at the end of `b` (the φ-input rule)?
fn available_at_end(g: &Graph, dom: &DomForest, v: InstId, b: BlockId) -> bool {
    v.index() < g.inst_count() && g.block_of(v).is_some_and(|db| dom.dominates(db, b))
}

/// The SSA dominance property on the reachable block `b`: every operand
/// is defined earlier in `b` or in a dominating block, every φ input is
/// available at the end of its predecessor. `pos` maps an instruction
/// index to its position in its block's list ([`NO_POS`] if unlisted);
/// only the entries of `b`'s own instructions are read.
fn dominance_rules(g: &Graph, dom: &DomForest, pos: &[u32], b: BlockId, s: &mut Sink<'_>) {
    let dominates_use = |v: InstId, use_pos: usize| {
        if v.index() >= g.inst_count() {
            return false;
        }
        match g.block_of(v) {
            // `NO_POS` is past every list position.
            Some(db) if db == b => (pos[v.index()] as usize) < use_pos,
            Some(db) => dom.dominates(db, b),
            None => false,
        }
    };
    for (k, &i) in g.block_insts(b).iter().enumerate() {
        match g.inst(i) {
            Inst::Phi { inputs } => {
                for (&input, &pred) in inputs.iter().zip(g.preds(b)) {
                    if !available_at_end(g, dom, input, pred) {
                        s.undominated_phi_input(b, i, input, pred);
                    }
                }
            }
            inst => inst.for_each_input(|input| {
                if !dominates_use(input, k) {
                    s.undominated_use(b, Some(i), input);
                }
            }),
        }
    }
    let end = g.block_insts(b).len();
    g.terminator(b).for_each_input(|input| {
        if !dominates_use(input, end) {
            s.undominated_use(b, None, input);
        }
    });
}

// ---------------------------------------------------------------------
// Whole-graph passes: the per-block rules over every block, plus the
// rules that are not a function of one block's slots.
// ---------------------------------------------------------------------

/// Edge bookkeeping: pred/succ symmetry, entry predecessors, duplicate
/// branch targets, branch probabilities, unreachable predecessors.
fn edge_pass(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) {
    for b in g.blocks() {
        edge_rules(g, b, s);
    }
    // Reachable blocks must not have unreachable predecessors: the
    // cleanup pass must disconnect dead code before verification.
    // A property of global reachability, not of any one block's slot.
    for b in g.blocks().filter(|&b| dom.contains(b)) {
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

/// The SSA dominance property: every use is dominated by its definition,
/// and every φ input dominates (the end of) its predecessor.
fn dominance_pass(g: &Graph, dom: &DomForest, s: &mut Sink<'_>) {
    // Position of each instruction within its block, for the
    // same-block checks.
    let mut pos = vec![NO_POS; g.inst_count()];
    for b in g.blocks() {
        for (k, &i) in g.block_insts(b).iter().enumerate() {
            pos[i.index()] = k as u32;
        }
    }
    for &b in &dom.rpo {
        dominance_rules(g, dom, &pos, b, s);
    }
}

/// The def-use lists against a from-scratch recount over the operands.
/// Not a per-block rule: a list is a property of every slot that could
/// mention the value.
fn use_list_pass(g: &Graph, s: &mut Sink<'_>) {
    for (v, held, expected) in g.use_list_mismatches() {
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
/// reach one. `dbds-analysis` depends on this crate, so the verifier
/// carries its own solver.
struct DomForest {
    dir: Dir,
    /// The domain in reverse postorder of the search.
    rpo: Vec<BlockId>,
    /// Position in `rpo` plus one per block, 0 for the virtual root (the
    /// last slot), [`UNSEEN`] outside the domain.
    pos: Vec<u32>,
    /// The solved parent per block: the virtual root above the roots,
    /// [`UNSEEN`] outside the domain or before [`DomForest::solve`].
    parent: Vec<u32>,
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
            parent: vec![UNSEEN; n + 1],
        }
    }

    /// Cooper–Harvey–Kennedy over the searched domain. A root's parent is
    /// the virtual root, which is above every block.
    fn solve(&mut self, g: &Graph) {
        let virtual_root = (self.pos.len() - 1) as u32;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &self.rpo {
                let new_parent = if self.dir.is_root(g, b) {
                    virtual_root
                } else {
                    (0..)
                        .map_while(|k| self.dir.back_edge(g, b, k))
                        .map(|p| p.index() as u32)
                        .filter(|&p| self.parent[p as usize] != UNSEEN)
                        .reduce(|cur, p| self.intersect(p, cur))
                        .unwrap_or(UNSEEN)
                };
                if new_parent != UNSEEN && self.parent[b.index()] != new_parent {
                    self.parent[b.index()] = new_parent;
                    changed = true;
                }
            }
        }
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

    /// Does `a` (post-)dominate `b` (reflexively)? Blocks outside the
    /// domain neither dominate nor are dominated — not even by
    /// themselves.
    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.contains(b) && std::iter::successors(Some(b), |&c| self.parent(c)).any(|c| c == a)
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
}
