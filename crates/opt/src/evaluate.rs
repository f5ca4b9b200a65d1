//! Applicability checks and action steps.
//!
//! §4.1 of the paper splits every optimization into a *precondition* (an
//! applicability check, AC) and an *action step* that, instead of mutating
//! the IR, "return[s] new (sub)graphs containing the result of the
//! optimization". [`evaluate`] implements exactly that contract: given a
//! [`FactEnv`] it decides what would happen to one instruction and
//! describes the result as a [`Verdict`] without touching the graph. Both
//! the DBDS simulation tier and the real canonicalization pass consume the
//! same verdicts — the simulation feeds them into the cost model, the pass
//! applies them.
//!
//! The covered optimizations are the paper's §2 set: constant folding,
//! strength reduction, conditional elimination, read elimination, and the
//! PEA-style virtual-object reasoning, plus φ copy propagation.

use crate::env::{FactEnv, Resolved, Synonym};
use dbds_analysis::{try_fold_cmp, try_fold_instanceof, Stamp};
use dbds_ir::{BinOp, CmpOp, ConstValue, Graph, Inst, InstId};
use std::fmt;

/// What an optimization would do to an instruction.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// No optimization applies.
    Keep,
    /// The instruction's value is the given constant.
    Const(ConstValue),
    /// The instruction is redundant with an existing value.
    Alias(InstId),
    /// The instruction can be replaced by a cheaper one: `lhs op rhs`
    /// where `rhs` is a new constant (covers the shift/mask strength
    /// reductions).
    Rewrite {
        /// The cheaper operator.
        op: BinOp,
        /// The surviving operand.
        lhs: InstId,
        /// The new constant operand.
        rhs: ConstValue,
    },
    /// The instruction disappears entirely (e.g. a store into a virtual
    /// object).
    Eliminated,
}

impl Verdict {
    /// Returns `true` when the verdict changes the instruction.
    pub fn is_progress(&self) -> bool {
        !matches!(self, Verdict::Keep)
    }
}

/// Which of the paper's §2 optimization classes produced a verdict.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OptKind {
    /// Constant folding (CF).
    ConstantFold,
    /// Strength reduction.
    StrengthReduce,
    /// Conditional elimination (CE).
    ConditionalElim,
    /// Read elimination.
    ReadElim,
    /// Partial escape analysis / scalar replacement (PEA).
    ScalarReplace,
    /// φ copy propagation.
    CopyProp,
}

impl OptKind {
    /// All kinds, in a fixed order.
    pub const ALL: [OptKind; 6] = [
        OptKind::ConstantFold,
        OptKind::StrengthReduce,
        OptKind::ConditionalElim,
        OptKind::ReadElim,
        OptKind::ScalarReplace,
        OptKind::CopyProp,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            OptKind::ConstantFold => "constant-fold",
            OptKind::StrengthReduce => "strength-reduce",
            OptKind::ConditionalElim => "conditional-elim",
            OptKind::ReadElim => "read-elim",
            OptKind::ScalarReplace => "scalar-replace",
            OptKind::CopyProp => "copy-prop",
        }
    }
}

impl fmt::Display for OptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of evaluating one instruction.
#[derive(Clone, PartialEq, Debug)]
pub struct Evaluation {
    /// What would happen.
    pub verdict: Verdict,
    /// The optimization class responsible (when the verdict is progress).
    pub kind: Option<OptKind>,
}

impl Evaluation {
    fn keep() -> Self {
        Evaluation {
            verdict: Verdict::Keep,
            kind: None,
        }
    }

    fn of(verdict: Verdict, kind: OptKind) -> Self {
        Evaluation {
            verdict,
            kind: Some(kind),
        }
    }
}

/// Runs the applicability checks for instruction `id` under `env` and, if
/// one holds, the corresponding action step. The graph is not modified.
pub fn evaluate(g: &Graph, env: &FactEnv, id: InstId) -> Evaluation {
    let eval = evaluate_inst(g, env, id);
    // Only in code a folded branch has just cut off can a value resolve
    // to itself (`v = xor 0, w` where `w` is a single-input φ of `v`): no
    // rewrite.
    if eval.verdict == Verdict::Alias(id) {
        return Evaluation::keep();
    }
    eval
}

fn evaluate_inst(g: &Graph, env: &FactEnv, id: InstId) -> Evaluation {
    match *g.inst(id) {
        Inst::Const(_) | Inst::Param(_) | Inst::New { .. } | Inst::NewArray { .. } => {
            Evaluation::keep()
        }
        Inst::Phi { ref inputs } => eval_phi(g, env, id, inputs),
        Inst::Binary { op, lhs, rhs } => eval_binary(g, env, op, lhs, rhs),
        Inst::Compare { op, lhs, rhs } => eval_compare(g, env, op, lhs, rhs),
        Inst::Not(x) => {
            let r = env.resolve_full(g, x);
            if let Some(b) = r.konst.and_then(ConstValue::as_bool) {
                return Evaluation::of(Verdict::Const(ConstValue::Bool(!b)), OptKind::ConstantFold);
            }
            if let Some(b) = env.stamp_of(g, x).as_bool_constant() {
                return Evaluation::of(
                    Verdict::Const(ConstValue::Bool(!b)),
                    OptKind::ConditionalElim,
                );
            }
            if let Inst::Not(y) = g.inst(r.id) {
                return Evaluation::of(Verdict::Alias(*y), OptKind::ConstantFold);
            }
            Evaluation::keep()
        }
        Inst::Neg(x) => {
            let r = env.resolve_full(g, x);
            if let Some(i) = r.konst.and_then(ConstValue::as_int) {
                return Evaluation::of(
                    Verdict::Const(ConstValue::Int(i.wrapping_neg())),
                    OptKind::ConstantFold,
                );
            }
            if let Inst::Neg(y) = g.inst(r.id) {
                return Evaluation::of(Verdict::Alias(*y), OptKind::ConstantFold);
            }
            Evaluation::keep()
        }
        Inst::InstanceOf { object, class } => {
            if let Stamp::Obj(s) = env.stamp_of(g, object) {
                if let Some(result) = try_fold_instanceof(&s, class) {
                    return Evaluation::of(
                        Verdict::Const(ConstValue::Bool(result)),
                        OptKind::ConditionalElim,
                    );
                }
            }
            Evaluation::keep()
        }
        Inst::LoadField { object, field } => {
            if let Some(syn) = env.read_virtual_field(g, object, field) {
                return Evaluation::of(syn_verdict(syn), OptKind::ScalarReplace);
            }
            if let Some(syn) = env.cached_field(object, field) {
                return Evaluation::of(syn_verdict(syn), OptKind::ReadElim);
            }
            Evaluation::keep()
        }
        Inst::StoreField { object, .. } => {
            if env.virtual_of(object).is_some() {
                return Evaluation::of(Verdict::Eliminated, OptKind::ScalarReplace);
            }
            Evaluation::keep()
        }
        Inst::ArrayLength(a) => {
            // alength(newarray n) == n.
            let r = env.resolve_full(g, a);
            if let Inst::NewArray { length } = g.inst(r.id) {
                return Evaluation::of(Verdict::Alias(*length), OptKind::ReadElim);
            }
            Evaluation::keep()
        }
        Inst::ArrayLoad { .. } | Inst::ArrayStore { .. } | Inst::Invoke { .. } => {
            Evaluation::keep()
        }
    }
}

fn syn_verdict(syn: Synonym) -> Verdict {
    match syn {
        Synonym::Const(c) => Verdict::Const(c),
        Synonym::Value(v) => Verdict::Alias(v),
    }
}

fn eval_phi(g: &Graph, env: &FactEnv, id: InstId, inputs: &[InstId]) -> Evaluation {
    // Copy propagation: a φ whose inputs all agree (ignoring
    // self-references through loop back edges) is that value.
    let mut rep: Option<Resolved> = None;
    for &input in inputs {
        let r = env.resolve_full(g, input);
        if r.id == id {
            continue; // self-reference
        }
        match &rep {
            None => rep = Some(r),
            Some(prev) => {
                let same = match (prev.konst, r.konst) {
                    (Some(a), Some(b)) => a == b,
                    (None, None) => prev.id == r.id,
                    _ => false,
                };
                if !same {
                    return Evaluation::keep();
                }
            }
        }
    }
    match rep {
        Some(Resolved { konst: Some(c), .. }) => {
            Evaluation::of(Verdict::Const(c), OptKind::CopyProp)
        }
        Some(Resolved { id: v, .. }) => Evaluation::of(Verdict::Alias(v), OptKind::CopyProp),
        None => Evaluation::keep(), // degenerate: only self-references
    }
}

fn eval_binary(g: &Graph, env: &FactEnv, op: BinOp, lhs: InstId, rhs: InstId) -> Evaluation {
    let rl = env.resolve_full(g, lhs);
    let rr = env.resolve_full(g, rhs);
    let cl = rl.konst.and_then(ConstValue::as_int);
    let cr = rr.konst.and_then(ConstValue::as_int);

    // Constant folding.
    if let (Some(a), Some(b)) = (cl, cr) {
        if let Some(v) = fold_binop(op, a, b) {
            return Evaluation::of(Verdict::Const(ConstValue::Int(v)), OptKind::ConstantFold);
        }
        return Evaluation::keep(); // division by constant zero: keep the trap
    }

    // Same-operand identities.
    if rl.id == rr.id && cl.is_none() {
        match op {
            BinOp::Sub | BinOp::Xor => {
                return Evaluation::of(Verdict::Const(ConstValue::Int(0)), OptKind::StrengthReduce)
            }
            BinOp::And | BinOp::Or => {
                return Evaluation::of(Verdict::Alias(rl.id), OptKind::StrengthReduce)
            }
            _ => {}
        }
    }

    // Identities with one constant operand. Normalize the constant to the
    // right for commutative operators.
    let (x, c, const_on_left) = match (cl, cr) {
        (None, Some(c)) => (rl.id, Some(c), false),
        (Some(c), None) => (rr.id, Some(c), true),
        _ => (rl.id, None, false),
    };
    if let Some(c) = c {
        if const_on_left && !op.is_commutative() {
            // Only a few left-constant identities are useful.
            match (op, c) {
                (BinOp::Sub, 0) => {
                    // 0 - x: leave to the canonical Neg? Keep simple: no-op.
                }
                (BinOp::Shl | BinOp::Shr | BinOp::UShr, 0) => {
                    return Evaluation::of(
                        Verdict::Const(ConstValue::Int(0)),
                        OptKind::StrengthReduce,
                    );
                }
                (BinOp::Div | BinOp::Rem, 0) => {
                    // 0 / x traps when x == 0; only fold when x is known
                    // non-zero.
                    if let Stamp::Int(range) = env.stamp_of(g, x) {
                        if !range.contains(0) {
                            return Evaluation::of(
                                Verdict::Const(ConstValue::Int(0)),
                                OptKind::ConditionalElim,
                            );
                        }
                    }
                }
                _ => {}
            }
            return Evaluation::keep();
        }
        match (op, c) {
            (BinOp::Add | BinOp::Sub, 0)
            | (BinOp::Mul | BinOp::Div, 1)
            | (BinOp::Or | BinOp::Xor, 0)
            | (BinOp::And, -1)
            | (BinOp::Shl | BinOp::Shr | BinOp::UShr, 0) => {
                return Evaluation::of(Verdict::Alias(x), OptKind::StrengthReduce)
            }
            (BinOp::Mul | BinOp::And, 0) => {
                return Evaluation::of(Verdict::Const(ConstValue::Int(0)), OptKind::StrengthReduce)
            }
            (BinOp::Rem, 1) => {
                return Evaluation::of(Verdict::Const(ConstValue::Int(0)), OptKind::StrengthReduce)
            }
            (BinOp::Mul, c) if is_power_of_two(c) => {
                return Evaluation::of(
                    Verdict::Rewrite {
                        op: BinOp::Shl,
                        lhs: x,
                        rhs: ConstValue::Int(c.trailing_zeros() as i64),
                    },
                    OptKind::StrengthReduce,
                )
            }
            // x / 2^k == x >> k and x % 2^k == x & (2^k − 1) only hold
            // for non-negative x (Figure 3 of the paper relies on the
            // stamp-guarded division reduction).
            (BinOp::Div, c) if is_power_of_two(c) && is_non_negative(env, g, x) => {
                return Evaluation::of(
                    Verdict::Rewrite {
                        op: BinOp::Shr,
                        lhs: x,
                        rhs: ConstValue::Int(c.trailing_zeros() as i64),
                    },
                    OptKind::StrengthReduce,
                );
            }
            (BinOp::Rem, c) if is_power_of_two(c) && is_non_negative(env, g, x) => {
                return Evaluation::of(
                    Verdict::Rewrite {
                        op: BinOp::And,
                        lhs: x,
                        rhs: ConstValue::Int(c - 1),
                    },
                    OptKind::StrengthReduce,
                );
            }
            _ => {}
        }
    }
    Evaluation::keep()
}

fn eval_compare(g: &Graph, env: &FactEnv, op: CmpOp, lhs: InstId, rhs: InstId) -> Evaluation {
    let rl = env.resolve_full(g, lhs);
    let rr = env.resolve_full(g, rhs);

    // Constant operands.
    if let (Some(a), Some(b)) = (rl.konst, rr.konst) {
        if let Some(result) = fold_const_cmp(op, a, b) {
            return Evaluation::of(
                Verdict::Const(ConstValue::Bool(result)),
                OptKind::ConstantFold,
            );
        }
    }

    // x op x.
    if rl.id == rr.id && rl.konst.is_none() {
        let result = match op {
            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => true,
            CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => false,
        };
        return Evaluation::of(
            Verdict::Const(ConstValue::Bool(result)),
            OptKind::ConditionalElim,
        );
    }

    // Stamp-based folding — the conditional-elimination AC.
    let ls = env.stamp_of(g, lhs);
    let rs = env.stamp_of(g, rhs);
    if let Some(result) = try_fold_cmp(op, &ls, &rs) {
        return Evaluation::of(
            Verdict::Const(ConstValue::Bool(result)),
            OptKind::ConditionalElim,
        );
    }
    Evaluation::keep()
}

fn fold_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
        BinOp::UShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
    })
}

fn fold_const_cmp(op: CmpOp, a: ConstValue, b: ConstValue) -> Option<bool> {
    match (a, b) {
        (ConstValue::Int(x), ConstValue::Int(y)) => Some(op.eval_int(x, y)),
        (ConstValue::Bool(x), ConstValue::Bool(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            _ => None,
        },
        (x, y) if x.is_null() && y.is_null() => match op {
            CmpOp::Eq => Some(true),
            CmpOp::Ne => Some(false),
            _ => None,
        },
        _ => None,
    }
}

fn is_power_of_two(c: i64) -> bool {
    c > 0 && (c & (c - 1)) == 0
}

fn is_non_negative(env: &FactEnv, g: &Graph, x: InstId) -> bool {
    match env.stamp_of(g, x) {
        Stamp::Int(r) => r.lo >= 0,
        _ => false,
    }
}

/// Updates `env` with the consequences of having processed instruction
/// `id` whose evaluation produced `eval`. This covers both the bookkeeping
/// of progress verdicts (new synonyms, virtual-field writes) and the
/// memory effects of kept instructions (cache fills, cache kills,
/// escape-driven materialization).
pub fn record_effects(g: &Graph, env: &mut FactEnv, id: InstId, eval: &Evaluation) {
    match &eval.verdict {
        Verdict::Const(c) => env.set_synonym(id, Synonym::Const(*c)),
        Verdict::Alias(v) => {
            if env.resolve(*v).id != id {
                env.set_synonym(id, Synonym::Value(*v));
            }
        }
        Verdict::Rewrite { .. } => {
            // Value-preserving replacement; no new facts.
        }
        Verdict::Eliminated => {
            if let Inst::StoreField {
                object,
                field,
                value,
            } = g.inst(id)
            {
                let syn = resolved_synonym(g, env, *value);
                env.write_virtual_field(*object, *field, syn);
            }
        }
        Verdict::Keep => match *g.inst(id) {
            Inst::New { class } => {
                // The caller decides whether the allocation is virtual;
                // default behaviour: not virtual. (The simulation tier
                // seeds virtual objects explicitly.)
                let _ = class;
            }
            Inst::LoadField { object, field } => {
                env.cache_field(object, field, Synonym::Value(id));
            }
            Inst::StoreField {
                object,
                field,
                value,
            } => {
                env.kill_field_aliases(object, field);
                let syn = resolved_synonym(g, env, value);
                env.cache_field(object, field, syn);
                // The stored reference escapes into the heap.
                if g.ty(value).is_reference() {
                    env.materialize(value);
                }
            }
            Inst::Invoke { ref args } => {
                env.kill_all_fields();
                for &a in args {
                    if g.ty(a).is_reference() {
                        env.materialize(a);
                    }
                }
            }
            // A reference flowing into a φ escapes the tracked scope:
            // writes through the φ alias would otherwise be missed by
            // virtual-object reasoning.
            Inst::Phi { ref inputs } => {
                for &input in inputs {
                    if g.ty(input).is_reference() {
                        env.materialize(input);
                    }
                }
            }
            _ => {}
        },
    }
}

fn resolved_synonym(g: &Graph, env: &FactEnv, v: InstId) -> Synonym {
    let r = env.resolve_full(g, v);
    match r.konst {
        Some(c) => Synonym::Const(c),
        None => Synonym::Value(r.id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, GraphBuilder, Type};
    use std::sync::Arc;

    fn build_binary(op: BinOp) -> (Graph, InstId, InstId, InstId) {
        let mut b = GraphBuilder::new("t", &[Type::Int, Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let y = b.param(1);
        let r = b.binop(op, x, y);
        b.ret(Some(r));
        (b.finish(), x, y, r)
    }

    fn with_consts(env: &mut FactEnv, pairs: &[(InstId, i64)]) {
        for &(v, c) in pairs {
            env.set_synonym(v, Synonym::Const(ConstValue::Int(c)));
        }
    }

    #[test]
    fn folds_figure1_addition() {
        // 2 + 0 → 2 (Figure 1 of the paper).
        let (g, x, y, r) = build_binary(BinOp::Add);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(x, 2), (y, 0)]);
        let e = evaluate(&g, &env, r);
        assert_eq!(e.verdict, Verdict::Const(ConstValue::Int(2)));
        assert_eq!(e.kind, Some(OptKind::ConstantFold));
    }

    #[test]
    fn add_zero_aliases() {
        let (g, _x, y, r) = build_binary(BinOp::Add);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(y, 0)]);
        let e = evaluate(&g, &env, r);
        match e.verdict {
            Verdict::Alias(v) => assert_eq!(v, g.param_values()[0]),
            v => panic!("unexpected {v:?}"),
        }
        assert_eq!(e.kind, Some(OptKind::StrengthReduce));
    }

    #[test]
    fn figure3_division_becomes_shift_with_stamp() {
        // Figure 3: x / φ where φ's synonym on one path is the constant 2.
        // Requires x ≥ 0 for the reduction.
        let (g, x, y, r) = build_binary(BinOp::Div);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(y, 2)]);
        // Without a non-negative stamp: no reduction.
        assert_eq!(evaluate(&g, &env, r).verdict, Verdict::Keep);
        env.set_stamp(x, Stamp::Int(dbds_analysis::IntRange::new(0, 1000)));
        let e = evaluate(&g, &env, r);
        assert_eq!(
            e.verdict,
            Verdict::Rewrite {
                op: BinOp::Shr,
                lhs: x,
                rhs: ConstValue::Int(1),
            }
        );
        assert_eq!(e.kind, Some(OptKind::StrengthReduce));
    }

    #[test]
    fn mul_power_of_two_always_shifts() {
        let (g, x, y, r) = build_binary(BinOp::Mul);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(y, 8)]);
        let e = evaluate(&g, &env, r);
        assert_eq!(
            e.verdict,
            Verdict::Rewrite {
                op: BinOp::Shl,
                lhs: x,
                rhs: ConstValue::Int(3),
            }
        );
    }

    #[test]
    fn rem_power_of_two_masks_when_non_negative() {
        let (g, x, y, r) = build_binary(BinOp::Rem);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(y, 16)]);
        env.set_stamp(x, Stamp::Int(dbds_analysis::IntRange::new(0, i64::MAX)));
        let e = evaluate(&g, &env, r);
        assert_eq!(
            e.verdict,
            Verdict::Rewrite {
                op: BinOp::And,
                lhs: x,
                rhs: ConstValue::Int(15),
            }
        );
    }

    #[test]
    fn div_by_zero_not_folded() {
        let (g, x, y, r) = build_binary(BinOp::Div);
        let mut env = FactEnv::new();
        with_consts(&mut env, &[(x, 10), (y, 0)]);
        assert_eq!(evaluate(&g, &env, r).verdict, Verdict::Keep);
    }

    #[test]
    fn x_minus_x_is_zero() {
        let mut b = GraphBuilder::new("t", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let r = b.sub(x, x);
        b.ret(Some(r));
        let g = b.finish();
        let env = FactEnv::new();
        assert_eq!(
            evaluate(&g, &env, r).verdict,
            Verdict::Const(ConstValue::Int(0))
        );
    }

    #[test]
    fn listing1_conditional_eliminates() {
        // p = 13 known; p > 12 folds to true.
        let mut b = GraphBuilder::new("ce", &[Type::Int], Arc::new(ClassTable::new()));
        let p = b.param(0);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, p, twelve);
        b.ret(None);
        let g = b.finish();
        let mut env = FactEnv::new();
        env.set_synonym(p, Synonym::Const(ConstValue::Int(13)));
        let e = evaluate(&g, &env, c);
        assert_eq!(e.verdict, Verdict::Const(ConstValue::Bool(true)));
    }

    #[test]
    fn stamp_based_compare_folds_as_conditional_elim() {
        let mut b = GraphBuilder::new("ce2", &[Type::Int], Arc::new(ClassTable::new()));
        let p = b.param(0);
        let twelve = b.iconst(12);
        let c = b.cmp(CmpOp::Gt, p, twelve);
        b.ret(None);
        let g = b.finish();
        let mut env = FactEnv::new();
        env.set_stamp(p, Stamp::Int(dbds_analysis::IntRange::new(i64::MIN, 0)));
        let e = evaluate(&g, &env, c);
        assert_eq!(e.verdict, Verdict::Const(ConstValue::Bool(false)));
        assert_eq!(e.kind, Some(OptKind::ConditionalElim));
    }

    #[test]
    fn phi_copy_propagation() {
        let mut b = GraphBuilder::new("cp", &[Type::Bool, Type::Int], Arc::new(ClassTable::new()));
        let c = b.param(0);
        let x = b.param(1);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![x, x], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let env = FactEnv::new();
        let e = evaluate(&g, &env, phi);
        assert_eq!(e.verdict, Verdict::Alias(x));
        assert_eq!(e.kind, Some(OptKind::CopyProp));
    }

    #[test]
    fn listing5_read_elimination() {
        // Read2 of a.x after Read1 of a.x with no intervening store.
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("re", &[Type::Ref(a)], Arc::new(t));
        let obj = b.param(0);
        let r1 = b.load(obj, fx);
        let r2 = b.load(obj, fx);
        b.ret(Some(r2));
        let g = b.finish();
        let mut env = FactEnv::new();
        let e1 = evaluate(&g, &env, r1);
        assert_eq!(e1.verdict, Verdict::Keep);
        record_effects(&g, &mut env, r1, &e1);
        let e2 = evaluate(&g, &env, r2);
        assert_eq!(e2.verdict, Verdict::Alias(r1));
        assert_eq!(e2.kind, Some(OptKind::ReadElim));
    }

    #[test]
    fn store_forwards_to_load_and_kills_aliases() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("sf", &[Type::Ref(a), Type::Ref(a)], Arc::new(t));
        let o1 = b.param(0);
        let o2 = b.param(1);
        let l1 = b.load(o1, fx);
        let five = b.iconst(5);
        let st = b.store(o2, fx, five);
        let l1b = b.load(o1, fx);
        let l2 = b.load(o2, fx);
        b.ret(Some(l2));
        let g = b.finish();
        let mut env = FactEnv::new();
        for id in [l1, five, st] {
            let e = evaluate(&g, &env, id);
            record_effects(&g, &mut env, id, &e);
        }
        // o1.x may have been clobbered by the store to o2.x (may-alias).
        assert_eq!(evaluate(&g, &env, l1b).verdict, Verdict::Keep);
        // o2.x is exactly the stored constant.
        assert_eq!(
            evaluate(&g, &env, l2).verdict,
            Verdict::Const(ConstValue::Int(5))
        );
    }

    #[test]
    fn invoke_kills_read_cache() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("ik", &[Type::Ref(a)], Arc::new(t));
        let obj = b.param(0);
        let l1 = b.load(obj, fx);
        let call = b.invoke(vec![obj]);
        let l2 = b.load(obj, fx);
        b.ret(Some(l2));
        let g = b.finish();
        let mut env = FactEnv::new();
        for id in [l1, call] {
            let e = evaluate(&g, &env, id);
            record_effects(&g, &mut env, id, &e);
        }
        assert_eq!(evaluate(&g, &env, l2).verdict, Verdict::Keep);
    }

    #[test]
    fn listing3_pea_load_from_virtual() {
        // p = new A(0); return p.x → 0.
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("pea", &[], Arc::new(t));
        let alloc = b.new_object(a);
        let load = b.load(alloc, fx);
        b.ret(Some(load));
        let g = b.finish();
        let mut env = FactEnv::new();
        env.add_virtual(alloc, a);
        let e = evaluate(&g, &env, load);
        assert_eq!(e.verdict, Verdict::Const(ConstValue::Int(0)));
        assert_eq!(e.kind, Some(OptKind::ScalarReplace));
    }

    #[test]
    fn store_to_virtual_eliminated_and_forwarded() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("pea2", &[Type::Int], Arc::new(t));
        let x = b.param(0);
        let alloc = b.new_object(a);
        let st = b.store(alloc, fx, x);
        let load = b.load(alloc, fx);
        b.ret(Some(load));
        let g = b.finish();
        let mut env = FactEnv::new();
        env.add_virtual(alloc, a);
        let e = evaluate(&g, &env, st);
        assert_eq!(e.verdict, Verdict::Eliminated);
        record_effects(&g, &mut env, st, &e);
        assert_eq!(evaluate(&g, &env, load).verdict, Verdict::Alias(x));
    }

    #[test]
    fn instanceof_folds_on_fresh_allocation() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let other = t.add_class("B");
        let mut b = GraphBuilder::new("io", &[], Arc::new(t));
        let alloc = b.new_object(a);
        let ta = b.instance_of(alloc, a);
        let tb = b.instance_of(alloc, other);
        b.ret(Some(ta));
        let g = b.finish();
        let env = FactEnv::new();
        assert_eq!(
            evaluate(&g, &env, ta).verdict,
            Verdict::Const(ConstValue::Bool(true))
        );
        assert_eq!(
            evaluate(&g, &env, tb).verdict,
            Verdict::Const(ConstValue::Bool(false))
        );
    }

    #[test]
    fn alength_of_newarray_aliases_length() {
        let mut b = GraphBuilder::new("al", &[Type::Int], Arc::new(ClassTable::new()));
        let n = b.param(0);
        let arr = b.new_array(n);
        let len = b.alength(arr);
        b.ret(Some(len));
        let g = b.finish();
        let env = FactEnv::new();
        assert_eq!(evaluate(&g, &env, len).verdict, Verdict::Alias(n));
    }
}
