//! Graph well-formedness verification.
//!
//! The verifier checks structural invariants (edge bookkeeping, φ
//! placement and arity, type correctness) and the SSA dominance property
//! (every use is dominated by its definition). Every transformation in the
//! workspace is validated against it in tests, and the DBDS optimization
//! tier re-verifies the graph once per round, at its boundary — after
//! each duplication only when it replays a round the boundary rejected.
//!
//! Since the lint framework landed, [`verify`] is a thin wrapper over
//! [`crate::lint`]: it runs the passes that can emit an error-severity
//! lint ([`lint_soundness`]) and reports those diagnostics as a
//! flat [`VerifyErrors`]. Warn-severity hygiene findings do not fail
//! verification and the warn-only pass is not even run; consume
//! [`crate::lint::lint`] directly to see them.

use crate::lint::{lint_soundness, Severity};
use crate::Graph;
use std::error::Error;
use std::fmt;

/// The collection of problems found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyErrors {
    /// Individual human-readable problem descriptions.
    pub problems: Vec<String>,
}

impl fmt::Display for VerifyErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph verification failed ({} problems):",
            self.problems.len()
        )?;
        for p in &self.problems {
            writeln!(f, "  - {p}")?;
        }
        Ok(())
    }
}

impl VerifyErrors {
    /// A one-line digest: the first problem plus the total count. Suits
    /// log lines and bailout records where the multi-line [`fmt::Display`]
    /// form is too bulky.
    pub fn summary(&self) -> String {
        match self.problems.as_slice() {
            [] => "graph verification failed".to_string(),
            [only] => only.clone(),
            [first, ..] => format!("{first} (+{} more)", self.problems.len() - 1),
        }
    }
}

impl Error for VerifyErrors {}

/// Verifies `g`, returning all problems found.
///
/// # Errors
///
/// Returns a [`VerifyErrors`] describing every violated invariant. An `Ok`
/// result means the graph is structurally sound, type-correct and in valid
/// SSA form. Problems arrive in the lint report's deterministic
/// (block, instruction, lint) order.
pub fn verify(g: &Graph) -> Result<(), VerifyErrors> {
    let report = lint_soundness(g);
    let problems: Vec<String> = report
        .diagnostics()
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.message.clone())
        .collect();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(VerifyErrors { problems })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::classes::ClassTable;
    use crate::ids::InstId;
    use crate::inst::{BinOp, CmpOp, Inst, Terminator};
    use crate::types::{ConstValue, Type};
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
    fn accepts_well_formed_diamond() {
        verify(&diamond()).unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut g = Graph::new("u", &[], empty_table());
        let e = g.entry();
        // add uses a value defined after it.
        let c1 = g.append_inst(e, Inst::Const(ConstValue::Int(1)), Type::Int);
        let add = g.append_inst(
            e,
            Inst::Binary {
                op: BinOp::Add,
                lhs: c1,
                rhs: InstId(2), // the const created below
            },
            Type::Int,
        );
        let _c2 = g.append_inst(e, Inst::Const(ConstValue::Int(2)), Type::Int);
        g.set_terminator(e, Terminator::Return { value: Some(add) });
        let errs = verify(&g).unwrap_err();
        assert!(
            errs.problems.iter().any(|p| p.contains("not dominated")),
            "{errs}"
        );
    }

    #[test]
    fn rejects_cross_branch_use() {
        let mut b = GraphBuilder::new("x", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(bf);
        b.ret(Some(one)); // uses a value from the sibling branch
        let g = b.finish();
        let errs = verify(&g).unwrap_err();
        assert!(errs.problems.iter().any(|p| p.contains("not dominated")));
    }

    #[test]
    fn rejects_type_errors() {
        let mut g = Graph::new("t", &[Type::Bool], empty_table());
        let e = g.entry();
        let p = g.param_values()[0];
        // add of booleans
        let bad = g.append_inst(
            e,
            Inst::Binary {
                op: BinOp::Add,
                lhs: p,
                rhs: p,
            },
            Type::Int,
        );
        g.set_terminator(e, Terminator::Return { value: Some(bad) });
        let errs = verify(&g).unwrap_err();
        assert!(errs.problems.iter().any(|p| p.contains("expected int")));
    }

    #[test]
    fn rejects_phi_input_not_dominating_pred() {
        let mut b = GraphBuilder::new("pd", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        // Second input (from bf) uses the value defined in bt.
        let phi = b.phi(vec![one, one], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let errs = verify(&g).unwrap_err();
        assert!(errs
            .problems
            .iter()
            .any(|p| p.contains("does not dominate predecessor")));
    }

    #[test]
    fn rejects_field_access_on_wrong_class() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let b_cl = t.add_class("B");
        let fa = t.add_field(a, "x", Type::Int);
        let _fb = t.add_field(b_cl, "y", Type::Int);
        let mut b = GraphBuilder::new("fa", &[], Arc::new(t));
        let obj = b.new_object(b_cl);
        let bad = b.load(obj, fa);
        b.ret(Some(bad));
        let g = b.finish();
        let errs = verify(&g).unwrap_err();
        assert!(errs.problems.iter().any(|p| p.contains("does not belong")));
    }

    #[test]
    fn rejects_use_of_removed_instruction() {
        let mut g = diamond();
        // Find the compare and detach its constant operand.
        let entry = g.entry();
        let zero = g.block_insts(entry)[1];
        assert!(matches!(g.inst(zero), Inst::Const(_)));
        g.remove_inst(zero);
        let errs = verify(&g).unwrap_err();
        assert!(errs
            .problems
            .iter()
            .any(|p| p.contains("removed instruction")));
    }

    #[test]
    fn loop_with_back_edge_phi_verifies() {
        let mut b = GraphBuilder::new("loop", &[Type::Int], empty_table());
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let cond = b.cmp(CmpOp::Lt, i, n);
        b.branch(cond, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut g = b.finish();
        let inc = g.append_inst(
            body,
            Inst::Binary {
                op: BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = inc;
            }
        });
        verify(&g).unwrap();
    }

    #[test]
    fn display_of_errors_lists_problems() {
        let mut g = Graph::new("e", &[], empty_table());
        let e = g.entry();
        let c = g.append_inst(e, Inst::Const(ConstValue::Bool(true)), Type::Bool);
        let bad = g.append_inst(e, Inst::Neg(c), Type::Int);
        g.set_terminator(e, Terminator::Return { value: Some(bad) });
        let errs = verify(&g).unwrap_err();
        let text = errs.to_string();
        assert!(text.contains("verification failed"));
        assert!(text.contains("expected int"));
    }

    #[test]
    fn problems_are_sorted_and_stable_across_runs() {
        // Several independent problems: their order must be the lint
        // report's (block, inst, lint) order on every run.
        let mut g = Graph::new("s", &[], empty_table());
        let e = g.entry();
        let t = g.append_inst(e, Inst::Const(ConstValue::Bool(true)), Type::Bool);
        let neg = g.append_inst(e, Inst::Neg(t), Type::Int);
        let add = g.append_inst(
            e,
            Inst::Binary {
                op: BinOp::Add,
                lhs: neg,
                rhs: InstId(9),
            },
            Type::Int,
        );
        g.set_terminator(e, Terminator::Return { value: Some(add) });
        let a = verify(&g).unwrap_err();
        let b = verify(&g).unwrap_err();
        assert_eq!(a, b);
        assert!(a.problems.len() >= 2);
    }
}
