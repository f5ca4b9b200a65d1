//! Fail-first corpus for the lint framework: every graph-level
//! [`LintId`] is triggered by a purpose-built malformed (or merely
//! unhygienic) graph, proving each pass actually fires on the defect it
//! is named for. The non-graph lints have fail-first coverage next to
//! their implementations: `StaleAnalysis` in `dbds-analysis`'s cache
//! audit tests, `UseListMismatch` beside the test-only hook that breaks a
//! def-use list (`dbds-ir`'s own `lint` unit tests — no public primitive
//! can produce the defect), `NonFiniteBenefit`/`NegativeAccruedSize` in
//! `dbds-core`'s `lint_simulation` tests, `Misprediction` in
//! `dbds-core`'s prediction-audit tests, and `FrontierViolation` in
//! `dbds-core`'s post-duplication frontier-check tests.

use dbds_ir::{
    lint, verify, BinOp, BlockId, ClassTable, CmpOp, ConstValue, Graph, GraphBuilder, Inst, InstId,
    LintId, LintReport, Severity, Terminator, Type,
};
use std::sync::Arc;

fn empty_table() -> Arc<ClassTable> {
    Arc::new(ClassTable::new())
}

/// The well-formed diamond every broken variant starts from.
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

/// Asserts the defect shows up under exactly the expected lint, with the
/// severity the lint declares.
fn expect_lint(report: &LintReport, lint: LintId) {
    assert!(
        report.count_of(lint) > 0,
        "expected {} to fire, got:\n{report}",
        lint.name()
    );
    for d in report.diagnostics() {
        assert_eq!(d.severity, d.lint.severity(), "{report}");
    }
}

#[test]
fn clean_diamond_is_clean() {
    let report = lint(&diamond());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn graph_consistency_fires_on_entry_with_predecessors() {
    let mut g = diamond();
    // Retarget bt's jump to the entry block: entry gains a predecessor.
    let bt = g.blocks().nth(1).expect("bt exists");
    g.set_terminator(bt, Terminator::Jump { target: g.entry() });
    expect_lint(&lint(&g), LintId::GraphConsistency);
}

#[test]
fn branch_probability_fires_outside_unit_interval() {
    for bad in [2.0, -0.5, f64::NAN] {
        let mut g = diamond();
        g.set_branch_probability(g.entry(), bad);
        expect_lint(&lint(&g), LintId::BranchProbability);
    }
}

#[test]
fn phi_placement_fires_on_arity_mismatch() {
    let mut g = diamond();
    let bm = g.blocks().nth(3).expect("bm exists");
    let phi = g.phis(bm)[0];
    // Drop one input behind the builder's back: one input left, two
    // predecessors.
    g.rewrite_inputs(phi, |inst| {
        if let Inst::Phi { inputs } = inst {
            inputs.pop();
        }
    });
    expect_lint(&lint(&g), LintId::PhiPlacement);
}

#[test]
fn param_placement_fires_outside_entry() {
    let mut g = diamond();
    let bt = g.blocks().nth(1).expect("bt exists");
    g.append_inst(bt, Inst::Param(0), Type::Int);
    expect_lint(&lint(&g), LintId::ParamPlacement);
}

#[test]
fn dangling_use_fires_on_out_of_range_operand() {
    let mut g = diamond();
    let e = g.entry();
    g.append_inst(
        e,
        Inst::Binary {
            op: BinOp::Add,
            lhs: g.param_values()[0],
            rhs: InstId(999),
        },
        Type::Int,
    );
    expect_lint(&lint(&g), LintId::DanglingUse);
}

#[test]
fn dangling_use_fires_on_an_out_of_range_terminator_operand() {
    // A terminator naming an id past the instruction arena is a dangling
    // use, as an instruction operand is — not an out-of-bounds panic.
    let mut g = diamond();
    let bm = BlockId(3);
    g.set_terminator(
        bm,
        Terminator::Return {
            value: Some(InstId(9999)),
        },
    );
    let report = lint(&g);
    expect_lint(&report, LintId::DanglingUse);
    let message = "terminator of b3 references out-of-range value v9999";
    assert!(
        report.errors().any(|d| d.lint == LintId::DanglingUse
            && d.block == Some(bm)
            && d.inst.is_none()
            && d.message == message),
        "{report}"
    );
    let problems = verify(&g)
        .expect_err("a dangling use fails verify")
        .problems;
    assert!(problems.iter().any(|p| p == message), "{problems:?}");
}

#[test]
fn type_error_fires_on_boolean_arithmetic() {
    let mut g = Graph::new("t", &[Type::Bool], empty_table());
    let e = g.entry();
    let p = g.param_values()[0];
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
    expect_lint(&lint(&g), LintId::TypeError);
}

#[test]
fn type_error_fires_on_a_void_return() {
    // A store's void result is not a value: returning it parses, but the
    // optimizer removes the store as dead and leaves a dangling return.
    let m = dbds_ir::parse_module(
        "class A { f: int }\nfunc @f(x: int) {\nentry:\n  o: ref A = new A\n  \
         s: void = store o, A.f, x\n  return s\n}\n",
    )
    .expect("parses");
    let g = &m.graphs[0];
    let report = lint(g);
    expect_lint(&report, LintId::TypeError);
    let problems = dbds_ir::verify(g)
        .expect_err("a void return fails verify")
        .problems;
    assert_eq!(problems, ["terminator of b0: returns void value v2"]);
}

#[test]
fn ssa_dominance_fires_on_use_before_def() {
    let mut g = Graph::new("u", &[], empty_table());
    let e = g.entry();
    let c1 = g.append_inst(e, Inst::Const(ConstValue::Int(1)), Type::Int);
    // rhs references the constant appended below.
    let add = g.append_inst(
        e,
        Inst::Binary {
            op: BinOp::Add,
            lhs: c1,
            rhs: InstId(2),
        },
        Type::Int,
    );
    let _c2 = g.append_inst(e, Inst::Const(ConstValue::Int(2)), Type::Int);
    g.set_terminator(e, Terminator::Return { value: Some(add) });
    expect_lint(&lint(&g), LintId::SsaDominance);
}

#[test]
fn unreachable_block_fires_on_orphan_with_instructions() {
    let mut g = diamond();
    let orphan = g.add_block();
    let c = g.append_inst(orphan, Inst::Const(ConstValue::Int(7)), Type::Int);
    g.set_terminator(orphan, Terminator::Return { value: Some(c) });
    let report = lint(&g);
    expect_lint(&report, LintId::UnreachableBlock);
    // Hygiene only: the graph still verifies.
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn trivial_phi_fires_when_every_input_agrees() {
    let mut b = GraphBuilder::new("tp", &[Type::Int], empty_table());
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
    let phi = b.phi(vec![x, x], Type::Int); // both edges deliver x
    b.ret(Some(phi));
    let report = lint(&b.finish());
    expect_lint(&report, LintId::TrivialPhi);
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn critical_edge_fires_on_branch_into_merge() {
    // entry branches to bt and directly to bm; bt falls through to bm,
    // so the entry→bm edge leaves a multi-successor block and enters a
    // multi-predecessor block: a critical edge.
    let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
    let x = b.param(0);
    let zero = b.iconst(0);
    let c = b.cmp(CmpOp::Gt, x, zero);
    let (bt, bm) = (b.new_block(), b.new_block());
    b.branch(c, bt, bm, 0.5);
    b.switch_to(bt);
    b.jump(bm);
    b.switch_to(bm);
    let phi = b.phi(vec![zero, x], Type::Int);
    b.ret(Some(phi));
    let report = lint(&b.finish());
    expect_lint(&report, LintId::CriticalEdge);
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn no_exit_path_fires_on_an_infinite_region() {
    // entry → {spin, done}; spin never reaches a return.
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
    expect_lint(&report, LintId::NoExitPath);
    assert_eq!(report.error_count(), 0, "{report}");
}

#[test]
fn control_dep_violation_fires_on_never_taken_dependent_code() {
    // bt holds an instruction but is control dependent on an edge whose
    // probability is exactly 0: the profile and the control-dependence
    // structure contradict each other.
    let mut b = GraphBuilder::new("cd", &[Type::Int], empty_table());
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
    expect_lint(&lint(&b.finish()), LintId::ControlDepViolation);
}

#[test]
fn hygiene_lints_are_warnings_and_do_not_fail_verify() {
    for warn_only in [
        LintId::UnreachableBlock,
        LintId::TrivialPhi,
        LintId::CriticalEdge,
        LintId::Misprediction,
        LintId::NoExitPath,
    ] {
        assert_eq!(warn_only.severity(), Severity::Warn);
    }
    // A graph with only hygiene findings still passes verify().
    let mut g = diamond();
    let orphan = g.add_block();
    let c = g.append_inst(orphan, Inst::Const(ConstValue::Int(7)), Type::Int);
    g.set_terminator(orphan, Terminator::Return { value: Some(c) });
    dbds_ir::verify(&g).expect("warn-severity findings must not fail verification");
}

#[test]
fn every_graph_level_lint_has_a_corpus_entry() {
    // The non-graph lints, and the one no public edit can trigger, are
    // exercised in their home crates (see the module docs); everything
    // else must fire somewhere above. This
    // keeps the corpus honest when a new LintId lands.
    let graph_level = [
        LintId::GraphConsistency,
        LintId::BranchProbability,
        LintId::PhiPlacement,
        LintId::ParamPlacement,
        LintId::DanglingUse,
        LintId::TypeError,
        LintId::SsaDominance,
        LintId::UnreachableBlock,
        LintId::TrivialPhi,
        LintId::CriticalEdge,
        LintId::NoExitPath,
        LintId::ControlDepViolation,
    ];
    let elsewhere = [
        LintId::StaleAnalysis,
        LintId::NonFiniteBenefit,
        LintId::NegativeAccruedSize,
        LintId::Misprediction,
        LintId::FrontierViolation,
        LintId::UseListMismatch,
    ];
    for id in LintId::ALL {
        assert!(
            graph_level.contains(id) || elsewhere.contains(id),
            "{} has no fail-first coverage",
            id.name()
        );
    }
}
