//! Property tests for the bailout-and-recovery guardrails: under *any*
//! seeded fault plan, a DBDS compilation must end with a verified graph
//! whose interpreter semantics match the no-duplication baseline. Each
//! case arms its plan on the test's own thread.
//!
//! ```text
//! cargo test -p dbds-core --test fault_props
//! ```

use dbds_core::faultinject::{arm, disarm, FaultPlan};
use dbds_core::{compile, BailoutReason, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::{execute, verify, ClassTable, CmpOp, Graph, GraphBuilder, Type, Value};
use proptest::prelude::*;
use std::sync::Arc;

fn empty_table() -> Arc<ClassTable> {
    Arc::new(ClassTable::new())
}

/// Figure 1: the add constant-folds on the false path.
fn figure1() -> Graph {
    let mut b = GraphBuilder::new("foo", &[Type::Int], empty_table());
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
    let two = b.iconst(2);
    let sum = b.add(two, phi);
    b.ret(Some(sum));
    b.finish()
}

/// Listing 1: duplication enables conditional elimination at a second
/// branch.
fn listing1() -> Graph {
    let mut b = GraphBuilder::new("l1", &[Type::Int], empty_table());
    let i = b.param(0);
    let zero = b.iconst(0);
    let thirteen = b.iconst(13);
    let twelve = b.iconst(12);
    let c = b.cmp(CmpOp::Gt, i, zero);
    let (bt, bf, bm, b12, bi) = (
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
    );
    b.branch(c, bt, bf, 0.5);
    b.switch_to(bt);
    b.jump(bm);
    b.switch_to(bf);
    b.jump(bm);
    b.switch_to(bm);
    let p = b.phi(vec![i, thirteen], Type::Int);
    let c2 = b.cmp(CmpOp::Gt, p, twelve);
    b.branch(c2, b12, bi, 0.5);
    b.switch_to(b12);
    b.ret(Some(twelve));
    b.switch_to(bi);
    b.ret(Some(i));
    b.finish()
}

/// Two stacked diamonds sharing values: plenty of merges and candidates.
fn double_diamond() -> Graph {
    let mut b = GraphBuilder::new("dd", &[Type::Int, Type::Int], empty_table());
    let x = b.param(0);
    let y = b.param(1);
    let zero = b.iconst(0);
    let one = b.iconst(1);
    let c1 = b.cmp(CmpOp::Gt, x, zero);
    let (t1, f1, m1) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(c1, t1, f1, 0.7);
    b.switch_to(t1);
    b.jump(m1);
    b.switch_to(f1);
    b.jump(m1);
    b.switch_to(m1);
    let p1 = b.phi(vec![x, one], Type::Int);
    let c2 = b.cmp(CmpOp::Gt, y, p1);
    let (t2, f2, m2) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(c2, t2, f2, 0.3);
    b.switch_to(t2);
    b.jump(m2);
    b.switch_to(f2);
    b.jump(m2);
    b.switch_to(m2);
    let p2 = b.phi(vec![p1, zero], Type::Int);
    let sum = b.add(p1, p2);
    b.ret(Some(sum));
    b.finish()
}

fn graph(idx: usize) -> Graph {
    match idx % 3 {
        0 => figure1(),
        1 => listing1(),
        _ => double_diamond(),
    }
}

const INPUTS: &[[i64; 2]] = &[[-7, 3], [0, 0], [1, -1], [5, 5], [13, 2], [100, -100]];

fn outcomes(g: &Graph, arity: usize) -> Vec<dbds_ir::Outcome> {
    INPUTS
        .iter()
        .map(|vals| {
            let args: Vec<Value> = vals.iter().take(arity).map(|&v| Value::Int(v)).collect();
            execute(g, &args).outcome
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any plan from any seed's sweep, armed over any of the sample
    /// graphs, still yields a verified, semantics-preserving result.
    #[test]
    fn any_fault_plan_preserves_verification_and_semantics(
        seed in 0u64..1_000_000,
        plan_idx in 0usize..36,
        graph_idx in 0usize..3,
    ) {
        let plans = FaultPlan::sweep(seed);
        let plan = plans[plan_idx % plans.len()].clone();
        let g0 = graph(graph_idx);
        let arity = if graph_idx % 3 == 2 { 2 } else { 1 };
        let model = CostModel::new();
        let cfg = DbdsConfig::default();

        let mut baseline = g0.clone();
        compile(&mut baseline, &model, OptLevel::Baseline, &cfg);
        let expected = outcomes(&baseline, arity);

        arm(plan.clone());
        let mut g = g0.clone();
        let stats = compile(&mut g, &model, OptLevel::Dbds, &cfg);
        let (_, fired) = disarm();

        prop_assert!(
            verify(&g).is_ok(),
            "plan {:?} left an unverified graph:\n{}", plan, g
        );
        prop_assert_eq!(outcomes(&g, arity), expected);
        // A fired fault that changed anything must be accounted for: it
        // either surfaced as a bailout record or was absorbed without a
        // trace (e.g. corruption of an already-doomed copy); the converse
        // always holds.
        if !fired {
            prop_assert!(
                stats.bailouts.iter().all(|b| b.reason == BailoutReason::SizeBudgetExceeded),
                "no fault fired yet non-tradeoff bailouts recorded: {:?}", stats.bailouts
            );
        }
    }
}
