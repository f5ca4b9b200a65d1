//! The full optimization pipeline: canonicalize → scalar-replace → DCE →
//! CFG simplify, iterated to a fixpoint.
//!
//! This is the "set of selected optimizations" the paper's backtracking
//! baseline applies after every tentative duplication (Algorithm 1), and
//! the cleanup the DBDS optimization tier runs after performing its
//! selected duplications.

use crate::passes::canonicalize::{canonicalize, CanonStats};
use crate::passes::dce::remove_dead_code;
use crate::passes::gvn::global_value_numbering;
use crate::passes::scalar_replace::scalar_replace;
use crate::passes::simplify::simplify_cfg;
use dbds_analysis::AnalysisCache;
use dbds_ir::Graph;

/// Upper bound on fixpoint rounds (each round is itself monotone, so this
/// is a safety net, not a tuning knob).
const MAX_ROUNDS: usize = 10;

/// Aggregate statistics of a full optimization run.
#[derive(Clone, Debug, Default)]
pub struct OptimizeStats {
    /// Rounds until fixpoint.
    pub rounds: usize,
    /// Accumulated canonicalization statistics.
    pub canon: CanonStats,
    /// Allocations removed by scalar replacement.
    pub scalar_replaced: usize,
    /// Whether anything changed at all.
    pub changed: bool,
}

/// Runs a single round of the pipeline (no fixpoint iteration). The DBDS
/// phase uses this as the cheap *partial* optimization step between
/// duplication iterations (§4.3 applies action steps locally rather than
/// re-optimizing the world).
pub fn optimize_once(g: &mut Graph, cache: &mut AnalysisCache) -> OptimizeStats {
    let mut stats = OptimizeStats {
        rounds: 1,
        ..OptimizeStats::default()
    };
    let c = canonicalize(g, cache);
    let gvn = global_value_numbering(g, cache);
    let sr = scalar_replace(g);
    let dce = remove_dead_code(g);
    let simp = simplify_cfg(g);
    stats.changed = c.changed() || gvn > 0 || sr > 0 || dce || simp;
    stats.canon = c;
    stats.scalar_replaced = sr;
    stats
}

/// Optimizes `g` to a fixpoint with the §2 optimization set: rounds of
/// [`optimize_once`] until one changes nothing.
pub fn optimize_full(g: &mut Graph, cache: &mut AnalysisCache) -> OptimizeStats {
    let mut stats = OptimizeStats::default();
    for round in 0..MAX_ROUNDS {
        let once = optimize_once(g, cache);
        stats.rounds = round + 1;
        stats.canon.merge(&once.canon);
        stats.scalar_replaced += once.scalar_replaced;
        stats.changed |= once.changed;
        if !once.changed {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, CmpOp, GraphBuilder, Type, Value};
    use std::sync::Arc;

    #[test]
    fn pipeline_reaches_fixpoint_on_figure1_after_duplication_shape() {
        // The already-duplicated Figure 1b: two straightline returns.
        let mut b = GraphBuilder::new("f1b", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let two = b.iconst(2);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let s1 = b.add(two, x);
        b.ret(Some(s1));
        b.switch_to(bf);
        let s2 = b.add(two, zero); // constant-folds to 2 (Figure 1c)
        b.ret(Some(s2));
        let mut g = b.finish();
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        assert!(stats.changed);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(7)));
        assert_eq!(execute(&g, &[Value::Int(-1)]).outcome, Ok(Value::Int(2)));
        // The false branch now returns the constant 2 directly.
        assert!(matches!(
            g.terminator(bf),
            dbds_ir::Terminator::Return { value: Some(v) }
                if matches!(g.inst(*v), dbds_ir::Inst::Const(dbds_ir::ConstValue::Int(2)))
        ));
    }

    #[test]
    fn chained_opportunities_need_multiple_rounds() {
        // Scalar replacement exposes constants that canonicalization folds
        // in the next round, which lets DCE strip the rest.
        let mut t = ClassTable::new();
        let cls = t.add_class("Box");
        let fv = t.add_field(cls, "v", Type::Int);
        let mut b = GraphBuilder::new("ch", &[], Arc::new(t));
        let p = b.new_object(cls);
        let five = b.iconst(5);
        b.store(p, fv, five);
        let l = b.load(p, fv);
        let three = b.iconst(3);
        let s = b.add(l, three); // 8 after folding
        b.ret(Some(s));
        let mut g = b.finish();
        let stats = optimize_full(&mut g, &mut AnalysisCache::new());
        assert_eq!(stats.scalar_replaced, 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Int(8)));
        // Everything folded to `return 8`.
        assert_eq!(g.reachable_blocks().len(), 1);
        let kinds: Vec<_> = g
            .block_insts(g.entry())
            .iter()
            .map(|&i| g.inst(i).kind())
            .collect();
        assert!(kinds.iter().all(|k| *k == dbds_ir::InstKind::Const));
    }

    #[test]
    fn idempotent_on_optimized_graph() {
        let mut b = GraphBuilder::new("idem", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        b.ret(Some(x));
        let mut g = b.finish();
        let s1 = optimize_full(&mut g, &mut AnalysisCache::new());
        assert!(!s1.changed);
        assert_eq!(s1.rounds, 1);
    }
}
