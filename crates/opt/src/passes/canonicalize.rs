//! Global canonicalization: the real (mutating) consumer of the
//! applicability checks.
//!
//! Walks the dominator tree depth first, carrying one [`FactEnv`]. Within
//! a block every instruction is [`evaluate`]d and progress verdicts are
//! applied to the graph; branch conditions that become known constants are
//! folded (conditional elimination of the branch itself). Condition
//! refinements are pushed into branch successors that are only reachable
//! through that branch edge — this is the "depth first traversal of the
//! true branch knows `(a != null)` holds" scheme of §4.1.
//!
//! Flow-sensitive memory facts (the read-elimination cache, virtual
//! objects) propagate only along unique-predecessor edges; flow-insensitive
//! facts (synonyms, dominating-condition stamps) propagate to all dominated
//! blocks. The environment is scoped, not copied: the walk marks it before
//! it enters a block and rolls back to the mark when it leaves, and any
//! other entry than a sole-predecessor edge forgets the memory facts.

use crate::env::{FactEnv, Mark};
use crate::evaluate::{evaluate, record_effects, OptKind, Verdict};
use dbds_analysis::{AnalysisCache, DomTree};
use dbds_ir::{BlockId, ConstValue, Graph, Inst, InstId, Type};
use std::collections::HashMap;

/// Statistics of one canonicalization run.
#[derive(Clone, Debug, Default)]
pub struct CanonStats {
    /// Progress verdicts applied, per optimization class.
    pub applied: HashMap<OptKind, usize>,
    /// Branches folded to jumps.
    pub branch_folds: usize,
}

impl CanonStats {
    /// Total number of applied rewrites, including branch folds.
    pub fn total(&self) -> usize {
        self.applied.values().sum::<usize>() + self.branch_folds
    }

    /// Returns `true` when the run changed the graph.
    pub fn changed(&self) -> bool {
        self.total() > 0
    }

    /// Accumulates another run's statistics.
    pub fn merge(&mut self, other: &CanonStats) {
        for (k, n) in &other.applied {
            *self.applied.entry(*k).or_insert(0) += n;
        }
        self.branch_folds += other.branch_folds;
    }
}

/// A pool of materialized constants, all placed at the top of the entry
/// block so that they dominate every use.
pub(crate) struct ConstPool {
    pool: HashMap<ConstValue, InstId>,
}

impl ConstPool {
    pub(crate) fn new() -> Self {
        ConstPool {
            pool: HashMap::new(),
        }
    }

    /// Returns an instruction producing `c`, creating one if needed.
    pub(crate) fn get(&mut self, g: &mut Graph, c: ConstValue) -> InstId {
        if let Some(&id) = self.pool.get(&c) {
            if g.block_of(id).is_some() {
                return id;
            }
        }
        let at = g.param_values().len();
        let id = g.insert_inst(g.entry(), at, Inst::Const(c), c.ty());
        self.pool.insert(c, id);
        id
    }
}

/// Runs one canonicalization pass over `g`, pulling the dominator tree
/// through `cache`.
pub fn canonicalize(g: &mut Graph, cache: &mut AnalysisCache) -> CanonStats {
    let dt = cache.domtree(g);
    let mut stats = CanonStats::default();
    let mut pool = ConstPool::new();
    walk(g, &dt, &mut stats, &mut pool);
    stats
}

/// Visits the dominator tree in preorder with one environment. The path
/// from the entry to the block in hand is a stack of `(block, mark)`
/// frames, the mark taken before the block's entry edge was applied:
/// leaving a block rolls its facts back, so each block sees exactly its
/// parent's facts extended by its own entry edge. No recursion, so the
/// depth of the tree does not touch the thread's stack.
fn walk(g: &mut Graph, dt: &DomTree, stats: &mut CanonStats, pool: &mut ConstPool) {
    let mut env = FactEnv::new();
    let mut path: Vec<(BlockId, Mark)> = Vec::new();
    for &b in dt.preorder() {
        let parent = dt.idom(b);
        while let Some(&(top, mark)) = path.last() {
            if Some(top) == parent {
                break;
            }
            env.rollback_to(mark);
            path.pop();
        }
        let mark = env.mark();
        if let Some(p) = parent {
            // The predecessor list is read now, after the earlier
            // siblings' subtrees may have folded an edge into `b`.
            env.enter_child(g, p, b);
        }
        process_block(g, b, &mut env, stats, pool);
        // Fold the terminator if its condition is statically known.
        if let Some(t) = env.branch_decision(g, b) {
            g.fold_branch(b, t);
            stats.branch_folds += 1;
        }
        path.push((b, mark));
    }
}

/// Evaluates and rewrites the instructions of one block under `env`.
pub(crate) fn process_block(
    g: &mut Graph,
    b: BlockId,
    env: &mut FactEnv,
    stats: &mut CanonStats,
    pool: &mut ConstPool,
) {
    let snapshot: Vec<InstId> = g.block_insts(b).to_vec();
    for id in snapshot {
        if g.block_of(id) != Some(b) {
            continue; // removed by an earlier rewrite
        }
        let eval = evaluate(g, env, id);
        record_effects(g, env, id, &eval);
        if let Some(kind) = eval.kind {
            if eval.verdict.is_progress() {
                *stats.applied.entry(kind).or_insert(0) += 1;
            }
        }
        match eval.verdict {
            Verdict::Keep => {}
            Verdict::Const(c) => {
                let cid = pool.get(g, c);
                g.replace_all_uses(id, cid);
                g.remove_inst(id);
            }
            Verdict::Alias(v) => {
                g.replace_all_uses(id, v);
                g.remove_inst(id);
            }
            Verdict::Rewrite { op, lhs, rhs } => {
                let cid = pool.get(g, rhs);
                let pos = g
                    .block_insts(b)
                    .iter()
                    .position(|&i| i == id)
                    .expect("inst in its own block");
                let new = g.insert_inst(b, pos, Inst::Binary { op, lhs, rhs: cid }, Type::Int);
                g.replace_all_uses(id, new);
                g.remove_inst(id);
            }
            Verdict::Eliminated => {
                g.remove_inst(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, CmpOp, GraphBuilder, Terminator, Value};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn folds_constants_through_straightline_code() {
        let mut b = GraphBuilder::new("cf", &[], empty_table());
        let two = b.iconst(2);
        let three = b.iconst(3);
        let sum = b.add(two, three); // 5
        let sq = b.mul(sum, sum); // 25
        b.ret(Some(sq));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert!(stats.applied[&OptKind::ConstantFold] >= 2);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Int(25)));
        // The returned value is now a constant.
        match g.terminator(g.entry()) {
            Terminator::Return { value: Some(v) } => {
                assert!(matches!(g.inst(*v), Inst::Const(ConstValue::Int(25))));
            }
            t => panic!("unexpected terminator {t:?}"),
        }
    }

    #[test]
    fn eliminates_dominated_condition() {
        // if (x > 10) { if (x > 5) return 1 else return 2 } return 3
        // The inner condition is implied by the outer one.
        let mut b = GraphBuilder::new("ce", &[Type::Int], empty_table());
        let x = b.param(0);
        let ten = b.iconst(10);
        let five = b.iconst(5);
        let outer = b.cmp(CmpOp::Gt, x, ten);
        let (bt, belse, binner_t, binner_f) =
            (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.branch(outer, bt, belse, 0.5);
        b.switch_to(bt);
        let inner = b.cmp(CmpOp::Gt, x, five);
        b.branch(inner, binner_t, binner_f, 0.5);
        b.switch_to(binner_t);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(binner_f);
        let two = b.iconst(2);
        b.ret(Some(two));
        b.switch_to(belse);
        let three = b.iconst(3);
        b.ret(Some(three));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert!(stats.applied.contains_key(&OptKind::ConditionalElim));
        assert_eq!(stats.branch_folds, 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(20)]).outcome, Ok(Value::Int(1)));
        assert_eq!(execute(&g, &[Value::Int(0)]).outcome, Ok(Value::Int(3)));
        // The inner branch is gone.
        assert!(matches!(g.terminator(bt), Terminator::Jump { .. }));
    }

    #[test]
    fn null_check_eliminated_in_guarded_branch() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("nc", &[Type::Ref(a)], Arc::new(t));
        let obj = b.param(0);
        let null = b.null(a);
        let is_null = b.cmp(CmpOp::Eq, obj, null);
        let (bnull, bok, binner_null, bread) =
            (b.new_block(), b.new_block(), b.new_block(), b.new_block());
        b.branch(is_null, bnull, bok, 0.1);
        b.switch_to(bnull);
        let zero = b.iconst(0);
        b.ret(Some(zero));
        b.switch_to(bok);
        // A second identical null check: should fold to false.
        let is_null2 = b.cmp(CmpOp::Eq, obj, null);
        b.branch(is_null2, binner_null, bread, 0.1);
        b.switch_to(binner_null);
        let m1 = b.iconst(-1);
        b.ret(Some(m1));
        b.switch_to(bread);
        let v = b.load(obj, fx);
        b.ret(Some(v));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert!(stats.branch_folds >= 1);
        verify(&g).unwrap();
        assert!(matches!(g.terminator(bok), Terminator::Jump { target } if *target == bread));
    }

    #[test]
    fn read_elimination_within_extended_block() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("re", &[Type::Ref(a)], Arc::new(t));
        let obj = b.param(0);
        let r1 = b.load(obj, fx);
        let r2 = b.load(obj, fx);
        let s = b.add(r1, r2);
        b.ret(Some(s));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert_eq!(stats.applied.get(&OptKind::ReadElim), Some(&1));
        verify(&g).unwrap();
        // Only one load remains.
        let loads = g
            .block_insts(g.entry())
            .iter()
            .filter(|&&i| matches!(g.inst(i), Inst::LoadField { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn strength_reduction_rewrites_in_place() {
        let mut b = GraphBuilder::new("sr", &[Type::Int], empty_table());
        let x = b.param(0);
        let eight = b.iconst(8);
        let m = b.mul(x, eight);
        b.ret(Some(m));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert_eq!(stats.applied.get(&OptKind::StrengthReduce), Some(&1));
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(40)));
        assert!(g.block_insts(g.entry()).iter().any(|&i| matches!(
            g.inst(i),
            Inst::Binary {
                op: dbds_ir::BinOp::Shl,
                ..
            }
        )));
    }

    #[test]
    fn cache_does_not_leak_into_merges() {
        // load; branch; one side stores; merge re-loads → must NOT be
        // eliminated.
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("leak", &[Type::Ref(a), Type::Bool], Arc::new(t));
        let obj = b.param(0);
        let c = b.param(1);
        let _r1 = b.load(obj, fx);
        let (bs, bn, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bs, bn, 0.5);
        b.switch_to(bs);
        let seven = b.iconst(7);
        b.store(obj, fx, seven);
        b.jump(bm);
        b.switch_to(bn);
        b.jump(bm);
        b.switch_to(bm);
        let r2 = b.load(obj, fx);
        b.ret(Some(r2));
        let mut g = b.finish();
        canonicalize(&mut g, &mut AnalysisCache::new());
        verify(&g).unwrap();
        // r2 must survive.
        assert!(g
            .block_insts(bm)
            .iter()
            .any(|&i| matches!(g.inst(i), Inst::LoadField { .. })));
    }

    #[test]
    fn instanceof_after_guard_folds() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let mut b = GraphBuilder::new("io", &[Type::Ref(a)], Arc::new(t));
        let obj = b.param(0);
        let t1 = b.instance_of(obj, a);
        let (byes, bno) = (b.new_block(), b.new_block());
        b.branch(t1, byes, bno, 0.9);
        b.switch_to(byes);
        // Redundant second test.
        let t2 = b.instance_of(obj, a);
        let (byes2, bno2) = (b.new_block(), b.new_block());
        b.branch(t2, byes2, bno2, 0.9);
        b.switch_to(byes2);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(bno2);
        let two = b.iconst(2);
        b.ret(Some(two));
        b.switch_to(bno);
        let zero = b.iconst(0);
        b.ret(Some(zero));
        let mut g = b.finish();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert!(stats.branch_folds >= 1);
        verify(&g).unwrap();
        assert!(matches!(g.terminator(byes), Terminator::Jump { target } if *target == byes2));
    }

    #[test]
    fn a_dominator_tree_deeper_than_the_stack_is_walked() {
        use crate::passes::deep::{guarded_chain, on_small_stack, DEPTH};
        let stats = on_small_stack(|| {
            let mut g = guarded_chain();
            let stats = canonicalize(&mut g, &mut AnalysisCache::new());
            verify(&g).unwrap();
            stats
        });
        // Every test below the first is implied by the edge into it.
        assert_eq!(stats.branch_folds, DEPTH - 1);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = CanonStats::default();
        a.applied.insert(OptKind::ConstantFold, 2);
        a.branch_folds = 1;
        let mut b = CanonStats::default();
        b.applied.insert(OptKind::ConstantFold, 3);
        b.applied.insert(OptKind::ReadElim, 1);
        a.merge(&b);
        assert_eq!(a.applied[&OptKind::ConstantFold], 5);
        assert_eq!(a.applied[&OptKind::ReadElim], 1);
        assert_eq!(a.total(), 7);
        assert!(a.changed());
    }
}
