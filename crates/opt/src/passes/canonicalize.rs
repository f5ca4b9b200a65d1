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
//!
//! Every run walks the whole tree: the fixpoint driver runs it again in a
//! later round only when there is dirt for it, and then over the whole
//! graph.

use crate::env::{FactEnv, Mark};
use crate::evaluate::{evaluate, record_effects, OptKind, Verdict};
use crate::passes::dirt::{walk_tree, Dirt, TreeVisitor};
use crate::scratch::{with_scratch, Scratch};
use dbds_analysis::{AnalysisCache, DomTree};
use dbds_ir::{BlockId, ConstValue, FastMap, Graph, Inst, InstId, Terminator, Type, Use};

/// Statistics of one canonicalization run.
#[derive(Clone, Debug, Default)]
pub struct CanonStats {
    /// Progress verdicts applied, per optimization class.
    pub applied: FastMap<OptKind, usize>,
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
    pool: FastMap<ConstValue, InstId>,
}

impl ConstPool {
    pub(crate) fn new() -> Self {
        ConstPool {
            pool: FastMap::default(),
        }
    }

    /// Returns an instruction producing `c`, creating one if needed.
    pub(crate) fn get(&mut self, g: &mut Graph, c: ConstValue) -> InstId {
        if let Some(&id) = self.pool.get(&c) {
            if g.block_of(id).is_some() {
                return id;
            }
        }
        // After the parameters DCE has left: an unused one is removed.
        let entry = g.entry();
        let at = g
            .block_insts(entry)
            .iter()
            .take_while(|&&i| matches!(g.inst(i), Inst::Param(_)))
            .count();
        let id = g.insert_inst(entry, at, Inst::Const(c), c.ty());
        self.pool.insert(c, id);
        id
    }
}

/// Runs one canonicalization pass over `g`, pulling the dominator tree
/// through `cache`.
pub fn canonicalize(g: &mut Graph, cache: &mut AnalysisCache) -> CanonStats {
    let dt = cache.domtree(g);
    let mut stats = CanonStats::default();
    with_scratch(|scratch| run(g, &dt, &mut Dirt::default(), &mut stats, scratch));
    stats
}

/// Canonicalizes `g` on `scratch`'s fact environment and walk buffers,
/// reporting what it changed to `dirt`. Returns the instructions visited.
///
/// The dirt, per rewrite: the blocks of the replaced value's users (for
/// GVN, whose keys changed, and for canonicalize itself where the walk
/// has already passed them — a loop header's φ, or a merge visited before
/// the predecessor whose value it takes), and a new instruction's block
/// for GVN. Per folded branch: the dropped successor, which lost a
/// predecessor and a φ input.
pub(crate) fn run(
    g: &mut Graph,
    dt: &DomTree,
    dirt: &mut Dirt,
    stats: &mut CanonStats,
    scratch: &mut Scratch,
) -> u64 {
    let Scratch {
        env,
        path,
        passed,
        snapshot,
        ..
    } = scratch;
    passed.clear();
    passed.resize(g.block_count(), false);
    let mut walk = Walk {
        env,
        stats,
        pool: ConstPool::new(),
        dirt,
        passed,
        snapshot,
    };
    walk_tree(g, dt, &mut walk, path)
}

/// The state of one canonicalization walk: the environment, scoped by
/// the tree walk, what the walk has changed so far, the blocks it has
/// entered, and the buffer each block's instruction list is copied into
/// before it is rewritten.
struct Walk<'a> {
    env: &'a mut FactEnv,
    stats: &'a mut CanonStats,
    pool: ConstPool,
    dirt: &'a mut Dirt,
    passed: &'a mut Vec<bool>,
    snapshot: &'a mut Vec<InstId>,
}

impl TreeVisitor for Walk<'_> {
    fn mark(&self) -> Mark {
        self.env.mark()
    }

    fn rollback(&mut self, mark: Mark) {
        self.env.rollback_to(mark);
    }

    /// Applies the entry edge, then rewrites the block and folds its
    /// terminator if its condition is statically known. The predecessor
    /// list is read now, after the earlier siblings' subtrees may have
    /// folded an edge into `b`.
    fn visit(&mut self, g: &mut Graph, parent: Option<BlockId>, b: BlockId) {
        self.passed[b.index()] = true;
        if let Some(p) = parent {
            self.env.enter_child(g, p, b);
        }
        self.process_block(g, b);
        if let Some(take_then) = self.env.branch_decision(g, b) {
            self.fold(g, b, take_then);
        }
    }
}

impl Walk<'_> {
    /// Evaluates and rewrites the instructions of one block.
    fn process_block(&mut self, g: &mut Graph, b: BlockId) {
        let mut snapshot = std::mem::take(self.snapshot);
        snapshot.clear();
        snapshot.extend_from_slice(g.block_insts(b));
        for &id in &snapshot {
            if g.block_of(id) != Some(b) {
                continue; // removed by an earlier rewrite
            }
            let eval = evaluate(g, self.env, id);
            record_effects(g, self.env, id, &eval);
            if let Some(kind) = eval.kind {
                if eval.verdict.is_progress() {
                    *self.stats.applied.entry(kind).or_insert(0) += 1;
                }
            }
            match eval.verdict {
                Verdict::Keep => {}
                Verdict::Const(c) => {
                    let cid = self.constant(g, c);
                    self.replace(g, b, id, cid);
                }
                Verdict::Alias(v) => self.replace(g, b, id, v),
                Verdict::Rewrite { op, lhs, rhs } => {
                    let cid = self.constant(g, rhs);
                    let pos = g
                        .block_insts(b)
                        .iter()
                        .position(|&i| i == id)
                        .expect("inst in its own block");
                    let new = g.insert_inst(b, pos, Inst::Binary { op, lhs, rhs: cid }, Type::Int);
                    self.dirt.gvn.insert(b);
                    self.replace(g, b, id, new);
                }
                Verdict::Eliminated => {
                    self.dirt.removing(g, id);
                    g.remove_inst(id);
                }
            }
        }
        *self.snapshot = snapshot;
    }

    /// The pooled instruction producing `c`; a new one is a new
    /// value-numbering key in the entry block.
    fn constant(&mut self, g: &mut Graph, c: ConstValue) -> InstId {
        let before = g.inst_count();
        let id = self.pool.get(g, c);
        if g.inst_count() > before {
            self.dirt.gvn.insert(g.entry());
        }
        id
    }

    /// Is `b` behind the walk? A change that reaches it is dirt for the
    /// next run.
    fn passed(&self, b: BlockId) -> bool {
        self.passed[b.index()]
    }

    /// Replaces `old`, an instruction of `b`, by `new` everywhere and
    /// removes `old`. Its users further down `b` and `b`'s terminator are
    /// still ahead of the walk; `b`'s φs are behind it.
    fn replace(&mut self, g: &mut Graph, b: BlockId, old: InstId, new: InstId) {
        for user in g.uses(old) {
            let (at, phi) = match user {
                Use::Inst(i) => (
                    g.block_of(i).expect("users are attached"),
                    g.inst(i).is_phi(),
                ),
                Use::Term(t) => (t, false),
            };
            if (at != b || phi) && self.passed(at) {
                self.dirt.canon.insert(at);
            }
            self.dirt.gvn.insert(at);
        }
        self.dirt.replacing(g, old, new);
        g.replace_all_uses(old, new);
        self.dirt.removing(g, old);
        g.remove_inst(old);
    }

    /// Folds `b`'s branch to the successor `take_then` selects.
    fn fold(&mut self, g: &mut Graph, b: BlockId, take_then: bool) {
        let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            ..
        } = *g.terminator(b)
        else {
            unreachable!("only a branch has a decision");
        };
        let dropped = if take_then { else_bb } else { then_bb };
        self.dirt.dropped.push(cond);
        self.dirt.cutting(g, b, dropped);
        self.dirt.simplify.insert(b);
        self.dirt.cuts += 1;
        if self.passed(dropped) {
            self.dirt.canon.insert(dropped);
        }
        g.fold_branch(b, take_then);
        self.stats.branch_folds += 1;
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

    /// DCE removes an unused parameter from the entry block, so the
    /// entry may hold fewer instructions than the function has
    /// parameters when a constant is pooled there.
    #[test]
    fn a_constant_is_pooled_after_a_removed_parameter() {
        let mut b = GraphBuilder::new("param", &[Type::Int, Type::Int], empty_table());
        let y = b.param(1);
        let body = b.new_block();
        b.jump(body);
        b.switch_to(body);
        let s = b.sub(y, y);
        b.ret(Some(s));
        let mut g = b.finish();
        crate::remove_dead_code(&mut g);
        assert_eq!(g.block_insts(g.entry()).len(), 1, "x is gone");
        canonicalize(&mut g, &mut AnalysisCache::new());
        verify(&g).unwrap();
        assert_eq!(
            execute(&g, &[Value::Int(4), Value::Int(9)]).outcome,
            Ok(Value::Int(0))
        );
    }

    /// The entry's branch folds away the edge into a loop, leaving the
    /// header's φ `w` with the one input `v = xor 0, w`. The walk, on the
    /// tree from before the fold, still visits the loop: `w` becomes `v`,
    /// and then `v` resolves to itself — no rewrite. DCE clears the loop.
    #[test]
    fn a_value_that_resolves_to_itself_in_cut_off_code_is_kept() {
        let mut b = GraphBuilder::new("self", &[Type::Int], empty_table());
        let x = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let never = b.cmp(CmpOp::Eq, zero, one);
        let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(never, header, exit, 0.5);
        b.switch_to(header);
        b.jump(body);
        b.switch_to(body);
        let v = b.binop(dbds_ir::BinOp::Xor, zero, zero); // `xor 0, w` once w exists
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(x));
        let mut g = b.finish();
        let w = g.append_phi(header, vec![x, v], Type::Int);
        g.rewrite_inputs(v, |inst| {
            if let Inst::Binary { rhs, .. } = inst {
                *rhs = w;
            }
        });
        verify(&g).unwrap();
        let stats = canonicalize(&mut g, &mut AnalysisCache::new());
        assert_eq!(stats.branch_folds, 1);
        crate::remove_dead_code(&mut g);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(3)]).outcome, Ok(Value::Int(3)));
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
