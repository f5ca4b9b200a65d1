//! Dominator-scoped global value numbering.
//!
//! Graal's canonicalization deduplicates structurally identical pure
//! nodes; this pass provides the same service for the reproduction: a
//! depth-first walk of the dominator tree carrying a scoped hash table of
//! *(opcode, operands)* keys. A pure instruction whose key was already
//! defined in a dominating position is replaced by the earlier value.
//!
//! Only pure, non-trapping instructions participate (no loads — memory
//! dedup is read elimination's job — and no allocations, which have
//! identity).

use crate::passes::dirt::{user_blocks, walk_tree, Dirt, TreeVisitor};
use dbds_analysis::{AnalysisCache, DomTree};
use dbds_ir::{
    BinOp, BlockId, ClassId, CmpOp, ConstValue, FastMap, FastState, Graph, Inst, InstId,
};

/// A hashable structural key for a pure instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Key {
    Const(ConstValue),
    Binary(BinOp, InstId, InstId),
    Compare(CmpOp, InstId, InstId),
    Not(InstId),
    Neg(InstId),
    InstanceOf(InstId, ClassId),
    ArrayLength(InstId),
}

fn key_of(g: &Graph, i: InstId) -> Option<Key> {
    Some(match g.inst(i) {
        Inst::Const(c) => Key::Const(*c),
        Inst::Binary { op, lhs, rhs } => {
            // Normalize commutative operands for better hit rates.
            let (a, b) = if op.is_commutative() && rhs < lhs {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            if matches!(op, BinOp::Div | BinOp::Rem) {
                // Trapping: only safe to dedup when the *earlier* one is
                // guaranteed to execute, which dominance gives us — but
                // the trap itself is an observable effect whose ordering
                // we keep simple by not deduplicating.
                return None;
            }
            Key::Binary(*op, a, b)
        }
        Inst::Compare { op, lhs, rhs } => {
            if matches!(op, CmpOp::Eq | CmpOp::Ne) && rhs < lhs {
                Key::Compare(*op, *rhs, *lhs)
            } else {
                Key::Compare(*op, *lhs, *rhs)
            }
        }
        Inst::Not(x) => Key::Not(*x),
        Inst::Neg(x) => Key::Neg(*x),
        Inst::InstanceOf { object, class } => Key::InstanceOf(*object, *class),
        Inst::ArrayLength(a) => Key::ArrayLength(*a),
        _ => return None,
    })
}

/// Runs GVN over `g`, pulling the dominator tree through `cache`.
/// Returns the number of instructions deduplicated.
pub fn global_value_numbering(g: &mut Graph, cache: &mut AnalysisCache) -> usize {
    let dt = cache.domtree(g);
    run(g, &dt, &mut Dirt::default()).0
}

/// Numbers `g`, reporting what it changed to `dirt`. Returns the
/// instructions deduplicated and visited.
///
/// The dirt, per merge: the blocks of the replaced value's users, for
/// canonicalize — unless a constant was replaced by an equal constant,
/// which [`evaluate`](crate::evaluate) cannot tell apart. GVN itself
/// needs none of its own: a replaced value's users sit below it in the
/// tree, where this walk still goes.
pub(crate) fn run(g: &mut Graph, dt: &DomTree, dirt: &mut Dirt) -> (usize, u64) {
    // Sized once: the table never holds more keys than instructions.
    let mut walk = Walk {
        table: FastMap::with_capacity_and_hasher(g.inst_count(), FastState::default()),
        inserted: Vec::with_capacity(g.inst_count()),
        removed: 0,
        dirt,
        snapshot: Vec::new(),
    };
    let visited = walk_tree(g, dt, &mut walk);
    (walk.removed, visited)
}

/// The state of one GVN walk. `table` holds the keys defined in
/// dominating positions; a block only ever inserts keys the table did
/// not hold, and `inserted` is the trail of those keys, so removing a
/// block's keys when the walk leaves it restores the parent's view
/// exactly.
struct Walk<'a> {
    table: FastMap<Key, InstId>,
    inserted: Vec<Key>,
    removed: usize,
    dirt: &'a mut Dirt,
    /// The visited block's instruction list, copied before it is edited.
    snapshot: Vec<InstId>,
}

impl TreeVisitor for Walk<'_> {
    type Mark = usize;

    fn mark(&self) -> usize {
        self.inserted.len()
    }

    fn rollback(&mut self, mark: usize) {
        for key in self.inserted.drain(mark..) {
            self.table.remove(&key);
        }
    }

    fn visit(&mut self, g: &mut Graph, _parent: Option<BlockId>, b: BlockId) {
        let mut snapshot = std::mem::take(&mut self.snapshot);
        snapshot.clear();
        snapshot.extend_from_slice(g.block_insts(b));
        for &i in &snapshot {
            if g.block_of(i) != Some(b) {
                continue;
            }
            let Some(key) = key_of(g, i) else { continue };
            match self.table.get(&key) {
                Some(&prior) => {
                    if !matches!(key, Key::Const(_)) {
                        for user in user_blocks(g, i) {
                            self.dirt.canon.insert(user);
                        }
                    }
                    self.dirt.replacing(g, i, prior);
                    g.replace_all_uses(i, prior);
                    self.dirt.removing(g, i);
                    g.remove_inst(i);
                    self.removed += 1;
                }
                None => {
                    self.table.insert(key, i);
                    self.inserted.push(key);
                }
            }
        }
        self.snapshot = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, CmpOp, GraphBuilder, Type, Value};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn dedups_within_a_block() {
        let mut b = GraphBuilder::new("g", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let y = b.param(1);
        let a1 = b.add(x, y);
        let a2 = b.add(x, y);
        let s = b.mul(a1, a2);
        b.ret(Some(s));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 1);
        verify(&g).unwrap();
        assert_eq!(
            execute(&g, &[Value::Int(3), Value::Int(4)]).outcome,
            Ok(Value::Int(49))
        );
    }

    #[test]
    fn commutative_operands_normalize() {
        let mut b = GraphBuilder::new("c", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let y = b.param(1);
        let a1 = b.add(x, y);
        let a2 = b.add(y, x); // same value, swapped operands
        let s = b.sub(a1, a2); // 0 after dedup + folding
        b.ret(Some(s));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 1);
        verify(&g).unwrap();
        assert_eq!(
            execute(&g, &[Value::Int(3), Value::Int(4)]).outcome,
            Ok(Value::Int(0))
        );
    }

    #[test]
    fn non_commutative_operands_do_not_normalize() {
        let mut b = GraphBuilder::new("n", &[Type::Int, Type::Int], empty_table());
        let x = b.param(0);
        let y = b.param(1);
        let s1 = b.sub(x, y);
        let s2 = b.sub(y, x);
        let s = b.add(s1, s2);
        b.ret(Some(s));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 0);
        verify(&g).unwrap();
    }

    #[test]
    fn dedups_into_dominating_block_but_not_across_siblings() {
        let mut b = GraphBuilder::new("d", &[Type::Int, Type::Bool], empty_table());
        let x = b.param(0);
        let c = b.param(1);
        let outer = b.add(x, x); // dominates everything
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let t1 = b.add(x, x); // dedups with `outer`
        b.ret(Some(t1));
        b.switch_to(bf);
        let f1 = b.mul(x, x); // unique in its branch
        b.ret(Some(f1));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 1);
        verify(&g).unwrap();
        let _ = outer;
        assert_eq!(
            execute(&g, &[Value::Int(5), Value::Bool(true)]).outcome,
            Ok(Value::Int(10))
        );
        assert_eq!(
            execute(&g, &[Value::Int(5), Value::Bool(false)]).outcome,
            Ok(Value::Int(25))
        );
    }

    #[test]
    fn sibling_branches_do_not_share() {
        // The same expression in two sibling branches has no dominating
        // occurrence: GVN must leave both.
        let mut b = GraphBuilder::new("s", &[Type::Int, Type::Bool], empty_table());
        let x = b.param(0);
        let c = b.param(1);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let t1 = b.add(x, x);
        b.ret(Some(t1));
        b.switch_to(bf);
        let f1 = b.add(x, x);
        b.ret(Some(f1));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 0);
        verify(&g).unwrap();
    }

    #[test]
    fn divisions_and_memory_are_left_alone() {
        let mut t = ClassTable::new();
        let cls = t.add_class("A");
        let fx = t.add_field(cls, "x", Type::Int);
        let mut b = GraphBuilder::new("m", &[Type::Ref(cls), Type::Int], Arc::new(t));
        let obj = b.param(0);
        let n = b.param(1);
        let two = b.iconst(2);
        let d1 = b.div(n, two);
        let d2 = b.div(n, two);
        let l1 = b.load(obj, fx);
        let l2 = b.load(obj, fx);
        let s1 = b.add(d1, d2);
        let s2 = b.add(l1, l2);
        let s = b.add(s1, s2);
        b.ret(Some(s));
        let mut g = b.finish();
        assert_eq!(global_value_numbering(&mut g, &mut AnalysisCache::new()), 0);
        verify(&g).unwrap();
    }

    #[test]
    fn a_dominator_tree_deeper_than_the_stack_is_walked() {
        use crate::passes::deep::{guarded_chain, on_small_stack, DEPTH};
        let removed = on_small_stack(|| {
            let mut g = guarded_chain();
            let removed = global_value_numbering(&mut g, &mut AnalysisCache::new());
            verify(&g).unwrap();
            removed
        });
        // Each block's `x > 0` is the first block's again.
        assert_eq!(removed, DEPTH - 1);
    }

    #[test]
    fn instanceof_and_compare_dedup() {
        let mut t = ClassTable::new();
        let cls = t.add_class("A");
        let mut b = GraphBuilder::new("io", &[Type::Ref(cls), Type::Int], Arc::new(t));
        let obj = b.param(0);
        let n = b.param(1);
        let i1 = b.instance_of(obj, cls);
        let i2 = b.instance_of(obj, cls);
        let zero = b.iconst(0);
        let c1 = b.cmp(CmpOp::Lt, n, zero);
        let c2 = b.cmp(CmpOp::Gt, zero, n); // not normalized (ordered swap)
        let e = b.cmp(CmpOp::Eq, i1, i2);
        let _ = (c1, c2, e);
        b.ret(None);
        let mut g = b.finish();
        let removed = global_value_numbering(&mut g, &mut AnalysisCache::new());
        assert_eq!(removed, 1); // only the instanceof pair
        verify(&g).unwrap();
    }
}
