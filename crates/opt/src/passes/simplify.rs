//! Control-flow simplification: degenerate φs and straight-line block
//! chains left behind by branch folding and duplication.

use crate::passes::dirt::{user_blocks, Dirt};
use dbds_ir::{BlockId, Graph, Inst, InstId, Terminator};

/// Replaces φs in single-predecessor blocks with their only input.
/// Returns `true` when anything changed.
pub fn remove_single_input_phis(g: &mut Graph) -> bool {
    remove_phis(g, &mut Dirt::default()).0
}

/// [`remove_single_input_phis`], reporting what it changed to `dirt`.
/// Returns whether anything changed and the φs examined.
///
/// The dirt, per φ: the blocks of its users, for canonicalize and GVN
/// (an operand changed), and its input, which lost a use.
fn remove_phis(g: &mut Graph, dirt: &mut Dirt) -> (bool, u64) {
    let mut changed = false;
    let mut visited = 0;
    for b in g.blocks().collect::<Vec<_>>() {
        if g.preds(b).len() != 1 {
            continue;
        }
        let phis: Vec<InstId> = g.phis(b).to_vec();
        visited += phis.len() as u64;
        for phi in phis {
            let input = match g.inst(phi) {
                Inst::Phi { inputs } => inputs[0],
                _ => unreachable!(),
            };
            for user in user_blocks(g, phi) {
                dirt.canon.insert(user);
                dirt.gvn.insert(user);
            }
            dirt.replacing(g, phi, input);
            g.replace_all_uses(phi, input);
            dirt.removing(g, phi);
            g.remove_inst(phi);
            changed = true;
        }
    }
    (changed, visited)
}

/// Merges blocks connected by a unique jump edge: when `b` ends in
/// `jump s`, `s`'s only predecessor is `b`, and `s` has no φs, `s` is
/// folded into `b`. Returns `true` when anything changed.
pub fn merge_straightline_blocks(g: &mut Graph) -> bool {
    merge(g)
}

/// The block `b` can absorb: its jump target, when `b` is that block's
/// only predecessor and the target has no φs.
fn absorbable(g: &Graph, b: BlockId) -> Option<BlockId> {
    let Terminator::Jump { target } = *g.terminator(b) else {
        return None;
    };
    let mergeable =
        target != b && target != g.entry() && g.preds(target) == [b] && g.phis(target).is_empty();
    mergeable.then_some(target)
}

/// [`merge_straightline_blocks`] as a worklist. Merging is confluent — a
/// chain always ends up in its head, in chain order — so the order of the
/// worklist does not matter. A merge is no dirt (the merged block's facts
/// and GVN scope are its predecessor's), and marks already on the merged
/// block may stay there: canonicalize's and GVN's gates ask only whether
/// any block is marked, and once this pass is done no block is left that
/// it applies to.
fn merge(g: &mut Graph) -> bool {
    let mut changed = false;
    let mut work: Vec<BlockId> = g.blocks().collect();
    while let Some(x) = work.pop() {
        // `x` as the predecessor, or as the target of its only one.
        let pair = absorbable(g, x)
            .map(|t| (x, t))
            .or_else(|| match *g.preds(x) {
                [p] if absorbable(g, p) == Some(x) => Some((p, x)),
                _ => None,
            });
        if let Some((b, t)) = pair {
            g.merge_block_into_pred(t, b);
            work.push(b);
            changed = true;
        }
    }
    changed
}

/// Runs both simplifications to a fixpoint.
pub fn simplify_cfg(g: &mut Graph) -> bool {
    run(g, &mut Dirt::default()).0
}

/// [`simplify_cfg`], reporting what it changed to `dirt`. Removing φs
/// never enables a merge that did not get its φs removed first, and
/// merging never leaves a block with a single predecessor it did not
/// have, so one φ sweep and one merge worklist reach the fixpoint.
/// Returns whether anything changed and the φs examined.
pub(crate) fn run(g: &mut Graph, dirt: &mut Dirt) -> (bool, u64) {
    let (a, visited) = remove_phis(g, dirt);
    let b = merge(g);
    (a || b, visited)
}

/// Would [`simplify_cfg`] change anything at `b`?
pub(crate) fn applies(g: &Graph, b: BlockId) -> bool {
    let single_input_phis = g.preds(b).len() == 1 && !g.phis(b).is_empty();
    let merges =
        absorbable(g, b).is_some() || matches!(*g.preds(b), [p] if absorbable(g, p) == Some(b));
    single_input_phis || merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, GraphBuilder, Type, Value};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn single_input_phi_is_replaced() {
        let mut b = GraphBuilder::new("p1", &[Type::Int], empty_table());
        let x = b.param(0);
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        let mut g = b.finish();
        // Manually create a single-input phi in b1.
        let phi = g.append_phi(b1, vec![x], Type::Int);
        g.set_terminator(b1, Terminator::Return { value: Some(phi) });
        assert!(remove_single_input_phis(&mut g));
        verify(&g).unwrap();
        assert!(matches!(
            g.terminator(b1),
            Terminator::Return { value: Some(v) } if *v == x
        ));
    }

    #[test]
    fn chains_collapse_into_one_block() {
        let mut b = GraphBuilder::new("ch", &[Type::Int], empty_table());
        let x = b.param(0);
        let (b1, b2, b3) = (b.new_block(), b.new_block(), b.new_block());
        let one = b.iconst(1);
        b.jump(b1);
        b.switch_to(b1);
        let a1 = b.add(x, one);
        b.jump(b2);
        b.switch_to(b2);
        let a2 = b.add(a1, one);
        b.jump(b3);
        b.switch_to(b3);
        let a3 = b.add(a2, one);
        b.ret(Some(a3));
        let mut g = b.finish();
        assert!(merge_straightline_blocks(&mut g));
        verify(&g).unwrap();
        assert_eq!(g.reachable_blocks().len(), 1);
        assert_eq!(execute(&g, &[Value::Int(0)]).outcome, Ok(Value::Int(3)));
    }

    #[test]
    fn merge_respects_multiple_preds() {
        // A real merge block must not be folded into one predecessor.
        let mut b = GraphBuilder::new("m", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        b.ret(None);
        let mut g = b.finish();
        assert!(!simplify_cfg(&mut g));
        assert_eq!(g.reachable_blocks().len(), 4);
    }

    #[test]
    fn self_loop_is_not_merged() {
        let mut b = GraphBuilder::new("s", &[], empty_table());
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b1);
        let mut g = b.finish();
        // b1 jumps to itself; entry jumps to b1 but b1 has 2 preds.
        assert!(!merge_straightline_blocks(&mut g));
    }

    #[test]
    fn fold_then_simplify_leaves_minimal_graph() {
        // After branch folding a diamond degenerates to a chain.
        let mut b = GraphBuilder::new("fs", &[Type::Int], empty_table());
        let x = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        let t = b.bconst(true);
        b.branch(t, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let zero = b.iconst(0);
        let phi = b.phi(vec![x, zero], Type::Int);
        b.ret(Some(phi));
        let mut g = b.finish();
        g.fold_branch(g.entry(), true);
        super::super::dce::remove_unreachable_blocks(&mut g);
        assert!(simplify_cfg(&mut g));
        verify(&g).unwrap();
        assert_eq!(g.reachable_blocks().len(), 1);
        assert_eq!(execute(&g, &[Value::Int(9)]).outcome, Ok(Value::Int(9)));
    }
}
