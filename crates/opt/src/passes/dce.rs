//! Dead-code elimination: unreachable blocks and unused pure
//! instructions.

use crate::passes::dirt::Dirt;
use dbds_ir::{BlockId, Graph, InstId, Terminator};

/// Disconnects and empties all blocks unreachable from the entry.
/// Returns `true` when anything changed.
pub fn remove_unreachable_blocks(g: &mut Graph) -> bool {
    clear_unreachable(g, &mut Dirt::default())
}

/// [`remove_unreachable_blocks`], reporting to `dirt`.
///
/// The dirt: each reachable successor of a cleared block lost a
/// predecessor and its φs an input (for canonicalize and
/// `simplify_cfg`). The cleared blocks leave every pending set.
fn clear_unreachable(g: &mut Graph, dirt: &mut Dirt) -> bool {
    let mut reachable = vec![false; g.block_count()];
    for b in g.reachable_blocks() {
        reachable[b.index()] = true;
    }
    let mut changed = false;
    for b in g.blocks().collect::<Vec<_>>() {
        if reachable[b.index()] {
            continue;
        }
        // Clear the terminator first — this removes outgoing edges (and
        // the φ inputs in the targets) *and* drops value operands that
        // are about to be detached (a dead `return v` must not keep
        // referencing v).
        if !matches!(g.terminator(b), Terminator::Deopt) {
            for s in g.succs(b) {
                dirt.cutting(g, b, s);
                if reachable[s.index()] {
                    dirt.canon.insert(s);
                }
            }
            let mut operands = Vec::new();
            g.terminator(b).for_each_input(|v| operands.push(v));
            dirt.note_allocs(g, operands.iter().copied());
            dirt.dropped.extend(operands);
            g.set_terminator(b, Terminator::Deopt);
            changed = true;
        }
        let insts: Vec<InstId> = g.block_insts(b).to_vec();
        for i in insts.into_iter().rev() {
            dirt.removing(g, i);
            g.remove_inst(i);
            changed = true;
        }
    }
    let live = |b: BlockId| reachable.get(b.index()).copied().unwrap_or(true);
    dirt.canon.retain(live);
    dirt.gvn.retain(live);
    dirt.simplify.retain(live);
    changed
}

/// Removes pure instructions whose values are unused, cascading through
/// operand chains. Returns `true` when anything changed.
///
/// A worklist over the graph's use counts: one pass seeds it with every
/// unused removable instruction, and each removal pushes the operands it
/// was the last user of — no recount of the graph per round.
pub fn remove_dead_instructions(g: &mut Graph) -> bool {
    remove_dead(g, &mut Dirt::default()).0
}

/// Is `i` an attached, unused instruction DCE may remove?
pub(crate) fn is_dead(g: &Graph, i: InstId) -> bool {
    i.index() < g.inst_count()
        && g.block_of(i).is_some()
        && !g.has_uses(i)
        && g.inst(i).removable_if_unused()
}

/// The worklist of [`remove_dead_instructions`]. Removing an instruction
/// reports the allocations among its operands to `dirt` (they lost a
/// user). Returns whether anything changed and the instructions visited:
/// those tested for deadness.
fn remove_dead(g: &mut Graph, dirt: &mut Dirt) -> (bool, u64) {
    let mut worklist: Vec<InstId> = g.blocks().flat_map(|b| g.block_insts(b)).copied().collect();
    let mut visited = worklist.len() as u64;
    worklist.retain(|&i| is_dead(g, i));
    worklist.sort_unstable();
    let changed = !worklist.is_empty();
    while let Some(i) = worklist.pop() {
        let operands = g.inst(i).collect_inputs();
        dirt.note_allocs(g, operands.iter().copied());
        g.remove_inst(i);
        for (k, &op) in operands.iter().enumerate() {
            // Queue each newly unused operand once, however many of the
            // removed instruction's slots named it.
            visited += 1;
            if is_dead(g, op) && !operands[..k].contains(&op) {
                worklist.push(op);
            }
        }
    }
    #[cfg(debug_assertions)]
    assert!(
        !any_dead_by_recount(g),
        "worklist DCE left an unused removable instruction behind"
    );
    (changed, visited)
}

/// One round of the whole-graph recount the worklist replaced: does any
/// attached removable instruction have no use? Kept as the reference the
/// worklist's fixpoint is checked against (debug builds only).
#[cfg(debug_assertions)]
fn any_dead_by_recount(g: &Graph) -> bool {
    let mut uses: std::collections::HashMap<InstId, usize> = std::collections::HashMap::new();
    for b in g.blocks() {
        for &i in g.block_insts(b) {
            g.inst(i).for_each_input(|input| {
                *uses.entry(input).or_insert(0) += 1;
            });
        }
        g.terminator(b).for_each_input(|input| {
            *uses.entry(input).or_insert(0) += 1;
        });
    }
    g.blocks()
        .flat_map(|b| g.block_insts(b))
        .any(|&i| uses.get(&i).copied().unwrap_or(0) == 0 && g.inst(i).removable_if_unused())
}

/// Runs both DCE phases.
pub fn remove_dead_code(g: &mut Graph) -> bool {
    run(g, &mut Dirt::default()).0
}

/// Both DCE phases, reporting to `dirt`. Returns whether anything
/// changed and the instructions visited.
pub(crate) fn run(g: &mut Graph, dirt: &mut Dirt) -> (bool, u64) {
    let a = clear_unreachable(g, dirt);
    let (b, visited) = remove_dead(g, dirt);
    (a || b, visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{verify, ClassTable, GraphBuilder, Inst, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn removes_unused_chain() {
        let mut b = GraphBuilder::new("d", &[Type::Int], empty_table());
        let x = b.param(0);
        let one = b.iconst(1);
        let dead1 = b.add(x, one);
        let _dead2 = b.mul(dead1, dead1);
        let live = b.sub(x, one);
        b.ret(Some(live));
        let mut g = b.finish();
        assert!(remove_dead_instructions(&mut g));
        verify(&g).unwrap();
        // x, one, live remain.
        assert_eq!(g.block_insts(g.entry()).len(), 3);
    }

    #[test]
    fn keeps_effectful_and_trapping_instructions() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let fx = t.add_field(a, "x", Type::Int);
        let mut b = GraphBuilder::new("k", &[Type::Ref(a), Type::Int], Arc::new(t));
        let obj = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(0);
        let _unused_div = b.div(n, zero); // traps — must stay
        let _unused_store = b.store(obj, fx, n); // effect — must stay
        let _unused_load = b.load(obj, fx); // traps on null — must stay
        b.ret(None);
        let mut g = b.finish();
        assert!(!remove_dead_instructions(&mut g));
        verify(&g).unwrap();
    }

    #[test]
    fn unused_allocation_is_removed() {
        let mut t = ClassTable::new();
        let a = t.add_class("A");
        let mut b = GraphBuilder::new("al", &[], Arc::new(t));
        let _alloc = b.new_object(a);
        b.ret(None);
        let mut g = b.finish();
        assert!(remove_dead_instructions(&mut g));
        assert_eq!(g.live_inst_count(), 0);
    }

    #[test]
    fn disconnects_unreachable_blocks() {
        let mut b = GraphBuilder::new("u", &[Type::Int], empty_table());
        let x = b.param(0);
        let bm = b.new_block();
        b.jump(bm);
        b.switch_to(bm);
        // bm gets a second (unreachable) predecessor.
        b.ret(Some(x));
        let mut g = b.finish();
        // Build an unreachable block that jumps into a live one… requires
        // a target without phis.
        let dead = g.add_block();
        let c1 = g.append_inst(dead, Inst::Const(dbds_ir::ConstValue::Int(1)), Type::Int);
        let _ = c1;
        g.set_terminator(dead, Terminator::Jump { target: bm });
        assert_eq!(g.preds(bm).len(), 2);
        assert!(remove_unreachable_blocks(&mut g));
        assert_eq!(g.preds(bm).len(), 1);
        assert!(g.block_insts(dead).is_empty());
        verify(&g).unwrap();
    }

    #[test]
    fn phi_counts_as_use() {
        let mut b = GraphBuilder::new("p", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.jump(bm);
        b.switch_to(bf);
        let two = b.iconst(2);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![one, two], Type::Int);
        b.ret(Some(phi));
        let mut g = b.finish();
        assert!(!remove_dead_code(&mut g));
        assert!(g.block_of(one).is_some());
        assert!(g.block_of(two).is_some());
    }
}
