//! Liveness analysis and live-interval construction for linear scan.
//!
//! Liveness is computed per value by SSA path exploration: every use of a
//! value that is not preceded by its definition in the same block makes
//! the value live-in there, and from each live-in block the walk goes
//! backwards over the reachable predecessors — each of which the value is
//! live-out of — until it reaches the defining block. With one definition
//! per value this is exactly the least fixpoint of the classic backward
//! dataflow, at O(instructions + blocks) memory and with work bounded by
//! the blocks each value is live in.

use crate::linearize::Linearization;
use dbds_ir::{BlockId, Graph, Inst, InstId};

/// The live interval of one SSA value in the linear layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// The value.
    pub value: InstId,
    /// First position (the definition).
    pub start: u32,
    /// Last position where the value is needed (inclusive).
    pub end: u32,
    /// Number of use sites — the spill heuristic prefers evicting rarely
    /// used long ranges over hot ones.
    pub uses: u32,
}

/// Computes live intervals for all non-void values of `g`, sorted by
/// start.
///
/// φ semantics: a φ input is live at the end of the corresponding
/// predecessor (where the resolving move sits), not inside the φ's own
/// block.
pub fn live_intervals(g: &Graph, lin: &Linearization) -> Vec<Interval> {
    // One scan over the placed blocks collects every use site as
    // (value, block, position). A φ input is read at the end of its
    // predecessor, so it is a use at that block's terminator position.
    let mut sites: Vec<(InstId, BlockId, u32)> = Vec::new();
    for &b in &lin.order {
        for &i in g.block_insts(b) {
            if !g.inst(i).is_phi() {
                let p = lin.pos(i);
                g.inst(i).for_each_input(|v| sites.push((v, b, p)));
            }
        }
        let tp = lin.term_pos(b);
        g.terminator(b).for_each_input(|v| sites.push((v, b, tp)));
        for s in g.succs(b) {
            let k = g.pred_index(s, b);
            for &phi in g.phis(s) {
                if let Inst::Phi { inputs } = g.inst(phi) {
                    sites.push((inputs[k], b, tp));
                }
            }
        }
    }

    // Group the sites by value with a counting sort: the sites of `v` are
    // `by_value[first[v]..first[v + 1]]`.
    let mut first = vec![0u32; g.inst_count() + 1];
    for &(v, _, _) in &sites {
        first[v.index()] += 1;
    }
    for k in 1..first.len() {
        first[k] += first[k - 1];
    }
    let mut by_value = vec![(g.entry(), 0u32); sites.len()];
    for &(v, b, p) in &sites {
        first[v.index()] -= 1;
        by_value[first[v.index()] as usize] = (b, p);
    }

    // `mark[b] == v` once the walk for value `v` has made `b` live-in, so
    // no block is walked twice for one value.
    let mut mark = vec![u32::MAX; g.block_count()];
    let mut stack: Vec<BlockId> = Vec::new();
    let mut intervals = Vec::new();
    for &d in &lin.order {
        for &v in g.block_insts(d) {
            // Constants are rematerialized at their uses by the emitter
            // and never occupy a register across instructions.
            if g.ty(v).is_void() || matches!(g.inst(v), Inst::Const(_)) {
                continue;
            }
            let start = lin.pos(v);
            let uses = &by_value[first[v.index()] as usize..first[v.index() + 1] as usize];
            let mut end = start;
            for &(b, p) in uses {
                end = end.max(p);
                // A use makes `v` live-in at its block unless it follows
                // the definition in `d` itself (a φ input on an edge out
                // of `d` sits at `d`'s terminator: live-out only).
                if (b != d || p <= start) && mark[b.index()] != v.0 {
                    mark[b.index()] = v.0;
                    stack.push(b);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in g.preds(b) {
                    // Unreachable predecessors are not laid out: nothing
                    // is live across their edges.
                    if !lin.is_placed(p) {
                        continue;
                    }
                    end = end.max(lin.term_pos(p));
                    if p != d && mark[p.index()] != v.0 {
                        mark[p.index()] = v.0;
                        stack.push(p);
                    }
                }
            }
            intervals.push(Interval {
                value: v,
                start,
                end,
                uses: uses.len() as u32,
            });
        }
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    #[test]
    fn straightline_intervals() {
        let mut b = GraphBuilder::new("s", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0); // pos 0
        let one = b.iconst(1); // pos 1
        let a = b.add(x, one); // pos 2
        let m = b.mul(a, a); // pos 3
        b.ret(Some(m)); // pos 4
        let g = b.finish();
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        assert_eq!(find(x).start, 0);
        assert_eq!(find(x).end, 2);
        assert_eq!(find(a).end, 3);
        assert_eq!(find(m).end, 4);
    }

    #[test]
    fn phi_inputs_live_at_pred_ends() {
        let mut b = GraphBuilder::new("p", &[Type::Bool, Type::Int], Arc::new(ClassTable::new()));
        let c = b.param(0);
        let x = b.param(1);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let a = b.add(x, x);
        b.jump(bm);
        b.switch_to(bf);
        let s = b.sub(x, x);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![a, s], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        // `a` lives exactly until the end of bt (the resolving move).
        assert_eq!(find(a).end, lin.term_pos(bt));
        assert_eq!(find(s).end, lin.term_pos(bf));
        // The φ lives from its block to the return.
        assert!(find(phi).end >= find(phi).start);
        // Constants are rematerialized: no interval.
        assert!(ivs.iter().all(|iv| iv.value != c || iv.start == 0));
    }

    #[test]
    fn loop_carried_value_lives_across_back_edge() {
        let mut b = GraphBuilder::new("l", &[Type::Int], Arc::new(ClassTable::new()));
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
            dbds_ir::Inst::Binary {
                op: dbds_ir::BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let dbds_ir::Inst::Phi { inputs } = inst {
                inputs[1] = inc;
            }
        });
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        // `inc` feeds the back-edge φ move: live to the body's end.
        assert_eq!(find(inc).end, lin.term_pos(body));
        // `n` is compared every iteration: live through the loop.
        assert!(find(n).end >= lin.term_pos(header));
        // `one` is a constant: rematerialized, no interval.
        assert!(!ivs.iter().any(|iv| iv.value == one));
    }
}
