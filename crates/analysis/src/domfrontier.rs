//! Dominance frontiers.
//!
//! The Cooper–Harvey–Kennedy frontier construction: for every join
//! block, walk each predecessor's idom chain up to the join's immediate
//! dominator, adding the join to every frontier on the way.
//!
//! `DF(b)` is where dominance of `b` ends — the blocks needing φs for
//! definitions in `b` (the SSA-repair placement set). Its dual on the
//! reversed CFG is the set of branches that decide whether `b` executes
//! (its control dependences).

use crate::domtree::DomTree;
use dbds_ir::{BlockId, Graph};

/// Dominance frontiers over the reachable blocks of a [`Graph`]. Frontier
/// sets are sorted by block index and deduplicated.
#[derive(Clone, Debug)]
pub struct DomFrontiers {
    df: Vec<Vec<BlockId>>,
}

impl DomFrontiers {
    /// Computes the frontiers of `g` from its dominator tree.
    pub fn compute(g: &Graph, dt: &DomTree) -> Self {
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); g.block_count()];
        // Join blocks push themselves up each predecessor's idom chain.
        for &b in dt.reverse_postorder() {
            if g.preds(b).len() < 2 {
                continue;
            }
            let target = dt.idom(b);
            for &p in g.preds(b) {
                if !dt.is_reachable(p) {
                    continue;
                }
                let mut runner = Some(p);
                while runner != target {
                    let Some(r) = runner else { break };
                    df[r.index()].push(b);
                    runner = dt.idom(r);
                }
            }
        }
        for set in &mut df {
            set.sort_unstable();
            set.dedup();
        }
        DomFrontiers { df }
    }

    /// The dominance frontier of `b` (sorted, deduplicated).
    pub fn df(&self, b: BlockId) -> &[BlockId] {
        &self.df[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, Graph, GraphBuilder, Type};
    use std::sync::Arc;

    fn frontiers(g: &Graph) -> DomFrontiers {
        DomFrontiers::compute(g, &DomTree::compute(g))
    }

    fn diamond() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("d", &[Type::Int], Arc::new(ClassTable::new()));
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
        b.ret(None);
        (b.finish(), bt, bf, bm)
    }

    #[test]
    fn diamond_frontiers() {
        let (g, bt, bf, bm) = diamond();
        let f = frontiers(&g);
        let e = g.entry();
        // The arms' dominance ends at the merge; entry and merge dominate
        // everything below themselves.
        assert_eq!(f.df(bt), &[bm]);
        assert_eq!(f.df(bf), &[bm]);
        assert!(f.df(e).is_empty());
        assert!(f.df(bm).is_empty());
    }

    #[test]
    fn loop_header_is_in_its_own_frontier() {
        let mut b = GraphBuilder::new("l", &[Type::Int], Arc::new(ClassTable::new()));
        let n = b.param(0);
        let zero = b.iconst(0);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let g = b.finish();
        let f = frontiers(&g);
        // The back edge puts the header in its own frontier and the
        // body's.
        assert_eq!(f.df(header), &[header]);
        assert_eq!(f.df(body), &[header]);
    }
}
