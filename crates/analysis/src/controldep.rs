//! Control-dependence graph derived from the post-dominator tree.
//!
//! Ferrante–Ottenstein–Warren: block `b` is control dependent on branch
//! `a` iff `b` post-dominates some successor of `a` but does not strictly
//! post-dominate `a` itself — i.e. `a`'s branch decides whether `b`
//! executes. The construction walks, for every split block `a` and each
//! of its successors `s`, the immediate-post-dominator chain from `s` up
//! to (exclusive) `ipdom(a)`; every block on the walk is control
//! dependent on `a`. This is the chain walk of the dominance-frontier
//! construction on the reversed CFG, recorded edge-wise in both
//! directions ([`ControlDepGraph::controllers`] is the post-dominance
//! frontier).

use crate::postdom::PostDomTree;
use dbds_ir::{BlockId, Graph};

/// The control-dependence relation over the reachable blocks of a
/// [`Graph`]. Both adjacency directions are precomputed, sorted by block
/// index and deduplicated.
#[derive(Clone, Debug)]
pub struct ControlDepGraph {
    /// Per branch block `a`: the blocks control dependent on `a`.
    dependents: Vec<Vec<BlockId>>,
    /// Per block `b`: the branch blocks `b` is control dependent on.
    controllers: Vec<Vec<BlockId>>,
}

impl ControlDepGraph {
    /// Computes the control-dependence graph of `g` from its
    /// post-dominator tree.
    pub fn compute(g: &Graph, pd: &PostDomTree) -> Self {
        let n = g.block_count();
        let mut dependents: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        let mut controllers: Vec<Vec<BlockId>> = vec![Vec::new(); n];

        for a in g.blocks() {
            if g.succs(a).len() < 2 || !pd.in_domain(a) {
                continue;
            }
            let target = pd.ipdom(a);
            for s in g.succs(a) {
                if !pd.in_domain(s) {
                    continue;
                }
                let mut runner = Some(s);
                while runner != target {
                    let Some(r) = runner else { break };
                    dependents[a.index()].push(r);
                    controllers[r.index()].push(a);
                    runner = pd.ipdom(r);
                }
            }
        }

        for set in dependents.iter_mut().chain(controllers.iter_mut()) {
            set.sort_unstable();
            set.dedup();
        }
        ControlDepGraph {
            dependents,
            controllers,
        }
    }

    /// The blocks whose execution is decided by the branch in `a`
    /// (sorted, deduplicated).
    pub fn dependents(&self, a: BlockId) -> &[BlockId] {
        &self.dependents[a.index()]
    }

    /// The branch blocks that decide whether `b` executes (sorted,
    /// deduplicated).
    pub fn controllers(&self, b: BlockId) -> &[BlockId] {
        &self.controllers[b.index()]
    }

    /// Is `b` control dependent on `a`?
    pub fn depends_on(&self, b: BlockId, a: BlockId) -> bool {
        self.dependents[a.index()].binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, Graph, GraphBuilder, Type};
    use std::sync::Arc;

    fn cdg(g: &Graph) -> ControlDepGraph {
        ControlDepGraph::compute(g, &PostDomTree::compute(g))
    }

    #[test]
    fn diamond_arms_depend_on_the_split() {
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
        let g = b.finish();
        let d = cdg(&g);
        let e = g.entry();
        assert_eq!(d.dependents(e), &[bt, bf]);
        assert!(d.depends_on(bt, e));
        assert!(d.depends_on(bf, e));
        // The merge runs either way: not control dependent on the split.
        assert!(!d.depends_on(bm, e));
        assert!(d.controllers(bm).is_empty());
        assert_eq!(d.controllers(bt), &[e]);
    }

    #[test]
    fn loop_header_depends_on_itself() {
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
        let d = cdg(&g);
        // Whether another iteration runs is decided by the header's own
        // branch: header and body are control dependent on the header.
        assert_eq!(d.dependents(header), &[header, body]);
        assert!(d.depends_on(header, header));
        assert!(!d.depends_on(exit, header));
    }
}
