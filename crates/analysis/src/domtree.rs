//! Dominator tree construction and queries.
//!
//! Uses the Cooper–Harvey–Kennedy iterative algorithm over a reverse
//! postorder of the CFG, then numbers the dominator tree with an Euler
//! interval so that [`DomTree::dominates`] is O(1). The DBDS simulation
//! tier (§4.1 of the paper) is a depth-first traversal of this tree.

use dbds_ir::{BlockId, Graph};

/// A dominator tree over the reachable blocks of a [`Graph`].
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry block and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree.
    children: Vec<Vec<BlockId>>,
    /// Reverse postorder of the reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_index: Vec<usize>,
    /// Euler-tour entry time per block in the dominator tree.
    pre: Vec<usize>,
    /// Euler-tour exit time per block in the dominator tree.
    post: Vec<usize>,
}

impl DomTree {
    /// Computes the dominator tree of `g`.
    pub fn compute(g: &Graph) -> Self {
        let n = g.block_count();
        let rpo = reverse_postorder(g);
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i;
        }
        let Solved {
            idom,
            children,
            pre,
            post,
        } = solve(&rpo, &rpo_index, |b| g.preds(b).iter().copied());
        DomTree {
            idom,
            children,
            rpo,
            rpo_index,
            pre,
            post,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry block or an
    /// unreachable block).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// The children of `b` in the dominator tree, ordered by reverse
    /// postorder of the CFG.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Does `a` dominate `b` (reflexively)? O(1). Unreachable blocks
    /// neither dominate nor are dominated.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Does `a` strictly dominate `b`?
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Is `b` reachable from the entry block?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// The reverse postorder of the reachable blocks (entry first).
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse postorder.
    ///
    /// # Panics
    ///
    /// Panics if `b` is unreachable.
    pub fn rpo_index(&self, b: BlockId) -> usize {
        let i = self.rpo_index[b.index()];
        assert_ne!(i, usize::MAX, "{b} is unreachable");
        i
    }

    /// Depth-first preorder of the dominator tree (entry first). This is
    /// the traversal order of the DBDS simulation tier.
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut order: Vec<BlockId> = self.rpo.clone();
        order.sort_by_key(|b| self.pre[b.index()]);
        order
    }
}

/// What [`solve`] returns, every table indexed by node: the immediate
/// dominator (`None` for the root and for nodes outside `order`), the
/// tree children in `order` order, and the Euler-tour interval that makes
/// "`a` dominates `b`" the O(1) test `pre[a] <= pre[b] && post[b] <=
/// post[a]`.
pub(crate) struct Solved {
    pub idom: Vec<Option<BlockId>>,
    pub children: Vec<Vec<BlockId>>,
    pub pre: Vec<usize>,
    pub post: Vec<usize>,
}

/// The one Cooper–Harvey–Kennedy solver of this crate: the dominator tree
/// of whatever graph `preds` describes, rooted at `order[0]`. `order` is a
/// reverse postorder of the nodes reachable from the root and
/// `order_index` its inverse (its length is the node count). The
/// dominator tree passes the CFG's predecessor lists; the post-dominator
/// tree passes the successor lists plus a virtual exit node.
pub(crate) fn solve<I>(
    order: &[BlockId],
    order_index: &[usize],
    preds: impl Fn(BlockId) -> I,
) -> Solved
where
    I: IntoIterator<Item = BlockId>,
{
    let n = order_index.len();
    let root = order[0];
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[root.index()] = Some(root);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in order.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for p in preds(b) {
                if idom[p.index()].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, order_index, p, cur),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.index()] != Some(ni) {
                    idom[b.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    // The root's self-idom is an algorithmic artifact; expose None.
    idom[root.index()] = None;

    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for &b in order {
        if let Some(p) = idom[b.index()] {
            children[p.index()].push(b);
        }
    }

    // Euler tour for O(1) dominance queries.
    let mut pre = vec![usize::MAX; n];
    let mut post = vec![usize::MAX; n];
    let mut clock = 0;
    let mut stack: Vec<(BlockId, usize)> = vec![(root, 0)];
    pre[root.index()] = clock;
    clock += 1;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let ch = &children[b.index()];
        if *next < ch.len() {
            let c = ch[*next];
            *next += 1;
            pre[c.index()] = clock;
            clock += 1;
            stack.push((c, 0));
        } else {
            post[b.index()] = clock;
            clock += 1;
            stack.pop();
        }
    }

    Solved {
        idom,
        children,
        pre,
        post,
    }
}

fn intersect(idom: &[Option<BlockId>], order_index: &[usize], a: BlockId, b: BlockId) -> BlockId {
    let (mut a, mut b) = (a, b);
    while a != b {
        while order_index[a.index()] > order_index[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while order_index[b.index()] > order_index[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

/// Computes a reverse postorder of the blocks reachable from the entry.
pub fn reverse_postorder(g: &Graph) -> Vec<BlockId> {
    let n = g.block_count();
    let mut visited = vec![false; n];
    let mut post: Vec<BlockId> = Vec::new();
    // Each frame owns its block's successors, fetched once at the push.
    let mut stack: Vec<(BlockId, Vec<BlockId>, usize)> = vec![(g.entry(), g.succs(g.entry()), 0)];
    visited[g.entry().index()] = true;
    while let Some(&mut (b, ref succs, ref mut child)) = stack.last_mut() {
        if *child < succs.len() {
            let s = succs[*child];
            *child += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, g.succs(s), 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    /// entry → {bt, bf} → bm → exit
    fn diamond() -> (Graph, BlockId, BlockId, BlockId) {
        let mut b = GraphBuilder::new("d", &[Type::Int], empty_table());
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
    fn diamond_idoms() {
        let (g, bt, bf, bm) = diamond();
        let dt = DomTree::compute(&g);
        let e = g.entry();
        assert_eq!(dt.idom(e), None);
        assert_eq!(dt.idom(bt), Some(e));
        assert_eq!(dt.idom(bf), Some(e));
        assert_eq!(dt.idom(bm), Some(e)); // merge dominated by split, not branches
        assert!(dt.dominates(e, bm));
        assert!(!dt.dominates(bt, bm));
        assert!(!dt.dominates(bt, bf));
        assert!(dt.dominates(bt, bt));
        assert!(dt.strictly_dominates(e, bt));
        assert!(!dt.strictly_dominates(e, e));
    }

    #[test]
    fn chain_dominance() {
        let mut b = GraphBuilder::new("c", &[], empty_table());
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let g = b.finish();
        let dt = DomTree::compute(&g);
        assert!(dt.dominates(g.entry(), b2));
        assert!(dt.dominates(b1, b2));
        assert_eq!(dt.idom(b2), Some(b1));
        assert_eq!(dt.children(g.entry()), &[b1]);
    }

    #[test]
    fn loop_header_dominates_body() {
        let mut b = GraphBuilder::new("l", &[Type::Int], empty_table());
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
        let dt = DomTree::compute(&g);
        assert!(dt.dominates(header, body));
        assert!(dt.dominates(header, exit));
        assert!(!dt.dominates(body, header));
        assert_eq!(dt.idom(body), Some(header));
    }

    #[test]
    fn unreachable_blocks_are_outside() {
        let (mut g, _, _, _) = diamond();
        let orphan = g.add_block();
        let dt = DomTree::compute(&g);
        assert!(!dt.is_reachable(orphan));
        assert!(!dt.dominates(g.entry(), orphan));
        assert!(!dt.dominates(orphan, g.entry()));
        assert_eq!(dt.idom(orphan), None);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_forward_edges() {
        let (g, bt, bf, bm) = diamond();
        let dt = DomTree::compute(&g);
        let rpo = dt.reverse_postorder();
        assert_eq!(rpo[0], g.entry());
        assert!(dt.rpo_index(bt) < dt.rpo_index(bm));
        assert!(dt.rpo_index(bf) < dt.rpo_index(bm));
        assert_eq!(rpo.len(), 4);
    }

    #[test]
    fn preorder_visits_parents_before_children() {
        let (g, ..) = diamond();
        let dt = DomTree::compute(&g);
        let pre = dt.preorder();
        assert_eq!(pre[0], g.entry());
        let pos = |b: BlockId| pre.iter().position(|&x| x == b).unwrap();
        for &b in &pre {
            if let Some(p) = dt.idom(b) {
                assert!(pos(p) < pos(b));
            }
        }
    }
}
