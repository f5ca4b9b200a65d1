//! Post-dominator tree construction and queries.
//!
//! The post-dominator tree is the dominator tree of the *reversed* CFG
//! rooted at a virtual exit node. Because [`Graph`] terminators have at
//! most two successors, the reversed graph cannot be materialized as a
//! real `Graph`; instead the crate's one dominator solver
//! ([`crate::domtree`]) runs over reversed edge queries (`succs` become
//! predecessors and vice versa), with the virtual exit as one extra node
//! past the real blocks. This module owns what is particular to the
//! reverse direction: choosing the exits. Every reachable block with no
//! successors is an exit; a region that cannot reach any exit (an
//! infinite loop) is handled by deterministically attaching its earliest
//! block (in forward reverse postorder) to the virtual exit as a
//! pseudo-exit, so the tree always covers every entry-reachable block.

use crate::domtree::{reverse_postorder, solve, Dominators};
use dbds_ir::{BlockId, Graph};

/// A post-dominator tree over the entry-reachable blocks of a [`Graph`].
#[derive(Clone, Debug)]
pub struct PostDomTree {
    /// The virtual exit: the node one past the real blocks.
    virtual_exit: BlockId,
    /// The dominance relation of the reversed CFG, rooted at the virtual
    /// exit, children in reverse postorder of the reversed CFG. A block's
    /// parent is a real block, the virtual exit, or `None` outside the
    /// analysis domain (unreachable from the entry block).
    tree: Dominators,
    /// Pseudo-exits chosen for regions that cannot reach a real exit.
    pseudo_exits: Vec<BlockId>,
}

impl PostDomTree {
    /// Computes the post-dominator tree of `g`.
    pub fn compute(g: &Graph) -> Self {
        let n = g.block_count();
        let forward_rpo = reverse_postorder(g);
        let mut in_domain = vec![false; n];
        for &b in &forward_rpo {
            in_domain[b.index()] = true;
        }

        // Exit set: reachable blocks with no successors, then pseudo-exits
        // until every reachable block can reach the (virtual) exit.
        let mut exits: Vec<BlockId> = forward_rpo
            .iter()
            .copied()
            .filter(|&b| g.succs(b).is_empty())
            .collect();
        let mut pseudo_exits = Vec::new();
        loop {
            let covered = can_reach(g, n, &exits, &in_domain);
            match forward_rpo.iter().find(|b| !covered[b.index()]) {
                None => break,
                Some(&b) => {
                    pseudo_exits.push(b);
                    exits.push(b);
                }
            }
        }

        // Reverse postorder of the reversed graph from the virtual exit,
        // whose reversed successors are the exit set.
        let virtual_exit = BlockId::from_index(n);
        let mut order = vec![virtual_exit];
        order.extend(reversed_rpo(g, n, &exits, &in_domain));
        let mut order_index = vec![usize::MAX; n + 1];
        for (i, &b) in order.iter().enumerate() {
            order_index[b.index()] = i;
        }
        let mut is_exit = vec![false; n];
        for &e in &exits {
            is_exit[e.index()] = true;
        }
        // Reversed predecessors of `b` are its forward successors, plus
        // the virtual exit when `b` is an exit.
        let ipdom = solve(&order, &order_index, |b| {
            g.succs(b)
                .into_iter()
                .chain(is_exit[b.index()].then_some(virtual_exit))
        });
        let tree = Dominators::number(virtual_exit, ipdom, order.iter().copied());

        PostDomTree {
            virtual_exit,
            tree,
            pseudo_exits,
        }
    }

    /// The immediate post-dominator of `b`: `None` when `b`'s parent is
    /// the virtual exit (a real or pseudo exit) or `b` is unreachable.
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.tree.idom(b).filter(|&p| p != self.virtual_exit)
    }

    /// Is `b`'s immediate post-dominator the virtual exit?
    pub fn is_root(&self, b: BlockId) -> bool {
        self.tree.idom(b) == Some(self.virtual_exit)
    }

    /// The children of `b` in the post-dominator tree.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.tree.children(b)
    }

    /// The children of the virtual exit: real exits first, then
    /// pseudo-exits of infinite regions.
    pub fn roots(&self) -> &[BlockId] {
        self.tree.children(self.virtual_exit)
    }

    /// Blocks deterministically attached to the virtual exit because
    /// their region cannot reach a real exit.
    pub fn pseudo_exits(&self) -> &[BlockId] {
        &self.pseudo_exits
    }

    /// Does `a` post-dominate `b` (reflexively)? O(1). Blocks outside the
    /// domain neither post-dominate nor are post-dominated.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.dominates(a, b)
    }

    /// Does `a` strictly post-dominate `b`?
    pub fn strictly_post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.post_dominates(a, b)
    }

    /// Is `b` in the analysis domain (reachable from the entry block)?
    pub fn in_domain(&self, b: BlockId) -> bool {
        self.tree.is_reachable(b)
    }
}

/// Which blocks can reach a member of `exits` (forward edges), restricted
/// to `in_domain` blocks — a backward BFS over predecessor edges.
fn can_reach(g: &Graph, n: usize, exits: &[BlockId], in_domain: &[bool]) -> Vec<bool> {
    let mut covered = vec![false; n];
    let mut work: Vec<BlockId> = Vec::new();
    for &e in exits {
        if in_domain[e.index()] && !covered[e.index()] {
            covered[e.index()] = true;
            work.push(e);
        }
    }
    while let Some(b) = work.pop() {
        for &p in g.preds(b) {
            if in_domain[p.index()] && !covered[p.index()] {
                covered[p.index()] = true;
                work.push(p);
            }
        }
    }
    covered
}

/// Reverse postorder of the reversed graph from the virtual exit (whose
/// reversed successors are `exits`; every other block's reversed
/// successors are its forward predecessors). The virtual exit itself is
/// omitted from the returned order.
fn reversed_rpo(g: &Graph, n: usize, exits: &[BlockId], in_domain: &[bool]) -> Vec<BlockId> {
    let mut visited = vec![false; n];
    let mut post: Vec<BlockId> = Vec::new();
    // Drive the DFS from each exit in order, as if they were the virtual
    // exit's successor list.
    for &e in exits {
        if visited[e.index()] || !in_domain[e.index()] {
            continue;
        }
        visited[e.index()] = true;
        let mut stack: Vec<(BlockId, usize)> = vec![(e, 0)];
        while let Some(&mut (b, ref mut child)) = stack.last_mut() {
            let preds = g.preds(b);
            if *child < preds.len() {
                let p = preds[*child];
                *child += 1;
                if in_domain[p.index()] && !visited[p.index()] {
                    visited[p.index()] = true;
                    stack.push((p, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
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

    /// entry → {bt, bf} → bm (return)
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
    fn diamond_ipdoms() {
        let (g, bt, bf, bm) = diamond();
        let pd = PostDomTree::compute(&g);
        let e = g.entry();
        assert_eq!(pd.ipdom(bm), None);
        assert!(pd.is_root(bm));
        assert_eq!(pd.ipdom(bt), Some(bm));
        assert_eq!(pd.ipdom(bf), Some(bm));
        assert_eq!(pd.ipdom(e), Some(bm)); // merge post-dominates the split
        assert!(pd.post_dominates(bm, e));
        assert!(!pd.post_dominates(bt, e));
        assert!(!pd.post_dominates(bt, bf));
        assert!(pd.post_dominates(bt, bt));
        assert!(pd.strictly_post_dominates(bm, bt));
        assert!(!pd.strictly_post_dominates(bm, bm));
        assert_eq!(pd.roots(), &[bm]);
        assert!(pd.pseudo_exits().is_empty());
    }

    #[test]
    fn chain_post_dominance() {
        let mut b = GraphBuilder::new("c", &[], empty_table());
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        let g = b.finish();
        let pd = PostDomTree::compute(&g);
        assert!(pd.post_dominates(b2, g.entry()));
        assert!(pd.post_dominates(b1, g.entry()));
        assert_eq!(pd.ipdom(g.entry()), Some(b1));
        assert_eq!(pd.ipdom(b1), Some(b2));
        assert_eq!(pd.ipdom(b2), None);
        assert_eq!(pd.children(b2), &[b1]);
    }

    #[test]
    fn loop_exit_post_dominates_loop() {
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
        let pd = PostDomTree::compute(&g);
        assert!(pd.post_dominates(exit, header));
        assert!(pd.post_dominates(exit, body));
        assert!(pd.post_dominates(header, body));
        assert!(!pd.post_dominates(body, header));
        assert_eq!(pd.ipdom(body), Some(header));
        assert_eq!(pd.ipdom(header), Some(exit));
        assert_eq!(pd.roots(), &[exit]);
    }

    #[test]
    fn infinite_loop_gets_a_pseudo_exit() {
        // entry → {spin, done}; spin → spin (never exits); done returns.
        let mut b = GraphBuilder::new("inf", &[Type::Bool], empty_table());
        let c = b.param(0);
        let spin = b.new_block();
        let done = b.new_block();
        b.branch(c, spin, done, 0.5);
        b.switch_to(spin);
        b.jump(spin);
        b.switch_to(done);
        b.ret(None);
        let g = b.finish();
        let pd = PostDomTree::compute(&g);
        assert_eq!(pd.pseudo_exits(), &[spin]);
        assert!(pd.in_domain(spin));
        assert!(pd.is_root(spin));
        // The entry reaches both the spin region and the real exit, so
        // nothing below the virtual exit post-dominates it.
        assert_eq!(pd.ipdom(g.entry()), None);
        assert!(!pd.post_dominates(done, g.entry()));
        assert!(!pd.post_dominates(spin, g.entry()));
    }

    #[test]
    fn unreachable_blocks_are_outside() {
        let (mut g, _, _, _) = diamond();
        let orphan = g.add_block();
        let pd = PostDomTree::compute(&g);
        assert!(!pd.in_domain(orphan));
        assert!(!pd.post_dominates(orphan, g.entry()));
        assert!(!pd.post_dominates(g.entry(), orphan));
        assert_eq!(pd.ipdom(orphan), None);
        assert!(!pd.is_root(orphan));
    }
}
