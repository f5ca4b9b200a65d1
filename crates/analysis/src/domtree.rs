//! Dominator tree construction and queries.
//!
//! Two types, split by what their readers depend on:
//!
//! - [`Dominators`] is the dominance *relation* — `idom`, O(1)
//!   [`dominates`](Dominators::dominates) from a pre-order numbering of
//!   the tree, reachability. It is a function of the CFG's edge set alone,
//!   which is why one tail duplication can be applied to it directly
//!   ([`Dominators::after_duplication`]) without looking at the rest of
//!   the graph. The guard of the DBDS phase reads only this.
//! - [`DomTree`] adds the *CFG order*: the reverse postorder and the
//!   dominator-tree children in that order. Traversals (the simulation
//!   walk of §4.1, GVN, canonicalization, loops, frequencies) read it, and
//!   their visiting order decides every `InstId` they create, so a
//!   `DomTree` is only ever built from scratch: the Cooper–Harvey–Kennedy
//!   iterative algorithm over a reverse postorder of the CFG.
//!
//! `DomTree` derefs to its `Dominators`.

use dbds_ir::{BlockId, Graph};
use std::sync::Arc;

/// Pre-order number of a block outside the tree.
const UNREACHABLE: u32 = u32::MAX;

/// The dominance relation over the blocks reachable from a root.
///
/// Flat arrays throughout: the tree's children in CSR form and a
/// pre-order numbering under which the subtree of `b` is the contiguous
/// slice [`Dominators::subtree`], so "`a` dominates `b`" is two integer
/// compares.
#[derive(Clone, Debug)]
pub struct Dominators {
    root: BlockId,
    /// Immediate dominator per block (`None` for the root and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// The children of `b` are `child_list[child_start[b]..child_start[b + 1]]`.
    child_start: Vec<u32>,
    child_list: Vec<BlockId>,
    /// Pre-order number per block ([`UNREACHABLE`] outside the tree).
    pre: Vec<u32>,
    /// One past the largest pre-order number in the block's subtree (0
    /// outside the tree, so the interval test fails there unaided).
    end: Vec<u32>,
    /// The reachable blocks by pre-order number: `order[pre[b]] == b`.
    order: Vec<BlockId>,
}

impl Dominators {
    /// The relation whose tree is given by `idom` (`None` for `root` and
    /// for every block outside the tree), with each block's children
    /// ordered by block index. `idom` must describe a tree rooted at
    /// `root`.
    pub fn from_idoms(root: BlockId, idom: Vec<Option<BlockId>>) -> Self {
        let blocks = (0..idom.len()).map(BlockId::from_index);
        Self::number(root, idom, blocks)
    }

    /// Builds the CSR children (each list in `fill` order) and the
    /// pre-order numbering from the `idom` array alone — no edge of the
    /// CFG is read. Shared by the from-scratch build, which passes a
    /// reverse postorder, and by the patch.
    pub(crate) fn number(
        root: BlockId,
        mut idom: Vec<Option<BlockId>>,
        fill: impl Iterator<Item = BlockId>,
    ) -> Self {
        let n = idom.len();
        idom[root.index()] = None;
        let mut child_start = vec![0u32; n + 1];
        for p in idom.iter().flatten() {
            child_start[p.index() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut cursor = child_start[..n].to_vec();
        let mut child_list = vec![root; child_start[n] as usize];
        for b in fill {
            if let Some(p) = idom[b.index()] {
                child_list[cursor[p.index()] as usize] = b;
                cursor[p.index()] += 1;
            }
        }

        // Depth-first numbering; the way back up is the idom array, so no
        // stack is kept.
        cursor.copy_from_slice(&child_start[..n]);
        let mut pre = vec![UNREACHABLE; n];
        let mut end = vec![0u32; n];
        let mut order = Vec::with_capacity(child_list.len() + 1);
        pre[root.index()] = 0;
        order.push(root);
        let mut cur = root;
        loop {
            let i = cur.index();
            if cursor[i] < child_start[i + 1] {
                cur = child_list[cursor[i] as usize];
                cursor[i] += 1;
                pre[cur.index()] = order.len() as u32;
                order.push(cur);
            } else {
                end[i] = order.len() as u32;
                match idom[i] {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }

        Dominators {
            root,
            idom,
            child_start,
            child_list,
            pre,
            end,
            order,
        }
    }

    /// How many blocks the relation is defined over (reachable or not).
    pub fn block_count(&self) -> usize {
        self.idom.len()
    }

    /// The immediate dominator of `b` (`None` for the entry block or an
    /// unreachable block).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Does `a` dominate `b` (reflexively)? O(1). Unreachable blocks
    /// neither dominate nor are dominated.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let pb = self.pre[b.index()];
        self.pre[a.index()] <= pb && pb < self.end[a.index()]
    }

    /// Does `a` strictly dominate `b`?
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Is `b` reachable from the entry block?
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.index()] != UNREACHABLE
    }

    /// The blocks `b` dominates, `b` first, in pre-order of the tree
    /// (empty when `b` is unreachable).
    pub fn subtree(&self, b: BlockId) -> &[BlockId] {
        if !self.is_reachable(b) {
            return &[];
        }
        &self.order[self.pre[b.index()] as usize..self.end[b.index()] as usize]
    }

    /// Every block on which `self` and `other` are not the same relation
    /// — the idom or the reachability differs, or only one of them covers
    /// the block — with the idom each has for it.
    pub fn divergences<'a>(
        &'a self,
        other: &'a Dominators,
    ) -> impl Iterator<Item = (BlockId, Option<BlockId>, Option<BlockId>)> + 'a {
        let view = |d: &Dominators, i: usize| {
            let idom = d.idom.get(i).copied().flatten();
            (idom, d.pre.get(i).is_some_and(|&p| p != UNREACHABLE))
        };
        (0..self.idom.len().max(other.idom.len())).filter_map(move |i| {
            let (mine, theirs) = (view(self, i), view(other, i));
            let covered = i < self.idom.len().min(other.idom.len());
            (mine != theirs || !covered).then(|| (BlockId::from_index(i), mine.0, theirs.0))
        })
    }

    /// The children of `b` in the dominator tree, in the order the
    /// relation was numbered with.
    pub(crate) fn children(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// The nearest common ancestor of two reachable blocks.
    fn nca(&self, mut a: BlockId, mut b: BlockId) -> BlockId {
        // A block with the larger pre-order number is no ancestor of the
        // other, so it is the one that moves up.
        while a != b {
            if self.pre[a.index()] > self.pre[b.index()] {
                a = self.idom[a.index()].expect("a non-root block of the tree has an idom");
            } else {
                b = self.idom[b.index()].expect("a non-root block of the tree has an idom");
            }
        }
        a
    }

    /// The relation of `g`, given that `self` was the relation of `g`
    /// immediately before one tail duplication: the fresh block `copy`
    /// took over the edge `pred → merge` and branches to `merge`'s
    /// successors. Exact, and O(|preds(merge)| + |children(merge)| + the
    /// idom-chain walks of one nearest-common-ancestor query) plus the
    /// renumbering, which reads only the patched `idom` array: of the
    /// graph, only the predecessor and successor lists of `merge` and
    /// `copy` are read.
    ///
    /// What one duplication moves (DESIGN.md §6 has the argument):
    /// `idom(copy) = pred`. If `merge` dominated `pred` — a back-edge
    /// predecessor — nothing else does. Otherwise `merge` stops dominating
    /// anything but itself, because `copy` reaches the same successors
    /// without it. Let `R` be the remaining predecessors of `merge`
    /// (itself excepted). If every one of them is `copy` or was dominated
    /// by `merge`, the duplicated edge was the only way in: `merge`'s
    /// children re-parent to `copy`, and so does `merge`, at the nearest
    /// common ancestor of `R`. If not, the children re-parent to `merge`'s
    /// old idom and `merge` to the nearest common ancestor of `R` above
    /// it. No other block's idom changes.
    ///
    /// Returns `None` — rebuild from scratch — when the difference between
    /// `self` and `g` is not of that shape: `copy` is not the one block
    /// `g` has more, `merge` is the entry, `pred` still precedes `merge`,
    /// `preds(copy) != [pred]`, `succs(copy) != succs(merge)`, `pred`,
    /// `merge` or a remaining predecessor was unreachable, or `merge` has
    /// no predecessor left.
    pub fn after_duplication(
        &self,
        g: &Graph,
        pred: BlockId,
        merge: BlockId,
        copy: BlockId,
    ) -> Option<Dominators> {
        let n = self.idom.len();
        if g.block_count() != n + 1
            || copy.index() != n
            || pred.index() >= n
            || merge.index() >= n
            || merge == self.root
            || !self.is_reachable(pred)
            || !self.is_reachable(merge)
            || g.preds(copy) != [pred]
            || *g.succs(copy) != *g.succs(merge)
        {
            return None;
        }
        let remaining = || g.preds(merge).iter().copied().filter(|&q| q != merge);
        if remaining().next().is_none()
            || remaining().any(|q| q == pred || (q != copy && !self.is_reachable(q)))
        {
            return None;
        }

        let mut idom = Vec::with_capacity(n + 1);
        idom.extend_from_slice(&self.idom);
        idom.push(Some(pred));
        if !self.dominates(merge, pred) {
            let old_idom = self.idom[merge.index()].expect("a reachable non-root block");
            let sole_entry = remaining().all(|q| q == copy || self.dominates(merge, q));
            // Nearest common ancestors are taken in the old tree: on the
            // blocks each case maps `R` to, it and the new tree agree.
            let (children_to, merge_to) = if sole_entry {
                // `merge` hangs at `copy` when `copy` is one of `R` or
                // `R` spans several of `merge`'s old children, else
                // inside the one child subtree `R` lies in.
                let below = if remaining().any(|q| q == copy) {
                    copy
                } else {
                    let a = remaining()
                        .reduce(|a, q| self.nca(a, q))
                        .expect("merge has a predecessor left");
                    if a == merge {
                        copy
                    } else {
                        a
                    }
                };
                (copy, below)
            } else {
                let above = remaining()
                    .map(|q| match q {
                        q if q == copy => pred,
                        q if self.dominates(merge, q) => old_idom,
                        q => q,
                    })
                    .reduce(|a, q| self.nca(a, q))
                    .expect("merge has a predecessor left");
                (old_idom, above)
            };
            for &c in self.children(merge) {
                idom[c.index()] = Some(children_to);
            }
            idom[merge.index()] = Some(merge_to);
        }
        Some(Dominators::from_idoms(self.root, idom))
    }
}

/// A dominator tree over the reachable blocks of a [`Graph`]: the
/// [`Dominators`] relation (which it derefs to) plus the reverse
/// postorder of the CFG it was solved over. Always built from scratch.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Numbered with the children in reverse postorder.
    relation: Arc<Dominators>,
    /// Reverse postorder of the reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_index: Vec<usize>,
}

impl std::ops::Deref for DomTree {
    type Target = Dominators;

    fn deref(&self) -> &Dominators {
        &self.relation
    }
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
        let idom = solve(&rpo, &rpo_index, |b| g.preds(b).iter().copied());
        let relation = Arc::new(Dominators::number(g.entry(), idom, rpo.iter().copied()));
        DomTree {
            relation,
            rpo,
            rpo_index,
        }
    }

    /// The dominance relation on its own, shareable with readers that do
    /// not need the CFG order.
    pub fn relation(&self) -> &Arc<Dominators> {
        &self.relation
    }

    /// The children of `b` in the dominator tree, ordered by reverse
    /// postorder of the CFG.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.relation.children(b)
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
    pub fn preorder(&self) -> &[BlockId] {
        &self.relation.order
    }
}

/// The one Cooper–Harvey–Kennedy solver of this crate: the immediate
/// dominators (`None` for the root and for nodes outside `order`) of
/// whatever graph `preds` describes, rooted at `order[0]`. `order` is a
/// reverse postorder of the nodes reachable from the root and
/// `order_index` its inverse (its length is the node count). The
/// dominator tree passes the CFG's predecessor lists; the post-dominator
/// tree passes the successor lists plus a virtual exit node.
pub(crate) fn solve<I>(
    order: &[BlockId],
    order_index: &[usize],
    preds: impl Fn(BlockId) -> I,
) -> Vec<Option<BlockId>>
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
    idom
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
    let mut stack = vec![(g.entry(), g.succs(g.entry()), 0)];
    visited[g.entry().index()] = true;
    while let Some(&mut (b, succs, ref mut child)) = stack.last_mut() {
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
        for &b in pre {
            if let Some(p) = dt.idom(b) {
                assert!(pos(p) < pos(b));
            }
        }
    }
}
