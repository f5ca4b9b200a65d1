//! Dominator tree construction and queries.
//!
//! Two types, split by what their readers depend on:
//!
//! - [`Dominators`] is the dominance *relation* — `idom`, O(1)
//!   [`dominates`](Dominators::dominates) by containment of gap-spaced
//!   label intervals, reachability. It is a function of the CFG's edge
//!   set alone, which is why one tail duplication can be applied to it in
//!   place ([`Dominators::after_duplication`]) without looking at the
//!   rest of the graph. The guard of the DBDS phase reads only this.
//! - [`DomTree`] adds the *CFG order*: the reverse postorder, the
//!   dominator-tree children in that order, the tree's preorder and the
//!   [`subtree`](DomTree::subtree) slices it gives. Traversals (the
//!   simulation walk of §4.1, GVN, canonicalization, loops, frequencies)
//!   read it, and their visiting order decides every `InstId` they
//!   create, so a `DomTree` is only ever built from scratch: the
//!   Cooper–Harvey–Kennedy iterative algorithm over a reverse postorder
//!   of the CFG.
//!
//! `DomTree` derefs to its `Dominators`.

use dbds_ir::{BlockId, Graph};
use std::sync::Arc;

/// No block: the end of a sibling list, or a childless block's first
/// child.
const NONE: u32 = u32::MAX;

/// The label range of a relation built from scratch: its root's interval
/// spans it, and the other blocks' labels are spread over it evenly, so
/// every gap starts about `LABEL_SPAN / (2 × blocks)` wide.
const LABEL_SPAN: u64 = 1 << 62;

/// `pre` of a block outside the tree (its `end` is 0, so the interval
/// test fails there unaided).
const UNREACHABLE: u64 = u64::MAX;

/// A relabelled range must leave gaps of at least `2^(this + levels)`
/// labels, `levels` counting the ancestors climbed to find it: the wider
/// the range, the emptier it must be, so that a range is relabelled again
/// only after many insertions (the Dietz–Sleator density rule).
const RELABEL_GAP_LOG2: u32 = 4;

/// The dominance relation over the blocks reachable from a root.
///
/// The tree is kept as sibling lists (each block's first child, next and
/// previous sibling) and as gap-spaced `u64` labels: the subtree of `b`
/// is exactly the set of blocks whose `pre` label lies in the half-open
/// interval `[pre[b], end[b])`, so "`a` dominates `b`" is two integer
/// compares. The intervals are laminar — a child's lies strictly inside
/// its parent's, siblings' are disjoint, and each child list runs in
/// label order — and spaced apart, so a duplication that adds a leaf
/// finds room for it in the gap in front of its parent's first child and
/// writes only the labels of the blocks it moves (DESIGN.md §6).
#[derive(Clone, Debug)]
pub struct Dominators {
    root: BlockId,
    /// Immediate dominator per block (`None` for the root and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// First child per block ([`NONE`] for a leaf or outside the tree):
    /// the child with the smallest labels.
    first: Vec<u32>,
    /// Next and previous sibling per block, in label order ([`NONE`] at
    /// either end).
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Interval start per block ([`UNREACHABLE`] outside the tree).
    pre: Vec<u64>,
    /// Interval end per block (0 outside the tree).
    end: Vec<u64>,
}

fn block(link: u32) -> BlockId {
    BlockId::from_index(link as usize)
}

fn link(b: BlockId) -> u32 {
    b.index() as u32
}

impl Dominators {
    /// The relation whose tree is given by `idom` (`None` for `root` and
    /// for every block outside the tree). `idom` must describe a tree
    /// rooted at `root`.
    pub fn from_idoms(root: BlockId, mut idom: Vec<Option<BlockId>>) -> Self {
        idom[root.index()] = None;
        let blocks = (0..idom.len()).map(BlockId::from_index);
        let tree = Tree::number(root, &idom, blocks);
        Self::label(root, idom, &tree)
    }

    /// The relation of the tree `idom` describes, `tree` its from-scratch
    /// numbering. Reads no edge of the CFG. A block numbered `p` in
    /// preorder whose subtree ends before number `e` gets the interval
    /// `[2p, 2e - 1)` times the gap `LABEL_SPAN / (2 × reachable blocks)`:
    /// a child's starts after its parent's and ends no later, siblings'
    /// are disjoint, and every gap is at least one gap wide.
    fn label(root: BlockId, idom: Vec<Option<BlockId>>, tree: &Tree) -> Self {
        let n = idom.len();
        let mut first = vec![NONE; n];
        let mut next = vec![NONE; n];
        let mut prev = vec![NONE; n];
        for (i, head) in first.iter_mut().enumerate() {
            let kids = tree.children(BlockId::from_index(i));
            if let Some(&f) = kids.first() {
                *head = link(f);
            }
            for pair in kids.windows(2) {
                next[pair[0].index()] = link(pair[1]);
                prev[pair[1].index()] = link(pair[0]);
            }
        }
        let gap = LABEL_SPAN / (2 * tree.order.len() as u64);
        let mut pre = vec![UNREACHABLE; n];
        let mut end = vec![0u64; n];
        for &b in &tree.order {
            let i = b.index();
            pre[i] = 2 * u64::from(tree.pre[i]) * gap;
            end[i] = (2 * u64::from(tree.end[i]) - 1) * gap;
        }
        Dominators {
            root,
            idom,
            first,
            next,
            prev,
            pre,
            end,
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

    /// The nearest common ancestor of two reachable blocks.
    fn nca(&self, mut a: BlockId, mut b: BlockId) -> BlockId {
        // A block with the larger label is no ancestor of the other, so
        // it is the one that moves up.
        while a != b {
            if self.pre[a.index()] > self.pre[b.index()] {
                a = self.idom[a.index()].expect("a non-root block of the tree has an idom");
            } else {
                b = self.idom[b.index()].expect("a non-root block of the tree has an idom");
            }
        }
        a
    }

    /// How many blocks the subtree of `top` holds.
    fn subtree_size(&self, top: BlockId) -> u64 {
        let mut size = 1;
        let mut cur = self.first[top.index()];
        while cur != NONE {
            size += 1;
            let mut b = block(cur);
            cur = self.first[b.index()];
            // Past a leaf: the next sibling of it or of its nearest
            // ancestor below `top` that has one.
            while cur == NONE && b != top {
                cur = self.next[b.index()];
                b = self.idom[b.index()].expect("a walked block is below the top");
            }
        }
        size
    }

    /// The relation of `g`, given that `self` was the relation of `g`
    /// immediately before one tail duplication: the fresh block `copy`
    /// took over the edge `pred → merge` and branches to `merge`'s
    /// successors. `self` becomes that relation in place. Exact, and
    /// O(|preds(merge)| + |children(merge)| + the idom-chain walks of one
    /// nearest-common-ancestor query), plus a relabelling when a label
    /// gap runs out; of the graph, only the predecessor and successor
    /// lists of `merge` and `copy` are read.
    ///
    /// What one duplication moves (DESIGN.md §6 has the argument):
    /// `idom(copy) = pred`. If `merge` dominated `pred` — a back-edge
    /// predecessor — nothing else does. Otherwise `merge` stops dominating
    /// anything but itself, because `copy` reaches the same successors
    /// without it. Let `R` be the remaining predecessors of `merge`
    /// (itself excepted). If every one of them is `copy` or was dominated
    /// by `merge`, the duplicated edge was the only way in: `copy` takes
    /// `merge`'s place (its parent, children and labels), and `merge`
    /// re-hangs as a leaf at the nearest common ancestor of `R`. If not,
    /// the children re-parent to `merge`'s old idom, keeping their labels,
    /// and `merge` re-hangs as a leaf at the nearest common ancestor of
    /// `R` above it. No other block's idom changes.
    ///
    /// Returns how many blocks' labels the patch wrote, or `None` —
    /// leaving `self` as it was, to be rebuilt from scratch — when the
    /// difference between `self` and `g` is not of that shape: `copy` is
    /// not the one block `g` has more, `merge` is the entry, `pred` still
    /// precedes `merge`, `preds(copy) != [pred]`, `succs(copy) !=
    /// succs(merge)`, `pred`, `merge` or a remaining predecessor was
    /// unreachable, or `merge` has no predecessor left.
    pub fn after_duplication(
        &mut self,
        g: &Graph,
        pred: BlockId,
        merge: BlockId,
        copy: BlockId,
    ) -> Option<usize> {
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

        // Decided on the old tree, before anything is written.
        let case = if self.dominates(merge, pred) {
            Case::BackEdge
        } else {
            let old_idom = self.idom[merge.index()].expect("a reachable non-root block");
            let sole_entry = remaining().all(|q| q == copy || self.dominates(merge, q));
            // Nearest common ancestors are taken in the old tree: on the
            // blocks each case maps `R` to, it and the new tree agree.
            if sole_entry {
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
                debug_assert_eq!(old_idom, pred, "a sole entry is the merge's idom");
                Case::SoleEntry { below }
            } else {
                let above = remaining()
                    .map(|q| match q {
                        q if q == copy => pred,
                        q if self.dominates(merge, q) => old_idom,
                        q => q,
                    })
                    .reduce(|a, q| self.nca(a, q))
                    .expect("merge has a predecessor left");
                Case::Shared { old_idom, above }
            }
        };

        let mut edit = Edit {
            rel: self,
            labels: 0,
        };
        edit.grow();
        match case {
            Case::BackEdge => {
                edit.link_first(copy, pred);
                edit.label_leaf(copy);
            }
            Case::SoleEntry { below } => {
                // `copy` takes `merge`'s place: its parent's child list,
                // its children and its interval, which holds theirs.
                let rel = &mut *edit.rel;
                let (m, c) = (merge.index(), copy.index());
                let (prev, next, kids) = (rel.prev[m], rel.next[m], rel.first[m]);
                (rel.prev[c], rel.next[c], rel.first[c]) = (prev, next, kids);
                match prev {
                    NONE => rel.first[pred.index()] = link(copy),
                    p => rel.next[p as usize] = link(copy),
                }
                if next != NONE {
                    rel.prev[next as usize] = link(copy);
                }
                rel.idom[c] = Some(pred);
                rel.first[m] = NONE;
                let mut k = kids;
                while k != NONE {
                    rel.idom[k as usize] = Some(copy);
                    k = rel.next[k as usize];
                }
                let (pre, end) = (rel.pre[m], rel.end[m]);
                edit.set_label(copy, pre, end);
                edit.link_first(merge, below);
                edit.label_leaf(merge);
            }
            Case::Shared { old_idom, above } => {
                // The children take `merge`'s place in `old_idom`'s child
                // list, in their order, keeping their labels: their
                // intervals lie inside `merge`'s old one.
                let rel = &mut *edit.rel;
                let m = merge.index();
                let (prev, next, kids) = (rel.prev[m], rel.next[m], rel.first[m]);
                let (mut first, mut last) = (next, prev);
                let mut k = kids;
                while k != NONE {
                    rel.idom[k as usize] = Some(old_idom);
                    (first, last) = (kids, k);
                    k = rel.next[k as usize];
                }
                // `first..=last` replaces `merge` between `prev` and
                // `next` (with no children, `prev` and `next` close up).
                rel.first[m] = NONE;
                if kids != NONE {
                    rel.prev[kids as usize] = prev;
                    rel.next[last as usize] = next;
                }
                match prev {
                    NONE => rel.first[old_idom.index()] = first,
                    p => rel.next[p as usize] = first,
                }
                if next != NONE {
                    rel.prev[next as usize] = last;
                }
                edit.link_first(copy, pred);
                edit.label_leaf(copy);
                edit.link_first(merge, above);
                edit.label_leaf(merge);
            }
        }
        Some(edit.labels)
    }
}

/// How a duplication moves the tree, decided before the patch writes.
enum Case {
    /// `merge` dominated `pred`: `copy` is a new leaf, nothing else moves.
    BackEdge,
    /// The duplicated edge was the only way into `merge`: `copy` takes
    /// its place, `merge` becomes a leaf under `below`.
    SoleEntry { below: BlockId },
    /// `merge` keeps another entry: its children move up to `old_idom`,
    /// `copy` becomes a leaf under `pred` and `merge` one under `above`.
    Shared { old_idom: BlockId, above: BlockId },
}

/// A patch in progress: the relation and how many blocks' labels it has
/// written.
struct Edit<'a> {
    rel: &'a mut Dominators,
    labels: usize,
}

impl Edit<'_> {
    /// Appends the copy, outside the tree for now.
    fn grow(&mut self) {
        let rel = &mut *self.rel;
        rel.idom.push(None);
        rel.first.push(NONE);
        rel.next.push(NONE);
        rel.prev.push(NONE);
        rel.pre.push(UNREACHABLE);
        rel.end.push(0);
    }

    fn set_label(&mut self, b: BlockId, pre: u64, end: u64) {
        (self.rel.pre[b.index()], self.rel.end[b.index()]) = (pre, end);
        self.labels += 1;
    }

    /// Makes `x`, in no child list, the first child of `parent`.
    fn link_first(&mut self, x: BlockId, parent: BlockId) {
        let rel = &mut *self.rel;
        let head = rel.first[parent.index()];
        (rel.next[x.index()], rel.prev[x.index()]) = (head, NONE);
        if head != NONE {
            rel.prev[head as usize] = link(x);
        }
        rel.first[parent.index()] = link(x);
        rel.idom[x.index()] = Some(parent);
    }

    /// Labels `x`, a leaf just made its parent's first child: the back
    /// half of the gap between the parent's start and the next sibling's
    /// (or the parent's end). When that gap has no room left, relabels
    /// the smallest enclosing subtree sparse enough instead.
    fn label_leaf(&mut self, x: BlockId) {
        let rel = &*self.rel;
        let parent = rel.idom[x.index()].expect("a linked leaf has a parent");
        let lo = rel.pre[parent.index()];
        let hi = match rel.next[x.index()] {
            NONE => rel.end[parent.index()],
            s => rel.pre[s as usize],
        };
        if hi - lo >= 2 {
            self.set_label(x, lo + (hi - lo) / 2, hi);
        } else {
            self.relabel_around(parent);
        }
    }

    /// Climbs from `from` to the first ancestor whose interval spreads
    /// its subtree with gaps of at least `2^(RELABEL_GAP_LOG2 + levels
    /// climbed)` (the root always qualifies) and relabels that subtree
    /// evenly.
    fn relabel_around(&mut self, from: BlockId) {
        let rel = &*self.rel;
        let (mut top, mut size) = (from, rel.subtree_size(from));
        for level in 0.. {
            let gap = (rel.end[top.index()] - rel.pre[top.index()]) / (2 * size);
            let wanted = 1u64 << (RELABEL_GAP_LOG2 + level).min(62);
            let Some(up) = rel.idom[top.index()].filter(|_| gap < wanted) else {
                debug_assert!(gap >= 2, "the root's interval has room for every block");
                break;
            };
            let mut c = rel.first[up.index()];
            size += 1;
            while c != NONE {
                if block(c) != top {
                    size += rel.subtree_size(block(c));
                }
                c = rel.next[c as usize];
            }
            top = up;
        }
        self.relabel(top, size);
    }

    /// Spreads the Euler tour of `top`'s subtree evenly over `top`'s own
    /// interval, which stays put: one step per entry and exit.
    fn relabel(&mut self, top: BlockId, size: u64) {
        let (base, width) = (
            self.rel.pre[top.index()],
            self.rel.end[top.index()] - self.rel.pre[top.index()],
        );
        let step = width / (2 * size);
        let mut at = 0u64;
        let mut cur = self.rel.first[top.index()];
        while cur != NONE {
            let b = block(cur);
            at += 1;
            // The end is written on the way out.
            let end = self.rel.end[b.index()];
            self.set_label(b, base + at * step, end);
            if self.rel.first[b.index()] != NONE {
                cur = self.rel.first[b.index()];
                continue;
            }
            // Leave `b`, and every ancestor whose last child it closes.
            let rel = &mut *self.rel;
            let mut done = b;
            cur = loop {
                at += 1;
                rel.end[done.index()] = base + at * step;
                if rel.next[done.index()] != NONE {
                    break rel.next[done.index()];
                }
                done = rel.idom[done.index()].expect("a relabelled block is below the top");
                if done == top {
                    break NONE;
                }
            };
        }
    }
}

/// A tree numbered once, from scratch, with each block's children in a
/// given order: CSR children and a preorder numbering under which the
/// subtree of `b` is a contiguous slice of the preorder. What the
/// traversals of [`DomTree`] and the post-dominator tree read.
#[derive(Clone, Debug)]
pub(crate) struct Tree {
    /// The children of `b` are `child_list[child_start[b]..child_start[b + 1]]`.
    child_start: Vec<u32>,
    child_list: Vec<BlockId>,
    /// Preorder number per block (`u32::MAX` outside the tree).
    pre: Vec<u32>,
    /// One past the largest preorder number in the block's subtree (0
    /// outside the tree, so the interval test fails there unaided).
    end: Vec<u32>,
    /// The tree's blocks by preorder number: `order[pre[b]] == b`.
    order: Vec<BlockId>,
}

impl Tree {
    /// Builds the CSR children (each list in `fill` order) and the
    /// preorder numbering from the `idom` array alone (`None` for `root`
    /// and outside the tree) — no edge of the CFG is read.
    pub(crate) fn number(
        root: BlockId,
        idom: &[Option<BlockId>],
        fill: impl Iterator<Item = BlockId>,
    ) -> Self {
        let n = idom.len();
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
        let mut pre = vec![u32::MAX; n];
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

        Tree {
            child_start,
            child_list,
            pre,
            end,
            order,
        }
    }

    /// Is `a` an ancestor of `b` (reflexively)?
    pub(crate) fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let pb = self.pre[b.index()];
        self.pre[a.index()] <= pb && pb < self.end[a.index()]
    }

    /// Is `b` in the tree?
    pub(crate) fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.index()] != u32::MAX
    }

    /// The children of `b`, in the order the tree was numbered with.
    pub(crate) fn children(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// The blocks below `b`, `b` first, in preorder (empty outside the
    /// tree).
    fn subtree(&self, b: BlockId) -> &[BlockId] {
        if !self.is_reachable(b) {
            return &[];
        }
        &self.order[self.pre[b.index()] as usize..self.end[b.index()] as usize]
    }
}

/// A dominator tree over the reachable blocks of a [`Graph`]: the
/// [`Dominators`] relation (which it derefs to) plus the reverse
/// postorder of the CFG it was solved over and the tree numbered in it.
/// Always built from scratch.
#[derive(Clone, Debug)]
pub struct DomTree {
    relation: Arc<Dominators>,
    /// Numbered with the children in reverse postorder.
    tree: Tree,
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
        let tree = Tree::number(g.entry(), &idom, rpo.iter().copied());
        let relation = Arc::new(Dominators::label(g.entry(), idom, &tree));
        DomTree {
            relation,
            tree,
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
        self.tree.children(b)
    }

    /// The blocks `b` dominates, `b` first, in [`DomTree::preorder`]
    /// (empty when `b` is unreachable).
    pub fn subtree(&self, b: BlockId) -> &[BlockId] {
        self.tree.subtree(b)
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
        &self.tree.order
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
