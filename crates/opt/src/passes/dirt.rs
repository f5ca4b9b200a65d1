//! Dirt: what a pass changed that a later pass run could react to.
//!
//! The optimizer's fixpoint driver runs every pass over the whole graph
//! once; a later round runs a pass again, over the whole graph, only when
//! it has dirt — changes made after that pass last ran that it could
//! react to. Each pass reports its changes here as it makes them, sorted
//! by the pass that could react:
//!
//! - blocks for [`canonicalize`](super::canonicalize) and GVN;
//! - blocks for `simplify_cfg`;
//! - allocations whose users changed, for scalar replacement;
//! - values whose use counts dropped, for dead-code elimination;
//! - cut edges, after which the dominator tree may have moved and a
//!   block may be entered otherwise than the last walk entered it.
//!
//! A consumer takes its share when it runs, so what it sees is exactly
//! the dirt made since its last run — including its own, where its walk
//! had already passed the block a change reaches. A pass with no dirt
//! would change nothing. DESIGN.md §15 has the rules and why the changes
//! left out of them are invisible.

use dbds_analysis::DomTree;
use dbds_ir::{BlockId, Graph, Inst, InstId, Use};

/// A set of blocks, iterated in insertion order.
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockSet {
    member: Vec<bool>,
    list: Vec<BlockId>,
}

impl BlockSet {
    /// Adds `b`.
    pub(crate) fn insert(&mut self, b: BlockId) {
        let i = b.index();
        if i >= self.member.len() {
            self.member.resize(i + 1, false);
        }
        if !self.member[i] {
            self.member[i] = true;
            self.list.push(b);
        }
    }

    /// Is `b` a member?
    pub(crate) fn contains(&self, b: BlockId) -> bool {
        self.member.get(b.index()).copied().unwrap_or(false)
    }

    /// Is the set empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The members, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.list.iter().copied()
    }

    /// Keeps only the members `keep` accepts.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(BlockId) -> bool) {
        let member = &mut self.member;
        self.list.retain(|&b| {
            let kept = keep(b);
            member[b.index()] = kept;
            kept
        });
    }
}

/// The dirt made since each consumer last ran.
#[derive(Debug, Default)]
pub(crate) struct Dirt {
    /// Blocks whose operands, φ inputs or entry facts changed, for
    /// canonicalize.
    pub(crate) canon: BlockSet,
    /// Blocks holding an instruction whose value-numbering key changed,
    /// or a new instruction, for GVN.
    pub(crate) gvn: BlockSet,
    /// Blocks that lost a predecessor or now end in a jump, for
    /// `simplify_cfg`.
    pub(crate) simplify: BlockSet,
    /// Allocations that lost a user or whose users' operands changed, for
    /// scalar replacement.
    pub(crate) allocs: Vec<InstId>,
    /// Values whose use count dropped, for dead-code elimination.
    pub(crate) dropped: Vec<InstId>,
    /// Branches folded so far: after a fold, a block's immediate
    /// dominator may have moved. (Cutting an unreachable block's edges
    /// moves none.)
    pub(crate) cuts: u64,
}

impl Dirt {
    /// Records the allocations among `values`.
    pub(crate) fn note_allocs(&mut self, g: &Graph, values: impl IntoIterator<Item = InstId>) {
        self.allocs.extend(
            values
                .into_iter()
                .filter(|&v| matches!(g.inst(v), Inst::New { .. })),
        );
    }

    /// Call before `g.replace_all_uses(old, new)`: `new` gains users, and
    /// every other operand of `old`'s users sits next to a new value (an
    /// identity test may fold now).
    pub(crate) fn replacing(&mut self, g: &Graph, old: InstId, new: InstId) {
        let allocs = &mut self.allocs;
        let mut note = |v: InstId| {
            if matches!(g.inst(v), Inst::New { .. }) {
                allocs.push(v);
            }
        };
        note(new);
        for user in g.uses(old) {
            match user {
                Use::Inst(i) => g.inst(i).for_each_input(&mut note),
                Use::Term(b) => g.terminator(b).for_each_input(&mut note),
            }
        }
    }

    /// Call before `g.remove_inst(id)`: each operand loses a use.
    pub(crate) fn removing(&mut self, g: &Graph, id: InstId) {
        let (dropped, allocs) = (&mut self.dropped, &mut self.allocs);
        g.inst(id).for_each_input(|v| {
            dropped.push(v);
            if matches!(g.inst(v), Inst::New { .. }) {
                allocs.push(v);
            }
        });
    }

    /// Call before cutting the edge `from → to`: the φ inputs the edge
    /// carried lose a use, and `to` loses a predecessor.
    pub(crate) fn cutting(&mut self, g: &Graph, from: BlockId, to: BlockId) {
        let at = g.pred_index(to, from);
        for &phi in g.phis(to) {
            if let Inst::Phi { inputs } = g.inst(phi) {
                self.dropped.push(inputs[at]);
                self.note_allocs(g, [inputs[at]]);
            }
        }
        self.simplify.insert(to);
    }

    /// Records that straight-line block `from` was merged into `into`.
    /// Dirt that names `from` now names `into`, which holds its
    /// instructions; `from` is left empty and unreachable.
    pub(crate) fn merged(&mut self, from: BlockId, into: BlockId) {
        for set in [&mut self.canon, &mut self.gvn, &mut self.simplify] {
            if set.contains(from) {
                set.insert(into);
            }
        }
    }
}

/// The blocks holding a user of `v` (a block once per use).
pub(crate) fn user_blocks(g: &Graph, v: InstId) -> impl Iterator<Item = BlockId> + '_ {
    g.uses(v).filter_map(|user| match user {
        Use::Inst(i) => g.block_of(i),
        Use::Term(b) => Some(b),
    })
}

/// A pass that walks the dominator tree carrying scoped state.
pub(crate) trait TreeVisitor {
    /// A point to roll the state back to.
    type Mark: Copy;
    /// The current point.
    fn mark(&self) -> Self::Mark;
    /// Restores the state held at `mark`.
    fn rollback(&mut self, mark: Self::Mark);
    /// Steps from `parent` into `b` and handles its instructions.
    fn visit(&mut self, g: &mut Graph, parent: Option<BlockId>, b: BlockId);
}

/// Walks `dt` in preorder, visiting every block. The path from the entry
/// to the block in hand is a stack of `(block, mark)` frames; leaving a
/// block rolls the state back to its mark. No recursion, so the depth of
/// the tree does not touch the thread's stack. Returns the instructions
/// of the visited blocks.
pub(crate) fn walk_tree<V: TreeVisitor>(g: &mut Graph, dt: &DomTree, v: &mut V) -> u64 {
    let mut path: Vec<(BlockId, V::Mark)> = Vec::new();
    let mut visited = 0;
    for &b in dt.preorder() {
        let parent = dt.idom(b);
        while let Some(&(top, mark)) = path.last() {
            if Some(top) == parent {
                break;
            }
            v.rollback(mark);
            path.pop();
        }
        visited += g.block_insts(b).len() as u64;
        path.push((b, v.mark()));
        v.visit(g, parent, b);
    }
    visited
}
