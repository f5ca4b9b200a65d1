//! Dirt: what a pass changed that a later pass run could react to.
//!
//! The optimizer's fixpoint driver runs every pass over the whole graph
//! once, then runs a pass again only on what changed after that pass last
//! ran. Each pass reports its changes here as it makes them, sorted by
//! the pass that could react:
//!
//! - blocks for [`canonicalize`](super::canonicalize) and GVN, which
//!   revisit the dominator subtrees rooted at them;
//! - blocks for `simplify_cfg`, which looks only at them;
//! - allocations whose users changed, for scalar replacement;
//! - values whose use counts dropped, for dead-code elimination;
//! - cut edges, after which the dominator tree may have moved and a
//!   block may be entered otherwise than the last walk entered it.
//!
//! A consumer takes its share when it runs, so what it sees is exactly
//! the dirt made since its last run — including its own, where its walk
//! had already passed the block a change reaches. DESIGN.md §15 has the
//! rules and why the changes left out of them are invisible.

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
    /// `merged_into[s] == Some(b)`: straight-line block `s` was merged
    /// into its predecessor `b`.
    merged_into: Vec<Option<BlockId>>,
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
        let i = from.index();
        if i >= self.merged_into.len() {
            self.merged_into.resize(i + 1, None);
        }
        self.merged_into[i] = Some(into);
    }

    /// The block `b`'s instructions live in now, following merges.
    fn forward(&self, mut b: BlockId) -> BlockId {
        while let Some(&Some(into)) = self.merged_into.get(b.index()) {
            b = into;
        }
        b
    }

    /// The blocks a walk over `now` would enter otherwise than the last
    /// walk did (`entered`, its parents followed through merges) or that
    /// no walk entered; and the blocks holding a merged block that the
    /// last walk did not enter as the straight-line successor of the
    /// block it went into. Their dominating facts or value-numbering
    /// scope changed.
    pub(crate) fn stale(
        &self,
        entered: &[Option<Entry>],
        g: &Graph,
        now: &DomTree,
    ) -> Vec<BlockId> {
        let was = |b: BlockId| {
            let e = entered.get(b.index()).copied().flatten()?;
            Some(Entry {
                parent: e.parent.map(|p| self.forward(p)),
                ..e
            })
        };
        let mut stale: Vec<BlockId> = now
            .preorder()
            .iter()
            .copied()
            .filter(|&b| was(b) != Some(Entry::of(g, now.idom(b), b)))
            .collect();
        // A merged block's instructions sit at the end of the block it
        // went into, reached from it as from an only predecessor.
        for i in 0..entered.len() {
            let b = BlockId::from_index(i);
            let into = self.forward(b);
            let straight = Entry {
                parent: Some(into),
                single: true,
            };
            if into != b && was(b).is_some_and(|e| e != straight) {
                stale.push(into);
            }
        }
        stale
    }
}

/// How a walk entered a block: from `parent`, its immediate dominator,
/// and whether that was its only predecessor — what the canonicalizer's
/// entry rule (`FactEnv::enter_child`) reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Entry {
    parent: Option<BlockId>,
    single: bool,
}

impl Entry {
    /// How a walk enters `b` from `parent` now.
    fn of(g: &Graph, parent: Option<BlockId>, b: BlockId) -> Self {
        Entry {
            parent,
            single: parent.is_some_and(|p| g.preds(b) == [p]),
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

/// Which blocks one walk of the dominator tree processes: every block
/// ([`Sweep::all`]), or the subtrees rooted at the dirty blocks, a set
/// that grows while the walk runs ([`Sweep::touch`]). It also records
/// how the walk entered each block it visited, on top of the record of
/// the walks before.
#[derive(Debug)]
pub(crate) struct Sweep {
    all: bool,
    dirty: Vec<bool>,
    passed: Vec<bool>,
    entered: Vec<Option<Entry>>,
}

impl Sweep {
    /// A walk that processes every block of `g`.
    pub(crate) fn all(g: &Graph) -> Self {
        Sweep {
            all: true,
            dirty: Vec::new(),
            passed: vec![false; g.block_count()],
            entered: vec![None; g.block_count()],
        }
    }

    /// A walk that processes the subtrees rooted at `dirty`, adding to
    /// `entered`, the record of the walks before.
    pub(crate) fn of(
        g: &Graph,
        dirty: impl IntoIterator<Item = BlockId>,
        mut entered: Vec<Option<Entry>>,
    ) -> Self {
        let mut marks = vec![false; g.block_count()];
        for b in dirty {
            marks[b.index()] = true;
        }
        entered.resize(g.block_count(), None);
        Sweep {
            all: false,
            dirty: marks,
            passed: vec![false; g.block_count()],
            entered,
        }
    }

    /// How the walks so far entered each block.
    pub(crate) fn into_entered(self) -> Vec<Option<Entry>> {
        self.entered
    }

    /// Makes the walk process `b`'s subtree when it gets there. Returns
    /// `false` when the walk has already passed `b`: the change must
    /// wait for the next run.
    pub(crate) fn touch(&mut self, b: BlockId) -> bool {
        if self.passed[b.index()] {
            return false;
        }
        if !self.all {
            self.dirty[b.index()] = true;
        }
        true
    }
}

/// A pass that walks the dominator tree carrying scoped state.
pub(crate) trait TreeVisitor {
    /// A point to roll the state back to.
    type Mark: Copy;
    /// The current point.
    fn mark(&self) -> Self::Mark;
    /// Restores the state held at `mark`.
    fn rollback(&mut self, mark: Self::Mark);
    /// Steps from `parent` into `b` and handles its instructions:
    /// rewriting them, or, when `replay`, only taking in the facts an
    /// unchanged ancestor of a dirty block contributes.
    fn visit(
        &mut self,
        g: &mut Graph,
        parent: Option<BlockId>,
        b: BlockId,
        replay: bool,
        sweep: &mut Sweep,
    );
}

/// A block on the walk's path.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnPath {
    No,
    Replayed,
    Processed,
}

/// Walks `dt` in preorder, processing the blocks `sweep` selects: a
/// block is processed when it is dirty or its parent was processed. The
/// path from the entry to the block in hand is a stack of `(block, mark)`
/// frames; an ancestor of a processed block that was not processed itself
/// is replayed onto the path just before, so every processed block sees
/// exactly the state a walk over the whole tree would give it. No
/// recursion, so the depth of the tree does not touch the thread's stack.
/// Returns the instructions of the processed and replayed blocks.
pub(crate) fn walk_tree<V: TreeVisitor>(
    g: &mut Graph,
    dt: &DomTree,
    sweep: &mut Sweep,
    v: &mut V,
) -> u64 {
    let mut on_path = vec![OnPath::No; dt.block_count()];
    let mut path: Vec<(BlockId, V::Mark)> = Vec::new();
    let mut missing: Vec<BlockId> = Vec::new();
    let mut visited = 0;
    for &b in dt.preorder() {
        sweep.passed[b.index()] = true;
        let parent = dt.idom(b);
        let inherited = parent.is_some_and(|p| on_path[p.index()] == OnPath::Processed);
        if !(sweep.all || sweep.dirty[b.index()] || inherited) {
            continue;
        }
        // The nearest ancestor already on the path, and those below it.
        missing.clear();
        let mut anchor = parent;
        while let Some(a) = anchor {
            if on_path[a.index()] != OnPath::No {
                break;
            }
            missing.push(a);
            anchor = dt.idom(a);
        }
        while let Some(&(top, mark)) = path.last() {
            if Some(top) == anchor {
                break;
            }
            v.rollback(mark);
            on_path[top.index()] = OnPath::No;
            path.pop();
        }
        for &a in missing.iter().rev() {
            visited += g.block_insts(a).len() as u64;
            path.push((a, v.mark()));
            on_path[a.index()] = OnPath::Replayed;
            sweep.entered[a.index()] = Some(Entry::of(g, dt.idom(a), a));
            v.visit(g, dt.idom(a), a, true, sweep);
        }
        visited += g.block_insts(b).len() as u64;
        path.push((b, v.mark()));
        on_path[b.index()] = OnPath::Processed;
        sweep.entered[b.index()] = Some(Entry::of(g, parent, b));
        v.visit(g, parent, b, false, sweep);
    }
    visited
}
