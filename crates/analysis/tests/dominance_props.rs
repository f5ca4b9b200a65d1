//! Property tests: the Cooper–Harvey–Kennedy dominator tree agrees with
//! the *definition* of dominance — `a` dominates `b` iff every entry→`b`
//! path passes through `a`, i.e. removing `a` makes `b` unreachable —
//! and the reverse-CFG analyses agree with their definitions: the
//! post-dominator tree with path-to-exit cuts, and "a successor does not
//! post-dominate its branch" with the naive Ferrante–Ottenstein–Warren
//! control-dependence edge scan (the branch-split cross-check). The
//! post-dominator tree is also pinned, field for field, to what the
//! stand-alone solver it used to have produced. The dominance relation
//! patched across tail duplications ([`Dominators::after_duplication`])
//! is held to the from-scratch build after every step. The verifier's
//! own solver in `dbds_ir::lint` is held to the same definitions through
//! its `SsaDominance`, `NoExitPath` and `ControlDepViolation` verdicts.

use dbds_analysis::{DomTree, Dominators, PostDomTree};
use dbds_ir::{
    lint, BlockId, ClassTable, ConstValue, Fnv64, Graph, Inst, LintId, Terminator, Type,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random CFG over `n` blocks from a shape seed. Every block
/// gets a terminator chosen from jump/branch/return so the graph is
/// always well-formed (no φs are involved).
fn random_cfg(n: usize, choices: &[u8]) -> Graph {
    let mut g = Graph::new("rand", &[Type::Bool], Arc::new(ClassTable::new()));
    let cond = g.param_values()[0];
    let mut blocks = vec![g.entry()];
    for _ in 1..n {
        blocks.push(g.add_block());
    }
    for (i, &b) in blocks.iter().enumerate() {
        let c = choices.get(i).copied().unwrap_or(0);
        let t1 = blocks[(i + 1 + c as usize) % n];
        let t2 = blocks[(i + 2 + (c as usize) * 3) % n];
        let term = match c % 4 {
            0 | 1 if t1 != b || c % 4 == 0 => {
                // jumps (self-loops allowed)
                Terminator::Jump { target: t1 }
            }
            2 if t1 != t2 => Terminator::Branch {
                cond,
                then_bb: t1,
                else_bb: t2,
                prob_then: 0.5,
            },
            _ => Terminator::Return { value: None },
        };
        g.set_terminator(b, term);
    }
    g
}

/// Definition-based dominance: `b` unreachable when paths may not pass
/// through `a`.
fn dominates_by_definition(g: &Graph, a: BlockId, b: BlockId) -> bool {
    if a == b {
        return reachable(g, None).contains(&b);
    }
    let without_a = reachable(g, Some(a));
    let with_all = reachable(g, None);
    with_all.contains(&b) && !without_a.contains(&b)
}

fn reachable(g: &Graph, blocked: Option<BlockId>) -> Vec<BlockId> {
    let mut seen = vec![false; g.block_count()];
    let mut stack = Vec::new();
    if Some(g.entry()) != blocked {
        seen[g.entry().index()] = true;
        stack.push(g.entry());
    }
    let mut out = Vec::new();
    while let Some(b) = stack.pop() {
        out.push(b);
        for s in g.succs(b) {
            if Some(s) != blocked && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    out
}

/// Whether `b` can reach any block in `exits` on a path avoiding
/// `blocked`. The exit set is the implementation's own (real exits plus
/// the deterministically chosen pseudo-exits of infinite regions), so the
/// definition below quantifies over exactly the paths the virtual exit
/// sees.
fn reaches_exit_avoiding(
    g: &Graph,
    from: BlockId,
    exits: &[BlockId],
    blocked: Option<BlockId>,
) -> bool {
    if Some(from) == blocked {
        return false;
    }
    let mut seen = vec![false; g.block_count()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(b) = stack.pop() {
        if exits.contains(&b) {
            return true;
        }
        for s in g.succs(b) {
            if Some(s) != blocked && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

/// [`random_cfg`] with code for the verifier to judge: every branch
/// probability drawn from {0, 0.5, 1}, and one instruction in every
/// block — a constant, except that `user`'s block negates the constant of
/// `def`'s block (`def != user`).
fn random_cfg_with_code(
    n: usize,
    choices: &[u8],
    probs: &[u8],
    def: BlockId,
    user: BlockId,
) -> Graph {
    let mut g = random_cfg(n, choices);
    let blocks: Vec<BlockId> = g.blocks().collect();
    for (i, &b) in blocks.iter().enumerate() {
        if matches!(g.terminator(b), Terminator::Branch { .. }) {
            let k = probs.get(i).copied().unwrap_or(1) % 3;
            g.set_branch_probability(b, f64::from(k) * 0.5);
        }
    }
    let mut def_value = None;
    for &b in blocks.iter().filter(|&&b| b != user) {
        let v = g.append_inst(b, Inst::Const(ConstValue::Int(b.index() as i64)), Type::Int);
        if b == def {
            def_value = Some(v);
        }
    }
    let v = def_value.expect("def != user");
    g.append_inst(user, Inst::Neg(v), Type::Int);
    g
}

/// The definition-based verdicts of the verifier's reverse-CFG rules on
/// a graph whose every block holds code: the reachable blocks with no
/// path to a reachable exit ([`LintId::NoExitPath`]), and the blocks
/// control dependent on a branch edge of probability 0
/// ([`LintId::ControlDepViolation`]) — Ferrante–Ottenstein–Warren over
/// path-to-exit post-dominance: `r` post-dominates the dead successor
/// `s` of `a` and does not strictly post-dominate `a`.
fn reverse_verdicts_by_definition(g: &Graph) -> (Vec<BlockId>, Vec<BlockId>) {
    let reach = reachable(g, None);
    let exits: Vec<BlockId> = reach
        .iter()
        .copied()
        .filter(|&b| g.succs(b).is_empty())
        .collect();
    let in_domain = |b: BlockId| reach.contains(&b) && reaches_exit_avoiding(g, b, &exits, None);
    let pdom = |r: BlockId, x: BlockId| {
        in_domain(r) && in_domain(x) && !reaches_exit_avoiding(g, x, &exits, Some(r))
    };
    let no_exit = g
        .blocks()
        .filter(|&b| reach.contains(&b) && !in_domain(b))
        .collect();
    let mut dependent = Vec::new();
    for a in g.blocks().filter(|&a| in_domain(a)) {
        let dead = match *g.terminator(a) {
            Terminator::Branch {
                then_bb,
                prob_then: 0.0,
                ..
            } => then_bb,
            Terminator::Branch {
                else_bb,
                prob_then: 1.0,
                ..
            } => else_bb,
            _ => continue,
        };
        dependent.extend(
            g.blocks()
                .filter(|&r| pdom(r, dead) && (r == a || !pdom(r, a))),
        );
    }
    dependent.sort();
    dependent.dedup();
    (no_exit, dependent)
}

/// The blocks `lint` anchors `lint_id` diagnostics to, sorted and
/// deduplicated.
fn lint_blocks(g: &Graph, lint_id: LintId) -> Vec<BlockId> {
    let mut blocks: Vec<BlockId> = lint(g)
        .diagnostics()
        .iter()
        .filter(|d| d.lint == lint_id)
        .filter_map(|d| d.block)
        .collect();
    blocks.dedup();
    blocks
}

/// Everything a [`PostDomTree`] exposes — `ipdom`, root and domain
/// membership, `children` order, `roots` order, `pseudo_exits` order —
/// over 4096 fixed pseudo-random CFGs of `sizes` blocks, as one digest.
fn postdom_digest(sizes: std::ops::Range<usize>, seed: u64) -> u64 {
    let mut h = Fnv64::new();
    let mut state = seed;
    let mut next = || {
        // Knuth's MMIX LCG; the high bits are the random ones.
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let list = |h: &mut Fnv64, blocks: &[BlockId]| {
        h.write_u64(blocks.len() as u64);
        for b in blocks {
            h.write_u64(b.index() as u64);
        }
    };
    for _ in 0..4096 {
        let n = sizes.start + next() as usize % sizes.len();
        let choices: Vec<u8> = (0..n).map(|_| (next() % 8) as u8).collect();
        let g = random_cfg(n, &choices);
        let pd = PostDomTree::compute(&g);
        for b in g.blocks() {
            h.write_u64(pd.ipdom(b).map_or(u64::MAX, |p| p.index() as u64));
            h.write_u64(u64::from(pd.is_root(b)) | u64::from(pd.in_domain(b)) << 1);
            list(&mut h, pd.children(b));
        }
        list(&mut h, pd.roots());
        list(&mut h, pd.pseudo_exits());
    }
    h.finish()
}

/// The digests were computed on the commit before `PostDomTree` moved
/// onto the shared dominator solver, so a mismatch is a behaviour change
/// of the tree (a parent, or the order of a child / root list), not a
/// stale pin.
#[test]
fn postdom_tree_matches_the_pinned_digests() {
    assert_eq!(postdom_digest(2..10, 1), GOLDEN_POSTDOM_SMALL);
    assert_eq!(postdom_digest(10..40, 2), GOLDEN_POSTDOM_LARGE);
}

const GOLDEN_POSTDOM_SMALL: u64 = 0x9184_9cf3_acd3_722c;
const GOLDEN_POSTDOM_LARGE: u64 = 0x6be7_fd31_c150_8254;

/// Tail-duplicates `merge` into `pred` the way the transform edits the
/// CFG: a fresh block takes a copy of `merge`'s terminator, then the edge
/// `pred -> merge` is retargeted to it. (No φs in these graphs.)
fn tail_duplicate(g: &mut Graph, pred: BlockId, merge: BlockId) -> BlockId {
    let copy = g.add_block();
    g.set_terminator(copy, g.terminator(merge).clone());
    g.retarget_edge(pred, merge, copy, &[]);
    copy
}

fn edges(g: &Graph) -> Vec<(BlockId, BlockId)> {
    g.blocks()
        .flat_map(|p| g.succs(p).into_iter().map(move |m| (p, m)))
        .collect()
}

/// `rel` against a from-scratch build of `g`: every idom, reachability
/// and all pairs of `dominates`.
fn assert_is_relation_of(rel: &Dominators, g: &Graph, context: &str) {
    let fresh = DomTree::compute(g);
    assert_eq!(rel.block_count(), g.block_count(), "{context}");
    for a in g.blocks() {
        assert_eq!(rel.idom(a), fresh.idom(a), "idom({a}) {context}\n{g}");
        assert_eq!(
            rel.is_reachable(a),
            fresh.is_reachable(a),
            "is_reachable({a}) {context}\n{g}"
        );
        for b in g.blocks() {
            assert_eq!(
                rel.dominates(a, b),
                fresh.dominates(a, b),
                "{a} dom {b} {context}\n{g}"
            );
        }
    }
}

/// Which arm of the patch rule a duplication exercises, judged on the
/// relation before it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Shape {
    /// `merge` dominated `pred`.
    BackEdge,
    /// Every other way into `merge` came from below it.
    SoleEntry,
    /// `merge` keeps an entry that does not pass through the copy.
    Shared,
    /// The patch declined.
    Declined,
}

/// Runs `picks.len()` tail duplications on `g`, each on the edge its
/// pick selects among *all* edges (unreachable sources, the entry as
/// target, self-loops and fresh copies included), carrying one relation
/// through by patching and falling back to a from-scratch build only
/// when the patch declines. Returns the shape of every step.
fn duplicate_and_patch(g: &mut Graph, picks: &[usize]) -> Vec<Shape> {
    let mut rel: Dominators = (**DomTree::compute(g).relation()).clone();
    let mut shapes = Vec::new();
    for &pick in picks {
        let all = edges(g);
        if all.is_empty() {
            break;
        }
        let (pred, merge) = all[pick % all.len()];
        let back_edge = rel.dominates(merge, pred);
        let copy = tail_duplicate(g, pred, merge);
        match rel.after_duplication(g, pred, merge, copy) {
            Some(patched) => {
                assert_is_relation_of(
                    &patched,
                    g,
                    &format!("after duplicating {merge} into {pred} as {copy}"),
                );
                shapes.push(if back_edge {
                    Shape::BackEdge
                } else if patched
                    .idom(merge)
                    .is_some_and(|d| patched.dominates(copy, d))
                {
                    Shape::SoleEntry
                } else {
                    Shape::Shared
                });
                rel = patched;
            }
            None => {
                shapes.push(Shape::Declined);
                rel = (**DomTree::compute(g).relation()).clone();
            }
        }
    }
    shapes
}

/// A fixed pseudo-random corpus large enough that every arm of the rule,
/// and the fallback, is taken many times — so the property test below is
/// not vacuously green on one shape.
#[test]
fn patched_relation_matches_from_scratch_on_a_fixed_corpus() {
    let mut state = 23u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut seen = [0usize; 4];
    for _ in 0..3000 {
        let n = 2 + next() as usize % 14;
        let choices: Vec<u8> = (0..n).map(|_| (next() % 8) as u8).collect();
        let mut g = random_cfg(n, &choices);
        let picks: Vec<usize> = (0..6).map(|_| next() as usize).collect();
        for shape in duplicate_and_patch(&mut g, &picks) {
            seen[shape as usize] += 1;
        }
    }
    for (shape, count) in [
        Shape::BackEdge,
        Shape::SoleEntry,
        Shape::Shared,
        Shape::Declined,
    ]
    .into_iter()
    .zip(seen)
    {
        assert!(count >= 100, "{shape:?} taken only {count} times");
    }
}

/// entry → {bt, bf} → bm → {left, right} → out, `left → bm` a back edge.
fn looped_diamond() -> (Graph, [BlockId; 6]) {
    let mut g = Graph::new("shapes", &[Type::Bool], Arc::new(ClassTable::new()));
    let cond = g.param_values()[0];
    let [bt, bf, bm, left, right, out] = [(); 6].map(|()| g.add_block());
    let branch = |then_bb, else_bb| Terminator::Branch {
        cond,
        then_bb,
        else_bb,
        prob_then: 0.5,
    };
    g.set_terminator(g.entry(), branch(bt, bf));
    g.set_terminator(bt, Terminator::Jump { target: bm });
    g.set_terminator(bf, Terminator::Jump { target: bm });
    g.set_terminator(bm, branch(left, right));
    g.set_terminator(left, branch(bm, out));
    g.set_terminator(right, Terminator::Jump { target: out });
    g.set_terminator(out, Terminator::Return { value: None });
    (g, [bt, bf, bm, left, right, out])
}

/// Every shape the patch declines, one by one. (`pred` listed twice in
/// `preds(merge)` is the one listed fallback no graph can reach: every
/// primitive that installs a terminator rejects `branch c, s, s`. What
/// is left of it — `pred` still preceding `merge` — is the "edge was not
/// retargeted" case below.)
#[test]
fn after_duplication_declines_what_is_not_one_tail_duplication() {
    let relation = |g: &Graph| Arc::clone(DomTree::compute(g).relation());

    // The shapes it does cover, on the same graph, for contrast.
    let (mut g, [bt, _, bm, left, ..]) = looped_diamond();
    let before = relation(&g);
    let copy = tail_duplicate(&mut g, bt, bm);
    let shared = before.after_duplication(&g, bt, bm, copy).unwrap();
    assert_is_relation_of(&shared, &g, "shared entry");
    let copy2 = tail_duplicate(&mut g, left, bm);
    let back = shared.after_duplication(&g, left, bm, copy2).unwrap();
    assert_is_relation_of(&back, &g, "back-edge predecessor");
    assert_eq!(back.idom(copy2), Some(left));

    // The loop's sole entry: bm is entered from bf and, below it, left.
    let (mut g, [bt, bf, bm, left, right, _]) = looped_diamond();
    g.set_terminator(bt, Terminator::Return { value: None });
    let before = relation(&g);
    let copy = tail_duplicate(&mut g, bf, bm);
    let sole = before.after_duplication(&g, bf, bm, copy).unwrap();
    assert_is_relation_of(&sole, &g, "sole entry");
    assert_eq!(sole.idom(left), Some(copy));
    assert_eq!(sole.idom(right), Some(copy));
    assert_eq!(sole.idom(bm), Some(left));

    // A stale relation: `g` has more than one block the relation lacks.
    let (mut g, [bt, _, bm, ..]) = looped_diamond();
    let before = relation(&g);
    g.add_block();
    let copy = tail_duplicate(&mut g, bt, bm);
    assert!(before.after_duplication(&g, bt, bm, copy).is_none());
    // ... or `copy` is not the new block.
    assert!(relation(&g).after_duplication(&g, bt, bm, bt).is_none());

    // `merge` is the entry (only a malformed graph has an edge into it).
    let (mut g, [.., out]) = looped_diamond();
    g.set_terminator(out, Terminator::Jump { target: g.entry() });
    let before = relation(&g);
    let entry = g.entry();
    let copy = tail_duplicate(&mut g, out, entry);
    assert!(before.after_duplication(&g, out, entry, copy).is_none());

    // The edge was not retargeted: `pred` still precedes `merge`.
    let (mut g, [bt, _, bm, left, ..]) = looped_diamond();
    let before = relation(&g);
    let copy = g.add_block();
    g.set_terminator(copy, g.terminator(bm).clone());
    assert!(before.after_duplication(&g, bt, bm, copy).is_none());
    // ... nor is it when a different edge of `pred` was: left's exit edge
    // goes to the copy, so preds(copy) == [left] while left -> bm stands.
    let (_, [.., out]) = looped_diamond();
    g.retarget_edge(left, out, copy, &[]);
    assert_eq!(g.preds(copy), [left]);
    assert!(before.after_duplication(&g, left, bm, copy).is_none());

    // preds(copy) != [pred].
    let (mut g, [bt, bf, bm, ..]) = looped_diamond();
    let before = relation(&g);
    let copy = tail_duplicate(&mut g, bt, bm);
    assert!(before.after_duplication(&g, bf, bm, copy).is_none());

    // succs(copy) != succs(merge): a self-looping merge duplicated into
    // itself hands its own back edge to the copy.
    let (mut g, [_, _, bm, left, right, _]) = looped_diamond();
    g.set_terminator(left, Terminator::Return { value: None });
    g.set_terminator(right, Terminator::Return { value: None });
    let cond = g.param_values()[0];
    g.set_terminator(
        bm,
        Terminator::Branch {
            cond,
            then_bb: bm,
            else_bb: left,
            prob_then: 0.5,
        },
    );
    let before = relation(&g);
    let copy = tail_duplicate(&mut g, bm, bm);
    assert!(before.after_duplication(&g, bm, bm, copy).is_none());

    // An unreachable `pred`, an unreachable `merge`, an unreachable
    // remaining predecessor.
    let (mut g, [bt, _, bm, ..]) = looped_diamond();
    let (orphan, orphan2) = (g.add_block(), g.add_block());
    g.set_terminator(orphan, Terminator::Jump { target: bm });
    g.set_terminator(orphan2, Terminator::Jump { target: orphan });
    let before = relation(&g);
    let mut h = g.clone();
    let copy = tail_duplicate(&mut h, orphan, bm);
    assert!(before.after_duplication(&h, orphan, bm, copy).is_none());
    let mut h = g.clone();
    let copy = tail_duplicate(&mut h, orphan2, orphan);
    assert!(before
        .after_duplication(&h, orphan2, orphan, copy)
        .is_none());
    let mut h = g.clone();
    let copy = tail_duplicate(&mut h, bt, bm);
    assert!(before.after_duplication(&h, bt, bm, copy).is_none());

    // No predecessor left: `pred` was the only one.
    let (mut g, [bt, ..]) = looped_diamond();
    let lone = g.add_block();
    g.set_terminator(lone, Terminator::Return { value: None });
    g.set_terminator(bt, Terminator::Jump { target: lone });
    let before = relation(&g);
    let copy = tail_duplicate(&mut g, bt, lone);
    assert!(before.after_duplication(&g, bt, lone, copy).is_none());
}

#[test]
fn from_idoms_numbers_the_tree_it_is_given() {
    let (g, _) = looped_diamond();
    let dt = DomTree::compute(&g);
    let idoms = g.blocks().map(|b| dt.idom(b)).collect();
    let rel = Dominators::from_idoms(g.entry(), idoms);
    assert_is_relation_of(&rel, &g, "from_idoms");
    for b in g.blocks() {
        let mut expected: Vec<BlockId> = g.blocks().filter(|&x| dt.dominates(b, x)).collect();
        let mut subtree = rel.subtree(b).to_vec();
        assert_eq!(subtree.first(), Some(&b));
        subtree.sort_unstable();
        expected.sort_unstable();
        assert_eq!(subtree, expected, "subtree({b})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn chk_matches_definition(n in 2usize..10, choices in proptest::collection::vec(0u8..8, 10)) {
        let g = random_cfg(n, &choices);
        let dt = DomTree::compute(&g);
        for a in g.blocks() {
            for b in g.blocks() {
                prop_assert_eq!(
                    dt.dominates(a, b),
                    dominates_by_definition(&g, a, b),
                    "{} dom {} disagrees on graph:\n{}",
                    a,
                    b,
                    g
                );
            }
        }
    }

    #[test]
    fn idom_is_the_closest_strict_dominator(n in 2usize..10, choices in proptest::collection::vec(0u8..8, 10)) {
        let g = random_cfg(n, &choices);
        let dt = DomTree::compute(&g);
        for b in g.blocks() {
            if let Some(idom) = dt.idom(b) {
                // idom strictly dominates b…
                prop_assert!(dt.strictly_dominates(idom, b));
                // …and every other strict dominator dominates the idom.
                for a in g.blocks() {
                    if a != b && dt.strictly_dominates(a, b) {
                        prop_assert!(dt.dominates(a, idom), "{a} sdom {b} but not dom {idom}");
                    }
                }
            }
        }
    }

    #[test]
    fn postdom_matches_definition(n in 2usize..10, choices in proptest::collection::vec(0u8..8, 10)) {
        let g = random_cfg(n, &choices);
        let pd = PostDomTree::compute(&g);
        // The virtual exit's children: real exits plus the pseudo-exits
        // the implementation attached for infinite regions.
        let exits: Vec<BlockId> = g
            .blocks()
            .filter(|&b| pd.in_domain(b) && g.succs(b).is_empty())
            .chain(pd.pseudo_exits().iter().copied())
            .collect();
        for a in g.blocks() {
            for b in g.blocks() {
                let by_definition = pd.in_domain(a)
                    && pd.in_domain(b)
                    && !reaches_exit_avoiding(&g, b, &exits, Some(a));
                prop_assert_eq!(
                    pd.post_dominates(a, b),
                    by_definition,
                    "{} pdom {} disagrees on graph:\n{}",
                    a,
                    b,
                    g
                );
            }
        }
    }

    #[test]
    fn control_deps_match_the_naive_edge_scan(n in 2usize..10, choices in proptest::collection::vec(0u8..8, 10)) {
        // Ferrante–Ottenstein–Warren: `b` is control-dependent on `a`
        // iff some edge `a -> s` exists with `b` post-dominating `s` but
        // not strictly post-dominating `a`. The scan covers real branch
        // blocks only — a pseudo-exit's implicit virtual-exit edge is an
        // analysis artifact, not a decision. For a successor `b != a` of
        // an in-domain branch `a` (the branch-split shape) it must equal
        // "`b` does not post-dominate `a`".
        let g = random_cfg(n, &choices);
        let pd = PostDomTree::compute(&g);
        for a in g.blocks().filter(|&a| pd.in_domain(a) && g.succs(a).len() >= 2) {
            for b in g.succs(a).into_iter().filter(|&b| b != a) {
                let naive = pd.in_domain(b)
                    && g.succs(a).into_iter().any(|s| {
                        pd.in_domain(s)
                            && pd.post_dominates(b, s)
                            && !pd.strictly_post_dominates(b, a)
                    });
                prop_assert_eq!(
                    !pd.post_dominates(b, a),
                    naive,
                    "{} cdep {} disagrees on graph:\n{}",
                    b,
                    a,
                    g
                );
            }
        }
    }

    #[test]
    fn verifier_verdicts_match_the_definitions(
        n in 2usize..10,
        choices in proptest::collection::vec(0u8..8, 10),
        probs in proptest::collection::vec(0u8..3, 10),
        def in 0usize..10,
        offset in 0usize..10,
    ) {
        // The verifier's own dominator solver, in both directions,
        // against the definitions: a use draws `SsaDominance` iff its
        // block is reachable and not dominated by the definition's, and
        // the reverse-CFG rules flag exactly the definition-based sets.
        let blocks: Vec<BlockId> = (0..n).map(BlockId::from_index).collect();
        let (def, user) = (blocks[def % n], blocks[(def + 1 + offset % (n - 1)) % n]);
        let g = random_cfg_with_code(n, &choices, &probs, def, user);
        let undominated = reachable(&g, None).contains(&user)
            && !dominates_by_definition(&g, def, user);
        prop_assert_eq!(
            lint_blocks(&g, LintId::SsaDominance),
            if undominated { vec![user] } else { vec![] },
            "use in {} of {}'s value on graph:\n{}",
            user,
            def,
            g
        );
        let (no_exit, dependent) = reverse_verdicts_by_definition(&g);
        prop_assert_eq!(lint_blocks(&g, LintId::NoExitPath), no_exit, "graph:\n{}", g);
        prop_assert_eq!(
            lint_blocks(&g, LintId::ControlDepViolation),
            dependent,
            "graph:\n{}",
            g
        );
    }

    #[test]
    fn rpo_orders_dominators_first(n in 2usize..10, choices in proptest::collection::vec(0u8..8, 10)) {
        let g = random_cfg(n, &choices);
        let dt = DomTree::compute(&g);
        for &a in dt.reverse_postorder() {
            for &b in dt.reverse_postorder() {
                if dt.strictly_dominates(a, b) {
                    prop_assert!(dt.rpo_index(a) < dt.rpo_index(b));
                }
            }
        }
    }

    #[test]
    fn patched_relation_matches_from_scratch(
        n in 2usize..12,
        choices in proptest::collection::vec(0u8..8, 12),
        picks in proptest::collection::vec(0usize..1000, 1..8),
    ) {
        let mut g = random_cfg(n, &choices);
        duplicate_and_patch(&mut g, &picks);
    }
}
