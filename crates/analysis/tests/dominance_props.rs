//! Property tests: the Cooper–Harvey–Kennedy dominator tree agrees with
//! the *definition* of dominance — `a` dominates `b` iff every entry→`b`
//! path passes through `a`, i.e. removing `a` makes `b` unreachable —
//! and the reverse-CFG analyses agree with their definitions: the
//! post-dominator tree with path-to-exit cuts, and the control-dependence
//! graph with the naive Ferrante–Ottenstein–Warren edge scan. The
//! post-dominator tree is also pinned, field for field, to what the
//! stand-alone solver it used to have produced.

use dbds_analysis::{ControlDepGraph, DomTree, PostDomTree};
use dbds_ir::{BlockId, ClassTable, Fnv64, Graph, Terminator, Type};
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
fn reaches_exit_avoiding(g: &Graph, from: BlockId, exits: &[BlockId], blocked: BlockId) -> bool {
    if from == blocked {
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
            if s != blocked && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
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
                    && !reaches_exit_avoiding(&g, b, &exits, a);
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
        // not strictly post-dominating `a`. Like the implementation, the
        // scan covers real branch blocks only — a pseudo-exit's implicit
        // virtual-exit edge is an analysis artifact, not a decision.
        let g = random_cfg(n, &choices);
        let pd = PostDomTree::compute(&g);
        let cdg = ControlDepGraph::compute(&g, &pd);
        for a in g.blocks() {
            for b in g.blocks() {
                let naive = pd.in_domain(a)
                    && pd.in_domain(b)
                    && g.succs(a).len() >= 2
                    && g.succs(a).into_iter().any(|s| {
                        pd.in_domain(s)
                            && pd.post_dominates(b, s)
                            && !pd.strictly_post_dominates(b, a)
                    });
                prop_assert_eq!(
                    cdg.depends_on(b, a),
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
}
