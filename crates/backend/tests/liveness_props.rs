//! Differential test of `live_intervals` against a naive reference: the
//! classic backward liveness dataflow over per-block `BTreeSet`s, iterated
//! round-robin to its fixpoint, with the interval rule restated on top.
//! The reference shares no code with the crate; it reads only the block
//! order of the layout, which is an input of `live_intervals`.

use dbds_backend::{live_intervals, Interval, Linearization};
use dbds_core::{compile, DbdsConfig, OptLevel};
use dbds_costmodel::CostModel;
use dbds_ir::{parse_module, BlockId, Graph, Inst, InstId};
use dbds_workloads::{generate_graph, FragmentKind, Profile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The intervals of every non-void, non-constant value defined in a block
/// of `order`, sorted by start.
fn reference(g: &Graph, order: &[BlockId]) -> Vec<Interval> {
    // Positions: each block's instructions, then one terminator slot.
    let mut pos: BTreeMap<InstId, u32> = BTreeMap::new();
    let mut term: BTreeMap<BlockId, u32> = BTreeMap::new();
    let mut next = 0;
    for &b in order {
        for &i in g.block_insts(b) {
            pos.insert(i, next);
            next += 1;
        }
        term.insert(b, next);
        next += 1;
    }
    // The φ inputs the edge b → s carries.
    let edge_inputs = |b: BlockId, s: BlockId| -> Vec<InstId> {
        let k = g.preds(s).iter().position(|&p| p == b).unwrap();
        g.phis(s)
            .iter()
            .map(|&phi| match g.inst(phi) {
                Inst::Phi { inputs } => inputs[k],
                other => panic!("{other:?} in the φ prefix"),
            })
            .collect()
    };

    // live_out(b) = ∪ over successors s: (live_in(s) \ φs(s)) ∪ inputs(b → s)
    // live_in(b)  = uses(b) ∪ (live_out(b) \ defs(b)), walked backwards.
    let empty = || -> BTreeMap<BlockId, BTreeSet<InstId>> {
        order.iter().map(|&b| (b, BTreeSet::new())).collect()
    };
    let (mut live_in, mut live_out) = (empty(), empty());
    loop {
        let mut changed = false;
        for &b in order {
            let mut out = BTreeSet::new();
            for s in g.succs(b) {
                let phis: BTreeSet<InstId> = g.phis(s).iter().copied().collect();
                out.extend(live_in[&s].difference(&phis).copied());
                out.extend(edge_inputs(b, s));
            }
            let mut inn = out.clone();
            g.terminator(b).for_each_input(|u| {
                inn.insert(u);
            });
            for &i in g.block_insts(b).iter().rev() {
                inn.remove(&i);
                if !g.inst(i).is_phi() {
                    g.inst(i).for_each_input(|u| {
                        inn.insert(u);
                    });
                }
            }
            changed |= live_out.insert(b, out.clone()) != Some(out);
            changed |= live_in.insert(b, inn.clone()) != Some(inn);
        }
        if !changed {
            break;
        }
    }

    // A value's interval ends at its last use site (operands at their
    // instruction, terminator operands and φ inputs at the terminator
    // slot) or at the terminator of the last block it is live-out of.
    let mut end: BTreeMap<InstId, u32> = BTreeMap::new();
    let mut uses: BTreeMap<InstId, u32> = BTreeMap::new();
    let mut touch = |v: InstId, p: u32, is_use: bool| {
        let e = end.entry(v).or_insert(p);
        *e = (*e).max(p);
        if is_use {
            *uses.entry(v).or_insert(0) += 1;
        }
    };
    for &b in order {
        for &i in g.block_insts(b) {
            if !g.inst(i).is_phi() {
                g.inst(i).for_each_input(|u| touch(u, pos[&i], true));
            }
        }
        g.terminator(b).for_each_input(|u| touch(u, term[&b], true));
        for s in g.succs(b) {
            for u in edge_inputs(b, s) {
                touch(u, term[&b], true);
            }
        }
        for &v in &live_out[&b] {
            touch(v, term[&b], false);
        }
    }
    let mut intervals = Vec::new();
    for &b in order {
        for &v in g.block_insts(b) {
            if g.ty(v).is_void() || matches!(g.inst(v), Inst::Const(_)) {
                continue;
            }
            let start = pos[&v];
            intervals.push(Interval {
                value: v,
                start,
                end: end.get(&v).map_or(start, |&e| e.max(start)),
                uses: uses.get(&v).copied().unwrap_or(0),
            });
        }
    }
    intervals.sort_by_key(|iv| iv.start);
    intervals
}

fn check(g: &Graph) {
    let lin = Linearization::compute(g);
    assert_eq!(live_intervals(g, &lin), reference(g, &lin.order));
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        2usize..8,
        proptest::collection::vec(0.05f64..1.0, FragmentKind::ALL.len()),
    )
        .prop_map(|(count, weights)| Profile {
            fragments: (count, count + 3),
            weights: FragmentKind::ALL.iter().copied().zip(weights).collect(),
            input_sets: 1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generated programs, pristine and after each optimization level
    /// (whose arenas hold the dead entries of removed instructions).
    #[test]
    fn matches_the_dataflow_reference(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("lv", &profile, seed);
        check(&g);
        let model = CostModel::new();
        for level in [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot] {
            let mut h = g.clone();
            compile(&mut h, &model, level, &DbdsConfig::default());
            check(&h);
        }
    }
}

/// Parses a one-function module and checks it against the reference.
fn check_ir(src: &str) -> (Graph, Linearization, Vec<Interval>) {
    let g = parse_module(src).unwrap().graphs.remove(0);
    check(&g);
    let lin = Linearization::compute(&g);
    let intervals = live_intervals(&g, &lin);
    (g, lin, intervals)
}

/// The interval of the `n`-th parameter.
fn param(g: &Graph, intervals: &[Interval], n: usize) -> Interval {
    let v = g.param_values()[n];
    *intervals.iter().find(|iv| iv.value == v).unwrap()
}

/// The placed block that holds φs.
fn merge(g: &Graph, lin: &Linearization) -> BlockId {
    *lin.order.iter().find(|&&b| !g.phis(b).is_empty()).unwrap()
}

#[test]
fn unreachable_block_jumping_into_a_reachable_merge() {
    // `dead` is never reached: its φ input `x` must not be read, and `y`,
    // live into `bm`, must not be walked into it.
    let (g, lin, intervals) = check_ir(
        "func @f(c: bool, x: int, y: int) {
         entry:
           branch c, bt, bf, prob 0.5
         bt:
           a: int = add x, x
           jump bm
         bf:
           jump bm
         dead:
           jump bm
         bm:
           p: int = phi [bt: a, bf: y, dead: x]
           s: int = add p, y
           return s
         }",
    );
    let bm = merge(&g, &lin);
    assert!(param(&g, &intervals, 1).end < lin.block_range[bm.index()].0);
    assert_eq!(param(&g, &intervals, 2).end, lin.term_pos(bm) - 1);
}

#[test]
fn self_loop_phi_fed_from_its_own_block() {
    let (g, lin, intervals) = check_ir(
        "func @f(n: int) {
         entry:
           zero: int = const 0
           one: int = const 1
           jump loop
         loop:
           i: int = phi [entry: zero, loop: next]
           next: int = add i, one
           c: bool = cmp lt next, n
           branch c, loop, exit, prob 0.9
         exit:
           return i
         }",
    );
    // `n` is read every iteration: live to the loop's own back edge.
    assert_eq!(param(&g, &intervals, 0).end, lin.term_pos(merge(&g, &lin)));
}

#[test]
fn value_live_across_a_back_edge() {
    let (g, lin, intervals) = check_ir(
        "func @f(n: int, k: int) {
         entry:
           zero: int = const 0
           jump header
         header:
           i: int = phi [entry: zero, body: next]
           c: bool = cmp lt i, n
           branch c, body, exit, prob 0.9
         body:
           next: int = add i, k
           jump header
         exit:
           return i
         }",
    );
    // `k` is read in the body, so it is live around the whole loop: to
    // the end of whichever of header and body is laid out last.
    let header = merge(&g, &lin);
    let loop_end = g.preds(header).iter().map(|&b| lin.term_pos(b)).max();
    let loop_end = loop_end.unwrap().max(lin.term_pos(header));
    assert_eq!(param(&g, &intervals, 1).end, loop_end);
}

#[test]
fn one_value_on_two_inputs_of_a_phi() {
    let (g, lin, intervals) = check_ir(
        "func @f(c: bool, x: int) {
         entry:
           branch c, bt, bf, prob 0.5
         bt:
           jump bm
         bf:
           jump bm
         bm:
           p: int = phi [bt: x, bf: x]
           return p
         }",
    );
    // Two use sites: one edge move per predecessor, the later one ends it.
    let x = param(&g, &intervals, 1);
    assert_eq!(x.uses, 2);
    let bm = merge(&g, &lin);
    let last_move = g.preds(bm).iter().map(|&b| lin.term_pos(b)).max();
    assert_eq!(Some(x.end), last_move);
}
