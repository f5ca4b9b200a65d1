//! Differential tests for the fixpoint driver: on every graph here,
//! `optimize_full` must print exactly as the dense round-robin it
//! replaced — canonicalize, GVN, scalar replacement, DCE and CFG
//! simplification over the whole graph, round after round until one
//! changes nothing (`dense_reference`). Release builds, which have no
//! debug oracle inside `optimize`, check it here too.
//!
//! A later round of the driver runs a pass, over the whole graph, only
//! when its dirt gives it work, so what can go wrong is a gate that
//! skips a pass the dense round-robin would find work for. The graphs:
//! generated units of all four suites; graphs taken in the middle of a
//! DBDS run, after one to three rounds of duplications; small random
//! programs over random control flow; and hand-built shapes, each of
//! which needs a pass in a later round a dense run would give it. Each
//! gate — canonicalize's, GVN's, scalar replacement's, DCE's and
//! `simplify_cfg`'s — fails at least one hand-built shape and the random
//! programs when it is made to skip its pass in every later round. The
//! reference's own cleanup passes, DCE and `simplify_cfg`, are held to
//! the rescanning forms they replaced.

use dbds_analysis::{AnalysisCache, DomTree};
use dbds_core::{duplicate, select, simulate_paths, CandidateKind, DbdsConfig, SelectionMode};
use dbds_costmodel::CostModel;
use dbds_ir::{
    print_graph, verify, BinOp, BlockId, ClassTable, CmpOp, ConstValue, Graph, GraphBuilder, Inst,
    InstId, Terminator, Type,
};
use dbds_opt::{
    canonicalize, dense_reference, global_value_numbering, optimize, optimize_full,
    remove_dead_code, scalar_replace, simplify_cfg, OptimizeStats, MAX_ROUNDS,
};
use dbds_workloads::{generate_graph, Suite};
use proptest::prelude::*;
use proptest::TestRng;
use std::collections::HashSet;
use std::sync::Arc;

/// Checks `optimize_full` against the dense reference on a clone of `g`.
fn check(g: &Graph) -> OptimizeStats {
    let (dense, dense_rounds) = dense_reference(g, MAX_ROUNDS);
    let want = print_graph(&dense);
    let mut sparse = g.clone();
    let stats = optimize_full(&mut sparse, &mut AnalysisCache::new());
    assert_eq!(print_graph(&sparse), want, "{} diverged", g.name);
    assert!(
        stats.rounds <= dense_rounds,
        "{}: more rounds than dense",
        g.name
    );
    assert!(
        stats.rounds < MAX_ROUNDS,
        "{} reached the round cap",
        g.name
    );
    stats
}

#[test]
fn generated_units_of_every_suite() {
    for (suite, units) in [
        (Suite::JavaDaCapo, 48),
        (Suite::ScalaDaCapo, 48),
        (Suite::Micro, 48),
        (Suite::Octane, 12),
    ] {
        let profile = suite.profile();
        for i in 0..units {
            check(&generate_graph(
                &format!("{}{i}", suite.id()),
                &profile,
                2000 + i,
            ));
        }
    }
}

#[test]
fn graphs_in_the_middle_of_a_dbds_run() {
    let model = CostModel::new();
    let cfg = DbdsConfig::default();
    for (suite, units) in [
        (Suite::ScalaDaCapo, 12),
        (Suite::Octane, 4),
        (Suite::Micro, 12),
    ] {
        let profile = suite.profile();
        for i in 0..units {
            let mut g = generate_graph(&format!("{}{i}", suite.id()), &profile, 3000 + i);
            let mut cache = AnalysisCache::new();
            optimize_full(&mut g, &mut cache);
            let initial = model.graph_size(&g);
            let visited = HashSet::new();
            // The phase's rounds: simulate, select, duplicate, then one
            // optimizer round — each graph in between is checked.
            for _ in 0..3 {
                let results = simulate_paths(&g, &model, &mut cache, cfg.max_path_length);
                let plan: Vec<_> = select(
                    &results,
                    &cfg.tradeoff,
                    SelectionMode::Dupalot,
                    initial,
                    model.graph_size(&g),
                    &visited,
                )
                .into_iter()
                .filter(|r| r.kind != CandidateKind::BranchSplit)
                .map(|r| (r.pred, r.merge))
                .collect();
                if plan.is_empty() {
                    break;
                }
                for (pred, merge) in plan {
                    if g.preds(merge).contains(&pred) && g.preds(merge).len() > 1 && pred != merge {
                        duplicate(&mut g, pred, merge);
                    }
                }
                check(&g);
                optimize(&mut g, &mut cache, 1);
                check(&g);
            }
        }
    }
}

/// The values of `pool` of type `ty`.
fn of_type(pool: &[(InstId, Type)], ty: Type) -> Vec<InstId> {
    pool.iter().filter(|v| v.1 == ty).map(|v| v.0).collect()
}

/// A random program over `n` blocks: random jumps, branches (self-loops
/// allowed) and returns; integer and object φs in the merge blocks; and
/// in every reachable block a few integer constants in 0..3, arithmetic,
/// comparisons, allocations, field stores and loads and calls (which let
/// an object escape) over the values that dominate it. Branch conditions
/// are often comparisons of constants, so branches fold, loops run once
/// and blocks merge.
fn random_program(n: usize, seed: u64) -> Graph {
    let mut rng = TestRng::new(seed);
    let mut pick = |k: usize| (rng.next_u64() % k as u64) as usize;
    let mut table = ClassTable::new();
    let class = table.add_class("Box");
    let field = table.add_field(class, "v", Type::Int);
    let obj = Type::Ref(class);
    let mut g = Graph::new("rand", &[Type::Int, Type::Int], Arc::new(table));
    let (x, y) = (g.param_values()[0], g.param_values()[1]);
    let entry = g.entry();
    let placeholder = g.append_inst(entry, Inst::Const(ConstValue::Bool(true)), Type::Bool);
    let base = g.append_inst(entry, Inst::New { class }, obj);
    let mut blocks = vec![entry];
    blocks.extend((1..n).map(|_| g.add_block()));
    for (i, &b) in blocks.iter().enumerate() {
        let (t1, t2) = (blocks[pick(n)], blocks[pick(n)]);
        let term = match pick(5) {
            0 | 1 if t1 != entry => Terminator::Jump { target: t1 },
            2 | 3 if t1 != t2 && t1 != entry && t2 != entry => Terminator::Branch {
                cond: placeholder,
                then_bb: t1,
                else_bb: t2,
                prob_then: 0.5,
            },
            _ if i + 1 < n && pick(2) == 0 => Terminator::Jump {
                target: blocks[i + 1],
            },
            _ => Terminator::Return { value: Some(x) },
        };
        g.set_terminator(b, term);
    }
    // Unreachable blocks leave the program: no edge from one into a
    // reachable block.
    let dt = DomTree::compute(&g);
    for &b in &blocks {
        if !dt.is_reachable(b) {
            g.set_terminator(b, Terminator::Return { value: Some(x) });
        }
    }
    // The values defined at the end of each reachable block and in the
    // blocks dominating it.
    let mut pools: Vec<Vec<(InstId, Type)>> = vec![Vec::new(); n];
    let mut phis = Vec::new();
    for &b in dt.preorder() {
        let mut pool = match dt.idom(b) {
            Some(p) => pools[p.index()].clone(),
            None => vec![(x, Type::Int), (y, Type::Int), (base, obj)],
        };
        let preds = g.preds(b).len();
        if preds > 1 {
            for _ in 0..pick(3) {
                let (ty, init) = if pick(3) == 0 {
                    (obj, base)
                } else {
                    (Type::Int, x)
                };
                let phi = g.append_phi(b, vec![init; preds], ty);
                phis.push((b, phi, ty));
                pool.push((phi, ty));
            }
        }
        for _ in 0..pick(6) {
            let ints = of_type(&pool, Type::Int);
            let objs = of_type(&pool, obj);
            let (lhs, rhs) = (ints[pick(ints.len())], ints[pick(ints.len())]);
            let object = objs[pick(objs.len())];
            let (inst, ty) = match pick(11) {
                0 | 1 => (Inst::Const(ConstValue::Int(pick(3) as i64)), Type::Int),
                2 => {
                    let op = [CmpOp::Lt, CmpOp::Eq, CmpOp::Gt][pick(3)];
                    (Inst::Compare { op, lhs, rhs }, Type::Bool)
                }
                k @ 3..=6 => {
                    let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Xor][k - 3];
                    (Inst::Binary { op, lhs, rhs }, Type::Int)
                }
                7 => (Inst::New { class }, obj),
                8 => {
                    let store = Inst::StoreField {
                        object,
                        field,
                        value: lhs,
                    };
                    (store, Type::Void)
                }
                9 => (Inst::LoadField { object, field }, Type::Int),
                _ => (Inst::Invoke { args: vec![object] }, Type::Int),
            };
            let v = g.append_inst(b, inst, ty);
            pool.push((v, ty));
        }
        let bools = of_type(&pool, Type::Bool);
        let ints = of_type(&pool, Type::Int);
        let value = match g.terminator(b) {
            Terminator::Branch { .. } if bools.is_empty() || pick(2) == 0 => {
                let a = g.append_inst(b, Inst::Const(ConstValue::Int(pick(2) as i64)), Type::Int);
                let c = g.append_inst(b, Inst::Const(ConstValue::Int(pick(2) as i64)), Type::Int);
                let cmp = Inst::Compare {
                    op: CmpOp::Eq,
                    lhs: a,
                    rhs: c,
                };
                g.append_inst(b, cmp, Type::Bool)
            }
            Terminator::Branch { .. } => bools[pick(bools.len())],
            _ => ints[pick(ints.len())],
        };
        g.patch_terminator_inputs(b, |v| *v = value);
        pools[b.index()] = pool;
    }
    for (b, phi, ty) in phis {
        let inputs: Vec<InstId> = g
            .preds(b)
            .to_vec()
            .into_iter()
            .map(|p: BlockId| {
                let vals = of_type(&pools[p.index()], ty);
                vals[pick(vals.len())]
            })
            .collect();
        g.rewrite_inputs(phi, |inst| {
            if let Inst::Phi { inputs: old } = inst {
                *old = inputs;
            }
        });
    }
    verify(&g).unwrap_or_else(|e| panic!("seed {seed}: {}\n{}", e.summary(), print_graph(&g)));
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Small random programs, whose control flow folds, merges and loops
    /// in shapes the generated suites seldom make.
    #[test]
    fn random_programs(n in 1usize..9, seed in 0u64..1_000_000_000) {
        check(&random_program(n, seed));
    }
}

/// A loop whose header φ takes `0` from the entry and, over the back
/// edge, `v = 0 + 0` — which canonicalize folds only after it has
/// visited the header. The φ then copy-propagates to `0` in a second
/// round, and only the rule that a rewritten value's users behind the
/// walk are dirt brings canonicalize back to the header.
#[test]
fn a_loop_header_phi_folded_behind_the_walk() {
    let mut b = GraphBuilder::new("loop", &[Type::Int], Arc::new(ClassTable::new()));
    let n = b.param(0);
    let zero = b.iconst(0);
    let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.jump(header);
    b.switch_to(body);
    let v = b.add(zero, zero);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(vec![zero, v], Type::Int);
    let c = b.cmp(CmpOp::Lt, i, n);
    b.branch(c, body, exit, 0.9);
    b.switch_to(exit);
    b.ret(Some(i));
    let g = b.finish();
    let stats = check(&g);
    assert!(stats.rounds >= 2, "the φ needs a second round");
}

/// The same loop, now exited through a merge: the header's branch folds
/// only in the second round, once its φ is known to be `0`, and cuts
/// the exit edge into a merge the walk has already passed — leaving a φ
/// there with a single input. Only the fold's dirt brings `simplify_cfg`
/// (and canonicalize) back to the merge.
#[test]
fn a_fold_that_leaves_a_single_input_phi() {
    let mut b = GraphBuilder::new("fold", &[Type::Int], Arc::new(ClassTable::new()));
    let k = b.param(0);
    let zero = b.iconst(0);
    let (merge, header, body) = (b.new_block(), b.new_block(), b.new_block());
    let early = b.cmp(CmpOp::Gt, k, zero);
    b.branch(early, merge, header, 0.5);
    b.switch_to(body);
    let v = b.add(zero, zero);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(vec![zero, v], Type::Int);
    let stay = b.cmp(CmpOp::Eq, i, zero);
    b.branch(stay, body, merge, 0.9);
    b.switch_to(merge);
    let r = b.phi(vec![k, i], Type::Int);
    b.ret(Some(r));
    let g = b.finish();
    let stats = check(&g);
    assert!(stats.rounds >= 3, "the fold lands in the second round");
    assert!(stats.canon.branch_folds >= 1);
}

/// `b` duplicates `a`, and `r = xor a, b`: GVN merges `b` into `a`
/// after canonicalize ran, which turns `r` into `xor a, a` — zero, but
/// only for a canonicalize that comes back. The merge is not one of
/// constants, so it is dirt.
#[test]
fn a_gvn_merge_that_turns_xor_a_b_into_xor_a_a() {
    let mut b = GraphBuilder::new("xor", &[Type::Int, Type::Int], Arc::new(ClassTable::new()));
    let (x, y) = (b.param(0), b.param(1));
    let s1 = b.add(x, y);
    let s2 = b.add(x, y);
    let r = b.binop(dbds_ir::BinOp::Xor, s1, s2);
    b.ret(Some(r));
    let g = b.finish();
    let stats = check(&g);
    assert!(stats.rounds >= 2, "the merge needs a second round");
    let mut opt = g.clone();
    optimize_full(&mut opt, &mut AnalysisCache::new());
    let returned = opt
        .block_insts(opt.entry())
        .iter()
        .any(|&i| matches!(opt.inst(i), Inst::Const(dbds_ir::ConstValue::Int(0))));
    assert!(returned, "xor a, a folds to 0:\n{}", print_graph(&opt));
}

/// `b` has two predecessors, the entry and `q`, and the entry dominates
/// it. The entry's branch folds to `q`, so `b` is left with `q` alone —
/// but the walk, still on the tree from before the fold, enters `b` from
/// the entry and learns nothing. `simplify_cfg` then merges `q` into the
/// entry, which now ends in `q`'s `branch c, b, e`: `b` is entered from
/// the same parent, now its only predecessor, and knows `c`, so its own
/// `branch c` folds in a second round. No change reaches `b`; the fold's
/// cut is what brings canonicalize back. A differential input: it pins
/// no rule of its own.
#[test]
fn a_block_whose_other_predecessor_merges_into_its_dominator() {
    let mut b = GraphBuilder::new("entered", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let one = b.iconst(1);
    let never = b.cmp(CmpOp::Eq, zero, one);
    let c = b.cmp(CmpOp::Lt, x, zero);
    let (q, target, then, exit) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    b.branch(never, target, q, 0.5);
    b.switch_to(q);
    b.branch(c, target, exit, 0.5);
    b.switch_to(target);
    b.branch(c, then, exit, 0.5);
    b.switch_to(then);
    b.ret(Some(one));
    b.switch_to(exit);
    b.ret(Some(zero));
    let g = b.finish();
    let stats = check(&g);
    assert!(
        stats.rounds >= 2,
        "the second branch folds in a second round"
    );
    assert!(stats.canon.branch_folds >= 2);
}

/// The same entry rule for a block that a merge moves: `b` has the
/// entry and `q` as predecessors, the entry dominates it, and `q` is
/// reached over `r`'s `branch c` true edge. The entry's branch folds to
/// `r`, and the walk, on the tree from before the fold, enters `b` from
/// the entry, where nothing is known about `c`. `simplify_cfg` merges
/// `r` into the entry and `b` into `q`, so `b`'s `branch c` now sits
/// below the edge that makes `c` true and folds in a second round, which
/// the fold's cut brings about. A differential input: it pins no rule of
/// its own.
#[test]
fn a_block_merged_below_a_branch_it_was_not_entered_through() {
    let mut b = GraphBuilder::new("moved", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let one = b.iconst(1);
    let never = b.cmp(CmpOp::Eq, zero, one);
    let c = b.cmp(CmpOp::Lt, x, zero);
    let (r, q, target) = (b.new_block(), b.new_block(), b.new_block());
    let (then, exit) = (b.new_block(), b.new_block());
    b.branch(never, target, r, 0.5);
    b.switch_to(r);
    b.branch(c, q, exit, 0.5);
    b.switch_to(q);
    b.jump(target);
    b.switch_to(target);
    b.branch(c, then, exit, 0.5);
    b.switch_to(then);
    b.ret(Some(one));
    b.switch_to(exit);
    b.ret(Some(zero));
    let g = b.finish();
    let stats = check(&g);
    assert!(
        stats.rounds >= 2,
        "the second branch folds in a second round"
    );
    assert!(stats.canon.branch_folds >= 2);
}

/// A loop header whose back edge comes from a block nothing reaches: DCE
/// clears that block, which cuts no reachable edge, so no dominator can
/// have moved. The header's φ is then left with one input and removed,
/// which makes `t = add x, i` an `add x, 0`, and the header merges into
/// the entry. The cleared predecessor and the removed φ mark the header
/// for canonicalize, which a second round reruns.
#[test]
fn a_block_merged_after_dce_cleared_its_other_predecessor() {
    let mut b = GraphBuilder::new("cleared", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let (dead, header) = (b.new_block(), b.new_block());
    b.jump(header);
    b.switch_to(dead);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(vec![zero, x], Type::Int);
    let t = b.add(x, i);
    b.ret(Some(t));
    let g = b.finish();
    let stats = check(&g);
    assert!(stats.rounds >= 2, "the add folds in a second round");
}

/// A loop that runs once: the header's exit test compares two constants,
/// so canonicalize folds the back edge after it has passed the header,
/// and `simplify_cfg` then removes the header's φ — making `t = add x, i`
/// an `add x, 0` — and merges the header into the entry, which jumps to
/// it. The φ's removal and the fold's cut both bring canonicalize back
/// to fold the `add`. A differential input: it pins no rule of its own.
#[test]
fn a_loop_header_merged_into_its_jump_predecessor() {
    let mut b = GraphBuilder::new("once", &[Type::Int], Arc::new(ClassTable::new()));
    let x = b.param(0);
    let zero = b.iconst(0);
    let one = b.iconst(1);
    let (header, exit) = (b.new_block(), b.new_block());
    b.jump(header);
    b.switch_to(header);
    // `i` is the header's φ, added once the back edge exists.
    let t = b.add(x, zero);
    let j = b.add(zero, one);
    let c = b.cmp(CmpOp::Gt, zero, one);
    b.branch(c, header, exit, 0.5);
    b.switch_to(exit);
    b.ret(Some(t));
    let mut g = b.finish();
    let i = g.append_phi(header, vec![zero, j], Type::Int);
    g.rewrite_inputs(t, |inst| {
        if let Inst::Binary { rhs, .. } = inst {
            *rhs = i;
        }
    });
    g.rewrite_inputs(j, |inst| {
        if let Inst::Binary { lhs, .. } = inst {
            *lhs = i;
        }
    });
    dbds_ir::verify(&g).unwrap();
    let stats = check(&g);
    assert!(stats.rounds >= 2, "the add folds in a second round");
    let mut opt = g.clone();
    optimize_full(&mut opt, &mut AnalysisCache::new());
    assert!(
        matches!(opt.terminator(opt.entry()), dbds_ir::Terminator::Return { value: Some(v) } if *v == x),
        "the unit returns its parameter:\n{}",
        print_graph(&opt)
    );
}

/// An allocation that escapes only into a loop body: the header's exit
/// test `i < 0` reads the header φ `i = φ(0, 0 + 0)`, which folds only in
/// the second round (as in `a_loop_header_phi_folded_behind_the_walk`),
/// so the test folds then, and DCE clears the body after scalar
/// replacement has run. Only the dirt of the removed call brings scalar
/// replacement back, in a third round, to forward the stored value.
#[test]
fn an_allocation_freed_when_a_later_fold_cuts_off_its_escape() {
    let mut t = ClassTable::new();
    let class = t.add_class("Box");
    let field = t.add_field(class, "v", Type::Int);
    let mut b = GraphBuilder::new("freed", &[Type::Int], Arc::new(t));
    let k = b.param(0);
    let zero = b.iconst(0);
    let p = b.new_object(class);
    b.store(p, field, k);
    let (header, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.jump(header);
    b.switch_to(body);
    b.invoke(vec![p]);
    let v = b.add(zero, zero);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(vec![zero, v], Type::Int);
    let stay = b.cmp(CmpOp::Lt, i, zero);
    b.branch(stay, body, exit, 0.9);
    b.switch_to(exit);
    let l = b.load(p, field);
    b.ret(Some(l));
    let g = b.finish();
    let stats = check(&g);
    assert!(
        stats.rounds >= 3,
        "the allocation dissolves in a third round"
    );
    assert_eq!(stats.scalar_replaced, 1);
}

/// The loop-to-fixpoint `simplify_cfg` the sparse driver's single φ sweep
/// and merge worklist replaced: whole-graph φ sweeps and merge scans
/// until neither changes anything.
fn simplify_cfg_by_rescans(g: &mut Graph) {
    loop {
        let mut changed = false;
        for b in g.blocks().collect::<Vec<_>>() {
            if g.preds(b).len() != 1 {
                continue;
            }
            for phi in g.phis(b).to_vec() {
                let Inst::Phi { inputs } = g.inst(phi) else {
                    unreachable!()
                };
                let input = inputs[0];
                g.replace_all_uses(phi, input);
                g.remove_inst(phi);
                changed = true;
            }
        }
        loop {
            let mut merged = false;
            for b in g.blocks().collect::<Vec<_>>() {
                let Terminator::Jump { target } = *g.terminator(b) else {
                    continue;
                };
                if target == b || target == g.entry() {
                    continue;
                }
                if g.preds(target) != [b] || !g.phis(target).is_empty() {
                    continue;
                }
                g.merge_block_into_pred(target, b);
                merged = true;
                changed = true;
            }
            if !merged {
                break;
            }
        }
        if !changed {
            break;
        }
    }
}

/// The whole-graph DCE the driver's seeded form replaced: empty the
/// blocks the entry does not reach, then remove unused removable
/// instructions from a worklist seeded in layout order.
fn remove_dead_code_by_rescans(g: &mut Graph) {
    let reachable: HashSet<BlockId> = g.reachable_blocks().into_iter().collect();
    for b in g.blocks().collect::<Vec<_>>() {
        if reachable.contains(&b) {
            continue;
        }
        if !matches!(g.terminator(b), Terminator::Deopt) {
            g.set_terminator(b, Terminator::Deopt);
        }
        for i in g.block_insts(b).to_vec().into_iter().rev() {
            g.remove_inst(i);
        }
    }
    let dead = |g: &Graph, i: InstId| {
        g.block_of(i).is_some() && !g.has_uses(i) && g.inst(i).removable_if_unused()
    };
    let mut worklist: Vec<InstId> = g
        .blocks()
        .flat_map(|b| g.block_insts(b))
        .copied()
        .filter(|&i| dead(g, i))
        .collect();
    while let Some(i) = worklist.pop() {
        let operands = g.inst(i).collect_inputs();
        g.remove_inst(i);
        for (k, &op) in operands.iter().enumerate() {
            if dead(g, op) && !operands[..k].contains(&op) {
                worklist.push(op);
            }
        }
    }
}

/// Holds the rewritten whole-graph DCE and `simplify_cfg`, which also
/// serve as the dense reference, to the formulations they replaced, on
/// what canonicalize, GVN and scalar replacement leave of generated
/// units and random programs.
#[test]
fn cleanup_passes_print_as_their_rescanning_forms() {
    let compare = |g: &Graph| {
        let mut g = g.clone();
        let mut cache = AnalysisCache::new();
        canonicalize(&mut g, &mut cache);
        global_value_numbering(&mut g, &mut cache);
        scalar_replace(&mut g);
        let mut want = g.clone();
        remove_dead_code_by_rescans(&mut want);
        simplify_cfg_by_rescans(&mut want);
        remove_dead_code(&mut g);
        simplify_cfg(&mut g);
        assert_eq!(print_graph(&g), print_graph(&want), "{}", g.name);
    };
    for (suite, units) in [
        (Suite::JavaDaCapo, 48),
        (Suite::ScalaDaCapo, 48),
        (Suite::Micro, 48),
        (Suite::Octane, 12),
    ] {
        let profile = suite.profile();
        for i in 0..units {
            compare(&generate_graph(
                &format!("{}{i}", suite.id()),
                &profile,
                4000 + i,
            ));
        }
    }
    for seed in 0..2000 {
        compare(&random_program(1 + (seed % 8) as usize, seed));
    }
}
