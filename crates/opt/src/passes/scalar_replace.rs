//! Escape analysis and scalar replacement.
//!
//! Reproduces the effect of Graal's partial escape analysis (Stadler et
//! al., the paper's §2 "PEA" opportunity): allocations that do not escape
//! are dissolved — loads of their fields become the last stored value
//! (with φs inserted across control flow via [`SsaBuilder`]), stores are
//! deleted, identity comparisons and type tests fold, and the allocation
//! itself disappears.
//!
//! The *partial* aspect of PEA — objects escaping on only one path — is
//! delivered by code duplication, exactly as in the paper: after DBDS
//! duplicates the merge, the φ that made the object escape is gone and
//! this pass removes the allocation on the non-escaping path.

use crate::passes::dirt::{user_blocks, Dirt};
use crate::ssa_repair::SsaBuilder;
use dbds_analysis::reverse_postorder;
use dbds_ir::{BlockId, ClassId, CmpOp, ConstValue, FieldId, Graph, Inst, InstId, Type, Use};
use std::collections::HashMap;

/// Loads and `(store, stored value)` pairs of one field of an allocation.
type FieldAccesses = (Vec<InstId>, Vec<(InstId, InstId)>);

/// One classified use of an allocation.
#[derive(Debug)]
enum AllocUse {
    Load {
        inst: InstId,
        field: FieldId,
    },
    Store {
        inst: InstId,
        field: FieldId,
        value: InstId,
    },
    Test {
        inst: InstId,
    },
}

/// Runs scalar replacement over all allocations of `g`. Returns the
/// number of allocations removed.
pub fn scalar_replace(g: &mut Graph) -> usize {
    run(g, &mut Dirt::default()).0
}

/// Replaces the allocations of `g` that do not escape, in layout order
/// (block index, position in block), reporting what it changed to
/// `dirt`. Returns the allocations removed and the instructions scanned
/// for allocations.
///
/// The dirt, per dissolved allocation: its block, for canonicalize and
/// GVN — every load, store, test and inserted φ or constant sits in its
/// dominator subtree — and the blocks of the replaced values' users. An
/// allocation whose users changed is examined again in this run when it
/// comes later in layout order, and left for the next run otherwise.
pub(crate) fn run(g: &mut Graph, dirt: &mut Dirt) -> (usize, u64) {
    let mut visited = 0;
    let mut allocations = Vec::new();
    for b in g.blocks() {
        for &i in g.block_insts(b) {
            visited += 1;
            if matches!(g.inst(i), Inst::New { .. }) {
                allocations.push(i);
            }
        }
    }
    let mut removed = 0;
    let mut ssa = SsaBuilder::default();
    for alloc in allocations {
        if g.block_of(alloc).is_none() {
            continue; // removed while handling an earlier allocation
        }
        let here = layout_key(g, alloc);
        let seen = dirt.allocs.len();
        if let Some(uses) = classify_uses(g, alloc) {
            let Inst::New { class } = *g.inst(alloc) else {
                unreachable!("queued a non-allocation");
            };
            replace_allocation(g, alloc, class, uses, &mut ssa, dirt);
            removed += 1;
        }
        // The allocations still ahead in layout order are examined later
        // in this run; those passed are the next run's.
        for other in dirt.allocs.split_off(seen) {
            if g.block_of(other).is_some() && layout_key(g, other) <= here {
                dirt.allocs.push(other);
            }
        }
    }
    (removed, visited)
}

/// Can scalar replacement remove `alloc` as the graph stands?
pub(crate) fn dissolvable(g: &Graph, alloc: InstId) -> bool {
    g.block_of(alloc).is_some()
        && matches!(g.inst(alloc), Inst::New { .. })
        && classify_uses(g, alloc).is_some()
}

/// Where `i` sits: its block's index and its position in the block.
fn layout_key(g: &Graph, i: InstId) -> (usize, usize) {
    let b = g.block_of(i).expect("attached instruction");
    let pos = g
        .block_insts(b)
        .iter()
        .position(|&x| x == i)
        .expect("inst in its block");
    (b.index(), pos)
}

/// Replaces `old` by `new` everywhere and removes `old`.
fn replace(g: &mut Graph, old: InstId, new: InstId, dirt: &mut Dirt) {
    for user in user_blocks(g, old) {
        dirt.canon.insert(user);
        dirt.gvn.insert(user);
    }
    dirt.replacing(g, old, new);
    g.replace_all_uses(old, new);
    remove(g, old, dirt);
}

/// Removes `i`, which has no users left.
fn remove(g: &mut Graph, i: InstId, dirt: &mut Dirt) {
    dirt.removing(g, i);
    g.remove_inst(i);
}

/// Classifies every use of `alloc`, read off its def-use list in layout
/// order (block index, position in block — the order the loads and
/// stores are later grouped and replaced in). Returns `None` when the
/// object escapes (or a use cannot be folded away).
fn classify_uses(g: &Graph, alloc: InstId) -> Option<Vec<AllocUse>> {
    g.users_in_layout_order(alloc)
        .into_iter()
        .map(|user| match user {
            Use::Inst(i) => classify_use(g, alloc, i),
            Use::Term(_) => None, // returned
        })
        .collect()
}

/// Classifies the use of `alloc` by instruction `i`; `None` is an escape.
fn classify_use(g: &Graph, alloc: InstId, i: InstId) -> Option<AllocUse> {
    match g.inst(i) {
        Inst::LoadField { object, field } if *object == alloc => Some(AllocUse::Load {
            inst: i,
            field: *field,
        }),
        Inst::StoreField {
            object,
            field,
            value,
        } if *object == alloc && *value != alloc => Some(AllocUse::Store {
            inst: i,
            field: *field,
            value: *value,
        }),
        Inst::InstanceOf { object, .. } if *object == alloc => Some(AllocUse::Test { inst: i }),
        Inst::Compare {
            op: CmpOp::Eq | CmpOp::Ne,
            lhs,
            rhs,
        } => {
            // Identity comparison folds when the other side is a
            // null constant, a (different) allocation, or the
            // object itself.
            let other = if *lhs == alloc { *rhs } else { *lhs };
            let foldable = other == alloc
                || matches!(g.inst(other), Inst::Const(c) if c.is_null())
                || matches!(g.inst(other), Inst::New { .. });
            // An unknown reference would survive.
            foldable.then_some(AllocUse::Test { inst: i })
        }
        _ => None, // any other use is an escape
    }
}

fn replace_allocation(
    g: &mut Graph,
    alloc: InstId,
    class: ClassId,
    uses: Vec<AllocUse>,
    ssa: &mut SsaBuilder,
    dirt: &mut Dirt,
) {
    let alloc_block = g.block_of(alloc).expect("live allocation");
    dirt.canon.insert(alloc_block);
    dirt.gvn.insert(alloc_block);
    let table = g.class_table().clone();

    // Group loads/stores per field.
    let mut fields: HashMap<FieldId, FieldAccesses> = HashMap::new();
    let mut tests = Vec::new();
    for u in uses {
        match u {
            AllocUse::Load { inst, field } => fields.entry(field).or_default().0.push(inst),
            AllocUse::Store { inst, field, value } => {
                fields.entry(field).or_default().1.push((inst, value))
            }
            AllocUse::Test { inst } => tests.push(inst),
        }
    }

    let rpo = reverse_postorder(g);
    // Code a branch folded this round cut off, which DCE clears next. Its
    // edges still reach live blocks, so the SSA builder may look there,
    // and it may still hold loads of the allocation: the fields hold
    // nothing in particular in it, so they read as their defaults.
    let mut cut_off = vec![true; g.block_count()];
    for &b in &rpo {
        cut_off[b.index()] = false;
    }
    let cut_off: Vec<BlockId> = g.blocks().filter(|b| cut_off[b.index()]).collect();
    for (field, (loads, stores)) in fields {
        let field_ty = table.field(field).ty;
        // The zero-initialized default value, materialized right after the
        // allocation point so it dominates every use.
        let zero = zero_const(field_ty);
        let alloc_pos = g
            .block_insts(alloc_block)
            .iter()
            .position(|&i| i == alloc)
            .expect("alloc in its block");
        let default = g.insert_inst(alloc_block, alloc_pos + 1, Inst::Const(zero), field_ty);

        // Per-block events in position order: the allocation acts as a
        // store of the default value.
        #[derive(Clone, Copy)]
        enum Event {
            Def(InstId), // value defined (store / alloc default)
            Use(InstId), // load to rewrite
        }
        let mut events: HashMap<BlockId, Vec<(usize, Event)>> = HashMap::new();
        events
            .entry(alloc_block)
            .or_default()
            .push((alloc_pos + 1, Event::Def(default)));
        for &(store, value) in &stores {
            let b = g.block_of(store).expect("live store");
            let pos = g
                .block_insts(b)
                .iter()
                .position(|&i| i == store)
                .expect("store in its block");
            events.entry(b).or_default().push((pos, Event::Def(value)));
        }
        for &load in &loads {
            let b = g.block_of(load).expect("live load");
            let pos = g
                .block_insts(b)
                .iter()
                .position(|&i| i == load)
                .expect("load in its block");
            events.entry(b).or_default().push((pos, Event::Use(load)));
        }
        for evs in events.values_mut() {
            evs.sort_by_key(|&(pos, _)| pos);
        }

        // End-of-block definitions for the SSA builder.
        let mut defs: HashMap<BlockId, InstId> = HashMap::new();
        for (&b, evs) in &events {
            let last_def = evs.iter().rev().find_map(|&(_, e)| match e {
                Event::Def(v) => Some(v),
                Event::Use(_) => None,
            });
            if let Some(v) = last_def {
                defs.insert(b, v);
            }
        }
        for &b in &cut_off {
            defs.entry(b).or_insert(default);
        }
        ssa.reset(field_ty, defs);

        // Rewrite loads in RPO so earlier replacements are visible when a
        // later stored value happens to be an earlier load.
        let mut replacements: Vec<(InstId, InstId)> = Vec::new();
        for &b in &rpo {
            let Some(evs) = events.get(&b) else { continue };
            let mut current: Option<InstId> = None;
            for &(_, e) in evs {
                match e {
                    Event::Def(v) => current = Some(v),
                    Event::Use(load) => {
                        let v = match current {
                            Some(v) => v,
                            None => ssa.value_at_start(g, b),
                        };
                        replacements.push((load, v));
                    }
                }
            }
        }
        for b in &cut_off {
            for &(_, e) in events.get(b).into_iter().flatten() {
                if let Event::Use(load) = e {
                    replacements.push((load, default));
                }
            }
        }
        // Apply the replacements. A replacement target can itself be a
        // load that was replaced earlier (store p.x, load p.x chains), so
        // chase through the already-applied map.
        let mut applied: HashMap<InstId, InstId> = HashMap::new();
        for (load, v) in replacements {
            let mut target = v;
            while let Some(&t) = applied.get(&target) {
                target = t;
            }
            debug_assert_ne!(target, load, "load cannot define its own field");
            replace(g, load, target, dirt);
            applied.insert(load, target);
        }
        for (store, _) in stores {
            remove(g, store, dirt);
        }
    }

    // Fold identity tests and type tests.
    for test in tests {
        let result = match g.inst(test).clone() {
            Inst::InstanceOf { class: tested, .. } => tested == class,
            Inst::Compare { op, lhs, rhs } => {
                let other = if lhs == alloc { rhs } else { lhs };
                let eq = if other == alloc {
                    true // alloc == alloc
                } else {
                    // null or a different allocation: never identical.
                    false
                };
                match op {
                    CmpOp::Eq => eq,
                    CmpOp::Ne => !eq,
                    _ => unreachable!("classified as foldable test"),
                }
            }
            other => unreachable!("unexpected test instruction {other:?}"),
        };
        let b = g.block_of(test).expect("live test");
        let pos = g
            .block_insts(b)
            .iter()
            .position(|&i| i == test)
            .expect("test in its block");
        let c = g.insert_inst(b, pos, Inst::Const(ConstValue::Bool(result)), Type::Bool);
        replace(g, test, c, dirt);
    }

    assert!(
        !g.has_uses(alloc),
        "allocation still used after scalar replacement"
    );
    remove(g, alloc, dirt);
}

fn zero_const(ty: Type) -> ConstValue {
    match ty {
        Type::Int => ConstValue::Int(0),
        Type::Bool => ConstValue::Bool(false),
        Type::Ref(c) => ConstValue::Null(c),
        Type::Arr => ConstValue::NullArr,
        Type::Void => unreachable!("fields cannot be void"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, GraphBuilder, Value};
    use std::sync::Arc;

    fn point_table() -> (Arc<ClassTable>, ClassId, FieldId, FieldId) {
        let mut t = ClassTable::new();
        let c = t.add_class("P");
        let fx = t.add_field(c, "x", Type::Int);
        let fy = t.add_field(c, "y", Type::Int);
        (Arc::new(t), c, fx, fy)
    }

    #[test]
    fn straightline_allocation_dissolves() {
        let (t, c, fx, fy) = point_table();
        let mut b = GraphBuilder::new("s", &[Type::Int], t);
        let x = b.param(0);
        let p = b.new_object(c);
        b.store(p, fx, x);
        let l1 = b.load(p, fx); // = x
        let l2 = b.load(p, fy); // = 0 (default)
        let s = b.add(l1, l2);
        b.ret(Some(s));
        let mut g = b.finish();
        assert_eq!(scalar_replace(&mut g), 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(7)]).outcome, Ok(Value::Int(7)));
        // No allocation, loads or stores remain.
        assert!(!g
            .blocks()
            .any(|bl| g.block_insts(bl).iter().any(|&i| matches!(
                g.inst(i),
                Inst::New { .. } | Inst::LoadField { .. } | Inst::StoreField { .. }
            ))));
    }

    #[test]
    fn listing4_shape_after_duplication() {
        // Listing 4 of the paper: in the then branch the object is fresh,
        // `return p.x` becomes `return 0`.
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("pea", &[], t);
        let p = b.new_object(c);
        let l = b.load(p, fx);
        b.ret(Some(l));
        let mut g = b.finish();
        assert_eq!(scalar_replace(&mut g), 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Int(0)));
    }

    #[test]
    fn branch_stores_get_phi() {
        // if (c) p.x = 1 else p.x = 2; return p.x → φ(1,2)
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("br", &[Type::Bool], t);
        let cond = b.param(0);
        let p = b.new_object(c);
        let one = b.iconst(1);
        let two = b.iconst(2);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(cond, bt, bf, 0.5);
        b.switch_to(bt);
        b.store(p, fx, one);
        b.jump(bm);
        b.switch_to(bf);
        b.store(p, fx, two);
        b.jump(bm);
        b.switch_to(bm);
        let l = b.load(p, fx);
        b.ret(Some(l));
        let mut g = b.finish();
        assert_eq!(scalar_replace(&mut g), 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Bool(true)]).outcome, Ok(Value::Int(1)));
        assert_eq!(
            execute(&g, &[Value::Bool(false)]).outcome,
            Ok(Value::Int(2))
        );
        // A φ was inserted at the merge.
        assert_eq!(g.phis(bm).len(), 1);
    }

    #[test]
    fn escaping_objects_survive() {
        let (t, c, fx, _) = point_table();
        // Escape via invoke.
        let mut b = GraphBuilder::new("esc", &[], t.clone());
        let p = b.new_object(c);
        let _call = b.invoke(vec![p]);
        let l = b.load(p, fx);
        b.ret(Some(l));
        let mut g = b.finish();
        assert_eq!(scalar_replace(&mut g), 0);
        verify(&g).unwrap();

        // Escape via return.
        let mut b2 = GraphBuilder::new("esc2", &[], t.clone());
        let p2 = b2.new_object(c);
        b2.ret(Some(p2));
        let mut g2 = b2.finish();
        assert_eq!(scalar_replace(&mut g2), 0);

        // Escape by being stored into another object.
        let mut tt = ClassTable::new();
        let holder = tt.add_class("H");
        let inner = tt.add_class("I");
        let fref = tt.add_field(holder, "r", Type::Ref(inner));
        let mut b3 = GraphBuilder::new("esc3", &[Type::Ref(holder)], Arc::new(tt));
        let h = b3.param(0);
        let o = b3.new_object(inner);
        b3.store(h, fref, o);
        b3.ret(None);
        let mut g3 = b3.finish();
        assert_eq!(scalar_replace(&mut g3), 0);
    }

    #[test]
    fn phi_use_counts_as_escape() {
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("phiesc", &[Type::Bool, Type::Ref(c)], t);
        let cond = b.param(0);
        let other = b.param(1);
        let p = b.new_object(c);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(cond, bt, bf, 0.5);
        b.switch_to(bt);
        b.jump(bm);
        b.switch_to(bf);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![p, other], Type::Ref(c));
        let l = b.load(phi, fx);
        b.ret(Some(l));
        let mut g = b.finish();
        // The φ use makes p escape — exactly the Listing 3 situation that
        // needs duplication first.
        assert_eq!(scalar_replace(&mut g), 0);
        verify(&g).unwrap();
    }

    #[test]
    fn identity_tests_fold() {
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("id", &[], t);
        let p = b.new_object(c);
        let q = b.new_object(c);
        let null = b.null(c);
        let e1 = b.cmp(CmpOp::Eq, p, null); // false
        let e2 = b.cmp(CmpOp::Ne, p, q); // true
        let e3 = b.cmp(CmpOp::Eq, p, p); // true
        let io = b.instance_of(p, c); // true
        let _ = (e1, e2, e3, io);
        let l = b.load(p, fx);
        let _ = q;
        b.ret(Some(l));
        let mut g = b.finish();
        let n = scalar_replace(&mut g);
        assert_eq!(n, 2);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[]).outcome, Ok(Value::Int(0)));
    }

    #[test]
    fn store_load_store_load_sequence() {
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("seq", &[Type::Int], t);
        let x = b.param(0);
        let p = b.new_object(c);
        b.store(p, fx, x);
        let l1 = b.load(p, fx);
        let dbl = b.add(l1, l1);
        b.store(p, fx, dbl);
        let l2 = b.load(p, fx);
        b.ret(Some(l2));
        let mut g = b.finish();
        assert_eq!(scalar_replace(&mut g), 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(3)]).outcome, Ok(Value::Int(6)));
    }

    #[test]
    fn loop_carried_field_gets_phi() {
        // p.x starts at 0; loop adds 1 each iteration; return p.x.
        let (t, c, fx, _) = point_table();
        let mut b = GraphBuilder::new("loop", &[Type::Int], t);
        let n = b.param(0);
        let one = b.iconst(1);
        let zero = b.iconst(0);
        let p = b.new_object(c);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        let cur = b.load(p, fx);
        let next = b.add(cur, one);
        b.store(p, fx, next);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let cond = b.cmp(CmpOp::Lt, i, n);
        b.branch(cond, body, exit, 0.9);
        b.switch_to(exit);
        let result = b.load(p, fx);
        b.ret(Some(result));
        let mut g = b.finish();
        // Fix the loop counter phi's back-edge input.
        let iplus = g.append_inst(
            body,
            Inst::Binary {
                op: dbds_ir::BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = iplus;
            }
        });
        verify(&g).unwrap();
        assert_eq!(scalar_replace(&mut g), 1);
        verify(&g).unwrap();
        assert_eq!(execute(&g, &[Value::Int(5)]).outcome, Ok(Value::Int(5)));
        assert_eq!(execute(&g, &[Value::Int(0)]).outcome, Ok(Value::Int(0)));
    }
}
