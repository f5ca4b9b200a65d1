//! Code-shape fragments the workload generator composes.
//!
//! Every fragment is a small control-flow pattern modeled on one of the
//! optimization opportunities from §2 of the paper (or deliberately on
//! none). A fragment consumes the running accumulator value and produces
//! a new one; fragments chain sequentially, optionally inside loops.

use dbds_ir::{BlockId, CmpOp, FieldId, GraphBuilder, Inst, InstId, Type};
use rand::rngs::SmallRng;
use rand::Rng;

/// The kinds of fragments the generator can emit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FragmentKind {
    /// Figure 1: constant folding after duplication.
    ConstFold,
    /// Listings 1–2: a dominated condition provable on one path.
    CondElim,
    /// Figure 3: multiplication by a path-constant power of two.
    StrengthReduce,
    /// Listings 3–4: allocation escaping only through a φ.
    Pea,
    /// Listings 5–6: a partially redundant field read.
    ReadElim,
    /// A type check (instanceof) decidable on one path — the Scala-style
    /// opportunity.
    TypeCheck,
    /// A merge with no opportunity at all.
    Neutral,
    /// A large merge with a tiny opportunity on a cold path: profitable
    /// for *dupalot*, rejected by the DBDS trade-off.
    Bloat,
    /// A counted loop whose body contains a foldable diamond (hot code).
    HotLoop,
    /// An interpreter-style dispatch chain: a three-way merge whose φ
    /// carries path constants consumed by a later test (the Octane
    /// bytecode-loop pattern).
    Dispatch,
    /// An opaque call (kills memory caches, dominates run time).
    Invoke,
    /// Array traffic with no duplication opportunity.
    Array,
    /// A cold diamond whose merge re-tests the φ it just formed, with a
    /// constant-arithmetic cascade behind the decided arm. Merge
    /// duplication alone folds only the test (rejected by the
    /// trade-off); the branch-splitting continuation also claims the
    /// cascade.
    DiamondChain,
    /// Two correlated conditionals: the merge tests a predicate
    /// *derived* from its φ (`(φ & 7) == K & 7`), so the second branch
    /// is decidable only by carrying the φ constant through the first.
    CorrelatedConditionals,
    /// A ladder of repeated tests of the same φ value: each decided
    /// rung leads to another decided rung — the multi-hop
    /// branch-splitting shape.
    RepeatedTestLadder,
}

impl FragmentKind {
    /// All fragment kinds.
    pub const ALL: [FragmentKind; 15] = [
        FragmentKind::ConstFold,
        FragmentKind::CondElim,
        FragmentKind::StrengthReduce,
        FragmentKind::Pea,
        FragmentKind::ReadElim,
        FragmentKind::TypeCheck,
        FragmentKind::Neutral,
        FragmentKind::Bloat,
        FragmentKind::HotLoop,
        FragmentKind::Dispatch,
        FragmentKind::Invoke,
        FragmentKind::Array,
        FragmentKind::DiamondChain,
        FragmentKind::CorrelatedConditionals,
        FragmentKind::RepeatedTestLadder,
    ];
}

/// Shared, escaped objects every generated unit sets up in its entry
/// block; fragments read and write them.
#[derive(Clone, Copy, Debug)]
pub struct SharedState {
    /// A `Box` instance whose `val` field fragments read.
    pub box_obj: InstId,
    /// A `Holder` whose `r` field stores a `Box` (loads of `r` have
    /// unknown exact class — the raw material for type checks).
    pub holder: InstId,
    /// A `Counter` used as a store sink.
    pub sink: InstId,
    /// `Box.val`.
    pub f_val: FieldId,
    /// `Holder.r`.
    pub f_ref: FieldId,
    /// `Counter.n`.
    pub f_n: FieldId,
    /// The `Box` class.
    pub box_cls: dbds_ir::ClassId,
}

/// The evolving generator context: builder cursor, RNG, accumulator and
/// the function parameters.
#[derive(Debug)]
pub struct FragmentCtx<'a> {
    /// Builder positioned at an open block.
    pub b: &'a mut GraphBuilder,
    /// Deterministic randomness.
    pub rng: &'a mut SmallRng,
    /// The running accumulator (always `Int`).
    pub acc: InstId,
    /// The three integer parameters.
    pub params: [InstId; 3],
    /// The shared escaped objects.
    pub shared: SharedState,
}

impl FragmentCtx<'_> {
    fn p(&mut self) -> InstId {
        self.params[self.rng.random_range(0..3)]
    }
}

/// Emits `kind` at the current cursor and returns the new accumulator.
/// The cursor is left at a fresh open block.
pub fn emit(kind: FragmentKind, ctx: &mut FragmentCtx<'_>) -> InstId {
    match kind {
        FragmentKind::ConstFold => emit_const_fold(ctx),
        FragmentKind::CondElim => emit_cond_elim(ctx),
        FragmentKind::StrengthReduce => emit_strength_reduce(ctx),
        FragmentKind::Pea => emit_pea(ctx),
        FragmentKind::ReadElim => emit_read_elim(ctx),
        FragmentKind::TypeCheck => emit_type_check(ctx),
        FragmentKind::Neutral => emit_neutral(ctx),
        FragmentKind::Bloat => emit_bloat(ctx),
        FragmentKind::HotLoop => emit_hot_loop(ctx),
        FragmentKind::Dispatch => emit_dispatch(ctx),
        FragmentKind::Invoke => emit_invoke(ctx),
        FragmentKind::Array => emit_array(ctx),
        FragmentKind::DiamondChain => emit_diamond_chain(ctx),
        FragmentKind::CorrelatedConditionals => emit_correlated_conditionals(ctx),
        FragmentKind::RepeatedTestLadder => emit_repeated_test_ladder(ctx),
    }
}

/// Builds a diamond: returns `(then, else, merge)` with the cursor left
/// *unswitched* (caller fills the branches).
fn diamond(ctx: &mut FragmentCtx<'_>, cond: InstId, prob_then: f64) -> (BlockId, BlockId, BlockId) {
    let bt = ctx.b.new_block();
    let bf = ctx.b.new_block();
    let bm = ctx.b.new_block();
    ctx.b.branch(cond, bt, bf, prob_then);
    (bt, bf, bm)
}

/// Appends `n` param-mixing instructions to the current block — filler
/// code that never folds. Merge blocks carry such payload so duplicating
/// them has a genuine code-size cost, as in real compilation units.
fn payload(ctx: &mut FragmentCtx<'_>, start: InstId, n: usize) -> InstId {
    let mut t = start;
    for i in 0..n {
        let p = ctx.p();
        t = match i % 4 {
            0 => ctx.b.add(t, p),
            1 => ctx.b.binop(dbds_ir::BinOp::Xor, t, p),
            2 => ctx.b.sub(t, p),
            _ => ctx.b.binop(dbds_ir::BinOp::Or, t, p),
        };
    }
    t
}

/// Figure 1's shape: `φ(acc, C)` feeding an addition with a constant.
fn emit_const_fold(ctx: &mut FragmentCtx<'_>) -> InstId {
    let k = ctx.b.iconst(ctx.rng.random_range(-8..8));
    let zero = ctx.b.iconst(ctx.rng.random_range(0..4));
    let c = ctx.b.cmp(CmpOp::Gt, ctx.acc, k);
    let prob = ctx.rng.random_range(0.3..0.7);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    // φ inputs align with pred order [bt, bf].
    let phi = ctx.b.phi(vec![ctx.acc, zero], Type::Int);
    let two = ctx.b.iconst(2);
    let sum = ctx.b.add(two, phi);
    let n = ctx.rng.random_range(4..10);
    let tail = payload(ctx, sum, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, tail)
}

/// Listing 1's shape: the φ's constant input decides a later condition.
fn emit_cond_elim(ctx: &mut FragmentCtx<'_>) -> InstId {
    let zero = ctx.b.iconst(0);
    let thirteen = ctx.b.iconst(13);
    let twelve = ctx.b.iconst(12);
    let c = ctx.b.cmp(CmpOp::Gt, ctx.acc, zero);
    let prob = ctx.rng.random_range(0.3..0.7);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let p = ctx.b.phi(vec![ctx.acc, thirteen], Type::Int);
    let c2 = ctx.b.cmp(CmpOp::Gt, p, twelve);
    let (b12, bi, join) = diamond(ctx, c2, 0.5);
    ctx.b.switch_to(b12);
    ctx.b.jump(join);
    ctx.b.switch_to(bi);
    let seven = ctx.b.iconst(7);
    let masked = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, seven);
    ctx.b.jump(join);
    ctx.b.switch_to(join);
    let t = ctx.b.phi(vec![twelve, masked], Type::Int);
    let n = ctx.rng.random_range(3..7);
    let tail = payload(ctx, t, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, tail)
}

/// A multiplication by `φ(2^k, odd)`: becomes a shift on one path.
fn emit_strength_reduce(ctx: &mut FragmentCtx<'_>) -> InstId {
    let pw = ctx.b.iconst(1 << ctx.rng.random_range(1..5));
    let p = ctx.p();
    let one = ctx.b.iconst(1);
    let odd = ctx.b.binop(dbds_ir::BinOp::Or, p, one);
    let k = ctx.b.iconst(0);
    let c = ctx.b.cmp(CmpOp::Ge, ctx.acc, k);
    let prob = ctx.rng.random_range(0.4..0.9);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let phi = ctx.b.phi(vec![pw, odd], Type::Int);
    let m = ctx.b.mul(ctx.acc, phi);
    let n = ctx.rng.random_range(3..8);
    let tail = payload(ctx, m, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    let mask = ctx.b.iconst(0xffff);
    ctx.b.binop(dbds_ir::BinOp::And, tail, mask)
}

/// Listing 3's shape: an allocation whose only escape is the φ.
fn emit_pea(ctx: &mut FragmentCtx<'_>) -> InstId {
    let one = ctx.b.iconst(1);
    let parity = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, one);
    let zero = ctx.b.iconst(0);
    let c = ctx.b.cmp(CmpOp::Eq, parity, zero);
    let prob = ctx.rng.random_range(0.3..0.7);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    let shared = ctx.shared;
    ctx.b.switch_to(bt);
    let fresh = ctx.b.new_object(shared.box_cls);
    ctx.b.store(fresh, shared.f_val, ctx.acc);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let obj = ctx
        .b
        .phi(vec![fresh, shared.box_obj], Type::Ref(shared.box_cls));
    let v = ctx.b.load(obj, shared.f_val);
    let n = ctx.rng.random_range(5..12);
    let tail = payload(ctx, v, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, tail)
}

/// Listings 5–6: a read made fully redundant on one path by duplication.
fn emit_read_elim(ctx: &mut FragmentCtx<'_>) -> InstId {
    let zero = ctx.b.iconst(0);
    let c = ctx.b.cmp(CmpOp::Gt, ctx.acc, zero);
    let prob = ctx.rng.random_range(0.3..0.8);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    let shared = ctx.shared;
    ctx.b.switch_to(bt);
    let read1 = ctx.b.load(shared.box_obj, shared.f_val);
    ctx.b.store(shared.sink, shared.f_n, read1);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.store(shared.sink, shared.f_n, zero);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let read2 = ctx.b.load(shared.box_obj, shared.f_val);
    let n = ctx.rng.random_range(4..10);
    let tail = payload(ctx, read2, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, tail)
}

/// A type check decidable only after duplication: `φ(new Box, holder.r)
/// instanceof Box`.
fn emit_type_check(ctx: &mut FragmentCtx<'_>) -> InstId {
    let one = ctx.b.iconst(1);
    let bit = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, one);
    let zero = ctx.b.iconst(0);
    let c = ctx.b.cmp(CmpOp::Ne, bit, zero);
    let prob = ctx.rng.random_range(0.3..0.7);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    let shared = ctx.shared;
    ctx.b.switch_to(bt);
    let fresh = ctx.b.new_object(shared.box_cls);
    ctx.b.store(fresh, shared.f_val, ctx.acc);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    let loaded = ctx.b.load(shared.holder, shared.f_ref);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let obj = ctx.b.phi(vec![fresh, loaded], Type::Ref(shared.box_cls));
    let is_box = ctx.b.instance_of(obj, shared.box_cls);
    let (byes, bno, join) = diamond(ctx, is_box, 0.9);
    ctx.b.switch_to(byes);
    let v = ctx.b.load(obj, shared.f_val);
    ctx.b.jump(join);
    ctx.b.switch_to(bno);
    ctx.b.jump(join);
    ctx.b.switch_to(join);
    let t = ctx.b.phi(vec![v, zero], Type::Int);
    let n = ctx.rng.random_range(3..7);
    let tail = payload(ctx, t, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, tail)
}

/// A merge with no opportunity: the φ mixes two opaque values.
fn emit_neutral(ctx: &mut FragmentCtx<'_>) -> InstId {
    let p1 = ctx.p();
    let p2 = ctx.p();
    let k = ctx.b.iconst(ctx.rng.random_range(-16..16));
    let c = ctx.b.cmp(CmpOp::Lt, ctx.acc, k);
    let prob = ctx.rng.random_range(0.2..0.8);
    let (bt, bf, bm) = diamond(ctx, c, prob);
    ctx.b.switch_to(bt);
    let a = ctx.b.add(ctx.acc, p1);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    let s = ctx.b.sub(ctx.acc, p2);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let phi = ctx.b.phi(vec![a, s], Type::Int);
    let mixed = ctx.b.binop(dbds_ir::BinOp::Xor, phi, p1);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    mixed
}

/// A large merge with one tiny fold on a cold path: the dupalot trap.
fn emit_bloat(ctx: &mut FragmentCtx<'_>) -> InstId {
    let fifteen = ctx.b.iconst(15);
    let masked = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, fifteen);
    let zero = ctx.b.iconst(0);
    let c = ctx.b.cmp(CmpOp::Eq, masked, zero);
    // The constant-carrying path is cold.
    let cold = ctx.rng.random_range(0.01..0.04);
    let kc = ctx.b.iconst(5);
    let (bt, bf, bm) = diamond(ctx, c, cold);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let phi = ctx.b.phi(vec![kc, ctx.acc], Type::Int);
    // One small fold on the cold path…
    let three = ctx.b.iconst(3);
    let foldable = ctx.b.add(phi, three);
    // …buried in a long param-dependent chain that never folds.
    let mut t = foldable;
    let body_len = ctx.rng.random_range(8..16);
    for i in 0..body_len {
        let p = ctx.p();
        t = match i % 4 {
            0 => ctx.b.add(t, p),
            1 => ctx.b.binop(dbds_ir::BinOp::Xor, t, p),
            2 => ctx.b.sub(t, p),
            _ => ctx.b.binop(dbds_ir::BinOp::Or, t, p),
        };
    }
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    t
}

/// A counted loop whose body holds a foldable diamond — the hot-code
/// opportunities the probability term is meant to prioritize.
fn emit_hot_loop(ctx: &mut FragmentCtx<'_>) -> InstId {
    let trips = ctx.b.iconst(ctx.rng.random_range(6..24));
    let zero = ctx.b.iconst(0);
    let one = ctx.b.iconst(1);
    let four = ctx.b.iconst(4);
    let header = ctx.b.new_block();
    let body = ctx.b.new_block();
    let latch = ctx.b.new_block(); // also the inner diamond's merge
    let exit = ctx.b.new_block();
    // Wire the back edge before the header φs exist (set_terminator
    // refuses new edges into blocks with φs).
    ctx.b.jump(header);
    ctx.b.switch_to(latch);
    ctx.b.jump(header);
    // Header: preds are [pre-header, latch]; back-edge inputs are patched
    // once the latch computes them.
    ctx.b.switch_to(header);
    let i = ctx.b.phi(vec![zero, zero], Type::Int);
    let acc_phi = ctx.b.phi(vec![ctx.acc, ctx.acc], Type::Int);
    let c = ctx.b.cmp(CmpOp::Lt, i, trips);
    ctx.b.branch(c, body, exit, 0.92);
    // Body: an inner diamond merging at the latch, carrying one of the
    // §2 opportunity patterns — hot-loop boxing (PEA), redundant reads,
    // or plain constant folding.
    ctx.b.switch_to(body);
    let bit = ctx.b.binop(dbds_ir::BinOp::And, acc_phi, one);
    let inner_c = ctx.b.cmp(CmpOp::Eq, bit, zero);
    let bt = ctx.b.new_block();
    let bf = ctx.b.new_block();
    ctx.b.branch(inner_c, bt, bf, 0.5);
    let shared = ctx.shared;
    let flavor = ctx.rng.random_range(0..10);
    let stepped = if flavor < 2 {
        // PEA flavor: a per-iteration allocation escaping only via the φ
        // (auto-boxing inside a hot loop).
        ctx.b.switch_to(bt);
        let fresh = ctx.b.new_object(shared.box_cls);
        ctx.b.store(fresh, shared.f_val, acc_phi);
        ctx.b.jump(latch);
        ctx.b.switch_to(bf);
        ctx.b.jump(latch);
        ctx.b.switch_to(latch);
        let obj = ctx
            .b
            .phi(vec![fresh, shared.box_obj], Type::Ref(shared.box_cls));
        let v = ctx.b.load(obj, shared.f_val);
        ctx.b.add(v, four)
    } else if flavor < 5 {
        // Read-elimination flavor: the merge re-reads a field one path
        // already read.
        ctx.b.switch_to(bt);
        let r1 = ctx.b.load(shared.box_obj, shared.f_val);
        ctx.b.store(shared.sink, shared.f_n, r1);
        ctx.b.jump(latch);
        ctx.b.switch_to(bf);
        ctx.b.jump(latch);
        ctx.b.switch_to(latch);
        let r2 = ctx.b.load(shared.box_obj, shared.f_val);
        let masked = ctx.b.binop(dbds_ir::BinOp::And, r2, four);
        ctx.b.add(masked, acc_phi)
    } else {
        // Constant-folding flavor (Figure 1 inside hot code).
        ctx.b.switch_to(bt);
        ctx.b.jump(latch);
        ctx.b.switch_to(bf);
        ctx.b.jump(latch);
        ctx.b.switch_to(latch);
        let phi = ctx.b.phi(vec![acc_phi, zero], Type::Int);
        ctx.b.add(phi, four)
    };
    let acc_next = ctx.b.add(stepped, i);
    let i_next = ctx.b.add(i, one);
    {
        let g = ctx.b.graph_mut();
        g.rewrite_inputs(i, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = i_next;
            }
        });
        g.rewrite_inputs(acc_phi, |inst| {
            if let Inst::Phi { inputs } = inst {
                inputs[1] = acc_next;
            }
        });
    }
    ctx.b.switch_to(exit);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    acc_phi
}

/// An interpreter-style dispatch chain: `op = acc & 3` selects one of
/// three handlers; each handler pins a constant into the join φ, and the
/// dispatch tail re-tests the φ — decidable only after duplication.
fn emit_dispatch(ctx: &mut FragmentCtx<'_>) -> InstId {
    let three = ctx.b.iconst(3);
    let zero = ctx.b.iconst(0);
    let one = ctx.b.iconst(1);
    let k0 = ctx.b.iconst(ctx.rng.random_range(16..32));
    let k1 = ctx.b.iconst(ctx.rng.random_range(32..48));
    let op = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, three);

    let h0 = ctx.b.new_block();
    let t1 = ctx.b.new_block();
    let h1 = ctx.b.new_block();
    let h2 = ctx.b.new_block();
    let join = ctx.b.new_block();

    let is0 = ctx.b.cmp(CmpOp::Eq, op, zero);
    ctx.b.branch(is0, h0, t1, 0.25);
    ctx.b.switch_to(h0);
    ctx.b.jump(join);
    ctx.b.switch_to(t1);
    let is1 = ctx.b.cmp(CmpOp::Eq, op, one);
    ctx.b.branch(is1, h1, h2, 0.33);
    ctx.b.switch_to(h1);
    ctx.b.jump(join);
    ctx.b.switch_to(h2);
    ctx.b.jump(join);

    // Join over the three handlers, then the re-test of the dispatched
    // value — the conditional-elimination target.
    ctx.b.switch_to(join);
    let d = ctx.b.phi(vec![k0, k1, ctx.acc], Type::Int);
    let again = ctx.b.cmp(CmpOp::Eq, d, k0);
    let (ba, bb, tail) = diamond(ctx, again, 0.25);
    ctx.b.switch_to(ba);
    let fast = ctx.b.add(ctx.acc, one);
    ctx.b.jump(tail);
    ctx.b.switch_to(bb);
    let p = ctx.p();
    let slow = ctx.b.add(d, p);
    ctx.b.jump(tail);
    ctx.b.switch_to(tail);
    let t = ctx.b.phi(vec![fast, slow], Type::Int);
    let n = ctx.rng.random_range(2..6);
    let mixed = payload(ctx, t, n);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    mixed
}

/// An opaque call.
fn emit_invoke(ctx: &mut FragmentCtx<'_>) -> InstId {
    let p = ctx.p();
    let r = ctx.b.invoke(vec![ctx.acc, p]);
    let mask = ctx.b.iconst(0xfffff);
    ctx.b.binop(dbds_ir::BinOp::And, r, mask)
}

/// Array traffic: store then reload through a small scratch array.
fn emit_array(ctx: &mut FragmentCtx<'_>) -> InstId {
    let eight = ctx.b.iconst(8);
    let seven = ctx.b.iconst(7);
    let arr = ctx.b.new_array(eight);
    let ix = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, seven);
    ctx.b.astore(arr, ix, ctx.acc);
    let v = ctx.b.aload(arr, ix);
    let len = ctx.b.alength(arr);
    ctx.b.add(v, len)
}

/// Appends `n` arithmetic instructions that all fold transitively once
/// `seed` is a known constant — the branch-splitting payoff. Keyed on
/// the dispatched *value* (not the branch condition), so the baseline
/// assume-edge canonicalization cannot claim any of it without
/// duplication.
fn const_cascade(ctx: &mut FragmentCtx<'_>, seed: InstId, n: usize) -> InstId {
    let mut t = seed;
    for i in 0..n {
        let k = ctx.b.iconst(ctx.rng.random_range(2..8));
        t = match i % 3 {
            0 => ctx.b.add(t, k),
            1 => ctx.b.mul(t, k),
            _ => ctx.b.binop(dbds_ir::BinOp::Xor, t, k),
        };
    }
    t
}

/// Caps a fragment result to 16 bits and folds it into the running
/// accumulator from a fresh block (keeps interpreter values bounded
/// even though the cascades multiply).
fn bounded_acc(ctx: &mut FragmentCtx<'_>, t: InstId) -> InstId {
    let mask = ctx.b.iconst(0xffff);
    let bounded = ctx.b.binop(dbds_ir::BinOp::And, t, mask);
    let next = ctx.b.new_block();
    ctx.b.jump(next);
    ctx.b.switch_to(next);
    ctx.b.add(ctx.acc, bounded)
}

/// One cold diamond whose merge re-tests its own φ. Sized against the
/// default cost model so the trade-off prices the two flavors apart:
/// duplicating only the merge folds `cmp + branch` (2 cycles, and
/// `2 × 256 × p < payload` for cold `p ≤ 0.025` against the
/// 12-instruction payload), while continuing through the decided branch
/// adds the ~16-cycle cascade and clears the bar comfortably.
fn one_split_diamond(ctx: &mut FragmentCtx<'_>) -> InstId {
    let k = ctx.rng.random_range(16..24);
    let kc = ctx.b.iconst(k);
    let limit = ctx.b.iconst(k - 1);
    let fifteen = ctx.b.iconst(15);
    let masked = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, fifteen);
    let zero = ctx.b.iconst(0);
    let cond = ctx.b.cmp(CmpOp::Eq, masked, zero);
    let cold = ctx.rng.random_range(0.015..0.025);
    let (bt, bf, bm) = diamond(ctx, cond, cold);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    // φ inputs align with pred order [bt, bf]: the cold arm pins `k`.
    let p = ctx.b.phi(vec![kc, ctx.acc], Type::Int);
    let pay = payload(ctx, p, 12);
    let c2 = ctx.b.cmp(CmpOp::Gt, p, limit);
    let (bhit, bmiss, join) = diamond(ctx, c2, 0.5);
    ctx.b.switch_to(bhit);
    let chain = const_cascade(ctx, p, 12);
    ctx.b.jump(join);
    ctx.b.switch_to(bmiss);
    ctx.b.jump(join);
    ctx.b.switch_to(join);
    let t = ctx.b.phi(vec![chain, pay], Type::Int);
    bounded_acc(ctx, t)
}

/// Two chained instances of the cold re-testing diamond.
fn emit_diamond_chain(ctx: &mut FragmentCtx<'_>) -> InstId {
    ctx.acc = one_split_diamond(ctx);
    one_split_diamond(ctx)
}

/// Correlated conditionals: the merge's terminator tests `(φ & 7) ==
/// k & 7` — a predicate *derived* from the φ, true exactly when the
/// cold arm pinned `k`. Deciding it requires carrying the φ constant
/// through one arithmetic step, which only duplication provides.
fn emit_correlated_conditionals(ctx: &mut FragmentCtx<'_>) -> InstId {
    let k = ctx.rng.random_range(32..40);
    let kc = ctx.b.iconst(k);
    let seven = ctx.b.iconst(7);
    let low = ctx.b.iconst(k & 7);
    let thirty_one = ctx.b.iconst(31);
    let sel = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, thirty_one);
    let cond = ctx.b.cmp(CmpOp::Eq, sel, seven);
    let cold = ctx.rng.random_range(0.012..0.02);
    let (bt, bf, bm) = diamond(ctx, cond, cold);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let p = ctx.b.phi(vec![kc, ctx.acc], Type::Int);
    let pay = payload(ctx, p, 14);
    let derived = ctx.b.binop(dbds_ir::BinOp::And, p, seven);
    let c2 = ctx.b.cmp(CmpOp::Eq, derived, low);
    let (bhit, bmiss, join) = diamond(ctx, c2, 0.3);
    ctx.b.switch_to(bhit);
    let chain = const_cascade(ctx, derived, 12);
    ctx.b.jump(join);
    ctx.b.switch_to(bmiss);
    ctx.b.jump(join);
    ctx.b.switch_to(join);
    let t = ctx.b.phi(vec![chain, pay], Type::Int);
    bounded_acc(ctx, t)
}

/// A ladder of repeated tests of the same φ: `p > 9`, then `p > 17` —
/// on the cold arm (`p = k ∈ [24, 32)`) every rung is decided, so the
/// DST can extend through *two* folded branches, each rung adding its
/// own cascade (the strictly-increasing-benefit trim rule keeps both
/// hops).
fn emit_repeated_test_ladder(ctx: &mut FragmentCtx<'_>) -> InstId {
    let k = ctx.rng.random_range(24..32);
    let kc = ctx.b.iconst(k);
    let l1 = ctx.b.iconst(9);
    let l2 = ctx.b.iconst(17);
    let fifteen = ctx.b.iconst(15);
    let masked = ctx.b.binop(dbds_ir::BinOp::And, ctx.acc, fifteen);
    let zero = ctx.b.iconst(0);
    let cond = ctx.b.cmp(CmpOp::Eq, masked, zero);
    let cold = ctx.rng.random_range(0.015..0.022);
    let (bt, bf, bm) = diamond(ctx, cond, cold);
    ctx.b.switch_to(bt);
    ctx.b.jump(bm);
    ctx.b.switch_to(bf);
    ctx.b.jump(bm);
    ctx.b.switch_to(bm);
    let p = ctx.b.phi(vec![kc, ctx.acc], Type::Int);
    let pay = payload(ctx, p, 12);
    let c1 = ctx.b.cmp(CmpOp::Gt, p, l1);
    let r1 = ctx.b.new_block();
    let s1 = ctx.b.new_block();
    ctx.b.branch(c1, r1, s1, 0.5);
    // Rung 1: a short cascade, then the repeated test of the same φ.
    ctx.b.switch_to(r1);
    let v1 = const_cascade(ctx, p, 5);
    let c2 = ctx.b.cmp(CmpOp::Gt, p, l2);
    let r2 = ctx.b.new_block();
    let s2 = ctx.b.new_block();
    ctx.b.branch(c2, r2, s2, 0.5);
    // Rung 2 merges first (preds [r2, s2]), then the outer join
    // (preds [j2, s1]).
    ctx.b.switch_to(r2);
    let v2 = const_cascade(ctx, v1, 5);
    let j2 = ctx.b.new_block();
    ctx.b.jump(j2);
    ctx.b.switch_to(s2);
    ctx.b.jump(j2);
    ctx.b.switch_to(j2);
    let w2 = ctx.b.phi(vec![v2, v1], Type::Int);
    let j1 = ctx.b.new_block();
    ctx.b.jump(j1);
    ctx.b.switch_to(s1);
    ctx.b.jump(j1);
    ctx.b.switch_to(j1);
    let w1 = ctx.b.phi(vec![w2, pay], Type::Int);
    bounded_acc(ctx, w1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify, ClassTable, Value};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (GraphBuilder, SharedState) {
        let mut t = ClassTable::new();
        let box_cls = t.add_class("Box");
        let f_val = t.add_field(box_cls, "val", Type::Int);
        let holder_cls = t.add_class("Holder");
        let f_ref = t.add_field(holder_cls, "r", Type::Ref(box_cls));
        let counter_cls = t.add_class("Counter");
        let f_n = t.add_field(counter_cls, "n", Type::Int);
        let mut b = GraphBuilder::new("frag", &[Type::Int, Type::Int, Type::Int], Arc::new(t));
        let p1 = b.param(1);
        let box_obj = b.new_object(box_cls);
        b.store(box_obj, f_val, p1);
        let inner = b.new_object(box_cls);
        let holder = b.new_object(holder_cls);
        b.store(holder, f_ref, inner);
        let sink = b.new_object(counter_cls);
        // Escape them all.
        b.invoke(vec![box_obj, holder, sink]);
        (
            b,
            SharedState {
                box_obj,
                holder,
                sink,
                f_val,
                f_ref,
                f_n,
                box_cls,
            },
        )
    }

    #[test]
    fn every_fragment_kind_builds_a_valid_graph() {
        for kind in FragmentKind::ALL {
            let (mut b, shared) = setup();
            let mut rng = SmallRng::seed_from_u64(42);
            let acc = b.param(0);
            let params = [b.param(0), b.param(1), b.param(2)];
            let new_acc = {
                let mut ctx = FragmentCtx {
                    b: &mut b,
                    rng: &mut rng,
                    acc,
                    params,
                    shared,
                };
                emit(kind, &mut ctx)
            };
            b.ret(Some(new_acc));
            let g = b.finish();
            verify(&g).unwrap_or_else(|e| panic!("{kind:?}: {e}\n{g}"));
            // Must execute without trapping on a few inputs.
            for args in [[3i64, 5, 7], [-4, 0, 1], [0, -9, 100]] {
                let vals: Vec<Value> = args.iter().map(|&a| Value::Int(a)).collect();
                let r = execute(&g, &vals);
                assert!(
                    r.outcome.is_ok(),
                    "{kind:?} trapped on {args:?}: {:?}",
                    r.outcome
                );
            }
        }
    }

    #[test]
    fn fragments_are_deterministic() {
        let build = || {
            let (mut b, shared) = setup();
            let mut rng = SmallRng::seed_from_u64(7);
            let acc = b.param(0);
            let params = [b.param(0), b.param(1), b.param(2)];
            let new_acc = {
                let mut ctx = FragmentCtx {
                    b: &mut b,
                    rng: &mut rng,
                    acc,
                    params,
                    shared,
                };
                emit(FragmentKind::Bloat, &mut ctx)
            };
            b.ret(Some(new_acc));
            b.finish()
        };
        let g1 = build();
        let g2 = build();
        assert_eq!(dbds_ir::print_graph(&g1), dbds_ir::print_graph(&g2));
    }

    #[test]
    fn hot_loop_terminates_and_counts_iterations() {
        let (mut b, shared) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let acc = b.param(0);
        let params = [b.param(0), b.param(1), b.param(2)];
        let new_acc = {
            let mut ctx = FragmentCtx {
                b: &mut b,
                rng: &mut rng,
                acc,
                params,
                shared,
            };
            emit(FragmentKind::HotLoop, &mut ctx)
        };
        b.ret(Some(new_acc));
        let g = b.finish();
        verify(&g).unwrap();
        let r = execute(&g, &[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(r.outcome.is_ok());
        // The loop ran: plenty of branch executions.
        assert!(r.counts.get(dbds_ir::InstKind::Branch) > 5);
    }
}
