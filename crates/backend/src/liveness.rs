//! Liveness analysis and live-interval construction for linear scan.

use crate::linearize::Linearization;
use dbds_ir::{Graph, Inst, InstId};
use std::collections::HashMap;

/// A dense bitset over instruction ids.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set able to hold `n` elements.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Inserts `i`; returns `true` if it was not present.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        old & (1 << b) == 0
    }

    /// Removes `i`.
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` on change.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Iterates over the members.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

/// The live interval of one SSA value in the linear layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// The value.
    pub value: InstId,
    /// First position (the definition).
    pub start: u32,
    /// Last position where the value is needed (inclusive).
    pub end: u32,
    /// Number of use sites — the spill heuristic prefers evicting rarely
    /// used long ranges over hot ones.
    pub uses: u32,
}

/// Computes live intervals for all non-void values of `g`.
///
/// φ semantics: a φ input is live at the end of the corresponding
/// predecessor (where the resolving move sits), not inside the φ's own
/// block.
pub fn live_intervals(g: &Graph, lin: &Linearization) -> Vec<Interval> {
    let n = g.inst_count();
    let mut live_in: HashMap<usize, BitSet> = HashMap::new();
    let mut live_out: HashMap<usize, BitSet> = HashMap::new();
    for &b in &lin.order {
        live_in.insert(b.index(), BitSet::new(n));
        live_out.insert(b.index(), BitSet::new(n));
    }

    // Backward fixpoint over the reachable blocks.
    let mut changed = true;
    while changed {
        changed = false;
        for &b in lin.order.iter().rev() {
            // live_out(b) = ∪_s (live_in(s) minus s's φ defs) ∪ φ inputs
            // flowing from b into s.
            let mut out = BitSet::new(n);
            for s in g.succs(b) {
                let mut from_s = live_in[&s.index()].clone();
                for &phi in g.phis(s) {
                    from_s.remove(phi.index());
                }
                out.union_with(&from_s);
                let k = g.pred_index(s, b);
                for &phi in g.phis(s) {
                    if let Inst::Phi { inputs } = g.inst(phi) {
                        out.insert(inputs[k].index());
                    }
                }
            }
            // live_in(b) = (uses(b) ∪ live_out(b)) \ defs(b), walking the
            // block backwards.
            let mut inn = out.clone();
            let mut term_uses = Vec::new();
            g.terminator(b).for_each_input(|u| term_uses.push(u));
            for u in term_uses {
                inn.insert(u.index());
            }
            for &i in g.block_insts(b).iter().rev() {
                inn.remove(i.index());
                if !g.inst(i).is_phi() {
                    g.inst(i).for_each_input(|u| {
                        inn.insert(u.index());
                    });
                }
            }
            // Every block in `lin.order` was seeded above, so the sets
            // exist; `entry` keeps the fixpoint total without unwraps.
            if live_out
                .entry(b.index())
                .or_insert_with(|| BitSet::new(n))
                .union_with(&out)
            {
                changed = true;
            }
            if live_in
                .entry(b.index())
                .or_insert_with(|| BitSet::new(n))
                .union_with(&inn)
            {
                changed = true;
            }
        }
    }

    // Build intervals: start at the definition, end at the latest use /
    // end of the latest block where the value is live-out.
    let mut end_of: HashMap<InstId, u32> = HashMap::new();
    let mut use_count: HashMap<InstId, u32> = HashMap::new();
    let bump = |v: InstId,
                p: u32,
                is_use: bool,
                end_of: &mut HashMap<InstId, u32>,
                use_count: &mut HashMap<InstId, u32>| {
        let e = end_of.entry(v).or_insert(p);
        if *e < p {
            *e = p;
        }
        if is_use {
            *use_count.entry(v).or_insert(0) += 1;
        }
    };
    for &b in &lin.order {
        for &i in g.block_insts(b) {
            if g.inst(i).is_phi() {
                continue;
            }
            let p = lin.pos(i);
            g.inst(i)
                .for_each_input(|u| bump(u, p, true, &mut end_of, &mut use_count));
        }
        let tp = lin.term_pos(b);
        g.terminator(b)
            .for_each_input(|u| bump(u, tp, true, &mut end_of, &mut use_count));
        // φ inputs from this block are read by the edge moves at the end.
        for s in g.succs(b) {
            let k = g.pred_index(s, b);
            for &phi in g.phis(s) {
                if let Inst::Phi { inputs } = g.inst(phi) {
                    bump(inputs[k], tp, true, &mut end_of, &mut use_count);
                }
            }
        }
        for v in live_out[&b.index()].iter() {
            bump(
                InstId::from_index(v),
                tp,
                false,
                &mut end_of,
                &mut use_count,
            );
        }
    }

    let mut intervals = Vec::new();
    for &b in &lin.order {
        for &i in g.block_insts(b) {
            if g.ty(i).is_void() {
                continue;
            }
            // Constants are rematerialized at their uses by the emitter
            // and never occupy a register across instructions.
            if matches!(g.inst(i), Inst::Const(_)) {
                continue;
            }
            let start = lin.pos(i);
            let end = end_of.get(&i).copied().unwrap_or(start).max(start);
            intervals.push(Interval {
                value: i,
                start,
                end,
                uses: use_count.get(&i).copied().unwrap_or(0),
            });
        }
    }
    intervals.sort_by_key(|iv| (iv.start, iv.value));
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(!s.contains(64));
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
        let mut t = BitSet::new(130);
        t.insert(5);
        assert!(t.union_with(&s));
        assert!(!t.union_with(&s));
    }

    #[test]
    fn straightline_intervals() {
        let mut b = GraphBuilder::new("s", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0); // pos 0
        let one = b.iconst(1); // pos 1
        let a = b.add(x, one); // pos 2
        let m = b.mul(a, a); // pos 3
        b.ret(Some(m)); // pos 4
        let g = b.finish();
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        assert_eq!(find(x).start, 0);
        assert_eq!(find(x).end, 2);
        assert_eq!(find(a).end, 3);
        assert_eq!(find(m).end, 4);
    }

    #[test]
    fn phi_inputs_live_at_pred_ends() {
        let mut b = GraphBuilder::new("p", &[Type::Bool, Type::Int], Arc::new(ClassTable::new()));
        let c = b.param(0);
        let x = b.param(1);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let a = b.add(x, x);
        b.jump(bm);
        b.switch_to(bf);
        let s = b.sub(x, x);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![a, s], Type::Int);
        b.ret(Some(phi));
        let g = b.finish();
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        // `a` lives exactly until the end of bt (the resolving move).
        assert_eq!(find(a).end, lin.term_pos(bt));
        assert_eq!(find(s).end, lin.term_pos(bf));
        // The φ lives from its block to the return.
        assert!(find(phi).end >= find(phi).start);
        // Constants are rematerialized: no interval.
        assert!(ivs.iter().all(|iv| iv.value != c || iv.start == 0));
    }

    #[test]
    fn loop_carried_value_lives_across_back_edge() {
        let mut b = GraphBuilder::new("l", &[Type::Int], Arc::new(ClassTable::new()));
        let n = b.param(0);
        let zero = b.iconst(0);
        let one = b.iconst(1);
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(header);
        b.switch_to(body);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi(vec![zero, zero], Type::Int);
        let cond = b.cmp(CmpOp::Lt, i, n);
        b.branch(cond, body, exit, 0.9);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut g = b.finish();
        let inc = g.append_inst(
            body,
            dbds_ir::Inst::Binary {
                op: dbds_ir::BinOp::Add,
                lhs: i,
                rhs: one,
            },
            Type::Int,
        );
        g.rewrite_inputs(i, |inst| {
            if let dbds_ir::Inst::Phi { inputs } = inst {
                inputs[1] = inc;
            }
        });
        let lin = Linearization::compute(&g);
        let ivs = live_intervals(&g, &lin);
        let find = |v: dbds_ir::InstId| ivs.iter().find(|iv| iv.value == v).unwrap();
        // `inc` feeds the back-edge φ move: live to the body's end.
        assert_eq!(find(inc).end, lin.term_pos(body));
        // `n` is compared every iteration: live through the loop.
        assert!(find(n).end >= lin.term_pos(header));
        // `one` is a constant: rematerialized, no interval.
        assert!(!ivs.iter().any(|iv| iv.value == one));
    }
}
