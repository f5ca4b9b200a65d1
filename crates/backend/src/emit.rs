//! Machine-code emission for a compact fictional ISA.
//!
//! The encoding is byte-accurate enough for realistic *code size*
//! measurements (the paper's third metric): every instruction costs an
//! opcode byte plus register operands, spilled operands cost explicit
//! reload/store bytes, large constants cost full immediates, φs dissolve
//! into edge moves emitted in predecessors, and calls marshal their
//! arguments.

use crate::linearize::Linearization;
use crate::liveness::live_intervals;
use crate::regalloc::{linear_scan, Allocation, Location};
use dbds_ir::{ConstValue, Graph, Inst, InstId, Terminator};

/// Number of allocatable registers of the fictional target.
pub const NUM_REGS: u8 = 16;

/// The emitted machine code and its statistics.
#[derive(Clone, Debug)]
pub struct MachineCode {
    /// The encoded bytes.
    pub bytes: Vec<u8>,
    /// Spilled value count.
    pub spills: u32,
    /// Stack frame slots.
    pub frame_slots: u32,
    /// φ-resolving moves emitted on edges.
    pub phi_moves: u32,
    /// Registers used.
    pub regs_used: u8,
}

impl MachineCode {
    /// The machine-code size in bytes — the paper's code-size metric.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

/// Runs the whole back end on `g`: linearization, liveness, linear scan,
/// emission.
pub fn compile_to_machine_code(g: &Graph) -> MachineCode {
    let lin = Linearization::compute(g);
    let intervals = live_intervals(g, &lin);
    let alloc = linear_scan(&intervals, NUM_REGS);
    emit(g, &lin, &alloc)
}

fn emit(g: &Graph, lin: &Linearization, alloc: &Allocation) -> MachineCode {
    let mut e = Emitter {
        g,
        alloc,
        bytes: Vec::new(),
        phi_moves: 0,
    };
    for (ix, &b) in lin.order.iter().enumerate() {
        for &i in g.block_insts(b) {
            e.emit_inst(i);
        }
        // φ-resolving moves for every outgoing edge, then the terminator.
        for s in g.succs(b) {
            let k = g.pred_index(s, b);
            for &phi in g.phis(s) {
                if let Inst::Phi { inputs } = g.inst(phi) {
                    e.emit_move(phi, inputs[k]);
                }
            }
        }
        // Jumps to the textually next block become fall-throughs and cost
        // no bytes, as in any real block layout.
        let next = lin.order.get(ix + 1).copied();
        e.emit_terminator(g.terminator(b), next);
    }
    MachineCode {
        bytes: e.bytes,
        spills: alloc.spills,
        frame_slots: alloc.slots,
        phi_moves: e.phi_moves,
        regs_used: alloc.regs_used,
    }
}

struct Emitter<'a> {
    g: &'a Graph,
    alloc: &'a Allocation,
    bytes: Vec<u8>,
    phi_moves: u32,
}

impl Emitter<'_> {
    fn op(&mut self, code: u8) {
        self.bytes.push(code);
    }

    /// Emits the bytes to bring `v` into an operand register, returning
    /// the register byte. Spilled values need a 3-byte reload; constants
    /// are rematerialized inline (2 bytes small, 9 bytes wide).
    fn use_val(&mut self, v: InstId) -> u8 {
        if let Inst::Const(c) = self.g.inst(v) {
            match c {
                ConstValue::Int(x) if !(-128..128).contains(x) => {
                    self.bytes.push(0xF2);
                    self.bytes.extend_from_slice(&x.to_le_bytes());
                }
                _ => {
                    self.bytes.push(0xF3);
                    self.bytes.push(match c {
                        ConstValue::Int(x) => *x as u8,
                        ConstValue::Bool(b) => *b as u8,
                        _ => 0,
                    });
                }
            }
            return 0xFE; // scratch register
        }
        match self.alloc.get(v) {
            Some(Location::Reg(r)) => r,
            Some(Location::Slot(s)) => {
                // reload: opcode + slot16
                self.bytes.push(0xF0);
                self.bytes.extend_from_slice(&(s as u16).to_le_bytes());
                0xFE // scratch register
            }
            None => 0xFF, // void/unallocated (never read at run time)
        }
    }

    /// Emits the bytes to park the result of `v`, returning the
    /// destination register byte. Spilled destinations need a 3-byte
    /// store.
    fn def_val(&mut self, v: InstId) -> u8 {
        match self.alloc.get(v) {
            Some(Location::Reg(r)) => r,
            Some(Location::Slot(s)) => {
                self.bytes.push(0xF1);
                self.bytes.extend_from_slice(&(s as u16).to_le_bytes());
                0xFE
            }
            None => 0xFF,
        }
    }

    fn emit_move(&mut self, dst: InstId, src: InstId) {
        if self.alloc.get(dst) == self.alloc.get(src) {
            return; // coalesced
        }
        self.phi_moves += 1;
        let s = self.use_val(src);
        let d = self.def_val(dst);
        self.op(0x01);
        self.bytes.push(d);
        self.bytes.push(s);
    }

    fn emit_inst(&mut self, i: InstId) {
        let inst = self.g.inst(i);
        let kind = inst.kind() as u8;
        match *inst {
            Inst::Phi { .. } => {} // resolved by edge moves
            Inst::Param(ix) => {
                // Parameters arrive in registers: a move at most.
                let d = self.def_val(i);
                self.op(0x02);
                self.bytes.push(d);
                self.bytes.push(ix as u8);
            }
            Inst::Const(_) => {} // rematerialized at each use
            Inst::Binary { lhs, rhs, .. } | Inst::Compare { lhs, rhs, .. } => {
                let a = self.use_val(lhs);
                let b = self.use_val(rhs);
                let d = self.def_val(i);
                self.op(0x10 + kind);
                self.bytes.push(d);
                self.bytes.push(a);
                self.bytes.push(b);
            }
            Inst::Not(x) | Inst::Neg(x) | Inst::ArrayLength(x) => {
                let a = self.use_val(x);
                let d = self.def_val(i);
                self.op(0x10 + kind);
                self.bytes.push(d);
                self.bytes.push(a);
            }
            Inst::New { class } => {
                // Inline TLAB allocation sequence (§5.3's CYCLES_8/SIZE_8
                // intuition): opcode + class16 + 8 setup bytes.
                let d = self.def_val(i);
                self.op(0x60);
                self.bytes.push(d);
                self.bytes
                    .extend_from_slice(&(class.index() as u16).to_le_bytes());
                self.bytes.extend_from_slice(&[0x90; 6]);
            }
            Inst::NewArray { length } => {
                let l = self.use_val(length);
                let d = self.def_val(i);
                self.op(0x61);
                self.bytes.push(d);
                self.bytes.push(l);
                self.bytes.extend_from_slice(&[0x90; 6]);
            }
            Inst::LoadField { object, field } => {
                let o = self.use_val(object);
                let d = self.def_val(i);
                self.op(0x62);
                self.bytes.push(d);
                self.bytes.push(o);
                self.bytes.push(field.index() as u8);
            }
            Inst::StoreField {
                object,
                field,
                value,
            } => {
                let o = self.use_val(object);
                let v = self.use_val(value);
                self.op(0x63);
                self.bytes.push(o);
                self.bytes.push(v);
                self.bytes.push(field.index() as u8);
                self.bytes.push(0x90); // write barrier stub
            }
            Inst::InstanceOf { object, class } => {
                let o = self.use_val(object);
                let d = self.def_val(i);
                self.op(0x64);
                self.bytes.push(d);
                self.bytes.push(o);
                self.bytes
                    .extend_from_slice(&(class.index() as u16).to_le_bytes());
            }
            Inst::ArrayLoad { array, index } => {
                let a = self.use_val(array);
                let x = self.use_val(index);
                let d = self.def_val(i);
                self.op(0x65);
                self.bytes.push(d);
                self.bytes.push(a);
                self.bytes.push(x);
                self.bytes.push(0x90); // bounds check stub
            }
            Inst::ArrayStore {
                array,
                index,
                value,
            } => {
                let a = self.use_val(array);
                let x = self.use_val(index);
                let v = self.use_val(value);
                self.op(0x66);
                self.bytes.push(a);
                self.bytes.push(x);
                self.bytes.push(v);
                self.bytes.push(0x90);
            }
            Inst::Invoke { ref args } => {
                // Argument marshalling: one move per argument, then the
                // call with a 4-byte target.
                for (n, &a) in args.iter().enumerate() {
                    let r = self.use_val(a);
                    self.op(0x05);
                    self.bytes.push(n as u8);
                    self.bytes.push(r);
                }
                let d = self.def_val(i);
                self.op(0x67);
                self.bytes.push(d);
                self.bytes.extend_from_slice(&[0, 0, 0, 0]);
            }
        }
    }

    fn emit_terminator(&mut self, t: &Terminator, next: Option<dbds_ir::BlockId>) {
        match t {
            Terminator::Jump { target } => {
                if Some(*target) == next {
                    return; // fall-through
                }
                self.op(0x70);
                self.bytes.extend_from_slice(&[0, 0, 0, 0]); // rel32
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                let c = self.use_val(*cond);
                // Conditional jump to the then target…
                self.op(0x71);
                self.bytes.push(c);
                self.bytes.extend_from_slice(&[0, 0, 0, 0]);
                let _ = then_bb;
                // …plus an unconditional jump to the else target unless it
                // falls through.
                if Some(*else_bb) != next {
                    self.op(0x70);
                    self.bytes.extend_from_slice(&[0, 0, 0, 0]);
                }
            }
            Terminator::Return { value } => {
                if let Some(v) = value {
                    let r = self.use_val(*v);
                    self.op(0x01);
                    self.bytes.push(0); // return register
                    self.bytes.push(r);
                }
                self.op(0x72);
            }
            Terminator::Deopt => {
                self.op(0x73);
                self.bytes.extend_from_slice(&[0; 7]); // deopt metadata
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    #[test]
    fn emits_nonempty_deterministic_code() {
        let mut b = GraphBuilder::new("e", &[Type::Int], empty_table());
        let x = b.param(0);
        let one = b.iconst(1);
        let s = b.add(x, one);
        b.ret(Some(s));
        let g = b.finish();
        let m1 = compile_to_machine_code(&g);
        let m2 = compile_to_machine_code(&g);
        assert_eq!(m1.bytes, m2.bytes);
        assert!(m1.size() > 0);
        assert_eq!(m1.spills, 0);
    }

    #[test]
    fn bigger_graphs_emit_more_bytes() {
        let small = {
            let mut b = GraphBuilder::new("s", &[Type::Int], empty_table());
            let x = b.param(0);
            b.ret(Some(x));
            b.finish()
        };
        let big = {
            let mut b = GraphBuilder::new("b", &[Type::Int], empty_table());
            let mut acc = b.param(0);
            for k in 0..50 {
                let c = b.iconst(k);
                acc = b.add(acc, c);
            }
            b.ret(Some(acc));
            b.finish()
        };
        assert!(
            compile_to_machine_code(&big).size() > compile_to_machine_code(&small).size() + 100
        );
    }

    #[test]
    fn phis_become_edge_moves() {
        let mut b = GraphBuilder::new("p", &[Type::Bool], empty_table());
        let c = b.param(0);
        let (bt, bf, bm) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        let one = b.iconst(1);
        b.jump(bm);
        b.switch_to(bf);
        let two = b.iconst(2);
        b.jump(bm);
        b.switch_to(bm);
        let phi = b.phi(vec![one, two], Type::Int);
        // Keep both inputs live past the merge so the φ cannot be
        // coalesced with them.
        let s1 = b.add(phi, one);
        let s2 = b.add(s1, two);
        b.ret(Some(s2));
        let g = b.finish();
        let m = compile_to_machine_code(&g);
        assert!(
            m.phi_moves >= 2,
            "expected resolving moves, got {}",
            m.phi_moves
        );
    }

    #[test]
    fn high_register_pressure_spills() {
        // 40 simultaneously live values exceed the 16 registers.
        let mut b = GraphBuilder::new("hp", &[Type::Int], empty_table());
        let x = b.param(0);
        let vals: Vec<_> = (0..40)
            .map(|k| {
                let c = b.iconst(k);
                b.add(x, c)
            })
            .collect();
        // Sum them all so everything stays live.
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.add(acc, v);
        }
        b.ret(Some(acc));
        let g = b.finish();
        let m = compile_to_machine_code(&g);
        assert!(m.spills > 0, "expected spills under pressure");
        assert!(m.frame_slots > 0);
        assert_eq!(m.regs_used, NUM_REGS);
    }

    #[test]
    fn large_constants_cost_more_than_small_ones() {
        let size_for = |v: i64| {
            let mut b = GraphBuilder::new("c", &[], empty_table());
            let c = b.iconst(v);
            b.ret(Some(c));
            compile_to_machine_code(&b.finish()).size()
        };
        assert!(size_for(1 << 40) > size_for(1));
    }

    #[test]
    fn whole_suite_workload_compiles() {
        let mut b = GraphBuilder::new("loop", &[Type::Int], empty_table());
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
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit, 0.9);
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
        let m = compile_to_machine_code(&g);
        assert!(m.size() > 20);
        // The back-edge update (i ← i+1) can never be coalesced because
        // both values are simultaneously live.
        assert!(m.phi_moves >= 1);
    }
}
