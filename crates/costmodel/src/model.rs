//! The per-node cost table.
//!
//! Graal annotates every node class with `@NodeInfo(cycles = …, size = …)`
//! (§5.3, Listing 7 shows `AbstractNewObjectNode` at `CYCLES_8`/`SIZE_8`
//! for "tlab alloc + header init"). We reproduce the same idea as a dense
//! table over [`InstKind`]. The default table is calibrated so that the
//! worked example of Figure 4 comes out exactly as printed in the paper
//! (merge block costs 14 cycles; after duplication the weighted cost is
//! 12.2 cycles) and Figure 3's strength reduction saves `32 − 1 = 31`
//! cycles.

use dbds_ir::InstKind;

/// Abstract cost of one IR node: estimated cycles to execute and estimated
/// machine-code bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NodeCost {
    /// Estimated execution cycles.
    pub cycles: u32,
    /// Estimated code size in bytes.
    pub size: u32,
}

impl NodeCost {
    /// Creates a cost entry.
    pub const fn new(cycles: u32, size: u32) -> Self {
        NodeCost { cycles, size }
    }
}

/// A complete cycles/size table over all instruction kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    table: [NodeCost; InstKind::COUNT],
}

impl Default for CostModel {
    fn default() -> Self {
        let mut table = [NodeCost::new(1, 1); InstKind::COUNT];
        let mut set = |k: InstKind, cycles: u32, size: u32| {
            table[k as usize] = NodeCost::new(cycles, size);
        };
        // Constants and parameters fold into consuming instructions.
        set(InstKind::Const, 0, 1);
        set(InstKind::Param, 0, 0);
        // Simple ALU operations.
        set(InstKind::Add, 1, 1);
        set(InstKind::Sub, 1, 1);
        set(InstKind::And, 1, 1);
        set(InstKind::Or, 1, 1);
        set(InstKind::Xor, 1, 1);
        set(InstKind::Shl, 1, 1);
        set(InstKind::Shr, 1, 1);
        set(InstKind::UShr, 1, 1);
        set(InstKind::Not, 1, 1);
        set(InstKind::Neg, 1, 1);
        set(InstKind::Compare, 1, 1);
        set(InstKind::Mul, 2, 1);
        // Division is the paper's Figure 3 example: 32 cycles vs 1 for the
        // shift it strength-reduces to (CS = 31).
        set(InstKind::Div, 32, 1);
        set(InstKind::Rem, 32, 1);
        // φs coalesce into moves and are usually free.
        set(InstKind::Phi, 0, 0);
        // Allocation: Listing 7 — CYCLES_8 / SIZE_8.
        set(InstKind::New, 8, 8);
        set(InstKind::NewArray, 8, 8);
        // Memory: loads are cheap, stores carry write barriers (Figure 4
        // charges the store 10 cycles).
        set(InstKind::LoadField, 2, 1);
        set(InstKind::StoreField, 10, 2);
        set(InstKind::ArrayLoad, 2, 1);
        set(InstKind::ArrayStore, 10, 2);
        set(InstKind::ArrayLength, 2, 1);
        // Type check: class-word load plus compare.
        set(InstKind::InstanceOf, 4, 2);
        // Out-of-line call.
        set(InstKind::Invoke, 64, 4);
        // Control transfer.
        set(InstKind::Jump, 1, 1);
        set(InstKind::Branch, 2, 2);
        set(InstKind::Return, 2, 2);
        set(InstKind::Deopt, 0, 4);
        CostModel { table }
    }
}

impl CostModel {
    /// The default (paper-calibrated) table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cost entry of `kind`.
    pub fn cost(&self, kind: InstKind) -> NodeCost {
        self.table[kind as usize]
    }

    /// Estimated cycles of `kind`.
    pub fn cycles(&self, kind: InstKind) -> u32 {
        self.table[kind as usize].cycles
    }

    /// Estimated code size of `kind`.
    pub fn size(&self, kind: InstKind) -> u32 {
        self.table[kind as usize].size
    }

    /// Overrides the cost of one kind (useful for ablation studies).
    pub fn set_cost(&mut self, kind: InstKind, cost: NodeCost) {
        self.table[kind as usize] = cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_strength_reduction_saves_31_cycles() {
        let m = CostModel::new();
        assert_eq!(m.cycles(InstKind::Div) - m.cycles(InstKind::Shr), 31);
    }

    #[test]
    fn listing7_allocation_costs() {
        let m = CostModel::new();
        assert_eq!(m.cost(InstKind::New), NodeCost::new(8, 8));
    }

    #[test]
    fn every_kind_has_an_entry() {
        let m = CostModel::new();
        for k in InstKind::ALL {
            // Phi/Param/Const/Deopt may be zero-cycle but sizes are defined.
            let _ = m.cost(k);
        }
        assert_eq!(m.cycles(InstKind::Phi), 0);
        assert_eq!(m.cycles(InstKind::Param), 0);
    }

    #[test]
    fn overrides_apply() {
        let mut m = CostModel::new();
        m.set_cost(InstKind::Div, NodeCost::new(64, 2));
        assert_eq!(m.cycles(InstKind::Div), 64);
        assert_eq!(m.size(InstKind::Div), 2);
    }
}
