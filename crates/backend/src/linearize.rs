//! Block linearization and global instruction numbering.
//!
//! The back end lays blocks out in reverse postorder (entry first, loop
//! bodies contiguous) and assigns every live instruction a global
//! position; liveness and linear scan work over these positions.

use dbds_analysis::reverse_postorder;
use dbds_ir::{BlockId, Graph, InstId};

/// A linear layout of a graph.
#[derive(Clone, Debug)]
pub struct Linearization {
    /// Reachable blocks in emission order.
    pub order: Vec<BlockId>,
    /// Global position of every instruction, indexed by
    /// `InstId::index()` (terminators get the position after their
    /// block's last instruction; instructions outside reachable blocks
    /// keep `u32::MAX`).
    pub inst_pos: Vec<u32>,
    /// Half-open position range `[start, end)` of each block, indexed by
    /// `BlockId::index()` (unreachable blocks keep `(0, 0)`).
    pub block_range: Vec<(u32, u32)>,
    /// Total number of positions (instructions + one terminator slot per
    /// block).
    pub len: u32,
}

impl Linearization {
    /// Lays out `g`.
    pub fn compute(g: &Graph) -> Self {
        let order = reverse_postorder(g);
        let mut inst_pos = vec![u32::MAX; g.inst_count()];
        let mut block_range = vec![(0u32, 0u32); g.block_count()];
        let mut pos: u32 = 0;
        for &b in &order {
            let start = pos;
            for &i in g.block_insts(b) {
                inst_pos[i.index()] = pos;
                pos += 1;
            }
            pos += 1; // terminator slot
            block_range[b.index()] = (start, pos);
        }
        Linearization {
            order,
            inst_pos,
            block_range,
            len: pos,
        }
    }

    /// Position of an instruction.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not in a reachable block.
    pub fn pos(&self, i: InstId) -> u32 {
        let p = self.inst_pos[i.index()];
        assert!(p != u32::MAX, "{i} is not in a reachable block");
        p
    }

    /// Returns `true` if `b` is reachable, i.e. laid out in [`Self::order`].
    pub fn is_placed(&self, b: BlockId) -> bool {
        // A placed block spans at least its terminator slot.
        self.block_range[b.index()].1 > 0
    }

    /// Position of the terminator of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not placed (see [`Self::is_placed`]).
    pub fn term_pos(&self, b: BlockId) -> u32 {
        assert!(
            self.is_placed(b),
            "{b} is unreachable and has no terminator position"
        );
        self.block_range[b.index()].1 - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{ClassTable, CmpOp, GraphBuilder, Type};
    use std::sync::Arc;

    #[test]
    fn entry_is_first_and_positions_are_dense() {
        let mut b = GraphBuilder::new("l", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let (bt, bf) = (b.new_block(), b.new_block());
        b.branch(c, bt, bf, 0.5);
        b.switch_to(bt);
        b.ret(Some(x));
        b.switch_to(bf);
        b.ret(Some(zero));
        let g = b.finish();
        let lin = Linearization::compute(&g);
        assert_eq!(lin.order[0], g.entry());
        assert_eq!(lin.pos(x), 0);
        assert_eq!(lin.pos(zero), 1);
        assert_eq!(lin.pos(c), 2);
        assert_eq!(lin.term_pos(g.entry()), 3);
        // 4 positions for entry (3 insts + term), 1 each for bt/bf.
        assert_eq!(lin.len, 6);
        let (s, e) = lin.block_range[bt.index()];
        assert_eq!(e - s, 1);
    }

    #[test]
    fn unreachable_blocks_are_skipped() {
        let mut b = GraphBuilder::new("u", &[], Arc::new(ClassTable::new()));
        b.ret(None);
        let mut g = b.finish();
        let dead = g.add_block();
        let lin = Linearization::compute(&g);
        assert!(!lin.order.contains(&dead));
        assert_eq!(lin.block_range[dead.index()], (0, 0));
        assert!(!lin.is_placed(dead));
        assert!(lin.is_placed(g.entry()));
    }

    #[test]
    #[should_panic(expected = "is unreachable and has no terminator position")]
    fn term_pos_of_an_unplaced_block_panics() {
        let mut b = GraphBuilder::new("u", &[], Arc::new(ClassTable::new()));
        b.ret(None);
        let mut g = b.finish();
        let dead = g.add_block();
        Linearization::compute(&g).term_pos(dead);
    }
}
