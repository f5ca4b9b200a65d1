//! Mutating optimization passes built on the AC/action-step framework.

pub mod canonicalize;
pub mod dce;
pub(crate) mod dirt;
pub mod gvn;
pub mod pipeline;
pub mod scalar_replace;
pub mod simplify;

/// Dominator trees deeper than a thread's stack could hold recursion
/// frames for, and the small stack to walk them on.
#[cfg(test)]
pub(crate) mod deep {
    use dbds_ir::{ClassTable, CmpOp, Graph, GraphBuilder, Type};
    use std::sync::Arc;

    /// A dominator tree this many levels deep.
    pub(crate) const DEPTH: usize = 5_000;

    /// `DEPTH` blocks, each testing `x > 0` again and branching to the
    /// next block or to one shared exit: a dominator tree `DEPTH` levels
    /// deep whose every test but the first the entry edge decides.
    pub(crate) fn guarded_chain() -> Graph {
        let mut b = GraphBuilder::new("chain", &[Type::Int], Arc::new(ClassTable::new()));
        let x = b.param(0);
        let zero = b.iconst(0);
        let exit = b.new_block();
        for _ in 0..DEPTH {
            let c = b.cmp(CmpOp::Gt, x, zero);
            let next = b.new_block();
            b.branch(c, next, exit, 0.9);
            b.switch_to(next);
        }
        b.ret(Some(x));
        b.switch_to(exit);
        b.ret(Some(zero));
        b.finish()
    }

    /// Runs `f` on a thread with a 256 KiB stack. A walk that recursed
    /// once per tree level would overflow it, which aborts the process.
    pub(crate) fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(f)
            .expect("spawn a small-stack thread")
            .join()
            .expect("the walk panicked")
    }
}
