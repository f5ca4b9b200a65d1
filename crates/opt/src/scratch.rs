//! The tables the optimizer's and the simulation tier's walks borrow.
//!
//! Every dominator-tree walk needs the same dense tables: a [`FactEnv`]
//! (canonicalize, the simulation walk, the prediction audit), GVN's
//! value table and trail, the tree path, a flag per block and a copy of
//! the block in hand. Built from empty per walk they regrow to the size
//! of the unit every time. Instead each thread keeps one [`Scratch`]:
//! an entry point takes it ([`Scratch::take`] or [`with_scratch`]),
//! passes it down as `&mut`, and puts it back when it returns.
//!
//! Results cannot depend on the pool. Every walk leaves the scratch as it
//! found it — each walk rolls its trail back to where it started — and
//! [`Scratch::put_back`] empties it once more, so what a later walk
//! inherits is capacity, never a fact. A caller that finds the pool
//! empty (a nested entry point, or the first one after a panic unwound
//! past a borrower, which drops what it held) builds a fresh scratch, as
//! every walk did before the pool. A thread keeps tables sized by the
//! largest unit it compiled.

use crate::env::{FactEnv, Mark};
use crate::passes::gvn::ValueTable;
use dbds_ir::{BlockId, InstId};
use std::cell::Cell;

/// One thread's walk tables; see the module docs.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The fact environment, holding no facts between borrowers.
    pub env: FactEnv,
    /// The dominator-tree path of a walk: each block on it with the
    /// environment mark taken before the block was entered.
    pub path: Vec<(BlockId, Mark)>,
    pub(crate) values: ValueTable,
    /// Per block: has the walk entered it?
    pub(crate) passed: Vec<bool>,
    /// The visited block's instruction list, copied before it is edited.
    pub(crate) snapshot: Vec<InstId>,
}

thread_local! {
    static POOL: Cell<Option<Scratch>> = const { Cell::new(None) };
}

impl Scratch {
    /// This thread's scratch, or a fresh one when it is lent out.
    pub fn take() -> Scratch {
        POOL.try_with(Cell::take).ok().flatten().unwrap_or_default()
    }

    /// Empties the scratch and returns it to this thread's pool. A
    /// scratch that is not put back (a borrower unwound) is dropped.
    pub fn put_back(mut self) {
        self.env.clear();
        self.path.clear();
        self.values.clear();
        // After a thread's pool is gone (thread exit) the scratch drops.
        let _ = POOL.try_with(|pool| pool.set(Some(self)));
    }
}

/// Runs `f` on this thread's scratch and puts it back afterwards.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = Scratch::take();
    let result = f(&mut scratch);
    scratch.put_back();
    result
}
