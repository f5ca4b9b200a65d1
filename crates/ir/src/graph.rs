//! The SSA control-flow graph.
//!
//! A [`Graph`] is one compilation unit: an arena of instructions, an arena
//! of basic blocks, and a shared [`ClassTable`]. Instructions are owned by
//! blocks in execution order, with φs constrained to a prefix of each
//! block's instruction list. Every block stores its predecessor list, and
//! the *i*-th input of every φ corresponds to the *i*-th predecessor — the
//! edge-mutation API below is the only way to change edges and keeps this
//! alignment invariant intact.
//!
//! Beside the arenas the graph keeps def-use lists ([`Graph::uses`]): per
//! value, one entry per live operand slot that mentions it. Every
//! mutating primitive maintains them — there is no way to change an
//! operand that bypasses them ([`Graph::rewrite_inputs`] is the only
//! mutable access to an instruction payload) — so replacing a value or
//! finding its users costs O(uses), not a walk over the arena.

use crate::classes::ClassTable;
use crate::ids::{BlockId, InstId};
use crate::inline::InlineList;
use crate::inst::{Inst, Successors, Terminator};
use crate::types::Type;
use crate::uses::{Use, UseLists};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of version stamps for [`Graph`] mutation epochs.
///
/// Process-global so a stamp is never reused, even across graphs or after a
/// graph is rolled back to an earlier clone (`*g = backup`): a cache entry
/// recorded under some stamp can only ever describe the one block structure
/// that carried it. Clones share their original's stamp — which is exactly
/// right, because a clone has the same blocks and edges until its first own
/// CFG mutation.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// An instruction together with its result type and owning block.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The instruction payload.
    pub inst: Inst,
    /// The type of the produced value ([`Type::Void`] if none).
    pub ty: Type,
    /// The block currently containing the instruction, or `None` when the
    /// instruction has been removed from the graph.
    block: Option<BlockId>,
}

/// Instructions a block stores in place before its list spills to the
/// heap; generated units average about three per block.
const INLINE_INSTS: usize = 6;
/// Predecessors a block stores in place; most blocks have at most two.
const INLINE_PREDS: usize = 4;

/// A basic block: φs, then ordinary instructions, then one terminator.
#[derive(Clone, Debug)]
struct BlockData {
    /// Instructions in execution order; all φs precede all non-φs.
    insts: InlineList<InstId, INLINE_INSTS>,
    /// The block terminator.
    term: Terminator,
    /// Predecessor blocks. Gives the input order for this block's φs.
    preds: InlineList<BlockId, INLINE_PREDS>,
}

/// One open transaction of the undo log: where the graph stood at the
/// matching [`Graph::begin_txn`], and where the frame's own entries
/// start in the log.
///
/// A frame's entries record, per arena slot, the value the slot had
/// when the frame was opened — captured by the *first* mutation that
/// touches it while the frame is the innermost one (see
/// [`Graph::touch_inst`]), or handed over by a nested frame when that
/// frame closes (see [`UndoLog::close_frame`]). Slots allocated after
/// the frame opened need no backup: rollback truncates the arenas back
/// to the frame's base lengths (nothing ever deallocates a slot except
/// rollback itself, and inner frames only truncate to bases at least as
/// large).
#[derive(Debug)]
struct TxnFrame {
    /// Arena lengths at `begin_txn`: slots at or past these indices were
    /// allocated inside the transaction and are dropped by rollback.
    base_insts: usize,
    base_blocks: usize,
    /// The CFG epoch at `begin_txn`, restored verbatim by rollback.
    /// ABA-safe: stamps are globally unique and never reused, so a cache
    /// entry keyed on it can only describe this exact pre-txn state.
    cfg_version: u64,
    /// Where this frame's entries start in [`UndoLog::insts`] and
    /// [`UndoLog::blocks`]: each frame's log is the tail of the shared
    /// stacks from here up to the next frame's start.
    insts_at: usize,
    blocks_at: usize,
    /// Differential oracle: a full clone taken at `begin_txn`,
    /// cross-checked against the undo-log restore on every rollback.
    #[cfg(debug_assertions)]
    shadow: Box<Graph>,
}

/// The first-touch backup of an instruction slot.
#[derive(Debug)]
struct InstBackup {
    slot: u32,
    /// The slot's stamp before this backup took it over: the depth of
    /// the next frame out that holds a backup of the slot, or 0.
    prev: u32,
    data: InstData,
}

/// The first-touch backup of a block slot. Its instruction and
/// predecessor lists sit in the log's flat buffers
/// ([`UndoLog::block_insts`], [`UndoLog::block_preds`]), so taking one
/// allocates nothing once the buffers have grown.
#[derive(Debug)]
struct BlockBackup {
    slot: u32,
    /// As [`InstBackup::prev`].
    prev: u32,
    term: Terminator,
    /// Where its lists sit in `block_insts` and `block_preds`.
    insts: Range<usize>,
    preds: Range<usize>,
}

/// The graph's undo log: a stack of open [`TxnFrame`]s, their entries,
/// and cumulative counters ([`Graph::undo_stats`]).
///
/// Recording discipline: every mutating primitive backs up each arena
/// slot it is about to change into the *innermost* open frame, **before**
/// mutating, unless that frame already holds the slot or allocated it.
/// A dense per-slot stamp answers "already holds": it is the depth of
/// the innermost frame holding a backup of the slot (0 for none), and
/// each entry remembers the stamp it replaced. A recorded backup
/// therefore always equals the slot's value at its frame's `begin_txn`
/// — any earlier in-frame mutation would itself have recorded it first,
/// and a value the slot had when an inner frame opened is its value at
/// the outer frame's `begin_txn` unless the outer frame holds the slot.
/// That is what lets a closing frame hand its entries to its parent
/// without copying them ([`UndoLog::close_frame`]), so a first touch is
/// backed up once, into one frame, however many frames are open.
///
/// The frames' entries are laid end to end in shared stacks, innermost
/// frame last, so opening a frame allocates nothing.
#[derive(Debug, Default)]
struct UndoLog {
    frames: Vec<TxnFrame>,
    /// Per instruction / block slot: the depth of the innermost open
    /// frame holding its backup, or 0. Covers at least every slot below
    /// the innermost frame's base; every slot at or past the arenas'
    /// lengths reads 0.
    inst_stamps: Vec<u32>,
    block_stamps: Vec<u32>,
    insts: Vec<InstBackup>,
    blocks: Vec<BlockBackup>,
    block_insts: Vec<InstId>,
    block_preds: Vec<BlockId>,
    /// Primitive mutations recorded while at least one frame was open.
    edits: u64,
    /// Frames rolled back.
    rollbacks: u64,
    /// Peak number of entries held by all open frames together.
    peak_entries: usize,
}

impl UndoLog {
    fn note_peak(&mut self) {
        let entries = self.insts.len() + self.blocks.len();
        if entries > self.peak_entries {
            self.peak_entries = entries;
        }
    }

    /// Entries of the innermost frame.
    fn inner_insts(&self) -> &[InstBackup] {
        let at = self.frames.last().map_or(self.insts.len(), |f| f.insts_at);
        &self.insts[at..]
    }

    fn inner_blocks(&self) -> &[BlockBackup] {
        let at = self
            .frames
            .last()
            .map_or(self.blocks.len(), |f| f.blocks_at);
        &self.blocks[at..]
    }

    /// Hands the entries of `frame`, just popped, to its parent (the
    /// innermost frame left open): an entry moves down the stacks to the
    /// parent's end and its slot is stamped with the parent's depth,
    /// unless the parent already holds the slot or allocated it — then
    /// the entry is dropped and the slot's stamp returns to what the
    /// entry replaced. With no parent every entry is dropped. O(entries
    /// of `frame`); nothing is cloned. Returns the number of entries
    /// `frame` held.
    ///
    /// Right on commit and on rollback alike: a slot the parent does not
    /// hold was not changed between the parent's `begin_txn` and
    /// `frame`'s, so `frame`'s backup of it is the parent's backup too.
    fn close_frame(&mut self, frame: &TxnFrame) -> usize {
        let entries = (self.insts.len() - frame.insts_at) + (self.blocks.len() - frame.blocks_at);
        let depth = self.frames.len() as u32;
        let bases = self.frames.last().map(|p| (p.base_insts, p.base_blocks));
        let keeps = |slot: u32, prev: u32, base: usize| prev != depth && (slot as usize) < base;

        let mut kept = frame.insts_at;
        for at in frame.insts_at..self.insts.len() {
            let InstBackup { slot, prev, .. } = self.insts[at];
            let keep = bases.is_some_and(|(base, _)| keeps(slot, prev, base));
            self.inst_stamps[slot as usize] = if keep { depth } else { prev };
            if keep {
                self.insts.swap(kept, at);
                kept += 1;
            }
        }
        self.insts.truncate(kept);

        // Kept block entries move down, and so do their lists in the
        // flat buffers: entries and lists lie in the same order, so each
        // copy lands at or below where it was.
        let mut kept = frame.blocks_at;
        let (mut ids_to, mut preds_to) = self
            .blocks
            .get(kept)
            .map_or((self.block_insts.len(), self.block_preds.len()), |b| {
                (b.insts.start, b.preds.start)
            });
        for at in frame.blocks_at..self.blocks.len() {
            let entry = &mut self.blocks[at];
            let keep = bases.is_some_and(|(_, base)| keeps(entry.slot, entry.prev, base));
            self.block_stamps[entry.slot as usize] = if keep { depth } else { entry.prev };
            if keep {
                self.block_insts.copy_within(entry.insts.clone(), ids_to);
                self.block_preds.copy_within(entry.preds.clone(), preds_to);
                entry.insts = ids_to..ids_to + entry.insts.len();
                entry.preds = preds_to..preds_to + entry.preds.len();
                (ids_to, preds_to) = (entry.insts.end, entry.preds.end);
                self.blocks.swap(kept, at);
                kept += 1;
            }
        }
        self.blocks.truncate(kept);
        self.block_insts.truncate(ids_to);
        self.block_preds.truncate(preds_to);
        entries
    }
}

/// An instruction payload handed out for rewriting. Dropping it brings the
/// use lists in line with whatever the operands are by then — also when
/// the rewriting closure unwinds half-way, so a rollback that follows
/// finds lists that match the slots it retracts.
struct OperandRewrite<'a> {
    data: &'a mut InstData,
    uses: &'a mut UseLists,
    /// The operands before the rewrite, in slot order.
    before: &'a [InstId],
    user: Use,
}

impl Drop for OperandRewrite<'_> {
    fn drop(&mut self) {
        if self.data.block.is_none() {
            return;
        }
        // Slot by slot: an operand that stayed put costs nothing.
        let (uses, before, user) = (&mut *self.uses, self.before, self.user);
        let mut slot = 0;
        self.data.inst.for_each_input(|new| {
            match before.get(slot) {
                Some(&old) if old == new => {}
                Some(&old) => {
                    uses.remove(old, user);
                    uses.add(new, user);
                }
                None => uses.add(new, user),
            }
            slot += 1;
        });
        for &old in before.iter().skip(slot) {
            uses.remove(old, user);
        }
    }
}

/// Cumulative undo-log counters of a [`Graph`], as returned by
/// [`Graph::undo_stats`]. All three values are deterministic functions
/// of the mutation sequence (no timing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UndoStats {
    /// Primitive mutations recorded while a transaction was open.
    pub edits: u64,
    /// Transactions rolled back.
    pub rollbacks: u64,
    /// Peak number of backup entries held by all open frames together
    /// — the O(edit) analog of a whole-graph snapshot's size. A
    /// first touch counts once, in the one frame that holds its backup.
    pub peak_entries: usize,
}

/// The arena slots the innermost open transaction has changed so far, as
/// returned by [`Graph::txn_footprint`]: every slot whose current value
/// may differ from its value at the matching [`Graph::begin_txn`].
///
/// Read straight off the undo log — the frame's backups plus the arena
/// tails allocated since the frame opened — so it is complete by
/// construction: every mutating primitive records into the innermost
/// frame before it mutates, and a nested frame hands its backups to this
/// one when it closes. It may over-approximate: a slot touched only by a
/// nested transaction that was rolled back stays listed, holding its old
/// value again. Both lists are sorted ascending (backed-up slots first,
/// then the freshly allocated ones), independent of the order slots were
/// touched in: the reference form of the footprint.
/// [`Graph::for_each_txn_block`] reads the same slots' blocks without
/// sorting or collecting them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnFootprint {
    /// Instruction slots mutated (payload or owning block) or allocated
    /// inside the transaction. Detached slots are included.
    pub insts: Vec<InstId>,
    /// Block slots whose instruction list, terminator or predecessor
    /// list was mutated, or that were allocated inside the transaction.
    pub blocks: Vec<BlockId>,
}

/// An SSA control-flow graph for a single compilation unit.
///
/// # Examples
///
/// ```
/// use dbds_ir::{ClassTable, ConstValue, Graph, Inst, Terminator, Type};
/// use std::sync::Arc;
///
/// let mut g = Graph::new("answer", &[], Arc::new(ClassTable::new()));
/// let entry = g.entry();
/// let c = g.append_inst(entry, Inst::Const(ConstValue::Int(42)), Type::Int);
/// g.set_terminator(entry, Terminator::Return { value: Some(c) });
/// assert_eq!(g.block_insts(entry), &[c]);
/// ```
///
/// # Transactions
///
/// Mutations can be bracketed by [`Graph::begin_txn`] /
/// [`Graph::commit_txn`] / [`Graph::rollback_txn`]: rollback restores
/// the graph *and* its version stamp to the `begin_txn` state in
/// O(slots touched) instead of the O(graph) a clone-and-restore costs.
/// Transactions nest.
#[derive(Debug)]
pub struct Graph {
    /// Human-readable compilation unit name.
    pub name: String,
    params: Vec<Type>,
    param_values: Vec<InstId>,
    entry: BlockId,
    insts: Vec<InstData>,
    blocks: Vec<BlockData>,
    class_table: Arc<ClassTable>,
    /// Epoch of the last CFG-structural mutation (blocks, edges, branch
    /// probabilities). Keys CFG-level analyses: dominators, loops,
    /// frequencies. Pure value rewrites leave it alone, so those analyses
    /// survive them.
    cfg_version: u64,
    /// Open transactions and their first-touch backups.
    undo: UndoLog,
    /// Def-use lists: per value, one entry per live operand slot (operand
    /// of an attached instruction, or of any block's terminator) that
    /// mentions it. A side table, not arena slots: the undo log never
    /// backs it up — rollback re-derives it from the slots it restores.
    uses: UseLists,
    /// Reused by [`Graph::rewrite_inputs`] to hold an instruction's
    /// operands from before the rewrite (no allocation per call).
    input_scratch: Vec<InstId>,
}

impl Clone for Graph {
    /// Clones the arenas, the class table, and the version stamp — but
    /// **not** the undo log: the clone starts with no open transactions
    /// and zeroed undo counters. A clone is an independent timeline;
    /// rolling back the original must never entangle it.
    fn clone(&self) -> Self {
        Graph {
            name: self.name.clone(),
            params: self.params.clone(),
            param_values: self.param_values.clone(),
            entry: self.entry,
            insts: self.insts.clone(),
            blocks: self.blocks.clone(),
            class_table: Arc::clone(&self.class_table),
            cfg_version: self.cfg_version,
            undo: UndoLog::default(),
            uses: self.uses.clone(),
            input_scratch: Vec::new(),
        }
    }
}

impl Graph {
    /// Creates a graph with an entry block containing one [`Inst::Param`]
    /// per element of `params`. The entry terminator starts as
    /// [`Terminator::Deopt`] and should be replaced before use.
    pub fn new(name: impl Into<String>, params: &[Type], class_table: Arc<ClassTable>) -> Self {
        let mut g = Graph {
            name: name.into(),
            params: params.to_vec(),
            param_values: Vec::new(),
            entry: BlockId(0),
            insts: Vec::new(),
            blocks: vec![BlockData {
                insts: InlineList::new(),
                term: Terminator::Deopt,
                preds: InlineList::new(),
            }],
            class_table,
            cfg_version: fresh_version(),
            undo: UndoLog::default(),
            uses: UseLists::default(),
            input_scratch: Vec::new(),
        };
        for (i, &ty) in params.iter().enumerate() {
            assert!(!ty.is_void(), "parameters cannot be void");
            let id = g.append_inst(g.entry, Inst::Param(i as u32), ty);
            g.param_values.push(id);
        }
        g
    }

    /// The shared class table.
    pub fn class_table(&self) -> &Arc<ClassTable> {
        &self.class_table
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The epoch of the last CFG-structural mutation (block/edge/probability
    /// changes). Unchanged by pure value rewrites, so analyses derived only
    /// from the block structure (dominators, loops, frequencies) stay valid
    /// while this stays equal.
    ///
    /// Stamps are globally unique across all graphs and never reused, so two
    /// equal stamps always describe the same block structure. Cloning keeps
    /// the stamp (the clone is identical); the first CFG mutation of either
    /// copy gives it a fresh one.
    pub fn cfg_version(&self) -> u64 {
        self.cfg_version
    }

    /// Records a CFG-structural mutation.
    fn bump_cfg(&mut self) {
        self.note_edit();
        self.cfg_version = fresh_version();
    }

    /// Counts one primitive mutation towards the undo log's edit counter.
    /// Every mutating primitive calls it exactly once: directly when it
    /// leaves the block structure alone, else through [`Graph::bump_cfg`].
    fn note_edit(&mut self) {
        if !self.undo.frames.is_empty() {
            self.undo.edits += 1;
        }
    }

    /// Backs up instruction slot `id` into the innermost open frame,
    /// unless that frame already holds it or allocated it. Must be called
    /// **before** the slot is mutated. O(1): one stamp compare, and on a
    /// first touch one copy of the slot.
    fn touch_inst(&mut self, id: InstId) {
        let undo = &mut self.undo;
        let Some(frame) = undo.frames.last() else {
            return;
        };
        let (slot, depth) = (id.index(), undo.frames.len() as u32);
        if slot >= frame.base_insts || undo.inst_stamps[slot] == depth {
            return;
        }
        let prev = std::mem::replace(&mut undo.inst_stamps[slot], depth);
        undo.insts.push(InstBackup {
            slot: id.0,
            prev,
            data: self.insts[slot].clone(),
        });
        undo.note_peak();
    }

    /// Backs up block slot `b` into the innermost open frame. Same
    /// contract as [`Graph::touch_inst`]; the block's lists go to the
    /// log's flat buffers.
    fn touch_block(&mut self, b: BlockId) {
        let undo = &mut self.undo;
        let Some(frame) = undo.frames.last() else {
            return;
        };
        let (slot, depth) = (b.index(), undo.frames.len() as u32);
        if slot >= frame.base_blocks || undo.block_stamps[slot] == depth {
            return;
        }
        let prev = std::mem::replace(&mut undo.block_stamps[slot], depth);
        let block = &self.blocks[slot];
        let (ids_at, preds_at) = (undo.block_insts.len(), undo.block_preds.len());
        undo.block_insts.extend_from_slice(&block.insts);
        undo.block_preds.extend_from_slice(&block.preds);
        undo.blocks.push(BlockBackup {
            slot: b.0,
            prev,
            term: block.term.clone(),
            insts: ids_at..undo.block_insts.len(),
            preds: preds_at..undo.block_preds.len(),
        });
        undo.note_peak();
    }

    /// Adds the use-list entries instruction `id` contributes in its
    /// current state: one per operand if attached, none if detached.
    fn record_inst_uses(&mut self, id: InstId) {
        let (data, uses) = (&self.insts[id.index()], &mut self.uses);
        if data.block.is_some() {
            data.inst.for_each_input(|v| uses.add(v, Use::Inst(id)));
        }
    }

    /// Removes the entries [`Graph::record_inst_uses`] would add.
    fn retract_inst_uses(&mut self, id: InstId) {
        let (data, uses) = (&self.insts[id.index()], &mut self.uses);
        if data.block.is_some() {
            data.inst.for_each_input(|v| uses.remove(v, Use::Inst(id)));
        }
    }

    /// Adds one use-list entry per operand of `b`'s terminator.
    fn record_term_uses(&mut self, b: BlockId) {
        let (term, uses) = (&self.blocks[b.index()].term, &mut self.uses);
        term.for_each_input(|v| uses.add(v, Use::Term(b)));
    }

    /// Removes the entries [`Graph::record_term_uses`] would add.
    fn retract_term_uses(&mut self, b: BlockId) {
        let (term, uses) = (&self.blocks[b.index()].term, &mut self.uses);
        term.for_each_input(|v| uses.remove(v, Use::Term(b)));
    }

    /// Opens a transaction: subsequent mutations record first-touch
    /// backups so [`Graph::rollback_txn`] can restore this exact state —
    /// arena contents *and* version stamp — in O(slots touched).
    /// Transactions nest; each `begin_txn` must be matched by one
    /// [`Graph::commit_txn`] or [`Graph::rollback_txn`].
    pub fn begin_txn(&mut self) {
        let undo = &mut self.undo;
        let (insts, blocks) = (self.insts.len(), self.blocks.len());
        // Stamps only ever need to cover the innermost frame's base.
        if undo.inst_stamps.len() < insts {
            undo.inst_stamps.resize(insts, 0);
        }
        if undo.block_stamps.len() < blocks {
            undo.block_stamps.resize(blocks, 0);
        }
        let frame = TxnFrame {
            base_insts: insts,
            base_blocks: blocks,
            cfg_version: self.cfg_version,
            insts_at: undo.insts.len(),
            blocks_at: undo.blocks.len(),
            #[cfg(debug_assertions)]
            shadow: Box::new(self.clone()),
        };
        self.undo.frames.push(frame);
    }

    /// Closes the innermost transaction, keeping its mutations, and
    /// hands its backups to the enclosing transaction: a backup of a slot
    /// the enclosing one neither holds nor allocated becomes its backup,
    /// the rest are dropped. O(entries of the committed frame). Returns
    /// the number of backup entries it held.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self) -> usize {
        let undo = &mut self.undo;
        let frame = undo
            .frames
            .pop()
            .expect("commit_txn without an open transaction");
        undo.close_frame(&frame)
    }

    /// Rolls the innermost transaction back: every backed-up slot is
    /// restored, slots allocated inside the transaction are dropped, and
    /// the CFG epoch returns to its `begin_txn` value. Because stamps are
    /// never reused, analysis-cache entries recorded under the pre-txn
    /// stamp become valid again — exactly as restoring a clone
    /// taken at `begin_txn` would. The restored slots' backups are then
    /// handed to the enclosing frame like a commit's, so they stay in
    /// its footprint. Returns the number of entries restored.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or (with `debug_assertions`) if
    /// the undo-log restore diverges from a full snapshot restore.
    pub fn rollback_txn(&mut self) -> usize {
        let frame = self
            .undo
            .frames
            .pop()
            .expect("rollback_txn without an open transaction");
        let (insts_at, blocks_at) = (frame.insts_at, frame.blocks_at);
        // The use lists are a function of the live operand slots, and the
        // frame names every slot that changed since `begin_txn`: retract
        // what those slots contribute now, restore them, and record what
        // the restored slots contribute — O(slots touched), nothing logged.
        for at in insts_at..self.undo.insts.len() {
            self.retract_inst_uses(InstId(self.undo.insts[at].slot));
        }
        for idx in frame.base_insts..self.insts.len() {
            self.retract_inst_uses(InstId::from_index(idx));
        }
        for at in blocks_at..self.undo.blocks.len() {
            self.retract_term_uses(BlockId(self.undo.blocks[at].slot));
        }
        for idx in frame.base_blocks..self.blocks.len() {
            self.retract_term_uses(BlockId::from_index(idx));
        }
        self.uses.truncate(frame.base_insts);
        self.insts.truncate(frame.base_insts);
        self.blocks.truncate(frame.base_blocks);
        // Restored by copy: the backups live on in the enclosing frame.
        for at in insts_at..self.undo.insts.len() {
            let saved = &self.undo.insts[at];
            let id = InstId(saved.slot);
            self.insts[id.index()] = saved.data.clone();
            self.record_inst_uses(id);
        }
        for at in blocks_at..self.undo.blocks.len() {
            let (undo, saved) = (&self.undo, &self.undo.blocks[at]);
            let b = BlockId(saved.slot);
            let block = &mut self.blocks[b.index()];
            block.insts.clear();
            block
                .insts
                .extend_from_slice(&undo.block_insts[saved.insts.clone()]);
            block.preds.clear();
            block
                .preds
                .extend_from_slice(&undo.block_preds[saved.preds.clone()]);
            block.term = saved.term.clone();
            self.record_term_uses(b);
        }
        let entries = self.undo.close_frame(&frame);
        self.cfg_version = frame.cfg_version;
        self.undo.rollbacks += 1;
        #[cfg(debug_assertions)]
        self.assert_matches_shadow(&frame.shadow);
        entries
    }

    /// Differential oracle: the undo-log restore against the full clone
    /// taken at `begin_txn`.
    #[cfg(debug_assertions)]
    fn assert_matches_shadow(&self, shadow: &Graph) {
        let digest = |g: &Graph| {
            format!(
                "{:?}|{:?}|{}|{:?}",
                g.insts,
                g.blocks,
                g.cfg_version,
                g.uses.canonical()
            )
        };
        assert_eq!(
            digest(self),
            digest(shadow),
            "undo-log rollback diverged from snapshot restore"
        );
    }

    /// Number of transactions currently open.
    pub fn txn_depth(&self) -> usize {
        self.undo.frames.len()
    }

    /// The slots the innermost open transaction has changed so far (see
    /// [`TxnFootprint`]); empty when no transaction is open. O(slots
    /// touched), no bookkeeping beyond what rollback already needs.
    pub fn txn_footprint(&self) -> TxnFootprint {
        let Some(frame) = self.undo.frames.last() else {
            return TxnFootprint::default();
        };
        let mut insts: Vec<InstId> = self
            .undo
            .inner_insts()
            .iter()
            .map(|e| InstId(e.slot))
            .collect();
        insts.sort_unstable();
        insts.extend((frame.base_insts..self.insts.len()).map(InstId::from_index));
        let mut blocks: Vec<BlockId> = self
            .undo
            .inner_blocks()
            .iter()
            .map(|e| BlockId(e.slot))
            .collect();
        blocks.sort_unstable();
        blocks.extend((frame.base_blocks..self.blocks.len()).map(BlockId::from_index));
        TxnFootprint { insts, blocks }
    }

    /// Passes `f` the blocks [`Graph::txn_footprint`] names — its blocks
    /// and the blocks its attached instructions sit in — unsorted and
    /// possibly repeated, without collecting them. Returns `false` when
    /// the footprint is empty (or no transaction is open). O(slots
    /// touched).
    pub fn for_each_txn_block(&self, mut f: impl FnMut(BlockId)) -> bool {
        let Some(frame) = self.undo.frames.last() else {
            return false;
        };
        let (backed_insts, backed_blocks) = (self.undo.inner_insts(), self.undo.inner_blocks());
        let insts = backed_insts.iter().map(|e| e.slot as usize);
        for idx in insts.chain(frame.base_insts..self.insts.len()) {
            if let Some(b) = self.insts[idx].block {
                f(b);
            }
        }
        let blocks = backed_blocks.iter().map(|e| e.slot as usize);
        for idx in blocks.chain(frame.base_blocks..self.blocks.len()) {
            f(BlockId::from_index(idx));
        }
        !backed_insts.is_empty()
            || !backed_blocks.is_empty()
            || frame.base_insts < self.insts.len()
            || frame.base_blocks < self.blocks.len()
    }

    /// Cumulative undo-log counters since this graph was created (or
    /// cloned — cloning resets them).
    pub fn undo_stats(&self) -> UndoStats {
        UndoStats {
            edits: self.undo.edits,
            rollbacks: self.undo.rollbacks,
            peak_entries: self.undo.peak_entries,
        }
    }

    /// Parameter types, in order.
    pub fn param_types(&self) -> &[Type] {
        &self.params
    }

    /// The SSA values of the function parameters, in order.
    pub fn param_values(&self) -> &[InstId] {
        &self.param_values
    }

    /// Number of blocks ever created (including none removed — blocks are
    /// never deallocated, only disconnected).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of instruction slots ever created (including detached ones).
    pub fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently attached to a block.
    pub fn live_inst_count(&self) -> usize {
        self.insts.iter().filter(|d| d.block.is_some()).count()
    }

    /// Iterates over all block ids, in creation order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::from_index)
    }

    /// Iterates over the block ids reachable from the entry block, in an
    /// unspecified order.
    pub fn reachable_blocks(&self) -> Vec<BlockId> {
        // Each block is pushed at most once: three allocations, whatever
        // the graph's size.
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = Vec::with_capacity(self.blocks.len());
        stack.push(self.entry);
        let mut out = Vec::with_capacity(self.blocks.len());
        seen[self.entry.index()] = true;
        while let Some(b) = stack.pop() {
            out.push(b);
            for s in self.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        out
    }

    /// Creates a new, empty, unreachable block terminated by
    /// [`Terminator::Deopt`].
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(BlockData {
            insts: InlineList::new(),
            term: Terminator::Deopt,
            preds: InlineList::new(),
        });
        // Even an unreachable block is a CFG change: analyses size their
        // per-block tables by block_count.
        self.bump_cfg();
        id
    }

    /// The instruction payload of `id`.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()].inst
    }

    /// Runs `f` on the instruction payload of `id` and returns its result
    /// — the only mutable access to a payload. The operands are compared
    /// before and after, and the use lists updated by the difference, so
    /// no operand can change behind their back.
    ///
    /// Callers must not change the number of φ inputs through this (use the
    /// edge API), nor change the produced type.
    pub fn rewrite_inputs<R>(&mut self, id: InstId, f: impl FnOnce(&mut Inst) -> R) -> R {
        self.touch_inst(id);
        self.note_edit();
        let before = &mut self.input_scratch;
        before.clear();
        let data = &mut self.insts[id.index()];
        data.inst.for_each_input(|v| before.push(v));
        let rewrite = OperandRewrite {
            data,
            uses: &mut self.uses,
            before,
            user: Use::Inst(id),
        };
        f(&mut rewrite.data.inst)
        // `rewrite` drops here and settles the use lists.
    }

    /// The result type of `id`.
    pub fn ty(&self, id: InstId) -> Type {
        self.insts[id.index()].ty
    }

    /// The block currently containing `id`, or `None` if detached.
    pub fn block_of(&self, id: InstId) -> Option<BlockId> {
        self.insts[id.index()].block
    }

    /// The instructions of `b` in execution order (φs first).
    pub fn block_insts(&self, b: BlockId) -> &[InstId] {
        &self.blocks[b.index()].insts
    }

    /// The φ instructions of `b` (the φ prefix of its instruction list).
    pub fn phis(&self, b: BlockId) -> &[InstId] {
        let insts = &self.blocks[b.index()].insts;
        let end = insts
            .iter()
            .position(|&i| !self.inst(i).is_phi())
            .unwrap_or(insts.len());
        &insts[..end]
    }

    /// The terminator of `b`.
    pub fn terminator(&self, b: BlockId) -> &Terminator {
        &self.blocks[b.index()].term
    }

    /// Successor blocks of `b`, in terminator order.
    pub fn succs(&self, b: BlockId) -> Successors {
        self.blocks[b.index()].term.successors()
    }

    /// Predecessor blocks of `b`. The order defines φ input positions.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.blocks[b.index()].preds
    }

    /// Index of `pred` within `b`'s predecessor list.
    ///
    /// # Panics
    ///
    /// Panics if `pred` is not a predecessor of `b`.
    pub fn pred_index(&self, b: BlockId, pred: BlockId) -> usize {
        self.blocks[b.index()]
            .preds
            .iter()
            .position(|&p| p == pred)
            .unwrap_or_else(|| panic!("{pred} is not a predecessor of {b}"))
    }

    /// Returns `true` when `b` is a control-flow merge (≥ 2 predecessors).
    pub fn is_merge(&self, b: BlockId) -> bool {
        self.blocks[b.index()].preds.len() >= 2
    }

    /// All merge blocks of the graph, in id order.
    pub fn merge_blocks(&self) -> Vec<BlockId> {
        self.blocks().filter(|&b| self.is_merge(b)).collect()
    }

    /// Appends a non-φ instruction to the end of `b` (before the
    /// terminator) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is a φ (use [`Graph::append_phi`]).
    pub fn append_inst(&mut self, b: BlockId, inst: Inst, ty: Type) -> InstId {
        assert!(!inst.is_phi(), "use append_phi for phis");
        self.touch_block(b);
        let id = self.alloc_inst(inst, ty, b);
        self.blocks[b.index()].insts.push(id);
        id
    }

    /// Inserts a non-φ instruction at position `at` of `b`'s instruction
    /// list and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is a φ or `at` lies inside the φ prefix.
    pub fn insert_inst(&mut self, b: BlockId, at: usize, inst: Inst, ty: Type) -> InstId {
        assert!(!inst.is_phi(), "use append_phi for phis");
        assert!(at >= self.phis(b).len(), "cannot insert before phis");
        self.touch_block(b);
        let id = self.alloc_inst(inst, ty, b);
        self.blocks[b.index()].insts.insert(at, id);
        id
    }

    /// Appends a φ to `b`. `inputs` must have exactly one value per current
    /// predecessor of `b`, in predecessor order.
    ///
    /// # Panics
    ///
    /// Panics if the input count does not match the predecessor count.
    pub fn append_phi(&mut self, b: BlockId, inputs: Vec<InstId>, ty: Type) -> InstId {
        assert_eq!(
            inputs.len(),
            self.blocks[b.index()].preds.len(),
            "phi input count must match predecessor count of {b}"
        );
        let at = self.phis(b).len();
        self.touch_block(b);
        let id = self.alloc_inst(Inst::Phi { inputs }, ty, b);
        self.blocks[b.index()].insts.insert(at, id);
        id
    }

    fn alloc_inst(&mut self, inst: Inst, ty: Type, b: BlockId) -> InstId {
        self.note_edit();
        let id = InstId::from_index(self.insts.len());
        self.insts.push(InstData {
            inst,
            ty,
            block: Some(b),
        });
        self.uses.grow();
        self.record_inst_uses(id);
        id
    }

    /// Detaches `id` from its block. The slot stays allocated; `id` must no
    /// longer be referenced by any remaining instruction or terminator
    /// (checked by the verifier, not here).
    pub fn remove_inst(&mut self, id: InstId) {
        self.touch_inst(id);
        if let Some(b) = self.insts[id.index()].block {
            self.touch_block(b);
        }
        self.note_edit();
        self.retract_inst_uses(id);
        if let Some(b) = self.insts[id.index()].block.take() {
            let insts = &mut self.blocks[b.index()].insts;
            let pos = insts
                .iter()
                .position(|&i| i == id)
                .expect("inst missing from its block");
            insts.remove(pos);
        }
    }

    /// Replaces the terminator of `b`, updating predecessor lists of all
    /// old and new successors.
    ///
    /// # Panics
    ///
    /// Panics if a newly added successor already has φs (their inputs could
    /// not be inferred — use [`Graph::retarget_edge`] via a
    /// retarget instead), or if the new terminator lists the same successor
    /// twice.
    pub fn set_terminator(&mut self, b: BlockId, term: Terminator) {
        self.touch_block(b);
        self.bump_cfg();
        let new_succs = term.successors();
        if new_succs.len() == 2 {
            assert_ne!(
                new_succs[0], new_succs[1],
                "branch successors must be distinct"
            );
        }
        let old_succs = self.blocks[b.index()].term.successors();
        for s in old_succs {
            self.remove_pred(s, b);
        }
        for &s in &new_succs {
            assert!(
                self.phis(s).is_empty(),
                "cannot add an edge into {s}: it has phis; use connect_edge_with_phi_inputs"
            );
            self.touch_block(s);
            self.blocks[s.index()].preds.push(b);
        }
        self.replace_term(b, term);
    }

    /// Swaps `b`'s terminator for `term`, moving the use-list entries of
    /// its operands along. Edge bookkeeping is the caller's.
    fn replace_term(&mut self, b: BlockId, term: Terminator) -> Terminator {
        self.retract_term_uses(b);
        let old = std::mem::replace(&mut self.blocks[b.index()].term, term);
        self.record_term_uses(b);
        old
    }

    /// Redirects the control-flow edge `from → old_to` to point at
    /// `new_to`, supplying `phi_inputs` (one per φ of `new_to`, in φ
    /// order) for the new edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist, if `phi_inputs` does not match
    /// `new_to`'s φ count, or if `from` already has an edge to `new_to`
    /// (duplicate edges are not representable).
    pub fn retarget_edge(
        &mut self,
        from: BlockId,
        old_to: BlockId,
        new_to: BlockId,
        phi_inputs: &[InstId],
    ) {
        self.touch_block(from);
        self.bump_cfg();
        assert!(
            self.succs(from).contains(&old_to),
            "no edge {from} -> {old_to}"
        );
        if old_to != new_to {
            assert!(
                !self.succs(from).contains(&new_to),
                "edge {from} -> {new_to} already exists"
            );
        }
        let mut done = false;
        self.blocks[from.index()].term.for_each_successor_mut(|s| {
            if !done && *s == old_to {
                *s = new_to;
                done = true;
            }
        });
        self.remove_pred(old_to, from);
        self.add_pred_with_phi_inputs(new_to, from, phi_inputs);
    }

    /// Installs a terminator on a block that currently has no successors,
    /// supplying φ inputs for every new edge: `phi_inputs[i]` provides one
    /// value per φ of the `i`-th successor of `term` (in φ order). Used by
    /// the duplication transform, whose copied block branches into blocks
    /// that already have φs.
    ///
    /// # Panics
    ///
    /// Panics if `b` currently has successors, if the successor count does
    /// not match `phi_inputs`, if a successor's φ count does not match its
    /// input list, or if `term` lists the same successor twice.
    pub fn install_terminator_with_phi_inputs(
        &mut self,
        b: BlockId,
        term: Terminator,
        phi_inputs: &[Vec<InstId>],
    ) {
        self.touch_block(b);
        self.bump_cfg();
        assert!(
            self.blocks[b.index()].term.successors().is_empty(),
            "{b} already has successors"
        );
        let succs = term.successors();
        assert_eq!(
            succs.len(),
            phi_inputs.len(),
            "one input list per successor"
        );
        if succs.len() == 2 {
            assert_ne!(succs[0], succs[1], "branch successors must be distinct");
        }
        for (s, inputs) in succs.iter().zip(phi_inputs) {
            self.add_pred_with_phi_inputs(*s, b, inputs);
        }
        self.replace_term(b, term);
    }

    /// Adds the edge `from → to` implied by `from`'s terminator already
    /// mentioning `to` is **not** supported; this helper is for building an
    /// edge into a block that has φs: it appends `from` to `to`'s
    /// predecessors and one input per φ. The caller is responsible for the
    /// terminator side (used by [`Graph::retarget_edge`] and the
    /// duplication transform).
    fn add_pred_with_phi_inputs(&mut self, to: BlockId, from: BlockId, phi_inputs: &[InstId]) {
        let phis: Vec<InstId> = self.phis(to).to_vec();
        assert_eq!(
            phis.len(),
            phi_inputs.len(),
            "need exactly one phi input per phi of {to}"
        );
        self.touch_block(to);
        self.blocks[to.index()].preds.push(from);
        for (phi, &input) in phis.iter().zip(phi_inputs) {
            self.touch_inst(*phi);
            match &mut self.insts[phi.index()].inst {
                Inst::Phi { inputs } => inputs.push(input),
                _ => unreachable!("phi prefix returned a non-phi"),
            }
            self.uses.add(input, Use::Inst(*phi));
        }
    }

    /// Removes `from` from `to`'s predecessor list, dropping the φ input at
    /// the corresponding position of each φ of `to`.
    fn remove_pred(&mut self, to: BlockId, from: BlockId) {
        let idx = self.pred_index(to, from);
        self.touch_block(to);
        self.blocks[to.index()].preds.remove(idx);
        let phis: Vec<InstId> = self.phis(to).to_vec();
        for phi in phis {
            self.touch_inst(phi);
            match &mut self.insts[phi.index()].inst {
                Inst::Phi { inputs } => {
                    let dropped = inputs.remove(idx);
                    self.uses.remove(dropped, Use::Inst(phi));
                }
                _ => unreachable!("phi prefix returned a non-phi"),
            }
        }
    }

    /// Folds the branch terminating `b` into an unconditional jump to the
    /// successor chosen by `take_then`, removing the edge to the other
    /// successor (and its φ inputs there).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not terminated by a branch.
    pub fn fold_branch(&mut self, b: BlockId, take_then: bool) {
        self.touch_block(b);
        self.bump_cfg();
        let (then_bb, else_bb) = match self.blocks[b.index()].term {
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (then_bb, else_bb),
            _ => panic!("{b} is not terminated by a branch"),
        };
        let (taken, dropped) = if take_then {
            (then_bb, else_bb)
        } else {
            (else_bb, then_bb)
        };
        self.remove_pred(dropped, b);
        self.replace_term(b, Terminator::Jump { target: taken });
    }

    /// Applies `f` to every value operand of `b`'s terminator, leaving its
    /// successors untouched. Used by the parser to patch forward
    /// references and by optimizations to rewrite branch conditions.
    pub fn patch_terminator_inputs(&mut self, b: BlockId, f: impl FnMut(&mut InstId)) {
        self.touch_block(b);
        self.note_edit();
        // On a copy, so that a panicking `f` leaves terminator and use
        // lists as they were.
        let mut term = self.blocks[b.index()].term.clone();
        term.for_each_input_mut(f);
        self.replace_term(b, term);
    }

    /// Sets the probability of the branch terminating `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not terminated by a branch.
    pub fn set_branch_probability(&mut self, b: BlockId, prob: f64) {
        // Probabilities feed BlockFrequencies, a CFG-level analysis, so this
        // counts as a CFG change even though no edge moves.
        self.touch_block(b);
        self.bump_cfg();
        match &mut self.blocks[b.index()].term {
            Terminator::Branch { prob_then, .. } => *prob_then = prob,
            _ => panic!("{b} is not terminated by a branch"),
        }
    }

    /// Rewrites every use of `old` (in attached instructions and in the
    /// terminators of all blocks) to `new`. O(uses of `old`).
    pub fn replace_all_uses(&mut self, old: InstId, new: InstId) {
        assert_ne!(old, new, "cannot replace a value with itself");
        #[cfg(debug_assertions)]
        self.assert_uses_match_scan(old);
        self.note_edit();
        for user in self.uses.held_for(old) {
            // A user holding `old` in several slots is listed once per
            // slot; its first visit rewrites them all.
            let rewrite = |slot: &mut InstId| {
                if *slot == old {
                    *slot = new;
                }
            };
            match user {
                Use::Inst(i) => {
                    self.touch_inst(i);
                    self.insts[i.index()].inst.for_each_input_mut(rewrite);
                }
                Use::Term(b) => {
                    self.touch_block(b);
                    self.blocks[b.index()].term.for_each_input_mut(rewrite);
                }
            }
        }
        self.uses.rename(old, new);
    }

    /// The operand slots that mention `v`, one item per slot, in no
    /// particular order (see [`Graph::users_in_layout_order`]). Only live
    /// slots count: operands of attached instructions and of every
    /// block's terminator. Empty for an id outside the arena.
    pub fn uses(&self, v: InstId) -> impl Iterator<Item = Use> + '_ {
        self.uses.of(v)
    }

    /// The distinct users of `v` in layout order: by block index, then
    /// position within the block, a block's terminator last — the order a
    /// walk over all blocks meets them in.
    pub fn users_in_layout_order(&self, v: InstId) -> Vec<Use> {
        let mut keyed = Vec::new();
        self.users_in_layout_order_into(v, &mut keyed);
        keyed.into_iter().map(|(_, _, user)| user).collect()
    }

    /// [`Graph::users_in_layout_order`] into a reused buffer: `keyed` is
    /// cleared, then holds `(block, position in block, user)` per distinct
    /// user, sorted, a terminator at position `usize::MAX`.
    pub fn users_in_layout_order_into(&self, v: InstId, keyed: &mut Vec<(BlockId, usize, Use)>) {
        keyed.clear();
        keyed.extend(self.uses(v).map(|user| match user {
            Use::Inst(i) => {
                let b = self.insts[i.index()]
                    .block
                    .expect("use lists hold attached users only");
                (b, 0, user)
            }
            Use::Term(b) => (b, usize::MAX, user),
        }));
        if keyed.len() > 1 {
            for (b, pos, user) in keyed.iter_mut() {
                if let Use::Inst(i) = *user {
                    let insts = &self.blocks[b.index()].insts;
                    *pos = insts
                        .iter()
                        .position(|&x| x == i)
                        .expect("inst missing from its block");
                }
            }
            keyed.sort_unstable();
            keyed.dedup();
        }
        #[cfg(debug_assertions)]
        self.assert_ordered_users_match_scan(v, keyed);
    }

    /// Differential oracle: the ordered distinct users of `v` against
    /// the walk over all blocks the lists replaced — every consumer that
    /// depends on layout order reads it through
    /// [`Graph::users_in_layout_order`], so this one check covers them.
    #[cfg(debug_assertions)]
    fn assert_ordered_users_match_scan(&self, v: InstId, keyed: &[(BlockId, usize, Use)]) {
        let ordered: Vec<Use> = keyed.iter().map(|&(_, _, user)| user).collect();
        let mut scanned = Vec::new();
        for (idx, block) in self.blocks.iter().enumerate() {
            let term = Use::Term(BlockId::from_index(idx));
            let users = block.insts.iter().map(|&i| Use::Inst(i)).chain([term]);
            scanned.extend(users.filter(|&user| self.slots_mentioning(user, v) > 0));
        }
        assert_eq!(
            ordered, scanned,
            "ordered users of {v} diverged from the scan"
        );
    }

    /// Returns `true` if any live instruction or terminator uses `id`.
    /// O(1).
    pub fn has_uses(&self, id: InstId) -> bool {
        self.uses.any(id)
    }

    /// The reference form of the use lists: every live operand slot,
    /// found by walking both arenas, handed to `f` as `(value, user)`.
    #[cfg(any(test, debug_assertions))]
    fn scan_uses(&self, mut f: impl FnMut(InstId, Use)) {
        for (idx, data) in self.insts.iter().enumerate() {
            if data.block.is_some() {
                let user = Use::Inst(InstId::from_index(idx));
                data.inst.for_each_input(|v| f(v, user));
            }
        }
        for (idx, block) in self.blocks.iter().enumerate() {
            let user = Use::Term(BlockId::from_index(idx));
            block.term.for_each_input(|v| f(v, user));
        }
    }

    /// Differential oracle: the maintained list of `v` against the arena
    /// walk it replaced.
    #[cfg(debug_assertions)]
    fn assert_uses_match_scan(&self, v: InstId) {
        let mut scanned = Vec::new();
        self.scan_uses(|value, user| {
            if value == v {
                scanned.push(user);
            }
        });
        scanned.sort_unstable();
        let mut listed = self.uses.held_for(v);
        listed.sort_unstable();
        assert_eq!(listed, scanned, "use list of {v} diverged from the scan");
    }

    /// How many operand slots of `user` mention `v` right now (none if
    /// the user is detached or does not exist).
    #[cfg(debug_assertions)]
    fn slots_mentioning(&self, user: Use, v: InstId) -> u32 {
        let mut slots = 0;
        let count = |input: InstId| slots += u32::from(input == v);
        match user {
            Use::Inst(i) => {
                let attached = self.insts.get(i.index()).filter(|d| d.block.is_some());
                if let Some(data) = attached {
                    data.inst.for_each_input(count);
                }
            }
            Use::Term(b) => {
                if let Some(block) = self.blocks.get(b.index()) {
                    block.term.for_each_input(count);
                }
            }
        }
        slots
    }

    /// Compares every use list against `expected`, the lists the live
    /// operand slots imply (the verifier's operand sweep builds it), and
    /// returns `(value, entries held, entries expected)` for each value
    /// whose list is not that multiset, plus the list nodes walked — each
    /// chain once. O(graph), no sorting; what the `use-list-mismatch`
    /// lint reports.
    pub(crate) fn use_list_mismatches_against(
        &self,
        expected: &UseLists,
    ) -> (Vec<(InstId, usize, usize)>, u64) {
        self.uses.mismatches(expected, self.blocks.len())
    }

    /// [`Graph::use_list_mismatches_against`] the recount of
    /// [`Graph::scan_uses`], the reference form.
    #[cfg(test)]
    pub(crate) fn use_list_mismatches(&self) -> Vec<(InstId, usize, usize)> {
        let mut expected = UseLists::with_arena(self.insts.len());
        self.scan_uses(|v, user| expected.add(v, user));
        self.use_list_mismatches_against(&expected).0
    }

    /// Moves every non-φ instruction of `from` (in order) to the end of
    /// `to`, and transfers `from`'s terminator to `to`. Used when a block
    /// degenerates to a single predecessor and gets merged into it.
    ///
    /// The caller must first have eliminated `from`'s φs and must ensure
    /// `to`'s unique successor is `from`.
    pub fn merge_block_into_pred(&mut self, from: BlockId, to: BlockId) {
        self.touch_block(from);
        self.touch_block(to);
        self.bump_cfg();
        assert_eq!(
            self.succs(to),
            vec![from],
            "{to} must jump straight to {from}"
        );
        assert_eq!(
            self.preds(from),
            &[to],
            "{from} must have {to} as sole predecessor"
        );
        assert!(self.phis(from).is_empty(), "{from} still has phis");
        let moved = std::mem::take(&mut self.blocks[from.index()].insts);
        for &i in moved.iter() {
            self.touch_inst(i);
            self.insts[i.index()].block = Some(to);
        }
        self.blocks[to.index()].insts.extend_from_slice(&moved);
        // Transfer the terminator: reuse the edge bookkeeping by first
        // clearing `from`'s terminator, then installing it on `to`.
        let term = self.replace_term(from, Terminator::Deopt);
        for s in term.successors() {
            // Rewrite pred entries of successors from `from` to `to`.
            let idx = self.pred_index(s, from);
            self.touch_block(s);
            self.blocks[s.index()].preds[idx] = to;
        }
        // `to`'s old terminator was Jump{from}; drop its pred entry.
        self.remove_pred(from, to);
        self.replace_term(to, term);
    }

    /// Test hook: drops `b`'s `idx`-th predecessor entry *without* touching
    /// the predecessor's terminator or `b`'s φs — a broken pred/succ
    /// mirror no public primitive can produce, recorded in the undo log
    /// like any other edit.
    #[cfg(test)]
    pub(crate) fn break_pred_mirror(&mut self, b: BlockId, idx: usize) {
        self.touch_block(b);
        self.bump_cfg();
        self.blocks[b.index()].preds.remove(idx);
    }

    /// Gives back the growth slack of the use lists — for a graph that is
    /// done growing and will be kept (a clone carries none to begin with).
    pub(crate) fn trim_use_lists(&mut self) {
        self.uses.shrink_to_fit();
    }

    /// Test hook: drops one entry of `v`'s use list without touching any
    /// operand — a state no public primitive can produce. Not recorded in
    /// the undo log: the lists are not footprint slots.
    #[cfg(test)]
    pub(crate) fn break_use_list(&mut self, v: InstId) {
        self.uses.break_list(v);
    }

    /// Test hook: re-records `id` as belonging to `to` *without* touching
    /// any block's instruction list — a listing/record mismatch no public
    /// primitive can produce, recorded in the undo log like any other
    /// edit. The use lists stay exact: `id` is attached before and after.
    #[cfg(test)]
    pub(crate) fn move_inst_record(&mut self, id: InstId, to: BlockId) {
        self.touch_inst(id);
        self.note_edit();
        self.insts[id.index()].block = Some(to);
    }

    /// Test hook: corrupts the innermost frame's first-touch backup of
    /// `id` — a state no primitive can produce; rollback then restores a
    /// value the slot never had.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn tamper_saved_inst(&mut self, id: InstId) {
        let at = self
            .undo
            .frames
            .last()
            .expect("an open transaction")
            .insts_at;
        let saved = self.undo.insts[at..].iter_mut().find(|e| e.slot == id.0);
        saved.expect("slot is backed up").data.ty = Type::Void;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, CmpOp};
    use crate::types::ConstValue;

    fn empty_table() -> Arc<ClassTable> {
        Arc::new(ClassTable::new())
    }

    /// Builds the diamond from Figure 1 of the paper:
    /// `if (x > 0) phi = x else phi = 0; return 2 + phi`.
    fn figure1() -> (Graph, BlockId, BlockId, BlockId, InstId) {
        let mut g = Graph::new("foo", &[Type::Int], empty_table());
        let entry = g.entry();
        let x = g.param_values()[0];
        let zero = g.append_inst(entry, Inst::Const(ConstValue::Int(0)), Type::Int);
        let cond = g.append_inst(
            entry,
            Inst::Compare {
                op: CmpOp::Gt,
                lhs: x,
                rhs: zero,
            },
            Type::Bool,
        );
        let bt = g.add_block();
        let bf = g.add_block();
        let bm = g.add_block();
        g.set_terminator(
            entry,
            Terminator::Branch {
                cond,
                then_bb: bt,
                else_bb: bf,
                prob_then: 0.5,
            },
        );
        g.set_terminator(bt, Terminator::Jump { target: bm });
        g.set_terminator(bf, Terminator::Jump { target: bm });
        let phi = g.append_phi(bm, vec![x, zero], Type::Int);
        let two = g.append_inst(bm, Inst::Const(ConstValue::Int(2)), Type::Int);
        let sum = g.append_inst(
            bm,
            Inst::Binary {
                op: BinOp::Add,
                lhs: two,
                rhs: phi,
            },
            Type::Int,
        );
        g.set_terminator(bm, Terminator::Return { value: Some(sum) });
        (g, bt, bf, bm, phi)
    }

    #[test]
    fn builds_diamond_with_consistent_edges() {
        let (g, bt, bf, bm, phi) = figure1();
        assert_eq!(g.preds(bm), &[bt, bf]);
        assert_eq!(g.succs(g.entry()), vec![bt, bf]);
        assert!(g.is_merge(bm));
        assert_eq!(g.merge_blocks(), vec![bm]);
        assert_eq!(g.phis(bm), &[phi]);
        match g.inst(phi) {
            Inst::Phi { inputs } => assert_eq!(inputs.len(), 2),
            _ => panic!("expected phi"),
        }
    }

    #[test]
    fn params_are_created_in_entry() {
        let g = Graph::new("p", &[Type::Int, Type::Bool], empty_table());
        assert_eq!(g.param_values().len(), 2);
        assert_eq!(g.ty(g.param_values()[0]), Type::Int);
        assert_eq!(g.ty(g.param_values()[1]), Type::Bool);
        assert_eq!(g.block_of(g.param_values()[0]), Some(g.entry()));
    }

    #[test]
    fn fold_branch_drops_phi_input() {
        // entry branches to bt or directly to the merge bm; bt jumps to bm.
        let mut g = Graph::new("fold", &[Type::Int], empty_table());
        let entry = g.entry();
        let x = g.param_values()[0];
        let zero = g.append_inst(entry, Inst::Const(ConstValue::Int(0)), Type::Int);
        let cond = g.append_inst(
            entry,
            Inst::Compare {
                op: CmpOp::Gt,
                lhs: x,
                rhs: zero,
            },
            Type::Bool,
        );
        let bt = g.add_block();
        let bm = g.add_block();
        g.set_terminator(
            entry,
            Terminator::Branch {
                cond,
                then_bb: bt,
                else_bb: bm,
                prob_then: 0.5,
            },
        );
        g.set_terminator(bt, Terminator::Jump { target: bm });
        let phi = g.append_phi(bm, vec![zero, x], Type::Int);
        g.set_terminator(bm, Terminator::Return { value: Some(phi) });
        assert_eq!(g.preds(bm), &[entry, bt]);

        // Fold the branch towards bt: the entry→bm edge disappears and the
        // phi loses the corresponding input.
        g.fold_branch(entry, true);
        assert_eq!(g.succs(entry), vec![bt]);
        assert_eq!(g.preds(bm), &[bt]);
        match g.inst(phi) {
            Inst::Phi { inputs } => assert_eq!(inputs, &vec![x]),
            _ => panic!("expected phi"),
        }
    }

    #[test]
    fn retarget_edge_moves_phi_inputs() {
        let (mut g, bt, bf, bm, phi) = figure1();
        // Create a copy-destination block b' and retarget bt -> b'.
        let bcopy = g.add_block();
        g.set_terminator(bcopy, Terminator::Return { value: None });
        let x = g.param_values()[0];
        let before_inputs = match g.inst(phi) {
            Inst::Phi { inputs } => inputs.clone(),
            _ => unreachable!(),
        };
        assert_eq!(before_inputs[0], x);
        g.retarget_edge(bt, bm, bcopy, &[]);
        assert_eq!(g.succs(bt), vec![bcopy]);
        assert_eq!(g.preds(bm), &[bf]);
        assert_eq!(g.preds(bcopy), &[bt]);
        match g.inst(phi) {
            Inst::Phi { inputs } => {
                assert_eq!(inputs.len(), 1);
                assert_ne!(inputs[0], x);
            }
            _ => panic!("expected phi"),
        }
    }

    #[test]
    fn replace_all_uses_rewrites_operands_and_terminators() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let entry = g.entry();
        let hundred = g.append_inst(entry, Inst::Const(ConstValue::Int(100)), Type::Int);
        assert!(g.has_uses(phi));
        g.replace_all_uses(phi, hundred);
        assert!(!g.has_uses(phi));
        // The add in bm now uses `hundred`.
        let add = *g.block_insts(bm).last().unwrap();
        let inputs = g.inst(add).collect_inputs();
        assert!(inputs.contains(&hundred));
    }

    #[test]
    fn remove_inst_detaches() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let hundred = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(100)), Type::Int);
        g.replace_all_uses(phi, hundred);
        let live_before = g.live_inst_count();
        g.remove_inst(phi);
        assert_eq!(g.block_of(phi), None);
        assert_eq!(g.live_inst_count(), live_before - 1);
        assert!(g.phis(bm).is_empty());
    }

    #[test]
    fn use_count_counts_multiplicity() {
        let mut g = Graph::new("m", &[Type::Int], empty_table());
        let x = g.param_values()[0];
        let sq = g.append_inst(
            g.entry(),
            Inst::Binary {
                op: BinOp::Mul,
                lhs: x,
                rhs: x,
            },
            Type::Int,
        );
        g.set_terminator(g.entry(), Terminator::Return { value: Some(sq) });
        assert_eq!(g.uses(x).count(), 2);
        assert_eq!(g.uses(sq).count(), 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_duplicate_branch_successors() {
        let mut g = Graph::new("d", &[Type::Bool], empty_table());
        let c = g.param_values()[0];
        let b1 = g.add_block();
        g.set_terminator(
            g.entry(),
            Terminator::Branch {
                cond: c,
                then_bb: b1,
                else_bb: b1,
                prob_then: 0.5,
            },
        );
    }

    #[test]
    #[should_panic(expected = "has phis")]
    fn set_terminator_rejects_new_edges_into_phi_blocks() {
        let (mut g, _bt, _bf, bm, _phi) = figure1();
        let nb = g.add_block();
        g.set_terminator(nb, Terminator::Jump { target: bm });
    }

    #[test]
    fn merge_block_into_pred_moves_instructions() {
        let mut g = Graph::new("mb", &[Type::Int], empty_table());
        let entry = g.entry();
        let b1 = g.add_block();
        g.set_terminator(entry, Terminator::Jump { target: b1 });
        let x = g.param_values()[0];
        let one = g.append_inst(b1, Inst::Const(ConstValue::Int(1)), Type::Int);
        let add = g.append_inst(
            b1,
            Inst::Binary {
                op: BinOp::Add,
                lhs: x,
                rhs: one,
            },
            Type::Int,
        );
        g.set_terminator(b1, Terminator::Return { value: Some(add) });
        g.merge_block_into_pred(b1, entry);
        assert_eq!(g.block_of(add), Some(entry));
        assert!(matches!(
            g.terminator(entry),
            Terminator::Return { value: Some(v) } if *v == add
        ));
        assert!(g.block_insts(b1).is_empty());
    }

    #[test]
    fn patch_terminator_inputs_rewrites_cond() {
        let mut g = Graph::new("p", &[Type::Bool, Type::Bool], empty_table());
        let c1 = g.param_values()[0];
        let c2 = g.param_values()[1];
        let (b1, b2) = (g.add_block(), g.add_block());
        g.set_terminator(
            g.entry(),
            Terminator::Branch {
                cond: c1,
                then_bb: b1,
                else_bb: b2,
                prob_then: 0.5,
            },
        );
        g.patch_terminator_inputs(g.entry(), |i| *i = c2);
        assert!(matches!(
            g.terminator(g.entry()),
            Terminator::Branch { cond, .. } if *cond == c2
        ));
        // Successors and pred bookkeeping untouched.
        assert_eq!(g.preds(b1), &[g.entry()]);
    }

    #[test]
    fn set_branch_probability_updates_profile() {
        let mut g = Graph::new("bp", &[Type::Bool], empty_table());
        let c = g.param_values()[0];
        let (b1, b2) = (g.add_block(), g.add_block());
        g.set_terminator(
            g.entry(),
            Terminator::Branch {
                cond: c,
                then_bb: b1,
                else_bb: b2,
                prob_then: 0.5,
            },
        );
        g.set_branch_probability(g.entry(), 0.25);
        assert!(matches!(
            g.terminator(g.entry()),
            Terminator::Branch { prob_then, .. } if *prob_then == 0.25
        ));
    }

    #[test]
    fn install_terminator_with_phi_inputs_extends_phis() {
        // A merge with a phi gains a third predecessor through the
        // install API (the duplication transform's path).
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let extra = g.add_block();
        let hundred = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(100)), Type::Int);
        g.install_terminator_with_phi_inputs(
            extra,
            Terminator::Jump { target: bm },
            &[vec![hundred]],
        );
        assert_eq!(g.preds(bm).len(), 3);
        match g.inst(phi) {
            Inst::Phi { inputs } => {
                assert_eq!(inputs.len(), 3);
                assert_eq!(inputs[2], hundred);
            }
            _ => panic!("expected phi"),
        }
    }

    #[test]
    #[should_panic(expected = "already has successors")]
    fn install_terminator_rejects_terminated_blocks() {
        let (mut g, bt, _bf, bm, _) = figure1();
        g.install_terminator_with_phi_inputs(bt, Terminator::Jump { target: bm }, &[vec![]]);
    }

    #[test]
    fn versions_track_mutation_levels() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        let cfg0 = g.cfg_version();
        // Pure value rewrites leave the CFG epoch alone.
        let hundred = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(100)), Type::Int);
        assert_eq!(g.cfg_version(), cfg0);
        g.replace_all_uses(phi, hundred);
        assert_eq!(g.cfg_version(), cfg0);
        // Structural mutations move it to a fresh stamp.
        g.add_block();
        assert_ne!(g.cfg_version(), cfg0);
    }

    #[test]
    fn clone_shares_stamp_until_it_diverges() {
        let (g, ..) = figure1();
        let mut c = g.clone();
        assert_eq!(c.cfg_version(), g.cfg_version());
        c.add_block();
        assert_ne!(c.cfg_version(), g.cfg_version());
    }

    #[test]
    fn reachable_blocks_ignores_disconnected() {
        let (mut g, bt, bf, bm, _) = figure1();
        let orphan = g.add_block();
        let reach = g.reachable_blocks();
        assert!(reach.contains(&bt) && reach.contains(&bf) && reach.contains(&bm));
        assert!(!reach.contains(&orphan));
    }

    /// Debug digest of everything rollback promises to restore — the
    /// use lists as a multiset, since rollback may reorder them.
    fn digest(g: &Graph) -> String {
        format!(
            "{:?}|{:?}|{}|{:?}",
            g.insts,
            g.blocks,
            g.cfg_version,
            g.uses.canonical()
        )
    }

    fn uses_of(g: &Graph, v: InstId) -> Vec<Use> {
        g.uses(v).collect()
    }

    #[track_caller]
    fn assert_lists_exact(g: &Graph) {
        assert_eq!(g.use_list_mismatches(), vec![]);
    }

    #[test]
    fn use_lists_follow_every_primitive() {
        let (mut g, bt, _bf, bm, phi) = figure1();
        let (entry, x) = (g.entry(), g.param_values()[0]);
        assert_lists_exact(&g);
        // x: the compare, the φ. zero: the compare, the φ.
        assert_eq!(g.uses(x).count(), 2);
        let add = *g.block_insts(bm).last().unwrap();
        assert_eq!(uses_of(&g, phi), vec![Use::Inst(add)]);

        let c = g.insert_inst(entry, 1, Inst::Const(ConstValue::Int(7)), Type::Int);
        let sq = g.append_inst(
            bm,
            Inst::Binary {
                op: BinOp::Mul,
                lhs: phi,
                rhs: phi,
            },
            Type::Int,
        );
        assert_eq!(g.uses(phi).filter(|&u| u == Use::Inst(sq)).count(), 2);
        assert_lists_exact(&g);

        g.rewrite_inputs(sq, |inst| {
            if let Inst::Binary { rhs, .. } = inst {
                *rhs = c;
            }
        });
        assert_eq!(uses_of(&g, c), vec![Use::Inst(sq)]);
        assert_lists_exact(&g);

        g.patch_terminator_inputs(bm, |v| *v = sq);
        assert_eq!(uses_of(&g, sq), vec![Use::Term(bm)]);
        g.replace_all_uses(phi, c);
        assert!(!g.has_uses(phi));
        assert_eq!(g.uses(c).count(), 3);
        assert_lists_exact(&g);

        // Edge edits move φ slots; a detached instruction uses nothing.
        let copy = g.add_block();
        g.set_terminator(copy, Terminator::Return { value: Some(c) });
        g.retarget_edge(bt, bm, copy, &[]);
        assert_lists_exact(&g);
        let extra = g.add_block();
        g.install_terminator_with_phi_inputs(extra, Terminator::Jump { target: bm }, &[vec![c]]);
        assert_lists_exact(&g);
        g.fold_branch(entry, false);
        assert_lists_exact(&g);
        g.remove_inst(phi);
        assert_eq!(g.uses(x).count(), 1);
        assert_lists_exact(&g);

        let copied = g.clone();
        assert_eq!(copied.uses.canonical(), g.uses.canonical());
    }

    #[test]
    fn mismatch_check_sees_wrong_users_behind_a_right_count() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let x = g.param_values()[0];
        let cmp = g.block_insts(g.entry())[2];
        // x is used by the compare and the φ; name the compare twice.
        g.uses.remove(x, Use::Inst(phi));
        g.uses.add(x, Use::Inst(cmp));
        assert_eq!(g.use_list_mismatches(), vec![(x, 2, 2)]);
        // A user that does not mention the value at all.
        g.uses.remove(x, Use::Inst(cmp));
        g.uses.add(x, Use::Term(bm));
        assert_eq!(g.use_list_mismatches(), vec![(x, 2, 2)]);
        g.uses.remove(x, Use::Term(bm));
        g.uses.add(x, Use::Inst(phi));
        assert_lists_exact(&g);
    }

    #[test]
    fn a_rewrite_that_unwinds_half_way_leaves_exact_lists() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let x = g.param_values()[0];
        let add = *g.block_insts(bm).last().unwrap();
        let before = digest(&g);
        g.begin_txn();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            g.rewrite_inputs(add, |inst| {
                inst.for_each_input_mut(|slot| *slot = x);
                panic!("after the operands changed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(uses_of(&g, phi), vec![]);
        assert_lists_exact(&g);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            g.patch_terminator_inputs(bm, |_| panic!("before the operand changed"));
        }));
        assert!(unwound.is_err());
        assert_lists_exact(&g);
        g.rollback_txn();
        assert_eq!(digest(&g), before);
    }

    #[test]
    fn merge_block_into_pred_moves_terminator_uses() {
        let mut g = Graph::new("mb", &[Type::Int], empty_table());
        let (entry, x) = (g.entry(), g.param_values()[0]);
        let b1 = g.add_block();
        g.set_terminator(entry, Terminator::Jump { target: b1 });
        g.set_terminator(b1, Terminator::Return { value: Some(x) });
        assert_eq!(uses_of(&g, x), vec![Use::Term(b1)]);
        g.merge_block_into_pred(b1, entry);
        assert_eq!(uses_of(&g, x), vec![Use::Term(entry)]);
        assert_lists_exact(&g);
    }

    #[test]
    fn users_in_layout_order_sorts_and_dedups() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let (entry, x) = (g.entry(), g.param_values()[0]);
        let sq = g.append_inst(
            bm,
            Inst::Binary {
                op: BinOp::Mul,
                lhs: x,
                rhs: x,
            },
            Type::Int,
        );
        let neg = g.insert_inst(entry, 1, Inst::Neg(x), Type::Int);
        g.patch_terminator_inputs(bm, |v| *v = x);
        let cmp = g.block_insts(entry)[3];
        assert_eq!(
            g.users_in_layout_order(x),
            vec![
                Use::Inst(neg),
                Use::Inst(cmp),
                Use::Inst(phi),
                Use::Inst(sq),
                Use::Term(bm)
            ]
        );
    }

    #[test]
    fn forward_references_wait_as_strays_until_the_arena_covers_them() {
        // The parser's order: terminators first, naming values that do
        // not exist yet; rollback must put the strays back.
        let mut g = Graph::new("fwd", &[], empty_table());
        let entry = g.entry();
        g.set_terminator(
            entry,
            Terminator::Return {
                value: Some(InstId(1)),
            },
        );
        assert!(g.has_uses(InstId(1)), "held as a stray");
        assert_eq!(g.uses(InstId(1)).count(), 0, "not in the arena yet");
        assert_lists_exact(&g);
        let before = digest(&g);

        g.begin_txn();
        let a = g.append_inst(entry, Inst::Const(ConstValue::Int(1)), Type::Int);
        let b = g.append_inst(entry, Inst::Neg(InstId(2)), Type::Int);
        assert_eq!((a, b), (InstId(0), InstId(1)));
        assert_eq!(uses_of(&g, b), vec![Use::Term(entry)]);
        assert!(g.has_uses(InstId(2)), "held as a stray");
        assert_lists_exact(&g);
        g.rollback_txn();
        assert_eq!(digest(&g), before);
        assert_lists_exact(&g);
    }

    #[test]
    fn txn_rollback_restores_graph_and_stamps() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let before = digest(&g);
        let cfg0 = g.cfg_version();

        g.begin_txn();
        assert_eq!(g.txn_depth(), 1);
        // A representative mix: allocate, mutate an old slot, rewire edges.
        let c = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(7)), Type::Int);
        g.replace_all_uses(phi, c);
        g.fold_branch(g.entry(), true);
        let orphan = g.add_block();
        g.set_terminator(orphan, Terminator::Return { value: None });
        let last = *g.block_insts(bm).last().expect("bm has instructions");
        g.remove_inst(last);
        assert_ne!(digest(&g), before);
        assert_ne!(g.cfg_version(), cfg0);

        let restored = g.rollback_txn();
        assert!(restored > 0);
        assert_eq!(g.txn_depth(), 0);
        assert_eq!(digest(&g), before);
        assert_eq!(g.cfg_version(), cfg0);
    }

    #[test]
    fn txn_commit_keeps_mutations_and_is_transparent_to_outer_frames() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        let before = digest(&g);

        g.begin_txn(); // outer
        let c = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(9)), Type::Int);
        g.begin_txn(); // inner
        g.replace_all_uses(phi, c);
        g.commit_txn(); // inner mutations survive...
        assert_eq!(g.txn_depth(), 1);
        g.rollback_txn(); // ...until the outer frame rolls back past them.
        assert_eq!(digest(&g), before);
    }

    #[test]
    fn nested_rollback_unwinds_one_frame_at_a_time() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        let outer_state = digest(&g);

        g.begin_txn();
        let c = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(3)), Type::Int);
        let mid_state = digest(&g);

        g.begin_txn();
        g.replace_all_uses(phi, c);
        g.fold_branch(g.entry(), false);
        assert_ne!(digest(&g), mid_state);
        g.rollback_txn();
        assert_eq!(digest(&g), mid_state);

        g.rollback_txn();
        assert_eq!(digest(&g), outer_state);
    }

    #[test]
    fn undo_counters_track_edits_rollbacks_and_peak() {
        let (mut g, ..) = figure1();
        assert_eq!(g.undo_stats(), UndoStats::default());

        // Mutations outside a transaction are not counted as edits.
        g.add_block();
        assert_eq!(g.undo_stats().edits, 0);

        g.begin_txn();
        g.add_block();
        let c = g.append_inst(g.entry(), Inst::Const(ConstValue::Int(1)), Type::Int);
        let stats = g.undo_stats();
        assert_eq!(stats.edits, 2);
        // append_inst touched the (pre-txn) entry block slot.
        assert!(stats.peak_entries >= 1);
        g.rollback_txn();
        assert_eq!(g.undo_stats().rollbacks, 1);
        // The rolled-back const slot is gone from the arena entirely.
        assert!(c.index() >= g.insts.len());
    }

    #[test]
    fn clone_resets_undo_log() {
        let (mut g, ..) = figure1();
        g.begin_txn();
        g.add_block();
        let c = g.clone();
        assert_eq!(c.txn_depth(), 0);
        assert_eq!(c.undo_stats(), UndoStats::default());
        assert_eq!(g.txn_depth(), 1);
        g.rollback_txn();
    }

    #[test]
    fn rollback_matches_snapshot_restore() {
        let (mut g, _bt, _bf, bm, phi) = figure1();
        let snap = g.clone();

        g.begin_txn();
        let c = g.append_inst(bm, Inst::Const(ConstValue::Int(11)), Type::Int);
        g.replace_all_uses(phi, c);
        g.fold_branch(g.entry(), true);
        g.rollback_txn();

        assert_eq!(digest(&g), digest(&snap));
    }

    #[test]
    fn nested_commits_back_up_each_slot_once() {
        let (mut g, _bt, _bf, bm, _phi) = figure1();
        let add = *g.block_insts(bm).last().unwrap();
        g.begin_txn();
        g.begin_txn();
        g.rewrite_inputs(add, |_| ());
        // The inner frame took the one backup; the outer one takes it
        // over instead of having recorded its own.
        assert_eq!(g.commit_txn(), 1);
        assert_eq!(g.txn_footprint().insts, vec![add]);
        assert_eq!(g.commit_txn(), 1);
        assert_eq!(g.undo_stats().peak_entries, 1);
    }

    #[test]
    fn a_rolled_back_inner_frame_leaves_its_slots_in_the_outer_footprint() {
        let (mut g, bt, _bf, _bm, phi) = figure1();
        let (entry, x) = (g.entry(), g.param_values()[0]);
        let before = digest(&g);
        g.begin_txn();
        g.begin_txn();
        g.append_inst(bt, Inst::Const(ConstValue::Int(5)), Type::Int);
        g.rewrite_inputs(phi, |inst| inst.for_each_input_mut(|v| *v = x));
        g.set_branch_probability(entry, 0.25);
        g.rollback_txn();
        assert_eq!(digest(&g), before);
        let fp = g.txn_footprint();
        assert_eq!(fp.insts, vec![phi]);
        assert_eq!(fp.blocks, vec![entry, bt]);
        // The outer frame holds those backups now: touching the slots
        // again records nothing, and its rollback still restores them.
        let entries = g.undo.insts.len() + g.undo.blocks.len();
        g.rewrite_inputs(phi, |inst| inst.for_each_input_mut(|v| *v = x));
        g.set_branch_probability(entry, 0.75);
        assert_eq!(g.undo.insts.len() + g.undo.blocks.len(), entries);
        assert_eq!(g.rollback_txn(), 3);
        assert_eq!(digest(&g), before);
    }

    #[test]
    fn a_closed_frame_leaves_no_stamp_behind() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        for close in [Graph::commit_txn, Graph::rollback_txn] {
            // A frame reopened at the same depth must back the slot up
            // again, however the previous one closed.
            g.begin_txn();
            g.begin_txn();
            g.rewrite_inputs(phi, |_| ());
            close(&mut g);
            close(&mut g);
            g.begin_txn();
            assert!(g.txn_footprint().insts.is_empty());
            g.rewrite_inputs(phi, |_| ());
            assert_eq!(g.txn_footprint().insts, vec![phi]);
            g.commit_txn();
        }
        assert!(g.undo.inst_stamps.iter().all(|&s| s == 0));
        assert!(g.undo.block_stamps.iter().all(|&s| s == 0));
    }

    // The two fail-first cases below only hold where the oracles are
    // compiled: they fail (no panic) if `debug_assertions` stops arming
    // the shadow compare or the ordered-users scan.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diverged from snapshot restore")]
    fn tampered_backup_is_caught_by_the_shadow_compare() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        g.begin_txn();
        // Inner frame: its backup of φ is what gets corrupted.
        g.begin_txn();
        g.remove_inst(phi);
        g.tamper_saved_inst(phi);
        g.rollback_txn();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "diverged from the scan")]
    fn broken_use_list_is_caught_where_ordered_users_are_read() {
        let (mut g, _bt, _bf, _bm, phi) = figure1();
        g.break_use_list(phi);
        g.users_in_layout_order(phi);
    }

    #[test]
    #[should_panic(expected = "rollback_txn without an open transaction")]
    fn rollback_without_txn_panics() {
        let (mut g, ..) = figure1();
        g.rollback_txn();
    }
}
