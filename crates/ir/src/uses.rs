//! Def-use lists: for every value, the operand slots that mention it.
//!
//! The lists are a *side table* beside the [`Graph`](crate::Graph) arenas:
//! a pure function of the live operand slots (the operands of attached
//! instructions and of every block's terminator), kept current by each
//! mutating primitive so that "who uses `v`?" costs O(uses of `v`)
//! instead of a walk over the instruction arena. They are multisets — an
//! instruction that mentions `v` in two operand slots owns two entries —
//! and carry no order: consumers that need one sort
//! ([`Graph::users_in_layout_order`](crate::Graph::users_in_layout_order)).

use crate::ids::{BlockId, InstId};

/// One operand slot that mentions a value: the user it belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Use {
    /// An operand of this (attached) instruction.
    Inst(InstId),
    /// An operand of this block's terminator.
    Term(BlockId),
}

/// End of a chain / no node.
const NIL: u32 = u32::MAX;
/// Set in a packed user that is a block's terminator.
const TERM_BIT: u32 = 1 << 31;

impl Use {
    fn pack(self) -> u32 {
        let (index, tag) = match self {
            Use::Inst(i) => (i.0, 0),
            Use::Term(b) => (b.0, TERM_BIT),
        };
        assert!(index < TERM_BIT, "arena index does not fit a packed use");
        index | tag
    }

    fn unpack(packed: u32) -> Use {
        if packed & TERM_BIT == 0 {
            Use::Inst(InstId(packed))
        } else {
            Use::Term(BlockId(packed & !TERM_BIT))
        }
    }
}

/// One entry of a value's chain.
#[derive(Clone, Copy, Debug)]
struct Node {
    user: u32,
    next: u32,
}

/// The use lists of one graph: one singly linked chain per value, all
/// threaded through a single node arena — four bytes per value and eight
/// per use, no allocation per list, and a clone is three `memcpy`s.
///
/// `heads` always has exactly one slot per instruction-arena slot. An
/// operand may name an id outside the arena — the parser's forward
/// references do until they are patched, and a broken graph may for good
/// (`dangling-use`) — and such uses wait in `strays` until the arena
/// grows over the id ([`UseLists::grow`]) or the operand goes away.
#[derive(Clone, Debug)]
pub(crate) struct UseLists {
    /// First node of each value's chain.
    heads: Vec<u32>,
    nodes: Vec<Node>,
    /// Chain of recycled nodes.
    free: u32,
    strays: Vec<(InstId, Use)>,
}

impl Default for UseLists {
    fn default() -> Self {
        UseLists {
            heads: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            strays: Vec::new(),
        }
    }
}

impl UseLists {
    /// Empty lists for an arena of `len` slots, with room for about as
    /// many uses.
    pub(crate) fn with_arena(len: usize) -> Self {
        UseLists {
            heads: vec![NIL; len],
            nodes: Vec::with_capacity(len),
            ..UseLists::default()
        }
    }

    /// The uses of `v`, newest first; none for an id outside the arena.
    pub(crate) fn of(&self, v: InstId) -> impl Iterator<Item = Use> + '_ {
        let head = self.heads.get(v.index()).copied().unwrap_or(NIL);
        self.chain(head).map(Use::unpack)
    }

    /// The packed users of the chain starting at node `head`.
    fn chain(&self, head: u32) -> impl Iterator<Item = u32> + '_ {
        let mut at = head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node.user)
        })
    }

    /// The uses of `v` wherever they are held, in or out of the arena.
    pub(crate) fn held_for(&self, v: InstId) -> Vec<Use> {
        if v.index() < self.heads.len() {
            return self.of(v).collect();
        }
        let strays = self.strays.iter().filter(|&&(s, _)| s == v);
        strays.map(|&(_, user)| user).collect()
    }

    /// Whether any operand slot mentions `v`. O(1) inside the arena.
    pub(crate) fn any(&self, v: InstId) -> bool {
        match self.heads.get(v.index()) {
            Some(&head) => head != NIL,
            None => self.strays.iter().any(|&(s, _)| s == v),
        }
    }

    /// Records one more operand slot of `user` mentioning `v`.
    pub(crate) fn add(&mut self, v: InstId, user: Use) {
        let Some(&head) = self.heads.get(v.index()) else {
            self.strays.push((v, user));
            return;
        };
        let node = Node {
            user: user.pack(),
            next: head,
        };
        let at = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let at = self.free as usize;
            self.free = self.nodes[at].next;
            self.nodes[at] = node;
            at
        };
        self.heads[v.index()] = u32::try_from(at).expect("use-node arena overflow");
    }

    /// Forgets one operand slot of `user` mentioning `v`.
    pub(crate) fn remove(&mut self, v: InstId, user: Use) {
        let found = if v.index() < self.heads.len() {
            self.unlink(v, user.pack())
        } else {
            let at = self.strays.iter().rposition(|&e| e == (v, user));
            at.map(|at| self.strays.swap_remove(at)).is_some()
        };
        debug_assert!(found, "use list of {v} has no entry for {user:?}");
    }

    /// Unlinks the newest node of `v`'s chain that holds `user` (most
    /// removals undo a recent [`UseLists::add`]).
    fn unlink(&mut self, v: InstId, user: u32) -> bool {
        let (mut prev, mut at) = (NIL, self.heads[v.index()]);
        while at != NIL {
            let node = self.nodes[at as usize];
            if node.user == user {
                match prev {
                    NIL => self.heads[v.index()] = node.next,
                    _ => self.nodes[prev as usize].next = node.next,
                }
                self.nodes[at as usize].next = self.free;
                self.free = at;
                return true;
            }
            (prev, at) = (at, node.next);
        }
        false
    }

    /// Hands every use of `old` over to `new` (the operands themselves
    /// are the caller's to rewrite). O(uses of `old`).
    pub(crate) fn rename(&mut self, old: InstId, new: InstId) {
        let arena = self.heads.len();
        if old.index() >= arena || new.index() >= arena {
            for user in self.held_for(old) {
                self.remove(old, user);
                self.add(new, user);
            }
            return;
        }
        let head = std::mem::replace(&mut self.heads[old.index()], NIL);
        if head == NIL {
            return;
        }
        let mut tail = head;
        while self.nodes[tail as usize].next != NIL {
            tail = self.nodes[tail as usize].next;
        }
        self.nodes[tail as usize].next = self.heads[new.index()];
        self.heads[new.index()] = head;
    }

    /// Adds the list of the arena slot just allocated, adopting the
    /// strays that were waiting for its id.
    pub(crate) fn grow(&mut self) {
        self.heads.push(NIL);
        // Re-adding sends each stray wherever its id now belongs.
        for (v, user) in std::mem::take(&mut self.strays) {
            self.add(v, user);
        }
    }

    /// Drops the lists of the arena slots at or past `len`. Entries still
    /// in them belong to users that outlive the truncation (the caller
    /// retracted everyone else's first), so they become strays again.
    pub(crate) fn truncate(&mut self, len: usize) {
        for index in len..self.heads.len() {
            let v = InstId::from_index(index);
            let mut at = self.heads[index];
            while at != NIL {
                let node = self.nodes[at as usize];
                self.strays.push((v, Use::unpack(node.user)));
                self.nodes[at as usize].next = self.free;
                self.free = at;
                at = node.next;
            }
        }
        self.heads.truncate(len);
    }

    /// Gives back the vectors' growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.heads.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }

    /// The uses of ids outside the arena, sorted.
    fn sorted_strays(&self) -> Vec<(InstId, Use)> {
        let mut strays = self.strays.clone();
        strays.sort_unstable();
        strays
    }

    /// Compares these lists with `expected`, the lists the live operand
    /// slots imply (same arena length), and returns `(value, entries
    /// held, entries expected)` for each value whose list is not that
    /// multiset, plus the number of nodes of these lists walked. `blocks`
    /// bounds the terminator users. O(arena + uses), no sorting outside
    /// the strays.
    ///
    /// Each value's expected chain marks its users pending, then its own
    /// chain is walked once and each entry settles one pending slot of
    /// its user: the list is exact iff every entry finds one and it is as
    /// long as the expected chain.
    pub(crate) fn mismatches(
        &self,
        expected: &UseLists,
        blocks: usize,
    ) -> (Vec<(InstId, usize, usize)>, u64) {
        let n = self.heads.len();
        debug_assert_eq!(expected.heads.len(), n, "arena lengths differ");
        // Pending slots per user: instructions first, then terminators.
        let mut pending = vec![0u32; n + blocks];
        let slot = |user: u32| -> Option<usize> {
            let index = (user & !TERM_BIT) as usize;
            match user & TERM_BIT {
                0 => (index < n).then_some(index),
                _ => (index < blocks).then_some(n + index),
            }
        };
        let (mut out, mut walked) = (Vec::new(), 0u64);
        for (v, (&head, &expected_head)) in self.heads.iter().zip(&expected.heads).enumerate() {
            // The common shapes, decided without the pending table.
            match (
                self.nodes.get(head as usize),
                expected.nodes.get(expected_head as usize),
            ) {
                (None, None) => continue,
                (Some(node), Some(only)) if node.next == NIL && only.next == NIL => {
                    walked += 1;
                    if node.user != only.user {
                        out.push((InstId::from_index(v), 1, 1));
                    }
                    continue;
                }
                _ => {}
            }
            let mut slots = 0u32;
            for user in expected.chain(expected_head) {
                // The expected users come from live slots: always in range.
                if let Some(k) = slot(user) {
                    pending[k] += 1;
                }
                slots += 1;
            }
            let (mut held, mut exact) = (0u32, true);
            for user in self.chain(head) {
                held += 1;
                match slot(user).map(|k| &mut pending[k]) {
                    Some(left) if *left > 0 => *left -= 1,
                    _ => exact = false,
                }
            }
            walked += u64::from(held);
            if !exact || held != slots {
                for k in expected.chain(expected_head).filter_map(slot) {
                    pending[k] = 0;
                }
                out.push((InstId::from_index(v), held as usize, slots as usize));
            }
        }

        let (strays, stray_slots) = (self.sorted_strays(), expected.sorted_strays());
        if strays != stray_slots {
            let mut values: Vec<InstId> = strays.iter().chain(&stray_slots).map(|e| e.0).collect();
            values.sort_unstable();
            values.dedup();
            for v in values {
                let run_of = |all: &[(InstId, Use)]| -> Vec<Use> {
                    let run = all.iter().filter(|e| e.0 == v);
                    run.map(|e| e.1).collect()
                };
                let (held, slots) = (run_of(&strays), run_of(&stray_slots));
                if held != slots {
                    out.push((v, held.len(), slots.len()));
                }
            }
        }
        (out, walked)
    }

    /// Every `(value, user)` entry, sorted — the multiset in canonical
    /// form, for comparing two tables (the undo shadow oracle and tests).
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn canonical(&self) -> Vec<(InstId, Use)> {
        let mut all: Vec<(InstId, Use)> = self.strays.clone();
        for index in 0..self.heads.len() {
            let v = InstId::from_index(index);
            all.extend(self.of(v).map(|user| (v, user)));
        }
        all.sort_unstable();
        all
    }

    /// Test hook: silently drops one entry of `v`'s list — a state no
    /// primitive can produce.
    #[cfg(test)]
    pub(crate) fn break_list(&mut self, v: InstId) {
        let newest = self.of(v).next().expect("value has a use");
        self.remove(v, newest);
    }
}
