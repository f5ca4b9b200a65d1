//! A short list stored in place: a block's instruction and predecessor
//! lists.
//!
//! Most blocks hold a few instructions and have one or two predecessors,
//! so a `Vec` per list made every block cost two heap allocations, and a
//! graph clone two per block. [`InlineList`] keeps up to `N` elements
//! inside the block itself and moves them to a `Vec` only when the list
//! outgrows that; a list that has spilled stays on the heap (its
//! capacity is reused by the undo log's restores), except that a clone
//! of a short list is stored in place again.
//!
//! The list reads as a slice (`Deref<Target = [T]>`), so the graph's
//! accessors hand out `&[T]` exactly as before.

use crate::ids::{BlockId, InstId};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// An element type with a value to fill a new list's slots with.
pub(crate) trait Filler: Copy {
    /// The filling; slots at and past the length are never read.
    const FILL: Self;
}

impl Filler for InstId {
    const FILL: InstId = InstId(u32::MAX);
}

impl Filler for BlockId {
    const FILL: BlockId = BlockId(u32::MAX);
}

/// A list of up to `N` elements stored in place, spilling to a `Vec`.
pub(crate) enum InlineList<T: Filler, const N: usize> {
    /// `items[..len]` are the elements.
    Inline { len: u8, items: [T; N] },
    /// The list outgrew `N` at some point.
    Heap(Vec<T>),
}

impl<T: Filler, const N: usize> InlineList<T, N> {
    /// The empty list.
    pub(crate) const fn new() -> Self {
        InlineList::Inline {
            len: 0,
            items: [T::FILL; N],
        }
    }

    /// Appends `value`.
    pub(crate) fn push(&mut self, value: T) {
        match self {
            InlineList::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = value;
                *len += 1;
            }
            InlineList::Inline { .. } => self.spill(1).push(value),
            InlineList::Heap(v) => v.push(value),
        }
    }

    /// Inserts `value` at `at`, shifting the later elements up.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub(crate) fn insert(&mut self, at: usize, value: T) {
        match self {
            InlineList::Inline { len, items } if (*len as usize) < N => {
                let n = *len as usize;
                assert!(at <= n, "insertion index {at} beyond length {n}");
                items.copy_within(at..n, at + 1);
                items[at] = value;
                *len += 1;
            }
            InlineList::Inline { .. } => self.spill(1).insert(at, value),
            InlineList::Heap(v) => v.insert(at, value),
        }
    }

    /// Removes and returns the element at `at`, shifting the later ones
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `at >= len`.
    pub(crate) fn remove(&mut self, at: usize) -> T {
        match self {
            InlineList::Inline { len, items } => {
                let n = *len as usize;
                assert!(at < n, "removal index {at} beyond length {n}");
                let value = items[at];
                items.copy_within(at + 1..n, at);
                *len -= 1;
                value
            }
            InlineList::Heap(v) => v.remove(at),
        }
    }

    /// Removes every element, keeping a spilled list's capacity.
    pub(crate) fn clear(&mut self) {
        match self {
            InlineList::Inline { len, .. } => *len = 0,
            InlineList::Heap(v) => v.clear(),
        }
    }

    /// Appends every element of `values`.
    pub(crate) fn extend_from_slice(&mut self, values: &[T]) {
        match self {
            InlineList::Inline { len, items } if *len as usize + values.len() <= N => {
                let n = *len as usize;
                items[n..n + values.len()].copy_from_slice(values);
                *len += values.len() as u8;
            }
            InlineList::Inline { .. } => self.spill(values.len()).extend_from_slice(values),
            InlineList::Heap(v) => v.extend_from_slice(values),
        }
    }

    /// Moves the inline elements to a `Vec` with room for `more`.
    fn spill(&mut self, more: usize) -> &mut Vec<T> {
        if let InlineList::Inline { len, items } = self {
            let n = *len as usize;
            let mut v = Vec::with_capacity((n + more).max(2 * N));
            v.extend_from_slice(&items[..n]);
            *self = InlineList::Heap(v);
        }
        match self {
            InlineList::Heap(v) => v,
            InlineList::Inline { .. } => unreachable!("just spilled"),
        }
    }
}

impl<T: Filler, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Filler, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineList::Inline { len, items } => &items[..*len as usize],
            InlineList::Heap(v) => v,
        }
    }
}

impl<T: Filler, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineList::Inline { len, items } => &mut items[..*len as usize],
            InlineList::Heap(v) => v,
        }
    }
}

impl<T: Filler, const N: usize> Clone for InlineList<T, N> {
    /// A copy that is stored in place whenever it fits, so cloning a
    /// graph allocates nothing for its short lists.
    fn clone(&self) -> Self {
        match self {
            InlineList::Heap(v) if v.len() > N => InlineList::Heap(v.clone()),
            _ => {
                let mut copy = Self::new();
                copy.extend_from_slice(self);
                copy
            }
        }
    }
}

impl<T: Filler + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Filler for u32 {
        const FILL: u32 = u32::MAX;
    }

    /// One step of a script: an operation and two random arguments.
    fn apply(list: &mut InlineList<u32, 4>, model: &mut Vec<u32>, op: u8, a: u32, b: usize) {
        match op {
            0..=3 => {
                list.push(a);
                model.push(a);
            }
            4 => {
                let at = b % (model.len() + 1);
                list.insert(at, a);
                model.insert(at, a);
            }
            5 if !model.is_empty() => {
                let at = b % model.len();
                assert_eq!(list.remove(at), model.remove(at));
            }
            6 => {
                list.clear();
                model.clear();
            }
            7 => {
                let values: Vec<u32> = (0..b % 7).map(|k| a + k as u32).collect();
                list.extend_from_slice(&values);
                model.extend_from_slice(&values);
            }
            8 => {
                let taken = std::mem::take(list);
                assert_eq!(&*taken, &model[..]);
                model.clear();
                // The moved-out list keeps working on its own.
                let mut again = taken.clone();
                again.push(a);
                assert_eq!(again.last(), Some(&a));
            }
            9 if !model.is_empty() => {
                let at = b % model.len();
                list[at] = a;
                model[at] = a;
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random scripts across the inline-to-heap boundary read back
        /// exactly as the same script on a `Vec`, after every step and
        /// through a clone.
        #[test]
        fn scripts_match_a_vec(
            ops in proptest::collection::vec((0u8..10, 0u32..1000, 0usize..64), 0..40)
        ) {
            let mut list: InlineList<u32, 4> = InlineList::new();
            let mut model: Vec<u32> = Vec::new();
            for (op, a, b) in ops {
                apply(&mut list, &mut model, op, a, b);
                prop_assert_eq!(&*list, &model[..]);
                let copy = list.clone();
                prop_assert_eq!(&*copy, &model[..]);
                prop_assert_eq!(matches!(copy, InlineList::Heap(_)), model.len() > 4);
            }
        }
    }

    #[test]
    fn spilled_lists_keep_their_capacity_when_cleared() {
        let mut list: InlineList<u32, 2> = InlineList::new();
        list.extend_from_slice(&[1, 2, 3]);
        list.clear();
        assert!(matches!(list, InlineList::Heap(_)));
        list.push(4);
        assert_eq!(&*list, &[4]);
    }
}
