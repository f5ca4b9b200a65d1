//! Linear-scan register allocation (Poletto & Sarkar style).

use crate::liveness::Interval;
use dbds_ir::InstId;

/// Where a value lives after allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Location {
    /// A machine register.
    Reg(u8),
    /// A stack slot (spilled).
    Slot(u32),
}

impl Location {
    /// Returns `true` for spilled values.
    pub fn is_slot(self) -> bool {
        matches!(self, Location::Slot(_))
    }
}

/// The allocation result.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Location of every allocated value, indexed by `InstId::index()`
    /// (`None` for values without an interval).
    pub locations: Vec<Option<Location>>,
    /// Number of stack slots used.
    pub slots: u32,
    /// Number of values spilled.
    pub spills: u32,
    /// Number of distinct registers used.
    pub regs_used: u8,
}

impl Allocation {
    /// Location of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not allocated (void or unreachable values).
    pub fn loc(&self, v: InstId) -> Location {
        self.get(v)
            .unwrap_or_else(|| panic!("{v} has no allocated location"))
    }

    /// Location of `v`, or `None` if it was not allocated.
    pub(crate) fn get(&self, v: InstId) -> Option<Location> {
        self.locations.get(v.index()).copied().flatten()
    }
}

/// Allocates `intervals` (sorted by start) to `num_regs` registers.
pub fn linear_scan(intervals: &[Interval], num_regs: u8) -> Allocation {
    assert!(num_regs > 0, "need at least one register");
    let n = intervals.iter().map(|iv| iv.value.index() + 1).max();
    let mut locations = vec![None; n.unwrap_or(0)];
    // Active intervals currently holding a register, sorted by end.
    let mut active: Vec<(Interval, u8)> = Vec::new();
    let mut free: Vec<u8> = (0..num_regs).rev().collect();
    let mut slots: u32 = 0;
    let mut spills: u32 = 0;
    let mut regs_used: u8 = 0;

    for &iv in intervals {
        // Expire intervals that ended before this one starts.
        let mut k = 0;
        while k < active.len() {
            if active[k].0.end < iv.start {
                free.push(active[k].1);
                active.remove(k);
            } else {
                k += 1;
            }
        }
        if let Some(r) = free.pop() {
            locations[iv.value.index()] = Some(Location::Reg(r));
            regs_used = regs_used.max(r + 1);
            active.push((iv, r));
            active.sort_by_key(|(a, _)| a.end);
        } else {
            // Spill heuristic: evict the candidate (an active interval or
            // the current one) with the worst range-length-per-use score —
            // long, rarely-used ranges go to the stack, hot values keep
            // their registers.
            let score =
                |a: &Interval| (a.end.saturating_sub(iv.start)) as f64 / (1.0 + a.uses as f64);
            let (victim_ix, _) = active
                .iter()
                .enumerate()
                .map(|(ix, (a, _))| (ix, score(a)))
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("active non-empty when full");
            if score(&active[victim_ix].0) > score(&iv) {
                let (victim, r) = active.remove(victim_ix);
                locations[iv.value.index()] = Some(Location::Reg(r));
                locations[victim.value.index()] = Some(Location::Slot(slots));
                slots += 1;
                spills += 1;
                active.push((iv, r));
                active.sort_by_key(|(a, _)| a.end);
            } else {
                locations[iv.value.index()] = Some(Location::Slot(slots));
                slots += 1;
                spills += 1;
            }
        }
    }
    Allocation {
        locations,
        slots,
        spills,
        regs_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(v: u32, start: u32, end: u32) -> Interval {
        Interval {
            value: InstId(v),
            start,
            end,
            uses: 1,
        }
    }

    #[test]
    fn disjoint_intervals_share_one_register() {
        let ivs = vec![iv(0, 0, 1), iv(1, 2, 3), iv(2, 4, 5)];
        let a = linear_scan(&ivs, 4);
        assert_eq!(a.spills, 0);
        assert_eq!(a.loc(InstId(0)), a.loc(InstId(1)));
        assert_eq!(a.loc(InstId(1)), a.loc(InstId(2)));
    }

    #[test]
    fn overlapping_intervals_get_distinct_registers() {
        let ivs = vec![iv(0, 0, 10), iv(1, 1, 9), iv(2, 2, 8)];
        let a = linear_scan(&ivs, 4);
        assert_eq!(a.spills, 0);
        let l0 = a.loc(InstId(0));
        let l1 = a.loc(InstId(1));
        let l2 = a.loc(InstId(2));
        assert_ne!(l0, l1);
        assert_ne!(l1, l2);
        assert_ne!(l0, l2);
        assert_eq!(a.regs_used, 3);
    }

    #[test]
    fn pressure_beyond_registers_spills_longest() {
        // Three overlapping intervals, two registers: the one ending last
        // gets spilled.
        let ivs = vec![iv(0, 0, 100), iv(1, 1, 5), iv(2, 2, 6)];
        let a = linear_scan(&ivs, 2);
        assert_eq!(a.spills, 1);
        assert!(a.loc(InstId(0)).is_slot(), "{:?}", a.locations);
        assert!(!a.loc(InstId(1)).is_slot());
        assert!(!a.loc(InstId(2)).is_slot());
    }

    #[test]
    fn current_interval_spilled_when_it_ends_last() {
        let ivs = vec![iv(0, 0, 5), iv(1, 1, 6), iv(2, 2, 100)];
        let a = linear_scan(&ivs, 2);
        assert_eq!(a.spills, 1);
        assert!(a.loc(InstId(2)).is_slot());
    }

    #[test]
    fn many_spills_use_distinct_slots() {
        let ivs: Vec<Interval> = (0..10).map(|v| iv(v, 0, 50)).collect();
        let a = linear_scan(&ivs, 2);
        assert_eq!(a.spills, 8);
        assert_eq!(a.slots, 8);
        let mut slot_ids: Vec<u32> = a
            .locations
            .iter()
            .flatten()
            .filter_map(|l| match l {
                Location::Slot(s) => Some(*s),
                Location::Reg(_) => None,
            })
            .collect();
        slot_ids.sort();
        slot_ids.dedup();
        assert_eq!(slot_ids.len(), 8);
    }
}
