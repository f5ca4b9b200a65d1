//! Property tests for the back end over real generated programs: the
//! fundamental register-allocation invariant (no two simultaneously live
//! values share a register) and structural emission properties.

use dbds_backend::{
    compile_to_machine_code, linear_scan, live_intervals, Linearization, Location, NUM_REGS,
};
use dbds_workloads::{generate_graph, FragmentKind, Profile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        2usize..8,
        proptest::collection::vec(0.05f64..1.0, FragmentKind::ALL.len()),
    )
        .prop_map(|(count, weights)| Profile {
            fragments: (count, count + 3),
            weights: FragmentKind::ALL.iter().copied().zip(weights).collect(),
            input_sets: 1,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No two overlapping live intervals are assigned the same register.
    #[test]
    fn no_interference_in_registers(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("ra", &profile, seed);
        let lin = Linearization::compute(&g);
        let intervals = live_intervals(&g, &lin);
        let alloc = linear_scan(&intervals, NUM_REGS);
        for (i, a) in intervals.iter().enumerate() {
            for b in &intervals[i + 1..] {
                if b.start > a.end {
                    break; // sorted by start: no later interval overlaps a
                }
                // a and b overlap: [a.start, a.end] ∩ [b.start, b.end] ≠ ∅.
                let la = alloc.loc(a.value);
                let lb = alloc.loc(b.value);
                if let (Location::Reg(ra), Location::Reg(rb)) = (la, lb) {
                    prop_assert_ne!(
                        ra, rb,
                        "{} [{}..{}] and {} [{}..{}] share r{}",
                        a.value, a.start, a.end, b.value, b.start, b.end, ra
                    );
                }
            }
        }
    }

    /// Spilled values get distinct stack slots.
    #[test]
    fn spill_slots_are_unique(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("sl", &profile, seed);
        let lin = Linearization::compute(&g);
        let intervals = live_intervals(&g, &lin);
        let alloc = linear_scan(&intervals, 4); // force pressure
        let mut slots: Vec<u32> = alloc
            .locations
            .iter()
            .flatten()
            .filter_map(|l| match l {
                Location::Slot(s) => Some(*s),
                Location::Reg(_) => None,
            })
            .collect();
        let n = slots.len();
        slots.sort();
        slots.dedup();
        prop_assert_eq!(slots.len(), n, "duplicate stack slots");
    }

    /// Intervals are well-formed: start ≤ end, definition position
    /// matches the layout, and values are unique.
    #[test]
    fn intervals_are_wellformed(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("iv", &profile, seed);
        let lin = Linearization::compute(&g);
        let intervals = live_intervals(&g, &lin);
        let mut seen = std::collections::HashSet::new();
        for iv in &intervals {
            prop_assert!(iv.start <= iv.end);
            prop_assert_eq!(iv.start, lin.pos(iv.value));
            prop_assert!(seen.insert(iv.value), "duplicate interval for {}", iv.value);
        }
    }

    /// Fewer registers never produce *larger* register counts and always
    /// produce at least as many spills.
    #[test]
    fn pressure_monotonicity(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("pm", &profile, seed);
        let lin = Linearization::compute(&g);
        let intervals = live_intervals(&g, &lin);
        let tight = linear_scan(&intervals, 4);
        let roomy = linear_scan(&intervals, 32);
        prop_assert!(tight.spills >= roomy.spills);
        prop_assert!(tight.regs_used <= 4);
    }

    /// Machine code grows monotonically-ish with the instruction count:
    /// at least one byte per live instruction.
    #[test]
    fn emitted_code_covers_instructions(seed in 0u64..1_000_000, profile in arb_profile()) {
        let g = generate_graph("sz", &profile, seed);
        let mc = compile_to_machine_code(&g);
        prop_assert!(mc.size() >= g.live_inst_count());
    }
}
