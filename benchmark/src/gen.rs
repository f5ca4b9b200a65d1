//! Seeded workload generation. `--seed` is the only source of
//! randomness: candidate `i` of workload `w` is
//! `generate_graph(name, &suite.profile(), mix(seed, w, i))` with inputs
//! from the same derived seed, and a workload's units are a size-
//! stratified draw from its candidates ([`units`]). The program
//! under test only ever receives the generated graphs (or their IR
//! text).

use crate::api::{
    execute, generate_graph, generate_inputs, verify, CostModel, Graph, Outcome, Suite, Value,
};

pub const DEFAULT_SEED: u64 = 20180224;

/// SplitMix64 finalizer over the three coordinates.
pub fn mix(seed: u64, workload: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(workload.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated compilation unit with its independent reference: the
/// outcomes and cycles of the *pristine* graph under the interpreter,
/// never of anything the compiler produced.
#[derive(Debug)]
pub struct Unit {
    pub name: String,
    pub graph: Graph,
    pub inputs: Vec<Vec<Value>>,
    pub reference: Vec<Outcome>,
    /// Dynamic cycles of the pristine graph over all inputs.
    pub pristine_cycles: u64,
    /// Live instructions of the pristine graph.
    pub insts: usize,
}

impl Unit {
    /// Wraps a graph and its inputs, verifying and interpreting the
    /// pristine graph for the reference.
    pub fn new(name: String, graph: Graph, inputs: Vec<Vec<Value>>, model: &CostModel) -> Unit {
        verify(&graph).unwrap_or_else(|e| panic!("generated unit {name} does not verify: {e}"));
        let mut reference = Vec::with_capacity(inputs.len());
        let mut pristine_cycles = 0;
        for input in &inputs {
            let r = execute(&graph, input);
            pristine_cycles += model.dynamic_cycles(&r.counts);
            reference.push(r.outcome);
        }
        Unit {
            insts: graph.live_inst_count(),
            name,
            graph,
            inputs,
            reference,
            pristine_cycles,
        }
    }
}

/// Candidates generated for every unit kept.
const CANDIDATES_PER_UNIT: usize = 4;

/// The seeded units of one workload. Candidate `i` is
/// `generate_graph(name, &suite.profile(), mix(seed, workload, i))`.
///
/// A unit's compile time grows faster than its size and sizes vary
/// twofold within a profile, so 24 units drawn freely differ by a tenth
/// in total work from one seed to the next. This is a *size-stratified*
/// sample instead: of every four candidates in order of size it keeps
/// one, so every seed's units have the same mix of sizes. The strata
/// come from the candidates themselves.
///
/// Returns `count` units in candidate order: of the first `4 * count`
/// candidates ranked by pristine live instructions, the ones at ranks
/// 2, 6, 10, ...
pub fn units(
    seed: u64,
    workload: usize,
    suite: Suite,
    count: usize,
    model: &CostModel,
) -> Vec<Unit> {
    let profile = suite.profile();
    // Letters and digits only: the name travels through the IR printer
    // and parser on the serve workloads.
    let candidate = |i: u64| (format!("w{workload}u{i}"), mix(seed, workload as u64, i));
    // Sizes first and the kept graphs again afterwards, so that the
    // process never holds more than `count` graphs.
    let mut by_size: Vec<(usize, u64)> = (0..(count * CANDIDATES_PER_UNIT) as u64)
        .map(|i| {
            let (name, s) = candidate(i);
            (generate_graph(&name, &profile, s).live_inst_count(), i)
        })
        .collect();
    by_size.sort_unstable();
    let mut kept: Vec<u64> = by_size
        .iter()
        .skip(CANDIDATES_PER_UNIT / 2)
        .step_by(CANDIDATES_PER_UNIT)
        .map(|&(_, i)| i)
        .collect();
    kept.sort_unstable();
    kept.into_iter()
        .map(|i| {
            let (name, s) = candidate(i);
            let graph = generate_graph(&name, &profile, s);
            Unit::new(name, graph, generate_inputs(&profile, s), model)
        })
        .collect()
}

/// The built-in corpus (48 named workloads), which ignores the seed.
pub fn corpus(model: &CostModel) -> Vec<Vec<Unit>> {
    Suite::ALL
        .iter()
        .map(|suite| {
            suite
                .workloads()
                .into_iter()
                .map(|w| Unit::new(w.name, w.graph, w.inputs, model))
                .collect()
        })
        .collect()
}

/// Deterministic Fisher–Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64, stream: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, stream, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::content_hash;

    fn hashes(seed: u64, workload: usize, suite: Suite, n: usize) -> Vec<u64> {
        units(seed, workload, suite, n, &CostModel::new())
            .iter()
            .map(|u| content_hash(&u.graph))
            .collect()
    }

    #[test]
    fn same_seed_same_units_different_seed_different_units() {
        for (w, suite) in [
            (0, Suite::Octane),
            (1, Suite::JavaDaCapo),
            (2, Suite::ScalaDaCapo),
            (4, Suite::Micro),
        ] {
            let a = hashes(DEFAULT_SEED, w, suite, 8);
            assert_eq!(a, hashes(DEFAULT_SEED, w, suite, 8), "workload {w}");
            let b = hashes(DEFAULT_SEED + 1, w, suite, 8);
            assert!(a.iter().all(|h| !b.contains(h)), "workload {w}");
            // Units of one workload differ from each other, and from
            // another workload's units of the same profile and seed.
            let mut dedup = a.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), a.len());
            assert_ne!(a, hashes(DEFAULT_SEED, w + 1, suite, 8));
        }
    }

    #[test]
    fn the_units_are_every_fourth_candidate_by_size() {
        let profile = Suite::Micro.profile();
        for seed in [1, 2, 3] {
            let drawn = units(seed, 5, Suite::Micro, 6, &CostModel::new());
            let mut sizes: Vec<usize> = (0..24)
                .map(|i| {
                    generate_graph(&format!("w5u{i}"), &profile, mix(seed, 5, i)).live_inst_count()
                })
                .collect();
            sizes.sort_unstable();
            let want: Vec<usize> = sizes.iter().skip(2).step_by(4).copied().collect();
            let mut got: Vec<usize> = drawn.iter().map(|u| u.insts).collect();
            got.sort_unstable();
            assert_eq!(got, want, "seed {seed}");
            // Handed out in candidate order, not in order of size.
            let index = |u: &Unit| u.name["w5u".len()..].parse::<u64>().unwrap();
            assert!(drawn.windows(2).all(|w| index(&w[0]) < index(&w[1])));
            assert!(drawn.iter().all(|u| index(u) < 24));
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 1, 9);
        shuffle(&mut b, 1, 9);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 2, 9);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
