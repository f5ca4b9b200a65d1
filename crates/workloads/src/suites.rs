//! The four benchmark suites of the paper's evaluation (§6.1), as
//! synthetic stand-ins: same benchmark names, per-suite opportunity mixes
//! chosen to mimic each suite's documented character (see DESIGN.md §2).

use crate::fragments::FragmentKind::{self, *};
use crate::generator::{generate_graph, generate_inputs, Profile};
use crate::Workload;
use std::fmt;

/// The benchmark suite a workload belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Suite {
    /// Java DaCapo (Figure 5): mature Java code, few duplication
    /// opportunities relative to total work.
    JavaDaCapo,
    /// Scala DaCapo (Figure 6): boxing and type-check heavy.
    ScalaDaCapo,
    /// The Java/Scala micro benchmarks (Figure 7): small, dense kernels.
    Micro,
    /// JavaScript Octane via Graal.js (Figure 8): large branchy units.
    Octane,
}

impl Suite {
    /// All suites in paper order.
    pub const ALL: [Suite; 4] = [
        Suite::JavaDaCapo,
        Suite::ScalaDaCapo,
        Suite::Micro,
        Suite::Octane,
    ];

    /// Human-readable suite title as used in the figures.
    pub fn title(self) -> &'static str {
        match self {
            Suite::JavaDaCapo => "Java DaCapo",
            Suite::ScalaDaCapo => "Scala DaCapo",
            Suite::Micro => "Java/Scala Micro Benchmarks",
            Suite::Octane => "Graal JS Octane",
        }
    }

    /// Stable lowercase identifier (harness CLI).
    pub fn id(self) -> &'static str {
        match self {
            Suite::JavaDaCapo => "java-dacapo",
            Suite::ScalaDaCapo => "scala-dacapo",
            Suite::Micro => "micro",
            Suite::Octane => "octane",
        }
    }

    /// The figure of the paper this suite reproduces.
    pub fn figure(self) -> u32 {
        match self {
            Suite::JavaDaCapo => 5,
            Suite::ScalaDaCapo => 6,
            Suite::Micro => 7,
            Suite::Octane => 8,
        }
    }

    /// The benchmark names, exactly as they appear in the figures.
    pub fn benchmark_names(self) -> &'static [&'static str] {
        match self {
            Suite::JavaDaCapo => &[
                "avrora", "batik", "fop", "h2", "jython", "luindex", "lusearch", "pmd", "sunflow",
                "xalan",
            ],
            Suite::ScalaDaCapo => &[
                "actors",
                "apparat",
                "factorie",
                "kiama",
                "scalac",
                "scaladoc",
                "scalap",
                "scalariform",
                "scalatest",
                "scalaxb",
                "specs",
                "tmt",
            ],
            Suite::Micro => &[
                "akkaPP",
                "bufdecode",
                "charcount",
                "charhist",
                "chisquare",
                "groupbyrem",
                "kmeanCPCA",
                "streamPerson",
                "wordcount",
                "branchchain",
                "corrcond",
                "testladder",
            ],
            Suite::Octane => &[
                "box2d",
                "code-load",
                "deltablue",
                "earley-boyer",
                "gameboy",
                "mandreel",
                "navier-stokes",
                "pdfjs",
                "raytrace",
                "regexp",
                "richards",
                "splay",
                "typescript",
                "zlib",
            ],
        }
    }

    /// The generator profile that gives the suite its character.
    pub fn profile(self) -> Profile {
        fn w(pairs: &[(FragmentKind, f64)]) -> Vec<(FragmentKind, f64)> {
            pairs.to_vec()
        }
        match self {
            // Mature Java: mostly neutral control flow and opaque calls;
            // opportunities are rare and often cold.
            Suite::JavaDaCapo => Profile {
                fragments: (30, 55),
                weights: w(&[
                    (Neutral, 0.38),
                    (Invoke, 0.26),
                    (Array, 0.10),
                    (HotLoop, 0.01),
                    (Bloat, 0.14),
                    (ConstFold, 0.04),
                    (CondElim, 0.03),
                    (ReadElim, 0.02),
                    (StrengthReduce, 0.01),
                    (Pea, 0.01),
                ]),
                input_sets: 3,
            },
            // Scala: auto-boxing (PEA) and type checks (CE) dominate the
            // opportunity mix, as described by Stadler et al.
            Suite::ScalaDaCapo => Profile {
                fragments: (25, 45),
                weights: w(&[
                    (Neutral, 0.26),
                    (Invoke, 0.20),
                    (Array, 0.04),
                    (HotLoop, 0.02),
                    (Bloat, 0.08),
                    (ConstFold, 0.06),
                    (CondElim, 0.08),
                    (ReadElim, 0.06),
                    (StrengthReduce, 0.03),
                    (Pea, 0.08),
                    (TypeCheck, 0.08),
                ]),
                input_sets: 3,
            },
            // Micro kernels: small units saturated with the §2 patterns
            // (streams/lambdas: escape analysis and type checks).
            Suite::Micro => Profile {
                fragments: (8, 16),
                weights: w(&[
                    (Neutral, 0.12),
                    (Invoke, 0.12),
                    (HotLoop, 0.05),
                    (Bloat, 0.03),
                    (ConstFold, 0.13),
                    (CondElim, 0.12),
                    (ReadElim, 0.11),
                    (StrengthReduce, 0.10),
                    (Pea, 0.13),
                    (TypeCheck, 0.09),
                ]),
                input_sets: 4,
            },
            // Octane: very large compilation units with many merges, a
            // rich mix of opportunities and plenty of cold bloat.
            Suite::Octane => Profile {
                fragments: (60, 120),
                weights: w(&[
                    (Neutral, 0.11),
                    (Invoke, 0.06),
                    (Array, 0.05),
                    (HotLoop, 0.11),
                    (Dispatch, 0.05),
                    (Bloat, 0.12),
                    (ConstFold, 0.16),
                    (CondElim, 0.14),
                    (ReadElim, 0.09),
                    (StrengthReduce, 0.06),
                    (Pea, 0.05),
                    (TypeCheck, 0.03),
                ]),
                input_sets: 2,
            },
        }
    }

    /// The generator profile for one benchmark of this suite: the
    /// branch-splitting benchmarks ([`SPLIT_BENCHMARKS`]) get their
    /// dedicated shape mix, every other name the suite profile. Seeds
    /// are per-name (`seed_for`), so the override never perturbs the
    /// graphs of pre-existing benchmarks.
    pub fn profile_for(self, name: &str) -> Profile {
        if SPLIT_BENCHMARKS.contains(&name) {
            split_profile(name)
        } else {
            self.profile()
        }
    }

    /// Generates all workloads of this suite.
    pub fn workloads(self) -> Vec<Workload> {
        self.benchmark_names()
            .iter()
            .map(|name| {
                let profile = self.profile_for(name);
                let seed = seed_for(self, name);
                Workload {
                    name: (*name).to_string(),
                    suite: self,
                    graph: generate_graph(name, &profile, seed),
                    inputs: generate_inputs(&profile, seed),
                }
            })
            .collect()
    }
}

/// The benchmarks whose units are built from the branch-splitting
/// fragment shapes — merge duplication alone cannot crack them, so the
/// harness's merge-only ablation sweeps exactly this list.
pub const SPLIT_BENCHMARKS: [&str; 3] = ["branchchain", "corrcond", "testladder"];

/// The dedicated profile of one branch-splitting benchmark: dominated
/// by its namesake shape, diluted with neutral merges and opaque calls.
/// No hot loops, so a cold edge's static probability is exactly
/// `1 − prob_then` and the trade-off pricing in DESIGN.md applies
/// verbatim.
fn split_profile(name: &str) -> Profile {
    let kind = match name {
        "branchchain" => DiamondChain,
        "corrcond" => CorrelatedConditionals,
        _ => RepeatedTestLadder,
    };
    Profile {
        fragments: (6, 10),
        weights: vec![(kind, 0.6), (Neutral, 0.25), (Invoke, 0.15)],
        input_sets: 4,
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.title())
    }
}

/// Deterministic per-benchmark seed (FNV over suite id + name).
fn seed_for(suite: Suite, name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in suite.id().bytes().chain(name.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbds_ir::{execute, verify};

    #[test]
    fn suite_names_match_the_figures() {
        // Micro carries the paper's 9 names plus the 3 branch-splitting
        // benchmarks this reproduction adds for the ablation.
        assert_eq!(Suite::JavaDaCapo.benchmark_names().len(), 10);
        assert_eq!(Suite::ScalaDaCapo.benchmark_names().len(), 12);
        assert_eq!(Suite::Micro.benchmark_names().len(), 12);
        assert_eq!(Suite::Octane.benchmark_names().len(), 14);
        assert!(Suite::JavaDaCapo.benchmark_names().contains(&"jython"));
        assert!(Suite::Octane.benchmark_names().contains(&"raytrace"));
        for split in SPLIT_BENCHMARKS {
            assert!(Suite::Micro.benchmark_names().contains(&split));
        }
    }

    #[test]
    fn split_benchmarks_use_the_dedicated_profile_without_perturbing_others() {
        let split = Suite::Micro.profile_for("branchchain");
        assert!(split
            .weights
            .iter()
            .any(|&(k, w)| k == DiamondChain && w > 0.0));
        // Pre-existing names keep the unmodified suite profile: same
        // weights, and (with per-name seeds) bit-identical graphs.
        let plain = Suite::Micro.profile_for("wordcount");
        assert_eq!(plain.weights, Suite::Micro.profile().weights);
        let wc = Suite::Micro
            .workloads()
            .into_iter()
            .find(|w| w.name == "wordcount")
            .expect("wordcount exists");
        let direct = generate_graph(
            "wordcount",
            &Suite::Micro.profile(),
            seed_for(Suite::Micro, "wordcount"),
        );
        assert_eq!(
            dbds_ir::print_graph(&wc.graph),
            dbds_ir::print_graph(&direct)
        );
    }

    #[test]
    fn all_workloads_verify_and_execute() {
        for suite in Suite::ALL {
            for w in suite.workloads() {
                verify(&w.graph).unwrap_or_else(|e| panic!("{}/{}: {e}", suite.id(), w.name));
                for input in &w.inputs {
                    let r = execute(&w.graph, input);
                    assert!(
                        r.outcome.is_ok(),
                        "{}/{} trapped: {:?}",
                        suite.id(),
                        w.name,
                        r.outcome
                    );
                }
            }
        }
    }

    #[test]
    fn workloads_are_stable_across_calls() {
        let a = Suite::Micro.workloads();
        let b = Suite::Micro.workloads();
        for (wa, wb) in a.iter().zip(&b) {
            assert_eq!(
                dbds_ir::print_graph(&wa.graph),
                dbds_ir::print_graph(&wb.graph)
            );
        }
    }

    #[test]
    fn octane_units_are_larger_than_micro_units() {
        let micro_avg: usize = Suite::Micro
            .workloads()
            .iter()
            .map(|w| w.graph.live_inst_count())
            .sum::<usize>()
            / 12;
        let octane_avg: usize = Suite::Octane
            .workloads()
            .iter()
            .map(|w| w.graph.live_inst_count())
            .sum::<usize>()
            / 14;
        assert!(
            octane_avg > 3 * micro_avg,
            "octane {octane_avg} vs micro {micro_avg}"
        );
    }

    #[test]
    fn figure_mapping() {
        assert_eq!(Suite::JavaDaCapo.figure(), 5);
        assert_eq!(Suite::Octane.figure(), 8);
        assert_eq!(Suite::ScalaDaCapo.to_string(), "Scala DaCapo");
    }
}
