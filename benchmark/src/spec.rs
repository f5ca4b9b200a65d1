//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`-- manifest`) and a
//! unit test keeps the committed file in step.

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// Seconds one run measures (`run_seconds`; also `--seconds`' default).
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "octane-dbds",
        why: "48 large merge-rich Octane-profile units at Dbds: the guard-dominated case (checkpoints about 70% of compile); checkpoint, transform and undo-log work must show here",
    },
    Workload {
        name: "dacapo-baseline",
        why: "400 small JavaDaCapo-profile units at Baseline: bypasses simulation, trade-off, duplication and guard; only clone, opt pipeline, back end and verify run, so DBDS-tier changes predict no change",
    },
    Workload {
        name: "scala-dupalot",
        why: "96 PEA/type-check-heavy ScalaDaCapo-profile units at Dupalot: trade-off bypassed, every beneficial duplication until the budgets bite; densest transform/undo/guard, code size and icache term move most",
    },
    Workload {
        name: "corpus-batch",
        why: "the 48 built-in workloads x 3 levels through run_suite at min(nproc,2) unit threads: the only multi-threaded compile workload and the continuity row with EXPERIMENTS.md; ignores the seed",
    },
    Workload {
        name: "serve-hit",
        why: "daemon on a Unix socket, disk store pre-populated, 2 closed-loop connections re-requesting stored IR text: parse, key, store get + checksum, artifact parse + re-verify, frame; compile does nothing",
    },
    Workload {
        name: "serve-miss",
        why: "a fresh daemon with its default in-memory store every pass, 2 closed-loop connections sending 400 units it has never seen: parse, compile, artifact serialize, store put, frame; serve-hit's write side",
    },
    Workload {
        name: "serve-tcp",
        why: "daemon on the default TCP loopback listen address, 1 persistent connection, hit requests only: the default transport as a long-lived client uses it, where frame I/O dominates and store/compile do not",
    },
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Absolute worsening `selfcheck` always tolerates (tiny set-up
    /// times move by more than any sensible share).
    pub floor: f64,
    /// Deterministic for a given seed: must repeat exactly from pass to
    /// pass and from run to run.
    pub exact: bool,
}

/// Every workload reports every one of these (the driver requires one
/// list for all workloads, and none of them may be 0 anywhere).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        floor: 0.05,
        exact: false,
    },
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
        exact: false,
    },
    EndToEnd {
        name: "peak_cycles_rel",
        unit: "ratio",
        better: Lower,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "code_bytes_per_inst",
        unit: "B/inst",
        better: Lower,
        bound: 0.10,
        floor: 0.0,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.20,
        floor: 0.0,
        exact: false,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// A time, or a share of one: lower is better.
const fn time(name: &'static str, unit: &'static str) -> Layer {
    count(name, unit, Lower)
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Every workload prints every one of these under `--trace 1`; a layer
/// that does not run on a workload reads 0 there. `README.md` records
/// which end-to-end metric each should move, and on which workload.
pub const PER_LAYER: &[Layer] = &[
    // Spans around public calls, summed over a pass's units.
    time("ir.clone_ms", "ms"),
    time("core.compile_ms", "ms"),
    time("backend.emit_ms", "ms"),
    time("ir.verify_final_ms", "ms"),
    time("ir.verify_ns_per_inst", "ns/inst"),
    time("ir.interp_ms", "ms"),
    time("harness.run_suite_ms", "ms"),
    time("bench.unattributed_ms", "ms"),
    time("bench.unattributed_share", "ratio"),
    // Children of core.compile, from the PhaseStats it returns.
    time("core.simulate_ms", "ms"),
    time("core.transform_ms", "ms"),
    time("opt.pipeline_ms", "ms"),
    time("core.guard_ms", "ms"),
    time("core.undo_ms", "ms"),
    time("core.compile.unattributed_ms", "ms"),
    time("core.compile.unattributed_share", "ratio"),
    // Counters: deterministic for a given seed, compared pass to pass.
    count("backend.code_bytes", "bytes", Lower),
    count("costmodel.peak_cycles", "cycles", Lower),
    count("ir.interp_steps", "count", Lower),
    count("ir.insts_in", "count", Lower),
    count("ir.insts_out", "count", Lower),
    count("core.work", "count", Lower),
    count("core.iterations", "count", Lower),
    count("core.candidates", "count", Lower),
    count("core.duplications", "count", Lower),
    count("core.accept_ratio", "ratio", Higher),
    count("core.split_candidates", "count", Lower),
    count("core.split_applied", "count", Higher),
    count("core.stale_skips", "count", Lower),
    count("core.mispredictions", "count", Lower),
    count("core.frontier_violations", "count", Lower),
    count("core.bailouts", "count", Lower),
    count("core.undo_edits", "count", Lower),
    count("core.undo_rollbacks", "count", Lower),
    count("core.undo_peak", "count", Lower),
    count("analysis.cache_hits", "count", Higher),
    count("analysis.cache_misses", "count", Lower),
    count("analysis.cache_invalidations", "count", Lower),
    count("analysis.rev_hits", "count", Higher),
    count("analysis.rev_misses", "count", Lower),
    count("analysis.cache_hit_ratio", "ratio", Higher),
    // Probes: one public call on each pristine (or compiled) unit.
    time("analysis.domtree_us", "us"),
    time("analysis.postdom_us", "us"),
    time("analysis.frontiers_us", "us"),
    time("core.simulate_probe_ms", "ms"),
    count("core.simulate_probe_candidates", "count", Lower),
    time("core.select_probe_us", "us"),
    time("core.checkpoint_us", "us"),
    time("core.checkpoint_x_dups_ms", "ms"),
    time("opt.optimize_full_ms", "ms"),
    count("core.par.speedup", "ratio", Higher),
    // Service layers: probes on the run's real request texts/payloads.
    time("ir.parse_us", "us"),
    time("ir.print_us", "us"),
    time("server.key_us", "us"),
    time("server.store.get_us", "us"),
    time("server.store.put_us", "us"),
    time("server.artifact.serialize_us", "us"),
    time("server.artifact.parse_us", "us"),
    time("server.artifact.verify_us", "us"),
    time("server.service.hit_us", "us"),
    time("server.service.miss_us", "us"),
    time("server.daemon.overhead_us", "us"),
    time("server.daemon.overhead_share", "ratio"),
    count("server.artifact.bytes", "bytes", Lower),
    count("server.frame.req_bytes", "bytes", Lower),
    count("server.frame.resp_bytes", "bytes", Lower),
    // Daemon status, as the change over one pass.
    count("server.requests", "count", Higher),
    count("server.hits", "count", Higher),
    count("server.misses", "count", Lower),
    count("server.puts", "count", Lower),
    count("server.shed", "count", Lower),
    count("server.quarantined", "count", Lower),
    count("server.degraded", "count", Lower),
    count("server.hit_ratio", "ratio", Higher),
    count("server.store_entries", "count", Lower),
    count("server.evictions", "count", Lower),
    time("server.peak_queue", "count"),
    // The run itself.
    time("bench.pass_ms", "ms"),
    time("bench.op_p50_ms", "ms"),
    time("bench.op_p95_ms", "ms"),
    count("bench.ops_per_s", "1/s", Higher),
    count("bench.passes", "count", Higher),
    count("bench.samples", "count", Higher),
    count("bench.p95_samples_beyond", "count", Higher),
    time("trace_overhead_pct", "%"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::Obj(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(w.name)),
                            ("why".into(), Json::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(m.name)),
                            ("unit".into(), Json::str(m.unit)),
                            ("better".into(), Json::str(m.better.name())),
                            ("bound".into(), Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(m.name)),
                            ("unit".into(), Json::str(m.unit)),
                            ("better".into(), Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
