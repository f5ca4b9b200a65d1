//! The compile workloads: generated units taken one by one through
//! clone → compile → back end → verify → interpret, and the built-in
//! corpus taken through the harness's `run_suite`.

use crate::api::{
    checkpoint, compile, compile_to_machine_code, execute, frontier_probe_us, optimize_full,
    run_suite, select, simulate, verify, AnalysisCache, Ctx, OptLevel, PhaseStats, SelectionMode,
    Suite,
};
use crate::gen::{self, Unit};
use crate::report::{PassTimes, RunReport};
use crate::run::{self, Job};
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::HashSet;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub enum Kind {
    /// `count` generated units of a suite's profile at one level.
    Units {
        suite: Suite,
        level: OptLevel,
        count: usize,
    },
    /// The 48 built-in workloads × 3 levels through `run_suite`.
    Corpus,
}

pub fn kind(workload: &str) -> Option<Kind> {
    let units = |suite, level, count| {
        Some(Kind::Units {
            suite,
            level,
            count,
        })
    };
    match workload {
        "octane-dbds" => units(Suite::Octane, OptLevel::Dbds, 48),
        "dacapo-baseline" => units(Suite::JavaDaCapo, OptLevel::Baseline, 400),
        "scala-dupalot" => units(Suite::ScalaDaCapo, OptLevel::Dupalot, 96),
        "corpus-batch" => Some(Kind::Corpus),
        _ => None,
    }
}

/// What one pass over the workload produced.
#[derive(Default)]
struct Pass {
    times: PassTimes,
    /// Span totals by `PER_LAYER` name (traced passes).
    layer_ms: Vec<(&'static str, f64)>,
    code_bytes: u64,
    /// Σ dynamic cycles × icache factor.
    peak_cycles: f64,
    steps: u64,
    insts_out: u64,
    stats: Vec<(&'static str, u64)>,
}

impl Pass {
    fn add_stats(&mut self, s: &PhaseStats) {
        let values = [
            ("core.work", s.work),
            ("core.iterations", s.iterations as u64),
            ("core.candidates", s.candidates as u64),
            ("core.duplications", s.duplications as u64),
            ("core.split_candidates", s.split_candidates as u64),
            ("core.split_applied", s.split_applied as u64),
            ("core.stale_skips", s.stale_skips as u64),
            ("core.mispredictions", s.mispredictions as u64),
            ("core.frontier_violations", s.frontier_violations as u64),
            ("core.bailouts", s.bailouts.len() as u64),
            ("core.undo_edits", s.undo_edits),
            ("core.undo_rollbacks", s.undo_rollbacks),
            ("core.undo_peak", s.undo_peak as u64),
            ("analysis.cache_hits", s.cache.hits),
            ("analysis.cache_misses", s.cache.misses),
            ("analysis.cache_invalidations", s.cache.invalidations),
            ("analysis.rev_hits", s.cache.rev_hits),
            ("analysis.rev_misses", s.cache.rev_misses),
        ];
        if self.stats.is_empty() {
            self.stats = values.to_vec();
            return;
        }
        for (slot, (name, v)) in self.stats.iter_mut().zip(values) {
            // The undo log's high-water mark is a per-unit peak, not a sum.
            slot.1 = if name == "core.undo_peak" {
                slot.1.max(v)
            } else {
                slot.1 + v
            };
        }
    }

    /// The values that must repeat exactly from pass to pass.
    fn exact(&self) -> (u64, u64, u64, u64, &[(&'static str, u64)]) {
        (
            self.code_bytes,
            self.peak_cycles.to_bits(),
            self.steps,
            self.insts_out,
            &self.stats,
        )
    }

    fn stat(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    }
}

/// Times `f` as a child span when tracing, and just runs it otherwise.
fn layer<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    op: usize,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.timed(name, parent, op, f).0,
        None => f(),
    }
}

/// Lays the tier timers `compile` reported out inside its span.
fn program_children(t: &mut Tracer, parent: usize, level: OptLevel, s: &PhaseStats) {
    t.program_child("core.simulate", parent, s.sim_ns as u64);
    t.program_child("core.transform", parent, s.transform_ns as u64);
    // At Baseline the opt timer is not kept; the pipeline is all that
    // `compile` runs, so the span itself is the pipeline's time.
    let opt_ns = if level == OptLevel::Baseline {
        t.spans[parent].dur_ns()
    } else {
        s.opt_ns as u64
    };
    t.program_child("opt.pipeline", parent, opt_ns);
    let guard = t.program_child("core.guard", parent, s.guard_ns as u64);
    t.program_child("core.undo", guard, s.undo_ns as u64);
}

/// One unit through the pipeline. The timed window is clone → compile →
/// back end → final verify; interpreting the result against the
/// pristine reference comes after it.
fn compile_unit(
    unit: &Unit,
    level: OptLevel,
    ctx: &Ctx,
    tr: &mut Option<&mut Tracer>,
    op: usize,
    pass: &mut Pass,
) -> Result<(), String> {
    let unit_span = tr.as_mut().map(|t| t.begin("unit", None, op));
    let t0 = Instant::now();
    let mut g = layer(tr, "ir.clone", unit_span, op, || unit.graph.clone());
    let compile_span = tr.as_mut().map(|t| t.begin("core.compile", unit_span, op));
    let stats = compile(&mut g, &ctx.model, level, &ctx.cfg);
    if let (Some(t), Some(id)) = (tr.as_mut(), compile_span) {
        t.end(id);
        program_children(t, id, level, &stats);
    }
    let machine = layer(tr, "backend.emit", unit_span, op, || {
        compile_to_machine_code(&g)
    });
    let verified = layer(tr, "ir.verify_final", unit_span, op, || verify(&g));
    pass.times.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    verified.map_err(|e| format!("{}: compiled graph does not verify: {e}", unit.name))?;

    let (cycles, steps, outcomes) = layer(tr, "ir.interp", unit_span, op, || {
        let mut cycles = 0;
        let mut steps = 0;
        let mut outcomes = Vec::with_capacity(unit.inputs.len());
        for input in &unit.inputs {
            let r = execute(&g, input);
            cycles += ctx.model.dynamic_cycles(&r.counts);
            steps += r.steps;
            outcomes.push(r.outcome);
        }
        (cycles, steps, outcomes)
    });
    if let (Some(t), Some(id)) = (tr.as_mut(), unit_span) {
        t.end(id);
    }
    if outcomes != unit.reference {
        return Err(format!(
            "{}: outcomes differ from the pristine graph's",
            unit.name
        ));
    }
    let code_bytes = machine.size() as u64;
    pass.code_bytes += code_bytes;
    pass.peak_cycles += cycles as f64 * ctx.icache.factor(code_bytes);
    pass.steps += steps;
    pass.insts_out += g.live_inst_count() as u64;
    pass.add_stats(&stats);
    Ok(())
}

/// One pass over generated units, sequentially.
fn unit_pass(
    units: &[Unit],
    level: OptLevel,
    ctx: &Ctx,
    mut tr: Option<&mut Tracer>,
    report: &mut RunReport,
) -> Pass {
    let mut pass = Pass::default();
    for (op, unit) in units.iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            compile_unit(unit, level, ctx, &mut tr, op, &mut pass)
        }))
        .unwrap_or_else(|_| Err(format!("{}: the pipeline panicked", unit.name)));
        report.op(result);
    }
    pass.times.part_ms = pass.times.op_ms.clone();
    pass
}

/// One pass over the built-in corpus: `run_suite` for each suite, which
/// compiles every workload at three levels on the unit pool and also
/// interprets the results.
fn corpus_pass(
    corpus: &[Vec<Unit>],
    ctx: &Ctx,
    mut tr: Option<&mut Tracer>,
    report: &mut RunReport,
) -> Pass {
    const LEVELS: [OptLevel; 3] = [OptLevel::Baseline, OptLevel::Dbds, OptLevel::Dupalot];
    let mut pass = Pass::default();
    for (si, (&suite, units)) in Suite::ALL.iter().zip(corpus).enumerate() {
        let t0 = Instant::now();
        let span = tr.as_mut().map(|t| t.begin("harness.run_suite", None, si));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_suite(suite, &ctx.model, &ctx.cfg, &ctx.icache)
        }));
        if let (Some(t), Some(id)) = (tr.as_mut(), span) {
            t.end(id);
        }
        pass.times.part_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Ok(result) = result else {
            for unit in units {
                for _ in LEVELS {
                    report.op(Err(format!("{}: run_suite panicked", unit.name)));
                }
            }
            continue;
        };
        for (row, unit) in result.rows.iter().zip(units) {
            for level in LEVELS {
                let m = row.pick_metrics(level);
                pass.times.op_ms.push(m.compile_ns as f64 / 1e6);
                pass.code_bytes += m.code_size;
                pass.peak_cycles += m.peak_cycles;
                pass.add_stats(&m.stats);
                if let (Some(t), Some(id)) = (tr.as_mut(), span) {
                    // `compile_ns` covers compile and the back end here:
                    // the harness does not time them apart.
                    let c = t.program_child("core.compile", id, m.compile_ns as u64);
                    program_children(t, c, level, &m.stats);
                }
                report.op(if row.name != unit.name {
                    Err(format!(
                        "corpus order changed: {} vs {}",
                        row.name, unit.name
                    ))
                } else if m.outcomes != unit.reference {
                    Err(format!(
                        "{} at {}: outcomes differ from the pristine graph's",
                        unit.name,
                        level.name()
                    ))
                } else {
                    Ok(())
                });
            }
        }
    }
    pass
}

/// The workload, set up: everything a pass needs.
enum Prepared {
    Units(Vec<Unit>, OptLevel),
    Corpus(Vec<Vec<Unit>>),
}

impl Prepared {
    fn pass(&self, ctx: &Ctx, tr: Option<&mut Tracer>, report: &mut RunReport) -> Pass {
        match self {
            Prepared::Units(units, level) => unit_pass(units, *level, ctx, tr, report),
            Prepared::Corpus(corpus) => corpus_pass(corpus, ctx, tr, report),
        }
    }

    /// A pass over the first third of the units, or the first of the
    /// corpus's suites, to fault pages in and fill caches.
    fn warm_up(&self, ctx: &Ctx, report: &mut RunReport) {
        match self {
            Prepared::Units(units, level) => {
                unit_pass(&units[..units.len().div_ceil(3)], *level, ctx, None, report);
            }
            Prepared::Corpus(corpus) => {
                corpus_pass(&corpus[..1], ctx, None, report);
            }
        }
    }

    /// Σ pristine cycles and Σ pristine instructions over the
    /// operations of one pass (the corpus compiles each unit three
    /// times).
    fn pristine_totals(&self) -> (f64, f64) {
        let (units, times): (Vec<&Unit>, f64) = match self {
            Prepared::Units(units, _) => (units.iter().collect(), 1.0),
            Prepared::Corpus(corpus) => (corpus.iter().flatten().collect(), 3.0),
        };
        let cycles: u64 = units.iter().map(|u| u.pristine_cycles).sum();
        let insts: usize = units.iter().map(|u| u.insts).sum();
        (cycles as f64 * times, insts as f64 * times)
    }
}

fn times(passes: &[Pass]) -> Vec<&PassTimes> {
    passes.iter().map(|p| &p.times).collect()
}

pub fn run(job: &Job, kind: Kind) -> RunReport {
    // Sequential workloads run at the defaults (1 × 1); the corpus runs
    // its units on min(nproc, 2) threads. Set through the environment,
    // not a config field, so removing a knob never breaks this build.
    std::env::remove_var("DBDS_SIM_THREADS");
    match kind {
        Kind::Units { .. } => std::env::remove_var("DBDS_UNIT_THREADS"),
        Kind::Corpus => std::env::set_var("DBDS_UNIT_THREADS", run::nproc().min(2).to_string()),
    }
    let ctx = Ctx::new();
    let mut report = RunReport::default();

    // A set-up round reaches up to the first timed pass: generate the
    // units with their references, then warm up.
    let (prepared, setup_s) = run::repeat_setup(
        |_| {
            let prepared = match kind {
                Kind::Units {
                    suite,
                    level,
                    count,
                } => Prepared::Units(
                    gen::units(job.seed, job.index, suite, count, &ctx.model),
                    level,
                ),
                Kind::Corpus => Prepared::Corpus(gen::corpus(&ctx.model)),
            };
            prepared.warm_up(&ctx, &mut report);
            prepared
        },
        drop,
    );
    report.set("setup_s", setup_s);

    let mut tracer = Tracer::new();
    let (plain, traced) = run::timed_passes(job, |is_traced| {
        if !is_traced {
            return prepared.pass(&ctx, None, &mut report);
        }
        let from = tracer.spans.len();
        let mut pass = prepared.pass(&ctx, Some(&mut tracer), &mut report);
        pass.layer_ms = span_totals(&tracer, from, &pass);
        pass
    });
    for pass in plain.iter().chain(&traced).skip(1) {
        if pass.exact() != plain[0].exact() {
            report.fail("a deterministic counter changed between two passes".into());
            break;
        }
    }

    let (pristine_cycles, pristine_insts) = prepared.pristine_totals();
    if !job.trace {
        let first = &plain[0];
        report.set_end_to_end_times(&times(&plain));
        report.set("peak_cycles_rel", first.peak_cycles / pristine_cycles);
        report.set(
            "code_bytes_per_inst",
            first.code_bytes as f64 / pristine_insts,
        );
        return report;
    }

    // Per-layer metrics: the median over the traced passes of each
    // span total, the counters of any one pass (they are all equal).
    report.set_traced_times(&times(&plain), &times(&traced), |p| p.pass_ms());
    let t = &traced[0];
    for (i, (name, _)) in t.layer_ms.iter().enumerate() {
        let totals: Vec<f64> = traced.iter().map(|p| p.layer_ms[i].1).collect();
        report.set(name, median(&totals));
    }
    report.set("backend.code_bytes", t.code_bytes as f64);
    report.set("costmodel.peak_cycles", t.peak_cycles.round());
    report.set("ir.interp_steps", t.steps as f64);
    report.set("ir.insts_in", pristine_insts);
    report.set("ir.insts_out", t.insts_out as f64);
    for (name, v) in &t.stats {
        report.set(name, *v as f64);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    report.set(
        "core.accept_ratio",
        ratio(t.stat("core.duplications"), t.stat("core.candidates")),
    );
    let hits = t.stat("analysis.cache_hits") + t.stat("analysis.rev_hits");
    report.set(
        "analysis.cache_hit_ratio",
        ratio(
            hits,
            hits + t.stat("analysis.cache_misses") + t.stat("analysis.rev_misses"),
        ),
    );
    let get = |r: &RunReport, n: &str| r.get(n).unwrap_or(0.0);
    report.set(
        "ir.verify_ns_per_inst",
        ratio(get(&report, "ir.verify_final_ms") * 1e6, t.insts_out as f64),
    );
    report.set(
        "bench.unattributed_share",
        ratio(
            get(&report, "bench.unattributed_ms"),
            get(&report, "bench.pass_ms"),
        ),
    );
    report.set(
        "core.compile.unattributed_share",
        ratio(
            get(&report, "core.compile.unattributed_ms"),
            get(&report, "core.compile_ms"),
        ),
    );

    match &prepared {
        Prepared::Units(units, level) => probes(units, *level, &ctx, &mut tracer, &mut report),
        Prepared::Corpus(_) => {
            // One more pass on a single unit thread: what the unit pool
            // buys on this machine.
            std::env::set_var("DBDS_UNIT_THREADS", "1");
            let single = prepared.pass(&Ctx::new(), None, &mut report);
            let pooled_ms = median(&plain.iter().map(|p| p.times.pass_ms()).collect::<Vec<_>>());
            report.set("core.par.speedup", single.times.pass_ms() / pooled_ms);
        }
    }
    run::write_trace(job, &tracer, &mut report);
    report
}

/// The span totals of the traced pass recorded in `spans[from..]`.
fn span_totals(t: &Tracer, from: usize, pass: &Pass) -> Vec<(&'static str, f64)> {
    let suite_ms = t.total_ms(from, "harness.run_suite");
    let unattributed = if suite_ms > 0.0 {
        pass.times.pass_ms() - suite_ms
    } else {
        t.self_total_ms(from, "unit")
    };
    vec![
        ("ir.clone_ms", t.total_ms(from, "ir.clone")),
        ("core.compile_ms", t.total_ms(from, "core.compile")),
        ("backend.emit_ms", t.total_ms(from, "backend.emit")),
        ("ir.verify_final_ms", t.total_ms(from, "ir.verify_final")),
        ("ir.interp_ms", t.total_ms(from, "ir.interp")),
        ("harness.run_suite_ms", suite_ms),
        ("bench.unattributed_ms", unattributed),
        ("core.simulate_ms", t.total_ms(from, "core.simulate")),
        ("core.transform_ms", t.total_ms(from, "core.transform")),
        ("opt.pipeline_ms", t.total_ms(from, "opt.pipeline")),
        ("core.guard_ms", t.total_ms(from, "core.guard")),
        ("core.undo_ms", t.total_ms(from, "core.undo")),
        (
            "core.compile.unattributed_ms",
            t.self_total_ms(from, "core.compile"),
        ),
    ]
}

/// One public call per layer on every unit, outside any pass: the
/// `_us` metrics are medians over the units, the `_ms` metrics sums
/// over them (comparable with the pass totals of the tier they probe).
fn probes(units: &[Unit], level: OptLevel, ctx: &Ctx, t: &mut Tracer, report: &mut RunReport) {
    let mut us: Vec<(&'static str, Vec<f64>)> = [
        "analysis.domtree_us",
        "analysis.postdom_us",
        "analysis.frontiers_us",
        "core.select_probe_us",
        "core.checkpoint_us",
    ]
    .map(|n| (n, Vec::new()))
    .to_vec();
    let (mut simulate_ms, mut candidates, mut checkpoint_x_dups_ms, mut optimize_ms) =
        (0.0, 0, 0.0, 0.0);
    for (op, unit) in units.iter().enumerate() {
        let g = &unit.graph;
        let probe_span = t.begin("probe", None, op);
        let root = Some(probe_span);
        let mut cache = AnalysisCache::new();
        us[0].1.push(
            t.timed("analysis.domtree", root, op, || black_box(cache.domtree(g)))
                .1,
        );
        us[1].1.push(
            t.timed("analysis.postdom", root, op, || black_box(cache.postdom(g)))
                .1,
        );
        us[2].1.push(
            t.timed("analysis.frontiers", root, op, || {
                black_box(cache.frontiers(g))
            })
            .1,
        );

        let mut cache = AnalysisCache::new();
        let (results, sim_us) = t.timed("core.simulate_probe", root, op, || {
            simulate(g, &ctx.model, &mut cache)
        });
        simulate_ms += sim_us / 1e3;
        candidates += results.len();
        let size = ctx.model.graph_size(g);
        let visited = HashSet::new();
        let (_, select_us) = t.timed("core.select_probe", root, op, || {
            black_box(select(
                &results,
                &ctx.cfg.tradeoff,
                SelectionMode::CostBenefit,
                size,
                size,
                &visited,
            ))
            .len()
        });
        us[3].1.push(select_us);

        let mut clone = g.clone();
        let mut cache = AnalysisCache::new();
        optimize_ms +=
            t.timed("opt.optimize_full", root, op, || {
                optimize_full(&mut clone, &mut cache);
            })
            .1 / 1e3;

        // What every duplication pays today: one whole-graph verify and
        // one frontier lint of the compiled unit.
        let mut compiled = g.clone();
        let stats = compile(&mut compiled, &ctx.model, level, &ctx.cfg);
        let (_, verify_us) = t.timed("core.checkpoint", root, op, || {
            black_box(checkpoint(&compiled)).is_ok()
        });
        let check_us = verify_us + frontier_probe_us(&compiled).unwrap_or(0.0);
        us[4].1.push(check_us);
        checkpoint_x_dups_ms += check_us * stats.duplications as f64 / 1e3;
        t.end(probe_span);
    }
    for (name, samples) in &us {
        report.set(name, median(samples));
    }
    report.set("core.simulate_probe_ms", simulate_ms);
    report.set("core.simulate_probe_candidates", candidates as f64);
    report.set("core.checkpoint_x_dups_ms", checkpoint_x_dups_ms);
    report.set("opt.optimize_full_ms", optimize_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_ignores_the_seed_and_reproduces_the_pinned_counters() {
        // EXPERIMENTS.md / BENCH_suite.json: the continuity row.
        let ctx = Ctx::new();
        let corpus = gen::corpus(&ctx.model);
        let mut report = RunReport::default();
        let pass = corpus_pass(&corpus, &ctx, None, &mut report);
        assert_eq!(
            (report.attempted, report.failed),
            (144, 0),
            "{:?}",
            report.notes
        );
        assert_eq!(pass.stat("core.work"), 142_058.0);
        assert_eq!(pass.stat("core.candidates"), 11_008.0);
        assert_eq!(pass.stat("core.duplications"), 2_943.0);
        assert_eq!(pass.peak_cycles.round(), 675_984.0);
        assert_eq!(pass.code_bytes, 470_187);
        assert_eq!(pass.times.op_ms.len(), 144);
    }

    #[test]
    fn a_unit_fails_when_its_outcomes_differ_from_the_reference() {
        let ctx = Ctx::new();
        let mut units = gen::units(3, 9, Suite::Micro, 3, &ctx.model);
        let mut report = RunReport::default();
        unit_pass(&units, OptLevel::Dbds, &ctx, None, &mut report);
        assert_eq!(
            (report.attempted, report.failed),
            (3, 0),
            "{:?}",
            report.notes
        );
        // A reference the compiled code cannot match: the gate must see
        // it, whatever the compiler did.
        units[1].reference.reverse();
        units[1].reference.pop();
        unit_pass(&units, OptLevel::Dbds, &ctx, None, &mut report);
        assert_eq!((report.attempted, report.failed), (6, 1));
        assert!(
            report.notes[0].starts_with(&units[1].name),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn traced_and_plain_passes_agree_and_the_ledger_balances() {
        let ctx = Ctx::new();
        let units = gen::units(5, 9, Suite::Micro, 4, &ctx.model);
        let mut report = RunReport::default();
        let plain = unit_pass(&units, OptLevel::Dupalot, &ctx, None, &mut report);
        let mut tracer = Tracer::new();
        let traced = unit_pass(
            &units,
            OptLevel::Dupalot,
            &ctx,
            Some(&mut tracer),
            &mut report,
        );
        assert_eq!(report.failed, 0, "{:?}", report.notes);
        assert!(plain.exact() == traced.exact());
        assert!(plain.stat("core.duplications") > 0.0);

        let totals = span_totals(&tracer, 0, &traced);
        let get = |name: &str| totals.iter().find(|(n, _)| *n == name).unwrap().1;
        // Five children per unit, every one inside its unit span.
        assert_eq!(tracer.spans.iter().filter(|s| s.name == "unit").count(), 4);
        let children = get("ir.clone_ms")
            + get("core.compile_ms")
            + get("backend.emit_ms")
            + get("ir.verify_final_ms")
            + get("ir.interp_ms");
        let unit_ms = tracer.total_ms(0, "unit");
        assert!((unit_ms - children - get("bench.unattributed_ms")).abs() < 1e-6);
        assert!(get("bench.unattributed_ms") < 0.1 * unit_ms);
        // The tier timers fit inside the compile span they came from.
        let tiers = get("core.simulate_ms")
            + get("core.transform_ms")
            + get("opt.pipeline_ms")
            + get("core.guard_ms");
        assert!(tiers > 0.0 && tiers <= get("core.compile_ms") * 1.001);
        assert!(get("core.undo_ms") <= get("core.guard_ms"));
    }
}
