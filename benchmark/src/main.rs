//! The repository's benchmark: the DBDS phase and its compilation
//! service, end to end and layer by layer. See `README.md`.
//!
//! ```text
//! dbds-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! dbds-benchmark run       [--workload W] [--seed N] [--seconds S]  every workload, a child process each
//! dbds-benchmark trace     [--workload W] [--seed N] [--seconds S]  the same with spans: per-layer metrics
//! dbds-benchmark selfcheck [--workload W] [--seed N] [--seconds S]  the suite twice; must agree within bounds
//! dbds-benchmark manifest                                           print BENCHMARK.json
//! ```

mod api;
mod compile_wl;
mod gen;
mod json;
mod report;
mod run;
mod serve_wl;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{nproc, Job};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "run" | "trace" | "selfcheck" | "manifest" if args.command.is_none() => {
                args.command = Some(arg)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if spec::workload_index(w).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(args)
}

/// The metric names of a mode with their units.
fn metric_table(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Runs one workload in this process and prints its result; the last
/// line of standard output is the result object.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let job = Job {
        workload,
        index: spec::workload_index(workload).expect("checked by parse_args"),
        seed,
        seconds,
        trace,
        out_dir: Path::new("out"),
    };
    let mut report = if let Some(kind) = compile_wl::kind(workload) {
        compile_wl::run(&job, kind)
    } else {
        let spec = serve_wl::spec(workload).expect("every workload is a compile or a serve one");
        serve_wl::run(&job, spec)
    };
    if !trace {
        report.set("peak_rss_mb", stats::peak_rss_mib());
    }
    for note in &report.notes {
        eprintln!("{workload}: {note}");
    }

    let mut metrics = Vec::new();
    println!("{workload} (seed {seed}, {seconds} s, nproc {}):", nproc());
    for (name, unit) in metric_table(trace) {
        // A layer that does not run on this workload reads 0; an
        // end-to-end metric must have been measured.
        let value = match report.get(name) {
            Some(v) => v,
            None if trace => 0.0,
            None => panic!("{workload} did not measure {name}"),
        };
        println!("  {name:<34} {value:>16.4} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::str(unit)),
            ]),
        ));
    }
    println!(
        "  attempted {}  succeeded {}  failed {}",
        report.attempted,
        report.attempted.saturating_sub(report.failed),
        report.failed
    );
    let correct = report.failed == 0;
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(report.attempted as f64)),
            ("failed".into(), Json::Num(report.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload's result as its child process printed it.
struct ChildResult {
    workload: &'static str,
    failed: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs every selected workload in a fresh child process each, in the
/// given order, echoing the children's own output.
fn run_children(order: &[usize], args: &Args, trace: bool) -> Vec<ChildResult> {
    let exe = std::env::current_exe().expect("path of this executable");
    order
        .iter()
        .map(|&i| {
            let workload = WORKLOADS[i].name;
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn a workload's process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (body, last) = stdout
                .trim_end()
                .rsplit_once('\n')
                .unwrap_or(("", stdout.trim_end()));
            println!("{body}");
            let parsed = json::parse(last).ok();
            let metrics = parsed
                .as_ref()
                .and_then(|r| r.get("metrics"))
                .and_then(Json::as_obj)
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default();
            let correct = parsed
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if !correct {
                eprintln!("{workload}: FAILED ({})", output.status);
            }
            ChildResult {
                workload,
                failed: !correct || !output.status.success(),
                metrics,
            }
        })
        .collect()
}

fn selected(args: &Args) -> Vec<usize> {
    match &args.workload {
        Some(w) => vec![spec::workload_index(w).expect("checked by parse_args")],
        None => (0..WORKLOADS.len()).collect(),
    }
}

fn run_suite_once(args: &Args, trace: bool) -> ExitCode {
    let results = run_children(&selected(args), args, trace);
    let failed: Vec<_> = results
        .iter()
        .filter(|r| r.failed)
        .map(|r| r.workload)
        .collect();
    if failed.is_empty() {
        println!("all {} workloads correct", results.len());
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// A/A check: the whole suite twice on this build, the second time in
/// reverse workload order. Every end-to-end metric of the two sets must
/// agree within its own bound (in either direction), and every exact
/// metric exactly.
fn selfcheck(args: &Args) -> ExitCode {
    let order = selected(args);
    let reversed: Vec<usize> = order.iter().rev().copied().collect();
    let a = run_children(&order, args, false);
    let mut b = run_children(&reversed, args, false);
    b.reverse();
    let mut bad = 0;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for (ra, rb) in a.iter().zip(&b) {
        if ra.failed || rb.failed {
            println!("{:<16} a run failed", ra.workload);
            bad += 1;
            continue;
        }
        for (m, ((_, va), (_, vb))) in END_TO_END.iter().zip(ra.metrics.iter().zip(&rb.metrics)) {
            let ok = if m.exact {
                va == vb
            } else {
                stats::within_bound(m.better, m.bound, m.floor, *va, *vb)
                    && stats::within_bound(m.better, m.bound, m.floor, *vb, *va)
            };
            bad += usize::from(!ok);
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>+7.1}%  {}",
                ra.workload,
                m.name,
                va,
                vb,
                100.0 * (vb - va) / va,
                match (ok, m.exact) {
                    (true, true) => "ok (exact)".to_string(),
                    (true, false) => format!("ok (bound {:.0}%)", 100.0 * m.bound),
                    (false, true) => "DIFFERS (must be exact)".to_string(),
                    (false, false) => format!("DIFFERS (bound {:.0}%)", 100.0 * m.bound),
                }
            );
        }
    }
    if bad == 0 {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck FAILED: {bad} disagreement(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dbds-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything the benchmark writes (daemon stores, sockets, trace
    // files) goes under `benchmark/out/`, by relative path.
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")) {
        eprintln!(
            "dbds-benchmark: cannot enter {}: {e}",
            env!("CARGO_MANIFEST_DIR")
        );
        return ExitCode::from(2);
    }
    match (args.command.as_deref(), &args.workload) {
        (Some("manifest"), _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("run"), _) => run_suite_once(&args, false),
        (Some("trace"), _) => run_suite_once(&args, true),
        (Some("selfcheck"), _) => selfcheck(&args),
        (_, Some(workload)) => run_one(workload, args.seed, args.seconds, args.trace),
        (_, None) => {
            eprintln!(
                "dbds-benchmark: give --workload W or one of run, trace, selfcheck, manifest"
            );
            ExitCode::from(2)
        }
    }
}
