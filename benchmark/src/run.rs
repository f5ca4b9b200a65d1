//! What every workload's run shares: its parameters, the repeated
//! set-up, the alternation of plain and traced passes, the trace file.

use crate::report::RunReport;
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// One workload run's parameters.
pub struct Job<'a> {
    pub workload: &'a str,
    /// The workload's number, a coordinate of the seed mixing.
    pub index: usize,
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where daemon stores, sockets and trace files go.
    pub out_dir: &'a Path,
}

/// Hardware threads; no thread or connection count of a workload
/// exceeds it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets a workload up several times — at least three, and until a
/// second has gone by, so that a millisecond set-up is sampled often —
/// and returns the last set-up with the time of the fastest one in
/// seconds (what else runs on the host only ever adds time). Earlier
/// set-ups are handed to `discard` (untimed).
pub fn repeat_setup<T>(mut set_up: impl FnMut(usize) -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    const MIN_ROUNDS: usize = 3;
    const MAX_ROUNDS: usize = 15;
    const ENOUGH_S: f64 = 1.0;
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    loop {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let t = Instant::now();
        let prepared = set_up(times.len());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= MAX_ROUNDS
            || (times.len() >= MIN_ROUNDS && t0.elapsed().as_secs_f64() >= ENOUGH_S)
        {
            return (prepared, times.into_iter().fold(f64::INFINITY, f64::min));
        }
        last = Some(prepared);
    }
}

/// Runs `pass(traced)` until the job's seconds have gone by, at least
/// twice, and returns the plain and the traced passes. A traced run
/// pairs every plain pass with a traced one, alternating which of the
/// pair goes first, for the first 70 % of the time; the rest is left to
/// the probes.
pub fn timed_passes<P>(job: &Job, mut pass: impl FnMut(bool) -> P) -> (Vec<P>, Vec<P>) {
    let budget = if job.trace {
        job.seconds * 0.7
    } else {
        job.seconds
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < budget || plain.len() < 2 {
        let traced_first = plain.len() % 2 == 1;
        for is_traced in [traced_first, !traced_first] {
            if !is_traced {
                plain.push(pass(false));
            } else if job.trace {
                traced.push(pass(true));
            }
        }
    }
    (plain, traced)
}

/// Writes the spans of a traced run to `<out_dir>/trace-<workload>.json`.
pub fn write_trace(job: &Job, tracer: &Tracer, report: &mut RunReport) {
    let path = job.out_dir.join(format!("trace-{}.json", job.workload));
    let written = std::fs::create_dir_all(job.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(job.workload, job.seed).to_string()));
    report.notes.push(match written {
        Ok(()) => format!(
            "{} spans written to benchmark/{}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => format!("could not write {}: {e}", path.display()),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(trace: bool) -> Job<'static> {
        Job {
            workload: "test",
            index: 0,
            seed: 0,
            seconds: 1e-9,
            trace,
            out_dir: Path::new("out"),
        }
    }

    #[test]
    fn set_up_repeats_and_discards_all_but_the_last() {
        let mut discarded = Vec::new();
        let (last, fastest_s) = repeat_setup(
            |round| {
                // Only the first round is quick.
                let ms = if round == 0 { 100 } else { 120 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                round
            },
            |round| discarded.push(round),
        );
        // A second has to go by: 0.12 s rounds make nine of them.
        assert_eq!(last, 8);
        assert_eq!(discarded, (0..8).collect::<Vec<_>>());
        assert!((0.1..0.12).contains(&fastest_s), "{fastest_s}");
    }

    #[test]
    fn plain_and_traced_passes_alternate_who_goes_first() {
        let mut seen = Vec::new();
        let (plain, traced) = timed_passes(&job(true), |is_traced| {
            seen.push(is_traced);
            seen.len()
        });
        assert_eq!(seen, [false, true, true, false]);
        assert_eq!((plain, traced), (vec![1, 4], vec![2, 3]));
        let (plain, traced) = timed_passes(&job(false), |is_traced| is_traced);
        assert_eq!((plain, traced), (vec![false, false], vec![]));
    }
}
