//! What one workload run hands back to `main`: operation counts, metric
//! values by name, and the messages of whatever failed.

use crate::stats::{median, paired_overhead_pct, percentile};

/// The times of one pass.
#[derive(Debug, Default)]
pub struct PassTimes {
    /// The pass's sequential parts, which add up to its time: each
    /// unit's pipeline on a sequential compile workload, each `run_suite`
    /// call on the corpus, the whole pass on a serve workload (whose
    /// requests overlap).
    pub part_ms: Vec<f64>,
    /// One per operation: a unit's pipeline or a request's round trip.
    pub op_ms: Vec<f64>,
}

impl PassTimes {
    pub fn pass_ms(&self) -> f64 {
        self.part_ms.iter().sum()
    }
}

fn pass_times(passes: &[&PassTimes]) -> Vec<f64> {
    passes.iter().map(|p| p.pass_ms()).collect()
}

fn pooled(passes: &[&PassTimes]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect()
}

/// The pass time with the host's interference taken out: every part of
/// the pass at the fastest it ran in any of the passes, added up. What
/// else runs on the host only ever adds time, in bursts of a second or
/// two that slow whole passes by a third, so the median over a run's
/// passes moves by a tenth from run to run and the fastest readings by a
/// hundredth.
fn quiet_pass_ms(passes: &[&PassTimes]) -> f64 {
    let parts = passes.iter().map(|p| p.part_ms.len()).min().unwrap_or(0);
    (0..parts)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.part_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    /// Failure messages and remarks, printed to stderr.
    pub notes: Vec<String>,
}

/// Failure messages kept verbatim; later ones are only counted.
const MAX_NOTES: usize = 20;

impl RunReport {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The end-to-end time metric of a plain run: the quiet pass time.
    pub fn set_end_to_end_times(&mut self, plain: &[&PassTimes]) {
        self.set("pass_ms", quiet_pass_ms(plain));
        self.notes.push(format!(
            "{} timed passes of {} operations",
            plain.len(),
            plain[0].op_ms.len()
        ));
    }

    /// The traced run's own times (`bench.*`) and what tracing cost:
    /// `basis` picks the time of a pass that plain and traced passes are
    /// compared on.
    pub fn set_traced_times(
        &mut self,
        plain: &[&PassTimes],
        traced: &[&PassTimes],
        basis: impl Fn(&PassTimes) -> f64,
    ) {
        let ops = pooled(traced);
        let p95 = percentile(&ops, 95.0);
        let pass_ms = median(&pass_times(traced));
        self.set("bench.pass_ms", pass_ms);
        self.set("bench.op_p50_ms", percentile(&ops, 50.0).value);
        self.set("bench.op_p95_ms", p95.value);
        self.set(
            "bench.ops_per_s",
            traced[0].op_ms.len() as f64 * 1e3 / pass_ms,
        );
        self.set("bench.passes", traced.len() as f64);
        self.set("bench.samples", p95.samples as f64);
        self.set("bench.p95_samples_beyond", p95.beyond as f64);
        if !p95.supported() {
            self.notes.push(format!(
                "bench.op_p95_ms has {} of {} samples beyond it (fewer than 10): read it with care",
                p95.beyond, p95.samples
            ));
        }
        let of = |passes: &[&PassTimes]| passes.iter().map(|p| basis(p)).collect::<Vec<_>>();
        self.set(
            "trace_overhead_pct",
            paired_overhead_pct(&of(plain), &of(traced)),
        );
    }

    /// Counts one attempted operation and, if it failed, why.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Counts a failure that is not one of the attempted operations'
    /// own (a counter that did not repeat, a daemon that did not stop).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_times_take_the_quietest_readings() {
        // The second pass met a burst on its first part, the third on its
        // second part: no pass was quiet throughout, the parts were.
        let passes = [
            PassTimes {
                part_ms: vec![10.0, 21.0],
                op_ms: vec![10.0, 21.0],
            },
            PassTimes {
                part_ms: vec![16.0, 20.0],
                op_ms: vec![16.0, 20.0],
            },
            PassTimes {
                part_ms: vec![11.0, 33.0],
                op_ms: vec![11.0, 33.0],
            },
        ];
        let plain: Vec<&PassTimes> = passes.iter().collect();
        assert_eq!(quiet_pass_ms(&plain), 30.0);
        assert_eq!(quiet_pass_ms(&[]), 0.0);
        let mut r = RunReport::default();
        r.set_end_to_end_times(&plain);
        assert_eq!(r.get("pass_ms"), Some(30.0));
        assert_eq!(r.notes, ["3 timed passes of 2 operations"]);
    }

    #[test]
    fn traced_times_pool_the_traced_passes() {
        let pass = |a: f64, b: f64| PassTimes {
            part_ms: vec![a + b],
            op_ms: vec![a, b],
        };
        let passes = [pass(10.0, 20.0), pass(20.0, 30.0), pass(30.0, 40.0)];
        let all: Vec<&PassTimes> = passes.iter().collect();
        let mut r = RunReport::default();
        r.set_traced_times(&all[..2], &all[1..], |p| p.pass_ms());
        assert_eq!(r.get("bench.pass_ms"), Some(60.0));
        assert_eq!(r.get("bench.op_p50_ms"), Some(30.0));
        assert_eq!(r.get("bench.op_p95_ms"), Some(40.0));
        assert_eq!(r.get("bench.ops_per_s"), Some(2.0 * 1e3 / 60.0));
        assert_eq!(r.get("bench.samples"), Some(4.0));
        assert_eq!(r.get("bench.p95_samples_beyond"), Some(0.0));
        assert!(
            r.notes[0].contains("0 of 4 samples beyond"),
            "{:?}",
            r.notes
        );
        // Pairs (30, 50) and (50, 70): the median of +66.7 % and +40 %.
        let want = 100.0 * (50.0 / 30.0 - 1.0 + 0.4) / 2.0;
        assert!((r.get("trace_overhead_pct").unwrap() - want).abs() < 1e-9);
    }

    #[test]
    fn counts_and_overwrites() {
        let mut r = RunReport::default();
        r.op(Ok(()));
        r.op(Err("unit 3: outcomes differ".into()));
        r.set("pass_ms", 1.0);
        r.set("pass_ms", 2.0);
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.get("pass_ms"), Some(2.0));
        assert_eq!(r.get("absent"), None);
        assert_eq!(r.notes, ["unit 3: outcomes differ"]);
    }
}
