//! The measuring code's arithmetic: medians, percentiles with their
//! sample counts, the regression-bound comparison and `VmHWM` parsing.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice so an inapplicable layer metric prints as 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A nearest-rank percentile together with how well the sample
/// supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

impl Percentile {
    /// The reporting rule of the metrics guide: a percentile is only as
    /// good as the ten samples beyond it.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile `p` in (0, 100]; value 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let v = sorted(values);
    if v.is_empty() {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Percentile {
        value: v[rank - 1],
        samples: v.len(),
        beyond: v.len() - rank,
    }
}

/// Tracing overhead in percent from alternating plain and traced
/// passes: the median over the pairs of `traced / plain - 1`. Adjacent
/// passes share the machine's momentary speed, which two medians taken
/// over the whole run would not.
pub fn paired_overhead_pct(plain: &[f64], traced: &[f64]) -> f64 {
    let ratios: Vec<f64> = plain.iter().zip(traced).map(|(p, t)| t / p - 1.0).collect();
    100.0 * median(&ratios)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By what share of `base` the value `new` is worse (negative when it
/// is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Whether `new` is no worse than `base` by more than the relative
/// `bound`, or by more than the absolute `floor` where one is given
/// (tiny set-up times move by more than a tenth for no reason).
pub fn within_bound(better: Better, bound: f64, floor: f64, base: f64, new: f64) -> bool {
    let worse_abs = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_abs <= floor || worse_by(better, base, new) <= bound
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib / 1024.0)
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm)
        .expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_reports_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 95.0);
        assert_eq!((p95.value, p95.samples, p95.beyond), (190.0, 200, 10));
        assert!(p95.supported());
        // One sample fewer beyond the rank and the rule no longer holds.
        let p95 = percentile(&v[..199], 95.0);
        assert_eq!((p95.value, p95.beyond), (190.0, 9));
        assert!(!p95.supported());
        let p50 = percentile(&v, 50.0);
        assert_eq!((p50.value, p50.beyond), (100.0, 100));
        assert_eq!(percentile(&[7.0], 95.0).value, 7.0);
        assert_eq!(percentile(&[], 95.0).samples, 0);
    }

    #[test]
    fn paired_overhead_ignores_drift_between_pairs() {
        // The machine slows down threefold between the pairs; tracing
        // costs 2 % in each.
        let plain = [100.0, 300.0, 200.0];
        let traced = [102.0, 306.0, 204.0];
        assert!((paired_overhead_pct(&plain, &traced) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bound_comparison_relative_floor_and_direction() {
        use Better::*;
        // Relative: 8 % worse passes a 10 % bound, 12 % does not.
        assert!(within_bound(Lower, 0.10, 0.0, 100.0, 108.0));
        assert!(!within_bound(Lower, 0.10, 0.0, 100.0, 112.0));
        // Any improvement passes.
        assert!(within_bound(Lower, 0.0, 0.0, 100.0, 50.0));
        // Higher is better: a drop is the regression.
        assert!(within_bound(Higher, 0.10, 0.0, 400.0, 370.0));
        assert!(!within_bound(Higher, 0.10, 0.0, 400.0, 350.0));
        assert!(within_bound(Higher, 0.10, 0.0, 400.0, 900.0));
        // Absolute floor: 0.02 s -> 0.05 s is +150 % but only 0.03 s.
        assert!(within_bound(Lower, 0.10, 0.05, 0.02, 0.05));
        assert!(!within_bound(Lower, 0.10, 0.05, 0.02, 0.08));
        // A zero bound is absolute: equal passes, anything worse fails.
        assert!(within_bound(Lower, 0.0, 0.0, 3.0, 3.0));
        assert!(!within_bound(Lower, 0.0, 0.0, 3.0, 3.000001));
        assert!((worse_by(Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(20.0));
        assert_eq!(parse_vm_hwm("VmRSS: 1 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM: lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM: 12 MB\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
