//! Order statistics over timing samples, and the metric-name rules.
//!
//! Every reported quantile is a measured sample (nearest rank, no
//! interpolation), so a value carries all the digits it was measured with.

/// 1-based nearest rank of quantile `q` among `n` samples: `⌈q·n⌉`,
/// clamped to `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n >= 1, "rank of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// The gated latency quantile. The host's speed drifts in phases of tens
/// of seconds, and in a slow phase a quarter or more of a run's operations
/// are slowed; the fastest few percent still run at the host's quiet speed,
/// so a low quantile over hundreds of operations repeats from run to run
/// where p25 and p50 do not.
pub const GATED_Q: f64 = 0.02;

/// Samples a tail quantile needs strictly beyond its rank before it is
/// printed: fewer, and the tail is one or two outliers, not a percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank quantile `q` of an ascending slice, or `None` when fewer
/// than [`TAIL_MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= TAIL_MIN_BEYOND).then(|| sorted[r - 1])
}

/// Median (nearest rank, the lower middle sample for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Smallest value (the nearest-rank 0-quantile).
pub fn minimum(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.0)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The latency samples of one operation kind, in milliseconds.
#[derive(Default)]
pub struct Timings {
    ms: Vec<f64>,
}

impl Timings {
    /// Record one operation's latency.
    pub fn push(&mut self, d: std::time::Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Ascending copy of the samples.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile `q` (NaN when empty).
    pub fn q(&self, q: f64) -> f64 {
        if self.ms.is_empty() {
            return f64::NAN;
        }
        quantile(&self.sorted(), q)
    }

    /// One human-readable line: sample count, the gated p2, p25, p50 and
    /// the p90 when it has enough samples beyond it.
    pub fn summary(&self, label: &str) -> String {
        if self.ms.is_empty() {
            return format!("{label}: n=0");
        }
        let s = self.sorted();
        let p90 = match tail_quantile(&s, 0.9) {
            Some(v) => format!("{v:.3} ms"),
            None => format!("n/a (<{TAIL_MIN_BEYOND} samples beyond)"),
        };
        format!(
            "{label}: n={} p2={:.3} ms p25={:.3} ms p50={:.3} ms p90={p90}",
            s.len(),
            quantile(&s, GATED_Q),
            quantile(&s, 0.25),
            quantile(&s, 0.5)
        )
    }
}

/// A metric name: starts with a letter or digit; at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A metric unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_ceiling_of_q_n_clamped() {
        assert_eq!(rank(100, 0.25), 25);
        assert_eq!(rank(101, 0.25), 26);
        assert_eq!(rank(4, 0.5), 2);
        assert_eq!(rank(5, 0.5), 3);
        assert_eq!(rank(7, 0.0), 1);
        assert_eq!(rank(7, 1.0), 7);
        assert_eq!(rank(1, 0.9), 1);
    }

    #[test]
    fn quantile_returns_a_measured_sample() {
        let s: Vec<f64> = (1..=8).map(|i| i as f64 * 1.5).collect();
        assert_eq!(quantile(&s, 0.25), 3.0);
        assert_eq!(quantile(&s, 0.5), 6.0);
        assert_eq!(quantile(&s, 0.9), 12.0);
        assert!(s.contains(&quantile(&s, 0.33)));
    }

    #[test]
    fn median_takes_lower_middle_and_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn minimum_is_the_smallest_sample() {
        assert_eq!(minimum(&[0.31, 0.27, 0.45]), 0.27);
        assert_eq!(minimum(&[2.5]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let s = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        // n = 99: rank 90, 9 beyond.
        assert_eq!(tail_quantile(&s(99), 0.9), None);
        // n = 100: rank 90, exactly 10 beyond.
        assert_eq!(tail_quantile(&s(100), 0.9), Some(89.0));
        assert_eq!(tail_quantile(&s(150), 0.9), Some(134.0));
        assert_eq!(tail_quantile(&[], 0.9), None);
        // p50 of 20 samples has 10 beyond; p50 of 19 has 9.
        assert_eq!(tail_quantile(&s(20), 0.5), Some(9.0));
        assert_eq!(tail_quantile(&s(19), 0.5), None);
    }

    #[test]
    fn timings_summary_reports_count_and_tail_rule() {
        let mut t = Timings::default();
        for i in 1..=50 {
            t.push(std::time::Duration::from_millis(i));
        }
        let line = t.summary("op");
        assert!(
            line.starts_with("op: n=50 p2=1.000 ms p25=13.000 ms p50=25.000 ms"),
            "{line}"
        );
        assert!(line.contains("p90=n/a"), "{line}");
        assert_eq!(t.q(0.25), 13.0);
        assert!(Timings::default().q(0.5).is_nan());
    }

    #[test]
    fn metric_names_follow_the_rules() {
        for ok in [
            "op_ms_p25",
            "walks.evolve_ms",
            "pool.w2_over_w1",
            "a-b",
            "9x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/no",
            "p%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn metric_units_follow_the_rules() {
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_round", "µs"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
