//! Summary statistics shared by every workload: medians, the tail
//! percentile rule, geometric means, and the metric-name grammar.

/// Median of `samples` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every reported timing has samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Minimum samples beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles a tail may be reported at, highest first, in hundredths
/// of a percent.
const TAIL_LADDER: [usize; 6] = [9999, 9990, 9900, 9800, 9000, 5000];

/// The highest percentile of [`TAIL_LADDER`] (in hundredths of a percent)
/// with at least [`TAIL_BEYOND`] of `n` samples beyond its nearest rank.
fn ladder_percentile(n: usize) -> Option<usize> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_BEYOND)
}

/// Nearest rank (1-based) of percentile `p` hundredths among `n` samples:
/// the smallest rank with at least `p` of the samples at or below it.
fn nearest_rank(p: usize, n: usize) -> usize {
    (p * n).div_ceil(10_000).max(1)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`; the value
/// is the nearest-rank sample. `None` when even the median has fewer than
/// ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = ladder_percentile(samples.len())?;
    let s = sorted(samples);
    Some((p as f64 / 100.0, s[nearest_rank(p, s.len()) - 1]))
}

/// Tail of a run, steady against bursts: `(time, value)` samples, in
/// time order, are split into windows of `per_window` consecutive samples
/// (the remainder joins the last window), each window's tail is taken at
/// the [`tail`] rule's percentile for `per_window` samples, and the median
/// over windows is reported as `(percentile, value, windows)`.
///
/// Windows of a fixed sample count keep the percentile fixed however fast
/// the program runs, and short windows confine a host stall to the few
/// windows it overlaps, which the median then discards. With fewer than
/// `per_window` samples the whole run is one window at its own [`tail`]
/// percentile; `None` when even the median lacks ten samples beyond it.
pub fn windowed_tail(samples: &[(f64, f64)], per_window: usize) -> Option<(f64, f64, usize)> {
    let mut by_time = samples.to_vec();
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    let windows = (by_time.len() / per_window.max(1)).max(1);
    let p = ladder_percentile(by_time.len().min(per_window))?;
    let per_window_tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                by_time.len()
            } else {
                (w + 1) * per_window
            };
            let g = values(&by_time[w * per_window..end]);
            sorted(&g)[nearest_rank(p, g.len()) - 1]
        })
        .collect();
    Some((p as f64 / 100.0, median(&per_window_tails), windows))
}

/// The values of `(time, value)` samples.
pub fn values(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean of non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Latency summary of a closed loop over several programs, from
/// `(start time, latency)` samples: the geomean of per-program medians and
/// the geomean of per-program [`windowed_tail`]s, in windows of
/// `per_window` samples. Returns `(median, tail, tail percentile, sample
/// count)`; the percentile is the lowest any program was taken at.
///
/// The geomean weighs every program alike, so the jitter of the shortest
/// program does not set the tail of all of them.
pub fn program_summary(
    per_program: &[Vec<(f64, f64)>],
    per_window: usize,
) -> Option<(f64, f64, f64, usize)> {
    let medians: Vec<f64> = per_program.iter().map(|s| median(&values(s))).collect();
    let tails = per_program
        .iter()
        .map(|s| windowed_tail(s, per_window))
        .collect::<Option<Vec<_>>>()?;
    let pct = tails.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let tails: Vec<f64> = tails.iter().map(|t| t.1).collect();
    let n = per_program.iter().map(Vec::len).sum();
    Some((geomean(&medians), geomean(&tails), pct, n))
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// then at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let beyond = |s: &[f64], v: f64| s.iter().filter(|&&x| x > v).count();
        assert_eq!(tail(&[1.0; 19]), None);
        // 20 samples: only the median has ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 100 samples: p90 has exactly ten beyond it; p99 has one.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        assert_eq!(beyond(&hundred, 90.0), TAIL_BEYOND);
        // 1000 samples: p99 (ten beyond), not p99.9 (one beyond).
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        assert_eq!(beyond(&thousand, 990.0), TAIL_BEYOND);
        // 999 samples: p99 would leave only nine beyond, so p98.
        assert_eq!(tail(&thousand[..999]), Some((98.0, 980.0)));
        // 500 samples: p98 with exactly ten beyond; 499: p90.
        assert_eq!(tail(&thousand[..500]), Some((98.0, 490.0)));
        assert_eq!(beyond(&thousand[..500], 490.0), TAIL_BEYOND);
        assert_eq!(tail(&thousand[..499]), Some((90.0, 450.0)));
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // 1000 samples, given latest first: five windows of 200 in time
        // order; window k holds 1..=200 scaled by k+1, so the window tails
        // (p90, rank 180) are 180, 360, 540, 720 and 900.
        let samples: Vec<(f64, f64)> = (0..5)
            .rev()
            .flat_map(|k| {
                (1..=200).map(move |i| (2.0 * k as f64 + 1.0, f64::from(i) * (k + 1) as f64))
            })
            .collect();
        assert_eq!(windowed_tail(&samples, 200), Some((90.0, 540.0, 5)));
        // The remainder joins the last window: 999 samples make four
        // windows, the last of 399, still at p90.
        let first_999: Vec<_> = samples[200..]
            .iter()
            .chain(&samples[1..200])
            .copied()
            .collect();
        assert_eq!(
            windowed_tail(&first_999, 200).map(|t| (t.0, t.2)),
            Some((90.0, 4))
        );
        // Windows of 1000 samples report p99 with exactly ten beyond.
        let ramp: Vec<(f64, f64)> = (0..3000)
            .map(|i| (f64::from(i), f64::from(i % 1000)))
            .collect();
        assert_eq!(windowed_tail(&ramp, 1000), Some((99.0, 989.0, 3)));
        // Fewer samples than a window: one window at its own percentile.
        assert_eq!(windowed_tail(&ramp[..150], 1000), Some((90.0, 134.0, 1)));
        // Under 20 samples even the median lacks ten beyond it.
        assert_eq!(windowed_tail(&samples[..19], 200), None);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn program_summary_is_the_geomean_per_program() {
        // Two programs 100x apart: 1..=20 and 100..=2000; each has one
        // window at p50 (rank 10).
        let a: Vec<(f64, f64)> = (1..=20).map(|i| (f64::from(i), f64::from(i))).collect();
        let b: Vec<(f64, f64)> = a.iter().map(|&(t, v)| (t, v * 100.0)).collect();
        let (m, t, pct, n) = program_summary(&[a.clone(), b], 100).expect("20 samples each");
        assert_eq!((pct, n), (50.0, 40));
        assert!((m - geomean(&[10.5, 1050.0])).abs() < 1e-9, "{m}");
        assert!((t - geomean(&[10.0, 1000.0])).abs() < 1e-9, "{t}");
        // A program without a tail leaves the summary without one.
        assert_eq!(program_summary(&[a.clone(), a[..19].to_vec()], 100), None);
    }

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "te.eval_ms.bert_bench.full", "9a", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
