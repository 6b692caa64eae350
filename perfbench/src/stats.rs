//! Order statistics shared by every workload.
//!
//! Timings are reported as a median plus a tail: the highest percentile of
//! [`LADDER`] that still has at least [`TAIL_MIN_BEYOND`] samples beyond it,
//! with the sample count alongside, so a tail is never read off a handful
//! of points. Open-loop latencies are measured from the time a request was *due*, and
//! a refused request counts as a miss (`+∞`).

/// The percentiles a tail may be read at, lowest first.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail reading: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile read; `100.0` means no ladder rung qualified and the
    /// value is the maximum.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the reading rests on.
    pub samples: usize,
}

/// Nearest-rank 1-based rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `samples` (`+∞` last, NaN never expected).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest [`LADDER`] percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its rank; the maximum when none qualifies.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let value_at = |p| Tail {
        percentile: p,
        value: percentile(&s, p),
        samples: n,
    };
    LADDER
        .iter()
        .rev()
        .find(|&&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
        .map_or_else(|| value_at(100.0), |&p| value_at(p))
}

/// Open-loop latencies measured from each request's due time: `done[i]` is
/// the completion time of request `i`, or `None` when it was refused or
/// expired, which counts as a miss of any latency limit (`+∞`). A request
/// sent late still pays the lateness, because the clock starts at `due[i]`.
pub fn latencies_from_due(due: &[f64], done: &[Option<f64>]) -> Vec<f64> {
    assert_eq!(due.len(), done.len(), "one completion slot per request");
    due.iter()
        .zip(done)
        .map(|(&d, c)| c.map_or(f64::INFINITY, |c| (c - d).max(0.0)))
        .collect()
}

/// Mean of a slice (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Growth of a per-call cost along a call sequence: the mean of the last
/// tenth of `costs` over the mean of the first tenth. `None` below 20
/// calls, where a tenth is too few to compare.
pub fn growth(costs: &[f64]) -> Option<f64> {
    let tenth = costs.len() / 10;
    if tenth < 2 {
        return None;
    }
    let first = mean(&costs[..tenth]);
    let last = mean(&costs[costs.len() - tenth..]);
    (first > 0.0).then(|| last / first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_rung_with_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990, leaving exactly 10 beyond; p99.9
        // would leave 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000
            }
        );
        // 100 samples: p90 has rank 90, leaving exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).value, 90.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_on_few_samples() {
        let v = [3.0, 1.0, 2.0];
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 3.0, 3));
        // 99 samples: p90 leaves 9 beyond, so the reading drops to p50.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!((tail(&v).percentile, tail(&v).value), (50.0, 50.0));
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        // Due at 1.0, sent late at 1.5, done at 2.0: latency is 1.0, not 0.5.
        let lat = latencies_from_due(&[1.0, 4.0], &[Some(2.0), Some(4.25)]);
        assert_eq!(lat, vec![1.0, 0.25]);
    }

    #[test]
    fn refusals_count_as_misses() {
        let due: Vec<f64> = (0..100).map(f64::from).collect();
        let mut done: Vec<Option<f64>> = due.iter().map(|d| Some(d + 0.5)).collect();
        done[7] = None;
        let lat = latencies_from_due(&due, &done);
        assert!(lat[7].is_infinite());
        // One refusal in 100 lands above every served request, so the
        // maximum is a miss while the median is untouched.
        let s = sorted(&lat);
        assert!(percentile(&s, 100.0).is_infinite());
        assert_eq!(median(&lat), 0.5);
        // 100 samples read their tail at p90; 20 refusals push it to +∞.
        assert!(tail(&lat).value.is_finite());
        for slot in done.iter_mut().take(20) {
            *slot = None;
        }
        let t = tail(&latencies_from_due(&due, &done));
        assert_eq!(t.percentile, 90.0);
        assert!(t.value.is_infinite());
    }

    #[test]
    fn median_and_growth() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let flat = vec![2.0; 100];
        assert_eq!(growth(&flat), Some(1.0));
        let rising: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(growth(&rising), Some(3.0));
        assert_eq!(growth(&[1.0; 19]), None);
    }
}
