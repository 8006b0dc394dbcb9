//! Sample statistics: nearest-rank percentiles with an explicit sample
//! discipline, so no percentile is ever reported from too few samples.

use crate::speed::Speed;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample with at least `p` percent of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples lying strictly above `value` in an ascending-sorted slice.
pub fn beyond(sorted: &[f64], value: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= value)
}

/// How many samples must lie beyond a tail percentile before it is
/// reported: fewer, and the "tail" is a handful of samples or one.
pub const MIN_BEYOND: usize = 10;

/// Request latencies of one timed run, in milliseconds. Every round
/// repeats the same distinct requests, and a request's latency is the
/// least of its runs (best of R, as `timeit` reports): a stretch in
/// which the shared host runs slow covers some rounds but rarely all of
/// them, so it does not move the figures, while a change in what the
/// code costs moves every run alike. Each run is first scaled to the
/// reference host speed ([`crate::speed`]), for the stretches that do
/// cover a whole run. Percentiles and the rate are taken over the
/// distinct requests' best latencies.
pub struct Latencies {
    best: Vec<f64>,
    raw: Vec<f64>,
    runs: usize,
    speed: Speed,
}

impl Latencies {
    /// No runs yet of `requests` distinct requests.
    pub fn new(requests: usize) -> Self {
        Latencies {
            best: vec![f64::INFINITY; requests],
            raw: vec![f64::INFINITY; requests],
            runs: 0,
            speed: Speed::default(),
        }
    }

    /// Records one run of request `k` that took `ms` of wall-clock time,
    /// probing the host's speed right after it.
    pub fn push(&mut self, k: usize, ms: f64) {
        let scale = self.speed.probe();
        self.push_scaled(k, ms, scale);
    }

    fn push_scaled(&mut self, k: usize, ms: f64, scale: f64) {
        self.best[k] = self.best[k].min(ms * scale);
        self.raw[k] = self.raw[k].min(ms);
        self.runs += 1;
    }

    /// Distinct requests measured: the sample count of every figure.
    pub fn len(&self) -> usize {
        self.best.iter().filter(|v| v.is_finite()).count()
    }

    /// Runs recorded, over all rounds.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Median latency, or `None` without samples.
    pub fn p50(&self) -> Option<f64> {
        let sorted = measured(&self.best);
        (!sorted.is_empty()).then(|| percentile(&sorted, 50.0))
    }

    /// 90th-percentile latency, only when at least [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn p90(&self) -> Option<f64> {
        let sorted = measured(&self.best);
        if sorted.is_empty() {
            return None;
        }
        let p90 = percentile(&sorted, 90.0);
        (beyond(&sorted, p90) >= MIN_BEYOND).then_some(p90)
    }

    /// Requests per second: one run of every measured request ÷ their
    /// summed latency, or `None` without samples.
    pub fn per_second(&self) -> Option<f64> {
        rate(&measured(&self.best))
    }

    /// The median and rate of the best wall-clock times, unscaled.
    pub fn unscaled(&self) -> (Option<f64>, Option<f64>) {
        let sorted = measured(&self.raw);
        ((!sorted.is_empty()).then(|| percentile(&sorted, 50.0)), rate(&sorted))
    }
}

/// The finite values, ascending.
fn measured(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn rate(ms: &[f64]) -> Option<f64> {
    let total: f64 = ms.iter().sum();
    (!ms.is_empty() && total > 0.0).then(|| ms.len() as f64 / (total / 1e3))
}

/// Median of unsorted values (mean of the middle two for even counts),
/// for repeated whole-run measurements such as set-up times.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn beyond_counts_strictly_greater_samples() {
        let v = [1.0, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(beyond(&v, 2.0), 2);
        assert_eq!(beyond(&v, 4.0), 0);
        assert_eq!(beyond(&v, 0.0), 5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let mut l = Latencies::new(100);
        for i in 1..=99 {
            l.push_scaled(i - 1, i as f64, 1.0);
        }
        // 99 samples: p90 is the 90th, only 9 lie beyond it.
        assert_eq!(l.p90(), None);
        l.push_scaled(99, 100.0, 1.0);
        assert_eq!(l.p90(), Some(90.0));
        assert_eq!(l.p50(), Some(50.0));
        // A single sample is never its own tail.
        let mut one = Latencies::new(1);
        one.push_scaled(0, 5.0, 1.0);
        assert_eq!(one.p50(), Some(5.0));
        assert_eq!(one.p90(), None);
    }

    #[test]
    fn ties_at_the_tail_do_not_count_as_beyond() {
        let mut l = Latencies::new(200);
        for k in 0..200 {
            l.push_scaled(k, 1.0, 1.0);
        }
        assert_eq!(l.p90(), None, "no sample lies beyond a flat tail");
    }

    #[test]
    fn a_request_counts_once_at_its_best_run() {
        let mut l = Latencies::new(3);
        assert_eq!((l.len(), l.p50(), l.per_second()), (0, None, None));
        // Request 0 runs slow, then fast; request 2 never runs.
        l.push_scaled(0, 30.0, 1.0);
        l.push_scaled(1, 20.0, 1.0);
        l.push_scaled(0, 10.0, 1.0);
        l.push_scaled(1, 25.0, 1.0);
        assert_eq!((l.len(), l.runs()), (2, 4));
        assert_eq!(l.p50(), Some(10.0));
        // One run each of requests 0 and 1: 2 requests in 30 ms.
        assert!((l.per_second().unwrap() - 2.0 / 0.030).abs() < 1e-9);
    }

    #[test]
    fn runs_are_scaled_before_the_best_is_taken() {
        let mut l = Latencies::new(1);
        // 12 ms on a host at half speed is 6 ms at the reference speed,
        // better than 8 ms at full speed.
        l.push_scaled(0, 12.0, 0.5);
        l.push_scaled(0, 8.0, 1.0);
        assert_eq!(l.p50(), Some(6.0));
        assert_eq!(l.unscaled().0, Some(8.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
