//! Host-speed normalisation. The shared 2-vCPU host this benchmark was
//! built on runs at two speeds a third to a half apart, switching in
//! stretches of seconds to minutes, so a whole run can fall in a slow
//! one. A probe of fixed work, run beside the measured work, tracks the
//! speed: every reported time is scaled by [`REFERENCE_MS`] ÷ the
//! probe's current time, i.e. reported at the speed at which the probe
//! takes [`REFERENCE_MS`] (about this host's fast state, so figures
//! read close to wall-clock time there). The probe is the benchmark's
//! own code, so a change to the partitioner moves the figures and not
//! the scale.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// The probe's time, in ms, at the reference speed.
pub const REFERENCE_MS: f64 = 0.11;

/// Probe times the current speed is the median of.
const WINDOW: usize = 15;

/// Times a second pass of [`work`], so that the first pass has warmed
/// the caches and the allocator whatever ran before: a probe right after
/// a request and one after another probe then read alike. Returns ms.
pub fn probe_ms() -> f64 {
    work();
    let t = Instant::now();
    work();
    t.elapsed().as_secs_f64() * 1e3
}

/// The fixed work: generate, sort and hash-index 4096 integers (small
/// allocations, branches and a 32 KB working set, like the partitioner's
/// inner loops).
fn work() {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut v: Vec<u64> = (0..4096)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut index = HashMap::with_capacity(1024);
    for (i, &e) in v.iter().enumerate().step_by(4) {
        index.insert(e, i);
    }
    let hits: usize = v.iter().filter_map(|e| index.get(e)).sum();
    std::hint::black_box(hits);
}

/// The probe's recent times, as a running speed estimate.
#[derive(Default)]
pub struct Speed {
    recent: VecDeque<f64>,
}

impl Speed {
    /// Runs the probe once, right after a measured request, and returns
    /// the scale for that request's time: [`REFERENCE_MS`] ÷ the median
    /// of the last [`WINDOW`] probe times.
    pub fn probe(&mut self) -> f64 {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(probe_ms());
        let v: Vec<f64> = self.recent.iter().copied().collect();
        REFERENCE_MS / crate::stats::median(&v)
    }

    /// Runs the probe [`WINDOW`] times in a row (around a measurement
    /// longer than one request, such as a set-up).
    pub fn settle(&mut self) -> f64 {
        (0..WINDOW).map(|_| self.probe()).last().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_reference_over_the_windowed_median() {
        let mut s = Speed::default();
        let scale = s.settle();
        assert!(scale > 0.0 && scale.is_finite());
        assert_eq!(s.recent.len(), WINDOW);
        let scale = s.probe();
        assert_eq!(s.recent.len(), WINDOW, "the window slides");
        let v: Vec<f64> = s.recent.iter().copied().collect();
        assert_eq!(scale, REFERENCE_MS / crate::stats::median(&v));
    }
}
