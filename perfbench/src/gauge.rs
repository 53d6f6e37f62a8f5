//! The host gauge. The benchmark runs on a few cores of a shared host,
//! and other tenants' load changes how fast those cores run. On the
//! 2-vCPU Xeon VM the benchmark was tuned on, the host switched every few
//! seconds between two speeds about 1.8 times apart, and stayed mostly in
//! the slow one for minutes at a time: `edit-loop` ran at 165 edits/s in
//! one quarter of an hour and at 75–110 edits/s in the next. A raw timing
//! from one run is then mostly a reading of the neighbours.
//!
//! So every run also times a fixed reference kernel between its requests:
//! the work of a check on an unknown key, done by the benchmark's own code
//! over a fixed set of names of the fleet's shape. The kernel hashes every
//! name into an index and measures the edit distance from a probe key to
//! each. The program never runs it, and no change to the program changes
//! it. The host's slowdown is the kernel's time over `REFERENCE_MS`, its
//! time on the quiet host. Each end-to-end timing is divided by the
//! slowdown around it raised to `ELASTICITY`.

use crate::corpus::levenshtein;
use crate::stats;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the quiet host, in ms.
const REFERENCE_MS: f64 = 1.9;

/// How the program's timings grow with the kernel's. The kernel is more
/// compute-bound than the program, so a busy neighbour slows it more. On
/// the host above, when the kernel ran 1.8 times slower, set-ups ran about
/// 1.6 times slower, edits 1.4–1.5 times and deploy gates 1.35 times: the
/// 0.5th to 0.8th power. Dividing by the plain slowdown over-corrected
/// `fleet-check`, whose spread over six seeds then grew from 0.21 to 0.34
/// of its median; with 0.6 the spread of every workload fell.
const ELASTICITY: f64 = 0.6;

/// The share of a run's time spent in the kernel.
const SHARE: f64 = 0.05;

/// Samples taken before a set-up, and again after it.
pub const SET_UP_SAMPLES: usize = 5;

/// A timing is adjusted by the samples taken from this long before it
/// started to this long after it ended, in seconds. Requests of a second
/// or more leave no sample during them, so the window takes in the
/// samples of the requests around them too.
const WINDOW_S: f64 = 3.0;

/// The probe key: a near miss of one of the names.
const PROBE: &str = "m0512_q3";

/// The kernel's timings in one run. The kernel runs on one thread.
pub struct Gauge {
    names: Vec<String>,
    start: Instant,
    /// `(seconds since start at the sample's midpoint, ms)` per sample.
    samples: Vec<(f64, f64)>,
    spent_s: f64,
}

impl Gauge {
    pub fn new() -> Gauge {
        let names = (0..1024)
            .flat_map(|m| (0..7).map(move |p| format!("m{m:04}_p{p}")))
            .collect();
        Gauge {
            names,
            start: Instant::now(),
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Seconds since the gauge was made.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the kernel until it has taken `SHARE` of the time since the
    /// gauge was made.
    pub fn tick(&mut self) {
        while self.spent_s < SHARE * self.now() {
            self.sample();
        }
    }

    /// Runs the kernel `n` times.
    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// The kernel's median time over `REFERENCE_MS`: above 1 when the
    /// host ran slower than when it was quiet.
    pub fn slowdown(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        stats::median(&ms) / REFERENCE_MS
    }

    /// What to divide a timing of the interval `from..to` (seconds since
    /// the gauge was made) by: the median slowdown of the samples within
    /// `WINDOW_S` of it, or of the nearest sample when none is, raised to
    /// `ELASTICITY`.
    pub fn divisor(&self, from: f64, to: f64) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.0 >= from - WINDOW_S && s.0 <= to + WINDOW_S)
            .map(|s| s.1)
            .collect();
        let ms = if near.is_empty() {
            let gap = |t: f64| (t - (from + to) / 2.0).abs();
            let nearest = self
                .samples
                .iter()
                .min_by(|a, b| gap(a.0).total_cmp(&gap(b.0)))
                .expect("the gauge has sampled");
            nearest.1
        } else {
            stats::median(&near)
        };
        (ms / REFERENCE_MS).powf(ELASTICITY)
    }

    fn sample(&mut self) {
        let at = self.now();
        let t = Instant::now();
        black_box(kernel(&self.names));
        let took = t.elapsed().as_secs_f64();
        self.spent_s += took;
        self.samples.push((at + took / 2.0, took * 1e3));
    }
}

/// Indexes `names` and counts those within suggestion distance of the
/// probe key.
fn kernel(names: &[String]) -> usize {
    let index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let near = names.iter().filter(|n| levenshtein(PROBE, n) <= 3).count();
    index.len() + near
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge_with(samples: &[(f64, f64)]) -> Gauge {
        let mut g = Gauge::new();
        g.samples = samples.to_vec();
        g
    }

    #[test]
    fn divisor_uses_the_samples_around_the_interval() {
        let slow = REFERENCE_MS * 2.0;
        let g = gauge_with(&[(1.0, REFERENCE_MS), (20.0, slow), (21.0, slow)]);
        assert_eq!(g.divisor(0.5, 2.0), 1.0);
        assert_eq!(g.divisor(19.0, 19.5), 2f64.powf(ELASTICITY));
        // No sample within the window: the nearest one counts.
        assert_eq!(g.divisor(8.0, 9.0), 1.0);
    }
}
