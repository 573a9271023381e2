//! The one measurement harness every layer probe runs through.
//!
//! A probe is a type implementing [`Probe`]: its constructor builds the
//! untimed state (warmed-up simulations, pre-generated branch streams,
//! a snapshot to restore), and [`Probe::step`] performs one timed
//! operation on it. [`measure`] repeats `step` for a time budget and
//! reports the median time per unit of work, so every layer is timed the
//! same way and no probe carries its own timing loop. [`measure_ratio`]
//! compares two probes step by step, for metrics that are ratios.
//!
//! [`Calibrator`] measures how fast the machine runs simulator-like code
//! at a given moment, so that the end-to-end timings can be rescaled to
//! one reference speed (see [`speed`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One layer under measurement.
pub trait Probe {
    /// Performs one timed operation and returns how many units of work
    /// it did (uops, branches, cycles, calls) — the divisor of the
    /// reported per-unit time.
    fn step(&mut self) -> u64;
}

/// Runs `probe` at least `min_reps` times and until `budget` has
/// elapsed, and returns the median nanoseconds per unit of work.
pub fn measure<P: Probe>(probe: &mut P, budget: Duration, min_reps: usize) -> f64 {
    let start = Instant::now();
    let mut per_unit = Vec::new();
    while per_unit.len() < min_reps.max(1) || start.elapsed() < budget {
        per_unit.push(time_step(probe));
    }
    median(&per_unit)
}

/// Per-unit time of `a` divided by that of `b`, measured in alternating
/// steps so that both sides see the same machine state; the median over
/// at least `min_reps` step pairs and until `budget` has elapsed.
pub fn measure_ratio<A: Probe, B: Probe>(
    a: &mut A,
    b: &mut B,
    budget: Duration,
    min_reps: usize,
) -> f64 {
    let start = Instant::now();
    let mut ratios = Vec::new();
    while ratios.len() < min_reps.max(1) || start.elapsed() < budget {
        ratios.push(time_step(a) / time_step(b));
    }
    median(&ratios)
}

/// Nanoseconds per unit of work of one `step` of `probe`.
fn time_step<P: Probe>(probe: &mut P) -> f64 {
    let t = Instant::now();
    let units = probe.step().max(1);
    t.elapsed().as_nanos() as f64 / units as f64
}

/// Entries of the calibration table: 1 MiB, larger than L1 and within
/// L2, like the simulator's hot state.
const CAL_TABLE: usize = 1 << 20;
/// Table steps of one calibration sample (about 4 ms).
const CAL_STEPS: u32 = 200_000;
/// Heap objects one calibration sample builds and drops (about 4 ms).
const CAL_OBJECTS: u64 = 30_000;

/// Seconds one [`Calibrator::sample`] takes at reference speed: its
/// median on the 2-vCPU Xeon VM the perf trajectory in `METRICS.md` was
/// measured on.
pub const REFERENCE_S: f64 = 0.0085;

/// A fixed stand-in for the simulator's own mix of work, timed between
/// the operations of a pass.
///
/// On a shared host the simulator's speed moves by up to 1.6× from one
/// minute to the next, with the load of co-tenants on the same cores and
/// caches. A pure arithmetic loop hardly moves with it. A sample here
/// has two halves that do: a branchy walk over a table of 2-bit
/// counters, whose branches the host cannot predict, which moves less
/// than the simulator; and building and dropping many small heap
/// objects, the way a snapshot builds its value tree, which moves more.
/// Their sum tracked checkpointed simulation within a few percent over
/// 90 s of changing load, where either half alone left 6–20%. It lives
/// in the benchmark, so no change to the program moves it.
pub struct Calibrator {
    table: Vec<u8>,
    state: u64,
}

impl Calibrator {
    /// A calibrator with its table already touched once.
    #[must_use]
    pub fn new() -> Self {
        let mut cal = Self {
            table: vec![0; CAL_TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
        };
        cal.sample();
        cal
    }

    /// Runs both halves once and returns their wall time in seconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.walk());
        black_box(self.churn());
        t.elapsed().as_secs_f64()
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    fn churn(&mut self) -> u64 {
        let mut objects = Vec::new();
        for i in 0..CAL_OBJECTS {
            let x = self.next();
            objects.push(Box::new((x, format!("k{}", x % 1000 + i % 7))));
        }
        objects
            .iter()
            .fold(0, |acc, o| acc.wrapping_add(o.0 ^ o.1.len() as u64))
    }

    fn walk(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        let (mut hist, mut wrong) = (0usize, 0u64);
        for _ in 0..CAL_STEPS {
            let x = self.next();
            let pc = (x >> 24) as usize & 0xfff;
            let i = (pc.wrapping_mul(0x9E37) ^ hist) & mask;
            let ctr = self.table[i];
            let taken = (x & 7) < (pc & 7) as u64;
            if (ctr >= 2) != taken {
                wrong += 1;
            }
            if taken {
                if ctr < 3 {
                    self.table[i] = ctr + 1;
                }
            } else if ctr > 0 {
                self.table[i] = ctr - 1;
            }
            hist = ((hist << 1) | usize::from(taken)) & mask;
        }
        wrong
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

/// Factor that rescales a time measured between two calibration
/// samples to the reference speed: [`REFERENCE_S`] over their mean.
#[must_use]
pub fn speed(before: f64, after: f64) -> f64 {
    REFERENCE_S * 2.0 / (before + after)
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between the two
/// nearest ranks (0 for an empty slice).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting(u64);

    impl Probe for Counting {
        fn step(&mut self) -> u64 {
            self.0 += 1;
            10
        }
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn measure_ratio_alternates_the_two_probes() {
        let (mut a, mut b) = (Counting(0), Counting(0));
        let r = measure_ratio(&mut a, &mut b, Duration::ZERO, 4);
        assert_eq!((a.0, b.0), (4, 4));
        assert!(r > 0.0);
    }

    #[test]
    fn speed_rescales_to_the_reference() {
        assert_eq!(speed(REFERENCE_S, REFERENCE_S), 1.0);
        assert!((speed(1.5 * REFERENCE_S, 2.5 * REFERENCE_S) - 0.5).abs() < 1e-12);
        assert!(Calibrator::new().sample() > 0.0);
    }

    #[test]
    fn measure_runs_at_least_min_reps() {
        let mut p = Counting(0);
        let ns = measure(&mut p, Duration::ZERO, 5);
        assert_eq!(p.0, 5);
        assert!(ns >= 0.0);
    }
}
