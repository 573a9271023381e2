use crate::faultable::FaultableState;
use crate::snapshot::Snapshot;
use crate::traits::BranchPredictor;
use serde::{Deserialize, Serialize};

/// Jimenez–Lin training threshold: θ = ⌊1.93·h + 14⌋ for history
/// length `h`, the empirically optimal value from their HPCA 2001
/// paper.
///
/// # Examples
///
/// ```
/// assert_eq!(perconf_bpred::perceptron_theta(32), 75);
/// ```
#[must_use]
pub fn perceptron_theta(hist_len: u32) -> i32 {
    (1.93 * f64::from(hist_len) + 14.0) as i32
}

/// The Jimenez–Lin perceptron *direction* predictor, trained with
/// taken/not-taken outcomes.
///
/// Each table entry is a perceptron: a bias weight plus one weight per
/// history bit. The prediction is `y >= 0` where
/// `y = w0 + Σ w[i]·x[i]`, with `x[i] = +1` for a taken history bit
/// and `-1` for not-taken.
///
/// This is both a baseline predictor (the §5.2 gshare–perceptron
/// hybrid) and, through [`output`](Self::output), the substrate of the
/// `perceptron_tnt` confidence estimator that the paper argues
/// *against*.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{BranchPredictor, PerceptronPredictor};
///
/// let mut p = PerceptronPredictor::new(64, 16);
/// // Outcome always equals history bit 2:
/// for i in 0..200u64 {
///     let hist = i * 37 % 8;
///     let taken = (hist >> 2) & 1 == 1;
///     p.train(0x40, hist, taken);
/// }
/// assert!(p.predict(0x40, 0b100));
/// assert!(!p.predict(0x40, 0b000));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptronPredictor {
    weights: Vec<i32>,
    entries: u32,
    hist_len: u32,
    weight_min: i32,
    weight_max: i32,
    theta: i32,
}

impl PerceptronPredictor {
    /// Creates a predictor with `entries` perceptrons over `hist_len`
    /// history bits, 8-bit weights, and the standard Jimenez–Lin θ.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0 or `hist_len` is outside `1..=64`.
    #[must_use]
    pub fn new(entries: u32, hist_len: u32) -> Self {
        Self::with_weight_bits(entries, hist_len, 8)
    }

    /// Creates a predictor with explicit weight width in bits (2..=8).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0, `hist_len` outside `1..=64`, or
    /// `weight_bits` outside `2..=8`.
    #[must_use]
    pub fn with_weight_bits(entries: u32, hist_len: u32, weight_bits: u32) -> Self {
        assert!(entries > 0, "need at least one perceptron");
        assert!((1..=64).contains(&hist_len), "history must be 1..=64");
        assert!((2..=8).contains(&weight_bits), "weight bits must be 2..=8");
        let n = (hist_len + 1) as usize * entries as usize;
        Self {
            weights: vec![0; n],
            entries,
            hist_len,
            weight_min: -(1 << (weight_bits - 1)),
            weight_max: (1 << (weight_bits - 1)) - 1,
            theta: perceptron_theta(hist_len),
        }
    }

    fn row(&self, pc: u64) -> usize {
        // Every stock table size is a power of two, where the modulo
        // reduces to a mask — `%` by a non-constant is a hardware
        // divide on the hot lookup path. Non-power-of-two sizes keep
        // the exact modulo semantics.
        let e = u64::from(self.entries);
        let r = if e.is_power_of_two() {
            (pc >> 2) & (e - 1)
        } else {
            (pc >> 2) % e
        };
        r as usize * (self.hist_len + 1) as usize
    }

    /// The raw multi-valued perceptron output `y` for this lookup.
    /// Positive magnitudes far from zero indicate strong agreement of
    /// the correlated history bits.
    #[must_use]
    pub fn output(&self, pc: u64, hist: u64) -> i32 {
        let row = self.row(pc);
        let w = &self.weights[row..row + (self.hist_len + 1) as usize];
        let mut y = w[0]; // bias input is always 1
        for i in 0..self.hist_len as usize {
            let x = if (hist >> i) & 1 == 1 { 1 } else { -1 };
            y += w[i + 1] * x;
        }
        y
    }

    /// History length in bits.
    #[must_use]
    pub fn hist_len(&self) -> u32 {
        self.hist_len
    }

    /// The training threshold θ in use.
    #[must_use]
    pub fn theta(&self) -> i32 {
        self.theta
    }
}

impl BranchPredictor for PerceptronPredictor {
    fn predict(&self, pc: u64, hist: u64) -> bool {
        self.output(pc, hist) >= 0
    }

    fn train(&mut self, pc: u64, hist: u64, taken: bool) {
        let y = self.output(pc, hist);
        let t: i32 = if taken { 1 } else { -1 };
        let predicted_taken = y >= 0;
        if predicted_taken != taken || y.abs() <= self.theta {
            let row = self.row(pc);
            let n = (self.hist_len + 1) as usize;
            let w = &mut self.weights[row..row + n];
            w[0] = (w[0] + t).clamp(self.weight_min, self.weight_max);
            for i in 0..self.hist_len as usize {
                let x = if (hist >> i) & 1 == 1 { 1 } else { -1 };
                w[i + 1] = (w[i + 1] + t * x).clamp(self.weight_min, self.weight_max);
            }
        }
    }

    fn name(&self) -> &'static str {
        "perceptron"
    }

    fn storage_bits(&self) -> u64 {
        // weight_max + 1 is a power of two = 2^(bits-1)
        let bits = (32 - (self.weight_max as u32 + 1).leading_zeros()) as u64;
        self.weights.len() as u64 * bits
    }
}

/// Flips bit `b` of the `width`-bit two's-complement encoding of `w`.
/// The result always lies in `[-2^(width-1), 2^(width-1) - 1]`, so a
/// fault can never push a clamped weight out of its physical range.
/// Shared by every perceptron-family [`FaultableState`] impl (here and
/// in the confidence estimators).
#[must_use]
pub fn flip_weight_bit(w: i32, width: u32, b: u32) -> i32 {
    let mask = (1i64 << width) - 1;
    let raw = (i64::from(w) & mask) ^ (1i64 << b);
    let value = if raw & (1i64 << (width - 1)) != 0 {
        raw | !mask
    } else {
        raw
    };
    value as i32
}

impl FaultableState for PerceptronPredictor {
    fn state_bits(&self) -> u64 {
        let bits = u64::from(32 - (self.weight_max as u32 + 1).leading_zeros());
        self.weights.len() as u64 * bits
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let width = 32 - (self.weight_max as u32 + 1).leading_zeros();
        let bit = bit % self.state_bits();
        let idx = (bit / u64::from(width)) as usize;
        let b = (bit % u64::from(width)) as u32;
        self.weights[idx] = flip_weight_bit(self.weights[idx], width, b);
    }
}

impl Snapshot for PerceptronPredictor {
    crate::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_matches_jimenez_lin_formula() {
        assert_eq!(perceptron_theta(16), 44);
        assert_eq!(perceptron_theta(32), 75);
    }

    #[test]
    fn learns_biased_branch_via_bias_weight() {
        let mut p = PerceptronPredictor::new(16, 8);
        for h in 0..100u64 {
            p.train(0x40, h * 13 % 256, true);
        }
        for h in [0u64, 5, 77, 255] {
            assert!(p.predict(0x40, h));
        }
    }

    #[test]
    fn learns_linear_history_correlation() {
        let mut p = PerceptronPredictor::new(16, 8);
        // taken = history bit 1 (direct correlation)
        for i in 0..300u64 {
            let hist = i.wrapping_mul(0x9E37) % 256;
            p.train(0x80, hist, (hist >> 1) & 1 == 1);
        }
        let mut correct = 0;
        for i in 0..64u64 {
            let hist = i * 4 + 2; // bit1 set
            if p.predict(0x80, hist) {
                correct += 1;
            }
            let hist = i * 4; // bit1 clear
            if !p.predict(0x80, hist) {
                correct += 1;
            }
        }
        assert!(correct >= 120, "correct={correct}/128");
    }

    #[test]
    fn cannot_learn_xor() {
        // XOR of two history bits is not linearly separable; accuracy
        // should hover near 50%.
        let mut p = PerceptronPredictor::new(16, 8);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..2000u64 {
            let hist = i.wrapping_mul(0x9E37_79B9) % 256;
            let taken = ((hist ^ (hist >> 3)) & 1) == 1;
            if i > 500 {
                total += 1;
                if p.predict(0x40, hist) == taken {
                    correct += 1;
                }
            }
            p.train(0x40, hist, taken);
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc < 0.65, "accuracy {acc} unexpectedly high for XOR");
    }

    #[test]
    fn weights_stay_in_range() {
        let mut p = PerceptronPredictor::with_weight_bits(4, 8, 4);
        for i in 0..5000u64 {
            p.train(0x40, i % 256, true);
        }
        assert!(p.weights.iter().all(|&w| (-8..=7).contains(&w)));
    }

    #[test]
    fn output_magnitude_grows_with_training() {
        let mut p = PerceptronPredictor::new(4, 8);
        let y0 = p.output(0x40, 0).abs();
        for _ in 0..50 {
            p.train(0x40, 0, true);
        }
        assert!(p.output(0x40, 0).abs() > y0);
    }

    #[test]
    fn storage_bits_counts_weights() {
        let p = PerceptronPredictor::new(128, 32);
        assert_eq!(p.storage_bits(), 128 * 33 * 8);
    }
}
