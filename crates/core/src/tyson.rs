use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::Snapshot;
use serde::{Deserialize, Serialize};

/// Tyson, Lick & Farrens' pattern-history confidence estimator: keep a
/// per-branch local history register and flag **high confidence** only
/// for a fixed set of strongly regular patterns (all taken, all
/// not-taken, or at most one deviation); every other pattern is low
/// confidence.
///
/// The actual direction needed to maintain the local history is
/// recovered from `predicted_taken XOR mispredicted`.
///
/// # Examples
///
/// ```
/// use perconf_core::{ConfidenceEstimator, EstimateCtx, TysonCe};
///
/// let mut ce = TysonCe::new(10, 8);
/// let ctx = EstimateCtx { pc: 0x40, history: 0, predicted_taken: true };
/// for _ in 0..8 {
///     let est = ce.estimate(&ctx);
///     ce.train(&ctx, est, false); // always taken
/// }
/// assert!(!ce.estimate(&ctx).is_low()); // "all taken" pattern
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TysonCe {
    local_hist: Vec<u16>,
    index_bits: u32,
    hist_bits: u32,
}

impl TysonCe {
    /// Creates an estimator with `2^index_bits` local histories of
    /// `hist_bits` bits each.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=20` or `hist_bits`
    /// outside `2..=16`.
    #[must_use]
    pub fn new(index_bits: u32, hist_bits: u32) -> Self {
        assert!((1..=20).contains(&index_bits), "index bits must be 1..=20");
        assert!(
            (2..=16).contains(&hist_bits),
            "local history bits must be 2..=16"
        );
        Self {
            local_hist: vec![0; 1 << index_bits],
            index_bits,
            hist_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    /// The local pattern currently recorded for `pc`.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> u16 {
        self.local_hist[self.index(pc)]
    }
}

impl Snapshot for TysonCe {
    perconf_bpred::snapshot_serde_body!();
}

impl ConfidenceEstimator for TysonCe {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let pattern = self.pattern(ctx.pc);
        let ones = pattern.count_ones();
        // Deviations from the dominant direction within the window.
        let dev = ones.min(self.hist_bits - ones) as i32;
        let high = dev <= 1;
        Estimate {
            raw: dev,
            class: if high {
                ConfidenceClass::High
            } else {
                ConfidenceClass::WeakLow
            },
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, _est: Estimate, mispredicted: bool) {
        let actual_taken = ctx.predicted_taken != mispredicted;
        let i = self.index(ctx.pc);
        let mask = (1u16 << self.hist_bits) - 1;
        self.local_hist[i] = ((self.local_hist[i] << 1) | u16::from(actual_taken)) & mask;
    }

    fn name(&self) -> &'static str {
        "tyson"
    }

    fn storage_bits(&self) -> u64 {
        self.local_hist.len() as u64 * u64::from(self.hist_bits)
    }
}

impl perconf_bpred::FaultableState for TysonCe {
    fn state_bits(&self) -> u64 {
        self.local_hist.len() as u64 * u64::from(self.hist_bits)
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let bit = bit % self.state_bits();
        let w = u64::from(self.hist_bits);
        // Bits below hist_bits keep the register within its mask.
        self.local_hist[(bit / w) as usize] ^= 1 << (bit % w) as u16;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, predicted_taken: bool) -> EstimateCtx {
        EstimateCtx {
            pc,
            history: 0,
            predicted_taken,
        }
    }

    #[test]
    fn all_not_taken_pattern_is_high_confidence() {
        let mut ce = TysonCe::new(8, 8);
        let c = ctx(0x40, false);
        for _ in 0..8 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false);
        }
        assert_eq!(ce.pattern(0x40), 0);
        assert!(!ce.estimate(&c).is_low());
    }

    #[test]
    fn one_deviation_is_still_high_confidence() {
        let mut ce = TysonCe::new(8, 8);
        let c = ctx(0x40, true);
        for i in 0..8 {
            let est = ce.estimate(&c);
            // One misprediction → one not-taken in an otherwise taken run.
            ce.train(&c, est, i == 3);
        }
        assert_eq!(ce.pattern(0x40).count_ones(), 7);
        assert!(!ce.estimate(&c).is_low());
    }

    #[test]
    fn irregular_pattern_is_low_confidence() {
        let mut ce = TysonCe::new(8, 8);
        let c = ctx(0x80, true);
        for i in 0..8 {
            let est = ce.estimate(&c);
            ce.train(&c, est, i % 2 == 0); // alternating directions
        }
        assert!(ce.estimate(&c).is_low());
        assert!(ce.estimate(&c).raw >= 2);
    }

    #[test]
    fn raw_counts_deviations() {
        let mut ce = TysonCe::new(8, 4);
        let c = ctx(0x10, true);
        // Pattern 0b1010: two of each → dev = 2.
        for taken in [true, false, true, false] {
            let est = ce.estimate(&c);
            ce.train(&c, est, !taken); // predicted_taken=true, so mispredicted = !taken
        }
        assert_eq!(ce.estimate(&c).raw, 2);
    }

    #[test]
    fn storage_bits() {
        assert_eq!(TysonCe::new(10, 10).storage_bits(), 1024 * 10);
    }
}
