use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{BranchPredictor, FaultableState, PerceptronPredictor, Snapshot};
use serde::{Deserialize, Serialize};

/// Configuration of [`PerceptronTnt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PerceptronTntConfig {
    /// Number of perceptrons (default 128, matching the cic array).
    pub entries: u32,
    /// History length (default 32).
    pub hist_len: u32,
    /// Confidence threshold on `|y|`: predictions with `|y| <= lambda`
    /// are flagged low confidence.
    pub lambda: i32,
}

impl Default for PerceptronTntConfig {
    fn default() -> Self {
        Self {
            entries: 128,
            hist_len: 32,
            lambda: 30,
        }
    }
}

/// The Jimenez–Lin suggestion the paper argues against (§5.3): derive
/// confidence from a **direction-trained** perceptron by how close its
/// output is to zero (`perceptron_tnt`).
///
/// The embedded [`PerceptronPredictor`] is trained with taken/not-taken
/// outcomes; a prediction is flagged low confidence when `|y|` falls at
/// or below λ. [`Estimate::raw`] is reported as `lambda - |y|` so that
/// larger raw = less confident, uniform with the other estimators.
///
/// Figures 6–7 show why this fails: correctly predicted branches
/// outnumber mispredicted ones at *every* output magnitude, so no
/// threshold achieves both useful coverage and accuracy.
///
/// The actual branch direction needed for training is recovered from
/// `ctx.predicted_taken XOR mispredicted`.
///
/// # Examples
///
/// ```
/// use perconf_core::{ConfidenceEstimator, EstimateCtx, PerceptronTnt, PerceptronTntConfig};
///
/// let mut ce = PerceptronTnt::new(PerceptronTntConfig::default());
/// let ctx = EstimateCtx { pc: 0x40, history: 0, predicted_taken: true };
/// assert!(ce.estimate(&ctx).is_low()); // untrained: |y| = 0 <= λ
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptronTnt {
    predictor: PerceptronPredictor,
    cfg: PerceptronTntConfig,
}

impl PerceptronTnt {
    /// Creates an estimator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0` or `hist_len` is outside `1..=64`.
    #[must_use]
    pub fn new(cfg: PerceptronTntConfig) -> Self {
        Self {
            predictor: PerceptronPredictor::new(cfg.entries, cfg.hist_len),
            cfg,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PerceptronTntConfig {
        &self.cfg
    }

    /// The signed direction-perceptron output for this lookup (the
    /// quantity plotted in Figures 6–7).
    #[must_use]
    pub fn output(&self, pc: u64, hist: u64) -> i32 {
        self.predictor.output(pc, hist)
    }
}

impl FaultableState for PerceptronTnt {
    fn state_bits(&self) -> u64 {
        self.predictor.state_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) {
        self.predictor.flip_state_bit(bit);
    }
}

impl Snapshot for PerceptronTnt {
    perconf_bpred::snapshot_serde_body!();
}

impl ConfidenceEstimator for PerceptronTnt {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let y = self.predictor.output(ctx.pc, ctx.history);
        let low = y.abs() <= self.cfg.lambda;
        Estimate {
            raw: self.cfg.lambda - y.abs(),
            class: if low {
                ConfidenceClass::WeakLow
            } else {
                ConfidenceClass::High
            },
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, _est: Estimate, mispredicted: bool) {
        let actual_taken = ctx.predicted_taken != mispredicted;
        self.predictor.train(ctx.pc, ctx.history, actual_taken);
    }

    fn name(&self) -> &'static str {
        "perceptron-tnt"
    }

    fn storage_bits(&self) -> u64 {
        self.predictor.storage_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, history: u64, predicted_taken: bool) -> EstimateCtx {
        EstimateCtx {
            pc,
            history,
            predicted_taken,
        }
    }

    #[test]
    fn strongly_biased_branch_becomes_high_confidence() {
        let mut ce = PerceptronTnt::new(PerceptronTntConfig::default());
        let c = ctx(0x40, 0, true);
        for _ in 0..100 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false); // predicted taken, was taken
        }
        assert!(!ce.estimate(&c).is_low());
        assert!(ce.output(0x40, 0) > 30);
    }

    #[test]
    fn training_recovers_actual_direction() {
        let mut ce = PerceptronTnt::new(PerceptronTntConfig::default());
        // Predicted taken but always mispredicted → actual is not-taken;
        // the direction perceptron should drift negative.
        let c = ctx(0x80, 0, true);
        for _ in 0..100 {
            let est = ce.estimate(&c);
            ce.train(&c, est, true);
        }
        assert!(ce.output(0x80, 0) < -30);
        // Direction is stable, so |y| is large → high confidence, even
        // though the *predictor being estimated* keeps missing. This is
        // exactly the failure mode the paper identifies.
        assert!(!ce.estimate(&c).is_low());
    }

    #[test]
    fn alternating_outcomes_stay_low_confidence() {
        let mut ce = PerceptronTnt::new(PerceptronTntConfig::default());
        // With a fixed (zero) history snapshot, alternation is
        // unlearnable and y hovers near 0.
        let c = ctx(0x100, 0, true);
        for i in 0..100 {
            let est = ce.estimate(&c);
            ce.train(&c, est, i % 2 == 0);
        }
        assert!(ce.estimate(&c).is_low());
    }

    #[test]
    fn raw_increases_as_output_approaches_zero() {
        let mut ce = PerceptronTnt::new(PerceptronTntConfig::default());
        let c = ctx(0x40, 0, true);
        let raw_untrained = ce.estimate(&c).raw;
        for _ in 0..50 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false);
        }
        assert!(ce.estimate(&c).raw < raw_untrained);
    }

    #[test]
    fn storage_matches_embedded_predictor() {
        let ce = PerceptronTnt::new(PerceptronTntConfig::default());
        assert_eq!(ce.storage_bits(), 128 * 33 * 8);
    }
}
