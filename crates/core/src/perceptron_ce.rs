use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{flip_weight_bit, FaultableState, Snapshot};
use serde::{Deserialize, Serialize};

/// Configuration of the paper's perceptron confidence estimator.
///
/// The default is the paper's 4 KB `P128W8H32` design point: 128
/// perceptrons, 8-bit weights, 32 bits of global history, binary
/// threshold λ = 0 and no reversal region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PerceptronCeConfig {
    /// Number of perceptrons in the array (paper default 128).
    pub entries: u32,
    /// Global-history length = number of non-bias weights (paper 32).
    pub hist_len: u32,
    /// Weight width in bits (paper 8; Table 6 sweeps 4 and 6).
    pub weight_bits: u32,
    /// Low-confidence threshold λ: output `>= lambda` → low confidence
    /// (paper sweeps 25, 0, −25, −50; the combined reversal+gating
    /// experiments use −75).
    pub lambda: i32,
    /// Training threshold `T`: the perceptron keeps training while
    /// `|y| <= T` even when its classification was right.
    pub train_threshold: i32,
    /// Reversal threshold: when `Some(r)`, outputs `> r` are
    /// classified [`ConfidenceClass::StrongLow`] (paper §5.5 uses 0).
    pub reverse_lambda: Option<i32>,
}

impl Default for PerceptronCeConfig {
    fn default() -> Self {
        Self {
            entries: 128,
            hist_len: 32,
            weight_bits: 8,
            lambda: 0,
            train_threshold: 75,
            reverse_lambda: None,
        }
    }
}

impl PerceptronCeConfig {
    /// The combined pipeline-gating + branch-reversal configuration
    /// (paper §5.5). The paper reverses above 0 and gates in
    /// `[-75, 0]` — thresholds read off *their* Figure 5 density
    /// crossover and tuned empirically for zero average loss. Applying
    /// the same methodology to our substrate's densities (crossover at
    /// +30, retirement-lag safety margin above it) yields: reverse
    /// above 90, gate in `[-30, 90]`, high confidence below −30. See
    /// EXPERIMENTS.md for the tuning sweep.
    #[must_use]
    pub fn combined() -> Self {
        Self {
            lambda: -30,
            reverse_lambda: Some(90),
            ..Self::default()
        }
    }

    /// A named size/shape point in the paper's Table 6 notation,
    /// e.g. `P128W8H32`.
    #[must_use]
    pub fn sized(entries: u32, weight_bits: u32, hist_len: u32) -> Self {
        Self {
            entries,
            weight_bits,
            hist_len,
            ..Self::default()
        }
    }

    /// Table 6 label for this configuration, e.g. `"P128W8H32"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("P{}W{}H{}", self.entries, self.weight_bits, self.hist_len)
    }
}

/// The paper's contribution: a perceptron confidence estimator trained
/// with **correct/incorrect** prediction outcomes (`perceptron_cic`).
///
/// An array of perceptrons is indexed by branch PC; the input vector is
/// the global branch history (taken = +1, not-taken = −1) plus a
/// constant bias input. The multi-valued output
/// `y = w0 + Σ w[i]·x[i]` estimates how *mispredictable* the branch is
/// in this history context:
///
/// * `y >= λ` → **low confidence** (and when a reversal threshold is
///   configured, `y > r` → *strongly* low → reverse the prediction);
/// * `y < λ` → high confidence.
///
/// Training (paper §3) happens at retirement. With `p = +1` for a
/// misprediction and `-1` for a correct prediction, and `c = ±1` the
/// confidence assigned at fetch, the weights are updated by
/// `w[i] += p·x[i]` whenever `sign(c) != sign(p)` (the estimator was
/// wrong) or `|y| <= T` (it was right but not yet confident). Because
/// mispredictions are rare, the outputs of predictable branches drift
/// strongly negative, producing the separated CB/MB densities of
/// Figure 4.
///
/// # Examples
///
/// ```
/// use perconf_core::{ConfidenceEstimator, EstimateCtx, PerceptronCe, PerceptronCeConfig};
///
/// let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
/// let ctx = EstimateCtx { pc: 0x40, history: 0b1, predicted_taken: true };
/// // The branch mispredicts whenever history bit 0 is set; after
/// // training, confidence in that context should be low.
/// for _ in 0..40 {
///     let est = ce.estimate(&ctx);
///     ce.train(&ctx, est, true);
/// }
/// assert!(ce.estimate(&ctx).is_low());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptronCe {
    weights: Vec<i32>,
    cfg: PerceptronCeConfig,
    weight_min: i32,
    weight_max: i32,
}

impl PerceptronCe {
    /// Creates an estimator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `entries == 0`, `hist_len` is outside `1..=64`,
    /// `weight_bits` is outside `2..=8`, or a configured
    /// `reverse_lambda` lies below `lambda` (the reversal region must
    /// sit above the gating band).
    #[must_use]
    pub fn new(cfg: PerceptronCeConfig) -> Self {
        assert!(cfg.entries > 0, "need at least one perceptron");
        assert!(
            cfg.hist_len >= 1 && cfg.hist_len <= 64,
            "history must be 1..=64"
        );
        assert!(
            cfg.weight_bits >= 2 && cfg.weight_bits <= 8,
            "weight bits must be 2..=8"
        );
        if let Some(r) = cfg.reverse_lambda {
            assert!(
                r >= cfg.lambda,
                "reversal threshold must not be below the low-confidence threshold"
            );
        }
        let n = (cfg.hist_len + 1) as usize * cfg.entries as usize;
        Self {
            weights: vec![0; n],
            weight_min: -(1 << (cfg.weight_bits - 1)),
            weight_max: (1 << (cfg.weight_bits - 1)) - 1,
            cfg,
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PerceptronCeConfig {
        &self.cfg
    }

    fn row(&self, pc: u64) -> usize {
        // Power-of-two table sizes (every stock config) index with a
        // mask instead of a hardware divide; other sizes keep the
        // exact modulo semantics.
        let e = u64::from(self.cfg.entries);
        let r = if e.is_power_of_two() {
            (pc >> 2) & (e - 1)
        } else {
            (pc >> 2) % e
        };
        r as usize * (self.cfg.hist_len + 1) as usize
    }

    /// The raw multi-valued output `y` for this lookup — the quantity
    /// whose density Figures 4–7 plot.
    #[must_use]
    pub fn output(&self, pc: u64, hist: u64) -> i32 {
        let row = self.row(pc);
        let w = &self.weights[row..row + (self.cfg.hist_len + 1) as usize];
        let mut y = w[0];
        for i in 0..self.cfg.hist_len as usize {
            let x = if (hist >> i) & 1 == 1 { 1 } else { -1 };
            y += w[i + 1] * x;
        }
        y
    }

    fn classify(&self, y: i32) -> ConfidenceClass {
        if let Some(r) = self.cfg.reverse_lambda {
            if y > r {
                return ConfidenceClass::StrongLow;
            }
        }
        if y >= self.cfg.lambda {
            ConfidenceClass::WeakLow
        } else {
            ConfidenceClass::High
        }
    }
}

impl FaultableState for PerceptronCe {
    fn state_bits(&self) -> u64 {
        self.weights.len() as u64 * u64::from(self.cfg.weight_bits)
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let w = u64::from(self.cfg.weight_bits);
        let bit = bit % self.state_bits();
        let idx = (bit / w) as usize;
        self.weights[idx] =
            flip_weight_bit(self.weights[idx], self.cfg.weight_bits, (bit % w) as u32);
    }
}

impl Snapshot for PerceptronCe {
    perconf_bpred::snapshot_serde_body!();
}

impl ConfidenceEstimator for PerceptronCe {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let y = self.output(ctx.pc, ctx.history);
        Estimate {
            raw: y,
            class: self.classify(y),
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, est: Estimate, mispredicted: bool) {
        // Paper §3: p = +1 for an incorrect prediction, −1 for correct;
        // c = +1 when the front end flagged low confidence, −1 for high.
        let p: i32 = if mispredicted { 1 } else { -1 };
        let c: i32 = if est.is_low() { 1 } else { -1 };
        let y = est.raw;
        if c != p || y.abs() <= self.cfg.train_threshold {
            let row = self.row(ctx.pc);
            let n = (self.cfg.hist_len + 1) as usize;
            let w = &mut self.weights[row..row + n];
            w[0] = (w[0] + p).clamp(self.weight_min, self.weight_max);
            for i in 0..self.cfg.hist_len as usize {
                let x = if (ctx.history >> i) & 1 == 1 { 1 } else { -1 };
                w[i + 1] = (w[i + 1] + p * x).clamp(self.weight_min, self.weight_max);
            }
        }
    }

    fn name(&self) -> &'static str {
        "perceptron-cic"
    }

    fn storage_bits(&self) -> u64 {
        self.weights.len() as u64 * u64::from(self.cfg.weight_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(pc: u64, history: u64) -> EstimateCtx {
        EstimateCtx {
            pc,
            history,
            predicted_taken: true,
        }
    }

    #[test]
    fn default_is_the_papers_4kb_design_point() {
        let ce = PerceptronCe::new(PerceptronCeConfig::default());
        assert_eq!(ce.storage_bits(), 128 * 33 * 8);
        // The paper calls the array "4KB"; with the bias weight it is
        // 4.125 KB — within 4% of the JRS table.
        assert!((ce.storage_bits() as i64 - 4 * 1024 * 8).abs() < 1500);
        assert_eq!(ce.config().label(), "P128W8H32");
    }

    #[test]
    fn outputs_drift_negative_on_correct_predictions() {
        let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
        let c = ctx(0x40, 0b1010);
        for _ in 0..60 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false);
        }
        assert!(ce.output(0x40, 0b1010) < -14);
        assert!(!ce.estimate(&c).is_low());
    }

    #[test]
    fn outputs_drift_positive_on_mispredictions() {
        let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
        let c = ctx(0x40, 0);
        for _ in 0..60 {
            let est = ce.estimate(&c);
            ce.train(&c, est, true);
        }
        assert!(ce.output(0x40, 0) > 14);
        assert!(ce.estimate(&c).is_low());
    }

    #[test]
    fn learns_history_correlated_mispredictability() {
        // Mispredicted iff history bit 3 set — a linearly separable
        // target the CE must learn.
        let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
        for i in 0..2000u64 {
            let h = i.wrapping_mul(0x9E37_79B9) & 0xFFFF;
            let c = ctx(0x80, h);
            let est = ce.estimate(&c);
            ce.train(&c, est, (h >> 3) & 1 == 1);
        }
        let mut correct = 0;
        for i in 0..200u64 {
            let h = i.wrapping_mul(0x5851_F42D) & 0xFFFF;
            let want_low = (h >> 3) & 1 == 1;
            if ce.estimate(&ctx(0x80, h)).is_low() == want_low {
                correct += 1;
            }
        }
        assert!(correct > 170, "correct={correct}/200");
    }

    #[test]
    fn lambda_shifts_the_low_confidence_region() {
        let mut strict = PerceptronCe::new(PerceptronCeConfig {
            lambda: 25,
            ..PerceptronCeConfig::default()
        });
        let mut loose = PerceptronCe::new(PerceptronCeConfig {
            lambda: -50,
            ..PerceptronCeConfig::default()
        });
        // Untrained output is 0: low under λ=-50, high under λ=25.
        let c = ctx(0x10, 0);
        assert!(!strict.estimate(&c).is_low());
        assert!(loose.estimate(&c).is_low());
        // Keep both trained with the same mild misprediction stream.
        for _ in 0..3 {
            let es = strict.estimate(&c);
            strict.train(&c, es, true);
            let el = loose.estimate(&c);
            loose.train(&c, el, true);
        }
        assert!(loose.estimate(&c).is_low());
    }

    #[test]
    fn combined_config_produces_three_classes() {
        let ce = PerceptronCe::new(PerceptronCeConfig::combined());
        assert_eq!(ce.classify(120), ConfidenceClass::StrongLow);
        assert_eq!(ce.classify(0), ConfidenceClass::WeakLow);
        assert_eq!(ce.classify(-30), ConfidenceClass::WeakLow);
        assert_eq!(ce.classify(-31), ConfidenceClass::High);
    }

    #[test]
    fn training_stops_outside_threshold_when_classification_correct() {
        let mut ce = PerceptronCe::new(PerceptronCeConfig {
            train_threshold: 10,
            ..PerceptronCeConfig::default()
        });
        let c = ctx(0x40, 0);
        // Drive output well below -10 with correct predictions.
        for _ in 0..40 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false);
        }
        let settled = ce.output(0x40, 0);
        // Further correct predictions no longer change the weights:
        // classification is right (High) and |y| > T.
        let est = ce.estimate(&c);
        ce.train(&c, est, false);
        assert_eq!(ce.output(0x40, 0), settled);
    }

    #[test]
    fn weights_clamp_to_configured_width() {
        let mut ce = PerceptronCe::new(PerceptronCeConfig {
            weight_bits: 4,
            ..PerceptronCeConfig::default()
        });
        let c = ctx(0x40, 0x55);
        for _ in 0..200 {
            let est = ce.estimate(&c);
            ce.train(&c, est, true);
        }
        assert!(ce.weights.iter().all(|&w| (-8..=7).contains(&w)));
    }

    #[test]
    fn sized_constructor_matches_table6_labels() {
        for (e, w, h) in [(128, 8, 32), (96, 8, 32), (128, 6, 32), (64, 8, 32)] {
            let cfg = PerceptronCeConfig::sized(e, w, h);
            assert_eq!(cfg.label(), format!("P{e}W{w}H{h}"));
            let ce = PerceptronCe::new(cfg);
            assert_eq!(
                ce.storage_bits(),
                u64::from(e) * u64::from(h + 1) * u64::from(w)
            );
        }
    }

    #[test]
    #[should_panic(expected = "reversal threshold")]
    fn reversal_below_lambda_panics() {
        let _ = PerceptronCe::new(PerceptronCeConfig {
            lambda: 0,
            reverse_lambda: Some(-10),
            ..PerceptronCeConfig::default()
        });
    }
}
