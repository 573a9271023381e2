use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{BranchPredictor, Snapshot, SnapshotError};
use serde::{Deserialize, Serialize, Value};

/// The front-end decision for one fetched branch: the (possibly
/// reversed) direction the pipeline will speculate down, plus
/// everything needed to train both structures at retirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchDecision {
    /// Lookup context (pc, history snapshot, base prediction).
    pub ctx: EstimateCtx,
    /// Confidence assigned at fetch.
    pub estimate: Estimate,
    /// Direction actually speculated: the base prediction, reversed
    /// when the estimate was [`ConfidenceClass::StrongLow`].
    pub speculated_taken: bool,
}

impl BranchDecision {
    /// Returns `true` when the prediction was reversed.
    #[must_use]
    pub fn reversed(&self) -> bool {
        self.speculated_taken != self.ctx.predicted_taken
    }

    /// Returns `true` if this branch counts toward the gating counter
    /// (weakly low confident only: strongly-low branches are reversed
    /// instead of gated in the combined scheme).
    #[must_use]
    pub fn gates(&self) -> bool {
        self.estimate.class == ConfidenceClass::WeakLow
    }
}

/// Outcome of retiring one branch through the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// Whether the *underlying predictor* was wrong (what the
    /// estimator is trained on and what PVN/Spec measure).
    pub base_mispredicted: bool,
    /// Whether the direction actually speculated was wrong (what the
    /// pipeline pays for). Differs from `base_mispredicted` exactly
    /// when the prediction was reversed.
    pub speculated_mispredicted: bool,
}

/// Combines a branch predictor and a confidence estimator into the
/// single front-end structure the paper describes: predict, estimate
/// confidence, optionally reverse, and (at retirement) train both.
///
/// Reversal applies when the estimator classifies the prediction
/// [`ConfidenceClass::StrongLow`]; with a binary estimator
/// configuration that class never occurs and the controller reduces to
/// plain prediction + confidence.
///
/// The estimator is always trained with the **base** prediction's
/// correctness — the estimator and reverser are one hardware structure
/// observing the unreversed predictor, which is what lets a single
/// array serve both purposes (paper §5.3).
///
/// # Examples
///
/// ```
/// use perconf_bpred::baseline_bimodal_gshare;
/// use perconf_core::{PerceptronCe, PerceptronCeConfig, SpeculationController};
///
/// let mut ctl = SpeculationController::new(
///     baseline_bimodal_gshare(),
///     PerceptronCe::new(PerceptronCeConfig::combined()),
/// );
/// let d = ctl.decide(0x40_0000, 0b1011);
/// let _ = ctl.train(&d, /* actual_taken = */ true);
/// ```
#[derive(Debug, Clone)]
pub struct SpeculationController<P, C> {
    predictor: P,
    estimator: C,
}

impl<P: BranchPredictor, C: ConfidenceEstimator> SpeculationController<P, C> {
    /// Combines `predictor` and `estimator`.
    #[must_use]
    pub fn new(predictor: P, estimator: C) -> Self {
        Self {
            predictor,
            estimator,
        }
    }

    /// The underlying predictor.
    #[must_use]
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// The underlying estimator.
    #[must_use]
    pub fn estimator(&self) -> &C {
        &self.estimator
    }

    /// Fetch-stage lookup: predict the branch at `pc` under `history`,
    /// estimate confidence, and apply reversal if warranted.
    #[must_use]
    pub fn decide(&self, pc: u64, history: u64) -> BranchDecision {
        let predicted_taken = self.predictor.predict(pc, history);
        let ctx = EstimateCtx {
            pc,
            history,
            predicted_taken,
        };
        let estimate = self.estimator.estimate(&ctx);
        let speculated_taken = if estimate.class == ConfidenceClass::StrongLow {
            !predicted_taken
        } else {
            predicted_taken
        };
        BranchDecision {
            ctx,
            estimate,
            speculated_taken,
        }
    }

    /// Retirement-stage training with the architectural outcome.
    pub fn train(&mut self, decision: &BranchDecision, actual_taken: bool) -> TrainOutcome {
        let base_mispredicted = decision.ctx.predicted_taken != actual_taken;
        let speculated_mispredicted = decision.speculated_taken != actual_taken;
        self.predictor
            .train(decision.ctx.pc, decision.ctx.history, actual_taken);
        self.estimator
            .train(&decision.ctx, decision.estimate, base_mispredicted);
        TrainOutcome {
            base_mispredicted,
            speculated_mispredicted,
        }
    }
}

/// Snapshotting delegates to the two components rather than
/// serializing the whole struct: the controller is routinely
/// instantiated over boxed trait objects (`Box<dyn SimPredictor>`),
/// which cannot be rebuilt from a value tree — but an existing
/// instance can restore each component in place.
impl<P: Snapshot, C: Snapshot> Snapshot for SpeculationController<P, C> {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("predictor".into(), self.predictor.save_state()),
            ("estimator".into(), self.estimator.save_state()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        let get = |name: &str| {
            if let Value::Object(fields) = state {
                fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
            } else {
                None
            }
        };
        let p = get("predictor")
            .ok_or_else(|| SnapshotError::msg("controller snapshot missing `predictor`"))?;
        let e = get("estimator")
            .ok_or_else(|| SnapshotError::msg("controller snapshot missing `estimator`"))?;
        self.predictor.restore_state(p)?;
        self.estimator.restore_state(e)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysHigh, PerceptronCe, PerceptronCeConfig};
    use perconf_bpred::Bimodal;

    #[test]
    fn no_reversal_without_strong_low() {
        let ctl = SpeculationController::new(Bimodal::new(8), AlwaysHigh);
        let d = ctl.decide(0x40, 0);
        assert!(!d.reversed());
        assert_eq!(d.speculated_taken, d.ctx.predicted_taken);
        assert!(!d.gates());
    }

    #[test]
    fn strong_low_reverses_the_prediction() {
        // Train the CE to flag this context strongly low.
        let mut ce = PerceptronCe::new(PerceptronCeConfig::combined());
        let ctx = EstimateCtx {
            pc: 0x40,
            history: 0,
            predicted_taken: false,
        };
        for _ in 0..60 {
            let est = ce.estimate(&ctx);
            ce.train(&ctx, est, true);
        }
        let ctl = SpeculationController::new(Bimodal::new(8), ce);
        let d = ctl.decide(0x40, 0);
        assert_eq!(d.estimate.class, ConfidenceClass::StrongLow);
        assert!(d.reversed());
        assert!(!d.gates(), "reversed branches do not gate");
    }

    #[test]
    fn train_outcome_distinguishes_base_and_speculated() {
        let mut ce = PerceptronCe::new(PerceptronCeConfig::combined());
        let ctx = EstimateCtx {
            pc: 0x40,
            history: 0,
            predicted_taken: false,
        };
        for _ in 0..60 {
            let est = ce.estimate(&ctx);
            ce.train(&ctx, est, true);
        }
        let mut ctl = SpeculationController::new(Bimodal::new(8), ce);
        let d = ctl.decide(0x40, 0);
        assert!(d.reversed());
        // Bimodal initialised weakly not-taken → base prediction false.
        // Actual outcome true → base mispredicted, reversal fixed it.
        let out = ctl.train(&d, true);
        assert!(out.base_mispredicted);
        assert!(!out.speculated_mispredicted);
    }

    #[test]
    fn training_reaches_the_predictor() {
        let mut ctl = SpeculationController::new(Bimodal::new(8), AlwaysHigh);
        for _ in 0..4 {
            let d = ctl.decide(0x80, 0);
            ctl.train(&d, true);
        }
        assert!(ctl.predictor().predict(0x80, 0));
    }
}
