//! Perceptron-based branch confidence estimation — the primary
//! contribution of *Akkary et al., HPCA 2004* — together with every
//! prior estimator the paper compares against and the speculation-
//! control policies it drives.
//!
//! # The idea
//!
//! A **confidence estimator** watches each conditional-branch
//! prediction at fetch and classifies it *high confidence* (probably
//! correct) or *low confidence* (probably wrong). The paper's
//! estimator, [`PerceptronCe`], keeps an array of perceptrons indexed
//! by branch PC whose inputs are the global branch history; crucially
//! it is trained with **correct/incorrect prediction outcomes**
//! (`perceptron_cic`) rather than the taken/not-taken directions used
//! by the Jimenez–Lin predictor ([`PerceptronTnt`] reproduces that
//! alternative for comparison). The multi-valued output `y` then
//! separates branches into three regions (Figure 5):
//!
//! * `y` **above the reversal threshold** → *strongly low confident* —
//!   most such predictions are wrong, so **reverse** them
//!   ([`ConfidenceClass::StrongLow`]);
//! * `y` **in the gating band** → *weakly low confident* — apply
//!   **pipeline gating**: stall fetch once [`GateCounter`] sees enough
//!   unresolved low-confidence branches ([`ConfidenceClass::WeakLow`]);
//! * `y` **below the band** → high confidence; speculate freely.
//!
//! # Estimators implemented
//!
//! | Type | Scheme | Paper role |
//! |---|---|---|
//! | [`PerceptronCe`] | perceptron trained correct/incorrect | the contribution (`perceptron_cic`) |
//! | [`PerceptronTnt`] | confidence from a direction-trained perceptron's `abs(y)` | §5.3 straw man |
//! | [`JrsEstimator`] | miss-distance resetting counters (original and *enhanced* indexing) | best prior work |
//! | [`SmithCe`] | predictor saturating-counter extremeness | prior work |
//! | [`TysonCe`] | PAs local-history pattern classes | prior work |
//!
//! # Examples
//!
//! ```
//! use perconf_core::{ConfidenceEstimator, EstimateCtx, PerceptronCe, PerceptronCeConfig};
//!
//! let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
//! let ctx = EstimateCtx { pc: 0x40_0000, history: 0b1101, predicted_taken: true };
//! let est = ce.estimate(&ctx);
//! // ... branch retires; its prediction turned out correct:
//! ce.train(&ctx, est, false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod composite;
mod controller;
mod estimate;
mod faultable;
mod gating;
mod jrs;
mod perceptron_ce;
mod smith;
mod tnt;
mod tyson;

pub use composite::{CombineRule, CompositeCe};
pub use controller::{BranchDecision, SpeculationController, TrainOutcome};
pub use estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx, SimEstimator};
pub use faultable::FaultableEstimator;
pub use gating::GateCounter;
pub use jrs::{JrsConfig, JrsEstimator, MissPolicy};
pub use perceptron_ce::{PerceptronCe, PerceptronCeConfig};
pub use smith::SmithCe;
pub use tnt::{PerceptronTnt, PerceptronTntConfig};
pub use tyson::TysonCe;

/// An estimator that flags every branch high confidence; with gating
/// enabled it therefore never stalls fetch. Useful as the control arm
/// in experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysHigh;

impl perconf_bpred::FaultableState for AlwaysHigh {
    fn state_bits(&self) -> u64 {
        0
    }

    fn flip_state_bit(&mut self, _bit: u64) {}
}

impl perconf_bpred::Snapshot for AlwaysHigh {
    fn save_state(&self) -> serde::Value {
        serde::Value::Null
    }

    fn restore_state(&mut self, _state: &serde::Value) -> Result<(), perconf_bpred::SnapshotError> {
        Ok(())
    }
}

impl ConfidenceEstimator for AlwaysHigh {
    fn estimate(&self, _ctx: &EstimateCtx) -> Estimate {
        Estimate {
            raw: i32::MIN / 2,
            class: ConfidenceClass::High,
        }
    }

    fn train(&mut self, _ctx: &EstimateCtx, _est: Estimate, _mispredicted: bool) {}

    fn name(&self) -> &'static str {
        "always-high"
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_high_never_flags() {
        let ce = AlwaysHigh;
        let ctx = EstimateCtx {
            pc: 0,
            history: 0,
            predicted_taken: true,
        };
        assert_eq!(ce.estimate(&ctx).class, ConfidenceClass::High);
        assert!(!ce.estimate(&ctx).is_low());
    }
}
