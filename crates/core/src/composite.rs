use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{Snapshot, SnapshotError};
use serde::{DeError, Deserialize, Serialize, Value};

/// How a [`CompositeCe`] merges its two components' classifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CombineRule {
    /// Flag low confidence only when **both** components do —
    /// trades coverage for accuracy (higher PVN, lower Spec).
    Both,
    /// Flag low confidence when **either** component does —
    /// trades accuracy for coverage (higher Spec, lower PVN).
    Either,
}

/// Combines two confidence estimators with a boolean rule — an
/// extension the estimator-design space naturally suggests: the
/// JRS estimator is coverage-heavy, the perceptron accuracy-heavy, so
/// `Both` builds an estimator more accurate than either alone and
/// `Either` one with more coverage than either alone.
///
/// The composite's [`Estimate::raw`] is the first component's raw
/// output (so density tooling keeps working); its class is binary
/// (`High`/`WeakLow`) — reversal classification stays the job of a
/// bare [`crate::PerceptronCe`].
///
/// # Examples
///
/// ```
/// use perconf_core::{
///     CombineRule, CompositeCe, ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator,
///     PerceptronCe, PerceptronCeConfig,
/// };
///
/// let ce = CompositeCe::new(
///     PerceptronCe::new(PerceptronCeConfig::default()),
///     JrsEstimator::new(JrsConfig::default()),
///     CombineRule::Both,
/// );
/// let ctx = EstimateCtx { pc: 0x40, history: 0, predicted_taken: true };
/// // Fresh JRS flags everything, fresh perceptron (y = 0 >= λ = 0) too:
/// assert!(ce.estimate(&ctx).is_low());
/// ```
#[derive(Debug, Clone)]
pub struct CompositeCe<A, B> {
    a: A,
    b: B,
    rule: CombineRule,
}

impl<A: ConfidenceEstimator, B: ConfidenceEstimator> CompositeCe<A, B> {
    /// Combines `a` and `b` under `rule`.
    #[must_use]
    pub fn new(a: A, b: B, rule: CombineRule) -> Self {
        Self { a, b, rule }
    }

    /// The combining rule in use.
    #[must_use]
    pub fn rule(&self) -> CombineRule {
        self.rule
    }

    /// Access to component `a`.
    #[must_use]
    pub fn component_a(&self) -> &A {
        &self.a
    }

    /// Access to component `b`.
    #[must_use]
    pub fn component_b(&self) -> &B {
        &self.b
    }
}

impl<A: ConfidenceEstimator, B: ConfidenceEstimator> ConfidenceEstimator for CompositeCe<A, B> {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let ea = self.a.estimate(ctx);
        let eb = self.b.estimate(ctx);
        let low = match self.rule {
            CombineRule::Both => ea.is_low() && eb.is_low(),
            CombineRule::Either => ea.is_low() || eb.is_low(),
        };
        Estimate {
            raw: ea.raw,
            class: if low {
                ConfidenceClass::WeakLow
            } else {
                ConfidenceClass::High
            },
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, _est: Estimate, mispredicted: bool) {
        // Each component trains on its own fetch-time estimate, as it
        // would if it were deployed alone.
        let ea = self.a.estimate(ctx);
        self.a.train(ctx, ea, mispredicted);
        let eb = self.b.estimate(ctx);
        self.b.train(ctx, eb, mispredicted);
    }

    fn name(&self) -> &'static str {
        match self.rule {
            CombineRule::Both => "composite-both",
            CombineRule::Either => "composite-either",
        }
    }

    fn storage_bits(&self) -> u64 {
        self.a.storage_bits() + self.b.storage_bits()
    }
}

// The vendored serde derive does not handle generic types, so the
// composite's serialization is written by hand.
impl<A: Serialize, B: Serialize> Serialize for CompositeCe<A, B> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("a".into(), self.a.to_value()),
            ("b".into(), self.b.to_value()),
            ("rule".into(), self.rule.to_value()),
        ])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for CompositeCe<A, B> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            a: serde::field(v, "a")?,
            b: serde::field(v, "b")?,
            rule: serde::field(v, "rule")?,
        })
    }
}

impl<A, B> Snapshot for CompositeCe<A, B>
where
    A: Snapshot + Serialize + Deserialize,
    B: Snapshot + Serialize + Deserialize,
{
    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        *self = Self::from_value(state).map_err(SnapshotError::from_de)?;
        Ok(())
    }
}

impl<A, B> perconf_bpred::FaultableState for CompositeCe<A, B>
where
    A: perconf_bpred::FaultableState,
    B: perconf_bpred::FaultableState,
{
    fn state_bits(&self) -> u64 {
        self.a.state_bits() + self.b.state_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) {
        if self.state_bits() == 0 {
            return;
        }
        let bit = bit % self.state_bits();
        if bit < self.a.state_bits() {
            self.a.flip_state_bit(bit);
        } else {
            self.b.flip_state_bit(bit - self.a.state_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysHigh, JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig};

    fn ctx(pc: u64) -> EstimateCtx {
        EstimateCtx {
            pc,
            history: 0,
            predicted_taken: true,
        }
    }

    #[test]
    fn both_rule_is_an_and() {
        // AlwaysHigh never flags, so Both(x, AlwaysHigh) never flags.
        let ce = CompositeCe::new(
            JrsEstimator::new(JrsConfig::default()),
            AlwaysHigh,
            CombineRule::Both,
        );
        assert!(!ce.estimate(&ctx(0x40)).is_low());
    }

    #[test]
    fn either_rule_is_an_or() {
        // Fresh JRS flags everything, so Either(JRS, AlwaysHigh) flags.
        let ce = CompositeCe::new(
            JrsEstimator::new(JrsConfig::default()),
            AlwaysHigh,
            CombineRule::Either,
        );
        assert!(ce.estimate(&ctx(0x40)).is_low());
    }

    #[test]
    fn components_train_independently() {
        let mut ce = CompositeCe::new(
            JrsEstimator::new(JrsConfig {
                lambda: 3,
                ..JrsConfig::default()
            }),
            PerceptronCe::new(PerceptronCeConfig::default()),
            CombineRule::Both,
        );
        let c = ctx(0x80);
        for _ in 0..10 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false);
        }
        // The JRS component saturated past λ on its own schedule.
        assert!(!ce.component_a().estimate(&c).is_low());
    }

    #[test]
    fn storage_sums_components() {
        let ce = CompositeCe::new(
            JrsEstimator::new(JrsConfig::default()),
            PerceptronCe::new(PerceptronCeConfig::default()),
            CombineRule::Both,
        );
        assert_eq!(ce.storage_bits(), 8 * 1024 * 4 + 128 * 33 * 8);
    }

    #[test]
    fn names_reflect_rule() {
        let both = CompositeCe::new(AlwaysHigh, AlwaysHigh, CombineRule::Both);
        let either = CompositeCe::new(AlwaysHigh, AlwaysHigh, CombineRule::Either);
        assert_eq!(both.name(), "composite-both");
        assert_eq!(either.name(), "composite-either");
    }
}
