use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{FaultableState, ResettingCounter, SatCounter, Snapshot};
use serde::{DeError, Deserialize, Serialize, Value};

/// How a JRS table entry reacts to a misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum MissPolicy {
    /// Reset the counter to zero (the original JRS "miss distance
    /// counter" — a single miss wipes the branch's record).
    #[default]
    Reset,
    /// Saturating decrement (a gentler ablation: one miss costs one
    /// step of confidence). Used by the ablation benches to show why
    /// the paper's resetting counters have such high coverage.
    Decrement,
}

/// Configuration of a [`JrsEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JrsConfig {
    /// log2 of the table size (paper: 13 → 8K entries).
    pub index_bits: u32,
    /// Width of each miss-distance counter (paper: 4 bits).
    pub counter_bits: u8,
    /// Number of global-history bits XORed into the index.
    pub hist_bits: u32,
    /// High-confidence threshold λ: counter `>= lambda` → high
    /// confidence (paper sweeps 3, 7, 11, 15).
    pub lambda: u8,
    /// Enhanced indexing (Grunwald et al.): folds the predicted
    /// direction into the index alongside the history.
    pub enhanced: bool,
    /// Reaction to a misprediction (reset = the paper's JRS).
    pub miss_policy: MissPolicy,
}

impl Default for JrsConfig {
    /// The paper's configuration: 8K × 4-bit resetting counters
    /// (4 KB of state), enhanced indexing, λ = 7.
    fn default() -> Self {
        Self {
            index_bits: 13,
            counter_bits: 4,
            hist_bits: 13,
            lambda: 7,
            enhanced: true,
            miss_policy: MissPolicy::Reset,
        }
    }
}

#[derive(Debug, Clone)]
enum CounterTable {
    Resetting(Vec<ResettingCounter>),
    Saturating(Vec<SatCounter>),
}

// Tuple variants are outside the vendored serde derive's supported
// shapes, so the impls are written by hand using the same externally
// tagged layout a derive would produce for struct variants.
impl Serialize for CounterTable {
    fn to_value(&self) -> Value {
        let (tag, inner) = match self {
            CounterTable::Resetting(t) => ("Resetting", t.to_value()),
            CounterTable::Saturating(t) => ("Saturating", t.to_value()),
        };
        Value::Object(vec![(tag.into(), inner)])
    }
}

impl Deserialize for CounterTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(fields) if fields.len() == 1 => {
                let (tag, inner) = &fields[0];
                match tag.as_str() {
                    "Resetting" => Ok(CounterTable::Resetting(Vec::from_value(inner)?)),
                    "Saturating" => Ok(CounterTable::Saturating(Vec::from_value(inner)?)),
                    other => Err(DeError(format!(
                        "unknown variant `{other}` of CounterTable"
                    ))),
                }
            }
            _ => Err(DeError("expected variant of CounterTable".into())),
        }
    }
}

/// The JRS miss-distance-counter confidence estimator (Jacobson,
/// Rotenberg & Smith, MICRO 1998), including the *enhanced* variant of
/// Grunwald et al. that folds the predicted direction into the index.
///
/// Each entry counts consecutive correct predictions; a misprediction
/// resets it. A branch whose counter is below λ is flagged low
/// confidence: it has not yet proven itself with λ straight correct
/// predictions in this (PC, history) context.
///
/// [`Estimate::raw`] is reported as `lambda - counter` so that, as for
/// every estimator in this crate, *larger raw = less confident*.
///
/// # Examples
///
/// ```
/// use perconf_core::{ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator};
///
/// let mut jrs = JrsEstimator::new(JrsConfig { lambda: 3, ..JrsConfig::default() });
/// let ctx = EstimateCtx { pc: 0x40, history: 0, predicted_taken: true };
/// assert!(jrs.estimate(&ctx).is_low()); // fresh counter: low confidence
/// for _ in 0..3 {
///     let est = jrs.estimate(&ctx);
///     jrs.train(&ctx, est, false); // three correct predictions
/// }
/// assert!(!jrs.estimate(&ctx).is_low());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JrsEstimator {
    table: CounterTable,
    cfg: JrsConfig,
}

impl JrsEstimator {
    /// Creates an estimator from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=26` or `lambda` exceeds
    /// the counter's maximum value.
    #[must_use]
    pub fn new(cfg: JrsConfig) -> Self {
        assert!(
            cfg.index_bits >= 1 && cfg.index_bits <= 26,
            "index bits must be 1..=26"
        );
        let proto = ResettingCounter::new(cfg.counter_bits);
        assert!(
            cfg.lambda <= proto.max(),
            "lambda must fit in the counter range"
        );
        let n = 1usize << cfg.index_bits;
        let table = match cfg.miss_policy {
            MissPolicy::Reset => CounterTable::Resetting(vec![proto; n]),
            MissPolicy::Decrement => {
                CounterTable::Saturating(vec![SatCounter::with_value(cfg.counter_bits, 0); n])
            }
        };
        Self { table, cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &JrsConfig {
        &self.cfg
    }

    fn index(&self, ctx: &EstimateCtx) -> usize {
        let mask = (1u64 << self.cfg.index_bits) - 1;
        let hmask = if self.cfg.hist_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.hist_bits) - 1
        };
        let mut h = ctx.history & hmask;
        if self.cfg.enhanced {
            // Fold the predicted direction in with the history, as in
            // the enhanced JRS estimator of Grunwald et al.
            h = (h << 1) | u64::from(ctx.predicted_taken);
        }
        (((ctx.pc >> 2) ^ h) & mask) as usize
    }
}

impl FaultableState for JrsEstimator {
    fn state_bits(&self) -> u64 {
        let n = match &self.table {
            CounterTable::Resetting(t) => t.len(),
            CounterTable::Saturating(t) => t.len(),
        };
        n as u64 * u64::from(self.cfg.counter_bits)
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let bit = bit % self.state_bits();
        let w = u64::from(self.cfg.counter_bits);
        let (idx, b) = ((bit / w) as usize, bit % w);
        match &mut self.table {
            CounterTable::Resetting(t) => t[idx].flip_state_bit(b),
            CounterTable::Saturating(t) => t[idx].flip_state_bit(b),
        }
    }
}

impl Snapshot for JrsEstimator {
    perconf_bpred::snapshot_serde_body!();
}

impl ConfidenceEstimator for JrsEstimator {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let i = self.index(ctx);
        let v = match &self.table {
            CounterTable::Resetting(t) => t[i].value(),
            CounterTable::Saturating(t) => t[i].value(),
        };
        let low = v < self.cfg.lambda;
        Estimate {
            raw: i32::from(self.cfg.lambda) - i32::from(v),
            class: if low {
                ConfidenceClass::WeakLow
            } else {
                ConfidenceClass::High
            },
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, _est: Estimate, mispredicted: bool) {
        let i = self.index(ctx);
        match &mut self.table {
            CounterTable::Resetting(t) => {
                if mispredicted {
                    t[i].incorrect();
                } else {
                    t[i].correct();
                }
            }
            CounterTable::Saturating(t) => t[i].update(!mispredicted),
        }
    }

    fn name(&self) -> &'static str {
        if self.cfg.enhanced {
            "enhanced-JRS"
        } else {
            "JRS"
        }
    }

    fn storage_bits(&self) -> u64 {
        let n = match &self.table {
            CounterTable::Resetting(t) => t.len(),
            CounterTable::Saturating(t) => t.len(),
        };
        n as u64 * u64::from(self.cfg.counter_bits)
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
    fn default_is_the_papers_4kb_table() {
        let jrs = JrsEstimator::new(JrsConfig::default());
        assert_eq!(jrs.storage_bits(), 8 * 1024 * 4);
        assert_eq!(jrs.name(), "enhanced-JRS");
    }

    #[test]
    fn needs_lambda_straight_corrects_for_high_confidence() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            lambda: 7,
            ..JrsConfig::default()
        });
        let c = ctx(0x40, 0b1010, true);
        for i in 0..7 {
            assert!(jrs.estimate(&c).is_low(), "iteration {i}");
            let est = jrs.estimate(&c);
            jrs.train(&c, est, false);
        }
        assert!(!jrs.estimate(&c).is_low());
    }

    #[test]
    fn misprediction_resets_to_low_confidence() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            lambda: 3,
            ..JrsConfig::default()
        });
        let c = ctx(0x40, 0, false);
        for _ in 0..5 {
            let est = jrs.estimate(&c);
            jrs.train(&c, est, false);
        }
        assert!(!jrs.estimate(&c).is_low());
        let est = jrs.estimate(&c);
        jrs.train(&c, est, true);
        assert!(jrs.estimate(&c).is_low());
    }

    #[test]
    fn enhanced_indexing_separates_directions() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            lambda: 3,
            ..JrsConfig::default()
        });
        let taken = ctx(0x40, 0b1, true);
        let not_taken = ctx(0x40, 0b1, false);
        for _ in 0..5 {
            let est = jrs.estimate(&taken);
            jrs.train(&taken, est, false);
        }
        assert!(!jrs.estimate(&taken).is_low());
        // Same PC and history but opposite prediction hits a different
        // counter under enhanced indexing.
        assert!(jrs.estimate(&not_taken).is_low());
    }

    #[test]
    fn original_indexing_ignores_direction() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            enhanced: false,
            lambda: 3,
            ..JrsConfig::default()
        });
        assert_eq!(jrs.name(), "JRS");
        let a = ctx(0x40, 0b1, true);
        let b = ctx(0x40, 0b1, false);
        for _ in 0..5 {
            let est = jrs.estimate(&a);
            jrs.train(&a, est, false);
        }
        assert!(!jrs.estimate(&b).is_low());
    }

    #[test]
    fn raw_is_monotonic_in_distrust() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            lambda: 15,
            ..JrsConfig::default()
        });
        let c = ctx(0x80, 0, true);
        let fresh = jrs.estimate(&c).raw;
        let est = jrs.estimate(&c);
        jrs.train(&c, est, false);
        let after_correct = jrs.estimate(&c).raw;
        assert!(after_correct < fresh);
    }

    #[test]
    fn decrement_policy_recovers_gradually() {
        let mut jrs = JrsEstimator::new(JrsConfig {
            lambda: 3,
            miss_policy: MissPolicy::Decrement,
            ..JrsConfig::default()
        });
        let c = ctx(0x40, 0, true);
        for _ in 0..10 {
            let est = jrs.estimate(&c);
            jrs.train(&c, est, false);
        }
        assert!(!jrs.estimate(&c).is_low());
        // One miss only decrements: still above λ=3 (was 15 → 14).
        let est = jrs.estimate(&c);
        jrs.train(&c, est, true);
        assert!(!jrs.estimate(&c).is_low());
        // Whereas with the reset policy a single miss flips to low
        // confidence (covered by misprediction_resets_to_low_confidence).
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn lambda_out_of_counter_range_panics() {
        let _ = JrsEstimator::new(JrsConfig {
            counter_bits: 2,
            lambda: 7,
            ..JrsConfig::default()
        });
    }
}
