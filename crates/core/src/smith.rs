use crate::estimate::{ConfidenceClass, ConfidenceEstimator, Estimate, EstimateCtx};
use perconf_bpred::{FaultableState, SatCounter, Snapshot};
use serde::{Deserialize, Serialize};

/// Smith's counter-based confidence scheme (1981, as evaluated by
/// Grunwald et al.): a branch is high confidence only when its
/// direction counter sits at an extreme (saturated) state.
///
/// A private bimodal-style table of n-bit counters is trained with the
/// recovered actual direction (`predicted_taken XOR mispredicted`);
/// middle counter states — where the branch has recently wavered — are
/// flagged low confidence.
///
/// # Examples
///
/// ```
/// use perconf_core::{ConfidenceEstimator, EstimateCtx, SmithCe};
///
/// let mut ce = SmithCe::new(12, 2);
/// let ctx = EstimateCtx { pc: 0x40, history: 0, predicted_taken: true };
/// assert!(ce.estimate(&ctx).is_low()); // middle state initially
/// for _ in 0..4 {
///     let est = ce.estimate(&ctx);
///     ce.train(&ctx, est, false); // consistently taken
/// }
/// assert!(!ce.estimate(&ctx).is_low());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmithCe {
    table: Vec<SatCounter>,
    index_bits: u32,
    counter_bits: u8,
}

impl SmithCe {
    /// Creates a table of `2^index_bits` counters of `counter_bits`
    /// bits each.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=26` or `counter_bits`
    /// outside `1..=7`.
    #[must_use]
    pub fn new(index_bits: u32, counter_bits: u8) -> Self {
        assert!((1..=26).contains(&index_bits), "index bits must be 1..=26");
        Self {
            table: vec![SatCounter::new(counter_bits); 1 << index_bits],
            index_bits,
            counter_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }
}

impl FaultableState for SmithCe {
    fn state_bits(&self) -> u64 {
        self.table.len() as u64 * u64::from(self.counter_bits)
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let bit = bit % self.state_bits();
        let w = u64::from(self.counter_bits);
        self.table[(bit / w) as usize].flip_state_bit(bit % w);
    }
}

impl Snapshot for SmithCe {
    perconf_bpred::snapshot_serde_body!();
}

impl ConfidenceEstimator for SmithCe {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let c = self.table[self.index(ctx.pc)];
        let low = !c.is_saturated();
        // Distance from the nearest extreme, scaled so larger = less
        // confident.
        let dist = i32::from(c.value().min(c.max() - c.value()));
        Estimate {
            raw: dist,
            class: if low {
                ConfidenceClass::WeakLow
            } else {
                ConfidenceClass::High
            },
        }
    }

    fn train(&mut self, ctx: &EstimateCtx, _est: Estimate, mispredicted: bool) {
        let actual_taken = ctx.predicted_taken != mispredicted;
        let i = self.index(ctx.pc);
        self.table[i].update(actual_taken);
    }

    fn name(&self) -> &'static str {
        "smith"
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * u64::from(self.counter_bits)
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
    fn wavering_branch_stays_low_confidence() {
        let mut ce = SmithCe::new(10, 2);
        let c = ctx(0x40, true);
        for i in 0..50 {
            let est = ce.estimate(&c);
            // Alternate actual directions via the mispredicted flag.
            ce.train(&c, est, i % 2 == 0);
        }
        assert!(ce.estimate(&c).is_low());
    }

    #[test]
    fn stable_branch_saturates_to_high_confidence() {
        let mut ce = SmithCe::new(10, 3);
        let c = ctx(0x80, false);
        for _ in 0..10 {
            let est = ce.estimate(&c);
            ce.train(&c, est, false); // consistently not-taken
        }
        assert!(!ce.estimate(&c).is_low());
        assert_eq!(ce.estimate(&c).raw, 0);
    }

    #[test]
    fn raw_is_distance_from_extreme() {
        let ce = SmithCe::new(4, 2);
        // Initial 2-bit counter value is 1 → distance 1 from either end.
        assert_eq!(ce.estimate(&ctx(0x10, true)).raw, 1);
    }

    #[test]
    fn storage_bits() {
        assert_eq!(SmithCe::new(12, 2).storage_bits(), 4096 * 2);
    }
}
