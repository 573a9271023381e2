use crate::counter::SatCounter;
use crate::faultable::FaultableState;
use crate::snapshot::Snapshot;
use crate::traits::BranchPredictor;
use serde::{Deserialize, Serialize};

/// McFarling's gshare predictor: 2-bit counters indexed by
/// `PC XOR global-history`.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{BranchPredictor, Gshare};
///
/// let mut p = Gshare::new(12, 8);
/// // Branch taken only when the previous branch was taken:
/// for _ in 0..8 {
///     p.train(0x40, 0b1, true);
///     p.train(0x40, 0b0, false);
/// }
/// assert!(p.predict(0x40, 0b1));
/// assert!(!p.predict(0x40, 0b0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gshare {
    table: Vec<SatCounter>,
    index_bits: u32,
    hist_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `2^index_bits` counters using
    /// `hist_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28, or if
    /// `hist_bits > index_bits` (extra history would be silently
    /// masked away, which is never what a caller wants).
    #[must_use]
    pub fn new(index_bits: u32, hist_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index bits must be 1..=28");
        assert!(
            hist_bits <= index_bits,
            "history bits must not exceed index bits"
        );
        Self {
            table: vec![SatCounter::new(2); 1 << index_bits],
            index_bits,
            hist_bits,
        }
    }

    fn index(&self, pc: u64, hist: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        let h = hist & ((1u64 << self.hist_bits) - 1).min(mask);
        (((pc >> 2) ^ h) & mask) as usize
    }

    /// Number of history bits used in the index.
    #[must_use]
    pub fn hist_bits(&self) -> u32 {
        self.hist_bits
    }
}

impl BranchPredictor for Gshare {
    fn predict(&self, pc: u64, hist: u64) -> bool {
        self.table[self.index(pc, hist)].msb()
    }

    fn train(&mut self, pc: u64, hist: u64, taken: bool) {
        let i = self.index(pc, hist);
        self.table[i].update(taken);
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn storage_bits(&self) -> u64 {
        2 * self.table.len() as u64
    }
}

impl FaultableState for Gshare {
    fn state_bits(&self) -> u64 {
        2 * self.table.len() as u64
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let bit = bit % self.state_bits();
        self.table[(bit / 2) as usize].flip_state_bit(bit % 2);
    }
}

impl Snapshot for Gshare {
    crate::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_contexts_by_history() {
        let mut p = Gshare::new(10, 6);
        for _ in 0..4 {
            p.train(0x80, 0b11, true);
            p.train(0x80, 0b00, false);
        }
        assert!(p.predict(0x80, 0b11));
        assert!(!p.predict(0x80, 0b00));
    }

    #[test]
    fn learns_xor_pattern_that_defeats_linear_predictors() {
        // taken = h0 XOR h1 — not linearly separable, but each history
        // pattern gets its own gshare counter.
        let mut p = Gshare::new(12, 4);
        for _ in 0..8 {
            for h in 0..4u64 {
                let taken = ((h & 1) ^ ((h >> 1) & 1)) == 1;
                p.train(0x44, h, taken);
            }
        }
        for h in 0..4u64 {
            let want = ((h & 1) ^ ((h >> 1) & 1)) == 1;
            assert_eq!(p.predict(0x44, h), want, "h={h:b}");
        }
    }

    #[test]
    fn zero_history_bits_degenerates_to_bimodal() {
        let mut p = Gshare::new(10, 0);
        p.train(0x40, 0b1010, true);
        p.train(0x40, 0b0101, true);
        assert!(p.predict(0x40, 0b1111));
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn oversized_history_panics() {
        let _ = Gshare::new(8, 9);
    }

    #[test]
    fn storage_bits() {
        assert_eq!(Gshare::new(16, 16).storage_bits(), 2 * 65536);
    }
}
