use crate::counter::{Counters, SatCounter};
use crate::faultable::FaultableState;
use crate::snapshot::Snapshot;
use crate::traits::BranchPredictor;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Two-level per-address (PAs) predictor: a table of per-branch local
/// history registers indexing a table of 2-bit pattern counters.
///
/// Needed both as a predictor in its own right and as the substrate of
/// the Tyson pattern-based confidence estimator, which classifies the
/// *local history pattern* of each prediction.
///
/// Local history is updated at `train` time (non-speculatively), which
/// is the standard approximation in trace-driven simulation.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{BranchPredictor, PasPredictor};
///
/// let mut p = PasPredictor::new(10, 8);
/// for _ in 0..64 {
///     p.train(0x40, 0, true);
/// }
/// assert!(p.predict(0x40, 0));
/// assert_eq!(p.pattern(0x40), 0xFF); // local history saturated at "all taken"
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PasPredictor {
    local_hist: Vec<u16>,
    pattern_table: Counters<SatCounter>,
    bht_bits: u32,
    hist_bits: u32,
    last_pattern: Cell<u16>,
}

impl PasPredictor {
    /// Creates a PAs predictor with `2^bht_bits` local-history entries
    /// of `hist_bits` bits each, and a `2^(hist_bits + 4)`-entry
    /// pattern table (4 PC bits concatenated for set selection).
    ///
    /// # Panics
    ///
    /// Panics if `bht_bits` is outside `1..=20` or `hist_bits` outside
    /// `1..=16`.
    #[must_use]
    pub fn new(bht_bits: u32, hist_bits: u32) -> Self {
        assert!((1..=20).contains(&bht_bits), "bht bits must be 1..=20");
        assert!(
            (1..=16).contains(&hist_bits),
            "local history bits must be 1..=16"
        );
        Self {
            local_hist: vec![0; 1 << bht_bits],
            pattern_table: Counters::new(SatCounter::new(2), 1 << (hist_bits + 4)),
            bht_bits,
            hist_bits,
            last_pattern: Cell::new(0),
        }
    }

    fn bht_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.bht_bits) - 1)) as usize
    }

    fn pt_index(&self, pc: u64, pattern: u16) -> usize {
        let set = ((pc >> 2) & 0xF) as usize;
        (set << self.hist_bits) | pattern as usize
    }

    /// Local history pattern currently recorded for `pc`.
    #[must_use]
    pub fn pattern(&self, pc: u64) -> u16 {
        self.local_hist[self.bht_index(pc)]
    }

    /// Number of local-history bits per branch.
    #[must_use]
    pub fn hist_bits(&self) -> u32 {
        self.hist_bits
    }

    /// The local pattern used by the most recent `predict` call
    /// (consumed by the Tyson confidence estimator).
    #[must_use]
    pub fn last_pattern(&self) -> u16 {
        self.last_pattern.get()
    }
}

impl BranchPredictor for PasPredictor {
    fn predict(&self, pc: u64, _hist: u64) -> bool {
        let pattern = self.pattern(pc);
        self.last_pattern.set(pattern);
        self.pattern_table[self.pt_index(pc, pattern)].msb()
    }

    fn train(&mut self, pc: u64, _hist: u64, taken: bool) {
        let bi = self.bht_index(pc);
        let pattern = self.local_hist[bi];
        let pi = self.pt_index(pc, pattern);
        self.pattern_table[pi].update(taken);
        let mask = (1u16 << self.hist_bits) - 1;
        self.local_hist[bi] = ((pattern << 1) | u16::from(taken)) & mask;
    }

    fn name(&self) -> &'static str {
        "PAs"
    }

    fn storage_bits(&self) -> u64 {
        self.local_hist.len() as u64 * u64::from(self.hist_bits)
            + 2 * self.pattern_table.len() as u64
    }
}

impl FaultableState for PasPredictor {
    fn state_bits(&self) -> u64 {
        self.local_hist.len() as u64 * u64::from(self.hist_bits)
            + 2 * self.pattern_table.len() as u64
    }

    fn flip_state_bit(&mut self, bit: u64) {
        // Address space: local history registers, then pattern table —
        // mirroring the storage_bits accounting.
        let mut bit = bit % self.state_bits();
        let hist_region = self.local_hist.len() as u64 * u64::from(self.hist_bits);
        if bit < hist_region {
            let idx = (bit / u64::from(self.hist_bits)) as usize;
            let b = (bit % u64::from(self.hist_bits)) as u16;
            // Bits below hist_bits keep the register within its mask.
            self.local_hist[idx] ^= 1 << b;
            return;
        }
        bit -= hist_region;
        self.pattern_table[(bit / 2) as usize].flip_state_bit(bit % 2);
    }
}

impl Snapshot for PasPredictor {
    crate::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_local_period_two_pattern() {
        // Alternating T/N is invisible to a bimodal but trivial for PAs.
        let mut p = PasPredictor::new(8, 8);
        let mut taken = false;
        for _ in 0..200 {
            p.train(0x40, 0, taken);
            taken = !taken;
        }
        // Whatever the current local history is, the next outcome is
        // the complement of the last bit.
        let next = (p.pattern(0x40) & 1) == 0;
        assert_eq!(p.predict(0x40, 0), next);
    }

    #[test]
    fn pattern_tracks_outcomes() {
        let mut p = PasPredictor::new(8, 4);
        p.train(0x80, 0, true);
        p.train(0x80, 0, false);
        p.train(0x80, 0, true);
        assert_eq!(p.pattern(0x80), 0b101);
    }

    #[test]
    fn last_pattern_is_recorded_on_predict() {
        let mut p = PasPredictor::new(8, 6);
        for _ in 0..3 {
            p.train(0x40, 0, true);
        }
        let _ = p.predict(0x40, 0);
        assert_eq!(p.last_pattern(), 0b111);
    }

    #[test]
    fn separate_branches_have_separate_local_histories() {
        let mut p = PasPredictor::new(10, 8);
        for _ in 0..8 {
            p.train(0x100, 0, true);
            p.train(0x200, 0, false);
        }
        assert_eq!(p.pattern(0x100), 0xFF);
        assert_eq!(p.pattern(0x200), 0x00);
    }

    #[test]
    fn storage_accounts_for_both_levels() {
        let p = PasPredictor::new(10, 10);
        assert_eq!(p.storage_bits(), 1024 * 10 + 2 * (1 << 14));
    }
}
