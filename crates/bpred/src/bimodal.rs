use crate::counter::{Counters, SatCounter};
use crate::faultable::FaultableState;
use crate::snapshot::Snapshot;
use crate::traits::BranchPredictor;
use serde::{Deserialize, Serialize};

/// Classic per-PC 2-bit-counter ("bimodal") predictor (Smith 1981).
///
/// # Examples
///
/// ```
/// use perconf_bpred::{Bimodal, BranchPredictor};
///
/// let mut p = Bimodal::new(10);
/// for _ in 0..4 {
///     p.train(0x1234, 0, false);
/// }
/// assert!(!p.predict(0x1234, 0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bimodal {
    table: Counters<SatCounter>,
    index_bits: u32,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=28).contains(&index_bits), "index bits must be 1..=28");
        Self {
            table: Counters::new(SatCounter::new(2), 1 << index_bits),
            index_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        // Branch PCs are word-spaced; drop the low alignment bits.
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    /// Reads the raw counter for `pc` (used by confidence estimators
    /// built on predictor state, e.g. Smith's scheme).
    #[must_use]
    pub fn counter(&self, pc: u64) -> SatCounter {
        self.table[self.index(pc)]
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&self, pc: u64, _hist: u64) -> bool {
        self.table[self.index(pc)].msb()
    }

    fn train(&mut self, pc: u64, _hist: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].update(taken);
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn storage_bits(&self) -> u64 {
        2 * self.table.len() as u64
    }
}

impl FaultableState for Bimodal {
    fn state_bits(&self) -> u64 {
        2 * self.table.len() as u64
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let bit = bit % self.state_bits();
        self.table[(bit / 2) as usize].flip_state_bit(bit % 2);
    }
}

impl Snapshot for Bimodal {
    crate::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_direction_after_two_updates() {
        let mut p = Bimodal::new(8);
        assert!(!p.predict(0x100, 0)); // init weakly not-taken
        p.train(0x100, 0, true);
        p.train(0x100, 0, true);
        assert!(p.predict(0x100, 0));
    }

    #[test]
    fn distinct_pcs_do_not_interfere_when_not_aliased() {
        let mut p = Bimodal::new(8);
        p.train(0x100, 0, true);
        p.train(0x100, 0, true);
        assert!(!p.predict(0x104, 0));
    }

    #[test]
    fn aliased_pcs_share_a_counter() {
        let mut p = Bimodal::new(4);
        let a = 0x100;
        let b = a + (1 << (4 + 2)); // same index after >>2 and mask
        p.train(a, 0, true);
        p.train(a, 0, true);
        assert!(p.predict(b, 0));
    }

    #[test]
    fn hysteresis_requires_two_flips() {
        let mut p = Bimodal::new(8);
        for _ in 0..4 {
            p.train(0x40, 0, true);
        }
        p.train(0x40, 0, false);
        assert!(p.predict(0x40, 0)); // still taken after one not-taken
        p.train(0x40, 0, false);
        assert!(!p.predict(0x40, 0));
    }

    #[test]
    fn snapshot_holds_the_table_as_one_string() {
        let mut p = Bimodal::new(4);
        p.train(0x40, 0, true);
        let saved = p.save_state();
        let table = saved.get("table").expect("table field");
        assert_eq!(table.get("max"), Some(&serde::Value::Int(3)));
        // pc 0x40 indexes counter 0, which moved from 1 to 2.
        let values = format!("02{}", "01".repeat(15));
        assert_eq!(table.get("values"), Some(&serde::Value::Str(values)));
    }

    #[test]
    fn storage_matches_table_size() {
        assert_eq!(Bimodal::new(14).storage_bits(), 2 * 16 * 1024);
    }
}
