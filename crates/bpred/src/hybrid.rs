use crate::counter::SatCounter;
use crate::faultable::FaultableState;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::traits::BranchPredictor;
use serde::{DeError, Deserialize, Serialize, Value};

/// McFarling combining predictor: two component predictors plus a
/// meta ("chooser") table of 2-bit counters indexed by PC.
///
/// The meta counter's MSB selects component `B`; it is trained toward
/// whichever component was correct when exactly one of them was.
///
/// The paper's baseline is `Hybrid<Bimodal, Gshare>` (16K/64K/64K,
/// Table 1) and §5.2 uses `Hybrid<Gshare, PerceptronPredictor>`.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{baseline_bimodal_gshare, BranchPredictor};
///
/// let mut p = baseline_bimodal_gshare();
/// for _ in 0..8 {
///     p.train(0x40, 0b1010, true);
/// }
/// assert!(p.predict(0x40, 0b1010));
/// ```
#[derive(Debug, Clone)]
pub struct Hybrid<A, B> {
    a: A,
    b: B,
    meta: Vec<SatCounter>,
    meta_bits: u32,
}

impl<A: BranchPredictor, B: BranchPredictor> Hybrid<A, B> {
    /// Combines predictors `a` and `b` with a `2^meta_bits`-entry
    /// chooser.
    ///
    /// # Panics
    ///
    /// Panics if `meta_bits` is 0 or greater than 28.
    #[must_use]
    pub fn new(a: A, b: B, meta_bits: u32) -> Self {
        assert!((1..=28).contains(&meta_bits), "meta bits must be 1..=28");
        Self {
            a,
            b,
            meta: vec![SatCounter::new(2); 1 << meta_bits],
            meta_bits,
        }
    }

    fn meta_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.meta_bits) - 1)) as usize
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

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for Hybrid<A, B> {
    fn predict(&self, pc: u64, hist: u64) -> bool {
        if self.meta[self.meta_index(pc)].msb() {
            self.b.predict(pc, hist)
        } else {
            self.a.predict(pc, hist)
        }
    }

    fn train(&mut self, pc: u64, hist: u64, taken: bool) {
        let pa = self.a.predict(pc, hist);
        let pb = self.b.predict(pc, hist);
        let ca = pa == taken;
        let cb = pb == taken;
        if ca != cb {
            let i = self.meta_index(pc);
            // Move toward B when B alone was right.
            self.meta[i].update(cb);
        }
        self.a.train(pc, hist, taken);
        self.b.train(pc, hist, taken);
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn storage_bits(&self) -> u64 {
        self.a.storage_bits() + self.b.storage_bits() + 2 * self.meta.len() as u64
    }
}

impl<A: FaultableState, B: FaultableState> FaultableState for Hybrid<A, B> {
    fn state_bits(&self) -> u64 {
        self.a.state_bits() + self.b.state_bits() + 2 * self.meta.len() as u64
    }

    fn flip_state_bit(&mut self, bit: u64) {
        // Address space: component a, then component b, then the meta
        // table — mirroring the storage_bits accounting.
        let mut bit = bit % self.state_bits();
        if bit < self.a.state_bits() {
            self.a.flip_state_bit(bit);
            return;
        }
        bit -= self.a.state_bits();
        if bit < self.b.state_bits() {
            self.b.flip_state_bit(bit);
            return;
        }
        bit -= self.b.state_bits();
        self.meta[(bit / 2) as usize].flip_state_bit(bit % 2);
    }
}

// The vendored serde derive does not handle generic types, so the
// serialisation impls are written by hand. Field names match what a
// derive would have produced.
impl<A: Serialize, B: Serialize> Serialize for Hybrid<A, B> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("a".into(), self.a.to_value()),
            ("b".into(), self.b.to_value()),
            ("meta".into(), self.meta.to_value()),
            ("meta_bits".into(), self.meta_bits.to_value()),
        ])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for Hybrid<A, B> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            a: serde::field(v, "a")?,
            b: serde::field(v, "b")?,
            meta: serde::field(v, "meta")?,
            meta_bits: serde::field(v, "meta_bits")?,
        })
    }
}

impl<A, B> Snapshot for Hybrid<A, B>
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bimodal, Gshare};

    #[test]
    fn chooser_migrates_to_better_component() {
        // Pattern: taken iff history bit0 set. Bimodal cannot learn it;
        // gshare can. The meta table should migrate to gshare.
        let mut p = Hybrid::new(Bimodal::new(8), Gshare::new(10, 4), 8);
        for i in 0..400u64 {
            let hist = i % 2;
            let taken = hist == 1;
            p.train(0x40, hist, taken);
        }
        assert!(p.predict(0x40, 1));
        assert!(!p.predict(0x40, 0));
        assert!(
            p.meta[p.meta_index(0x40)].msb(),
            "meta should choose gshare"
        );
    }

    #[test]
    fn agreeing_components_do_not_move_meta() {
        let mut p = Hybrid::new(Bimodal::new(8), Gshare::new(10, 4), 8);
        let before = p.meta[p.meta_index(0x80)].value();
        for _ in 0..10 {
            p.train(0x80, 0, true); // both learn "taken" together
        }
        // After both are trained they agree, so meta stops moving;
        // it can only have moved during the brief initial disagreement.
        let after = p.meta[p.meta_index(0x80)].value();
        assert!((i16::from(after) - i16::from(before)).abs() <= 1);
    }

    #[test]
    fn storage_sums_components_and_meta() {
        let p = Hybrid::new(Bimodal::new(4), Gshare::new(4, 4), 4);
        assert_eq!(p.storage_bits(), 2 * 16 + 2 * 16 + 2 * 16);
    }

    #[test]
    fn baseline_constructor_sizes_match_table1() {
        let p = crate::baseline_bimodal_gshare();
        // 16K bimodal + 64K gshare + 64K meta, 2 bits each.
        assert_eq!(
            p.storage_bits(),
            2 * 16 * 1024 + 2 * 64 * 1024 + 2 * 64 * 1024
        );
    }

    #[test]
    fn gshare_perceptron_constructor_builds() {
        let p = crate::gshare_perceptron();
        assert!(p.storage_bits() > 0);
    }
}
