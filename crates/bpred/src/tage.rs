use crate::counter::{Counters, SatCounter};
use crate::faultable::FaultableState;
use crate::snapshot::Snapshot;
use crate::traits::BranchPredictor;
use serde::{Deserialize, Serialize};

/// A TAGE branch predictor (Seznec & Michaud, "A case for (partially)
/// TAgged GEometric history length branch predictors", JILP 2006).
///
/// TAGE post-dates the paper and is included as the repository's
/// *extension* baseline: Table 5 shows that a better baseline
/// predictor shrinks — but does not eliminate — the confidence
/// estimator's opportunity, and TAGE extends that trend one more step
/// (see the `tage_gating` example).
///
/// Structure: a bimodal base predictor plus `N` partially tagged
/// tables indexed with geometrically increasing history lengths. The
/// prediction comes from the longest-history table that hits; the
/// runner-up ("altpred") is used when the provider entry is weak and
/// unproven. Allocation on mispredictions steals a not-useful entry
/// from a longer table.
///
/// # Examples
///
/// ```
/// use perconf_bpred::{BranchPredictor, Tage};
///
/// let mut t = Tage::geometric(4, 10, 4, 64);
/// for _ in 0..64 {
///     t.train(0x40, 0b1011, true);
/// }
/// assert!(t.predict(0x40, 0b1011));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tage {
    base: Counters<SatCounter>,
    base_bits: u32,
    tables: Vec<TaggedTable>,
    /// Use-alt-on-new-alloc counter (dynamic choice between provider
    /// and altpred for weak entries).
    use_alt: SatCounter,
    tick: u64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct TaggedTable {
    entries: Vec<TageEntry>,
    index_bits: u32,
    tag_bits: u32,
    hist_len: u32,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TageEntry {
    tag: u16,
    ctr: SatCounter,
    useful: SatCounter,
}

impl TaggedTable {
    fn new(index_bits: u32, tag_bits: u32, hist_len: u32) -> Self {
        Self {
            entries: vec![
                TageEntry {
                    tag: 0,
                    ctr: SatCounter::new(3),
                    useful: SatCounter::with_value(2, 0),
                };
                1 << index_bits
            ],
            index_bits,
            tag_bits,
            hist_len,
        }
    }

    /// Folds `hist_len` bits of history into `bits` output bits.
    fn fold(&self, hist: u64, bits: u32) -> u64 {
        let mask = if self.hist_len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.hist_len) - 1
        };
        let mut h = hist & mask;
        let mut out = 0u64;
        while h != 0 {
            out ^= h & ((1 << bits) - 1);
            h >>= bits;
        }
        out
    }

    fn index(&self, pc: u64, hist: u64) -> usize {
        let folded = self.fold(hist, self.index_bits);
        (((pc >> 2) ^ (pc >> (2 + self.index_bits as u64)) ^ folded) & ((1 << self.index_bits) - 1))
            as usize
    }

    fn tag(&self, pc: u64, hist: u64) -> u16 {
        let folded = self.fold(hist, self.tag_bits) ^ self.fold(hist, self.tag_bits - 1) << 1;
        (((pc >> 2) ^ folded) & ((1 << self.tag_bits) - 1)) as u16
    }

    fn lookup(&self, pc: u64, hist: u64) -> Option<&TageEntry> {
        let e = &self.entries[self.index(pc, hist)];
        (e.tag == self.tag(pc, hist)).then_some(e)
    }
}

/// Outcome of a TAGE lookup, kept for the training step.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    provider: Option<usize>,
    provider_pred: bool,
    provider_weak: bool,
    alt_pred: bool,
    final_pred: bool,
}

impl Tage {
    /// Builds a TAGE with `n_tables` tagged components of
    /// `2^index_bits` entries each, history lengths growing
    /// geometrically from `min_hist` to `max_hist`, plus a
    /// `2^(index_bits + 2)`-entry bimodal base.
    ///
    /// # Panics
    ///
    /// Panics if `n_tables == 0`, `index_bits` outside `4..=20`, or
    /// `min_hist == 0` / `max_hist < min_hist` / `max_hist > 64`.
    #[must_use]
    pub fn geometric(n_tables: u32, index_bits: u32, min_hist: u32, max_hist: u32) -> Self {
        assert!(n_tables >= 1, "need at least one tagged table");
        assert!((4..=20).contains(&index_bits), "index bits must be 4..=20");
        assert!(
            min_hist >= 1 && max_hist >= min_hist && max_hist <= 64,
            "history lengths must satisfy 1 <= min <= max <= 64"
        );
        let ratio = if n_tables == 1 {
            1.0
        } else {
            (f64::from(max_hist) / f64::from(min_hist)).powf(1.0 / f64::from(n_tables - 1))
        };
        let tables = (0..n_tables)
            .map(|i| {
                let len = (f64::from(min_hist) * ratio.powi(i as i32)).round() as u32;
                TaggedTable::new(index_bits, 9, len.clamp(1, 64))
            })
            .collect();
        Self {
            base: Counters::new(SatCounter::new(2), 1 << (index_bits + 2)),
            base_bits: index_bits + 2,
            tables,
            use_alt: SatCounter::new(4),
            tick: 0,
        }
    }

    /// The default configuration used by [`crate::tage_hybrid`]:
    /// 4 tables × 1K entries, histories 4–64.
    #[must_use]
    pub fn default_config() -> Self {
        Self::geometric(4, 10, 4, 64)
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.base_bits) - 1)) as usize
    }

    fn lookup(&self, pc: u64, hist: u64) -> Lookup {
        let base_pred = self.base[self.base_index(pc)].msb();
        let mut provider = None;
        let mut alt = None;
        for (i, t) in self.tables.iter().enumerate().rev() {
            if t.lookup(pc, hist).is_some() {
                if provider.is_none() {
                    provider = Some(i);
                } else if alt.is_none() {
                    alt = Some(i);
                    break;
                }
            }
        }
        let alt_pred = alt
            .and_then(|i| self.tables[i].lookup(pc, hist))
            .map_or(base_pred, |e| e.ctr.msb());
        match provider {
            None => Lookup {
                provider: None,
                provider_pred: base_pred,
                provider_weak: false,
                alt_pred: base_pred,
                final_pred: base_pred,
            },
            Some(i) => {
                let e = self.tables[i].lookup(pc, hist).expect("provider hit");
                let weak = e.ctr.value() == 3 || e.ctr.value() == 4; // around 3-bit midpoint
                let unproven = e.useful.value() == 0;
                let final_pred = if weak && unproven && self.use_alt.msb() {
                    alt_pred
                } else {
                    e.ctr.msb()
                };
                Lookup {
                    provider: Some(i),
                    provider_pred: e.ctr.msb(),
                    provider_weak: weak && unproven,
                    alt_pred,
                    final_pred,
                }
            }
        }
    }
}

impl BranchPredictor for Tage {
    fn predict(&self, pc: u64, hist: u64) -> bool {
        self.lookup(pc, hist).final_pred
    }

    fn train(&mut self, pc: u64, hist: u64, taken: bool) {
        let l = self.lookup(pc, hist);
        let mispredicted = l.final_pred != taken;

        // Update the use-alt chooser when provider and alt disagree on
        // a weak, unproven entry.
        if l.provider.is_some() && l.provider_weak && l.provider_pred != l.alt_pred {
            self.use_alt.update(l.alt_pred == taken);
        }

        match l.provider {
            Some(i) => {
                let (index, tag) = {
                    let t = &self.tables[i];
                    (t.index(pc, hist), t.tag(pc, hist))
                };
                let e = &mut self.tables[i].entries[index];
                debug_assert_eq!(e.tag, tag);
                e.ctr.update(taken);
                // Usefulness: provider was right where alt was wrong.
                if l.provider_pred != l.alt_pred {
                    e.useful.update(l.provider_pred == taken);
                }
            }
            None => {
                let bi = self.base_index(pc);
                self.base[bi].update(taken);
            }
        }
        if let Some(i) = l.provider {
            // Also keep the base warm so evictions degrade gracefully.
            if i == 0 {
                let bi = self.base_index(pc);
                self.base[bi].update(taken);
            }
        }

        // Allocate on misprediction: pick a longer table whose entry
        // is not useful.
        if mispredicted {
            let start = l.provider.map_or(0, |i| i + 1);
            let mut allocated = false;
            for i in start..self.tables.len() {
                let (index, tag) = {
                    let t = &self.tables[i];
                    (t.index(pc, hist), t.tag(pc, hist))
                };
                let e = &mut self.tables[i].entries[index];
                if e.useful.value() == 0 {
                    e.tag = tag;
                    e.ctr = SatCounter::with_value(3, if taken { 4 } else { 3 });
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                // Decay usefulness so future allocations can succeed.
                for i in start..self.tables.len() {
                    let (index, _) = {
                        let t = &self.tables[i];
                        (t.index(pc, hist), 0)
                    };
                    self.tables[i].entries[index].useful.dec();
                }
            }
            self.tick += 1;
            // Periodic global usefulness decay, as in the original.
            if self.tick.is_multiple_of(256 * 1024) {
                for t in &mut self.tables {
                    for e in &mut t.entries {
                        e.useful.dec();
                    }
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "TAGE"
    }

    fn storage_bits(&self) -> u64 {
        let base = 2 * self.base.len() as u64;
        let tagged: u64 = self
            .tables
            .iter()
            .map(|t| t.entries.len() as u64 * (u64::from(t.tag_bits) + 3 + 2))
            .sum();
        base + tagged
    }
}

impl FaultableState for Tage {
    fn state_bits(&self) -> u64 {
        // Matches the storage_bits accounting: base counters, then per
        // tagged entry its tag, 3-bit ctr and 2-bit useful counter.
        let base = 2 * self.base.len() as u64;
        let tagged: u64 = self
            .tables
            .iter()
            .map(|t| t.entries.len() as u64 * (u64::from(t.tag_bits) + 3 + 2))
            .sum();
        base + tagged
    }

    fn flip_state_bit(&mut self, bit: u64) {
        let mut bit = bit % self.state_bits();
        let base_region = 2 * self.base.len() as u64;
        if bit < base_region {
            self.base[(bit / 2) as usize].flip_state_bit(bit % 2);
            return;
        }
        bit -= base_region;
        for t in &mut self.tables {
            let entry_bits = u64::from(t.tag_bits) + 3 + 2;
            let region = t.entries.len() as u64 * entry_bits;
            if bit >= region {
                bit -= region;
                continue;
            }
            let e = &mut t.entries[(bit / entry_bits) as usize];
            let b = bit % entry_bits;
            if b < u64::from(t.tag_bits) {
                e.tag ^= 1 << b as u16;
            } else if b < u64::from(t.tag_bits) + 3 {
                e.ctr.flip_state_bit(b - u64::from(t.tag_bits));
            } else {
                e.useful.flip_state_bit(b - u64::from(t.tag_bits) - 3);
            }
            return;
        }
    }
}

impl Snapshot for Tage {
    crate::snapshot_serde_body!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut t = Tage::default_config();
        for _ in 0..32 {
            t.train(0x40, 0, true);
        }
        assert!(t.predict(0x40, 0));
    }

    #[test]
    fn learns_a_long_self_period_exactly() {
        // A single branch whose outcome repeats with period 21 visits,
        // with history = its own outcome history: in steady state there
        // are only 21 distinct histories and TAGE memorizes them all.
        let pattern: [bool; 21] = [
            true, false, true, true, false, false, true, false, true, true, false, true, true,
            true, false, false, false, true, false, true, true,
        ];
        let mut t = Tage::geometric(4, 10, 4, 32);
        let mut hist = 0u64;
        let mut correct = 0;
        let mut total = 0;
        for i in 0..6_000usize {
            let taken = pattern[i % 21];
            if i > 2_000 {
                total += 1;
                if t.predict(0x80, hist) == taken {
                    correct += 1;
                }
            }
            t.train(0x80, hist, taken);
            hist = (hist << 1) | u64::from(taken);
        }
        let acc = f64::from(correct as u32) / f64::from(total as u32);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn geometric_history_lengths_are_increasing() {
        let t = Tage::geometric(5, 8, 4, 64);
        for w in t.tables.windows(2) {
            assert!(w[0].hist_len < w[1].hist_len);
        }
        assert_eq!(t.tables[0].hist_len, 4);
        assert_eq!(t.tables[4].hist_len, 64);
    }

    #[test]
    fn storage_is_accounted() {
        let t = Tage::geometric(4, 10, 4, 64);
        // base: 2^12 * 2 bits; each tagged: 2^10 * (9 + 3 + 2).
        assert_eq!(t.storage_bits(), 4096 * 2 + 4 * 1024 * 14);
    }

    #[test]
    fn competitive_with_gshare_on_a_real_workload() {
        use crate::{Gshare, Hybrid};
        use perconf_workload::WorkloadGenerator;
        let cfg = perconf_workload::spec2000_config("twolf").unwrap();
        let mut g = WorkloadGenerator::new(&cfg);
        let mut tage = Hybrid::new(Gshare::new(16, 8), Tage::default_config(), 16);
        let mut gshare = crate::baseline_bimodal_gshare();
        let mut hist = 0u64;
        let (mut tm, mut gm) = (0u32, 0u32);
        for n in 1..=400_000u64 {
            let b = g.next_branch();
            if n > 150_000 {
                if tage.predict(b.pc, hist) != b.taken {
                    tm += 1;
                }
                if gshare.predict(b.pc, hist) != b.taken {
                    gm += 1;
                }
            }
            tage.train(b.pc, hist, b.taken);
            gshare.train(b.pc, hist, b.taken);
            hist = (hist << 1) | u64::from(b.taken);
        }
        // The TAGE hybrid should mispredict no more than ~5% above the
        // tuned baseline on this workload (and usually less).
        assert!(
            f64::from(tm) < f64::from(gm) * 1.05,
            "tage-hybrid misses {tm} vs baseline {gm}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_tables_panics() {
        let _ = Tage::geometric(0, 10, 4, 64);
    }
}
