use perconf_bpred::{Snapshot, SnapshotError};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

/// Parameters of a deterministic fault-injection campaign.
///
/// Two independent Bernoulli processes are modelled, both driven from
/// the same seeded generator:
///
/// * `rate` — per-access probability of a *persistent* single-bit
///   upset in the wrapped structure's SRAM state (perceptron weights,
///   saturating counters, local-history registers, …);
/// * `history_rate` — per-lookup probability of a *transient* flip of
///   one bit of the in-flight global-history value, modelling a latch
///   strike on the history register rather than a table cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-access probability of flipping one stored state bit.
    pub rate: f64,
    /// Per-lookup probability of flipping one in-flight history bit.
    pub history_rate: f64,
    /// Seed for the fault sequence. The same seed replays the same
    /// faults (same access numbers, same bit addresses) exactly.
    pub seed: u64,
}

impl FaultConfig {
    /// A campaign injecting state faults at `rate` with `seed`, and no
    /// transient history faults.
    #[must_use]
    pub fn state_only(rate: f64, seed: u64) -> Self {
        Self {
            rate,
            history_rate: 0.0,
            seed,
        }
    }

    /// The no-fault campaign: wrappers built from this must be
    /// bit-identical passthroughs.
    #[must_use]
    pub fn none() -> Self {
        Self {
            rate: 0.0,
            history_rate: 0.0,
            seed: 0,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// A deterministic, seeded schedule of single-bit faults.
///
/// Each call to [`next_fault`](Self::next_fault) advances the plan by
/// one access and — with the configured probability — yields the bit
/// address to upset. The sequence of (access number, bit address)
/// pairs is a pure function of the [`FaultConfig`], so any run can be
/// replayed exactly by reconstructing the plan from the same config.
///
/// When `rate` is exactly `0.0` the generator is never consulted, so a
/// zero-rate plan is free and the wrapping adapters degenerate to
/// passthroughs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SmallRng,
    rate: f64,
    history_rate: f64,
    accesses: u64,
    injected: u64,
}

impl FaultPlan {
    /// Builds the plan for a campaign configuration.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    #[must_use]
    pub fn new(cfg: &FaultConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.rate),
            "fault rate must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.history_rate),
            "history fault rate must be in [0,1]"
        );
        Self {
            rng: SmallRng::seed_from_u64(cfg.seed),
            rate: cfg.rate,
            history_rate: cfg.history_rate,
            accesses: 0,
            injected: 0,
        }
    }

    /// Advances the plan by one structure access. Returns the state-bit
    /// address to flip (already reduced modulo `state_bits`), or `None`
    /// when this access is fault-free.
    pub fn next_fault(&mut self, state_bits: u64) -> Option<u64> {
        self.accesses += 1;
        if self.rate <= 0.0 || state_bits == 0 {
            return None;
        }
        if !self.rng.gen_bool(self.rate) {
            return None;
        }
        self.injected += 1;
        Some(self.rng.gen_range(0..state_bits))
    }

    /// Advances the plan by one lookup and returns the in-flight
    /// history value with at most one bit flipped (a transient fault
    /// that perturbs this lookup only, not the stored history).
    pub fn corrupt_history(&mut self, hist: u64) -> u64 {
        if self.history_rate <= 0.0 {
            return hist;
        }
        if !self.rng.gen_bool(self.history_rate) {
            return hist;
        }
        self.injected += 1;
        hist ^ (1u64 << self.rng.gen_range(0..64u32))
    }

    /// Number of accesses the plan has seen.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The configured per-access state-fault probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Snapshot for FaultPlan {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("rng".into(), self.rng.state().to_value()),
            ("rate".into(), self.rate.to_value()),
            ("history_rate".into(), self.history_rate.to_value()),
            ("accesses".into(), self.accesses.to_value()),
            ("injected".into(), self.injected.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        fn f<T: Deserialize>(state: &Value, name: &str) -> Result<T, SnapshotError> {
            serde::field(state, name).map_err(SnapshotError::from_de)
        }
        let rng_state: [u64; 4] = f(state, "rng")?;
        self.rate = f(state, "rate")?;
        self.history_rate = f(state, "history_rate")?;
        self.accesses = f(state, "accesses")?;
        self.injected = f(state, "injected")?;
        self.rng = SmallRng::from_state(rng_state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cfg: &FaultConfig, accesses: u64, bits: u64) -> Vec<(u64, u64)> {
        let mut plan = FaultPlan::new(cfg);
        let mut out = Vec::new();
        for a in 0..accesses {
            if let Some(bit) = plan.next_fault(bits) {
                out.push((a, bit));
            }
        }
        out
    }

    #[test]
    fn same_seed_replays_identical_fault_sequence() {
        let cfg = FaultConfig::state_only(0.01, 0xDEAD_BEEF);
        let a = drain(&cfg, 50_000, 4096);
        let b = drain(&cfg, 50_000, 4096);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = drain(&FaultConfig::state_only(0.01, 1), 10_000, 4096);
        let b = drain(&FaultConfig::state_only(0.01, 2), 10_000, 4096);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_never_fires_and_never_draws() {
        let mut plan = FaultPlan::new(&FaultConfig::none());
        for _ in 0..100_000 {
            assert_eq!(plan.next_fault(1 << 20), None);
        }
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.accesses(), 100_000);
    }

    #[test]
    fn rate_one_fires_every_access() {
        let mut plan = FaultPlan::new(&FaultConfig::state_only(1.0, 7));
        for _ in 0..1000 {
            let bit = plan.next_fault(64).unwrap();
            assert!(bit < 64);
        }
        assert_eq!(plan.injected(), 1000);
    }

    #[test]
    fn injection_count_tracks_rate() {
        let mut plan = FaultPlan::new(&FaultConfig::state_only(0.1, 99));
        for _ in 0..100_000 {
            plan.next_fault(1024);
        }
        let hits = plan.injected() as f64;
        assert!((8_000.0..12_000.0).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_state_bits_is_a_noop() {
        let mut plan = FaultPlan::new(&FaultConfig::state_only(1.0, 3));
        assert_eq!(plan.next_fault(0), None);
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn history_corruption_flips_at_most_one_bit() {
        let cfg = FaultConfig {
            rate: 0.0,
            history_rate: 1.0,
            seed: 11,
        };
        let mut plan = FaultPlan::new(&cfg);
        for _ in 0..1000 {
            let h = plan.corrupt_history(0);
            assert_eq!(h.count_ones(), 1);
        }
    }

    #[test]
    fn zero_history_rate_passes_history_through() {
        let mut plan = FaultPlan::new(&FaultConfig::none());
        for h in [0u64, u64::MAX, 0xA5A5_5A5A] {
            assert_eq!(plan.corrupt_history(h), h);
        }
    }

    #[test]
    fn snapshot_resume_replays_remaining_fault_sequence() {
        let cfg = FaultConfig::state_only(0.05, 0xC0FFEE);
        let mut reference = FaultPlan::new(&cfg);
        for _ in 0..10_000 {
            reference.next_fault(4096);
        }
        let snap = reference.save_state();

        let mut resumed = FaultPlan::new(&cfg);
        resumed.restore_state(&snap).unwrap();
        assert_eq!(resumed.state_digest(), reference.state_digest());
        assert_eq!(resumed.accesses(), reference.accesses());
        assert_eq!(resumed.injected(), reference.injected());

        for _ in 0..10_000 {
            assert_eq!(reference.next_fault(4096), resumed.next_fault(4096));
        }
        assert_eq!(resumed.state_digest(), reference.state_digest());
    }

    #[test]
    fn digest_tracks_plan_progress() {
        let cfg = FaultConfig::state_only(0.5, 1);
        let mut plan = FaultPlan::new(&cfg);
        let d0 = plan.state_digest();
        plan.next_fault(64);
        assert_ne!(plan.state_digest(), d0);
    }
}
