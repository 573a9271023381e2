use std::cell::RefCell;

use perconf_bpred::{BranchPredictor, FaultableState, Snapshot, SnapshotError};
use perconf_core::{ConfidenceEstimator, Estimate, EstimateCtx};
use serde::Value;

use crate::plan::{FaultConfig, FaultPlan};

/// Pulls a named component out of a two-field wrapper snapshot.
fn component<'v>(state: &'v Value, name: &str) -> Result<&'v Value, SnapshotError> {
    if let Value::Object(fields) = state {
        if let Some((_, v)) = fields.iter().find(|(k, _)| k == name) {
            return Ok(v);
        }
    }
    Err(SnapshotError::msg(format!(
        "fault-wrapper snapshot missing `{name}`"
    )))
}

/// A [`BranchPredictor`] adapter that injects seeded single-bit faults
/// into the wrapped predictor's state.
///
/// Every `predict` and every `train` counts as one access against the
/// plan's per-access rate; a firing access flips one uniformly chosen
/// bit of the wrapped structure *before* the operation runs, so the
/// operation observes (and trains on) the corrupted state — the way a
/// real SRAM upset would be consumed. Lookups additionally pass the
/// in-flight history through the plan's transient-history process.
///
/// `predict` takes `&self`, so both the plan and the wrapped predictor
/// live behind [`RefCell`]s; the adapter is consequently `!Sync`, like
/// any single-threaded simulator component.
///
/// With [`FaultConfig::none`] the adapter is a bit-identical
/// passthrough: no RNG draws, no state perturbation.
#[derive(Debug)]
pub struct FaultyPredictor<P> {
    inner: RefCell<P>,
    plan: RefCell<FaultPlan>,
}

impl<P: BranchPredictor + FaultableState> FaultyPredictor<P> {
    /// Wraps `inner` under the fault campaign `cfg`.
    #[must_use]
    pub fn new(inner: P, cfg: &FaultConfig) -> Self {
        Self {
            inner: RefCell::new(inner),
            plan: RefCell::new(FaultPlan::new(cfg)),
        }
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.plan.borrow().injected()
    }

    /// Number of accesses (predicts + trains) the plan has counted.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.plan.borrow().accesses()
    }

    /// Unwraps the (possibly corrupted) predictor.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.inner.into_inner()
    }

    fn inject(&self, p: &mut P) {
        if let Some(bit) = self.plan.borrow_mut().next_fault(p.state_bits()) {
            p.flip_state_bit(bit);
        }
    }
}

impl<P: BranchPredictor + FaultableState> BranchPredictor for FaultyPredictor<P> {
    fn predict(&self, pc: u64, hist: u64) -> bool {
        let mut p = self.inner.borrow_mut();
        self.inject(&mut p);
        let hist = self.plan.borrow_mut().corrupt_history(hist);
        p.predict(pc, hist)
    }

    fn train(&mut self, pc: u64, hist: u64, taken: bool) {
        let p = self.inner.get_mut();
        if let Some(bit) = self.plan.get_mut().next_fault(p.state_bits()) {
            p.flip_state_bit(bit);
        }
        p.train(pc, hist, taken);
    }

    fn name(&self) -> &'static str {
        self.inner.borrow().name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.borrow().storage_bits()
    }
}

impl<P: BranchPredictor + FaultableState> FaultableState for FaultyPredictor<P> {
    fn state_bits(&self) -> u64 {
        self.inner.borrow().state_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) {
        self.inner.get_mut().flip_state_bit(bit);
    }
}

impl<P: Snapshot> Snapshot for FaultyPredictor<P> {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("inner".into(), self.inner.borrow().save_state()),
            ("plan".into(), self.plan.borrow().save_state()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        self.inner
            .get_mut()
            .restore_state(component(state, "inner")?)?;
        self.plan.get_mut().restore_state(component(state, "plan")?)
    }
}

/// A [`ConfidenceEstimator`] adapter mirroring [`FaultyPredictor`]:
/// seeded single-bit upsets in the estimator's state (perceptron
/// weights, miss-distance counters, local histories), plus transient
/// corruption of the history snapshot seen at estimate time.
#[derive(Debug)]
pub struct FaultyEstimator<E> {
    inner: RefCell<E>,
    plan: RefCell<FaultPlan>,
}

impl<E: ConfidenceEstimator + FaultableState> FaultyEstimator<E> {
    /// Wraps `inner` under the fault campaign `cfg`.
    #[must_use]
    pub fn new(inner: E, cfg: &FaultConfig) -> Self {
        Self {
            inner: RefCell::new(inner),
            plan: RefCell::new(FaultPlan::new(cfg)),
        }
    }

    /// Number of faults injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.plan.borrow().injected()
    }

    /// Number of accesses (estimates + trains) the plan has counted.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.plan.borrow().accesses()
    }

    /// Unwraps the (possibly corrupted) estimator.
    #[must_use]
    pub fn into_inner(self) -> E {
        self.inner.into_inner()
    }
}

impl<E: ConfidenceEstimator + FaultableState> ConfidenceEstimator for FaultyEstimator<E> {
    fn estimate(&self, ctx: &EstimateCtx) -> Estimate {
        let mut e = self.inner.borrow_mut();
        if let Some(bit) = self.plan.borrow_mut().next_fault(e.state_bits()) {
            e.flip_state_bit(bit);
        }
        let faulted = EstimateCtx {
            history: self.plan.borrow_mut().corrupt_history(ctx.history),
            ..*ctx
        };
        e.estimate(&faulted)
    }

    fn train(&mut self, ctx: &EstimateCtx, est: Estimate, mispredicted: bool) {
        let e = self.inner.get_mut();
        if let Some(bit) = self.plan.get_mut().next_fault(e.state_bits()) {
            e.flip_state_bit(bit);
        }
        e.train(ctx, est, mispredicted);
    }

    fn name(&self) -> &'static str {
        self.inner.borrow().name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.borrow().storage_bits()
    }
}

impl<E: ConfidenceEstimator + FaultableState> FaultableState for FaultyEstimator<E> {
    fn state_bits(&self) -> u64 {
        self.inner.borrow().state_bits()
    }

    fn flip_state_bit(&mut self, bit: u64) {
        self.inner.get_mut().flip_state_bit(bit);
    }
}

impl<E: Snapshot> Snapshot for FaultyEstimator<E> {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("inner".into(), self.inner.borrow().save_state()),
            ("plan".into(), self.plan.borrow().save_state()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        self.inner
            .get_mut()
            .restore_state(component(state, "inner")?)?;
        self.plan.get_mut().restore_state(component(state, "plan")?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perconf_bpred::{baseline_bimodal_gshare, Bimodal};
    use perconf_core::{JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Drives `reference` and `faulty` through the same deterministic
    /// branch stream and returns how many predictions differed.
    fn diff_count(
        reference: &mut dyn BranchPredictor,
        faulty: &mut dyn BranchPredictor,
        branches: u64,
    ) -> u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let mut hist = 0u64;
        let mut diffs = 0u64;
        for _ in 0..branches {
            let pc = u64::from(rng.gen_range(0u32..512)) << 2;
            // Mostly-biased outcome with some noise, like real branches.
            let taken = (pc & 4 == 0) ^ rng.gen_bool(0.1);
            if reference.predict(pc, hist) != faulty.predict(pc, hist) {
                diffs += 1;
            }
            reference.train(pc, hist, taken);
            faulty.train(pc, hist, taken);
            hist = (hist << 1) | u64::from(taken);
        }
        diffs
    }

    #[test]
    fn zero_rate_predictor_is_bit_identical_over_100k_branches() {
        let mut reference = baseline_bimodal_gshare();
        let mut faulty = FaultyPredictor::new(baseline_bimodal_gshare(), &FaultConfig::none());
        assert_eq!(diff_count(&mut reference, &mut faulty, 100_000), 0);
        assert_eq!(faulty.injected(), 0);
    }

    #[test]
    fn nonzero_rate_perturbs_predictions() {
        let mut reference = Bimodal::new(9);
        let cfg = FaultConfig::state_only(0.02, 42);
        let mut faulty = FaultyPredictor::new(Bimodal::new(9), &cfg);
        assert!(diff_count(&mut reference, &mut faulty, 20_000) > 0);
        assert!(faulty.injected() > 0);
    }

    #[test]
    fn same_seed_gives_identical_faulty_runs() {
        let cfg = FaultConfig::state_only(0.01, 0xFA);
        let mut a = FaultyPredictor::new(Bimodal::new(9), &cfg);
        let mut b = FaultyPredictor::new(Bimodal::new(9), &cfg);
        assert_eq!(diff_count(&mut a, &mut b, 50_000), 0);
        assert_eq!(a.injected(), b.injected());
        assert!(a.injected() > 0);
    }

    #[test]
    fn zero_rate_estimator_is_bit_identical_over_100k_branches() {
        let mut reference = PerceptronCe::new(PerceptronCeConfig::default());
        let mut faulty = FaultyEstimator::new(
            PerceptronCe::new(PerceptronCeConfig::default()),
            &FaultConfig::none(),
        );
        let mut rng = SmallRng::seed_from_u64(0xE57);
        let mut hist = 0u64;
        for _ in 0..100_000u32 {
            let ctx = EstimateCtx {
                pc: u64::from(rng.gen_range(0u32..512)) << 2,
                history: hist,
                predicted_taken: rng.gen_bool(0.5),
            };
            let er = reference.estimate(&ctx);
            let ef = faulty.estimate(&ctx);
            assert_eq!(er.raw, ef.raw);
            assert_eq!(er.class, ef.class);
            let miss = rng.gen_bool(0.08);
            reference.train(&ctx, er, miss);
            faulty.train(&ctx, ef, miss);
            hist = (hist << 1) | u64::from(ctx.predicted_taken != miss);
        }
        assert_eq!(faulty.injected(), 0);
        assert_eq!(faulty.accesses(), 200_000);
    }

    #[test]
    fn faulted_estimator_diverges_from_reference() {
        let reference = JrsEstimator::new(JrsConfig::default());
        let cfg = FaultConfig::state_only(1.0, 1);
        let faulty = FaultyEstimator::new(JrsEstimator::new(JrsConfig::default()), &cfg);
        let mut diffs = 0u32;
        for pc in (0..4096u64).step_by(4) {
            let ctx = EstimateCtx {
                pc,
                history: 0,
                predicted_taken: true,
            };
            if reference.estimate(&ctx).raw != faulty.estimate(&ctx).raw {
                diffs += 1;
            }
        }
        assert!(diffs > 0);
        assert_eq!(faulty.injected(), 1024);
    }

    #[test]
    fn wrappers_compose_as_trait_objects() {
        let cfg = FaultConfig::state_only(0.5, 9);
        let boxed: Box<dyn perconf_bpred::FaultablePredictor> = Box::new(baseline_bimodal_gshare());
        let faulty = FaultyPredictor::new(boxed, &cfg);
        let as_predictor: Box<dyn BranchPredictor> = Box::new(faulty);
        let _ = as_predictor.predict(0x40, 0);
        assert!(as_predictor.storage_bits() > 0);
    }

    #[test]
    fn snapshot_resumes_a_faulty_run_bit_identically() {
        let cfg = FaultConfig::state_only(0.01, 0xFEED);
        let mut reference = FaultyPredictor::new(Bimodal::new(9), &cfg);
        let mut rng = SmallRng::seed_from_u64(0x1234);
        let mut hist = 0u64;
        for _ in 0..20_000u32 {
            let pc = u64::from(rng.gen_range(0u32..512)) << 2;
            let taken = pc & 4 == 0;
            reference.predict(pc, hist);
            reference.train(pc, hist, taken);
            hist = (hist << 1) | u64::from(taken);
        }
        let snap = reference.save_state();

        let mut resumed = FaultyPredictor::new(Bimodal::new(9), &cfg);
        resumed.restore_state(&snap).unwrap();
        assert_eq!(resumed.state_digest(), reference.state_digest());
        assert_eq!(resumed.injected(), reference.injected());

        // Identical faults and identical predictions from here on.
        for _ in 0..20_000u32 {
            let pc = u64::from(rng.gen_range(0u32..512)) << 2;
            let taken = pc & 4 == 0;
            assert_eq!(reference.predict(pc, hist), resumed.predict(pc, hist));
            reference.train(pc, hist, taken);
            resumed.train(pc, hist, taken);
            hist = (hist << 1) | u64::from(taken);
        }
        assert_eq!(resumed.state_digest(), reference.state_digest());
    }

    #[test]
    fn estimator_snapshot_round_trips() {
        let cfg = FaultConfig::state_only(0.05, 3);
        let faulty = FaultyEstimator::new(PerceptronCe::new(PerceptronCeConfig::default()), &cfg);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut warm = FaultyEstimator::new(PerceptronCe::new(PerceptronCeConfig::default()), &cfg);
        for _ in 0..5_000u32 {
            let ctx = EstimateCtx {
                pc: u64::from(rng.gen_range(0u32..256)) << 2,
                history: rng.gen(),
                predicted_taken: rng.gen_bool(0.5),
            };
            let est = warm.estimate(&ctx);
            warm.train(&ctx, est, rng.gen_bool(0.1));
        }
        let mut restored = faulty;
        restored.restore_state(&warm.save_state()).unwrap();
        assert_eq!(restored.state_digest(), warm.state_digest());
        assert_eq!(restored.accesses(), warm.accesses());
    }

    #[test]
    fn restore_rejects_a_malformed_snapshot() {
        let mut p = FaultyPredictor::new(Bimodal::new(4), &FaultConfig::none());
        let err = p.restore_state(&serde::Value::Null).unwrap_err();
        assert!(err.to_string().contains("inner"));
    }

    #[test]
    fn name_and_storage_pass_through() {
        let p = FaultyPredictor::new(Bimodal::new(4), &FaultConfig::none());
        assert_eq!(p.name(), Bimodal::new(4).name());
        assert_eq!(p.storage_bits(), Bimodal::new(4).storage_bits());
    }
}
