//! Batched multi-simulation execution.
//!
//! [`BatchSim`] interleaves N fully independent [`Simulation`]s
//! through one cycle loop, round-robining one cycle per member per
//! sweep. Members share nothing — each owns its workload generator,
//! predictor/estimator tables, caches, and statistics — so the
//! interleaving is invisible to any single member: every member's
//! cycle-by-cycle evolution, final statistics, and snapshot bytes are
//! identical to running it alone.
//!
//! No library code, and no test outside this module, calls it. The
//! fault sweep's batch groups used to step their pipeline legs through
//! it, and measured end to end that was slower and held every member's
//! machine at once: a group now runs its legs one at a time through
//! the experiments crate's one checkpointed loop. `BatchSim` stays only
//! because the benchmark's `pipeline.batch4_ratio` probe compiles
//! against `new`, `try_run` and `width`; it goes once that probe does.
//!
//! `BatchSim` steps every member one cycle at a time through
//! [`Simulation::try_step`], while [`Simulation::try_run`] jumps over
//! idle cycles. So its tests below, which compare members with
//! `try_run` legs, also check the skip against stepping. The
//! benchmark's `pipeline.batch4_ratio` compares a four-member
//! `BatchSim` with a one-member one: both sides step every cycle, so
//! the probe sees none of the skip that every experiment's legs take.
//!
//! # Determinism contract
//!
//! For every batch width, member order, and interleave schedule,
//! member `i`'s results are byte-identical to a sequential run of the
//! same simulation: same [`SimStats`](crate::SimStats), same state
//! digest, same serialized snapshot. This module's tests pin that
//! against sequential runs, which is why `tests/batch_determinism.rs`
//! can build the partials older builds' interleaved loop left in
//! resume directories from plain [`Simulation::try_run`] legs.

use crate::sim::{SimError, Simulation};

/// N independent simulations advanced through one cycle loop.
#[derive(Debug)]
pub struct BatchSim {
    sims: Vec<Simulation>,
}

impl BatchSim {
    /// Wraps the given simulations for batched execution.
    ///
    /// # Panics
    ///
    /// Panics if `sims` is empty.
    #[must_use]
    pub fn new(sims: Vec<Simulation>) -> Self {
        assert!(!sims.is_empty(), "batch needs at least one member");
        Self { sims }
    }

    /// Number of member simulations.
    #[must_use]
    pub fn width(&self) -> usize {
        self.sims.len()
    }

    /// Member `i`, immutably.
    #[must_use]
    pub fn get(&self, i: usize) -> &Simulation {
        &self.sims[i]
    }

    /// Member `i`, mutably (for per-member phase work such as
    /// [`try_warmup`](Simulation::try_warmup) or checkpointing).
    pub fn get_mut(&mut self, i: usize) -> &mut Simulation {
        &mut self.sims[i]
    }

    /// All members, in construction order.
    #[must_use]
    pub fn sims(&self) -> &[Simulation] {
        &self.sims
    }

    /// Unwraps the members, in construction order.
    #[must_use]
    pub fn into_sims(self) -> Vec<Simulation> {
        self.sims
    }

    /// Advances member `i` until `uops[i]` further correct-path uops
    /// retire, interleaving one cycle per still-active member per
    /// sweep. A member given `0` is not stepped at all.
    ///
    /// Per-member semantics — target, stall deadline, and the
    /// resulting [`SimError::Stalled`] — are exactly those of
    /// [`Simulation::try_run`] on that member alone. A member that
    /// errors is dropped from the rotation (its entry carries the
    /// error; the simulation is left at the failing cycle) while the
    /// rest continue to their targets.
    ///
    /// # Errors
    ///
    /// The per-member slot is `Err` if that member stalled past its
    /// deadline or broke a simulator invariant.
    ///
    /// # Panics
    ///
    /// Panics if `uops.len() != self.width()`.
    pub fn try_run_each(&mut self, uops: &[u64]) -> Vec<Result<(), SimError>> {
        assert_eq!(uops.len(), self.sims.len(), "one uop target per member");
        let mut out: Vec<Result<(), SimError>> = uops.iter().map(|_| Ok(())).collect();
        let mut targets = Vec::with_capacity(self.sims.len());
        let mut deadlines = Vec::with_capacity(self.sims.len());
        let mut active: Vec<usize> = Vec::with_capacity(self.sims.len());
        for (i, (&u, sim)) in uops.iter().zip(&self.sims).enumerate() {
            targets.push(sim.stats().retired + u);
            deadlines.push(sim.now() + u.max(1_000) * 400);
            if u > 0 {
                active.push(i);
            }
        }
        while !active.is_empty() {
            let mut k = 0;
            while k < active.len() {
                let i = active[k];
                let sim = &mut self.sims[i];
                if let Err(e) = sim.try_step() {
                    out[i] = Err(e);
                    active.remove(k);
                    continue;
                }
                if sim.stats().retired >= targets[i] {
                    active.remove(k);
                    continue;
                }
                if sim.now() >= deadlines[i] {
                    out[i] = Err(SimError::Stalled {
                        retired: sim.stats().retired,
                        target: targets[i],
                        cycle: sim.now(),
                    });
                    active.remove(k);
                    continue;
                }
                k += 1;
            }
        }
        out
    }

    /// [`try_run_each`](Self::try_run_each) with the same uop target
    /// for every member.
    pub fn try_run(&mut self, uops: u64) -> Vec<Result<(), SimError>> {
        let targets = vec![uops; self.sims.len()];
        self.try_run_each(&targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineConfig;
    use perconf_bpred::Snapshot;

    fn sim_for(bench: &str, cfg: PipelineConfig) -> Simulation {
        let wl = perconf_workload::spec2000_config(bench).expect("known benchmark");
        Simulation::with_defaults(cfg, &wl)
    }

    #[test]
    fn batch_members_match_sequential_runs() {
        let benches = ["gcc", "twolf", "mcf"];
        let mut expected = Vec::new();
        for b in &benches {
            let mut sim = sim_for(b, PipelineConfig::deep());
            sim.try_run(5_000).unwrap();
            expected.push((sim.stats().clone(), sim.state_digest()));
        }
        let mut batch = BatchSim::new(
            benches
                .iter()
                .map(|b| sim_for(b, PipelineConfig::deep()))
                .collect(),
        );
        for r in batch.try_run(5_000) {
            r.unwrap();
        }
        for (i, (stats, digest)) in expected.iter().enumerate() {
            assert_eq!(batch.get(i).stats(), stats, "member {i} stats diverged");
            assert_eq!(
                batch.get(i).state_digest(),
                *digest,
                "member {i} state diverged"
            );
        }
    }

    #[test]
    fn uneven_targets_and_zero_width_members() {
        // The contract is call-for-call equivalence with `try_run` —
        // a step may overshoot its retire target by up to the machine
        // width, so split runs must be compared against equally split
        // sequential runs.
        let mut solo = sim_for("gcc", PipelineConfig::shallow());
        solo.try_run(1_500).unwrap();
        solo.try_run(2_500).unwrap();

        let mut batch = BatchSim::new(vec![
            sim_for("gcc", PipelineConfig::shallow()),
            sim_for("twolf", PipelineConfig::deep()),
        ]);
        // Two uneven calls whose member-0 legs match the solo calls;
        // the zero leg must leave member 0 completely untouched.
        for r in batch.try_run_each(&[1_500, 3_000]) {
            r.unwrap();
        }
        let d0 = batch.get(0).state_digest();
        for r in batch.try_run_each(&[0, 2_000]) {
            r.unwrap();
        }
        assert_eq!(batch.get(0).state_digest(), d0, "zero target must not step");
        for r in batch.try_run_each(&[2_500, 0]) {
            r.unwrap();
        }
        assert_eq!(batch.get(0).stats(), solo.stats());
        assert_eq!(batch.get(0).state_digest(), solo.state_digest());
    }

    #[test]
    fn width_one_batch_is_the_sequential_engine() {
        let mut solo = sim_for("twolf", PipelineConfig::deep());
        solo.try_run(6_000).unwrap();
        let mut batch = BatchSim::new(vec![sim_for("twolf", PipelineConfig::deep())]);
        for r in batch.try_run(6_000) {
            r.unwrap();
        }
        assert_eq!(batch.get(0).state_digest(), solo.state_digest());
        assert_eq!(batch.get(0).stats(), solo.stats());
    }

    #[test]
    fn warmup_between_batched_legs_matches_sequential() {
        let mut solo = sim_for("gcc", PipelineConfig::deep());
        solo.try_run(3_000).unwrap();
        solo.try_warmup(0).unwrap();
        solo.try_run(3_000).unwrap();

        let mut batch = BatchSim::new(vec![
            sim_for("gcc", PipelineConfig::deep()),
            sim_for("mcf", PipelineConfig::deep()),
        ]);
        for r in batch.try_run(3_000) {
            r.unwrap();
        }
        batch.get_mut(0).try_warmup(0).unwrap();
        batch.get_mut(1).try_warmup(0).unwrap();
        for r in batch.try_run(3_000) {
            r.unwrap();
        }
        assert_eq!(batch.get(0).stats(), solo.stats());
        assert_eq!(batch.get(0).state_digest(), solo.state_digest());
    }
}
