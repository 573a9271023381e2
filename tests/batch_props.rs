//! Seeded property test for the one checkpointed pipeline loop:
//! random (fault plan, checkpoint interval, kill boundary) triples
//! must leave a resumed run's stats and state digest equal to an
//! uninterrupted one. Runs in the CI determinism lane.
//!
//! Each trial draws a fault plan (rate × seed × benchmark × estimator
//! kind), an interval, and the boundary a kill strikes after. It runs
//! the loop's schedule by hand to that boundary with a live checkpoint
//! cell, stores the `{phase, sim}` partial there as the loop does, and
//! drops the machine. `run_pipeline_checkpointed` then resumes from the
//! partial, and the result must match a run with a disabled cell in
//! [`SimStats`] and the FNV state digest.

use perconf_bpred::{baseline_bimodal_gshare, SimPredictor, Snapshot};
use perconf_core::{
    JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator, SpeculationController,
};
use perconf_experiments::common::{run_pipeline_checkpointed, Scale};
use perconf_experiments::runner::CheckpointCell;
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_pipeline::{Controller, PipelineConfig, SimError, Simulation};
use perconf_workload::WorkloadConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::path::PathBuf;

const BENCHES: [&str; 4] = ["gcc", "twolf", "mcf", "gzip"];
const RATES: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// One member's randomly drawn configuration.
#[derive(Debug, Clone)]
struct Plan {
    bench: &'static str,
    rate: f64,
    seed: u64,
    perceptron: bool,
}

impl Plan {
    fn draw(rng: &mut SmallRng) -> Self {
        Plan {
            bench: BENCHES[rng.gen_range(0..BENCHES.len())],
            rate: RATES[rng.gen_range(0..RATES.len())],
            seed: rng.gen_range(0u64..u64::MAX),
            perceptron: rng.gen_range(0u32..2) == 0,
        }
    }

    fn wl(&self) -> WorkloadConfig {
        perconf_workload::spec2000_config(self.bench).expect("known benchmark")
    }

    fn ctl(&self) -> Controller {
        let cfg_p = FaultConfig {
            rate: self.rate,
            history_rate: self.rate,
            seed: self.seed ^ 0x11,
        };
        let cfg_e = FaultConfig::state_only(self.rate, self.seed ^ 0x22);
        let est: Box<dyn perconf_core::FaultableEstimator> = if self.perceptron {
            Box::new(PerceptronCe::new(PerceptronCeConfig::default()))
        } else {
            Box::new(JrsEstimator::new(JrsConfig {
                lambda: 1,
                ..JrsConfig::default()
            }))
        };
        SpeculationController::new(
            Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p))
                as Box<dyn SimPredictor>,
            Box::new(FaultyEstimator::new(est, &cfg_e)) as Box<dyn SimEstimator>,
        )
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("perconf-batch-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs the loop's checkpoint schedule by hand (warmup boundaries,
/// the end of warmup stored once in the run phase, run boundaries),
/// storing each boundary's `{phase, sim}` partial into `cell` until
/// boundary `kill` has been stored, then drops the machine. A `kill`
/// past the last boundary leaves the last one's partial, as a run
/// killed after its final chunk does. Returns the boundaries stored.
fn run_until_killed(
    mut sim: Simulation,
    scale: Scale,
    interval: u64,
    cell: &CheckpointCell,
    kill: usize,
) -> Result<usize, SimError> {
    let mut stored = 0;
    let mut boundary = |sim: &Simulation, phase: u64| {
        cell.store(|| {
            Value::Object(vec![
                ("phase".into(), Value::UInt(phase)),
                ("sim".into(), sim.save_state()),
            ])
        });
        stored += 1;
        stored > kill
    };
    while sim.stats().retired < scale.warmup_uops {
        sim.try_run(interval.min(scale.warmup_uops - sim.stats().retired))?;
        if sim.stats().retired < scale.warmup_uops && boundary(&sim, 0) {
            return Ok(stored);
        }
    }
    sim.try_warmup(0)?;
    if boundary(&sim, 1) {
        return Ok(stored);
    }
    while sim.stats().retired < scale.run_uops {
        sim.try_run(interval.min(scale.run_uops - sim.stats().retired))?;
        if sim.stats().retired < scale.run_uops && boundary(&sim, 1) {
            return Ok(stored);
        }
    }
    Ok(stored)
}

#[test]
fn random_fault_plan_interval_kill_triples_are_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_BA7C);
    let scale = Scale::tiny();
    let cfg = PipelineConfig::deep().gated(1);
    let dir = fresh_dir("trials");

    for trial in 0..5u32 {
        let plan = Plan::draw(&mut rng);
        let interval = rng.gen_range(3_000u64..30_000);
        let boundaries = (scale.warmup_uops - 1) / interval + 1 + (scale.run_uops - 1) / interval;
        let kill = rng.gen_range(0..boundaries as usize);
        let wl = plan.wl();
        let what = format!("trial {trial} ({plan:?}, interval {interval}, kill {kill})");

        let reference = run_pipeline_checkpointed(
            &wl,
            cfg,
            || plan.ctl(),
            scale,
            &CheckpointCell::disabled(),
            interval,
        )
        .unwrap_or_else(|e| panic!("{what}: reference: {e:?}"));

        let cell = CheckpointCell::at(dir.join(format!("t{trial}.part.psnap")));
        let killed = Simulation::new(cfg, &wl, plan.ctl());
        let stored = run_until_killed(killed, scale, interval, &cell, kill)
            .unwrap_or_else(|e| panic!("{what}: killed run: {e:?}"));
        assert!(stored > 0, "{what}: no partial to resume from");
        let resumed = run_pipeline_checkpointed(&wl, cfg, || plan.ctl(), scale, &cell, interval)
            .unwrap_or_else(|e| panic!("{what}: resume: {e:?}"));
        assert_eq!(resumed.stats(), reference.stats(), "{what}: stats diverged");
        assert_eq!(
            resumed.state_digest(),
            reference.state_digest(),
            "{what}: state diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
