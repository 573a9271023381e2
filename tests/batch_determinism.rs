//! Determinism suite for grouped execution.
//!
//! A fault-sweep batch group (`faults::batch_specs`, `repro faults
//! --batch N`) shares one trace-level pass per workload and then runs
//! its members' pipeline legs one at a time through
//! `common::run_pipeline_checkpointed`. These tests pin what that
//! promises:
//!
//! 1. checkpoint level — partials that older builds' interleaved loop
//!    wrote mid-batch resume to the uninterrupted result;
//! 2. group level — a group that dies in one member's leg keeps the
//!    partials of the legs it finished, and a resume continues them;
//! 3. sweep level — `run_grid_batched` vs `run_grid` byte-identical
//!    JSON + rendered table, including a batch-prefix kill + resume
//!    and a batched sweep's checkpoints consumed by the sequential
//!    scheduler path.

use perconf_bpred::{baseline_bimodal_gshare, SimPredictor, Snapshot};
use perconf_core::{
    JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator, SpeculationController,
};
use perconf_experiments::common::{run_pipeline_checkpointed, Scale};
use perconf_experiments::faults::{self, FaultTable, Grid};
use perconf_experiments::runner::{
    partial_path, BatchSpec, CheckpointCell, RunnerConfig, Scheduler, SchedulerConfig,
};
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_pipeline::{Controller, PipelineConfig, SimStats, Simulation};
use perconf_workload::WorkloadConfig;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BENCHES: [&str; 4] = ["gcc", "twolf", "mcf", "gzip"];
const INTERVAL: u64 = 7_000;

/// Member `i`'s workload: cycle through four benchmarks.
fn member_wl(i: usize) -> WorkloadConfig {
    perconf_workload::spec2000_config(BENCHES[i % BENCHES.len()]).expect("known benchmark")
}

/// Member `i`'s controller: faults-wrapped predictor + estimator, with
/// per-member fault rates/seeds and alternating estimator kinds, so a
/// batch mixes fault-free members with heavily faulted ones.
fn member_ctl(i: usize) -> Controller {
    let rate = [0.0, 1e-4, 1e-3][i % 3];
    let salt = i as u64 * 0x9E37_79B9;
    let cfg_p = FaultConfig {
        rate,
        history_rate: rate,
        seed: 0x11 ^ salt,
    };
    let cfg_e = FaultConfig::state_only(rate, 0x22 ^ salt);
    let est: Box<dyn perconf_core::FaultableEstimator> = if i.is_multiple_of(2) {
        Box::new(PerceptronCe::new(PerceptronCeConfig::default()))
    } else {
        Box::new(JrsEstimator::new(JrsConfig {
            lambda: 1,
            ..JrsConfig::default()
        }))
    };
    SpeculationController::new(
        Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p)) as Box<dyn SimPredictor>,
        Box::new(FaultyEstimator::new(est, &cfg_e)) as Box<dyn SimEstimator>,
    )
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perconf-batch-determinism-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn mid_batch_kill_resumes_across_batch_and_sequential_paths() {
    let scale = Scale::tiny();
    let cfg = PipelineConfig::deep().gated(1);
    let dir = fresh_dir("kill");
    let n = 3usize;
    let wls: Vec<WorkloadConfig> = (0..n).map(member_wl).collect();

    // Uninterrupted sequential references.
    let mut refs = Vec::new();
    for (i, wl) in wls.iter().enumerate() {
        let sim = run_pipeline_checkpointed(
            wl,
            cfg,
            || member_ctl(i),
            scale,
            &CheckpointCell::disabled(),
            INTERVAL,
        )
        .expect("reference member");
        refs.push((sim.stats().clone(), sim.state_digest()));
    }

    let store = |cell: &CheckpointCell, phase: u64, sim: &Simulation| {
        cell.store(|| {
            Value::Object(vec![
                ("phase".into(), Value::UInt(phase)),
                ("sim".into(), sim.save_state()),
            ])
        });
    };

    // A *batch* killed mid-warmup, as older builds' interleaved loop
    // ran one: advance every member two checkpoint legs, persist its
    // {phase, sim} partial — the bytes that loop stored, since an
    // interleaved member matches plain `try_run` legs call for call —
    // then abandon it.
    let cells: Vec<CheckpointCell> = (0..n)
        .map(|i| CheckpointCell::at(dir.join(format!("batch-killed-{i}.part.psnap"))))
        .collect();
    for (i, cell) in cells.iter().enumerate() {
        let mut sim = Simulation::new(cfg, &wls[i], member_ctl(i));
        for leg in 0..2 {
            sim.try_run(INTERVAL)
                .unwrap_or_else(|e| panic!("member {i} warmup leg {leg}: {e:?}"));
        }
        store(cell, 0, &sim);
    }

    // ... and resumed through the one checkpointed loop: every member
    // must land on the uninterrupted result.
    for (i, wl) in wls.iter().enumerate() {
        let sim = run_pipeline_checkpointed(wl, cfg, || member_ctl(i), scale, &cells[i], INTERVAL)
            .expect("sequential resume of batch-killed member");
        assert_eq!(
            sim.stats(),
            &refs[i].0,
            "member {i}: resumed stats diverged"
        );
        assert_eq!(
            sim.state_digest(),
            refs[i].1,
            "member {i}: resumed state diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A three-member group whose work runs each pending member's leg
/// through the one checkpointed loop and yields its stats and state
/// digest. While `trap` is set, the work clears it and panics right
/// after member 1's leg: a group dying between two legs.
fn three_legs(keys: &[String], trap: &Arc<AtomicBool>) -> BatchSpec<(SimStats, u64)> {
    let trap = Arc::clone(trap);
    BatchSpec::new(keys.to_vec(), move |idxs, cells| {
        idxs.iter()
            .map(|&i| {
                let sim = run_pipeline_checkpointed(
                    &member_wl(i),
                    PipelineConfig::deep().gated(1),
                    || member_ctl(i),
                    Scale::tiny(),
                    &cells[i],
                    INTERVAL,
                )
                .expect("leg");
                if i == 1 && trap.swap(false, Ordering::SeqCst) {
                    panic!("group dies after member 1's leg");
                }
                (sim.stats().clone(), sim.state_digest())
            })
            .collect()
    })
}

#[test]
fn a_dying_group_keeps_its_finished_legs() {
    let dir = fresh_dir("dying-group");
    let keys: Vec<String> = (0..3).map(|i| format!("leg-{i}")).collect();
    let unarmed = Arc::new(AtomicBool::new(false));
    let reference = scheduler(1, None).run_batches(vec![three_legs(&keys, &unarmed)]);

    let trap = Arc::new(AtomicBool::new(true));
    let died = scheduler(1, Some(&dir)).run_batches(vec![three_legs(&keys, &trap)]);
    assert_eq!(
        died.failures().len(),
        3,
        "the attempt is charged to every member"
    );
    let kept: Vec<bool> = keys
        .iter()
        .map(|k| partial_path(&dir, k).exists())
        .collect();
    assert_eq!(kept, [true, true, false], "partials after the group died");

    let resumed = scheduler(1, Some(&dir)).run_batches(vec![three_legs(&keys, &trap)]);
    let mid: Vec<bool> = resumed.cells.iter().map(|c| c.resumed_mid_cell).collect();
    assert_eq!(mid, [true, true, false]);
    for (r, want) in resumed.cells.iter().zip(&reference.cells) {
        assert_eq!(
            r.outcome.as_ref().expect("resumed member"),
            want.outcome.as_ref().expect("reference member"),
            "{}: resumed result diverged",
            r.key
        );
    }
    assert!(
        keys.iter().all(|k| !partial_path(&dir, k).exists()),
        "the runner deletes each partial after writing the final result"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn scheduler(jobs: usize, dir: Option<&Path>) -> Scheduler {
    let runner = match dir {
        Some(d) => RunnerConfig {
            timeout: None,
            retries: 0,
            ..RunnerConfig::resuming(d)
        },
        None => RunnerConfig {
            checkpoint_dir: None,
            timeout: None,
            retries: 0,
            ..RunnerConfig::default()
        },
    };
    Scheduler::new(SchedulerConfig { runner, jobs })
}

/// The byte-level view CI's `diff` compares: pretty JSON + rendered
/// table.
fn bytes(t: &FaultTable) -> (String, String) {
    (
        serde_json::to_string_pretty(t).expect("serialize"),
        t.render(),
    )
}

#[test]
fn batched_sweep_byte_identical_and_resumes_after_kill() {
    const SEED: u64 = 11;
    let g = Grid {
        estimators: vec!["jrs".to_owned()],
        benchmarks: vec!["gcc".to_owned(), "twolf".to_owned()],
        rates: vec![0.0, 1e-2],
    };

    let (seq, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut scheduler(1, None));
    assert_eq!(seq.cells.len(), g.cell_count());
    assert!(seq.failed.is_empty());

    // Every batch width merges to the same bytes as the sequential
    // sweep, on one worker or several.
    for width in [1usize, 3, 8] {
        let (bat, _) =
            faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(2, None), width);
        assert_eq!(
            bytes(&seq),
            bytes(&bat),
            "--batch {width} diverged from sequential"
        );
    }

    // Kill after the first batch group completed: run only the first
    // BatchSpec into a resume dir, then resume the full batched sweep.
    let dir = fresh_dir("sweep-resume");
    let prefix: Vec<_> = faults::batch_specs(Scale::tiny(), SEED, &g, 3)
        .into_iter()
        .take(1)
        .collect();
    let partial = scheduler(2, Some(&dir)).run_batches(prefix);
    assert_eq!(partial.executed(), 3);
    assert!(partial.failures().is_empty());

    let (resumed, _) =
        faults::run_grid_batched(Scale::tiny(), SEED, &g, &mut scheduler(2, Some(&dir)), 3);
    assert_eq!(
        bytes(&seq),
        bytes(&resumed),
        "resumed batched sweep diverged from the uninterrupted sequential one"
    );

    // The batched sweep's final checkpoints now cover every cell; the
    // *sequential* scheduler path must consume them unchanged.
    let (cross, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut scheduler(1, Some(&dir)));
    assert_eq!(
        bytes(&seq),
        bytes(&cross),
        "sequential resume from batch-written checkpoints diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
