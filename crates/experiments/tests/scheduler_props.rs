//! Property tests for the parallel sweep scheduler: across randomized
//! cell counts, worker counts, and per-cell failure injection (panics
//! and watchdog timeouts drawn from a seeded `perconf_faults` plan),
//! every submitted cell is reported exactly once, in submission order,
//! with a terminal status — and no coordinator worker leaks past
//! `run_cells`.

// Test deadlines: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::runner::{CellSpec, RunError, RunnerConfig, Scheduler, SchedulerConfig};
use perconf_experiments::{common, faults, Scale};
use perconf_faults::{FaultConfig, FaultPlan};
use perconf_obs::TraceLevel;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the seeded plan tells one cell to do.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Behavior {
    Ok,
    Panic,
    Timeout,
    /// Fails the first attempt, succeeds on retry.
    FlakyThenOk,
}

/// Draws a deterministic behavior per cell from a `FaultPlan` — the
/// same seeded upset machinery the fault sweep injects with, repointed
/// at the scheduler itself. Rate 0.25 keeps roughly a quarter of the
/// cells hostile.
fn behaviors(seed: u64, n: usize) -> Vec<Behavior> {
    let mut plan = FaultPlan::new(&FaultConfig::state_only(0.25, seed));
    (0..n)
        .map(|_| match plan.next_fault(3) {
            None => Behavior::Ok,
            Some(0) => Behavior::Panic,
            Some(1) => Behavior::Timeout,
            Some(_) => Behavior::FlakyThenOk,
        })
        .collect()
}

fn specs(behaviors: &[Behavior], attempts: &Arc<AtomicU32>) -> Vec<CellSpec<u64>> {
    behaviors
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let b = *b;
            let first_try = Arc::new(AtomicU32::new(1));
            let attempts = Arc::clone(attempts);
            CellSpec::new(format!("cell-{i:03}"), move |_chk| {
                attempts.fetch_add(1, Ordering::SeqCst);
                match b {
                    Behavior::Ok => {}
                    Behavior::Panic => panic!("injected panic in cell {i}"),
                    Behavior::Timeout => std::thread::sleep(Duration::from_secs(3600)),
                    Behavior::FlakyThenOk => {
                        if first_try.swap(0, Ordering::SeqCst) == 1 {
                            panic!("injected flake in cell {i}");
                        }
                    }
                }
                i as u64 * 10
            })
        })
        .collect()
}

#[test]
fn every_cell_reports_exactly_once_with_terminal_status() {
    // A modest matrix of (seed, cell count, workers): enough draws to
    // cover empty sweeps, fewer cells than workers, and more cells
    // than workers, with different injected failure patterns each.
    for (seed, n, jobs) in [
        (1u64, 0usize, 4usize),
        (2, 1, 4),
        (3, 3, 8),
        (4, 17, 4),
        (5, 17, 1),
        (6, 30, 6),
    ] {
        let plan = behaviors(seed, n);
        let attempts = Arc::new(AtomicU32::new(0));
        let mut scheduler = Scheduler::new(SchedulerConfig {
            runner: RunnerConfig {
                checkpoint_dir: None,
                // Short watchdog so injected hangs resolve quickly;
                // one retry so FlakyThenOk cells can recover.
                timeout: Some(Duration::from_millis(200)),
                retries: 1,
                backoff: Duration::from_millis(1),
            },
            jobs,
        });
        let report = scheduler.run_cells(specs(&plan, &attempts));

        // Exactly one report per submitted cell, in submission order.
        assert_eq!(report.cells.len(), n, "seed {seed}");
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.key, format!("cell-{i:03}"), "seed {seed}");
        }

        // Every report carries a terminal status matching its injected
        // behavior: Ok/Flaky succeed, Panic exhausts retries with a
        // Panic error, Timeout with a Timeout error.
        let mut expected_attempts = 0u32;
        for (i, (cell, b)) in report.cells.iter().zip(&plan).enumerate() {
            match b {
                Behavior::Ok => {
                    assert_eq!(cell.outcome.as_ref().ok(), Some(&(i as u64 * 10)));
                    assert_eq!(cell.attempts, 1);
                    expected_attempts += 1;
                }
                Behavior::FlakyThenOk => {
                    assert_eq!(cell.outcome.as_ref().ok(), Some(&(i as u64 * 10)));
                    assert_eq!(cell.attempts, 2, "flaky cell retries once");
                    assert_eq!(cell.retries(), 1);
                    expected_attempts += 2;
                }
                Behavior::Panic => {
                    assert!(
                        matches!(cell.outcome, Err(RunError::Panic { .. })),
                        "seed {seed} cell {i}: {:?}",
                        cell.outcome
                    );
                    assert_eq!(cell.attempts, 2, "panicking cell exhausts its retry");
                    expected_attempts += 2;
                }
                Behavior::Timeout => {
                    assert!(
                        matches!(cell.outcome, Err(RunError::Timeout { .. })),
                        "seed {seed} cell {i}: {:?}",
                        cell.outcome
                    );
                    assert_eq!(cell.attempts, 2);
                    // Timed-out attempts are abandoned, not joined, so
                    // the work closure may or may not have bumped the
                    // counter yet — exclude them from the exact count.
                }
            }
        }

        // Failures surface exactly the hostile cells, in order.
        let failed_keys: Vec<&str> = report.failures().iter().map(|(k, _)| *k).collect();
        let hostile: Vec<String> = plan
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, Behavior::Panic | Behavior::Timeout))
            .map(|(i, _)| format!("cell-{i:03}"))
            .collect();
        assert_eq!(
            failed_keys,
            hostile.iter().map(String::as_str).collect::<Vec<_>>(),
            "seed {seed}"
        );

        // Attempt accounting: non-timeout cells account exactly;
        // timeout cells add at most 2 in-flight bumps each.
        let timeouts = plan
            .iter()
            .filter(|b| matches!(b, Behavior::Timeout))
            .count() as u32;
        let seen = attempts.load(Ordering::SeqCst);
        assert!(
            seen >= expected_attempts && seen <= expected_attempts + timeouts * 2,
            "seed {seed}: {seen} attempts vs expected {expected_attempts} (+{timeouts} timeouts)"
        );
        assert_eq!(
            report.executed(),
            u64::from(expected_attempts + timeouts * 2)
        );

        // No coordinator leaks: run_cells blocked until its workers
        // joined, so only watchdog-abandoned attempt threads remain,
        // and those are all from timeout cells (they drain once their
        // sleep ends — here far in the future, so count them instead).
        assert!(
            scheduler.zombie_count() <= (timeouts * 2) as usize,
            "seed {seed}"
        );
    }
}

/// Reduced fault-sweep grid shared by the counter-determinism cases:
/// one estimator, two benchmarks, two rates — four cells.
fn counter_grid() -> faults::Grid {
    faults::Grid {
        estimators: vec!["jrs".to_owned()],
        benchmarks: vec!["gcc".to_owned(), "twolf".to_owned()],
        rates: vec![0.0, 1e-2],
    }
}

fn sweep_scheduler(jobs: usize, dir: Option<&std::path::Path>) -> Scheduler {
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

#[test]
fn per_cell_counters_merge_deterministically_across_jobs_and_resume() {
    const SEED: u64 = 23;
    let g = counter_grid();

    let (seq, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut sweep_scheduler(1, None));
    assert!(seq.failed.is_empty());
    // The merged snapshot is non-trivial and carries real sim work.
    assert!(seq.counters.get("rob", "retired").unwrap_or(0) > 0);
    assert!(seq.counters.get("fetch", "cycles").unwrap_or(0) > 0);

    // Four workers: per-cell snapshots and the merged snapshot must be
    // identical to the sequential run — merge order is submission
    // order, never completion order.
    let (par, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut sweep_scheduler(4, None));
    for (a, b) in seq.cells.iter().zip(&par.cells) {
        assert_eq!(
            a.counters, b.counters,
            "cell {}/{}/{}",
            a.estimator, a.benchmark, a.rate
        );
    }
    assert_eq!(
        seq.counters, par.counters,
        "--jobs 4 merged snapshot diverged"
    );

    // Killed-and-resumed: run a two-cell prefix into a checkpoint
    // directory (a sweep killed mid-flight), then resume the full
    // sweep. Counters are derived from snapshotted state, so the
    // resumed cells must report the same numbers as uninterrupted
    // ones.
    let dir = std::env::temp_dir().join(format!("perconf-props-counters-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prefix: Vec<_> = faults::cell_specs(Scale::tiny(), SEED, &g)
        .into_iter()
        .take(2)
        .collect();
    let partial = sweep_scheduler(4, Some(&dir)).run_cells(prefix);
    assert!(partial.failures().is_empty());

    let (resumed, _) =
        faults::run_grid(Scale::tiny(), SEED, &g, &mut sweep_scheduler(4, Some(&dir)));
    assert_eq!(
        seq.counters, resumed.counters,
        "killed+resumed sweep reported different merged counters"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_and_profiling_do_not_change_sweep_results() {
    const SEED: u64 = 29;
    let g = counter_grid();
    let bytes = |t: &faults::FaultTable| serde_json::to_string_pretty(t).expect("serialize");

    // Plain run with the whole observability stack quiet.
    let (off, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut sweep_scheduler(2, None));

    // Same sweep with event tracing and profiling live. Both are
    // derived outputs: the diffable result must stay byte-identical.
    common::tracer().set_level(TraceLevel::Verbose);
    common::profiler().enable(true);
    let (on, _) = faults::run_grid(Scale::tiny(), SEED, &g, &mut sweep_scheduler(2, None));
    common::profiler().enable(false);
    common::tracer().set_level(TraceLevel::Off);
    let (events, _dropped) = common::tracer().drain();

    assert_eq!(
        bytes(&off),
        bytes(&on),
        "observability changed the sweep's diffable output"
    );
    // The instrumented run did profile real work…
    let profile = common::profiler().report();
    assert!(
        profile
            .rows
            .iter()
            .any(|r| r.name == "phase/run" && r.calls > 0),
        "profiler captured no phase/run spans: {profile:?}"
    );
    // …and captured real events.
    assert!(!events.is_empty(), "the traced sweep recorded nothing");
}

#[test]
fn sleeping_zombies_are_reaped_once_they_finish() {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            checkpoint_dir: None,
            timeout: Some(Duration::from_millis(50)),
            retries: 0,
            backoff: Duration::from_millis(1),
        },
        jobs: 2,
    });
    let report = scheduler.run_cells(vec![CellSpec::new("nap", move |_chk| {
        std::thread::sleep(Duration::from_millis(300));
        1u64
    })]);
    assert!(matches!(
        report.cells[0].outcome,
        Err(RunError::Timeout { .. })
    ));
    // The abandoned attempt finishes its nap shortly; reap until gone.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while scheduler.zombie_count() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "zombie attempt thread never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
