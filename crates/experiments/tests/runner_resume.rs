//! End-to-end resilience of the sweep runner: a mid-sweep panic must
//! not lose finished cells, and a resumed sweep must re-execute only
//! the cell that failed.

use perconf_experiments::runner::{
    CellSpec, RunError, RunnerConfig, Scheduler, SchedulerConfig, SweepReport,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CELLS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perconf-runner-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One pass over the four cells on a one-job scheduler.
fn sweep(
    dir: &std::path::Path,
    poison: Option<&str>,
    calls: &Arc<AtomicU32>,
) -> SweepReport<String> {
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            retries: 0,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::resuming(dir)
        },
        jobs: 1,
    });
    let cells = CELLS
        .iter()
        .map(|&cell| {
            let c = Arc::clone(calls);
            let poisoned = poison == Some(cell);
            let name = cell.to_owned();
            CellSpec::new(cell, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                assert!(!poisoned, "injected failure in {name}");
                format!("result of {name}")
            })
        })
        .collect();
    scheduler.run_cells(cells)
}

#[test]
fn panicking_cell_fails_alone_and_resume_reruns_only_it() {
    let dir = fresh_dir("sweep");

    // First pass: "gamma" panics mid-sweep. The other three cells
    // complete and are checkpointed; the sweep itself survives.
    let calls = Arc::new(AtomicU32::new(0));
    let report = sweep(&dir, Some("gamma"), &calls);
    assert_eq!(calls.load(Ordering::SeqCst), 4, "every cell executed");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), 3);
    assert!(matches!(
        report.cells[2].outcome,
        Err(RunError::Panic { .. })
    ));
    assert_eq!(report.failures().len(), 1);
    assert_eq!(report.failures()[0].0, "gamma");
    for cell in ["alpha", "beta", "delta"] {
        assert!(
            dir.join(format!("{cell}.json")).is_file(),
            "{cell} should be checkpointed"
        );
    }
    assert!(!dir.join("gamma.json").is_file());
    assert!(
        dir.join("gamma.failed.json").is_file(),
        "failed cell leaves a marker"
    );

    // Second pass with the panic gone: only the failed cell runs, the
    // rest are loaded from their checkpoints, and its marker clears.
    let calls = Arc::new(AtomicU32::new(0));
    let report = sweep(&dir, None, &calls);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "resume must re-execute only the failed cell"
    );
    assert!(report.cells.iter().all(|c| c.outcome.is_ok()));
    assert_eq!(report.cells[2].outcome.as_ref().unwrap(), "result of gamma");
    assert_eq!(report.resumed(), 3);
    assert_eq!(report.executed(), 1);
    assert!(report.failures().is_empty());
    assert!(!dir.join("gamma.failed.json").is_file());

    // Third pass: nothing left to do.
    let calls = Arc::new(AtomicU32::new(0));
    let report = sweep(&dir, None, &calls);
    assert_eq!(calls.load(Ordering::SeqCst), 0);
    assert_eq!(report.resumed(), 4);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_is_recomputed_not_trusted() {
    let dir = fresh_dir("corrupt");

    let calls = Arc::new(AtomicU32::new(0));
    sweep(&dir, None, &calls);
    assert_eq!(calls.load(Ordering::SeqCst), 4);
    std::fs::write(dir.join("beta.json"), "{ not json").unwrap();

    let calls = Arc::new(AtomicU32::new(0));
    let report = sweep(&dir, None, &calls);
    assert_eq!(calls.load(Ordering::SeqCst), 1, "only beta recomputes");
    assert_eq!(report.cells[1].outcome.as_ref().unwrap(), "result of beta");
    assert_eq!(report.resumed(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}
