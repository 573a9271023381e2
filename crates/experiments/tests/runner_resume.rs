//! End-to-end resilience of the sweep runner: a mid-sweep panic must
//! not lose finished cells, a resumed sweep must re-execute only the
//! cell that failed, and a final that was tampered with is recomputed,
//! never served.

use perconf_experiments::runner::{
    degraded_count, CellSpec, RunError, RunnerConfig, Scheduler, SchedulerConfig, SweepReport,
};
use std::path::{Path, PathBuf};
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

/// The file holding `cell`'s final result, whatever the runner names
/// it: the one `<cell>.*` entry that is neither a failure marker nor a
/// mid-cell partial.
fn final_of(dir: &Path, cell: &str) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.strip_prefix(cell)
                .is_some_and(|rest| rest.starts_with('.'))
                && !name.ends_with(".failed.json")
                && !name.ends_with(".part.psnap")
        })
}

/// One pass over the four cells on a one-job scheduler. Cell `i`'s
/// value is `111 * (i + 1)`.
fn sweep(dir: &Path, poison: Option<&str>, calls: &Arc<AtomicU32>) -> SweepReport<u64> {
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
        .zip(1u64..)
        .map(|(&cell, i)| {
            let c = Arc::clone(calls);
            let poisoned = poison == Some(cell);
            CellSpec::new(cell, move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                assert!(!poisoned, "injected failure in {cell}");
                111 * i
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
            final_of(&dir, cell).is_some(),
            "{cell} should be checkpointed"
        );
    }
    assert!(final_of(&dir, "gamma").is_none());
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
    assert_eq!(*report.cells[2].outcome.as_ref().unwrap(), 333);
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

/// Overwrites a final with garbage that is no final at all.
fn garble(path: &Path) {
    std::fs::write(path, "{ not json").unwrap();
}

/// Changes the last digit of a final's payload: the file still parses
/// as the cell's JSON, with another value.
fn edit_digit(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes
        .iter()
        .rposition(u8::is_ascii_digit)
        .expect("a digit in the payload");
    bytes[at] = if bytes[at] == b'9' {
        b'0'
    } else {
        bytes[at] + 1
    };
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn corrupt_checkpoint_is_recomputed_not_trusted() {
    for (tag, corrupt) in [("garbled", garble as fn(&Path)), ("digit", edit_digit)] {
        let dir = fresh_dir(&format!("corrupt-{tag}"));
        let calls = Arc::new(AtomicU32::new(0));
        sweep(&dir, None, &calls);
        assert_eq!(calls.load(Ordering::SeqCst), 4);
        corrupt(&final_of(&dir, "beta").expect("beta's final"));

        let degraded = degraded_count();
        let calls = Arc::new(AtomicU32::new(0));
        let report = sweep(&dir, None, &calls);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "{tag}: only beta recomputes"
        );
        assert_eq!(*report.cells[1].outcome.as_ref().unwrap(), 222, "{tag}");
        assert_eq!(report.resumed(), 3, "{tag}");
        assert!(degraded_count() > degraded, "{tag}: counted as degraded");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
