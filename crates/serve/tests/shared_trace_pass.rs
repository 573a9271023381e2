//! A served sweep runs one batch group per grid row, so the cells that
//! differ only in fault rate share one trace-level pass over their
//! benchmark's branch stream: the `small` grid (jrs × {gcc, twolf} ×
//! two rates) makes 2 generator passes instead of 4, and still runs
//! one pipeline leg per cell. The output stays byte-identical to the
//! one-cell-per-group sweep `repro faults` runs at `--batch 1`.
//!
//! The spans are read from the process-wide profiler
//! (`common::profiler()`), so this file holds one test: any other test
//! in the same binary would record into the same table.

use perconf_experiments::common::{self, Scale};
use perconf_experiments::faults::{self, Grid};
use perconf_experiments::runner::{RunnerConfig, Scheduler, SchedulerConfig};
use perconf_serve::actor::{run_experiment, ActorConfig};
use perconf_serve::api::ExperimentSpec;

/// Calls of span `name` recorded since the profiler's last reset.
fn calls(name: &str) -> u64 {
    common::profiler()
        .report()
        .rows
        .iter()
        .find(|r| r.name == name)
        .map_or(0, |r| r.calls)
}

#[test]
fn a_served_small_grid_makes_one_trace_pass_per_row() {
    const SEED: u64 = 11;
    let dir =
        std::env::temp_dir().join(format!("perconf-serve-shared-pass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The one-cell-per-group reference: the bytes `repro faults --tiny
    // --grid small --json` writes.
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            timeout: None,
            ..RunnerConfig::default()
        },
        jobs: 1,
    });
    let (reference, _) = faults::run_grid(Scale::tiny(), SEED, &Grid::small(), &mut scheduler);
    let reference = serde_json::to_string_pretty(&reference).unwrap();

    let cfg = ActorConfig {
        spec: ExperimentSpec {
            seed: SEED,
            scale: "tiny".to_owned(),
            grid: "small".to_owned(),
        },
        checkpoint_dir: dir.clone(),
        jobs: 1,
        cell_timeout: None,
        kill_after: None,
    };
    common::profiler().enable(true);
    common::profiler().reset();
    let first = run_experiment(&cfg).expect("fresh run");
    let (first_passes, first_legs) = (calls("phase/trace_eval"), calls("phase/run"));
    common::profiler().reset();
    let repeat = run_experiment(&cfg).expect("repeat run");
    let repeat_passes = calls("phase/trace_eval");
    common::profiler().enable(false);

    assert_eq!(
        (first_passes, first_legs),
        (2, 4),
        "a fresh small grid: one trace pass per row, one pipeline leg per cell"
    );
    assert_eq!((first.from_cache, first.computed), (0, 4));
    assert_eq!(
        serde_json::to_string_pretty(&first.table).unwrap(),
        reference,
        "row groups changed the served table"
    );

    assert_eq!(
        (repeat_passes, repeat.from_cache, repeat.computed),
        (0, 4, 0),
        "a repeat serves every cell from its final without a trace pass"
    );
    assert_eq!(
        serde_json::to_string_pretty(&repeat.table).unwrap(),
        reference
    );
    let _ = std::fs::remove_dir_all(&dir);
}
