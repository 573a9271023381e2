//! One experiment's execution: the spec's sweep on the shared
//! `runner::Scheduler`, over the spec's own checkpoint directory.
//!
//! The actor is a plain function run inside a supervised attempt
//! thread (see [`crate::supervisor`]). Everything stateful it touches
//! is the spec's checkpoint directory, which survives the actor's
//! death; that is what makes the supervisor's restart-with-resume
//! policy cheap. A restarted actor, and a repeat submission of the
//! same spec, serve every finished cell from its checksummed final and
//! pay only for what no earlier run finished.
//!
//! It runs the fault sweep through `faults::run_grid_batched`, the
//! function `repro faults` calls, with one batch group per grid row.
//! `faults::Grid::cells` lists cells estimator, then benchmark, then
//! rate, so a width of `grid.rates.len()` makes each group one
//! (estimator, benchmark) row: the cells that differ only in fault
//! rate. A row shares one trace-level pass over its benchmark's branch
//! stream, then runs its pipeline legs one at a time, and the table is
//! byte-identical to one cell per group. Rows rather than one
//! whole-grid group, because a group is one attempt: a crash reworks
//! one row, and finals are written row by row. Two consequences for
//! the server's flags:
//!
//! - `jobs` parallelism inside one experiment is at most its row
//!   count: 2 for `small`, 6 for `full`;
//! - `cell_timeout` stays per cell, so a row group's watchdog is that
//!   value times its pending cells.
//!
//! The degraded assembly reads the checkpoint directory through
//! `runner::recover`, the rule the distributed merge uses too.

use crate::api::ExperimentSpec;
use perconf_experiments::faults::{self, FaultCell};
use perconf_experiments::runner::{self, RunnerConfig, Scheduler, SchedulerConfig};
use std::path::PathBuf;
use std::time::Duration;

/// How to run one experiment.
#[derive(Debug, Clone)]
pub struct ActorConfig {
    /// What to run.
    pub spec: ExperimentSpec,
    /// The spec's checkpoint directory (final checkpoints, failure
    /// markers, mid-cell `.part.psnap` partials), shared by every
    /// submission of the spec.
    pub checkpoint_dir: PathBuf,
    /// Scheduler worker threads for this experiment's row groups.
    pub jobs: usize,
    /// Per-cell watchdog; `None` keeps the runner default. A row
    /// group's watchdog is this times its pending cells.
    pub cell_timeout: Option<Duration>,
    /// Chaos harness: run the first this many cells, then panic the
    /// actor if any of them was freshly computed and cells remain (the
    /// supervisor must restart it and the final result must be
    /// byte-identical to an undisturbed run).
    pub kill_after: Option<usize>,
}

/// What one (successful) actor run produced.
#[derive(Debug, Clone)]
pub struct ActorOutcome {
    /// The assembled `FaultTable` as a JSON value.
    pub table: serde::Value,
    /// Cells served from their final checkpoint, left by an earlier
    /// submission of the spec or an earlier incarnation.
    pub from_cache: u64,
    /// Cells simulated by this run.
    pub computed: u64,
    /// Cells that continued from a mid-cell partial checkpoint.
    pub resumed_mid_cell: u64,
    /// Keys of cells that failed terminally, canonical order.
    pub failed: Vec<String>,
    /// Failure class per entry of `failed` (`timeout`, `panic`, ...).
    pub failed_kinds: Vec<String>,
}

/// Runs one experiment to completion (panicking if a chaos kill is
/// armed and fires — the supervisor treats that like any crash).
///
/// # Errors
///
/// Returns a message for an unresolvable spec (unknown scale/grid);
/// cell-level failures do *not* error — they are reported in the
/// outcome's `failed` list and the table is assembled around them.
///
/// # Panics
///
/// Panics when the armed chaos kill fires.
pub fn run_experiment(cfg: &ActorConfig) -> Result<ActorOutcome, String> {
    let (scale, grid) = cfg.spec.resolve()?;
    let seed = cfg.spec.seed;
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            checkpoint_dir: Some(cfg.checkpoint_dir.clone()),
            timeout: cfg.cell_timeout.or(RunnerConfig::default().timeout),
            ..RunnerConfig::default()
        },
        jobs: cfg.jobs,
    });

    // Chaos: run a prefix, then die. The restarted incarnation serves
    // the prefix from its finals and the table comes out
    // byte-identical.
    if let Some(k) = cfg.kill_after.filter(|&k| k < grid.cell_count()) {
        let mut prefix = faults::cell_specs(scale, seed, &grid);
        prefix.truncate(k);
        if scheduler.run_cells(prefix).cells.iter().any(|c| !c.resumed) {
            panic!("chaos: scripted actor kill after {k} computed cell(s)");
        }
    }

    // One batch group per (estimator, benchmark) row: its cells share
    // one trace-level pass.
    let (table, timings) =
        faults::run_grid_batched(scale, seed, &grid, &mut scheduler, grid.rates.len());
    let failed_kinds = timings
        .iter()
        .filter_map(|t| t.error_kind.clone())
        .collect();
    let count = |f: fn(&runner::CellTiming) -> bool| timings.iter().filter(|t| f(t)).count() as u64;
    Ok(ActorOutcome {
        from_cache: count(|t| t.resumed),
        computed: count(|t| t.attempts > 0),
        resumed_mid_cell: count(|t| t.resumed_mid_cell),
        failed: table.failed.clone(),
        failed_kinds,
        table: serde_json::to_value(&table).map_err(|e| e.to_string())?,
    })
}

/// Assembles the best table possible *without running anything*: per
/// cell, [`runner::recover`] on the checkpoint directory serves a
/// final checkpoint, lists a cell with a failure marker as failed with
/// the marker's kind, and lists a cell with neither as `abandoned`.
/// This is the supervisor's last resort when the restart budget is
/// exhausted — degraded, never dropped.
///
/// # Errors
///
/// Returns a message only for an unresolvable spec.
pub fn assemble_partial(cfg: &ActorConfig) -> Result<ActorOutcome, String> {
    let (_, grid) = cfg.spec.resolve()?;
    let mut cells: Vec<FaultCell> = Vec::new();
    let mut failed = Vec::new();
    let mut failed_kinds = Vec::new();
    for coord in grid.cells(cfg.spec.seed) {
        match runner::recover::<FaultCell>(&cfg.checkpoint_dir, &coord.key) {
            Some(Ok(cell)) => cells.push(cell),
            Some(Err(kind)) => {
                failed.push(coord.key);
                failed_kinds.push(kind);
            }
            None => {
                failed.push(coord.key);
                failed_kinds.push("abandoned".to_owned());
            }
        }
    }
    let from_cache = cells.len() as u64;
    let table = faults::table_from_cells(cfg.spec.seed, &grid, cells, failed.clone());
    let table = serde_json::to_value(&table).map_err(|e| e.to_string())?;
    Ok(ActorOutcome {
        table,
        from_cache,
        computed: 0,
        resumed_mid_cell: 0,
        failed,
        failed_kinds,
    })
}
