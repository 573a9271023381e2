//! One experiment's execution: cache lookups, cell simulation on the
//! shared `runner::Scheduler`, and result assembly.
//!
//! The actor is a plain function run inside a supervised attempt
//! thread (see [`crate::supervisor`]); everything stateful it touches
//! — the content-addressed cache, the per-experiment checkpoint
//! directory — survives the actor's death, which is what makes the
//! supervisor's restart-with-resume policy cheap: a restarted actor
//! finds every finished cell in the cache or on disk and only pays
//! for what the previous incarnation had not finished.
//!
//! It speaks the fault sweep's own cell vocabulary: the cells are
//! `faults::Grid::cells`, each missing one runs as its own
//! `faults::cell_spec` on the scheduler, and the degraded assembly
//! reads the checkpoint directory through `runner::recover`, the rule
//! the distributed merge uses too.

use crate::api::ExperimentSpec;
use crate::cache::CellCache;
use perconf_experiments::faults::{self, CellCoord, FaultCell};
use perconf_experiments::runner::{self, RunnerConfig, Scheduler, SchedulerConfig, SweepReport};
use perconf_experiments::Scale;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// How to run one experiment.
#[derive(Debug, Clone)]
pub struct ActorConfig {
    /// What to run.
    pub spec: ExperimentSpec,
    /// Per-experiment checkpoint directory (final checkpoints,
    /// failure markers, mid-cell `.part.psnap` partials).
    pub checkpoint_dir: PathBuf,
    /// Scheduler worker threads for this experiment's cells.
    pub jobs: usize,
    /// Per-cell watchdog; `None` keeps the runner default.
    pub cell_timeout: Option<Duration>,
    /// Chaos harness: panic the actor after this many freshly
    /// computed cells (the supervisor must restart it and the final
    /// result must be byte-identical to an undisturbed run).
    pub kill_after: Option<usize>,
}

/// What one (successful) actor run produced.
#[derive(Debug, Clone)]
pub struct ActorOutcome {
    /// The assembled `FaultTable` as a JSON value.
    pub table: serde::Value,
    /// Cells served from the content-addressed cache.
    pub from_cache: u64,
    /// Cells simulated by this run.
    pub computed: u64,
    /// Cells resumed from a final checkpoint left by an earlier
    /// incarnation.
    pub resumed: u64,
    /// Cells that continued from a mid-cell partial checkpoint.
    pub resumed_mid_cell: u64,
    /// Keys of cells that failed terminally, canonical order.
    pub failed: Vec<String>,
    /// Failure class per entry of `failed` (`timeout`, `panic`, ...).
    pub failed_kinds: Vec<String>,
}

/// The experiment's cells in canonical order, each with its cache key
/// (`faults::cell_content_digest`).
fn cells_of(spec: &ExperimentSpec, scale: Scale, grid: &faults::Grid) -> Vec<(CellCoord, u64)> {
    grid.cells(spec.seed)
        .into_iter()
        .map(|c| {
            let digest = faults::cell_content_digest(
                spec.seed,
                scale,
                &c.estimator,
                &c.benchmark,
                c.rate_idx,
                c.rate,
            );
            (c, digest)
        })
        .collect()
}

fn runner_config(cfg: &ActorConfig) -> RunnerConfig {
    RunnerConfig {
        checkpoint_dir: Some(cfg.checkpoint_dir.clone()),
        resume: true,
        timeout: cfg.cell_timeout.or(RunnerConfig::default().timeout),
        // Deterministic key-derived jitter decorrelates retries across
        // the cells an actor re-runs after a transient fault.
        jitter: 0.5,
        ..RunnerConfig::default()
    }
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
/// Panics when the armed chaos kill fires, and propagates a poisoned
/// cache mutex (a previous holder panicked mid-update).
pub fn run_experiment(cfg: &ActorConfig, cache: &Mutex<CellCache>) -> Result<ActorOutcome, String> {
    let (scale, grid) = cfg.spec.resolve()?;
    let ids = cells_of(&cfg.spec, scale, &grid);
    let mut cells: Vec<Option<FaultCell>> = ids.iter().map(|_| None).collect();
    let mut from_cache = 0u64;

    // Phase 1: serve whatever the content-addressed cache already has.
    {
        let mut c = cache.lock().expect("cache mutex poisoned");
        for (i, (_, digest)) in ids.iter().enumerate() {
            if let Some(v) = c.get(*digest) {
                match serde_json::from_value::<FaultCell>(&v) {
                    Ok(cell) => {
                        cells[i] = Some(cell);
                        from_cache += 1;
                    }
                    Err(e) => {
                        // Checksum-valid but shape-incompatible (e.g.
                        // written by an older build): recompute and
                        // overwrite below.
                        eprintln!(
                            "warning: cache entry {digest:016x} has stale shape ({e}); recomputing"
                        );
                    }
                }
            }
        }
    }

    let missing: Vec<usize> = (0..ids.len()).filter(|&i| cells[i].is_none()).collect();

    // Phase 2 (chaos): compute a prefix, publish it, then die. The
    // restarted incarnation finds the prefix in the cache and the
    // assembled table comes out byte-identical.
    if let Some(k) = cfg.kill_after {
        if k > 0 && missing.len() > k {
            let prefix = &missing[..k];
            let report = compute_cells(cfg, scale, &ids, prefix);
            store_results(&ids, prefix, report, cache, &mut cells);
            panic!("chaos: scripted actor kill after {k} computed cell(s)");
        }
    }
    let mut computed = 0u64;
    let mut resumed = 0u64;
    let mut resumed_mid_cell = 0u64;
    let mut failed: Vec<String> = Vec::new();
    let mut failed_kinds: Vec<String> = Vec::new();

    // Phase 3: simulate what the cache could not serve.
    if !missing.is_empty() {
        let report = compute_cells(cfg, scale, &ids, &missing);
        for (slot, cell_report) in missing.iter().zip(report.cells.iter()) {
            if cell_report.resumed {
                resumed += 1;
            } else if cell_report.attempts > 0 {
                computed += 1;
            }
            if cell_report.resumed_mid_cell {
                resumed_mid_cell += 1;
            }
            if let Err(e) = &cell_report.outcome {
                failed.push(ids[*slot].0.key.clone());
                failed_kinds.push(e.kind().to_owned());
            }
        }
        store_results(&ids, &missing, report, cache, &mut cells);
    }

    let done: Vec<FaultCell> = cells.into_iter().flatten().collect();
    let table = faults::table_from_cells(cfg.spec.seed, &grid, done, failed.clone());
    let table = serde_json::to_value(&table).map_err(|e| e.to_string())?;
    Ok(ActorOutcome {
        table,
        from_cache,
        computed,
        resumed,
        resumed_mid_cell,
        failed,
        failed_kinds,
    })
}

/// Assembles the best table possible *without running anything*. Per
/// cell: the cache, then [`runner::recover`] on the checkpoint
/// directory — a dead incarnation's final checkpoint is served (and
/// cached), its failure marker lists the cell failed with the marker's
/// kind — and `abandoned` when neither is on disk. This is the
/// supervisor's last resort when the restart budget is exhausted —
/// degraded, never dropped.
///
/// # Errors
///
/// Returns a message only for an unresolvable spec.
///
/// # Panics
///
/// Propagates a poisoned cache mutex.
pub fn assemble_partial(
    cfg: &ActorConfig,
    cache: &Mutex<CellCache>,
) -> Result<ActorOutcome, String> {
    let (scale, grid) = cfg.spec.resolve()?;
    let mut cells: Vec<FaultCell> = Vec::new();
    let mut from_cache = 0u64;
    let mut resumed = 0u64;
    let mut failed = Vec::new();
    let mut failed_kinds = Vec::new();
    let mut c = cache.lock().expect("cache mutex poisoned");
    for (coord, digest) in cells_of(&cfg.spec, scale, &grid) {
        if let Some(cell) = c
            .get(digest)
            .and_then(|v| serde_json::from_value::<FaultCell>(&v).ok())
        {
            cells.push(cell);
            from_cache += 1;
            continue;
        }
        match runner::recover::<FaultCell>(&cfg.checkpoint_dir, &coord.key) {
            Some(Ok(cell)) => {
                c.put(
                    digest,
                    &serde_json::to_value(&cell).unwrap_or(serde::Value::Null),
                );
                cells.push(cell);
                resumed += 1;
            }
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
    drop(c);
    let table = faults::table_from_cells(cfg.spec.seed, &grid, cells, failed.clone());
    let table = serde_json::to_value(&table).map_err(|e| e.to_string())?;
    Ok(ActorOutcome {
        table,
        from_cache,
        computed: 0,
        resumed,
        resumed_mid_cell: 0,
        failed,
        failed_kinds,
    })
}

/// Runs the cells `idxs` of `ids`, one scheduler cell each.
fn compute_cells(
    cfg: &ActorConfig,
    scale: Scale,
    ids: &[(CellCoord, u64)],
    idxs: &[usize],
) -> SweepReport<FaultCell> {
    let specs = idxs
        .iter()
        .map(|&i| faults::cell_spec(scale, cfg.spec.seed, &ids[i].0))
        .collect();
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: runner_config(cfg),
        jobs: cfg.jobs,
    });
    scheduler.run_cells(specs)
}

/// Publishes a compute report's successful cells into the cache and
/// the caller's slot table.
fn store_results(
    ids: &[(CellCoord, u64)],
    idxs: &[usize],
    report: SweepReport<FaultCell>,
    cache: &Mutex<CellCache>,
    cells: &mut [Option<FaultCell>],
) {
    let mut c = cache.lock().expect("cache mutex poisoned");
    for (slot, cell_report) in idxs.iter().zip(report.cells) {
        if let Ok(cell) = cell_report.outcome {
            if let Ok(v) = serde_json::to_value(&cell) {
                c.put(ids[*slot].1, &v);
            }
            cells[*slot] = Some(cell);
        }
    }
}
