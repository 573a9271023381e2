//! Panic-isolated, watchdogged, resumable sweep execution.
//!
//! Large sweeps ((benchmark × estimator × config) grids) used to be
//! all-or-nothing: one panicking or hanging cell killed hours of
//! finished work. [`Scheduler`] is the one front end of the cell
//! engine: it fans [`CellSpec`]s or [`BatchSpec`] groups across a
//! bounded pool of threads (`--jobs` in the binaries), and runs each
//! group's work through [`run_attempt`] — its own thread, under
//! `catch_unwind`, with a watchdog timeout — with bounded
//! retry-with-backoff. Completed cells are checkpointed as JSON so a
//! rerun with `resume` enabled skips everything already done and only
//! re-executes cells that failed (their `*.failed.json` markers are
//! cleared on resume). A single cell is a one-member batch, so one
//! engine (`execute_batch`) serves every caller.
//!
//! A failed cell produces a [`RunError`] value — the sweep continues
//! and the driver reports which cells are missing rather than dying.
//!
//! Determinism contract: the merged [`SweepReport`] lists cells in
//! **submission (canonical) order** regardless of worker count or
//! completion order, per-cell checkpoint files depend only on the cell
//! key, and nothing a cell computes may depend on scheduling (derive
//! per-cell RNG seeds from the cell coordinates, never from execution
//! order). Wall-clock timings are the one intentionally
//! nondeterministic output and live in the separate [`CellTiming`]
//! report.

use crate::snapfile;
use serde::{Deserialize, DeserializeOwned, Serialize, Value};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Why a sweep cell failed, after exhausting its retry budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunError {
    /// The cell's code panicked; the payload message is preserved.
    Panic {
        /// Panic payload rendered to text.
        message: String,
    },
    /// The watchdog expired before the cell finished.
    Timeout {
        /// Configured timeout that elapsed, in seconds.
        seconds: f64,
    },
    /// Checkpoint or marker I/O failed.
    Io {
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A simulator invariant surfaced as a recoverable error
    /// (see `perconf_pipeline::SimError`).
    Invariant {
        /// The invariant violation, rendered.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic { message } => write!(f, "panicked: {message}"),
            RunError::Timeout { seconds } => write!(f, "timed out after {seconds}s"),
            RunError::Io { message } => write!(f, "i/o error: {message}"),
            RunError::Invariant { message } => write!(f, "invariant violated: {message}"),
        }
    }
}

impl RunError {
    /// Stable lowercase tag for the error class, used in timing rows
    /// and exit-code classification.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Panic { .. } => "panic",
            RunError::Timeout { .. } => "timeout",
            RunError::Io { .. } => "io",
            RunError::Invariant { .. } => "invariant",
        }
    }
}

impl std::error::Error for RunError {}

/// Process-wide count of corrupt or unusable persisted inputs that
/// were *discarded and recomputed* instead of aborting the run —
/// checkpoints failing integrity checks, unreadable queue or result
/// files, and the like. The binaries map a nonzero count on an
/// otherwise successful run to the documented "degraded" exit code so
/// CI and the distributed coordinator can tell "clean" from
/// "recovered" without parsing stderr.
static DEGRADED: AtomicUsize = AtomicUsize::new(0);

/// Records one degraded-input event (and warns on stderr at the call
/// site — this only does the accounting).
pub fn note_degraded() {
    DEGRADED.fetch_add(1, Ordering::Relaxed);
}

/// How many corrupt inputs this process has discarded and recomputed.
#[must_use]
pub fn degraded_count() -> usize {
    DEGRADED.load(Ordering::Relaxed)
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io {
            message: e.to_string(),
        }
    }
}

impl From<perconf_pipeline::SimError> for RunError {
    fn from(e: perconf_pipeline::SimError) -> Self {
        RunError::Invariant {
            message: e.to_string(),
        }
    }
}

/// Per-cell isolation and checkpointing policy of a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Directory for per-cell checkpoints and failure markers. `None`
    /// disables persistence (cells still get isolation and retries).
    pub checkpoint_dir: Option<PathBuf>,
    /// When `true`, cells whose checkpoint already exists are loaded
    /// instead of re-executed, and stale failure markers are cleared
    /// so failed cells run again.
    pub resume: bool,
    /// Watchdog: maximum wall-clock time one attempt may take. `None`
    /// waits forever. On expiry the worker thread is abandoned (it
    /// cannot be killed safely) and the attempt counts as failed.
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure.
    pub retries: u32,
    /// Sleep before retry `n` is `backoff << (n - 1)` (exponential),
    /// stretched by up to [`jitter`](Self::jitter).
    pub backoff: Duration,
    /// Jitter fraction in `0.0..=1.0`: each retry sleep is multiplied
    /// by `1 + jitter * u` where `u` derives from an FNV digest of
    /// `(key, attempt)` — deterministic per cell, decorrelated across
    /// cells, so a fleet of actors retrying the same transient fault
    /// does not thunder back in lockstep. `0.0` (the default) keeps
    /// the historical exact-exponential schedule.
    pub jitter: f64,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            checkpoint_dir: None,
            resume: false,
            timeout: Some(Duration::from_secs(600)),
            retries: 1,
            backoff: Duration::from_millis(200),
            jitter: 0.0,
        }
    }
}

impl RunnerConfig {
    /// Checkpoint into (and resume from) `dir` with default isolation
    /// settings.
    #[must_use]
    pub fn resuming<P: Into<PathBuf>>(dir: P) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            resume: true,
            ..Self::default()
        }
    }
}

/// A handle through which a sweep cell persists mid-run state, so an
/// interrupted (timed-out, panicked, killed) cell can resume from its
/// last in-flight checkpoint instead of from scratch.
///
/// The handle is inert when the scheduler has no checkpoint
/// directory: [`load`](Self::load) returns `None` and
/// [`store`](Self::store) never calls the closure that builds the
/// state, so cell code can checkpoint unconditionally and pays for a
/// snapshot only when one will be written. State travels through the
/// versioned, checksummed [`snapfile`] container; a corrupt or
/// truncated partial checkpoint is discarded (with a warning naming the
/// reason) and the cell reruns from scratch — never deserialized into
/// nonsense.
#[derive(Debug, Clone)]
pub struct CheckpointCell {
    path: Option<PathBuf>,
}

impl CheckpointCell {
    /// A handle that never persists anything (no checkpoint dir).
    #[must_use]
    pub fn disabled() -> Self {
        Self { path: None }
    }

    /// A handle writing to (and resuming from) `path`.
    #[must_use]
    pub fn at<P: Into<PathBuf>>(path: P) -> Self {
        Self {
            path: Some(path.into()),
        }
    }

    /// Where the partial checkpoint lives, if persistence is on.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Loads the last stored mid-run state. `None` when persistence is
    /// off, nothing was stored yet, or the stored file fails its
    /// integrity checks (in which case it is deleted and the caller
    /// starts from scratch).
    #[must_use]
    pub fn load(&self) -> Option<Value> {
        let path = self.path.as_ref()?;
        if !path.exists() {
            return None;
        }
        match snapfile::read(path) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!(
                    "warning: discarding unusable partial checkpoint {}: {e}",
                    path.display()
                );
                note_degraded();
                let _ = std::fs::remove_file(path);
                None
            }
        }
    }

    /// Stores the mid-run state `state` builds, replacing any previous
    /// store atomically. `state` runs only when persistence is on, so
    /// an inert handle never pays for building a snapshot. Best-effort:
    /// an I/O failure warns and continues (losing a checkpoint must
    /// never kill the run it exists to protect).
    pub fn store(&self, state: impl FnOnce() -> Value) {
        let Some(path) = &self.path else { return };
        if let Err(e) = snapfile::write(path, &state()) {
            eprintln!(
                "warning: cannot write partial checkpoint {}: {e}",
                path.display()
            );
        }
    }

    /// Removes the partial checkpoint (called after the cell finishes
    /// and its *final* result is persisted).
    pub fn clear(&self) {
        if let Some(path) = &self.path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Attempt threads abandoned by the watchdog of [`run_attempt`]. They
/// cannot be killed, but they are *kept* (not leaked detached) and
/// joined as soon as they finish, bounding the number of live stray
/// threads. `Zombies::default()` is an empty list.
pub type Zombies = Arc<Mutex<Vec<thread::JoinHandle<()>>>>;

/// Work function of a [`BatchSpec`]: receives the indices of the
/// members that still need computing plus every member's checkpoint
/// cell, and returns one value per requested index, in order.
type BatchWorkFn<T> = Arc<dyn Fn(&[usize], &[CheckpointCell]) -> Vec<T> + Send + Sync>;

/// The worker-thread count "use every core" resolves to.
#[must_use]
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Joins every abandoned worker that has since run to completion and
/// returns how many are still alive.
fn reap_zombie_list(zombies: &Zombies) -> usize {
    let mut z = zombies.lock().expect("zombie list lock");
    let mut live = Vec::new();
    for handle in z.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            live.push(handle);
        }
    }
    *z = live;
    z.len()
}

/// What happened to one sweep cell, as reported by the shared
/// cell-execution engine. Every submitted cell produces exactly one
/// report with a terminal outcome.
#[derive(Debug)]
pub struct CellReport<T> {
    /// The cell key.
    pub key: String,
    /// Terminal outcome: the cell value, or the last error after the
    /// retry budget was exhausted.
    pub outcome: Result<T, RunError>,
    /// The value was loaded from a *final* checkpoint; the cell did
    /// not execute at all.
    pub resumed: bool,
    /// A mid-run (`*.part.psnap`) checkpoint existed when the cell
    /// started, so its first attempt continued mid-cell rather than
    /// from scratch. Continuing from a partial checkpoint is **not** a
    /// retry: it does not increment [`attempts`](Self::attempts).
    pub resumed_mid_cell: bool,
    /// In-process executions of the work function (0 when `resumed`).
    pub attempts: u32,
    /// Wall-clock time spent on this cell (loading, attempts, backoff).
    /// Nondeterministic by nature — excluded from merged result files.
    pub wall: Duration,
}

impl<T> CellReport<T> {
    /// Attempts beyond the first, i.e. actual re-executions. A cell
    /// that resumed from a partial checkpoint and finished on its
    /// first attempt has 0 retries.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.attempts.saturating_sub(1)
    }

    /// The serializable timing/accounting row for this cell.
    #[must_use]
    pub fn timing(&self) -> CellTiming {
        CellTiming {
            key: self.key.clone(),
            wall_s: self.wall.as_secs_f64(),
            attempts: self.attempts,
            retries: self.retries(),
            resumed: self.resumed,
            resumed_mid_cell: self.resumed_mid_cell,
            ok: self.outcome.is_ok(),
            error_kind: self.outcome.as_ref().err().map(|e| e.kind().to_owned()),
        }
    }
}

/// Per-cell wall-time and retry accounting, published by the binaries
/// (`--timing`) so sweep speedups and flaky cells are observable.
/// Wall time is wall-clock: keep this out of byte-compared outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// The cell key.
    pub key: String,
    /// Wall-clock seconds spent on the cell.
    pub wall_s: f64,
    /// In-process executions (0 = served from a final checkpoint).
    pub attempts: u32,
    /// Re-executions beyond the first attempt. Resuming from a
    /// mid-cell checkpoint does not count.
    pub retries: u32,
    /// Result was loaded from a final checkpoint.
    pub resumed: bool,
    /// First attempt continued from a mid-cell checkpoint.
    pub resumed_mid_cell: bool,
    /// The cell reached a successful terminal status.
    pub ok: bool,
    /// Error class of the terminal failure (`panic`, `timeout`, `io`,
    /// `invariant`); `None` when the cell succeeded.
    pub error_kind: Option<String>,
}

/// The cell-execution engine: runs one batch group (a single cell is
/// a one-member group) with per-member final-checkpoint resume and
/// failure markers, and one watchdog + retry budget around the
/// grouped work function.
///
/// Members whose final checkpoint exists resume without running;
/// stale failure markers clear; a pre-existing partial checkpoint
/// records `resumed_mid_cell` without counting as a retry. The
/// remaining members execute together in one [`run_attempt`] — the
/// work function receives their indices plus every member's
/// [`CheckpointCell`] — under a watchdog scaled by the pending member
/// count. An attempt failure (panic or timeout) is charged to every
/// pending member; mid-run checkpoints written before the failure
/// still bound the rework on retry.
fn execute_batch<T>(
    cfg: &RunnerConfig,
    zombies: &Zombies,
    spec: &BatchSpec<T>,
) -> Vec<CellReport<T>>
where
    T: Serialize + DeserializeOwned + Send + 'static,
{
    #[allow(clippy::disallowed_methods)]
    // lint: allow(nondeterminism-sources) — elapsed-time progress logging only
    let start = Instant::now();
    let n = spec.keys.len();
    let cells: Vec<CheckpointCell> = spec
        .keys
        .iter()
        .map(|k| match partial_file(cfg, k) {
            Some(p) => CheckpointCell::at(p),
            None => CheckpointCell::disabled(),
        })
        .collect();
    let mut reports: Vec<Option<CellReport<T>>> = (0..n).map(|_| None).collect();
    let mut resumed_mid = vec![false; n];
    for i in 0..n {
        let key = &spec.keys[i];
        if cfg.resume {
            let dir = cfg.checkpoint_dir.as_deref();
            if let Some(v) = dir.and_then(|d| load_final_checkpoint(d, key)) {
                // The final result exists; any leftover partial state
                // is stale.
                cells[i].clear();
                reports[i] = Some(CellReport {
                    key: key.clone(),
                    outcome: Ok(v),
                    resumed: true,
                    resumed_mid_cell: false,
                    attempts: 0,
                    wall: start.elapsed(),
                });
                continue;
            }
            // A stale failure marker means this cell is being retried.
            if let Some(p) = failed_file(cfg, key) {
                let _ = std::fs::remove_file(p);
            }
            // Recorded *before* any attempt runs: continuing a killed
            // cell's mid-run state is a resume, not a retry, and must
            // not inflate the aggregate retry count.
            resumed_mid[i] = cells[i].path().is_some_and(Path::exists);
        } else {
            // A fresh (non-resume) sweep must not silently continue
            // from some earlier run's mid-cell state.
            cells[i].clear();
        }
    }
    let pending: Vec<usize> = (0..n).filter(|&i| reports[i].is_none()).collect();
    if pending.is_empty() {
        return reports
            .into_iter()
            .map(|r| r.expect("all members resumed"))
            .collect();
    }
    // The watchdog guards the whole grouped attempt, so its budget
    // scales with how many members actually run.
    #[allow(clippy::cast_possible_truncation)]
    let timeout = cfg.timeout.map(|t| t * pending.len().max(1) as u32);
    let mut attempts = 0u32;
    let mut last = RunError::Panic {
        message: "cell never ran".to_owned(),
    };
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            let t = crate::common::tracer();
            if t.enabled() {
                // Keys are free-form strings; the event carries their
                // FNV digest so records stay fixed-width.
                for &i in &pending {
                    t.record(perconf_obs::TraceEvent::Retry {
                        key: perconf_bpred::digest_bytes(spec.keys[i].as_bytes()),
                        attempt: u64::from(attempt),
                    });
                }
            }
            // Backoff is keyed on the first pending key so reruns of
            // the same batch wait the same, deterministic time.
            thread::sleep(retry_backoff(cfg, &spec.keys[pending[0]], attempt));
        }
        attempts += 1;
        let work = Arc::clone(&spec.work);
        let (idxs, work_cells) = (pending.clone(), cells.clone());
        match run_attempt(timeout, zombies, move || work(&idxs, &work_cells)) {
            Ok(values) => {
                assert_eq!(
                    values.len(),
                    pending.len(),
                    "batch work must yield one value per pending member"
                );
                for (&i, v) in pending.iter().zip(values) {
                    let key = &spec.keys[i];
                    if let Err(e) = write_final_checkpoint(cfg, key, &v) {
                        eprintln!("warning: cell {key}: {e}");
                    }
                    cells[i].clear();
                    reports[i] = Some(CellReport {
                        key: key.clone(),
                        outcome: Ok(v),
                        resumed: false,
                        resumed_mid_cell: resumed_mid[i],
                        attempts,
                        wall: start.elapsed(),
                    });
                }
                return reports
                    .into_iter()
                    .map(|r| r.expect("every member reported"))
                    .collect();
            }
            Err(e) => {
                eprintln!(
                    "warning: batch [{}] attempt {attempt}: {e}",
                    spec.keys[pending[0]]
                );
                last = e;
            }
        }
    }
    for &i in &pending {
        let key = &spec.keys[i];
        write_failure_marker(cfg, key, &last);
        reports[i] = Some(CellReport {
            key: key.clone(),
            outcome: Err(last.clone()),
            resumed: false,
            resumed_mid_cell: resumed_mid[i],
            attempts,
            wall: start.elapsed(),
        });
    }
    reports
        .into_iter()
        .map(|r| r.expect("every member reported"))
        .collect()
}

/// Sleep before retry `attempt` (1-based): exponential base stretched
/// by a jitter factor hashed from `(key, attempt)`. Purely a function
/// of its inputs — reruns of the same cell wait the same time, which
/// keeps wall-clock reports comparable — while distinct keys spread
/// across the jitter window instead of retrying in lockstep.
fn retry_backoff(cfg: &RunnerConfig, key: &str, attempt: u32) -> Duration {
    let base = cfg.backoff * (1 << (attempt - 1));
    let jitter = cfg.jitter.clamp(0.0, 1.0);
    if jitter == 0.0 {
        return base;
    }
    let h = perconf_bpred::digest_bytes(format!("{key}#retry{attempt}").as_bytes());
    // Low 10 digest bits → uniform fraction in [0, 1).
    #[allow(clippy::cast_precision_loss)]
    let u = (h & 0x3ff) as f64 / 1024.0;
    base.mul_f64(1.0 + jitter * u)
}

/// One isolated attempt: runs `work` on its own thread under
/// `catch_unwind` and a watchdog (`None` waits forever). This is the
/// only place that spawns an isolated attempt — the scheduler's cells
/// and the experiment server's actors both come through here.
///
/// A thread that outlives its watchdog cannot be killed; it is parked
/// on `zombies` and joined by a later call once it has finished. Each
/// call gets its own result channel, so an abandoned attempt that
/// finishes late can never deliver into a newer one.
///
/// # Errors
///
/// [`RunError::Panic`] when `work` panicked, [`RunError::Timeout`]
/// when the watchdog expired, [`RunError::Io`] when the thread could
/// not be spawned.
///
/// # Panics
///
/// Propagates a poisoned zombie-list mutex.
pub fn run_attempt<T, F>(
    timeout: Option<Duration>,
    zombies: &Zombies,
    work: F,
) -> Result<T, RunError>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    reap_zombie_list(zombies);
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name("attempt".to_owned())
        .spawn(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(work));
            // Receiver gone = watchdog already gave up on us.
            let _ = tx.send(result);
        })
        .map_err(|e| RunError::Io {
            message: format!("cannot spawn worker: {e}"),
        })?;
    let received = match timeout {
        Some(t) => rx.recv_timeout(t),
        None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
    };
    if matches!(received, Err(mpsc::RecvTimeoutError::Timeout)) {
        // The thread cannot be killed. Keep its handle so a later
        // attempt joins it once it finishes, instead of leaking it
        // detached.
        zombies.lock().expect("zombie list lock").push(handle);
        return Err(RunError::Timeout {
            seconds: timeout.unwrap_or_default().as_secs_f64(),
        });
    }
    // The thread has reported (or died without reporting); it exits
    // imminently.
    let _ = handle.join();
    match received {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(payload)) => Err(RunError::Panic {
            message: panic_message(payload.as_ref()),
        }),
        Err(_) => Err(RunError::Panic {
            message: "worker vanished without reporting".to_owned(),
        }),
    }
}

// The checkpoint-directory layout: per cell key, `<key>.json` holds
// the final result, `<key>.failed.json` the failure marker and
// `<key>.part.psnap` the mid-cell partial.
const FINAL: &str = ".json";
const FAILED: &str = ".failed.json";
const PARTIAL: &str = ".part.psnap";

fn cell_file(dir: &Path, key: &str, suffix: &str) -> PathBuf {
    dir.join(format!("{}{suffix}", sanitize(key)))
}

fn checkpoint_file(cfg: &RunnerConfig, key: &str) -> Option<PathBuf> {
    Some(cell_file(cfg.checkpoint_dir.as_deref()?, key, FINAL))
}

fn failed_file(cfg: &RunnerConfig, key: &str) -> Option<PathBuf> {
    Some(cell_file(cfg.checkpoint_dir.as_deref()?, key, FAILED))
}

fn partial_file(cfg: &RunnerConfig, key: &str) -> Option<PathBuf> {
    Some(partial_path(cfg.checkpoint_dir.as_deref()?, key))
}

/// Where a checkpoint directory keeps the mid-cell partial checkpoint
/// of `key` (`<dir>/<key>.part.psnap`).
#[must_use]
pub fn partial_path(dir: &Path, key: &str) -> PathBuf {
    cell_file(dir, key, PARTIAL)
}

/// Loads the final result a checkpoint directory holds for `key`
/// (`<dir>/<key>.json`). `None` when there is none; a corrupt file is
/// discarded (warned, counted as degraded, deleted) so the cell
/// recomputes.
fn load_final_checkpoint<T: DeserializeOwned>(dir: &Path, key: &str) -> Option<T> {
    let path = cell_file(dir, key, FINAL);
    let text = std::fs::read_to_string(&path).ok()?;
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            // Corrupt checkpoint: drop it and recompute the cell.
            eprintln!(
                "warning: discarding unreadable checkpoint {}: {e}",
                path.display()
            );
            note_degraded();
            let _ = std::fs::remove_file(&path);
            None
        }
    }
}

/// What a checkpoint directory says about cell `key` when its result
/// is nowhere else: the one recovery rule of the distributed merge and
/// the server's degraded assembly.
///
/// * `Some(Ok)` — the final result (`<dir>/<key>.json`). A corrupt one
///   is discarded (warned, counted as degraded, deleted) and the
///   lookup falls through to the marker.
/// * `Some(Err(kind))` — the error class ([`RunError::kind`]) of the
///   failure marker (`<dir>/<key>.failed.json`), `"unknown"` for an
///   unreadable marker: the cell spent its retry budget.
/// * `None` — neither: the cell never finished an attempt here.
#[must_use]
pub fn recover<T: DeserializeOwned>(dir: &Path, key: &str) -> Option<Result<T, String>> {
    if let Some(v) = load_final_checkpoint(dir, key) {
        return Some(Ok(v));
    }
    let path = cell_file(dir, key, FAILED);
    if !path.exists() {
        return None;
    }
    let kind = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str::<RunError>(&t).ok())
        .map_or_else(|| "unknown".to_owned(), |e| e.kind().to_owned());
    Some(Err(kind))
}

fn write_final_checkpoint<T: Serialize>(
    cfg: &RunnerConfig,
    key: &str,
    value: &T,
) -> Result<(), RunError> {
    let Some(path) = checkpoint_file(cfg, key) else {
        return Ok(());
    };
    let text = serde_json::to_string_pretty(value).map_err(|e| RunError::Io {
        message: format!("cannot serialize checkpoint: {e}"),
    })?;
    // In a distributed sweep two worker processes may finish the same
    // cell; the loser replaces the winner's byte-identical file whole.
    perconf_bpred::atomic_write(&path, &[text.as_bytes()], true)?;
    Ok(())
}

/// What [`gc_dir`] removed from a checkpoint directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcReport {
    /// `<key>.part.psnap` partials whose cell already has its final
    /// `<key>.json` result — dead weight a crash window left behind.
    pub partials_removed: usize,
    /// Leftover atomic-write temp files (`*.tmp*`) from interrupted
    /// writers.
    pub temps_removed: usize,
}

impl GcReport {
    /// Total files removed.
    #[must_use]
    pub fn total(&self) -> usize {
        self.partials_removed + self.temps_removed
    }
}

/// Garbage-collects a checkpoint directory: removes mid-cell partial
/// checkpoints whose final result already landed (a kill between
/// "final checkpoint written" and "partial cleared" leaves them
/// behind, and they would otherwise linger forever in resume dirs)
/// and stray atomic-write temp files. Final checkpoints and failure
/// markers are never touched — they carry state a resume needs.
///
/// Best-effort by design: unreadable directory entries are skipped,
/// and a missing directory is an empty report, so callers can invoke
/// it unconditionally on clean completion.
#[must_use]
pub fn gc_dir(dir: &Path) -> GcReport {
    let mut report = GcReport::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return report;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(stem) = name.strip_suffix(PARTIAL) {
            if dir.join(format!("{stem}{FINAL}")).is_file() && std::fs::remove_file(&path).is_ok() {
                report.partials_removed += 1;
            }
        } else if name.contains(".tmp") && std::fs::remove_file(&path).is_ok() {
            report.temps_removed += 1;
        }
    }
    report
}

fn write_failure_marker(cfg: &RunnerConfig, key: &str, err: &RunError) {
    let Some(path) = failed_file(cfg, key) else {
        return;
    };
    if let Ok(text) = serde_json::to_string_pretty(err) {
        if let Err(e) = perconf_bpred::atomic_write(&path, &[text.as_bytes()], true) {
            eprintln!("warning: cannot write failure marker for {key}: {e}");
        }
    }
}

/// A sweep cell prepared for the [`Scheduler`]: a key plus the work
/// function, submitted in canonical order.
pub struct CellSpec<T> {
    key: String,
    work: Arc<dyn Fn(&CheckpointCell) -> T + Send + Sync>,
}

impl<T> CellSpec<T> {
    /// Packages a cell. `work` receives the cell's [`CheckpointCell`],
    /// which it may [`load`](CheckpointCell::load) on entry and
    /// [`store`](CheckpointCell::store) periodically: an attempt that
    /// dies (panic, watchdog, process kill) leaves its last stored
    /// state for the retry — in the same process or a later
    /// `--resume` run — to continue from.
    #[must_use]
    pub fn new<F>(key: impl Into<String>, work: F) -> Self
    where
        F: Fn(&CheckpointCell) -> T + Send + Sync + 'static,
    {
        Self {
            key: key.into(),
            work: Arc::new(work),
        }
    }

    /// The cell key.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl<T> std::fmt::Debug for CellSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellSpec").field("key", &self.key).finish()
    }
}

/// An ordered group of sweep cells executed together as one batched
/// work unit (one attempt thread, one watchdog, shared retry budget),
/// typically backed by a `BatchSim` interleaving their pipeline legs.
///
/// Resume/retry/marker semantics stay per member — see
/// `execute_batch` — so the on-disk artifacts (final checkpoints,
/// partials, failure markers) and the merged report are byte-identical
/// to running the same cells through [`CellSpec`]s individually.
pub struct BatchSpec<T> {
    keys: Vec<String>,
    work: BatchWorkFn<T>,
}

impl<T> BatchSpec<T> {
    /// Packages a batch group. `work` is called with the indices (into
    /// `keys`) of the members that were not served from final
    /// checkpoints, plus every member's [`CheckpointCell`], and must
    /// return one value per requested index, in order.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty.
    #[must_use]
    pub fn new<F>(keys: Vec<String>, work: F) -> Self
    where
        F: Fn(&[usize], &[CheckpointCell]) -> Vec<T> + Send + Sync + 'static,
    {
        assert!(!keys.is_empty(), "batch group needs at least one member");
        Self {
            keys,
            work: Arc::new(work),
        }
    }

    /// The member cell keys, in member order.
    #[must_use]
    pub fn keys(&self) -> &[String] {
        &self.keys
    }
}

impl<T> std::fmt::Debug for BatchSpec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSpec")
            .field("keys", &self.keys)
            .finish()
    }
}

/// Isolation + parallelism policy for a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Per-cell isolation and checkpointing.
    pub runner: RunnerConfig,
    /// Worker threads. `0` means [`default_jobs`] (every core).
    pub jobs: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            runner: RunnerConfig::default(),
            jobs: 1,
        }
    }
}

impl SchedulerConfig {
    /// The CLI shape: `jobs` worker threads, resuming from `dir` when
    /// one is given and running without persistence — or a watchdog,
    /// since a one-shot run has no checkpoint to fall back on — when
    /// not. Shared by every `repro` subcommand that schedules cells,
    /// so spec-driven and hard-coded runs build byte-identical
    /// schedulers.
    #[must_use]
    pub fn for_run(jobs: usize, resume_dir: Option<&std::path::Path>) -> Self {
        Self {
            runner: resume_dir.map_or_else(
                || RunnerConfig {
                    timeout: None,
                    ..RunnerConfig::default()
                },
                RunnerConfig::resuming,
            ),
            jobs,
        }
    }
}

/// The merged result of a parallel sweep: one [`CellReport`] per
/// submitted cell, **in submission order** — byte-identical aggregate
/// output no matter how many workers ran it or in what order cells
/// finished.
#[derive(Debug)]
pub struct SweepReport<T> {
    /// Per-cell reports, in the order the cells were submitted.
    pub cells: Vec<CellReport<T>>,
}

impl<T> SweepReport<T> {
    /// Total in-process work-function executions (attempts), summed.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.attempts)).sum()
    }

    /// Cells served from final checkpoints without executing.
    #[must_use]
    pub fn resumed(&self) -> u64 {
        self.cells.iter().filter(|c| c.resumed).count() as u64
    }

    /// Total retries (attempts beyond each cell's first). Mid-cell
    /// checkpoint resumes do not count — see [`CellReport::retries`].
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.retries())).sum()
    }

    /// Cells whose retry budget was exhausted, in submission order.
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, &RunError)> {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err().map(|e| (c.key.as_str(), e)))
            .collect()
    }

    /// Per-cell timing/accounting rows, in submission order.
    #[must_use]
    pub fn timings(&self) -> Vec<CellTiming> {
        self.cells.iter().map(CellReport::timing).collect()
    }
}

/// The cell engine's front end: a bounded-concurrency sweep
/// scheduler.
///
/// Maps the cell engine over a canonical list of [`CellSpec`]s or
/// [`BatchSpec`] groups with [`par_map_ordered`] on up to
/// [`jobs`](Self::jobs) threads (inline at one job). Each group runs
/// through one engine — per-cell watchdog, panic isolation via a
/// separate [`run_attempt`] thread, bounded retry with backoff, final
/// and mid-run ([`CheckpointCell`]) checkpoints — so `--jobs N` never
/// changes failure semantics, only wall-clock time.
///
/// # Determinism contract
///
/// * Reports are merged by submission index, never completion order.
/// * Checkpoint files are a pure function of the cell key.
/// * Cell work must seed any randomness from its own coordinates
///   (e.g. `faults::cell_seed`), never from scheduling state.
///
/// Under that contract the merged [`SweepReport`] — and anything
/// serialized from it except [`CellTiming::wall_s`] — is byte-stable
/// across `jobs = 1..=N` and across mid-sweep kills + resumes.
///
/// [`par_map_ordered`]: crate::common::par_map_ordered
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    zombies: Zombies,
}

impl Scheduler {
    /// Builds a scheduler.
    #[must_use]
    pub fn new(cfg: SchedulerConfig) -> Self {
        Self {
            cfg,
            zombies: Zombies::default(),
        }
    }

    /// The effective worker count (`0` in the config resolves to
    /// [`default_jobs`]).
    #[must_use]
    pub fn jobs(&self) -> usize {
        if self.cfg.jobs == 0 {
            default_jobs()
        } else {
            self.cfg.jobs
        }
    }

    /// Watchdog-abandoned attempt threads still running; joins any
    /// that have finished since the last check.
    pub fn zombie_count(&mut self) -> usize {
        reap_zombie_list(&self.zombies)
    }

    /// Runs every cell and returns the deterministically merged
    /// report. Blocks until every cell has a terminal outcome; only
    /// watchdog-abandoned attempt threads can outlive this call
    /// (tracked via [`zombie_count`](Self::zombie_count)).
    pub fn run_cells<T>(&mut self, cells: Vec<CellSpec<T>>) -> SweepReport<T>
    where
        T: Serialize + DeserializeOwned + Send + 'static,
    {
        // A cell is a one-member batch: one engine for both.
        let batches = cells
            .into_iter()
            .map(|CellSpec { key, work }| {
                BatchSpec::new(vec![key], move |_, members| vec![work(&members[0])])
            })
            .collect();
        self.run_batches(batches)
    }

    /// Runs every batch group and returns the deterministically merged
    /// report, one [`CellReport`] per member cell, flattened in
    /// submission order (group by group, member by member). The same
    /// determinism contract as [`run_cells`](Self::run_cells) applies:
    /// the merged report is byte-stable across `jobs`, batch widths,
    /// and mid-sweep kills + resumes, because every on-disk artifact
    /// and result slot is keyed per member cell, never per group.
    pub fn run_batches<T>(&mut self, batches: Vec<BatchSpec<T>>) -> SweepReport<T>
    where
        T: Serialize + DeserializeOwned + Send + 'static,
    {
        let (cfg, zombies) = (&self.cfg.runner, &self.zombies);
        let groups = crate::common::par_map_ordered(self.jobs(), &batches, |batch| {
            execute_batch(cfg, zombies, batch)
        });
        SweepReport {
            cells: groups.into_iter().flatten().collect(),
        }
    }
}

/// Maps a cell key to a filesystem-safe stem.
fn sanitize(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Renders a panic payload (the `&str`/`String` cases panics actually
/// carry) into text.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_keeps_safe_chars_and_replaces_the_rest() {
        assert_eq!(sanitize("faults/gcc r=1e-4"), "faults_gcc_r_1e-4");
        assert_eq!(sanitize("table3"), "table3");
    }

    #[test]
    fn retry_backoff_is_exponential_and_deterministically_jittered() {
        let plain = RunnerConfig {
            backoff: Duration::from_millis(100),
            ..RunnerConfig::default()
        };
        // jitter = 0.0 (default) reproduces the exact historical schedule.
        assert_eq!(retry_backoff(&plain, "k", 1), Duration::from_millis(100));
        assert_eq!(retry_backoff(&plain, "k", 2), Duration::from_millis(200));
        assert_eq!(retry_backoff(&plain, "k", 3), Duration::from_millis(400));

        let jittered = RunnerConfig {
            jitter: 0.5,
            ..plain.clone()
        };
        for attempt in 1..=3 {
            let base = plain.backoff * (1 << (attempt - 1));
            let d = retry_backoff(&jittered, "cell-a", attempt);
            // Stretch only, bounded by the jitter fraction...
            assert!(
                d >= base && d <= base.mul_f64(1.5),
                "attempt {attempt}: {d:?}"
            );
            // ...and a pure function of (key, attempt).
            assert_eq!(d, retry_backoff(&jittered, "cell-a", attempt));
        }
        // Distinct keys land at distinct offsets (decorrelated retries).
        let offsets: Vec<Duration> = ["cell-a", "cell-b", "cell-c", "cell-d"]
            .iter()
            .map(|k| retry_backoff(&jittered, k, 1))
            .collect();
        assert!(offsets.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn run_error_display_and_json_round_trip() {
        let variants = [
            RunError::Timeout { seconds: 1.5 },
            RunError::Panic {
                message: "boom".to_owned(),
            },
            RunError::Io {
                message: "disk full".to_owned(),
            },
            RunError::Invariant {
                message: "ROB overflow".to_owned(),
            },
        ];
        for e in &variants {
            let text = serde_json::to_string(e).unwrap();
            let back: RunError = serde_json::from_str(&text).unwrap();
            assert_eq!(&back, e);
        }
        assert_eq!(variants[0].to_string(), "timed out after 1.5s");
        assert_eq!(variants[1].to_string(), "panicked: boom");
        assert_eq!(variants[2].to_string(), "i/o error: disk full");
        assert_eq!(variants[3].to_string(), "invariant violated: ROB overflow");
    }

    #[test]
    fn sim_error_converts_to_invariant() {
        let e: RunError = perconf_pipeline::SimError::RobOverflow { len: 9, cap: 8 }.into();
        assert!(matches!(e, RunError::Invariant { .. }));
        assert!(e.to_string().contains("ROB overflow"));
    }

    /// A one-job scheduler: cells run one at a time, in order.
    fn one_job(runner: RunnerConfig) -> Scheduler {
        Scheduler::new(SchedulerConfig { runner, jobs: 1 })
    }

    #[test]
    fn in_memory_runner_isolates_panics_and_retries() {
        use std::sync::atomic::AtomicU32;
        let mut s = one_job(RunnerConfig {
            timeout: None,
            retries: 2,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        });
        let calls = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&calls);
        // Fails twice, then succeeds on the third attempt.
        let report = s.run_cells(vec![CellSpec::new("flaky", move |_| {
            if c.fetch_add(1, Ordering::SeqCst) < 2 {
                panic!("transient");
            }
            7u32
        })]);
        assert_eq!(*report.cells[0].outcome.as_ref().unwrap(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert!(report.failures().is_empty());
        assert_eq!(report.executed(), 3);
    }

    #[test]
    fn exhausted_retries_record_the_failure() {
        let mut s = one_job(RunnerConfig {
            timeout: None,
            retries: 1,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        });
        let report = s.run_cells(vec![CellSpec::new("doomed", |_| -> u32 {
            panic!("always")
        })]);
        let err = report.cells[0].outcome.as_ref().unwrap_err();
        assert_eq!(
            *err,
            RunError::Panic {
                message: "always".to_owned()
            }
        );
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].0, "doomed");
    }

    #[test]
    fn watchdog_times_out_hung_cells() {
        let mut s = one_job(RunnerConfig {
            timeout: Some(Duration::from_millis(50)),
            retries: 0,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        });
        let report = s.run_cells(vec![CellSpec::new("hung", |_| -> u32 {
            loop {
                thread::sleep(Duration::from_millis(20));
            }
        })]);
        assert!(matches!(
            report.cells[0].outcome,
            Err(RunError::Timeout { .. })
        ));
    }

    #[test]
    fn timed_out_workers_are_reaped_once_they_finish() {
        let mut s = one_job(RunnerConfig {
            timeout: Some(Duration::from_millis(20)),
            retries: 0,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::default()
        });
        // Outlives its watchdog but terminates on its own.
        let report = s.run_cells(vec![CellSpec::new("slow", |_| {
            thread::sleep(Duration::from_millis(120));
            1u32
        })]);
        assert!(matches!(
            report.cells[0].outcome,
            Err(RunError::Timeout { .. })
        ));
        assert_eq!(s.zombie_count(), 1, "abandoned worker is tracked");
        // Once the stray worker exits, the next check joins it.
        thread::sleep(Duration::from_millis(250));
        assert_eq!(s.zombie_count(), 0, "finished worker is reaped");
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perconf-runner-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retry_resumes_from_the_mid_cell_checkpoint() {
        use std::sync::atomic::AtomicU32;
        let dir = fresh_dir("midcell");
        let mut s = one_job(RunnerConfig {
            retries: 1,
            backoff: Duration::from_millis(1),
            timeout: None,
            ..RunnerConfig::resuming(&dir)
        });
        let steps = Arc::new(AtomicU32::new(0));
        let attempts = Arc::new(AtomicU32::new(0));
        let (st, a) = (Arc::clone(&steps), Arc::clone(&attempts));
        // Counts to 10 in checkpointed steps; the first attempt dies
        // at 5. The retry must start from 5, not 0.
        let report = s.run_cells(vec![CellSpec::new("counter", move |cell| {
            let first = a.fetch_add(1, Ordering::SeqCst) == 0;
            // JSON round-trips non-negative integers as `Int`.
            let mut n = match cell.load() {
                Some(Value::UInt(n)) => n,
                Some(Value::Int(n)) if n >= 0 => n as u64,
                _ => 0,
            };
            while n < 10 {
                n += 1;
                st.fetch_add(1, Ordering::SeqCst);
                cell.store(|| Value::UInt(n));
                if first && n == 5 {
                    panic!("injected mid-cell death");
                }
            }
            n
        })]);
        assert_eq!(*report.cells[0].outcome.as_ref().unwrap(), 10);
        assert_eq!(
            steps.load(Ordering::SeqCst),
            10,
            "5 steps before the death + 5 after resuming, no redone work"
        );
        // Success cleared the partial checkpoint alongside the final one.
        assert!(!partial_path(&dir, "counter").exists());
        assert!(dir.join("counter.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_partial_checkpoint_falls_back_to_scratch() {
        let dir = fresh_dir("corrupt-partial");
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = one_job(RunnerConfig {
            retries: 0,
            timeout: None,
            ..RunnerConfig::resuming(&dir)
        });
        // Plant garbage where the partial checkpoint would live.
        std::fs::write(partial_path(&dir, "cell"), b"PSNAPxxx not a snapshot").unwrap();
        let report = s.run_cells(vec![CellSpec::new("cell", |cell| {
            // The corrupt file must not surface as state.
            assert!(cell.load().is_none(), "corrupt partial must be discarded");
            42u32
        })]);
        assert_eq!(*report.cells[0].outcome.as_ref().unwrap(), 42);
        assert!(!partial_path(&dir, "cell").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_run_ignores_stale_partial_state() {
        let dir = fresh_dir("stale-partial");
        std::fs::create_dir_all(&dir).unwrap();
        // resume = false: a leftover partial from some earlier sweep
        // must be cleared, not consumed.
        let mut s = one_job(RunnerConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: false,
            retries: 0,
            timeout: None,
            ..RunnerConfig::default()
        });
        snapfile::write(&partial_path(&dir, "cell"), &Value::UInt(999)).unwrap();
        let report = s.run_cells(vec![CellSpec::new("cell", |cell| match cell.load() {
            Some(Value::UInt(n)) => n,
            Some(Value::Int(n)) if n >= 0 => n as u64,
            _ => 0u64,
        })]);
        assert_eq!(
            *report.cells[0].outcome.as_ref().unwrap(),
            0,
            "stale partial state must not leak in"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_checkpoint_cell_is_inert() {
        let cell = CheckpointCell::disabled();
        assert!(cell.load().is_none());
        let built = std::cell::Cell::new(false);
        cell.store(|| {
            built.set(true);
            Value::UInt(7)
        });
        assert!(!built.get(), "a disabled cell must not build its state");
        cell.clear();
        assert!(cell.path().is_none());
    }

    #[test]
    fn scheduler_merges_in_submission_order_regardless_of_jobs() {
        for jobs in [1usize, 2, 7] {
            let mut s = Scheduler::new(SchedulerConfig {
                runner: RunnerConfig {
                    timeout: None,
                    retries: 0,
                    ..RunnerConfig::default()
                },
                jobs,
            });
            let cells: Vec<CellSpec<u64>> = (0..20u64)
                .map(|i| {
                    CellSpec::new(format!("cell-{i:02}"), move |_| {
                        // Stagger finish times so completion order and
                        // submission order genuinely differ.
                        thread::sleep(Duration::from_millis((20 - i) % 5));
                        i * 10
                    })
                })
                .collect();
            let report = s.run_cells(cells);
            assert_eq!(report.cells.len(), 20);
            for (i, c) in report.cells.iter().enumerate() {
                assert_eq!(c.key, format!("cell-{i:02}"), "jobs={jobs}");
                assert_eq!(*c.outcome.as_ref().unwrap(), i as u64 * 10);
            }
            assert_eq!(report.executed(), 20);
            assert_eq!(report.retries(), 0);
            assert!(report.failures().is_empty());
        }
    }

    #[test]
    fn scheduler_isolates_failures_per_cell() {
        let mut s = Scheduler::new(SchedulerConfig {
            runner: RunnerConfig {
                timeout: None,
                retries: 1,
                backoff: Duration::from_millis(1),
                ..RunnerConfig::default()
            },
            jobs: 4,
        });
        let cells: Vec<CellSpec<u32>> = (0..8u32)
            .map(|i| {
                CellSpec::new(format!("c{i}"), move |_| {
                    assert!(i % 3 != 0, "injected failure in c{i}");
                    i
                })
            })
            .collect();
        let report = s.run_cells(cells);
        let failed: Vec<&str> = report.failures().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            failed,
            ["c0", "c3", "c6"],
            "canonical order, only the poisoned cells"
        );
        // Each failing cell burned 1 retry; the healthy ones none.
        assert_eq!(report.retries(), 3);
        assert_eq!(report.executed(), 5 + 3 * 2);
    }

    #[test]
    fn resume_from_partial_checkpoint_is_not_a_retry() {
        // Regression: a cell continuing from a `.part.psnap` mid-run
        // checkpoint (e.g. after a mid-sweep kill) must report 0
        // retries — the resume is not a re-execution, and aggregate
        // stats must not double-count it.
        let dir = fresh_dir("sched-partial");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunnerConfig {
            retries: 2,
            timeout: None,
            backoff: Duration::from_millis(1),
            ..RunnerConfig::resuming(&dir)
        };
        // Plant the mid-cell state a killed run would have left.
        snapfile::write(&partial_file(&cfg, "cell").unwrap(), &Value::UInt(5)).unwrap();
        let mut s = Scheduler::new(SchedulerConfig {
            runner: cfg,
            jobs: 2,
        });
        let report = s.run_cells(vec![CellSpec::new("cell", |cell: &CheckpointCell| {
            let n = match cell.load() {
                Some(Value::UInt(n)) => n,
                Some(Value::Int(n)) if n >= 0 => n as u64,
                _ => 0,
            };
            assert_eq!(n, 5, "must continue from the planted mid-cell state");
            n + 5
        })]);
        let c = &report.cells[0];
        assert_eq!(*c.outcome.as_ref().unwrap(), 10);
        assert!(c.resumed_mid_cell);
        assert!(!c.resumed);
        assert_eq!(c.attempts, 1);
        assert_eq!(c.retries(), 0, "mid-cell resume must not count as a retry");
        assert_eq!(report.retries(), 0);
        assert_eq!(report.executed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_process_mid_cell_resume_counts_the_retry_exactly_once() {
        // First attempt checkpoints progress then dies; the in-process
        // retry continues from the partial state. That is exactly one
        // retry — not two (resume + retry double-count).
        use std::sync::atomic::AtomicU32;
        let dir = fresh_dir("sched-retry-once");
        let mut s = Scheduler::new(SchedulerConfig {
            runner: RunnerConfig {
                retries: 2,
                timeout: None,
                backoff: Duration::from_millis(1),
                ..RunnerConfig::resuming(&dir)
            },
            jobs: 1,
        });
        let attempts = Arc::new(AtomicU32::new(0));
        let a = Arc::clone(&attempts);
        let report = s.run_cells(vec![CellSpec::new("cell", move |cell: &CheckpointCell| {
            let first = a.fetch_add(1, Ordering::SeqCst) == 0;
            let mut n = match cell.load() {
                Some(Value::UInt(n)) => n,
                Some(Value::Int(n)) if n >= 0 => n as u64,
                _ => 0,
            };
            while n < 10 {
                n += 1;
                cell.store(|| Value::UInt(n));
                if first && n == 6 {
                    panic!("injected mid-cell death");
                }
            }
            n
        })]);
        let c = &report.cells[0];
        assert_eq!(*c.outcome.as_ref().unwrap(), 10);
        assert_eq!(c.attempts, 2);
        assert_eq!(c.retries(), 1, "one death, one retry — no double count");
        assert_eq!(report.retries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduler_resumes_final_checkpoints_without_executing() {
        let dir = fresh_dir("sched-resume");
        let mk = || {
            Scheduler::new(SchedulerConfig {
                runner: RunnerConfig {
                    retries: 0,
                    timeout: None,
                    ..RunnerConfig::resuming(&dir)
                },
                jobs: 3,
            })
        };
        let cells = |calls: &Arc<std::sync::atomic::AtomicU32>| -> Vec<CellSpec<u64>> {
            (0..6u64)
                .map(|i| {
                    let c = Arc::clone(calls);
                    CellSpec::new(format!("k{i}"), move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                })
                .collect()
        };
        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let first = mk().run_cells(cells(&calls));
        assert_eq!(first.executed(), 6);
        assert_eq!(calls.load(Ordering::SeqCst), 6);

        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let second = mk().run_cells(cells(&calls));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            0,
            "all cells come from checkpoints"
        );
        assert_eq!(second.resumed(), 6);
        assert_eq!(second.executed(), 0);
        for (i, c) in second.cells.iter().enumerate() {
            assert_eq!(*c.outcome.as_ref().unwrap(), i as u64);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_reads_the_final_result_then_the_failure_marker() {
        let dir = fresh_dir("recover");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(recover::<u32>(&dir, "none"), None);

        let cfg = RunnerConfig::resuming(&dir);
        write_final_checkpoint(&cfg, "done", &7u32).unwrap();
        assert_eq!(recover::<u32>(&dir, "done"), Some(Ok(7)));

        write_failure_marker(&cfg, "failed", &RunError::Timeout { seconds: 1.0 });
        assert_eq!(
            recover::<u32>(&dir, "failed"),
            Some(Err("timeout".to_owned()))
        );

        std::fs::write(cell_file(&dir, "garbled", FAILED), b"{not json").unwrap();
        assert_eq!(
            recover::<u32>(&dir, "garbled"),
            Some(Err("unknown".to_owned()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_discards_a_corrupt_final_result_and_falls_through() {
        let dir = fresh_dir("recover-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunnerConfig::resuming(&dir);
        let final_file = cell_file(&dir, "cell", FINAL);
        std::fs::write(&final_file, b"{truncated").unwrap();
        write_failure_marker(
            &cfg,
            "cell",
            &RunError::Panic {
                message: "boom".to_owned(),
            },
        );
        let degraded = degraded_count();
        assert_eq!(recover::<u32>(&dir, "cell"), Some(Err("panic".to_owned())));
        assert!(!final_file.exists(), "the corrupt result is deleted");
        assert!(degraded_count() > degraded, "and counted as degraded");
        // Without a marker the same corruption leaves nothing to recover.
        let solo = cell_file(&dir, "solo", FINAL);
        std::fs::write(&solo, b"{truncated").unwrap();
        assert_eq!(recover::<u32>(&dir, "solo"), None);
        assert!(!solo.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
        let s = Scheduler::new(SchedulerConfig {
            runner: RunnerConfig::default(),
            jobs: 0,
        });
        assert_eq!(s.jobs(), default_jobs());
    }

    #[test]
    fn cell_timing_reflects_the_report() {
        let mut s = Scheduler::new(SchedulerConfig {
            runner: RunnerConfig {
                timeout: None,
                retries: 1,
                backoff: Duration::from_millis(1),
                ..RunnerConfig::default()
            },
            jobs: 2,
        });
        let report = s.run_cells(vec![
            CellSpec::new("ok", |_| 1u32),
            CellSpec::new("bad", |_| -> u32 { panic!("always") }),
        ]);
        let t = report.timings();
        assert_eq!(t.len(), 2);
        assert!(t[0].ok && t[0].retries == 0);
        assert!(!t[1].ok && t[1].retries == 1 && t[1].attempts == 2);
        // Timing rows survive the JSON round trip (they are published
        // as build artifacts).
        let text = serde_json::to_string(&t).unwrap();
        let back: Vec<CellTiming> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, t);
    }
}
