//! The distributed-sweep worker loop: claim, execute, complete.
//!
//! A worker is one OS process running this loop against a shared
//! [`Queue`]:
//!
//! 1. [`reap`](Queue::reap) expired leases (so dead peers' cells come
//!    back), then try to [`claim`](Queue::claim) a cell;
//! 2. execute it as [`cell_spec`] on a one-job [`Scheduler`] — the
//!    same cell and engine (watchdog, retries, mid-cell `.part.psnap`
//!    checkpoints) the single-process sweep uses, pointed at the
//!    queue's shared `cells/` directory so an orphaned partial from a
//!    dead peer is picked up by whoever claims the cell next;
//! 3. heartbeat the lease from a side thread while the cell runs;
//! 4. [`complete`](Queue::complete) the claim. The cell's result is
//!    already stored: the scheduler wrote its checksummed final into
//!    `cells/` before returning. A failed `complete` means the lease
//!    was reaped while we ran and another worker owns the cell now;
//!    the result is *late* (its final is byte-identical to the new
//!    owner's) and only counted.
//!
//! The loop exits when a claim attempt finds nothing *and* nothing is
//! pending. Every decision the worker makes affects only scheduling;
//! cell bytes are fixed by `faults::cell_seed`, so any interleaving of
//! any number of workers merges to identical output.
//!
//! # Chaos
//!
//! A worker may carry a chaos script (`claim-index = action` pairs,
//! rendered by [`perconf_faults::process::render_script`]) injecting
//! process-level faults at claim points: exiting with [`CHAOS_EXIT`]
//! on claim, exiting as soon as the running cell writes a mid-cell
//! checkpoint, stalling past the lease without heartbeats, or plain
//! delay. This is how the chaos tests kill half the fleet mid-sweep
//! deterministically.

use super::queue::{CellDesc, Claim, Manifest, Queue};
use super::timings::{
    heartbeat_interval, CELL_BACKOFF, CLAIM_POLL, OPEN_RETRIES, OPEN_RETRY_DELAY,
};
use crate::faults::{cell_spec, FaultCell};
use crate::runner::{partial_path, CellReport, RunnerConfig, Scheduler, SchedulerConfig};
use perconf_faults::ChaosAction;
use perconf_obs::{CounterSnapshot, Counters};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Exit status of a chaos-scripted death, distinct from ordinary
/// failure codes so the coordinator can tell scripted kills from real
/// crashes in its accounting.
pub const CHAOS_EXIT: i32 = 137;

/// Configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Root of the shared queue directory.
    pub queue_root: PathBuf,
    /// This worker's id (appears in lease names and stats files; `@`
    /// and other exotic characters are sanitized away).
    pub worker_id: String,
    /// Chaos script: `(claim index, action)` pairs. Empty = run clean.
    pub script: Vec<(u64, ChaosAction)>,
    /// Per-attempt watchdog for cell execution (`None` waits forever).
    pub timeout: Option<Duration>,
}

impl WorkerConfig {
    /// A clean (chaos-free) worker without a cell watchdog.
    #[must_use]
    pub fn new(queue_root: PathBuf, worker_id: impl Into<String>) -> Self {
        Self {
            queue_root,
            worker_id: worker_id.into(),
            script: Vec::new(),
            timeout: None,
        }
    }
}

/// Keeps a claim's lease fresh from a side thread while the cell runs.
/// Dropping (or [`stop`](Heartbeat::stop)ping) it ends the thread.
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(queue: &Queue, claim: &Claim, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let queue = queue.clone();
        let claim = claim.clone();
        let handle = thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                // A false return means the lease was reaped; keep
                // looping anyway — the worker's `complete` call is the
                // authoritative late-result detector.
                let _ = queue.heartbeat(&claim);
                // Sleep in short slices so stop() returns promptly.
                let mut left = interval;
                while !flag.load(Ordering::Relaxed) && left > Duration::ZERO {
                    let step = left.min(Duration::from_millis(10));
                    thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Arms a watcher that exits the process with [`CHAOS_EXIT`] as soon
/// as `partial` exists — i.e. as soon as the running cell has written
/// a mid-cell checkpoint some successor can resume from. The watcher
/// disarms when `stop` is set (cell finished before it fired).
fn arm_mid_cell_killer(partial: &Path, stop: &Arc<AtomicBool>) {
    let partial = partial.to_owned();
    let stop = Arc::clone(stop);
    thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if partial.exists() {
                std::process::exit(CHAOS_EXIT);
            }
            thread::sleep(Duration::from_millis(2));
        }
    });
}

/// Runs one queued cell on `scheduler`: the work a claim executes, and
/// the coordinator's inline recompute during the merge.
pub(super) fn run_queued_cell(
    scheduler: &mut Scheduler,
    manifest: &Manifest,
    desc: &CellDesc,
) -> CellReport<FaultCell> {
    let cell = cell_spec(manifest.scale, manifest.seed, desc);
    let mut report = scheduler.run_cells(vec![cell]);
    report.cells.pop().expect("one cell in, one report out")
}

/// Runs the worker loop to queue exhaustion. Returns this worker's
/// scheduling counters (also persisted to `workers/<id>.json` in the
/// queue after every cell, so a killed worker's partial statistics
/// survive it).
///
/// # Errors
///
/// Only setup failures (unopenable queue) error out; per-cell failures
/// are recorded in the queue (failure markers, counters) and the loop
/// continues.
pub fn run_worker(cfg: &WorkerConfig) -> Result<CounterSnapshot, String> {
    // The coordinator creates the queue before spawning workers, but a
    // manually started worker may race it — retry briefly.
    let mut queue = Queue::open(&cfg.queue_root);
    for _ in 0..OPEN_RETRIES {
        if queue.is_ok() {
            break;
        }
        thread::sleep(OPEN_RETRY_DELAY);
        queue = Queue::open(&cfg.queue_root);
    }
    let queue = queue?;
    let lease = Duration::from_millis(queue.manifest().lease_ms);
    let heartbeat_every = heartbeat_interval(lease);
    let manifest = queue.manifest().clone();

    let mut counters = Counters::new();
    for name in [
        "cells_claimed",
        "cells_completed",
        "cells_failed",
        "cells_resumed_final",
        "cells_resumed_mid_cell",
        "cell_attempts",
        "late_results_ignored",
        "leases_reaped",
        "chaos_stalls",
        "chaos_delays",
    ] {
        counters.counter("distrib", name, 0);
    }

    let cells_dir = queue.cells_dir();
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            checkpoint_dir: Some(cells_dir.clone()),
            timeout: cfg.timeout,
            retries: 1,
            backoff: CELL_BACKOFF,
        },
        jobs: 1,
    });

    let mut claim_index: u64 = 0;
    loop {
        let reaped = queue.reap();
        counters.counter("distrib", "leases_reaped", reaped as u64);

        let Some(claim) = queue.claim(&cfg.worker_id) else {
            if queue.pending() == 0 {
                break;
            }
            // Everything left is leased to peers; wait for them to
            // finish or for their leases to expire.
            thread::sleep(CLAIM_POLL);
            continue;
        };
        counters.counter("distrib", "cells_claimed", 1);
        let action = cfg
            .script
            .iter()
            .find(|(at, _)| *at == claim_index)
            .map(|(_, a)| *a);
        claim_index += 1;

        if action == Some(ChaosAction::KillOnClaim) {
            queue.write_worker_stats(&cfg.worker_id, &counters.snapshot());
            std::process::exit(CHAOS_EXIT);
        }

        let desc = claim.desc.clone();
        let mid_cell_stop = Arc::new(AtomicBool::new(false));
        match action {
            Some(ChaosAction::Stall { ms }) => {
                // Deliberately no heartbeat: outlive the lease so the
                // cell is requeued under our feet and our eventual
                // completion arrives late.
                counters.counter("distrib", "chaos_stalls", 1);
                thread::sleep(Duration::from_millis(ms));
            }
            Some(ChaosAction::Delay { ms }) => {
                counters.counter("distrib", "chaos_delays", 1);
                let hb = Heartbeat::start(&queue, &claim, heartbeat_every);
                thread::sleep(Duration::from_millis(ms));
                hb.stop();
            }
            Some(ChaosAction::KillMidCell) => {
                arm_mid_cell_killer(&partial_path(&cells_dir, &desc.key), &mid_cell_stop);
            }
            Some(ChaosAction::KillOnClaim) | None => {}
        }

        let hb = Heartbeat::start(&queue, &claim, heartbeat_every);
        let report = run_queued_cell(&mut scheduler, &manifest, &desc);
        hb.stop();
        mid_cell_stop.store(true, Ordering::Relaxed);

        counters.counter("distrib", "cell_attempts", u64::from(report.attempts));
        if report.resumed {
            counters.counter("distrib", "cells_resumed_final", 1);
        }
        if report.resumed_mid_cell {
            counters.counter("distrib", "cells_resumed_mid_cell", 1);
        }
        match &report.outcome {
            Ok(_) => {
                if queue.complete(&claim) {
                    counters.counter("distrib", "cells_completed", 1);
                } else {
                    // Reaped while we ran: the cell belongs to someone
                    // else now, and its final is the same bytes as ours.
                    counters.counter("distrib", "late_results_ignored", 1);
                }
            }
            Err(e) => {
                eprintln!("worker {}: cell {} failed: {e}", cfg.worker_id, desc.key);
                counters.counter("distrib", "cells_failed", 1);
                // Mark the cell done even though it failed: the retry
                // budget is the runner's, not the queue's, and the
                // failure marker in cells/ carries the error to the
                // coordinator's merge. (If the lease was reaped, the
                // rename fails and a peer retries the cell instead.)
                let _ = queue.complete(&claim);
            }
        }
        queue.write_worker_stats(&cfg.worker_id, &counters.snapshot());
    }

    let snapshot = counters.snapshot();
    queue.write_worker_stats(&cfg.worker_id, &snapshot);
    Ok(snapshot)
}
