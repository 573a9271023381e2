//! The supervisor: a bounded submission queue, a small pool of actor
//! runners, and the restart policy wrapped around every experiment.
//!
//! Supervision tree:
//!
//! ```text
//! Supervisor (owns counters, queue)
//! └── actor-runner thread × N      (pool, picks queued experiments)
//!     └── runner::run_attempt      (own thread, catch_unwind + watchdog, per try)
//!         └── runner::Scheduler    (per-cell isolation, checkpoints)
//! ```
//!
//! Each incarnation runs through the runner's attempt primitive, the
//! same one every sweep cell runs through. An attempt that panics or
//! outlives the per-experiment watchdog is counted and retried with
//! resume semantics up to [`SupervisorConfig::restart_budget`]
//! restarts. An abandoned incarnation is parked on the supervisor's
//! zombie list and joined once it finishes. After the budget is
//! spent the experiment is finalised *degraded*: a table assembled
//! from the spec's final checkpoints, with unrecoverable cells in its
//! `failed` list — never silently dropped. A failed cell's kind
//! is its failure marker's (`panic`, `timeout`, ...), read through
//! `runner::recover` as the distributed merge reads it, and
//! `abandoned` only when nothing is on disk for it.
//!
//! Each spec has one checkpoint directory, `specs/<digest>/`
//! ([`ExperimentSpec::digest_hex`]), shared by every submission of
//! it: the store of its finished cells, so a repeat submission
//! re-simulates nothing. Accepted experiments persist as
//! `pending/<id>.json` markers until they finalise, so a killed
//! server's successor ([`Supervisor::start`]) re-enqueues them and
//! resumes from the finals and partials the dead actors left behind.

use crate::actor::{self, ActorConfig, ActorOutcome};
use crate::api::ExperimentSpec;
use perconf_experiments::runner::{self, RunError};
use perconf_obs::{CounterSnapshot, Counters};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Supervision policy and sizing.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Root of all server state (`pending/`, `results/`,
    /// `specs/<digest>/`).
    pub state_dir: PathBuf,
    /// Bound on accepted-but-unfinished experiments (queued +
    /// running). Submissions beyond it are shed with `Busy`.
    pub queue_capacity: usize,
    /// Actor-runner threads (experiments in flight at once).
    pub actor_threads: usize,
    /// Restarts allowed per experiment before it finalises degraded.
    pub restart_budget: u32,
    /// Watchdog on one actor attempt (the *experiment* watchdog; each
    /// row group additionally has the runner's own watchdog).
    pub watchdog: Duration,
    /// Scheduler worker threads inside each actor; an experiment runs
    /// one batch group per grid row, so at most its row count is used.
    pub jobs: usize,
    /// Per-cell watchdog override passed through to the runner, which
    /// scales it by a row group's pending cells.
    pub cell_timeout: Option<Duration>,
}

impl SupervisorConfig {
    /// Defaults rooted at `state_dir`.
    #[must_use]
    pub fn at<P: Into<PathBuf>>(state_dir: P) -> Self {
        Self {
            state_dir: state_dir.into(),
            queue_capacity: 8,
            actor_threads: 1,
            restart_budget: 2,
            watchdog: Duration::from_secs(600),
            jobs: 1,
            cell_timeout: None,
        }
    }
}

/// Lifecycle phase of one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for an actor runner.
    Queued,
    /// An actor attempt is executing.
    Running,
    /// Finished with every cell accounted for.
    Done,
    /// Finished after exhausting the restart budget (or with failed
    /// cells): complete for every recoverable cell, the rest listed.
    Degraded,
    /// Could not run at all (unresolvable spec from a pending marker).
    Failed,
}

impl Phase {
    /// Wire name (`Response::Status.phase`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Degraded => "degraded",
            Phase::Failed => "failed",
        }
    }

    /// Whether the experiment has reached a terminal phase.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Degraded | Phase::Failed)
    }
}

/// Everything the server tracks about one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentEntry {
    /// Spec digest + submission ordinal.
    pub id: String,
    /// What was submitted.
    pub spec: ExperimentSpec,
    /// Chaos harness: one scripted actor kill armed.
    pub chaos_kill: bool,
    /// Current phase.
    pub phase: Phase,
    /// Actor restarts consumed.
    pub restarts: u32,
    /// Cells served from their final checkpoints.
    pub from_cache: u64,
    /// Cells simulated.
    pub computed: u64,
    /// Terminally failed cell keys.
    pub failed: Vec<String>,
    /// Failure class per failed cell.
    pub failed_kinds: Vec<String>,
}

/// Outcome of a submission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submitted {
    /// Queued (or coalesced onto an identical in-flight experiment).
    Accepted {
        /// Id to poll.
        id: String,
        /// `true` when coalesced.
        deduped: bool,
    },
    /// Shed: the bounded queue is full or the server is draining.
    Busy {
        /// Why.
        reason: String,
    },
    /// The spec itself is unusable.
    Invalid {
        /// Why.
        reason: String,
    },
}

struct State {
    queue: VecDeque<String>,
    running: usize,
    experiments: BTreeMap<String, ExperimentEntry>,
    next_ordinal: u64,
}

struct Shared {
    cfg: SupervisorConfig,
    counters: Mutex<Counters>,
    state: Mutex<State>,
    work: Condvar,
    /// Set on shutdown: stop accepting, workers exit once the queue
    /// is empty.
    draining: AtomicBool,
    /// Incarnations abandoned by the experiment watchdog.
    zombies: runner::Zombies,
}

/// Handle to the running supervision tree.
pub struct Supervisor {
    shared: Arc<Shared>,
    runners: Vec<thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Creates the state directories, re-enqueues any `pending/`
    /// markers a dead predecessor left, and starts the runner pool.
    ///
    /// # Errors
    ///
    /// Propagates state-directory creation failures.
    ///
    /// # Panics
    ///
    /// Panics if the runner pool threads cannot be spawned.
    pub fn start(cfg: SupervisorConfig) -> std::io::Result<Self> {
        for sub in ["pending", "results", "specs"] {
            std::fs::create_dir_all(cfg.state_dir.join(sub))?;
        }
        let shared = Arc::new(Shared {
            counters: Mutex::new(Counters::new()),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                running: 0,
                experiments: BTreeMap::new(),
                next_ordinal: 0,
            }),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            zombies: runner::Zombies::default(),
            cfg,
        });
        let mut sup = Self {
            shared: Arc::clone(&shared),
            runners: Vec::new(),
        };
        sup.recover_pending()?;
        for i in 0..shared.cfg.actor_threads.max(1) {
            let sh = Arc::clone(&shared);
            sup.runners.push(
                thread::Builder::new()
                    .name(format!("actor-runner-{i}"))
                    .spawn(move || runner_loop(&sh))
                    .expect("spawn actor runner"),
            );
        }
        Ok(sup)
    }

    /// Re-enqueues experiments whose pending markers survived a dead
    /// server — the restart half of the drain-then-exit contract.
    fn recover_pending(&self) -> std::io::Result<()> {
        let dir = self.shared.cfg.state_dir.join("pending");
        let mut markers: Vec<(String, PathBuf)> = std::fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id = name.strip_suffix(".json")?.to_owned();
                Some((id, e.path()))
            })
            .collect();
        markers.sort();
        let mut recovered = 0u64;
        for (id, path) in markers {
            let spec = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<ExperimentSpec>(&text).ok());
            let mut st = self.shared.state.lock().expect("state mutex poisoned");
            // Keep the ordinal counter ahead of recovered ids so new
            // submissions never collide with them.
            if let Some(ord) = id.rsplit('-').next().and_then(|s| s.parse::<u64>().ok()) {
                st.next_ordinal = st.next_ordinal.max(ord + 1);
            }
            match spec {
                Some(spec) => {
                    st.experiments.insert(
                        id.clone(),
                        ExperimentEntry {
                            id: id.clone(),
                            spec,
                            chaos_kill: false,
                            phase: Phase::Queued,
                            restarts: 0,
                            from_cache: 0,
                            computed: 0,
                            failed: Vec::new(),
                            failed_kinds: Vec::new(),
                        },
                    );
                    st.queue.push_back(id);
                    recovered += 1;
                    self.shared.work.notify_one();
                }
                None => {
                    // An unreadable marker still must not vanish
                    // silently: surface it as a failed experiment.
                    eprintln!(
                        "warning: pending marker {} is unreadable; marking failed",
                        path.display()
                    );
                    st.experiments.insert(
                        id.clone(),
                        ExperimentEntry {
                            id: id.clone(),
                            spec: ExperimentSpec {
                                seed: 0,
                                scale: "?".to_owned(),
                                grid: "?".to_owned(),
                            },
                            chaos_kill: false,
                            phase: Phase::Failed,
                            restarts: 0,
                            from_cache: 0,
                            computed: 0,
                            failed: Vec::new(),
                            failed_kinds: Vec::new(),
                        },
                    );
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        if recovered > 0 {
            self.shared
                .counters
                .lock()
                .expect("counters mutex poisoned")
                .counter("serve", "resumed_pending", recovered);
        }
        Ok(())
    }

    /// Submits an experiment (the bounded-queue front door).
    ///
    /// # Panics
    ///
    /// Propagates poisoned internal mutexes.
    pub fn submit(&self, spec: &ExperimentSpec, chaos_kill: bool) -> Submitted {
        if let Err(e) = spec.resolve() {
            return Submitted::Invalid { reason: e };
        }
        let mut counters = self
            .shared
            .counters
            .lock()
            .expect("counters mutex poisoned");
        counters.counter("serve", "submissions", 1);
        if self.shared.draining.load(Ordering::SeqCst) {
            counters.counter("serve", "sheds", 1);
            return Submitted::Busy {
                reason: "server is draining for shutdown".to_owned(),
            };
        }
        let mut st = self.shared.state.lock().expect("state mutex poisoned");
        // Coalesce onto an identical spec still in flight: the caller
        // gets the same id and the work runs once.
        let digest_hex = spec.digest_hex();
        if let Some(live) = st
            .experiments
            .values()
            .find(|e| !e.phase.is_terminal() && e.spec == *spec && !e.chaos_kill && !chaos_kill)
        {
            counters.counter("serve", "dedup_hits", 1);
            return Submitted::Accepted {
                id: live.id.clone(),
                deduped: true,
            };
        }
        let in_flight = st.queue.len() + st.running;
        if in_flight >= self.shared.cfg.queue_capacity.max(1) {
            counters.counter("serve", "sheds", 1);
            return Submitted::Busy {
                reason: format!(
                    "submission queue full ({in_flight}/{} in flight)",
                    self.shared.cfg.queue_capacity
                ),
            };
        }
        let id = format!("{digest_hex}-{}", st.next_ordinal);
        st.next_ordinal += 1;
        // Pending marker first: once we say Accepted, a crash between
        // here and finalise must leave a resumable trace.
        let marker = self.pending_path(&id);
        match serde_json::to_string_pretty(spec) {
            Ok(body) => {
                if let Err(e) = perconf_bpred::atomic_write(&marker, &[body.as_bytes()], true) {
                    eprintln!("warning: cannot write {}: {e}", marker.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialise pending marker: {e}"),
        }
        st.experiments.insert(
            id.clone(),
            ExperimentEntry {
                id: id.clone(),
                spec: spec.clone(),
                chaos_kill,
                phase: Phase::Queued,
                restarts: 0,
                from_cache: 0,
                computed: 0,
                failed: Vec::new(),
                failed_kinds: Vec::new(),
            },
        );
        st.queue.push_back(id.clone());
        self.shared.work.notify_one();
        Submitted::Accepted { id, deduped: false }
    }

    /// A point-in-time copy of one experiment's entry.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned state mutex.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<ExperimentEntry> {
        self.shared
            .state
            .lock()
            .expect("state mutex poisoned")
            .experiments
            .get(id)
            .cloned()
    }

    /// A finished experiment's result table (parsed from its result
    /// file), or `None` while it is still in flight.
    ///
    /// # Panics
    ///
    /// Propagates a poisoned state mutex.
    #[must_use]
    pub fn result_table(&self, id: &str) -> Option<serde::Value> {
        let entry = self.status(id)?;
        if !entry.phase.is_terminal() {
            return None;
        }
        let text = std::fs::read_to_string(self.result_path(id)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Where a finished experiment's table lives.
    #[must_use]
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.shared
            .cfg
            .state_dir
            .join("results")
            .join(format!("{id}.json"))
    }

    fn pending_path(&self, id: &str) -> PathBuf {
        self.shared
            .cfg
            .state_dir
            .join("pending")
            .join(format!("{id}.json"))
    }

    /// The server's counters (`serve` and `cache` groups), plus load
    /// gauges.
    ///
    /// # Panics
    ///
    /// Propagates poisoned internal mutexes.
    #[must_use]
    pub fn stats(&self) -> CounterSnapshot {
        let mut counters = self
            .shared
            .counters
            .lock()
            .expect("counters mutex poisoned");
        let st = self.shared.state.lock().expect("state mutex poisoned");
        counters
            .gauge("serve", "queue_depth", st.queue.len() as u64)
            .gauge("serve", "running", st.running as u64);
        counters.snapshot()
    }

    /// Stops accepting, lets the runner pool drain every accepted
    /// experiment, and joins it. Queued work is *finished*, not
    /// abandoned — the drain half of the drain-then-exit contract
    /// (anything that still could not finalise keeps its pending
    /// marker for the next server).
    ///
    /// # Panics
    ///
    /// Panics if a runner thread itself panicked (a supervisor bug —
    /// actor panics are caught per attempt).
    pub fn shutdown_and_drain(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.work.notify_all();
        for h in self.runners.drain(..) {
            h.join().expect("actor runner panicked");
        }
    }
}

fn runner_loop(sh: &Arc<Shared>) {
    loop {
        let id = {
            let mut st = sh.state.lock().expect("state mutex poisoned");
            loop {
                if let Some(id) = st.queue.pop_front() {
                    st.running += 1;
                    if let Some(e) = st.experiments.get_mut(&id) {
                        e.phase = Phase::Running;
                    }
                    break id;
                }
                if sh.draining.load(Ordering::SeqCst) {
                    return;
                }
                st = sh
                    .work
                    .wait_timeout(st, Duration::from_millis(100))
                    .expect("state mutex poisoned")
                    .0;
            }
        };
        run_supervised(sh, &id);
        let mut st = sh.state.lock().expect("state mutex poisoned");
        st.running -= 1;
        sh.work.notify_all();
    }
}

/// The restart policy around one experiment.
fn run_supervised(sh: &Arc<Shared>, id: &str) {
    let Some(entry) = sh
        .state
        .lock()
        .expect("state mutex poisoned")
        .experiments
        .get(id)
        .cloned()
    else {
        return;
    };
    let actor_cfg = ActorConfig {
        spec: entry.spec.clone(),
        checkpoint_dir: sh.cfg.state_dir.join("specs").join(entry.spec.digest_hex()),
        jobs: sh.cfg.jobs,
        cell_timeout: sh.cfg.cell_timeout,
        kill_after: None,
    };
    for incarnation in 0..=sh.cfg.restart_budget {
        // The chaos kill is scripted for the first incarnation only:
        // one death, then the restart proves the resume path.
        let mut cfg = actor_cfg.clone();
        if entry.chaos_kill && incarnation == 0 {
            cfg.kill_after = Some(1);
        }
        if incarnation > 0 {
            sh.counters
                .lock()
                .expect("counters mutex poisoned")
                .counter("serve", "restarts", 1);
            let mut st = sh.state.lock().expect("state mutex poisoned");
            if let Some(e) = st.experiments.get_mut(id) {
                e.restarts = incarnation;
            }
        }
        let attempt = runner::run_attempt(Some(sh.cfg.watchdog), &sh.zombies, move || {
            actor::run_experiment(&cfg)
        });
        match attempt {
            Ok(Ok(outcome)) => {
                finalize(sh, id, &outcome, outcome.failed.is_empty());
                return;
            }
            Ok(Err(reason)) => {
                // Unresolvable spec: retrying cannot help.
                eprintln!("experiment {id}: {reason}");
                finalize_failed(sh, id);
                return;
            }
            Err(e) => {
                // A timed-out incarnation keeps running (its cells keep
                // checkpointing) until it finishes and is reaped.
                if matches!(e, RunError::Timeout { .. }) {
                    sh.counters
                        .lock()
                        .expect("counters mutex poisoned")
                        .counter("serve", "watchdog_kills", 1);
                }
                eprintln!("experiment {id} attempt {incarnation} {e}");
            }
        }
    }
    // Restart budget exhausted: degrade, never drop. Whatever the
    // dead incarnations checkpointed is assembled into a partial
    // table; the rest is listed as failed.
    let partial = actor::assemble_partial(&actor_cfg);
    match partial {
        Ok(outcome) => finalize(sh, id, &outcome, false),
        Err(reason) => {
            eprintln!("experiment {id}: cannot assemble partial: {reason}");
            finalize_failed(sh, id);
        }
    }
}

fn finalize(sh: &Arc<Shared>, id: &str, outcome: &ActorOutcome, clean: bool) {
    // Result file first, then the pending marker: a crash between the
    // two re-runs the experiment (cheap: every cell is served from its
    // final) instead of losing it.
    let path = sh.cfg.state_dir.join("results").join(format!("{id}.json"));
    match serde_json::to_string_pretty(&outcome.table) {
        Ok(body) => {
            if let Err(e) = perconf_bpred::atomic_write(&path, &[body.as_bytes()], true) {
                eprintln!("warning: cannot write result {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise result for {id}: {e}"),
    }
    let _ = std::fs::remove_file(sh.cfg.state_dir.join("pending").join(format!("{id}.json")));
    {
        let mut counters = sh.counters.lock().expect("counters mutex poisoned");
        counters
            .counter("cache", "hits", outcome.from_cache)
            .counter("cache", "misses", outcome.computed)
            .counter("serve", "cells_computed", outcome.computed)
            .counter("serve", "cells_resumed_mid_cell", outcome.resumed_mid_cell);
        if clean {
            counters.counter("serve", "completed", 1);
        } else {
            counters.counter("serve", "degraded", 1);
        }
    }
    let mut st = sh.state.lock().expect("state mutex poisoned");
    if let Some(e) = st.experiments.get_mut(id) {
        e.phase = if clean { Phase::Done } else { Phase::Degraded };
        e.from_cache = outcome.from_cache;
        e.computed = outcome.computed;
        e.failed = outcome.failed.clone();
        e.failed_kinds = outcome.failed_kinds.clone();
    }
}

fn finalize_failed(sh: &Arc<Shared>, id: &str) {
    sh.counters
        .lock()
        .expect("counters mutex poisoned")
        .counter("serve", "failed_experiments", 1);
    let _ = std::fs::remove_file(sh.cfg.state_dir.join("pending").join(format!("{id}.json")));
    let mut st = sh.state.lock().expect("state mutex poisoned");
    if let Some(e) = st.experiments.get_mut(id) {
        e.phase = Phase::Failed;
    }
}
