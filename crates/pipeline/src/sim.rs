use crate::cache::MemHierarchy;
use crate::config::PipelineConfig;
use crate::stats::SimStats;
use perconf_bpred::{BranchPredictor, SimPredictor, Snapshot, SnapshotError};
use perconf_core::{
    AlwaysHigh, BranchDecision, ConfidenceEstimator, GateCounter, SimEstimator,
    SpeculationController,
};
use perconf_metrics::DensityPair;
use perconf_obs::{CounterSnapshot, Counters, Profiler, TraceEvent, Tracer};
use perconf_workload::{Uop, UopKind, WorkloadConfig, WorkloadGenerator};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeSet, VecDeque};
use std::ops::{Deref, DerefMut};

/// The boxed predictor + estimator combination the simulator drives.
///
/// Components are [`SimPredictor`]/[`SimEstimator`] — predictor or
/// estimator *plus* [`Snapshot`] — so a whole simulation can be
/// checkpointed and restored mid-run.
pub type Controller = SpeculationController<Box<dyn SimPredictor>, Box<dyn SimEstimator>>;

/// A recoverable simulator failure.
///
/// The simulator's internal invariants are checked in release builds
/// too, but through the `try_*` entry points they surface as values
/// instead of panics, so a sweep driver can mark the offending cell
/// failed and keep going. The panicking entry points ([`Simulation::run`],
/// [`Simulation::warmup`], [`Simulation::step`]) are thin wrappers that
/// `panic!` on these same errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Retirement stopped making progress (a leaked gate counter or a
    /// dependence cycle would otherwise hang the run forever).
    Stalled {
        /// Correct-path uops retired when progress stopped.
        retired: u64,
        /// The retirement target of the current run call.
        target: u64,
        /// Cycle at which the deadline expired.
        cycle: u64,
    },
    /// Fetch tried to claim a sequence-status slot still owned by a
    /// live in-flight uop — the in-flight window exceeded
    /// `STATUS_WINDOW` and completion tracking would silently corrupt.
    StatusWindowReuse {
        /// Sequence number that wanted the slot.
        seq: u64,
        /// Live occupant's sequence number.
        occupant: u64,
    },
    /// The reorder buffer grew past its configured capacity.
    RobOverflow {
        /// Observed occupancy.
        len: usize,
        /// Configured `rob_size`.
        cap: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                retired,
                target,
                cycle,
            } => write!(
                f,
                "simulation stalled: retired {retired}/{target} at cycle {cycle}"
            ),
            SimError::StatusWindowReuse { seq, occupant } => write!(
                f,
                "status-window slot reuse: seq {seq} would evict live seq {occupant}"
            ),
            SimError::RobOverflow { len, cap } => {
                write!(f, "ROB overflow: {len} entries in a {cap}-entry buffer")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Sequence-status window size; must exceed the maximum *sequence
/// span* of live in-flight uops by a wide margin so live slots are
/// never reused. Note the span is much larger than the in-flight
/// *count* (≤ `frontend_capacity + rob_size` ≈ 264): sequence numbers
/// are also burned by squashed wrong-path uops, so while a ROB head
/// stalls on a long dependence chain, repeated mispredict/squash/
/// refill rounds behind it can advance `next_seq` by thousands.
/// Configs that exceed the window anyway are caught by the fetch-time
/// [`SimError::StatusWindowReuse`] check, not corrupted.
const STATUS_WINDOW: usize = 1 << 14;
const STATUS_MASK: usize = STATUS_WINDOW - 1;

/// Dependence-distance ring mapping recent correct-path uop indices to
/// global sequence numbers. Must exceed the generator's maximum
/// dependence distance.
const CP_RING: usize = 128;
const CP_MASK: usize = CP_RING - 1;

/// Calendar-ring span for pending completions: one bucket per future
/// cycle. Sized above the worst stock latency chain (L1 + L2 + memory
/// = 195 cycles); issues due even further out (hand-built configs with
/// huge `mem_latency`) spill to the unordered `complete_far` overflow
/// list, which is scanned per cycle but empty on every stock config.
const COMPLETE_RING: usize = 256;
const COMPLETE_MASK: usize = COMPLETE_RING - 1;

/// Sentinel for "no producer" in the arena's dense `prod1`/`prod2`
/// columns. Safe: real sequence numbers are allocated from 0 and a run
/// can never reach `u64::MAX`, and `producers` never yields it (the
/// cp-ring maps its own `u64::MAX` fill to `None`).
const NO_PROD: u64 = u64::MAX;

/// Wakeup table size (slots indexed by producer seq & `WAIT_MASK`).
/// Collisions are benign: a wake is only a hint to revalidate, and a
/// spuriously woken entry re-parks on its still-pending producer.
const WAIT_SLOTS: usize = 1 << 12;
const WAIT_MASK: usize = WAIT_SLOTS - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SlotStatus {
    seq: u64,
    completed: bool,
}

/// A status slot no live uop owns.
const FREE_SLOT: SlotStatus = SlotStatus {
    seq: u64::MAX,
    completed: true,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Int,
    Mem,
    Fp,
}

fn class_of(kind: UopKind) -> Class {
    match kind {
        UopKind::IntAlu | UopKind::IntMul | UopKind::Branch => Class::Int,
        UopKind::Load | UopKind::Store => Class::Mem,
        UopKind::Fp => Class::Fp,
    }
}

/// One waiting (dispatched, un-issued) uop, as tracked by the
/// event-driven scheduler. Self-contained so neither the issue scan
/// nor a wakeup chases arena columns: the class picks the unit pool,
/// and the producer fields memoize readiness in place — producer
/// completion is monotone (squash marks the status slot completed
/// too), so once a producer is observed complete its field is cleared
/// to [`NO_PROD`] and never probed again. An entry lives either on
/// the `ready` list or parked in one `waiters` slot, keyed by the
/// first producer it is still missing; `seq` lets `ready` sort into
/// program order and validates parked entries against slot reuse.
#[derive(Debug, Clone, Copy)]
struct SchedEnt {
    idx: u32,
    cls: u8,
    seq: u64,
    p1: u64,
    p2: u64,
}

/// The snapshot (and pre-arena in-memory) representation of one
/// in-flight uop. The live machine keeps this data in the
/// structure-of-arrays [`Arena`]; this struct survives as the
/// *canonical serialized form* — snapshots store `Vec<Inflight>` in
/// queue order, which keeps the on-disk format and every digest
/// independent of arena slot assignment.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Inflight {
    seq: u64,
    uop: Uop,
    wrong_path: bool,
    decision: Option<BranchDecision>,
    prod1: Option<u64>,
    prod2: Option<u64>,
    /// Earliest dispatch cycle (front-end pipe exit).
    arrival: u64,
    issued: bool,
    completed: bool,
    complete_at: u64,
    fetched_at: u64,
}

/// Structure-of-arrays slab for in-flight uops.
///
/// The cycle loop walks the ROB several times per cycle touching only
/// a few fields per pass (`issued`/`completed`/`complete_at` in
/// complete-and-resolve, plus `prod*`/`kind` in issue). With the old
/// array-of-structs `VecDeque<Inflight>` every pass dragged whole
/// ~160-byte entries through the cache and every dispatch/squash
/// copied them; here each pass streams over dense parallel columns and
/// the queues move 4-byte slot indices instead.
///
/// Slots are recycled through a free list, so slot numbers depend on
/// allocation history — which is why *behaviour* must never depend on
/// slot order. It cannot: program order lives exclusively in the
/// `frontend`/`rob` index queues, and snapshots serialize entries in
/// queue order via [`Inflight`]. The
/// `digest_is_invariant_under_arena_slot_permutation` test pins that.
#[derive(Debug)]
struct Arena {
    seq: Vec<u64>,
    complete_at: Vec<u64>,
    arrival: Vec<u64>,
    fetched_at: Vec<u64>,
    /// Producer seq or [`NO_PROD`].
    prod1: Vec<u64>,
    prod2: Vec<u64>,
    kind: Vec<UopKind>,
    issued: Vec<bool>,
    completed: Vec<bool>,
    wrong_path: Vec<bool>,
    uop: Vec<Uop>,
    decision: Vec<Option<BranchDecision>>,
    /// Recycled slot indices (LIFO).
    free: Vec<u32>,
}

impl Arena {
    fn with_capacity(n: usize) -> Self {
        Self {
            seq: Vec::with_capacity(n),
            complete_at: Vec::with_capacity(n),
            arrival: Vec::with_capacity(n),
            fetched_at: Vec::with_capacity(n),
            prod1: Vec::with_capacity(n),
            prod2: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            issued: Vec::with_capacity(n),
            completed: Vec::with_capacity(n),
            wrong_path: Vec::with_capacity(n),
            uop: Vec::with_capacity(n),
            decision: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    fn insert(&mut self, e: Inflight) -> u32 {
        let p1 = e.prod1.unwrap_or(NO_PROD);
        let p2 = e.prod2.unwrap_or(NO_PROD);
        if let Some(i) = self.free.pop() {
            let s = i as usize;
            self.seq[s] = e.seq;
            self.complete_at[s] = e.complete_at;
            self.arrival[s] = e.arrival;
            self.fetched_at[s] = e.fetched_at;
            self.prod1[s] = p1;
            self.prod2[s] = p2;
            self.kind[s] = e.uop.kind;
            self.issued[s] = e.issued;
            self.completed[s] = e.completed;
            self.wrong_path[s] = e.wrong_path;
            self.uop[s] = e.uop;
            self.decision[s] = e.decision;
            i
        } else {
            let i = self.seq.len() as u32;
            self.seq.push(e.seq);
            self.complete_at.push(e.complete_at);
            self.arrival.push(e.arrival);
            self.fetched_at.push(e.fetched_at);
            self.prod1.push(p1);
            self.prod2.push(p2);
            self.kind.push(e.uop.kind);
            self.issued.push(e.issued);
            self.completed.push(e.completed);
            self.wrong_path.push(e.wrong_path);
            self.uop.push(e.uop);
            self.decision.push(e.decision);
            i
        }
    }

    fn remove(&mut self, i: u32) {
        // Freed slots read as "dead": the completion ring validates
        // stale (slot, seq) tickets against `completed`, so a squashed
        // uop must never look like a pending completion.
        self.completed[i as usize] = true;
        self.decision[i as usize] = None;
        self.free.push(i);
    }

    /// Rebuilds the canonical serialized form of slot `i`.
    fn extract(&self, i: u32) -> Inflight {
        let s = i as usize;
        Inflight {
            seq: self.seq[s],
            uop: self.uop[s],
            wrong_path: self.wrong_path[s],
            decision: self.decision[s],
            prod1: (self.prod1[s] != NO_PROD).then_some(self.prod1[s]),
            prod2: (self.prod2[s] != NO_PROD).then_some(self.prod2[s]),
            arrival: self.arrival[s],
            issued: self.issued[s],
            completed: self.completed[s],
            complete_at: self.complete_at[s],
            fetched_at: self.fetched_at[s],
        }
    }

    fn reset(&mut self) {
        self.seq.clear();
        self.complete_at.clear();
        self.arrival.clear();
        self.fetched_at.clear();
        self.prod1.clear();
        self.prod2.clear();
        self.kind.clear();
        self.issued.clear();
        self.completed.clear();
        self.wrong_path.clear();
        self.uop.clear();
        self.decision.clear();
        self.free.clear();
    }
}

/// Fetch arbitration between the two threads of an [`SmtSimulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchPolicy {
    /// Strict alternation between ready threads.
    #[default]
    RoundRobin,
    /// ICOUNT (Tullsen): fetch for the thread with fewer uops in
    /// flight, favouring fast-moving threads.
    Icount,
}

/// A context's share of the structures an SMT core splits between its
/// threads: all of each on a one-context machine, half on an SMT pair.
#[derive(Debug, Clone, Copy)]
struct Partition {
    rob: usize,
    ldq: usize,
    stq: usize,
    frontend: usize,
    /// ORed into every memory address, so each context's addresses
    /// are its own slice of the physical space (a simple ASID model).
    tag: u64,
}

impl Partition {
    /// Context `id`'s share of `cfg` split `contexts` ways.
    fn new(cfg: &PipelineConfig, contexts: usize, id: u64) -> Self {
        Self {
            rob: cfg.rob_size / contexts,
            ldq: cfg.load_buffers / contexts,
            stq: cfg.store_buffers / contexts,
            frontend: cfg.frontend_capacity() / contexts,
            tag: id << 40,
        }
    }
}

/// One hardware context: a thread's workload and controller, and every
/// pipeline structure it owns — front end, ROB, scheduler state, gate
/// and statistics. The cycle stages are its methods. What an SMT core
/// shares between contexts (the memory hierarchy, one cycle's
/// execution units, the scheduler windows) comes in as arguments, so
/// [`Simulation`] and [`SmtSimulation`] run the same stages.
///
/// `pub` only because `Simulation` derefs to it; the crate does not
/// export it.
pub struct Context {
    cfg: PipelineConfig,
    part: Partition, // lint: transient — derived from cfg and the context count
    gen: WorkloadGenerator,
    ctl: Controller,
    arena: Arena, // lint: transient — uop storage; contents rebuilt on restore
    /// Front-end pipe, oldest first — arena slot indices.
    frontend: VecDeque<u32>,
    /// Reorder buffer, oldest first (ascending seq) — arena slot
    /// indices.
    rob: VecDeque<u32>,
    /// Dispatched entries whose producers are all complete, awaiting a
    /// unit (see [`SchedEnt`]). Together with `waiters` this is the
    /// event-driven scheduler: derived state covering exactly
    /// `{i ∈ rob : !issued[i]}`, rebuilt on restore, never serialized.
    /// `issue` scans only this list — not-yet-ready entries sit in
    /// `waiters` and cost nothing per cycle.
    ready: Vec<SchedEnt>, // lint: transient — derived, rebuilt on restore
    /// Park lot for dispatched entries still missing a producer,
    /// indexed by that producer's seq & [`WAIT_MASK`]. A completing
    /// uop drains its slot and each occupant revalidates: stale
    /// (squashed) entries drop, collision victims re-park, genuinely
    /// woken ones move to `ready`.
    waiters: Vec<Vec<SchedEnt>>, // lint: transient — derived, rebuilt on restore
    /// Pending completions, one bucket per future cycle: `(slot, seq)`
    /// tickets pushed at issue, drained when `now` reaches the bucket.
    /// Tickets are validated against the arena before use (a squashed
    /// uop leaves a stale ticket behind), and due tickets are
    /// processed in seq order — identical to the old oldest-first ROB
    /// scan. Derived state: rebuilt on restore, never serialized.
    complete_ring: Vec<Vec<(u32, u64)>>, // lint: transient — derived, rebuilt on restore
    /// Overflow for completions due ≥ `COMPLETE_RING` cycles out.
    complete_far: Vec<(u32, u64, u64)>, // lint: transient — derived, rebuilt on restore
    /// Completion status by `seq & STATUS_MASK`, rebuilt on restore
    /// from the live uops (see `rebuild_status`).
    status: Vec<SlotStatus>, // lint: transient — derived, rebuilt on restore
    cp_ring: [u64; CP_RING],
    cp_index: u64,
    gate: GateCounter,
    gate_pending: VecDeque<(u64, u64)>,
    gate_counted: BTreeSet<u64>,
    fetch_history: u64,
    wrong_path_since: Option<u64>,
    restore_history: u64,
    redirect_until: u64,
    now: u64,
    next_seq: u64,
    sched_occ: [usize; 3],
    ldq_occ: usize,
    stq_occ: usize,
    stats: SimStats,
    // --- observability (derived outputs; deliberately excluded from
    // snapshots and digests — the simulator never reads them back, so
    // a traced run is bit-identical to an untraced one) ---
    tracer: Tracer, // lint: transient — observability, never read back
    /// Cycles of the gate stall currently in progress, for pairing
    /// `GateStallBegin`/`GateStallEnd` trace events. Only advances
    /// while the tracer is enabled.
    gate_streak: u64, // lint: transient — observability, never read back
}

/// One simulated processor running one benchmark workload: the memory
/// hierarchy, and one hardware context with the whole machine to
/// itself.
///
/// Construct with a [`PipelineConfig`], a workload configuration, and
/// a [`Controller`] (branch predictor + confidence estimator); then
/// [`warmup`](Self::warmup) and [`run`](Self::run).
///
/// See the crate docs for the modelled microarchitecture.
pub struct Simulation {
    mem: MemHierarchy,
    ctx: Context,
    profiler: Profiler, // lint: transient — observability, never read back
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cycle", &self.now)
            .field("retired", &self.stats.retired)
            .field("rob", &self.rob.len())
            .field("frontend", &self.frontend.len())
            .finish_non_exhaustive()
    }
}

/// A one-context machine reads as its context.
impl Deref for Simulation {
    type Target = Context;

    fn deref(&self) -> &Context {
        &self.ctx
    }
}

impl DerefMut for Simulation {
    fn deref_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }
}

/// The paper's baseline bimodal–gshare predictor with a no-op
/// (always-high) estimator.
fn default_controller() -> Controller {
    SpeculationController::new(
        Box::new(perconf_bpred::baseline_bimodal_gshare()) as Box<dyn SimPredictor>,
        Box::new(AlwaysHigh) as Box<dyn SimEstimator>,
    )
}

impl Simulation {
    /// Builds a simulation of `cfg` running `workload` under the given
    /// predictor/estimator controller.
    #[must_use]
    pub fn new(cfg: PipelineConfig, workload: &WorkloadConfig, ctl: Controller) -> Self {
        Self {
            mem: MemHierarchy::new(cfg.mem),
            ctx: Context::new(cfg, workload, ctl, Partition::new(&cfg, 1, 0)),
            profiler: Profiler::default(),
        }
    }

    /// Builds a simulation with the paper's baseline bimodal–gshare
    /// predictor and a no-op (always-high) estimator.
    #[must_use]
    pub fn with_defaults(cfg: PipelineConfig, workload: &WorkloadConfig) -> Self {
        Self::new(cfg, workload, default_controller())
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The absolute cycle counter (monotone across phases; never reset
    /// by [`try_warmup`](Self::try_warmup)).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// The controller (predictor + estimator), e.g. for inspecting
    /// learned state after a run.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.ctl
    }

    /// The memory hierarchy (for inspecting hit rates).
    #[must_use]
    pub fn mem(&self) -> &MemHierarchy {
        &self.mem
    }

    /// Attaches a tracer; subsequent cycles record events into it,
    /// subject to its runtime level.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer handle.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a profiler; when it is enabled, the five pipeline
    /// stages record spans every cycle.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The attached profiler handle.
    #[must_use]
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Materializes the hierarchical counter view of the machine,
    /// grouped by subsystem (`fetch`, `rob`, `cache`, `predictor`,
    /// `estimator`, `gating`).
    ///
    /// Counters are *derived* from state the simulator already keeps
    /// ([`SimStats`], cache hit/miss totals, controller metadata), so
    /// building a snapshot costs nothing during simulation, survives
    /// checkpoint/restore exactly (everything it reads is snapshotted
    /// state), and can never perturb a run. Snapshots taken at two
    /// points diff to the interval's activity; snapshots from sweep
    /// workers merge deterministically.
    #[must_use]
    pub fn counters(&self) -> CounterSnapshot {
        let s = &self.stats;
        let mut c = Counters::new();
        c.counter("fetch", "cycles", s.cycles)
            .counter("fetch", "uops_correct", s.fetched_correct)
            .counter("fetch", "uops_wrong", s.fetched_wrong)
            .counter("fetch", "redirect_cycles", s.redirect_cycles);
        c.counter("rob", "retired", s.retired)
            .counter("rob", "executed_correct", s.executed_correct)
            .counter("rob", "executed_wrong", s.executed_wrong)
            .counter("rob", "squashed_uops", s.squashed)
            .counter("rob", "squashes", s.squashes)
            .counter("rob", "occupancy_sum", s.rob_occupancy_sum)
            .counter("rob", "stall_empty", s.stall_empty)
            .counter("rob", "stall_deps", s.stall_deps)
            .counter("rob", "stall_fu", s.stall_fu)
            .counter("rob", "stall_load", s.stall_load)
            .counter("rob", "stall_exec", s.stall_exec);
        c.counter("cache", "l1_hits", self.mem.l1().hits())
            .counter("cache", "l1_misses", self.mem.l1().misses())
            .counter("cache", "l2_hits", self.mem.l2().hits())
            .counter("cache", "l2_misses", self.mem.l2().misses())
            .counter("cache", "prefetches_issued", self.mem.prefetch_issued());
        c.counter("predictor", "branches_retired", s.branches_retired)
            .counter("predictor", "base_mispredicts", s.base_mispredicts)
            .counter(
                "predictor",
                "speculated_mispredicts",
                s.speculated_mispredicts,
            )
            .gauge(
                "predictor",
                "storage_bits",
                self.ctl.predictor().storage_bits(),
            );
        c.counter("estimator", "flagged_low", s.confusion.flagged_low())
            .counter("estimator", "hits_low_mispredicted", s.confusion.miss_low)
            .counter(
                "estimator",
                "missed_high_mispredicted",
                s.confusion.miss_high,
            )
            .counter(
                "estimator",
                "false_alarms_low_correct",
                s.confusion.correct_low,
            )
            .counter("estimator", "reversals", s.reversals)
            .counter("estimator", "reversals_good", s.reversals_good)
            .counter("estimator", "reversals_bad", s.reversals_bad)
            .gauge(
                "estimator",
                "storage_bits",
                self.ctl.estimator().storage_bits(),
            );
        c.counter("gating", "gated_cycles", s.gated_cycles).counter(
            "gating",
            "resolution_delay_sum",
            s.resolution_delay_sum,
        );
        c.snapshot()
    }

    /// Runs until `uops` further correct-path uops retire; returns the
    /// accumulated stats.
    ///
    /// After a cycle in which nothing moved, it jumps over the idle
    /// cycles up to the next timed event instead of stepping them, so
    /// its results (statistics, state digest, counters and trace
    /// events) are exactly those of a [`try_step`](Self::try_step)
    /// loop run to the same retired count.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the pipeline stops making progress
    /// or an internal invariant breaks; the simulation must be
    /// discarded afterwards.
    pub fn try_run(&mut self, uops: u64) -> Result<&SimStats, SimError> {
        let target = self.stats.retired + uops;
        let deadline = self.now + uops.max(1_000) * 400;
        while self.stats.retired < target {
            if self.step_cycle()? {
                self.skip_idle(deadline);
            }
            if self.now >= deadline {
                return Err(SimError::Stalled {
                    retired: self.stats.retired,
                    target,
                    cycle: self.now,
                });
            }
        }
        Ok(&self.stats)
    }

    /// Runs until `uops` further correct-path uops retire; returns the
    /// accumulated stats.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`] (stall or broken invariant); use
    /// [`try_run`](Self::try_run) to get the error as a value instead.
    pub fn run(&mut self, uops: u64) -> &SimStats {
        if let Err(e) = self.try_run(uops) {
            panic!("{e}");
        }
        &self.stats
    }

    /// Runs `uops` to warm caches, predictors and estimators, then
    /// clears the statistics (the paper warms with 10M of each 30M
    /// trace).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] like [`try_run`](Self::try_run).
    pub fn try_warmup(&mut self, uops: u64) -> Result<(), SimError> {
        self.try_run(uops)?;
        self.reset_stats();
        Ok(())
    }

    /// Runs `uops` to warm caches, predictors and estimators, then
    /// clears the statistics.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`]; see [`try_warmup`](Self::try_warmup).
    pub fn warmup(&mut self, uops: u64) {
        if let Err(e) = self.try_warmup(uops) {
            panic!("{e}");
        }
    }

    /// Advances one cycle (never more: only [`try_run`](Self::try_run)
    /// skips idle cycles).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when an internal invariant breaks this
    /// cycle (checked in release builds too).
    pub fn try_step(&mut self) -> Result<(), SimError> {
        self.step_cycle().map(drop)
    }

    /// Advances one cycle; returns whether it was idle.
    fn step_cycle(&mut self) -> Result<bool, SimError> {
        // One flag load per cycle picks the instantiation: the
        // profiled one pays a scope guard per stage, the plain one
        // (whose spans are `()`) is byte-for-byte the uninstrumented
        // loop. Splitting here (rather than relying on per-scope
        // disabled checks) keeps the profiler's cost out of the hot
        // path entirely when it is off, and one body keeps the two in
        // lockstep.
        let (c, mem, p) = (&mut self.ctx, &mut self.mem, &self.profiler);
        if p.enabled() {
            c.cycle(mem, |stage| p.scope(stage))
        } else {
            c.cycle(mem, |_| ())
        }
    }

    /// Advances one cycle.
    ///
    /// # Panics
    ///
    /// Panics on any [`SimError`]; see [`try_step`](Self::try_step).
    pub fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("{e}");
        }
    }
}

impl Context {
    fn new(
        cfg: PipelineConfig,
        workload: &WorkloadConfig,
        ctl: Controller,
        part: Partition,
    ) -> Self {
        let mut ctx = Self {
            gen: WorkloadGenerator::new(workload),
            ctl,
            arena: Arena::with_capacity(part.frontend + part.rob + 8),
            frontend: VecDeque::with_capacity(part.frontend + 8),
            rob: VecDeque::with_capacity(part.rob + 8),
            ready: Vec::with_capacity(part.rob + 8),
            waiters: vec![Vec::new(); WAIT_SLOTS],
            complete_ring: vec![Vec::new(); COMPLETE_RING],
            complete_far: Vec::new(),
            status: vec![FREE_SLOT; STATUS_WINDOW],
            cp_ring: [u64::MAX; CP_RING],
            cp_index: 0,
            gate: GateCounter::new(cfg.gating.map_or(1, |g| g.counter_threshold)),
            gate_pending: VecDeque::new(),
            gate_counted: BTreeSet::new(),
            fetch_history: 0,
            wrong_path_since: None,
            restore_history: 0,
            redirect_until: 0,
            now: 0,
            next_seq: 0,
            sched_occ: [0; 3],
            ldq_occ: 0,
            stq_occ: 0,
            stats: SimStats::default(),
            tracer: Tracer::new(),
            gate_streak: 0,
            cfg,
            part,
        };
        ctx.reset_stats();
        ctx
    }

    /// Clears the statistics, keeping the density histograms the
    /// config asks for.
    fn reset_stats(&mut self) {
        self.stats.reset();
        if let Some((lo, hi, bin)) = self.cfg.density {
            self.stats.density = Some(DensityPair::new(lo, hi, bin));
        }
    }

    /// One cycle's execution units: int, mem, fp.
    fn units(&self) -> [u32; 3] {
        [self.cfg.units_int, self.cfg.units_mem, self.cfg.units_fp]
    }

    /// Opens a cycle.
    fn tick(&mut self) {
        self.now += 1;
        self.stats.rob_occupancy_sum += self.rob.len() as u64;
    }

    /// One cycle on a machine the context has to itself, with a
    /// `span` open around each stage. Returns whether the cycle was
    /// idle: nothing retired, completed, issued, dispatched or was
    /// fetched, and no gate increment fell due, so it changed nothing
    /// but its counters (see [`skip_idle`](Self::skip_idle)).
    fn cycle<S>(
        &mut self,
        mem: &mut MemHierarchy,
        span: impl Fn(&'static str) -> S,
    ) -> Result<bool, SimError> {
        let before = self.activity();
        self.tick();
        {
            let _s = span("sim/retire");
            self.retire();
        }
        let completed = {
            let _s = span("sim/complete_resolve");
            self.complete_and_resolve()
        };
        {
            let _s = span("sim/issue");
            self.issue(mem, &mut self.units());
        }
        {
            let _s = span("sim/dispatch");
            self.dispatch([0; 3]);
        }
        self.check_rob()?;
        {
            let _s = span("sim/fetch");
            self.fetch()?;
        }
        self.stats.cycles += 1;
        Ok(!completed && self.ready.is_empty() && self.activity() == before)
    }

    /// What only a moving cycle changes: the retired, issued and
    /// fetched totals, the ROB's length (which, without a retirement or
    /// a completion's squash, only dispatch changes) and the pending
    /// gate increments (which, without a fetch or a completion, only
    /// falling due changes).
    fn activity(&self) -> [u64; 5] {
        let s = &self.stats;
        [
            s.retired,
            s.executed_correct + s.executed_wrong,
            s.fetched_correct + s.fetched_wrong,
            self.rob.len() as u64,
            self.gate_pending.len() as u64,
        ]
    }

    /// Called after an idle cycle: jumps to the cycle before the next
    /// timed event, at most `deadline`, and adds the idle cycle's
    /// increments once per cycle skipped.
    ///
    /// Exact, because an idle cycle leaves the state as it found it, so
    /// the next cycle repeats it unless a cycle number it tests comes
    /// due. Those are: a completion bucket or `complete_far` entry, the
    /// front-end head's `arrival`, the head of `gate_pending`, and
    /// `redirect_until`. Everything else an idle cycle reads (the ROB
    /// head, the scheduler, the structures dispatch waits on and the
    /// gate) changes only in a cycle that moves.
    fn skip_idle(&mut self, deadline: u64) {
        let now = self.now;
        let mut next = deadline;
        if let Some(&h) = self.frontend.front() {
            let arrival = self.arena.arrival[h as usize];
            if arrival > now {
                next = next.min(arrival);
            }
        }
        if let Some(&(due, _)) = self.gate_pending.front() {
            next = next.min(due);
        }
        if self.redirect_until > now {
            next = next.min(self.redirect_until);
        }
        for &(_, _, at) in &self.complete_far {
            next = next.min(at);
        }
        // The ring holds every other pending completion, each due
        // within `COMPLETE_RING` cycles of now.
        let ring_end = next.min(now + COMPLETE_RING as u64);
        if let Some(t) = (now + 1..ring_end)
            .find(|&t| !self.complete_ring[t as usize & COMPLETE_MASK].is_empty())
        {
            next = t;
        }
        let skipped = next.saturating_sub(now + 1);
        if skipped == 0 {
            return;
        }
        self.now += skipped;
        self.stats.cycles += skipped;
        self.stats.rob_occupancy_sum += self.rob.len() as u64 * skipped;
        *self.retire_stall() += skipped;
        if now < self.redirect_until {
            self.stats.redirect_cycles += skipped;
        } else if self.gated() {
            self.stats.gated_cycles += skipped;
            if self.tracer.enabled() {
                self.gate_streak += skipped;
            }
        }
    }

    fn check_rob(&self) -> Result<(), SimError> {
        if self.rob.len() > self.part.rob {
            return Err(SimError::RobOverflow {
                len: self.rob.len(),
                cap: self.part.rob,
            });
        }
        Ok(())
    }

    // ----- pipeline stages (back to front) --------------------------

    fn retire(&mut self) {
        let mut n = 0;
        while n < self.cfg.width {
            let Some(&hi) = self.rob.front() else { break };
            let h = hi as usize;
            if !(self.arena.completed[h] && self.arena.complete_at[h] < self.now) {
                break;
            }
            self.rob.pop_front();
            debug_assert!(
                !self.arena.wrong_path[h],
                "wrong-path uop reached retirement"
            );
            match self.arena.kind[h] {
                UopKind::Load => self.ldq_occ -= 1,
                UopKind::Store => self.stq_occ -= 1,
                _ => {}
            }
            self.stats.retired += 1;
            if let Some(d) = self.arena.decision[h] {
                let actual = self.arena.uop[h]
                    .branch
                    .expect("branch uop has payload")
                    .taken;
                let out = self.ctl.train(&d, actual);
                self.stats.branches_retired += 1;
                if out.base_mispredicted {
                    self.stats.base_mispredicts += 1;
                }
                if out.speculated_mispredicted {
                    self.stats.speculated_mispredicts += 1;
                }
                if d.reversed() {
                    self.stats.reversals += 1;
                    if out.base_mispredicted {
                        self.stats.reversals_good += 1;
                    } else {
                        self.stats.reversals_bad += 1;
                    }
                }
                self.stats
                    .confusion
                    .record(out.base_mispredicted, d.estimate.is_low());
                if let Some(density) = &mut self.stats.density {
                    density.add(i64::from(d.estimate.raw), out.base_mispredicted);
                }
            }
            self.arena.remove(hi);
            n += 1;
        }
        if n == 0 {
            *self.retire_stall() += 1;
        }
    }

    /// The stall-breakdown counter that classifies why retirement
    /// makes no progress in the current state.
    fn retire_stall(&mut self) -> &mut u64 {
        let Some(&hi) = self.rob.front() else {
            return &mut self.stats.stall_empty;
        };
        let h = hi as usize;
        if !self.arena.issued[h] {
            if self.deps_ready(h) {
                &mut self.stats.stall_fu
            } else {
                &mut self.stats.stall_deps
            }
        } else if self.arena.kind[h] == UopKind::Load {
            &mut self.stats.stall_load
        } else {
            &mut self.stats.stall_exec
        }
    }

    /// Returns whether any completion ticket fell due this cycle.
    fn complete_and_resolve(&mut self) -> bool {
        // Event-driven: drain this cycle's completion bucket instead
        // of scanning the whole ROB. Due tickets are processed in seq
        // order — exactly the order the old oldest-first `position()`
        // scan produced (completing an entry never changes an earlier
        // entry's predicate, and a mispredict squash only removes
        // strictly younger entries, whose tickets then fail
        // validation).
        let b = self.now as usize & COMPLETE_MASK;
        let mut due = std::mem::take(&mut self.complete_ring[b]);
        if !self.complete_far.is_empty() {
            let now = self.now;
            let mut k = 0;
            for j in 0..self.complete_far.len() {
                let (i, seq, at) = self.complete_far[j];
                if at == now {
                    due.push((i, seq));
                } else {
                    self.complete_far[k] = (i, seq, at);
                    k += 1;
                }
            }
            self.complete_far.truncate(k);
        }
        if due.is_empty() {
            self.complete_ring[b] = due;
            return false;
        }
        due.sort_unstable_by_key(|&(_, seq)| seq);
        for &(ticket, seq) in &due {
            let i = ticket as usize;
            // Stale-ticket guard: the uop may have been squashed (and
            // its slot possibly reused) since it issued.
            if self.arena.seq[i] != seq || !self.arena.issued[i] || self.arena.completed[i] {
                continue;
            }
            debug_assert!(self.arena.complete_at[i] <= self.now);
            self.arena.completed[i] = true;
            self.mark_complete(seq);
            self.wake(seq);
            if self.arena.kind[i] == UopKind::Branch {
                self.release_gate(seq);
                let wrong_path = self.arena.wrong_path[i];
                let resolved = match (&self.arena.decision[i], self.arena.uop[i].branch) {
                    (Some(d), Some(br)) if !wrong_path => {
                        Some((br.pc, d.speculated_taken != br.taken))
                    }
                    _ => None,
                };
                if let Some((pc, mispredicted)) = resolved {
                    if self.tracer.enabled() {
                        self.tracer.record(TraceEvent::BranchResolved {
                            cycle: self.now,
                            pc,
                            mispredicted,
                        });
                    }
                    if mispredicted {
                        debug_assert_eq!(self.wrong_path_since, Some(seq));
                        self.stats.resolution_delay_sum += self.now - self.arena.fetched_at[i];
                        self.squash_after(seq);
                        self.fetch_history = self.restore_history;
                        self.wrong_path_since = None;
                        self.redirect_until = self.now + 1;
                        self.stats.squashes += 1;
                    }
                }
            }
        }
        due.clear();
        self.complete_ring[b] = due;
        true
    }

    /// Files a completion ticket for slot `i` (seq `seq`) due at
    /// absolute cycle `at`. A ticket can never be due in the current
    /// cycle or earlier (that bucket already drained): clamping to
    /// `now + 1` reproduces the old scan's `complete_at <= now`
    /// predicate, which also only fired from the *next* cycle on.
    fn schedule_completion(&mut self, i: u32, seq: u64, at: u64) {
        let due = at.max(self.now + 1);
        if due - self.now < COMPLETE_RING as u64 {
            self.complete_ring[due as usize & COMPLETE_MASK].push((i, seq));
        } else {
            self.complete_far.push((i, seq, due));
        }
    }

    fn squash_after(&mut self, boundary: u64) {
        while let Some(&bi) = self.frontend.back() {
            if self.arena.seq[bi as usize] <= boundary {
                break;
            }
            self.frontend.pop_back();
            self.discard(bi, false);
        }
        let had_rob_squash = self
            .rob
            .back()
            .is_some_and(|&bi| self.arena.seq[bi as usize] > boundary);
        while let Some(&bi) = self.rob.back() {
            if self.arena.seq[bi as usize] <= boundary {
                break;
            }
            self.rob.pop_back();
            self.discard(bi, true);
        }
        if had_rob_squash {
            // Parked entries are left in place — wake-time validation
            // (seq match + liveness) drops the squashed ones, exactly
            // like stale completion tickets.
            self.ready.retain(|e| e.seq <= boundary);
        }
    }

    /// Releases the resources of a squashed uop. `dispatched` says
    /// whether it had left the front end (and thus holds ROB-side
    /// resources).
    fn discard(&mut self, i: u32, dispatched: bool) {
        let s = i as usize;
        let seq = self.arena.seq[s];
        let kind = self.arena.kind[s];
        self.mark_complete(seq);
        self.stats.squashed += 1;
        if dispatched {
            if !self.arena.issued[s] {
                self.sched_occ[class_of(kind) as usize] -= 1;
            }
            match kind {
                UopKind::Load => self.ldq_occ -= 1,
                UopKind::Store => self.stq_occ -= 1,
                _ => {}
            }
        }
        if kind == UopKind::Branch {
            self.release_gate(seq);
        }
        self.arena.remove(i);
    }

    /// Issues ready uops into the units left in this cycle's `avail`
    /// (int, mem, fp), which an SMT pair's contexts draw on in turn.
    fn issue(&mut self, mem: &mut MemHierarchy, avail: &mut [u32; 3]) {
        // Walk only the *ready* entries, in seq order — the old full
        // ROB scan skipped issued entries and kept deps-pending ones
        // anyway, and readiness is monotone, so the entries it would
        // have selected are exactly the ones here: selection is
        // decision-for-decision identical. Issuing an entry only
        // mutates its own columns and the memory hierarchy (which no
        // readiness check reads), so the fused pick-and-execute pass
        // matches the old collect-then-issue two-phase loop. Entries
        // that issue are compacted out of the list in place; the rest
        // (unit-starved) stay for next cycle.
        if self.ready.is_empty() {
            return;
        }
        // Wakeups and dispatches append out of program order; the
        // list is near-sorted, which pdqsort handles in ~one pass.
        self.ready.sort_unstable_by_key(|e| e.seq);
        let now = self.now;
        let len = self.ready.len();
        let mut r = 0;
        let mut w = 0;
        while r < len {
            if *avail == [0, 0, 0] {
                break;
            }
            let ent = self.ready[r];
            r += 1;
            let c = ent.cls as usize;
            if avail[c] == 0 {
                self.ready[w] = ent;
                w += 1;
                continue;
            }
            avail[c] -= 1;
            let i = ent.idx as usize;
            debug_assert!(self.deps_ready(i), "ready-list entry with pending producer");
            let kind = self.arena.kind[i];
            let latency = match kind {
                UopKind::IntAlu | UopKind::Branch => 1,
                UopKind::IntMul => 3,
                UopKind::Fp => 4,
                UopKind::Store => {
                    let m = self.arena.uop[i].mem.expect("store has address");
                    mem.store(m.addr | self.part.tag);
                    1
                }
                UopKind::Load => {
                    let m = self.arena.uop[i].mem.expect("load has address");
                    mem.load(m.addr | self.part.tag)
                }
            };
            debug_assert!(latency >= 1, "zero-latency issue would miss its bucket");
            let at = now + u64::from(latency);
            self.arena.issued[i] = true;
            self.arena.complete_at[i] = at;
            self.schedule_completion(ent.idx, self.arena.seq[i], at);
            self.sched_occ[c] -= 1;
            if self.arena.wrong_path[i] {
                self.stats.executed_wrong += 1;
            } else {
                self.stats.executed_correct += 1;
            }
        }
        // Units exhausted early: keep the rest of the ready list.
        while r < len {
            self.ready[w] = self.ready[r];
            w += 1;
            r += 1;
        }
        self.ready.truncate(w);
    }

    /// Moves front-end uops into the ROB and scheduler. The scheduler
    /// windows are shared: `other_sched` is the occupancy of an SMT
    /// sibling (zero on a one-context machine).
    fn dispatch(&mut self, other_sched: [usize; 3]) {
        let mut n = 0;
        while n < self.cfg.width {
            let Some(&hi) = self.frontend.front() else {
                break;
            };
            let h = hi as usize;
            if self.arena.arrival[h] > self.now || self.rob.len() >= self.part.rob {
                break;
            }
            let kind = self.arena.kind[h];
            let c = class_of(kind);
            let sched_cap = match c {
                Class::Int => self.cfg.sched_int,
                Class::Mem => self.cfg.sched_mem,
                Class::Fp => self.cfg.sched_fp,
            };
            if self.sched_occ[c as usize] + other_sched[c as usize] >= sched_cap {
                break;
            }
            match kind {
                UopKind::Load if self.ldq_occ >= self.part.ldq => break,
                UopKind::Store if self.stq_occ >= self.part.stq => break,
                _ => {}
            }
            self.frontend.pop_front();
            self.sched_occ[c as usize] += 1;
            match kind {
                UopKind::Load => self.ldq_occ += 1,
                UopKind::Store => self.stq_occ += 1,
                _ => {}
            }
            self.rob.push_back(hi);
            let ent = SchedEnt {
                idx: hi,
                cls: c as u8,
                seq: self.arena.seq[h],
                p1: self.arena.prod1[h],
                p2: self.arena.prod2[h],
            };
            self.park_or_ready(ent);
            n += 1;
        }
    }

    /// Fetch on a machine the context has to itself: a redirect or the
    /// gate stalls it, otherwise it fetches.
    fn fetch(&mut self) -> Result<(), SimError> {
        self.apply_pending_gate_increments();
        if self.now < self.redirect_until {
            self.stats.redirect_cycles += 1;
            return Ok(());
        }
        if self.gated() {
            self.stats.gated_cycles += 1;
            if self.tracer.enabled() {
                if self.gate_streak == 0 {
                    self.tracer
                        .record(TraceEvent::GateStallBegin { cycle: self.now });
                }
                self.gate_streak += 1;
            }
            return Ok(());
        }
        if self.gate_streak > 0 {
            self.tracer.record(TraceEvent::GateStallEnd {
                cycle: self.now,
                stalled: self.gate_streak,
            });
            self.gate_streak = 0;
        }
        self.fetch_uops()
    }

    /// Whether the gate stalls this context's fetch.
    fn gated(&self) -> bool {
        self.cfg.gating.is_some() && self.gate.should_gate()
    }

    /// Fetches up to a cycle's width of uops into the front end.
    fn fetch_uops(&mut self) -> Result<(), SimError> {
        for _ in 0..self.cfg.width {
            if self.frontend.len() >= self.part.frontend {
                break;
            }
            let wrong = self.wrong_path_since.is_some();
            let uop = if wrong {
                self.gen.next_wrong_path()
            } else {
                self.gen.next_uop()
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = &mut self.status[seq as usize & STATUS_MASK];
            if !slot.completed {
                return Err(SimError::StatusWindowReuse {
                    seq,
                    occupant: slot.seq,
                });
            }
            *slot = SlotStatus {
                seq,
                completed: false,
            };
            let (prod1, prod2) = self.producers(&uop, seq, wrong);
            let mut decision = None;
            if let Some(br) = uop.branch {
                let d = self.ctl.decide(br.pc, self.fetch_history);
                if self.tracer.enabled() {
                    self.tracer.record(TraceEvent::ConfidenceBucket {
                        cycle: self.now,
                        pc: br.pc,
                        raw: i64::from(d.estimate.raw),
                        class: d.estimate.class.index(),
                    });
                }
                self.fetch_history = (self.fetch_history << 1) | u64::from(d.speculated_taken);
                if let Some(g) = self.cfg.gating {
                    if d.gates() {
                        self.gate_pending
                            .push_back((self.now + u64::from(g.ce_latency), seq));
                    }
                }
                if !wrong && d.speculated_taken != br.taken {
                    self.wrong_path_since = Some(seq);
                    self.restore_history = (d.ctx.history << 1) | u64::from(br.taken);
                }
                decision = Some(d);
            }
            if !wrong {
                self.cp_ring[self.cp_index as usize & CP_MASK] = seq;
                self.cp_index += 1;
                self.stats.fetched_correct += 1;
            } else {
                self.stats.fetched_wrong += 1;
            }
            let idx = self.arena.insert(Inflight {
                seq,
                uop,
                wrong_path: wrong,
                decision,
                prod1,
                prod2,
                arrival: self.now + u64::from(self.cfg.frontend_depth),
                issued: false,
                completed: false,
                complete_at: u64::MAX,
                fetched_at: self.now,
            });
            self.frontend.push_back(idx);
        }
        Ok(())
    }

    // ----- helpers ---------------------------------------------------

    fn producers(&self, uop: &Uop, seq: u64, wrong: bool) -> (Option<u64>, Option<u64>) {
        let lookup = |dist: u32| -> Option<u64> {
            if dist == 0 {
                return None;
            }
            if wrong {
                return seq.checked_sub(u64::from(dist));
            }
            // Correct-path distances index the correct-path stream.
            let d = u64::from(dist);
            if d > self.cp_index || d as usize > CP_RING {
                return None;
            }
            let s = self.cp_ring[(self.cp_index - d) as usize & CP_MASK];
            if s == u64::MAX {
                None
            } else {
                Some(s)
            }
        };
        (lookup(uop.src1), lookup(uop.src2))
    }

    /// Readiness of entry `i`'s producers — the per-probe form used on
    /// cold paths (retire-stall classification). The issue scan keeps
    /// its own memoized copy inline in [`SchedEnt`].
    fn deps_ready(&self, i: usize) -> bool {
        let p1 = self.arena.prod1[i];
        if p1 != NO_PROD && !self.is_complete(p1) {
            return false;
        }
        let p2 = self.arena.prod2[i];
        p2 == NO_PROD || self.is_complete(p2)
    }

    fn is_complete(&self, seq: u64) -> bool {
        let slot = self.status[seq as usize & STATUS_MASK];
        slot.seq != seq || slot.completed
    }

    fn mark_complete(&mut self, seq: u64) {
        let slot = &mut self.status[seq as usize & STATUS_MASK];
        if slot.seq == seq {
            slot.completed = true;
        }
    }

    fn apply_pending_gate_increments(&mut self) {
        while let Some(&(cycle, seq)) = self.gate_pending.front() {
            if cycle > self.now {
                break;
            }
            self.gate_pending.pop_front();
            if !self.is_complete(seq) {
                self.gate.on_low_conf_fetch();
                self.gate_counted.insert(seq);
            }
        }
    }

    /// Releases the gate-counter contribution of branch `seq`, whether
    /// it was already counted or still pending.
    fn release_gate(&mut self, seq: u64) {
        if self.gate_counted.remove(&seq) {
            self.gate.on_low_conf_resolve();
        } else if !self.gate_pending.is_empty() {
            self.gate_pending.retain(|&(_, s)| s != seq);
        }
    }

    /// Routes a dispatched (or re-validated) entry: producers observed
    /// complete are cleared; if any remains, the entry parks on the
    /// first missing one, otherwise it joins the ready list.
    fn park_or_ready(&mut self, mut ent: SchedEnt) {
        if ent.p1 != NO_PROD && self.is_complete(ent.p1) {
            ent.p1 = NO_PROD;
        }
        if ent.p2 != NO_PROD && self.is_complete(ent.p2) {
            ent.p2 = NO_PROD;
        }
        let p = if ent.p1 != NO_PROD {
            ent.p1
        } else if ent.p2 != NO_PROD {
            ent.p2
        } else {
            self.ready.push(ent);
            return;
        };
        self.waiters[p as usize & WAIT_MASK].push(ent);
    }

    /// Producer `pseq` just completed: drain its wakeup slot. Each
    /// occupant revalidates — stale (squashed) entries are dropped via
    /// the same seq-match-plus-liveness check as completion tickets,
    /// collision victims (parked on a different producer that shares
    /// the slot) re-park, and genuinely ready entries move to `ready`.
    fn wake(&mut self, pseq: u64) {
        let slot = pseq as usize & WAIT_MASK;
        if self.waiters[slot].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.waiters[slot]);
        for ent in list.drain(..) {
            let i = ent.idx as usize;
            if self.arena.seq[i] != ent.seq || self.arena.completed[i] {
                continue;
            }
            self.park_or_ready(ent);
        }
        // Recycle the allocation unless a collision victim re-parked
        // into the very slot being drained.
        if self.waiters[slot].is_empty() {
            self.waiters[slot] = list;
        }
    }

    /// Rebuilds the status window from the live uops, ROB then front
    /// end, oldest first, as fetch wrote it. Exact: a slot no live uop
    /// owns reads as completed whatever its `seq` (`is_complete` and
    /// fetch's reuse check read only `completed` there, and
    /// `mark_complete` runs only for live uops), and a live uop owns
    /// its slot unless a younger one took it over after it completed.
    ///
    /// # Errors
    ///
    /// Rejects two live uops on one slot while the older has not
    /// completed: the state fetch refuses as
    /// [`SimError::StatusWindowReuse`].
    fn rebuild_status(&mut self) -> Result<(), SnapshotError> {
        self.status.fill(FREE_SLOT);
        for &i in self.rob.iter().chain(&self.frontend) {
            let (seq, completed) = (self.arena.seq[i as usize], self.arena.completed[i as usize]);
            let slot = &mut self.status[seq as usize & STATUS_MASK];
            if !slot.completed {
                return Err(SnapshotError::msg(SimError::StatusWindowReuse {
                    seq,
                    occupant: slot.seq,
                }));
            }
            *slot = SlotStatus { seq, completed };
        }
        Ok(())
    }

    /// Rebuilds the derived scheduler state (ready list + wakeup
    /// table) and completion ring from the authoritative queue + arena
    /// state (after a restore or an arena permutation). All are pure
    /// accelerators covering the un-issued / issued-but-incomplete ROB
    /// entries; never serialized.
    fn rebuild_derived(&mut self) {
        self.ready.clear();
        for slot in &mut self.waiters {
            slot.clear();
        }
        for bucket in &mut self.complete_ring {
            bucket.clear();
        }
        self.complete_far.clear();
        let mut pending: Vec<(u32, u64, u64)> = Vec::new();
        let mut waiting: Vec<SchedEnt> = Vec::new();
        for &i in &self.rob {
            let s = i as usize;
            if !self.arena.issued[s] {
                waiting.push(SchedEnt {
                    idx: i,
                    cls: class_of(self.arena.kind[s]) as u8,
                    seq: self.arena.seq[s],
                    p1: self.arena.prod1[s],
                    p2: self.arena.prod2[s],
                });
            } else if !self.arena.completed[s] {
                pending.push((i, self.arena.seq[s], self.arena.complete_at[s]));
            }
        }
        for (i, seq, at) in pending {
            self.schedule_completion(i, seq, at);
        }
        for ent in waiting {
            self.park_or_ready(ent);
        }
    }

    /// Serializes a slot-index queue as its canonical `Vec<Inflight>`
    /// form (queue order — never arena slot order).
    fn snapshot_queue(&self, q: &VecDeque<u32>) -> Value {
        let entries: Vec<Inflight> = q.iter().map(|&i| self.arena.extract(i)).collect();
        entries.to_value()
    }

    /// Test hook: re-home every in-flight uop to a different arena
    /// slot (and scramble the free list) without touching behaviour.
    /// Snapshots, digests, and every subsequent cycle must be
    /// unaffected — program order lives in the queues, not the slots.
    #[cfg(test)]
    fn scramble_arena(&mut self) {
        let fr: Vec<Inflight> = self
            .frontend
            .iter()
            .map(|&i| self.arena.extract(i))
            .collect();
        let rb: Vec<Inflight> = self.rob.iter().map(|&i| self.arena.extract(i)).collect();
        self.arena.reset();
        self.frontend.clear();
        self.rob.clear();
        // Burn a few slots and free them so the free list is non-empty
        // and hands out low indices first.
        if let Some(pad) = fr.first().or(rb.first()).cloned() {
            let burned: Vec<u32> = (0..5).map(|_| self.arena.insert(pad.clone())).collect();
            for b in burned {
                self.arena.remove(b);
            }
        }
        // Re-insert back-to-front: every entry lands in a different
        // slot than canonical front-to-back insertion would give it.
        let mut rob_idx: Vec<u32> = rb.into_iter().rev().map(|e| self.arena.insert(e)).collect();
        rob_idx.reverse();
        let mut fr_idx: Vec<u32> = fr.into_iter().rev().map(|e| self.arena.insert(e)).collect();
        fr_idx.reverse();
        self.rob = rob_idx.into_iter().collect();
        self.frontend = fr_idx.into_iter().collect();
        self.rebuild_derived();
    }
}

/// A two-thread SMT processor: the paper's §1 motivation made concrete
/// — *"the mis-speculative execution consumes resources that could
/// have been allocated to useful work, such as another thread on a
/// multithreaded processor"* (citing Luo et al., "Boosting SMT
/// Performance by Speculation Control").
///
/// Each thread is a hardware context of the engine [`Simulation`]
/// runs, with its own front end, ROB half, load/store buffer halves,
/// branch predictor, confidence estimator and gate counter. The threads
/// share the memory hierarchy (in disjoint address spaces), the
/// scheduler windows, the execution units (first pick alternates each
/// cycle) and the fetch port: one thread fetches per cycle, chosen by
/// the [`FetchPolicy`]. When pipeline gating stalls one thread's fetch,
/// the *other thread takes the slot* — so an accurate confidence
/// estimator turns one thread's wrong-path work directly into the other
/// thread's throughput.
///
/// # Examples
///
/// ```no_run
/// use perconf_pipeline::{PipelineConfig, SmtSimulation, FetchPolicy, Simulation};
/// use perconf_workload::spec2000_config;
///
/// let a = spec2000_config("gzip").unwrap();
/// let b = spec2000_config("mcf").unwrap();
/// let mut smt = SmtSimulation::with_defaults(
///     PipelineConfig::deep(),
///     FetchPolicy::Icount,
///     &a,
///     &b,
/// );
/// smt.run_cycles(100_000);
/// println!("combined IPC: {:.2}", smt.combined_ipc());
/// ```
pub struct SmtSimulation {
    policy: FetchPolicy,
    mem: MemHierarchy,
    ctx: [Context; 2],
    /// The thread round-robin fetch picked last.
    last_fetched: usize,
}

impl std::fmt::Debug for SmtSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtSimulation")
            .field("cycle", &self.ctx[0].now)
            .field("retired0", &self.ctx[0].stats.retired)
            .field("retired1", &self.ctx[1].stats.retired)
            .finish_non_exhaustive()
    }
}

impl SmtSimulation {
    /// Builds an SMT pair from per-thread controllers. Per-thread ROB,
    /// load/store buffers and front-end capacity are half of `cfg`'s;
    /// scheduler windows, execution units, fetch bandwidth and the
    /// memory hierarchy are shared.
    #[must_use]
    pub fn new(
        cfg: PipelineConfig,
        policy: FetchPolicy,
        a: (&WorkloadConfig, Controller),
        b: (&WorkloadConfig, Controller),
    ) -> Self {
        Self {
            policy,
            mem: MemHierarchy::new(cfg.mem),
            ctx: [
                Context::new(cfg, a.0, a.1, Partition::new(&cfg, 2, 0)),
                Context::new(cfg, b.0, b.1, Partition::new(&cfg, 2, 1)),
            ],
            last_fetched: 1,
        }
    }

    /// Builds an SMT pair with the default predictor and no estimator
    /// on both threads.
    #[must_use]
    pub fn with_defaults(
        cfg: PipelineConfig,
        policy: FetchPolicy,
        a: &WorkloadConfig,
        b: &WorkloadConfig,
    ) -> Self {
        Self::new(
            cfg,
            policy,
            (a, default_controller()),
            (b, default_controller()),
        )
    }

    /// Per-thread statistics.
    #[must_use]
    pub fn stats(&self, thread: usize) -> &SimStats {
        &self.ctx[thread].stats
    }

    /// Cycles simulated.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.ctx[0].stats.cycles
    }

    /// Combined retired uops per cycle across both threads.
    #[must_use]
    pub fn combined_ipc(&self) -> f64 {
        if self.cycles() == 0 {
            return 0.0;
        }
        (self.ctx[0].stats.retired + self.ctx[1].stats.retired) as f64 / self.cycles() as f64
    }

    /// Runs for a fixed number of cycles (SMT throughput comparisons
    /// hold cycles constant and compare work done).
    ///
    /// # Panics
    ///
    /// Panics if a simulator invariant breaks (see [`SimError`]).
    pub fn run_cycles(&mut self, cycles: u64) {
        for _ in 0..cycles {
            if let Err(e) = self.try_step() {
                panic!("{e}");
            }
        }
    }

    /// Runs until warm, then clears statistics.
    ///
    /// # Panics
    ///
    /// Panics like [`run_cycles`](Self::run_cycles).
    pub fn warmup_cycles(&mut self, cycles: u64) {
        self.run_cycles(cycles);
        for c in &mut self.ctx {
            c.reset_stats();
        }
    }

    /// One cycle. Retire and complete/resolve touch only their own
    /// thread's context; issue, dispatch and fetch share the core.
    fn try_step(&mut self) -> Result<(), SimError> {
        for c in &mut self.ctx {
            c.tick();
            c.retire();
            c.complete_and_resolve();
        }
        let mut units = self.ctx[0].units();
        let first = (self.ctx[0].now % 2) as usize;
        for i in [first, 1 - first] {
            self.ctx[i].issue(&mut self.mem, &mut units);
        }
        let [a, b] = &mut self.ctx;
        a.dispatch(b.sched_occ);
        b.dispatch(a.sched_occ);
        a.check_rob()?;
        b.check_rob()?;
        self.fetch()?;
        for c in &mut self.ctx {
            c.stats.cycles += 1;
        }
        Ok(())
    }

    /// Fetch arbitration: one thread fetches per cycle. A thread that
    /// is redirecting, gated, or has a full front end sits the cycle
    /// out; of two that can fetch, the policy picks. Every redirecting
    /// thread counts a redirect cycle, and every gated thread that does
    /// not fetch counts a gated cycle.
    fn fetch(&mut self) -> Result<(), SimError> {
        for c in &mut self.ctx {
            c.apply_pending_gate_increments();
            if c.now < c.redirect_until {
                c.stats.redirect_cycles += 1;
            }
        }
        let can = self
            .ctx
            .each_ref()
            .map(|c| c.now >= c.redirect_until && !c.gated() && c.frontend.len() < c.part.frontend);
        let chosen = if can == [true, true] {
            Some(match self.policy {
                FetchPolicy::RoundRobin => {
                    self.last_fetched = 1 - self.last_fetched;
                    self.last_fetched
                }
                FetchPolicy::Icount => {
                    let in_flight = |c: &Context| c.frontend.len() + c.rob.len();
                    usize::from(in_flight(&self.ctx[0]) > in_flight(&self.ctx[1]))
                }
            })
        } else {
            can.iter().position(|&c| c)
        };
        for (i, c) in self.ctx.iter_mut().enumerate() {
            if chosen != Some(i) && c.gated() {
                c.stats.gated_cycles += 1;
            }
        }
        match chosen {
            Some(i) => self.ctx[i].fetch_uops(),
            None => Ok(()),
        }
    }
}

/// Snapshotting captures the *entire* simulated machine: workload
/// cursor, predictor and estimator tables, caches and prefetcher,
/// front-end pipe, ROB, gate state and statistics.
/// Restoring into a simulation built from the same `PipelineConfig`
/// and workload resumes bit-identically — every subsequent cycle
/// produces the same state digests as an uninterrupted run.
///
/// In-flight uops are serialized in *queue order* (front-end then ROB,
/// oldest first) as `Inflight` records, so snapshot bytes — and
/// therefore [`state_digest`](Snapshot::state_digest) — are completely
/// independent of how the arena happened to assign slots.
///
/// Everything derivable from those records is left out and rebuilt on
/// restore: the sequence-status window (each live uop's `seq` and
/// `completed`, every other slot free), the ready list, the wakeup
/// table and the completion ring.
///
/// The pipeline config is embedded in the snapshot and checked on
/// restore, so a checkpoint can never silently resume under a
/// different machine configuration.
impl Snapshot for Simulation {
    fn save_state(&self) -> Value {
        // `gate_counted` is a BTreeSet, so this iterates in sorted
        // order and the snapshot bytes are hash-order independent.
        let gate_counted: Vec<u64> = self.gate_counted.iter().copied().collect();
        Value::Object(vec![
            ("cfg".into(), self.cfg.to_value()),
            ("gen".into(), self.gen.save_state()),
            ("ctl".into(), self.ctl.save_state()),
            ("mem".into(), self.mem.to_value()),
            ("frontend".into(), self.snapshot_queue(&self.frontend)),
            ("rob".into(), self.snapshot_queue(&self.rob)),
            ("cp_ring".into(), self.cp_ring.to_value()),
            ("cp_index".into(), self.cp_index.to_value()),
            ("gate".into(), self.gate.save_state()),
            ("gate_pending".into(), self.gate_pending.to_value()),
            ("gate_counted".into(), gate_counted.to_value()),
            ("fetch_history".into(), self.fetch_history.to_value()),
            ("wrong_path_since".into(), self.wrong_path_since.to_value()),
            ("restore_history".into(), self.restore_history.to_value()),
            ("redirect_until".into(), self.redirect_until.to_value()),
            ("now".into(), self.now.to_value()),
            ("next_seq".into(), self.next_seq.to_value()),
            ("sched_occ".into(), self.sched_occ.to_value()),
            ("ldq_occ".into(), self.ldq_occ.to_value()),
            ("stq_occ".into(), self.stq_occ.to_value()),
            ("stats".into(), self.stats.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        fn f<T: Deserialize>(state: &Value, name: &str) -> Result<T, SnapshotError> {
            serde::field(state, name).map_err(SnapshotError::from_de)
        }
        fn part<'v>(state: &'v Value, name: &str) -> Result<&'v Value, SnapshotError> {
            state
                .get(name)
                .ok_or_else(|| SnapshotError::msg(format!("simulation snapshot missing `{name}`")))
        }
        let cfg: PipelineConfig = f(state, "cfg")?;
        if cfg != self.cfg {
            return Err(SnapshotError::msg(
                "snapshot was taken under a different pipeline configuration",
            ));
        }
        let frontend: Vec<Inflight> = f(state, "frontend")?;
        let rob: Vec<Inflight> = f(state, "rob")?;
        self.gen.restore_state(part(state, "gen")?)?;
        self.ctl.restore_state(part(state, "ctl")?)?;
        self.gate.restore_state(part(state, "gate")?)?;
        self.mem = f(state, "mem")?;
        self.arena.reset();
        self.frontend.clear();
        self.rob.clear();
        for e in frontend {
            let idx = self.arena.insert(e);
            self.frontend.push_back(idx);
        }
        for e in rob {
            let idx = self.arena.insert(e);
            self.rob.push_back(idx);
        }
        self.rebuild_status()?;
        self.cp_ring = f(state, "cp_ring")?;
        self.cp_index = f(state, "cp_index")?;
        self.gate_pending = f(state, "gate_pending")?;
        let counted: Vec<u64> = f(state, "gate_counted")?;
        self.gate_counted = counted.into_iter().collect();
        self.fetch_history = f(state, "fetch_history")?;
        self.wrong_path_since = f(state, "wrong_path_since")?;
        self.restore_history = f(state, "restore_history")?;
        self.redirect_until = f(state, "redirect_until")?;
        self.now = f(state, "now")?;
        self.next_seq = f(state, "next_seq")?;
        self.sched_occ = f(state, "sched_occ")?;
        self.ldq_occ = f(state, "ldq_occ")?;
        self.stq_occ = f(state, "stq_occ")?;
        self.stats = f(state, "stats")?;
        // After `now` is in place: ticket placement depends on it.
        self.rebuild_derived();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perconf_core::{PerceptronCe, PerceptronCeConfig};

    fn controller(estimator: Box<dyn SimEstimator>) -> Controller {
        SpeculationController::new(
            Box::new(perconf_bpred::baseline_bimodal_gshare()) as Box<dyn SimPredictor>,
            estimator,
        )
    }

    fn workload(name: &str) -> WorkloadConfig {
        perconf_workload::spec2000_config(name).unwrap()
    }

    #[test]
    fn retires_exactly_the_requested_uops() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("gcc"));
        let stats = sim.run(5_000);
        assert!(stats.retired >= 5_000 && stats.retired < 5_000 + 8);
    }

    #[test]
    fn ipc_is_positive_and_bounded_by_width() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("gzip"));
        let stats = sim.run(20_000);
        assert!(stats.ipc() > 0.1, "ipc={}", stats.ipc());
        assert!(stats.ipc() <= 4.0);
    }

    #[test]
    fn mispredictions_generate_wrong_path_work() {
        let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &workload("mcf"));
        let stats = sim.run(20_000);
        assert!(stats.base_mispredicts > 0);
        assert!(stats.fetched_wrong > 0);
        assert!(stats.executed_wrong > 0);
        assert!(stats.squashes > 0);
        assert_eq!(stats.speculated_mispredicts, stats.base_mispredicts);
    }

    #[test]
    fn deeper_pipeline_wastes_more_fetch() {
        // The depth scaling of speculation waste shows in *fetched*
        // wrong-path work (executed wrong-path work is bounded by the
        // drain-limited backend — see DESIGN.md §7 / EXPERIMENTS.md).
        let mut shallow = Simulation::with_defaults(PipelineConfig::shallow(), &workload("vpr"));
        let mut deep = Simulation::with_defaults(PipelineConfig::deep(), &workload("vpr"));
        shallow.warmup(30_000);
        deep.warmup(30_000);
        let s = shallow.run(50_000).clone();
        let d = deep.run(50_000).clone();
        let ws = s.fetched_wrong as f64 / s.fetched_correct as f64;
        let wd = d.fetched_wrong as f64 / d.fetched_correct as f64;
        assert!(wd > ws * 1.2, "deep {wd} vs shallow {ws}");
    }

    #[test]
    fn perfect_workload_has_no_wrong_path() {
        // vortex's branches are ~99.9% biased; once the predictor is
        // warm, mispredicts are rare and wrong-path work is a small
        // fraction.
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("vortex"));
        sim.warmup(40_000);
        let stats = sim.run(40_000);
        assert!(
            stats.wasted_execution_frac() < 0.2,
            "waste = {}",
            stats.wasted_execution_frac()
        );
    }

    #[test]
    fn gating_reduces_wrong_path_execution() {
        let wl = workload("twolf");
        let ce =
            || Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mut base = Simulation::new(PipelineConfig::deep(), &wl, controller(ce()));
        let mut gated = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        base.warmup(20_000);
        gated.warmup(20_000);
        let b = base.run(40_000).clone();
        let g = gated.run(40_000).clone();
        assert!(g.gated_cycles > 0, "gate never engaged");
        assert!(
            g.executed_wrong < b.executed_wrong,
            "gated {} vs base {}",
            g.executed_wrong,
            b.executed_wrong
        );
    }

    #[test]
    fn reversal_reduces_speculated_mispredicts() {
        // twolf, not mcf: reversal only pays where the reversal region
        // (y > 90) keeps PVN above 50% *after* pipeline training lag.
        // twolf holds ~0.57 there; mcf sits at ~0.45 (trace-level 0.55
        // eroded by lag), so on mcf reversal is net-negative on this
        // substrate — consistent with the paper's observation that
        // reversal gains are small and benchmark-dependent (§5.5).
        let wl = workload("twolf");
        let ce =
            Box::new(PerceptronCe::new(PerceptronCeConfig::combined())) as Box<dyn SimEstimator>;
        let mut sim = Simulation::new(PipelineConfig::deep(), &wl, controller(ce));
        sim.warmup(30_000);
        let stats = sim.run(50_000);
        assert!(stats.reversals > 0, "no reversals happened");
        // The whole point of StrongLow reversal: more good than bad.
        assert!(
            stats.reversals_good > stats.reversals_bad,
            "good {} vs bad {}",
            stats.reversals_good,
            stats.reversals_bad
        );
        assert!(stats.speculated_mispredicts < stats.base_mispredicts);
    }

    #[test]
    fn density_collection_populates_both_histograms() {
        let wl = workload("gcc");
        let ce =
            Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let cfg = PipelineConfig::shallow().with_density(-400, 400, 10);
        let mut sim = Simulation::new(cfg, &wl, controller(ce));
        sim.warmup(10_000);
        let stats = sim.run(30_000);
        let d = stats.density.as_ref().expect("density enabled");
        assert!(d.correct.count() > 1000);
        assert!(d.mispredicted.count() > 0);
        assert_eq!(
            d.correct.count() + d.mispredicted.count(),
            stats.branches_retired
        );
    }

    #[test]
    fn warmup_resets_statistics() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("gap"));
        sim.warmup(5_000);
        assert_eq!(sim.stats().retired, 0);
        assert_eq!(sim.stats().cycles, 0);
        let stats = sim.run(1_000);
        assert!(stats.retired >= 1_000);
    }

    #[test]
    fn fetched_wrong_only_after_mispredicted_fetch() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("eon"));
        let stats = sim.run(10_000);
        // eon has very few mispredicts; wrong-path fetch should be far
        // smaller than a high-misprediction benchmark's.
        let mut sim2 = Simulation::with_defaults(PipelineConfig::shallow(), &workload("mcf"));
        let stats2 = sim2.run(10_000);
        assert!(stats.fetched_wrong < stats2.fetched_wrong);
    }

    #[test]
    fn gate_counter_drains_completely_without_gating_config() {
        let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &workload("vpr"));
        sim.run(10_000);
        assert_eq!(sim.gate.count(), 0);
        assert!(sim.gate_counted.is_empty());
    }

    #[test]
    fn gate_counter_drains_with_gating_enabled() {
        let wl = workload("twolf");
        let ce =
            Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mut sim = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce));
        sim.run(20_000);
        // Everything in flight eventually resolves; after draining the
        // pipeline the counter must return to the in-flight count.
        assert!(sim.gate.count() as usize <= sim.gate_counted.len());
        assert!(sim.gate_counted.len() <= sim.rob.len() + sim.frontend.len());
    }

    #[test]
    fn try_run_returns_stats_on_success() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("gcc"));
        let stats = sim.try_run(2_000).expect("healthy run");
        assert!(stats.retired >= 2_000);
        sim.try_warmup(1_000).expect("healthy warmup");
        assert_eq!(sim.stats().retired, 0);
    }

    #[test]
    fn sim_error_messages_name_the_invariant() {
        let stalled = SimError::Stalled {
            retired: 5,
            target: 10,
            cycle: 99,
        };
        assert_eq!(
            stalled.to_string(),
            "simulation stalled: retired 5/10 at cycle 99"
        );
        let reuse = SimError::StatusWindowReuse {
            seq: 70_000,
            occupant: 3,
        };
        assert!(reuse.to_string().contains("status-window slot reuse"));
        let rob = SimError::RobOverflow { len: 129, cap: 128 };
        assert!(rob.to_string().contains("ROB overflow"));
        // It is a std error, so sweep drivers can box it uniformly.
        let _: &dyn std::error::Error = &rob;
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let wl = workload("twolf");
        let ce =
            || Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mut a = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        a.run(7_000);
        let snap = a.save_state();
        let digest = a.state_digest();

        let mut b = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        b.restore_state(&snap).expect("restore");
        assert_eq!(b.state_digest(), digest);

        // Both continue in lockstep: digests agree at every probe.
        for _ in 0..5 {
            for _ in 0..400 {
                a.step();
                b.step();
            }
            assert_eq!(a.state_digest(), b.state_digest());
        }
        assert_eq!(a.stats().retired, b.stats().retired);
        assert_eq!(a.stats().cycles, b.stats().cycles);
        assert_eq!(a.stats().base_mispredicts, b.stats().base_mispredicts);
    }

    #[test]
    fn status_window_is_rebuilt_exactly_after_a_squash() {
        let wl = workload("mcf");
        let ce =
            || Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mk = || Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        let mut a = mk();
        a.run(5_000);
        let squashes = a.stats().squashes;
        while a.stats().squashes == squashes {
            a.step();
        }
        while a.frontend.is_empty() || a.rob.is_empty() {
            a.step();
        }
        assert!(
            a.rob.iter().any(|&i| !a.arena.completed[i as usize]),
            "the ROB should hold a uop still in flight"
        );
        let snap = a.save_state();
        assert!(snap.get("status").is_none(), "the status window is derived");

        let mut b = mk();
        b.restore_state(&snap).expect("restore");
        // Every slot reads as the live machine's: the same `completed`,
        // and the same owner wherever that owner has not completed.
        // Slots the squash freed keep their dead `seq` in `a` only.
        for (live, rebuilt) in a.status.iter().zip(&b.status) {
            assert_eq!(live.completed, rebuilt.completed);
            if !live.completed {
                assert_eq!(live.seq, rebuilt.seq);
            }
        }
        assert_ne!(a.status, b.status, "the squash left dead seqs behind");
        for _ in 0..2_000 {
            a.step();
            b.step();
            assert_eq!(a.state_digest(), b.state_digest());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn restore_refuses_a_slot_whose_older_owner_is_in_flight() {
        let wl = workload("twolf");
        let mut a = Simulation::with_defaults(PipelineConfig::deep(), &wl);
        a.run(3_000);
        assert!(!a.frontend.is_empty(), "the test needs a front-end uop");
        let rob_uop = |completed: bool| {
            a.rob
                .iter()
                .map(|&i| i as usize)
                .find(|&i| a.arena.completed[i] == completed)
                .map(|i| a.arena.seq[i])
                .expect("the ROB holds uops in both states")
        };
        // The youngest front-end uop moved onto an older ROB uop's slot.
        let sharing = |older: u64| {
            let taken = older + STATUS_WINDOW as u64;
            let mut snap = a.save_state();
            let Value::Object(fields) = &mut snap else {
                panic!("a snapshot is an object")
            };
            let frontend = &mut fields.iter_mut().find(|f| f.0 == "frontend").unwrap().1;
            let Value::Array(uops) = frontend else {
                panic!("the front end is an array")
            };
            let Value::Object(youngest) = uops.last_mut().unwrap() else {
                panic!("a uop is an object")
            };
            youngest.iter_mut().find(|f| f.0 == "seq").unwrap().1 = Value::UInt(taken);
            (snap, taken)
        };
        let mut b = Simulation::with_defaults(PipelineConfig::deep(), &wl);

        let (snap, _) = sharing(rob_uop(false));
        let err = b.restore_state(&snap).unwrap_err();
        assert!(
            err.to_string().contains("status-window slot reuse"),
            "{err}"
        );
        // Fetch may reuse a completed uop's slot while that uop waits
        // to retire; the younger uop then owns it.
        let (snap, taken) = sharing(rob_uop(true));
        b.restore_state(&snap).expect("restore");
        assert_eq!(
            b.status[taken as usize & STATUS_MASK],
            SlotStatus {
                seq: taken,
                completed: false
            }
        );
    }

    #[test]
    fn snapshot_restore_rejects_config_mismatch() {
        let wl = workload("gcc");
        let mut a = Simulation::with_defaults(PipelineConfig::shallow(), &wl);
        a.run(500);
        let snap = a.save_state();
        let mut b = Simulation::with_defaults(PipelineConfig::deep(), &wl);
        let err = b.restore_state(&snap).unwrap_err();
        assert!(err.to_string().contains("configuration"), "{err}");
    }

    #[test]
    fn snapshot_survives_json_round_trip() {
        let wl = workload("gzip");
        let mut a = Simulation::with_defaults(PipelineConfig::shallow(), &wl);
        a.run(3_000);
        let json = serde_json::to_string(&a.save_state()).unwrap();
        let tree = serde_json::from_str(&json).unwrap();
        let mut b = Simulation::with_defaults(PipelineConfig::shallow(), &wl);
        b.restore_state(&tree).expect("restore from JSON");
        assert_eq!(a.state_digest(), b.state_digest());
        a.run(2_000);
        b.run(2_000);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.stats().retired, b.stats().retired);
    }

    #[test]
    fn digest_diverges_after_state_tampering() {
        let wl = workload("vpr");
        let mut a = Simulation::with_defaults(PipelineConfig::shallow(), &wl);
        let mut b = Simulation::with_defaults(PipelineConfig::shallow(), &wl);
        a.run(1_000);
        b.run(1_000);
        assert_eq!(a.state_digest(), b.state_digest());
        // Tamper with one machine's fetch history: the digests must
        // split — this is the primitive `repro verify` is built on.
        b.fetch_history ^= 1;
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_is_invariant_under_arena_slot_permutation() {
        // Satellite regression: `state_digest` must hash in-flight uops
        // in canonical (queue) order, never allocation order. Two
        // machines in the same architectural state but with arena slots
        // assigned completely differently must digest identically and
        // stay in lockstep forever after.
        let wl = workload("twolf");
        let ce =
            || Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mut a = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        a.run(7_000);
        let mut b = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        b.restore_state(&a.save_state()).expect("restore");
        assert!(
            !b.rob.is_empty() && !b.frontend.is_empty(),
            "permutation test needs in-flight uops to permute"
        );
        b.scramble_arena();
        // Slot assignment genuinely differs...
        assert_ne!(
            a.frontend.iter().copied().collect::<Vec<_>>(),
            b.frontend.iter().copied().collect::<Vec<_>>(),
            "scramble left the frontend slot map unchanged"
        );
        // ...yet snapshots and digests are identical,
        assert_eq!(a.state_digest(), b.state_digest());
        // and the machines remain bit-identical under further cycles.
        for _ in 0..2_000 {
            a.step();
            b.step();
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn confusion_totals_match_retired_branches() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("crafty"));
        let stats = sim.run(20_000);
        assert_eq!(stats.confusion.total(), stats.branches_retired);
        assert_eq!(stats.confusion.mispredicted(), stats.base_mispredicts);
    }

    #[test]
    fn counters_snapshot_reflects_stats_and_caches() {
        let wl = workload("twolf");
        let ce =
            Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;
        let mut sim = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce));
        sim.run(20_000);
        let snap = sim.counters();
        let s = sim.stats();
        assert_eq!(snap.get("fetch", "cycles"), Some(s.cycles));
        assert_eq!(snap.get("rob", "retired"), Some(s.retired));
        assert_eq!(
            snap.get("predictor", "branches_retired"),
            Some(s.branches_retired)
        );
        assert_eq!(snap.get("gating", "gated_cycles"), Some(s.gated_cycles));
        assert_eq!(
            snap.get("estimator", "flagged_low"),
            Some(s.confusion.flagged_low())
        );
        assert_eq!(snap.get("cache", "l1_hits"), Some(sim.mem().l1().hits()));
        // Storage gauges come from the controller, not the stats.
        assert!(snap.get("predictor", "storage_bits").unwrap() > 0);
        assert!(snap.get("estimator", "storage_bits").unwrap() > 0);
        // Every advertised group is present.
        for group in ["fetch", "rob", "cache", "predictor", "estimator", "gating"] {
            assert!(
                snap.entries().iter().any(|e| e.group == group),
                "missing group {group}"
            );
        }
    }

    #[test]
    fn counters_diff_between_two_points_is_the_delta() {
        let mut sim = Simulation::with_defaults(PipelineConfig::shallow(), &workload("gcc"));
        sim.run(5_000);
        let before = sim.counters();
        sim.run(5_000);
        let after = sim.counters();
        let delta = after.diff(&before);
        assert_eq!(
            delta.get("rob", "retired"),
            Some(sim.stats().retired - before.get("rob", "retired").unwrap())
        );
        // A gauge keeps the later value rather than subtracting.
        assert_eq!(
            delta.get("predictor", "storage_bits"),
            after.get("predictor", "storage_bits")
        );
    }

    #[test]
    fn observability_never_perturbs_the_run() {
        use perconf_obs::{Profiler, TraceLevel, Tracer};
        let wl = workload("twolf");
        let ce =
            || Box::new(PerceptronCe::new(PerceptronCeConfig::default())) as Box<dyn SimEstimator>;

        let mut plain = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        let mut observed = Simulation::new(PipelineConfig::deep().gated(1), &wl, controller(ce()));
        let tracer = Tracer::new();
        tracer.set_level(TraceLevel::Verbose);
        observed.set_tracer(tracer.clone());
        let profiler = Profiler::default();
        profiler.enable(true);
        observed.set_profiler(profiler);

        plain.run(20_000);
        observed.run(20_000);

        // The determinism contract: tracing and profiling are derived
        // outputs — the simulated machine is bit-identical either way.
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.state_digest(), observed.state_digest());
        assert_eq!(plain.counters(), observed.counters());

        let (events, _) = tracer.drain();
        assert!(!events.is_empty(), "traced run produced no events");
        assert!(events.iter().any(|e| e.kind_name() == "confidence_bucket"));
        assert!(events.iter().any(|e| e.kind_name() == "branch_resolved"));
    }
}
