//! Shared infrastructure for the experiment drivers: run scales,
//! controller construction, trace-level estimator evaluation, and
//! full-pipeline gating runs.

use crate::runner::CheckpointCell;
use perconf_bpred::{
    baseline_bimodal_gshare, gshare_perceptron, BranchPredictor, SimPredictor, Snapshot,
};
use perconf_core::{
    ConfidenceEstimator, Estimate, EstimateCtx, JrsConfig, JrsEstimator, PerceptronCe,
    PerceptronCeConfig, PerceptronTnt, PerceptronTntConfig, SimEstimator, SpeculationController,
};
use perconf_metrics::{ConfusionMatrix, DensityPair};
use perconf_obs::{Profiler, TraceEvent, Tracer};
use perconf_pipeline::{Controller, PipelineConfig, SimError, SimStats, Simulation};
use perconf_workload::{spec2000, WorkloadConfig, WorkloadGenerator};
use serde::{Deserialize, Serialize, Value};

/// How much work each experiment does. The paper runs 2 × 30M-uop
/// traces per benchmark; the default scale here is chosen so the full
/// experiment suite finishes in minutes while staying past the
/// predictors' warm-up knee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Scale {
    /// Pipeline-run warm-up uops (stats reset afterwards).
    pub warmup_uops: u64,
    /// Pipeline-run measured uops.
    pub run_uops: u64,
    /// Trace-level (no pipeline) warm-up branches.
    pub warmup_branches: u64,
    /// Trace-level measured branches.
    pub run_branches: u64,
}

impl Scale {
    /// Fast scale for interactive runs and benches.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            warmup_uops: 150_000,
            run_uops: 350_000,
            warmup_branches: 150_000,
            run_branches: 400_000,
        }
    }

    /// Full scale, closer to the paper's trace lengths.
    #[must_use]
    pub fn full() -> Self {
        Self {
            warmup_uops: 1_000_000,
            run_uops: 3_000_000,
            warmup_branches: 500_000,
            run_branches: 2_000_000,
        }
    }

    /// Tiny scale for unit tests of the drivers themselves.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            warmup_uops: 20_000,
            run_uops: 40_000,
            warmup_branches: 20_000,
            run_branches: 40_000,
        }
    }

    /// Resolves a scale name (`tiny` | `quick` | `full`) — the shared
    /// vocabulary of declarative specs and the experiment server's
    /// submit protocol, beside [`Grid::by_name`](crate::faults::Grid::by_name).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Self::tiny()),
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Names this scale and its sizes, such as `tiny scale of
    /// 20000+40000 uops and 20000+40000 branches`: the preset name
    /// ([`by_name`](Self::by_name), `custom` for none) for the reader,
    /// the sizes so a redefined preset is never taken for the old one.
    #[must_use]
    pub fn describe(&self) -> String {
        let name = ["tiny", "quick", "full"]
            .into_iter()
            .find(|name| Self::by_name(name) == Some(*self))
            .unwrap_or("custom");
        format!(
            "{name} scale of {}+{} uops and {}+{} branches",
            self.warmup_uops, self.run_uops, self.warmup_branches, self.run_branches
        )
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

/// Process-wide worker-thread count for the data-parallel experiment
/// stages ([`BaselineSet`], [`par_map_ordered`] call sites). The
/// binaries set it once from `--jobs`; the default of 1 keeps library
/// and test behaviour single-threaded unless explicitly raised.
static JOBS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Sets the process-wide experiment parallelism (clamped to ≥ 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), std::sync::atomic::Ordering::SeqCst);
}

/// The current process-wide experiment parallelism.
#[must_use]
pub fn jobs() -> usize {
    JOBS.load(std::sync::atomic::Ordering::SeqCst)
}

/// Process-wide observability context: one [`Tracer`] ring and one
/// [`Profiler`] table shared by every simulation the experiment
/// drivers build, whatever worker thread it runs on. Both start
/// disabled (level `Off`, profiling off), so library and test runs pay
/// one relaxed atomic load per guard and nothing else; the binaries
/// turn them on from `--trace-out` / `--profile`.
static OBS: std::sync::OnceLock<(Tracer, Profiler)> = std::sync::OnceLock::new();

fn obs() -> &'static (Tracer, Profiler) {
    OBS.get_or_init(|| (Tracer::new(), Profiler::default()))
}

/// The process-wide tracer every driver-built simulation records into.
#[must_use]
pub fn tracer() -> &'static Tracer {
    &obs().0
}

/// The process-wide profiler every driver-built simulation and
/// experiment phase reports into.
#[must_use]
pub fn profiler() -> &'static Profiler {
    &obs().1
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads and
/// returns the outputs **in input order** — the parallel analogue of
/// `items.iter().map(f).collect()`, deterministic by construction:
/// output slot `i` only ever holds `f(&items[i])`, whatever order the
/// workers claim indices in. A panic in `f` propagates to the caller
/// (use the [`runner::Scheduler`](crate::runner::Scheduler) when cells
/// need isolation instead).
pub fn par_map_ordered<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<O>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let (f, next, slots_ref) = (&f, &next, &slots);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= items.len() {
                    break;
                }
                let out = f(&items[i]);
                *slots_ref[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("every index is produced exactly once")
        })
        .collect()
}

/// Which baseline branch predictor a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Table 1 baseline: 16K bimodal + 64K gshare + 64K meta.
    BimodalGshare,
    /// §5.2: 64K gshare + perceptron + 64K meta.
    GsharePerceptron,
}

impl PredictorKind {
    /// Builds the predictor.
    #[must_use]
    pub fn build(self) -> Box<dyn SimPredictor> {
        match self {
            PredictorKind::BimodalGshare => Box::new(baseline_bimodal_gshare()),
            PredictorKind::GsharePerceptron => Box::new(gshare_perceptron()),
        }
    }
}

/// Builds a pipeline controller from a predictor kind and estimator.
#[must_use]
pub fn controller(kind: PredictorKind, est: Box<dyn SimEstimator>) -> Controller {
    SpeculationController::new(kind.build(), est)
}

/// The paper's 4 KB enhanced-JRS estimator at threshold λ.
#[must_use]
pub fn jrs(lambda: u8) -> Box<dyn SimEstimator> {
    Box::new(JrsEstimator::new(JrsConfig {
        lambda,
        ..JrsConfig::default()
    }))
}

/// The paper's 4 KB perceptron estimator (`perceptron_cic`) at
/// threshold λ, binary classification (no reversal region).
#[must_use]
pub fn perceptron(lambda: i32) -> Box<dyn SimEstimator> {
    Box::new(PerceptronCe::new(PerceptronCeConfig {
        lambda,
        ..PerceptronCeConfig::default()
    }))
}

/// The §5.3 straw man: confidence from a direction-trained perceptron.
#[must_use]
pub fn perceptron_tnt(lambda: i32) -> Box<dyn SimEstimator> {
    Box::new(PerceptronTnt::new(PerceptronTntConfig {
        lambda,
        ..PerceptronTntConfig::default()
    }))
}

/// The twelve benchmark workloads.
#[must_use]
pub fn benchmarks() -> Vec<WorkloadConfig> {
    spec2000()
}

/// A reseeded copy of a workload: same calibrated structure, fresh
/// program instantiation and outcome randomness. Used for multi-seed
/// variance estimates (the `seed_variance` example).
#[must_use]
pub fn reseed(cfg: &WorkloadConfig, run: u64) -> WorkloadConfig {
    let mut c = cfg.clone();
    c.seed ^= 0xA5A5_0000 ^ (run.wrapping_mul(0x9E37_79B9));
    c
}

/// One (predictor, estimator) pair a trace-level pass trains.
pub type TracePair<'a> = (&'a mut dyn BranchPredictor, &'a mut dyn ConfidenceEstimator);

/// Trace-level evaluation of a (predictor, estimator) pair: runs the
/// branch stream without the pipeline, training both structures
/// in order (equivalent to the simulator's non-speculative retirement
/// training). Returns the PVN/Spec confusion quadrants and, when a
/// range is given, the estimator-output density pair of Figures 4–7.
pub fn trace_eval(
    wl: &WorkloadConfig,
    predictor: &mut dyn BranchPredictor,
    estimator: &mut dyn ConfidenceEstimator,
    warmup_branches: u64,
    run_branches: u64,
    density: Option<(i64, i64, u32)>,
) -> (ConfusionMatrix, Option<DensityPair>) {
    let mut dens = density.map(|(lo, hi, bin)| DensityPair::new(lo, hi, bin));
    let mut cms = trace_loop(
        wl,
        &mut [(predictor, estimator)],
        warmup_branches,
        run_branches,
        |est, mispredicted| {
            if let Some(d) = &mut dens {
                d.add(i64::from(est.raw), mispredicted);
            }
        },
    );
    (cms.pop().expect("one pair, one matrix"), dens)
}

/// [`trace_eval`] for many pairs over one generated branch stream:
/// every pair sees each branch in slice order, and returns its
/// confusion matrix in the same slot.
///
/// Pairs share nothing but the stream, and the correct-path stream is
/// a pure function of `wl`, so pair `i`'s matrix and final state are
/// exactly what `trace_eval` of that pair alone produces. An empty
/// slice returns an empty `Vec` without generating anything.
pub fn trace_eval_each(
    wl: &WorkloadConfig,
    pairs: &mut [TracePair<'_>],
    warmup_branches: u64,
    run_branches: u64,
) -> Vec<ConfusionMatrix> {
    trace_loop(wl, pairs, warmup_branches, run_branches, |_, _| {})
}

/// The one trace loop: draws each branch once, through
/// [`WorkloadGenerator::next_branch`] (which builds none of the uops
/// between branches), and, for each pair in order, predicts,
/// estimates, records the matrix (and calls `on_measured` with the
/// estimate and misprediction) after warm-up, then trains the
/// predictor and the estimator.
fn trace_loop(
    wl: &WorkloadConfig,
    pairs: &mut [TracePair<'_>],
    warmup_branches: u64,
    run_branches: u64,
    mut on_measured: impl FnMut(Estimate, bool),
) -> Vec<ConfusionMatrix> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let _s = profiler().scope("phase/trace_eval");
    let mut gen = WorkloadGenerator::new(wl);
    let mut cms = vec![ConfusionMatrix::new(); pairs.len()];
    let mut hist = 0u64;
    for seen in 1..=warmup_branches + run_branches {
        let b = gen.next_branch();
        for ((predictor, estimator), cm) in pairs.iter_mut().zip(&mut cms) {
            let predicted_taken = predictor.predict(b.pc, hist);
            let ctx = EstimateCtx {
                pc: b.pc,
                history: hist,
                predicted_taken,
            };
            let est = estimator.estimate(&ctx);
            let mispredicted = predicted_taken != b.taken;
            if seen > warmup_branches {
                cm.record(mispredicted, est.is_low());
                on_measured(est, mispredicted);
            }
            predictor.train(b.pc, hist, b.taken);
            estimator.train(&ctx, est, mispredicted);
        }
        hist = (hist << 1) | u64::from(b.taken);
    }
    cms
}

/// Result of one (baseline, variant) pipeline comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatingOutcome {
    /// Fractional reduction in total uops *executed* (issued to
    /// functional units), the paper's `U`.
    pub u_executed: f64,
    /// Fractional reduction in total uops *fetched* — the quantity
    /// gating controls directly; reported alongside `U` because our
    /// substrate's backend is more drain-limited than the paper's
    /// (see EXPERIMENTS.md).
    pub u_fetched: f64,
    /// Fractional performance loss (positive = slower), the paper's
    /// `P`. Negative values are speed-ups (possible with reversal).
    pub perf_loss: f64,
}

/// Precomputed ungated baseline runs, one per benchmark, reusable
/// across the many gated design points of Tables 4–6.
#[derive(Debug, Clone)]
pub struct BaselineSet {
    pipe: PipelineConfig,
    scale: Scale,
    runs: Vec<(WorkloadConfig, SimStats)>,
}

impl BaselineSet {
    /// Runs the ungated baseline (given predictor, no estimator) for
    /// every benchmark on `pipe`.
    #[must_use]
    pub fn build(kind: PredictorKind, pipe: PipelineConfig, scale: Scale) -> Self {
        Self::build_on(kind, pipe, scale, benchmarks())
    }

    /// Like [`build`](Self::build) but over an explicit benchmark
    /// subset (reduced-scale golden tests, focused studies). Baselines
    /// run on up to [`jobs`] worker threads; results keep the given
    /// benchmark order.
    #[must_use]
    pub fn build_on(
        kind: PredictorKind,
        pipe: PipelineConfig,
        scale: Scale,
        benchmarks: Vec<WorkloadConfig>,
    ) -> Self {
        let stats = par_map_ordered(jobs(), &benchmarks, |wl| {
            let ctl = controller(kind, Box::new(perconf_core::AlwaysHigh));
            run_pipeline(wl, pipe, ctl, scale)
        });
        let runs = benchmarks.into_iter().zip(stats).collect();
        Self { pipe, scale, runs }
    }

    /// The pipeline configuration the baselines ran on.
    #[must_use]
    pub fn pipe(&self) -> PipelineConfig {
        self.pipe
    }

    /// Baseline stats per benchmark.
    #[must_use]
    pub fn runs(&self) -> &[(WorkloadConfig, SimStats)] {
        &self.runs
    }

    /// Runs one gated/variant configuration for every benchmark and
    /// returns the mean outcome against the cached baselines, plus the
    /// per-benchmark outcomes and variant stats. Per-benchmark runs
    /// fan out over [`jobs`] worker threads; the returned vectors keep
    /// benchmark order, so the result is identical at any job count
    /// (`mk_variant` builds a fresh controller per benchmark and must
    /// not depend on call order).
    pub fn evaluate(
        &self,
        variant_cfg: PipelineConfig,
        mk_variant: impl Fn() -> Controller + Sync,
    ) -> (GatingOutcome, Vec<(GatingOutcome, SimStats)>) {
        let per: Vec<(GatingOutcome, SimStats)> =
            par_map_ordered(jobs(), &self.runs, |(wl, base)| {
                let var = run_pipeline(wl, variant_cfg, mk_variant(), self.scale);
                (outcome(base, &var), var)
            });
        let m = |f: &dyn Fn(&GatingOutcome) -> f64| {
            let xs: Vec<f64> = per.iter().map(|(o, _)| f(o)).collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        (
            GatingOutcome {
                u_executed: m(&|o| o.u_executed),
                u_fetched: m(&|o| o.u_fetched),
                perf_loss: m(&|o| o.perf_loss),
            },
            per,
        )
    }
}

/// Runs one benchmark through the pipeline at the given scale.
#[must_use]
pub fn run_pipeline(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    ctl: Controller,
    scale: Scale,
) -> SimStats {
    let mut sim = Simulation::new(cfg, wl, ctl);
    sim.set_tracer(tracer().clone());
    sim.set_profiler(profiler().clone());
    {
        let _s = profiler().scope("phase/warmup");
        sim.warmup(scale.warmup_uops);
    }
    let _s = profiler().scope("phase/run");
    sim.run(scale.run_uops).clone()
}

/// Phases a checkpointed pipeline run moves through, recorded in the
/// mid-run snapshot so a resume knows where it was.
const PHASE_WARMUP: u64 = 0;
const PHASE_RUN: u64 = 1;

/// The simulation a checkpointed run starts from: restored from
/// whatever `cell` last stored, together with the phase it was stored
/// in, or fresh in the warmup phase when nothing usable was stored.
fn start_or_resume(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    mk_ctl: &dyn Fn() -> Controller,
    cell: &CheckpointCell,
) -> (Simulation, u64) {
    let fresh = || {
        let mut sim = Simulation::new(cfg, wl, mk_ctl());
        sim.set_tracer(tracer().clone());
        sim.set_profiler(profiler().clone());
        sim
    };
    let mut sim = fresh();
    let Some(saved) = cell.load() else {
        return (sim, PHASE_WARMUP);
    };
    let restored = (|| -> Result<u64, String> {
        let p: u64 = serde::field(&saved, "phase").map_err(|e| e.to_string())?;
        let state = saved
            .get("sim")
            .ok_or_else(|| "checkpoint missing `sim`".to_owned())?;
        sim.restore_state(state).map_err(|e| e.to_string())?;
        Ok(p)
    })();
    match restored {
        Ok(p) => (sim, p),
        Err(e) => {
            // A restore can die partway and leave mixed state;
            // rebuild rather than trust it.
            eprintln!("warning: discarding unusable mid-run checkpoint: {e}");
            (fresh(), PHASE_WARMUP)
        }
    }
}

/// Checkpoints `{phase, sim}` into `cell` at one boundary. The
/// `phase/checkpoint` span marks every boundary; only a cell that
/// persists records the trace event and builds the snapshot.
fn checkpoint(cell: &CheckpointCell, sim: &Simulation, phase: u64) {
    if tracer().enabled() && cell.path().is_some() {
        tracer().record(TraceEvent::CheckpointWrite {
            retired: sim.stats().retired,
            phase,
        });
    }
    let _s = profiler().scope("phase/checkpoint");
    cell.store(|| {
        Value::Object(vec![
            ("phase".into(), Value::UInt(phase)),
            ("sim".into(), sim.save_state()),
        ])
    });
}

/// Like [`run_pipeline`], but snapshotting the entire simulation into
/// `cell` every `interval` retired uops, and resuming from whatever
/// the cell last stored. The end of warmup is one boundary, stored
/// once in the run phase; a cell without a path builds no snapshot.
///
/// The run is bit-identical to an uninterrupted [`run_pipeline`] of
/// the same workload and scale: the snapshot captures the full machine
/// (workload cursor, predictor/estimator, caches, ROB, stats), so a
/// cell killed at any point and re-entered through this function
/// produces the same final stats and state digest. A checkpoint that
/// fails integrity checks or was taken under a different pipeline
/// configuration is discarded and the run starts from scratch.
///
/// `mk_ctl` builds the controller — called once for the initial
/// simulation and again if a bad checkpoint forces a rebuild.
///
/// The last stored checkpoint outlives the run: the runner deletes it
/// once the cell's final result is persisted, so a cell that dies
/// after this leg (say, in a later leg of its group) resumes the leg
/// from its last boundary instead of from scratch.
///
/// Returns the finished [`Simulation`] so callers can read both the
/// stats and the final state digest.
///
/// # Errors
///
/// Propagates [`SimError`] from the underlying simulation instead of
/// panicking, so runner cells can record it as a typed failure.
pub fn run_pipeline_checkpointed(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    mk_ctl: impl Fn() -> Controller,
    scale: Scale,
    cell: &CheckpointCell,
    interval: u64,
) -> Result<Simulation, SimError> {
    let interval = interval.max(1);
    let (mut sim, phase) = start_or_resume(wl, cfg, &mk_ctl, cell);
    if phase == PHASE_WARMUP {
        let _s = profiler().scope("phase/warmup");
        while sim.stats().retired < scale.warmup_uops {
            let chunk = interval.min(scale.warmup_uops - sim.stats().retired);
            sim.try_run(chunk)?;
            // The run-phase checkpoint below supersedes the one the
            // last warmup chunk would store at the same retired count.
            if sim.stats().retired < scale.warmup_uops {
                checkpoint(cell, &sim, PHASE_WARMUP);
            }
        }
        // Ends the warmup phase: resets stats (uops argument is 0).
        sim.try_warmup(0)?;
        checkpoint(cell, &sim, PHASE_RUN);
    }
    {
        let _s = profiler().scope("phase/run");
        while sim.stats().retired < scale.run_uops {
            let chunk = interval.min(scale.run_uops - sim.stats().retired);
            sim.try_run(chunk)?;
            if sim.stats().retired < scale.run_uops {
                checkpoint(cell, &sim, PHASE_RUN);
            }
        }
    }
    Ok(sim)
}

/// Derives the paper's `U`/`P` metrics from a baseline and a variant
/// run of the same workload amount.
#[must_use]
pub fn outcome(base: &SimStats, var: &SimStats) -> GatingOutcome {
    let fetched = |s: &SimStats| (s.fetched_correct + s.fetched_wrong) as f64;
    GatingOutcome {
        u_executed: 1.0 - var.executed_total() as f64 / base.executed_total() as f64,
        u_fetched: 1.0 - fetched(var) / fetched(base),
        perf_loss: var.cycles as f64 / base.cycles as f64 - 1.0,
    }
}

/// Formats a fraction as a signed percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::tiny().run_uops < Scale::quick().run_uops);
        assert!(Scale::quick().run_uops < Scale::full().run_uops);
    }

    #[test]
    fn trace_eval_counts_requested_branches() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let mut p = baseline_bimodal_gshare();
        let mut ce = JrsEstimator::new(JrsConfig::default());
        let (cm, d) = trace_eval(&wl, &mut p, &mut ce, 1_000, 5_000, Some((-10, 10, 5)));
        assert_eq!(cm.total(), 5_000);
        let d = d.unwrap();
        assert_eq!(d.correct.count() + d.mispredicted.count(), cm.total());
        assert_eq!(d.mispredicted.count(), cm.mispredicted());
    }

    type Baseline = perconf_bpred::Hybrid<perconf_bpred::Bimodal, perconf_bpred::Gshare>;
    type WrappedPair = (
        perconf_faults::FaultyPredictor<Baseline>,
        perconf_faults::FaultyEstimator<Box<dyn perconf_core::FaultableEstimator>>,
    );

    /// The pairs the shared-pass test trains: a bare (bimodal-gshare,
    /// JRS λ=1) pair, then fault-wrapped perceptron pairs at rates 1e-3
    /// and 1e-1 and a wrapped JRS pair at rate 0, each with its own
    /// fault seeds.
    struct SharedPassPairs {
        bare: (Baseline, JrsEstimator),
        wrapped: Vec<WrappedPair>,
    }

    impl SharedPassPairs {
        fn new() -> Self {
            use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
            let jrs1 = || {
                JrsEstimator::new(JrsConfig {
                    lambda: 1,
                    ..JrsConfig::default()
                })
            };
            let wrap = |rate: f64, seed: u64, e: Box<dyn perconf_core::FaultableEstimator>| {
                let cfg_p = FaultConfig {
                    rate,
                    history_rate: rate,
                    seed,
                };
                (
                    FaultyPredictor::new(baseline_bimodal_gshare(), &cfg_p),
                    FaultyEstimator::new(e, &FaultConfig::state_only(rate, seed ^ 0x22)),
                )
            };
            let perceptron = || Box::new(PerceptronCe::new(PerceptronCeConfig::default()));
            Self {
                bare: (baseline_bimodal_gshare(), jrs1()),
                wrapped: vec![
                    wrap(1e-3, 0x11, perceptron()),
                    wrap(1e-1, 0x33, perceptron()),
                    wrap(0.0, 0x55, Box::new(jrs1())),
                ],
            }
        }

        fn trace_pairs(&mut self) -> Vec<TracePair<'_>> {
            let (p, e) = &mut self.bare;
            let mut pairs: Vec<TracePair<'_>> = vec![(p, e)];
            for (p, e) in &mut self.wrapped {
                pairs.push((p, e));
            }
            pairs
        }

        /// Faults injected per wrapped pair, `[predictor, estimator]`.
        fn injected(&self) -> Vec<[u64; 2]> {
            self.wrapped
                .iter()
                .map(|(p, e)| [p.injected(), e.injected()])
                .collect()
        }

        /// `[predictor, estimator]` state digests per pair.
        fn digests(&self) -> Vec<[u64; 2]> {
            let (p, e) = &self.bare;
            let mut out = vec![[p.state_digest(), e.state_digest()]];
            for (p, e) in &self.wrapped {
                out.push([p.state_digest(), e.state_digest()]);
            }
            out
        }
    }

    #[test]
    fn shared_pass_matches_each_pair_alone() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let (warmup, run) = (2_000, 8_000);
        let mut shared = SharedPassPairs::new();
        let cms = trace_eval_each(&wl, &mut shared.trace_pairs(), warmup, run);
        let mut alone = SharedPassPairs::new();
        let solo: Vec<ConfusionMatrix> = alone
            .trace_pairs()
            .into_iter()
            .map(|(p, e)| trace_eval(&wl, p, e, warmup, run, None).0)
            .collect();
        assert_eq!(cms.len(), 4);
        assert_eq!(cms, solo);
        assert!(cms.iter().all(|cm| cm.total() == run));
        assert_eq!(shared.injected(), alone.injected());
        assert_eq!(shared.digests(), alone.digests());
        // The comparison has teeth: the faulted pairs were hit, the
        // zero-rate pair was not, and the heavy rate moved the matrix.
        let injected = shared.injected();
        assert!(injected[0][0] > 0 && injected[0][1] > 0, "{injected:?}");
        assert!(injected[1][0] > injected[0][0], "{injected:?}");
        assert_eq!(injected[2], [0, 0]);
        assert_ne!(cms[1], cms[2]);

        assert!(trace_eval_each(&wl, &mut [], warmup, run).is_empty());
    }

    #[test]
    fn outcome_signs() {
        let base = SimStats {
            executed_correct: 1000,
            executed_wrong: 500,
            fetched_correct: 1000,
            fetched_wrong: 800,
            cycles: 1000,
            ..SimStats::default()
        };
        let mut var = base.clone();
        var.executed_wrong = 200;
        var.fetched_wrong = 300;
        var.cycles = 1050;
        let o = outcome(&base, &var);
        assert!(o.u_executed > 0.0);
        assert!(o.u_fetched > 0.0);
        assert!((o.perf_loss - 0.05).abs() < 1e-12);
    }

    #[test]
    fn estimator_factories_have_expected_storage() {
        assert_eq!(jrs(7).storage_bits(), 8 * 1024 * 4);
        assert_eq!(perceptron(0).storage_bits(), 128 * 33 * 8);
        assert_eq!(perceptron_tnt(30).storage_bits(), 128 * 33 * 8);
    }

    fn tmp_cell(tag: &str) -> (std::path::PathBuf, CheckpointCell) {
        let dir =
            std::env::temp_dir().join(format!("perconf-common-chk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cell = CheckpointCell::at(dir.join("cell.part.psnap"));
        (dir, cell)
    }

    #[test]
    fn checkpointed_run_matches_the_plain_run() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, perceptron(14));
        let plain = run_pipeline(&wl, cfg, mk(), scale);
        let (dir, cell) = tmp_cell("match");
        let sim = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell, 7_000).unwrap();
        assert_eq!(sim.stats(), &plain, "chunked run must be bit-identical");
        assert!(
            cell.load().is_some(),
            "a completed run leaves its last partial for the runner to delete"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_mid_cell_run_resumes_to_identical_stats_and_digest() {
        let wl = perconf_workload::spec2000_config("twolf").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, perceptron(14));

        // Reference: one uninterrupted checkpointed run.
        let (dir_a, cell_a) = tmp_cell("ref");
        let reference = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell_a, 9_000).unwrap();

        // "Killed" run: advance part-way through the measured phase,
        // store a mid-run checkpoint exactly as the driver does, then
        // drop the simulation — the moral equivalent of SIGKILL.
        let (dir_b, cell_b) = tmp_cell("killed");
        {
            let mut sim = Simulation::new(cfg, &wl, mk());
            sim.warmup(scale.warmup_uops);
            sim.try_run(scale.run_uops / 3).unwrap();
            cell_b.store(|| {
                Value::Object(vec![
                    ("phase".into(), Value::UInt(super::PHASE_RUN)),
                    ("sim".into(), sim.save_state()),
                ])
            });
        }
        let resumed = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell_b, 9_000).unwrap();
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.state_digest(), reference.state_digest());
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_mid_run_checkpoint_degrades_to_a_from_scratch_run() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, jrs(7));
        let plain = run_pipeline(&wl, cfg, mk(), scale);
        let (dir, cell) = tmp_cell("corrupt");
        // A syntactically valid snapfile whose payload is not a
        // simulation snapshot: survives the container checks, fails
        // restore, and must trigger the rebuild path.
        crate::snapfile::write(
            cell.path().unwrap(),
            &Value::Object(vec![
                ("phase".into(), Value::UInt(super::PHASE_RUN)),
                (
                    "sim".into(),
                    Value::Object(vec![("bogus".into(), Value::Null)]),
                ),
            ]),
        )
        .unwrap();
        let sim = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell, 11_000).unwrap();
        assert_eq!(sim.stats(), &plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_checkpoint_of_version_1_is_discarded_and_recomputed() {
        // Builds before packed counter tables wrote version 1. Such a
        // partial must be refused by its header, never misread.
        let wl = perconf_workload::spec2000_config("twolf").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, jrs(7));
        let off = CheckpointCell::disabled();
        let reference = run_pipeline_checkpointed(&wl, cfg, mk, scale, &off, 9_000).unwrap();

        let (dir, cell) = tmp_cell("version-1");
        let mut sim = Simulation::new(cfg, &wl, mk());
        sim.warmup(scale.warmup_uops);
        sim.try_run(scale.run_uops / 3).unwrap();
        let state = Value::Object(vec![
            ("phase".into(), Value::UInt(super::PHASE_RUN)),
            ("sim".into(), sim.save_state()),
        ]);
        let payload = serde_json::to_string(&state).unwrap();
        let path = cell.path().unwrap();
        perconf_bpred::frame::write(path, crate::snapfile::MAGIC, 1, payload.as_bytes()).unwrap();
        assert!(matches!(
            crate::snapfile::read(path),
            Err(crate::snapfile::SnapfileError::UnsupportedVersion { found: 1 })
        ));

        let resumed = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell, 9_000).unwrap();
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.state_digest(), reference.state_digest());
        assert!(
            crate::snapfile::read(path).is_ok(),
            "the refused partial was replaced by a current one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An always-high estimator that counts its `save_state` calls:
    /// one per snapshot built of the simulation that holds it.
    struct SaveCounter(Arc<AtomicUsize>);

    impl ConfidenceEstimator for SaveCounter {
        fn estimate(&self, ctx: &EstimateCtx) -> perconf_core::Estimate {
            perconf_core::AlwaysHigh.estimate(ctx)
        }

        fn train(&mut self, _: &EstimateCtx, _: perconf_core::Estimate, _: bool) {}

        fn name(&self) -> &'static str {
            "save-counter"
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    impl Snapshot for SaveCounter {
        fn save_state(&self) -> Value {
            self.0.fetch_add(1, Ordering::SeqCst);
            Value::Null
        }

        fn restore_state(&mut self, _: &Value) -> Result<(), perconf_bpred::SnapshotError> {
            Ok(())
        }
    }

    /// Snapshots built by a checkpointed run through `cell`, tiny scale
    /// at 7k.
    fn snapshots_built(cell: &CheckpointCell) -> usize {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let calls = Arc::new(AtomicUsize::new(0));
        let n = Arc::clone(&calls);
        let mk = move || {
            controller(
                PredictorKind::BimodalGshare,
                Box::new(SaveCounter(Arc::clone(&n))),
            )
        };
        run_pipeline_checkpointed(&wl, cfg, mk, Scale::tiny(), cell, 7_000).unwrap();
        calls.load(Ordering::SeqCst)
    }

    #[test]
    fn disabled_cell_never_builds_a_snapshot() {
        assert_eq!(snapshots_built(&CheckpointCell::disabled()), 0);
    }

    #[test]
    fn persisting_cell_snapshots_once_per_boundary() {
        let (dir, cell) = tmp_cell("boundaries");
        // Warmup (20k) boundaries at 7k and 14k, the warmup/run
        // boundary once, then run (40k) boundaries at 7k..35k.
        assert_eq!(snapshots_built(&cell), 8);
        // A rerun continues from the kept 35k partial: its last chunk
        // ends the run, which is no boundary.
        assert_eq!(snapshots_built(&cell), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_of_warmup_checkpoint_of_older_builds_resumes() {
        // Older builds also stored a warmup-phase checkpoint at the end
        // of warmup. Resume dirs and serve caches written by them must
        // still continue to the uninterrupted result.
        let wl = perconf_workload::spec2000_config("twolf").unwrap();
        let scale = Scale::tiny();
        let cfg = PipelineConfig::with_depth_width(20, 4);
        let mk = || controller(PredictorKind::BimodalGshare, perceptron(14));
        let off = CheckpointCell::disabled();
        let reference = run_pipeline_checkpointed(&wl, cfg, mk, scale, &off, 9_000).unwrap();

        let (dir, cell) = tmp_cell("old-warmup");
        let mut sim = Simulation::new(cfg, &wl, mk());
        sim.try_run(scale.warmup_uops).unwrap();
        assert!(sim.stats().retired >= scale.warmup_uops);
        cell.store(|| {
            Value::Object(vec![
                ("phase".into(), Value::UInt(super::PHASE_WARMUP)),
                ("sim".into(), sim.save_state()),
            ])
        });
        let resumed = run_pipeline_checkpointed(&wl, cfg, mk, scale, &cell, 9_000).unwrap();
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed.state_digest(), reference.state_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
