//! Layer probes: one [`Probe`] type per layer, all timed by the shared
//! [`measure`] harness. Each probe times one public entry point of one
//! module on inputs built from the paper's benchmark configurations, so
//! the per-layer numbers attribute an end-to-end change to the module
//! that caused it (see `METRICS.md` for which workload each one moves).

use crate::harness::{measure, measure_ratio, Probe};
use crate::Metric;
use perconf_bpred::{baseline_bimodal_gshare, BranchPredictor, Snapshot};
use perconf_core::{
    AlwaysHigh, ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator, PerceptronCe,
    PerceptronCeConfig, SimEstimator,
};
use perconf_experiments::common::{self, PredictorKind};
use perconf_experiments::runner::{CellSpec, Scheduler, SchedulerConfig};
use perconf_experiments::{faults, snapfile, table2, Scale};
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_pipeline::{BatchSim, FetchPolicy, PipelineConfig, Simulation, SmtSimulation};
use perconf_workload::{spec2000_config, WorkloadConfig, WorkloadGenerator};
use serde::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Time budget of one probe.
const BUDGET: Duration = Duration::from_millis(250);
/// Uops one pipeline step retires.
const CHUNK: u64 = 5_000;
/// Branches in a pre-generated predictor/estimator stream.
const STREAM: usize = 20_000;

fn wl(name: &str) -> WorkloadConfig {
    spec2000_config(name).expect("known benchmark")
}

/// One retired branch as `common::trace_eval` sees it.
#[derive(Clone, Copy)]
struct BranchRec {
    pc: u64,
    hist: u64,
    taken: bool,
    predicted: bool,
}

/// The first [`STREAM`] branches of `gcc`, with the global history each
/// saw and the baseline predictor's direction for it.
fn branch_stream() -> Vec<BranchRec> {
    let mut gen = WorkloadGenerator::new(&wl("gcc"));
    let mut p = baseline_bimodal_gshare();
    let mut hist = 0u64;
    let mut out = Vec::with_capacity(STREAM);
    while out.len() < STREAM {
        let Some(b) = gen.next_uop().branch else {
            continue;
        };
        let predicted = p.predict(b.pc, hist);
        p.train(b.pc, hist, b.taken);
        out.push(BranchRec {
            pc: b.pc,
            hist,
            taken: b.taken,
            predicted,
        });
        hist = (hist << 1) | u64::from(b.taken);
    }
    out
}

/// `WorkloadGenerator::next_uop`.
struct UopGen(WorkloadGenerator);

impl Probe for UopGen {
    fn step(&mut self) -> u64 {
        for _ in 0..10_000 {
            black_box(self.0.next_uop());
        }
        10_000
    }
}

/// Predict + train of a branch predictor over a fixed stream.
struct Predict<P> {
    p: P,
    stream: Vec<BranchRec>,
}

impl<P: BranchPredictor> Probe for Predict<P> {
    fn step(&mut self) -> u64 {
        for r in &self.stream {
            black_box(self.p.predict(r.pc, r.hist));
            self.p.train(r.pc, r.hist, r.taken);
        }
        self.stream.len() as u64
    }
}

/// Estimate + train of a confidence estimator over a fixed stream.
struct Estimate<E> {
    e: E,
    stream: Vec<BranchRec>,
}

impl<E: ConfidenceEstimator> Probe for Estimate<E> {
    fn step(&mut self) -> u64 {
        for r in &self.stream {
            let ctx = EstimateCtx {
                pc: r.pc,
                history: r.hist,
                predicted_taken: r.predicted,
            };
            let est = self.e.estimate(&ctx);
            self.e.train(&ctx, est, r.predicted != r.taken);
        }
        self.stream.len() as u64
    }
}

/// The trace-level inner loop of a faults cell (predict, estimate,
/// train both) on a predictor/estimator pair — bare or fault-wrapped.
struct Pair<P, E> {
    p: P,
    e: E,
    stream: Vec<BranchRec>,
}

impl<P: BranchPredictor, E: ConfidenceEstimator> Probe for Pair<P, E> {
    fn step(&mut self) -> u64 {
        for r in &self.stream {
            let predicted_taken = self.p.predict(r.pc, r.hist);
            let ctx = EstimateCtx {
                pc: r.pc,
                history: r.hist,
                predicted_taken,
            };
            let est = self.e.estimate(&ctx);
            self.p.train(r.pc, r.hist, r.taken);
            self.e.train(&ctx, est, predicted_taken != r.taken);
        }
        self.stream.len() as u64
    }
}

fn jrs_lambda1() -> JrsEstimator {
    JrsEstimator::new(JrsConfig {
        lambda: 1,
        ..JrsConfig::default()
    })
}

/// `common::trace_eval`: the trace-level leg of one faults cell
/// (faulted predictor and perceptron estimator, tiny scale).
struct TraceEval {
    wl: WorkloadConfig,
    scale: Scale,
}

impl Probe for TraceEval {
    fn step(&mut self) -> u64 {
        let cfg = FaultConfig {
            rate: 1e-3,
            history_rate: 1e-3,
            seed: 0x11,
        };
        let mut p = FaultyPredictor::new(baseline_bimodal_gshare(), &cfg);
        let mut e = FaultyEstimator::new(
            PerceptronCe::new(PerceptronCeConfig::default()),
            &FaultConfig::state_only(1e-3, 0x22),
        );
        black_box(common::trace_eval(
            &self.wl,
            &mut p,
            &mut e,
            self.scale.warmup_branches,
            self.scale.run_branches,
            None,
        ));
        1
    }
}

/// A warmed-up simulation of `gcc` on `cfg`.
fn warm_sim(cfg: PipelineConfig, est: Box<dyn SimEstimator>) -> Simulation {
    let mut sim = Simulation::new(
        cfg,
        &wl("gcc"),
        common::controller(PredictorKind::BimodalGshare, est),
    );
    sim.warmup(Scale::tiny().warmup_uops);
    sim
}

/// `Simulation::try_run` on one machine shape.
struct Pipeline(Simulation);

impl Probe for Pipeline {
    fn step(&mut self) -> u64 {
        self.0.try_run(CHUNK).expect("pipeline probe run");
        CHUNK
    }
}

/// `BatchSim::try_run` over identical gated deep machines.
struct Batch {
    batch: BatchSim,
}

impl Batch {
    fn new(width: usize) -> Self {
        let sims = (0..width)
            .map(|_| warm_sim(PipelineConfig::deep().gated(1), common::jrs(1)))
            .collect();
        Self {
            batch: BatchSim::new(sims),
        }
    }
}

impl Probe for Batch {
    fn step(&mut self) -> u64 {
        for r in self.batch.try_run(CHUNK) {
            r.expect("batch probe run");
        }
        CHUNK * self.batch.width() as u64
    }
}

/// `Simulation::counters`.
struct Counters(Simulation);

impl Probe for Counters {
    fn step(&mut self) -> u64 {
        black_box(self.0.counters());
        1
    }
}

/// `SmtSimulation::run_cycles`: `gcc` and `mcf` sharing a deep machine.
struct Smt(SmtSimulation);

impl Probe for Smt {
    fn step(&mut self) -> u64 {
        self.0.run_cycles(2_000);
        2_000
    }
}

/// Which snapshot operation a [`SnapshotOp`] times.
#[derive(Clone, Copy)]
enum Op {
    Save,
    Restore,
    Digest,
}

/// `save_state` / `restore_state` / `state_digest` of a warmed-up
/// machine.
struct SnapshotOp {
    op: Op,
    sim: Simulation,
    state: Value,
}

impl Probe for SnapshotOp {
    fn step(&mut self) -> u64 {
        match self.op {
            Op::Save => {
                black_box(self.sim.save_state());
            }
            Op::Restore => self.sim.restore_state(&self.state).expect("restore"),
            Op::Digest => {
                black_box(self.sim.state_digest());
            }
        }
        1
    }
}

/// `snapfile::write` (serialize, checksum, fsync, rename) or
/// `snapfile::read` (read, verify, parse) of one deep-machine snapshot.
struct Snapfile {
    path: PathBuf,
    state: Option<Value>,
}

impl Probe for Snapfile {
    fn step(&mut self) -> u64 {
        match &self.state {
            Some(state) => snapfile::write(&self.path, state).expect("snapfile write"),
            None => {
                black_box(snapfile::read(&self.path).expect("snapfile read"));
            }
        }
        1
    }
}

/// `Scheduler::run_cells` on cells that do no work: the runner's own
/// per-cell cost (attempt thread, isolation, bookkeeping).
struct RunnerOverhead(Scheduler);

impl Probe for RunnerOverhead {
    fn step(&mut self) -> u64 {
        let cells: Vec<CellSpec<u64>> = (0..32u64)
            .map(|i| CellSpec::new(format!("noop-{i}"), move |_: &_| i))
            .collect();
        let report = self.0.run_cells(cells);
        assert!(report.failures().is_empty(), "no-op cells cannot fail");
        32
    }
}

/// Mean over the three Table 2 shapes of one snapshot operation, in ms.
fn snapshot_ms(op: Op) -> f64 {
    let total: f64 = table2::shapes()
        .into_iter()
        .map(|(_, cfg)| {
            let sim = warm_sim(cfg, Box::new(AlwaysHigh));
            let state = sim.save_state();
            measure(&mut SnapshotOp { op, sim, state }, BUDGET, 3)
        })
        .sum();
    total / 3.0 / 1e6
}

/// Mean encoded size of one snapshot over the three Table 2 shapes.
#[must_use]
pub fn snapshot_bytes() -> f64 {
    let total: usize = table2::shapes()
        .into_iter()
        .map(|(_, cfg)| {
            let state = warm_sim(cfg, Box::new(AlwaysHigh)).save_state();
            serde_json::to_string(&state).expect("encode").len()
        })
        .sum();
    total as f64 / 3.0
}

/// Runs every layer probe and returns its metrics. `scratch` is a
/// directory the snapfile probes may write into.
#[must_use]
pub fn run_all(scratch: &Path) -> Vec<Metric> {
    let stream = branch_stream();
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        eprintln!("  probe {name:<36} {value:>14.4} {unit}");
        out.push(Metric { name, value, unit });
    };

    let ns = measure(&mut UopGen(WorkloadGenerator::new(&wl("gcc"))), BUDGET, 3);
    put("workload.ns_per_uop", ns, "ns");
    let mut bare_pred = Predict {
        p: baseline_bimodal_gshare(),
        stream: stream.clone(),
    };
    put(
        "bpred.ns_per_branch",
        measure(&mut bare_pred, BUDGET, 3),
        "ns",
    );
    let mut perc = Estimate {
        e: PerceptronCe::new(PerceptronCeConfig::default()),
        stream: stream.clone(),
    };
    put(
        "core.perceptron_ns_per_branch",
        measure(&mut perc, BUDGET, 3),
        "ns",
    );
    let mut jrs = Estimate {
        e: jrs_lambda1(),
        stream: stream.clone(),
    };
    put("core.jrs_ns_per_branch", measure(&mut jrs, BUDGET, 3), "ns");

    let mut bare = Pair {
        p: baseline_bimodal_gshare(),
        e: jrs_lambda1(),
        stream: stream.clone(),
    };
    let fault = FaultConfig {
        rate: 1e-3,
        history_rate: 1e-3,
        seed: 0x11,
    };
    let mut wrapped = Pair {
        p: FaultyPredictor::new(baseline_bimodal_gshare(), &fault),
        e: FaultyEstimator::new(jrs_lambda1(), &FaultConfig::state_only(1e-3, 0x22)),
        stream,
    };
    put(
        "faults.wrap_ratio",
        measure_ratio(&mut wrapped, &mut bare, BUDGET, 5),
        "ratio",
    );
    let mut te = TraceEval {
        wl: wl(faults::BENCHMARKS[0]),
        scale: Scale::tiny(),
    };
    put(
        "common.trace_eval_ms",
        measure(&mut te, BUDGET, 3) / 1e6,
        "ms",
    );

    let shapes: [(&'static str, PipelineConfig, Box<dyn SimEstimator>); 4] = [
        (
            "pipeline.ns_per_uop.shallow",
            PipelineConfig::shallow(),
            Box::new(AlwaysHigh),
        ),
        (
            "pipeline.ns_per_uop.wide",
            PipelineConfig::wide(),
            Box::new(AlwaysHigh),
        ),
        (
            "pipeline.ns_per_uop.deep",
            PipelineConfig::deep(),
            Box::new(AlwaysHigh),
        ),
        (
            "pipeline.ns_per_uop.deep_gated",
            PipelineConfig::deep().gated(1),
            common::jrs(1),
        ),
    ];
    for (name, cfg, est) in shapes {
        put(
            name,
            measure(&mut Pipeline(warm_sim(cfg, est)), BUDGET, 3),
            "ns",
        );
    }
    let ratio = measure_ratio(&mut Batch::new(4), &mut Batch::new(1), BUDGET, 5);
    put("pipeline.batch4_ratio", ratio, "ratio");
    let sim = warm_sim(PipelineConfig::deep().gated(1), common::jrs(1));
    put(
        "pipeline.counters_us",
        measure(&mut Counters(sim), BUDGET, 3) / 1e3,
        "us",
    );
    let mut smt = SmtSimulation::with_defaults(
        PipelineConfig::deep(),
        FetchPolicy::RoundRobin,
        &wl("gcc"),
        &wl("mcf"),
    );
    smt.warmup_cycles(20_000);
    put(
        "pipeline.smt_ns_per_cycle",
        measure(&mut Smt(smt), BUDGET, 3),
        "ns",
    );

    put("snapshot.save_ms", snapshot_ms(Op::Save), "ms");
    put("snapshot.restore_ms", snapshot_ms(Op::Restore), "ms");
    put("snapshot.digest_ms", snapshot_ms(Op::Digest), "ms");
    put("snapshot.bytes", snapshot_bytes(), "bytes");

    let state = warm_sim(PipelineConfig::deep(), Box::new(AlwaysHigh)).save_state();
    let path = scratch.join("probe.psnap");
    let mut write = Snapfile {
        path: path.clone(),
        state: Some(state),
    };
    put(
        "snapfile.write_ms",
        measure(&mut write, BUDGET, 3) / 1e6,
        "ms",
    );
    let mut read = Snapfile { path, state: None };
    put(
        "snapfile.read_ms",
        measure(&mut read, BUDGET, 3) / 1e6,
        "ms",
    );

    let mut runner = RunnerOverhead(Scheduler::new(SchedulerConfig::for_run(1, None)));
    put(
        "runner.cell_overhead_ms",
        measure(&mut runner, BUDGET, 3) / 1e6,
        "ms",
    );
    out
}
