//! `perfsmoke` — the workspace's timing harness and CI's perf gate.
//!
//! ```text
//! perfsmoke [--out <file>] [--baseline <file>] [--runs <k>]
//! perfsmoke --write-baseline [--baseline <file>] [--runs <k>]
//! ```
//!
//! Times one table of named wall-clock probes (best-of-`k`, default 9)
//! and writes every measurement to `--out` (default `BENCH_ci.json`,
//! uploaded as a CI artifact). The probes whose names start with
//! `sim/`, `snapshot/` or `trace/` are **gated**: the plain,
//! faults-wrapped and counters-enabled cycle loops from a cold machine,
//! the gated deep JRS machine every JRS fault cell runs (warmup and
//! run, mostly idle cycles), a deep machine's state rendered as
//! checkpoint JSON and parsed and restored, and one shared trace-level
//! pass training four fault-wrapped pairs as a batched fault sweep runs
//! them. Each is compared against the checked-in baseline (default
//! `results/BENCH_baseline.json`). Every other probe is a **ledger
//! entry**, reported and written but never gated: the gshare,
//! perceptron and hybrid predictors, the perceptron CE and JRS
//! estimators, `WorkloadGenerator::next_uop`, L1 cache access, and the
//! observability layer (the cycle loop with tracer and profiler both
//! live, tracer `record`, a profiler scope off and on, and
//! `Simulation::counters`).
//!
//! Exits 0 when the gate passes, 1 when a gated probe regresses more
//! than 10% (or on an I/O error), and 2 on a usage error: an unknown
//! flag or a refused value prints the usage to stderr and runs no
//! probe. `--help` prints the usage and exits 0.
//!
//! Raw wall-clock numbers are not comparable across machines, so every
//! probe is *normalized* by a pure-CPU calibration loop measured in the
//! same process: `normalized = probe_secs / calibration_secs`. The
//! gate compares normalized values, which makes the checked-in baseline
//! portable across CI runner generations (it cancels the machine's
//! scalar speed, not its microarchitectural quirks — hence the generous
//! 10% threshold and best-of-k minimum to reject scheduler noise).
//!
//! Regenerating the baseline (after an intentional perf change, on a
//! quiet machine):
//!
//! ```text
//! cargo run --release -p perconf-bench --bin perfsmoke -- --write-baseline
//! ```
//!
//! Every build carries the event tracer, gated at runtime. The plain
//! and faults-wrapped pipeline probes run with it off, so each trace
//! guard costs one atomic load; the counters probe records live at
//! `Standard` level.

#![forbid(unsafe_code)]
// Wall-clock probes are this binary's whole purpose.
#![allow(clippy::disallowed_methods)]

use perconf_bpred::{BranchPredictor, Snapshot};
use perconf_core::ConfidenceEstimator;
use perconf_experiments::common::{controller, jrs, trace_eval_each, PredictorKind, TracePair};
use perconf_experiments::exitcode;
use perconf_pipeline::obs::{Profiler, TraceEvent, TraceLevel, Tracer};
use perconf_pipeline::{PipelineConfig, Simulation};
use perconf_workload::WorkloadConfig;
use serde::{Deserialize, Serialize, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Allowed relative regression of a gated probe before CI fails.
const THRESHOLD: f64 = 0.10;

/// The probe that must exist in every baseline; the gate additionally
/// covers any other `sim/`, `snapshot/` or `trace/` probe present in
/// both the run and the baseline.
const GATED: &str = "sim/cycle-throughput-20k";

/// Probes whose names start with one of these prefixes are gated when
/// the baseline has them too.
const GATED_PREFIXES: [&str; 3] = ["sim/", "snapshot/", "trace/"];

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Probe {
    name: String,
    /// Best-of-k wall seconds for one probe pass.
    secs: f64,
    /// `secs / calibration_secs` — the machine-portable number.
    normalized: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Report {
    /// Best-of-k wall seconds of the calibration loop.
    calibration_secs: f64,
    probes: Vec<Probe>,
}

impl Report {
    fn probe(&self, name: &str) -> Option<&Probe> {
        self.probes.iter().find(|p| p.name == name)
    }
}

/// One row of the probe table: a name, and one pass of the work it
/// times.
type Pass<'a> = (&'static str, Box<dyn FnMut() + 'a>);

fn pass<'a>(name: &'static str, f: impl FnMut() + 'a) -> Pass<'a> {
    (name, Box::new(f))
}

/// One timed pass of `f`, in seconds.
fn time_once(f: &mut dyn FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// 10,000 predict-and-train steps on `p`, every seventh trained
/// against its own prediction.
fn train_predictor(mut p: impl BranchPredictor) {
    for i in 0..10_000u64 {
        let pc = (i * 29) % 4096 * 4;
        let hist = i.wrapping_mul(0x9E37_79B9);
        let pred = p.predict(pc, hist);
        p.train(pc, hist, pred ^ (i % 7 == 0));
    }
    black_box(&p);
}

/// 10,000 estimate-and-train steps on `ce`, every eleventh a
/// misprediction.
fn train_estimator(mut ce: impl ConfidenceEstimator) {
    for i in 0..10_000u64 {
        let ctx = perconf_core::EstimateCtx {
            pc: (i * 29) % 4096 * 4,
            history: i.wrapping_mul(0x9E37_79B9),
            predicted_taken: i % 3 == 0,
        };
        let est = ce.estimate(&ctx);
        ce.train(&ctx, est, i % 11 == 0);
    }
    black_box(&ce);
}

/// A tracer recording at `Standard` level.
fn live_tracer() -> Tracer {
    let tracer = Tracer::new();
    tracer.set_level(TraceLevel::Standard);
    tracer
}

/// A profiler, switched on or off.
fn profiler(on: bool) -> Profiler {
    let profiler = Profiler::default();
    profiler.enable(on);
    profiler
}

/// A probe pass opening and closing 10,000 scopes of `profiler`.
fn scopes(profiler: Profiler) -> impl FnMut() {
    move || {
        for _ in 0..10_000 {
            let _s = profiler.scope("bench/span");
        }
        black_box(profiler.enabled());
    }
}

/// The machine every JRS fault cell runs: the deep pipeline gated at
/// PL1 behind the baseline predictor and the JRS estimator at λ = 1.
fn gated_jrs(wl: &WorkloadConfig) -> Simulation {
    Simulation::new(
        PipelineConfig::deep().gated(1),
        wl,
        controller(PredictorKind::BimodalGshare, jrs(1)),
    )
}

/// Measures everything together, *interleaved*: each round times the
/// calibration loop then every probe once, and each keeps its
/// best-of-rounds minimum. Interleaving means the calibration and the
/// probes sample the same wall-clock window, so transient co-tenant
/// interference (common on shared CI runners) inflates both and mostly
/// cancels out of the normalized ratio; the minimum then discards any
/// round that was hit anyway.
///
/// The predictor and estimator probes train a fresh structure each
/// pass; the generator, cache, tracer, profiler and counters probes
/// keep theirs across passes, so they time the steady state.
fn measure(runs: u32) -> Report {
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
    let mut acc = 0u64;
    // Pure-CPU calibration loop: FNV-hash a 1 MiB buffer 16 times. No
    // allocation, no branchy simulation — just a stable scalar
    // workload that tracks the machine's single-thread speed.
    let mut cal = || {
        for _ in 0..16 {
            acc = acc.wrapping_add(perconf_bpred::digest_bytes(&buf));
        }
    };

    let gcc = perconf_workload::spec2000_config("gcc").expect("gcc workload");
    let mcf = perconf_workload::spec2000_config("mcf").expect("mcf workload");
    // A warmed deep gated JRS machine's state (~0.73 MB of JSON), for
    // the snapshot probes.
    let warm_machine = || {
        let mut sim = gated_jrs(&gcc);
        sim.warmup(20_000);
        sim
    };

    let mut probes: Vec<Pass<'_>> = vec![
        pass(GATED, || {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &gcc);
            black_box(sim.run(20_000).cycles);
        }),
        // The faults-wrapped cycle loop: both structures behind
        // bit-upset wrappers. The wrappers sit on the table-walk path,
        // so layout changes that help the plain loop but regress the
        // wrapped one show up here.
        pass("sim/cycle-throughput-faulted-20k", || {
            use perconf_bpred::SimPredictor;
            use perconf_core::{SimEstimator, SpeculationController};
            use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
            let cfg_p = FaultConfig {
                rate: 1e-4,
                history_rate: 1e-4,
                seed: 0x11,
            };
            let cfg_e = FaultConfig::state_only(1e-4, 0x22);
            let ctl = SpeculationController::new(
                Box::new(FaultyPredictor::new(
                    perconf_bpred::baseline_bimodal_gshare(),
                    &cfg_p,
                )) as Box<dyn SimPredictor>,
                Box::new(FaultyEstimator::new(
                    Box::new(perconf_core::PerceptronCe::new(
                        perconf_core::PerceptronCeConfig::default(),
                    )),
                    &cfg_e,
                )) as Box<dyn SimEstimator>,
            );
            let mut sim = Simulation::new(PipelineConfig::deep().gated(1), &gcc, ctl);
            black_box(sim.run(20_000).cycles);
        }),
        // The counters-enabled cycle loop: event tracing live at
        // `Standard` level (every resolved branch pushed into the ring)
        // plus the on-demand `CounterSnapshot` materialisation every
        // sweep cell performs.
        pass("sim/cycle-throughput-counters-20k", || {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &gcc);
            sim.set_tracer(live_tracer());
            black_box(sim.run(20_000).cycles);
            black_box(sim.counters());
        }),
        // A JRS fault cell's machine on mcf, warmup and run from a
        // fresh machine. Gating stalls it in most of its cycles, so
        // this is the probe that sees `try_run` skipping idle ones.
        pass("sim/gated-jrs-mcf-20k+20k", || {
            let mut sim = gated_jrs(&mcf);
            sim.warmup(20_000);
            black_box(sim.run(20_000).cycles);
        }),
        // The snapshot path of every persisted checkpoint, minus the
        // disk so fsync noise stays out.
        pass("snapshot/save-render-deep", {
            let saved = warm_machine();
            move || {
                let text = serde_json::to_string(&saved.save_state()).expect("render snapshot");
                black_box(text.len());
            }
        }),
        pass("snapshot/parse-restore-deep", {
            let text =
                serde_json::to_string(&warm_machine().save_state()).expect("render snapshot");
            let mut restored = warm_machine();
            move || {
                let state: Value = serde_json::from_str(&text).expect("parse snapshot");
                restored.restore_state(&state).expect("restore snapshot");
            }
        }),
        // The shared trace-level pass of a batched fault sweep: four
        // fault-wrapped (bimodal-gshare, perceptron) pairs, one per
        // rate, trained by one generator pass over gcc.
        pass("trace/shared-pass-4", || {
            use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
            let mut pairs: Vec<_> = [0.0, 1e-4, 1e-3, 1e-2]
                .iter()
                .map(|&rate| {
                    let cfg_p = FaultConfig {
                        rate,
                        history_rate: rate,
                        seed: 0x11,
                    };
                    (
                        FaultyPredictor::new(perconf_bpred::baseline_bimodal_gshare(), &cfg_p),
                        FaultyEstimator::new(
                            perconf_core::PerceptronCe::new(
                                perconf_core::PerceptronCeConfig::default(),
                            ),
                            &FaultConfig::state_only(rate, 0x22),
                        ),
                    )
                })
                .collect();
            let mut shared: Vec<TracePair<'_>> =
                pairs.iter_mut().map(|(p, e)| (p as _, e as _)).collect();
            black_box(trace_eval_each(&gcc, &mut shared, 2_000, 8_000));
        }),
        // The ledger: reported, never gated.
        pass("workload/next-uop-10k", {
            let mut gen = perconf_workload::WorkloadGenerator::new(&gcc);
            move || {
                for _ in 0..10_000 {
                    black_box(gen.next_uop());
                }
            }
        }),
        pass("predictor/gshare-10k", || {
            train_predictor(perconf_bpred::Gshare::new(16, 8));
        }),
        pass("predictor/perceptron-10k", || {
            train_predictor(perconf_bpred::PerceptronPredictor::new(128, 32));
        }),
        pass("predictor/hybrid-10k", || {
            train_predictor(perconf_bpred::baseline_bimodal_gshare());
        }),
        pass("estimator/perceptron-ce-10k", || {
            train_estimator(perconf_core::PerceptronCe::new(
                perconf_core::PerceptronCeConfig::default(),
            ));
        }),
        pass("estimator/jrs-10k", || {
            train_estimator(perconf_core::JrsEstimator::new(
                perconf_core::JrsConfig::default(),
            ));
        }),
        pass("cache/l1-access-10k", {
            let mut l1 = perconf_pipeline::Cache::new(perconf_pipeline::CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 8,
                line_bytes: 64,
            });
            move || {
                for i in 0..10_000u64 {
                    black_box(l1.access((i * 97) % 65_536));
                }
            }
        }),
        // The whole observability stack live: the gap to
        // `sim/cycle-throughput-20k` is its total cost.
        pass("obs/cycle-throughput-observed-20k", || {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &gcc);
            sim.set_tracer(live_tracer());
            sim.set_profiler(profiler(true));
            black_box(sim.run(20_000).cycles);
        }),
        // A live `record`: the level check and the ring-buffer push.
        pass("obs/tracer-record-10k", {
            let tracer = live_tracer();
            move || {
                for i in 0..10_000u64 {
                    tracer.record(TraceEvent::BranchResolved {
                        cycle: i,
                        pc: i * 4,
                        mispredicted: i % 7 == 0,
                    });
                }
                black_box(tracer.enabled());
            }
        }),
        // Off, a scope is one relaxed atomic load; on, it adds two
        // clock reads and a map update.
        pass("obs/profiler-scope-off-10k", scopes(profiler(false))),
        pass("obs/profiler-scope-on-10k", scopes(profiler(true))),
        // Counters are materialised on demand, never maintained in the
        // cycle loop.
        pass("obs/counters-snapshot-100", {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &gcc);
            sim.run(2_000);
            move || {
                for _ in 0..100 {
                    black_box(sim.counters());
                }
            }
        }),
    ];

    // Untimed warm-up pass of everything.
    cal();
    for (_, f) in &mut probes {
        f();
    }

    let mut cal_best = f64::INFINITY;
    let mut best = vec![f64::INFINITY; probes.len()];
    for _ in 0..runs.max(1) {
        cal_best = cal_best.min(time_once(&mut cal));
        for ((_, f), best) in probes.iter_mut().zip(&mut best) {
            *best = best.min(time_once(f));
        }
    }
    black_box(acc);

    Report {
        calibration_secs: cal_best,
        probes: probes
            .iter()
            .zip(best)
            .map(|(&(name, _), secs)| Probe {
                name: name.to_owned(),
                secs,
                normalized: secs / cal_best,
            })
            .collect(),
    }
}

fn write_json(path: &Path, report: &Report) -> Result<(), String> {
    let body =
        serde_json::to_string_pretty(report).map_err(|e| format!("cannot serialize: {e}"))?;
    perconf_bpred::atomic_write(path, &[body.as_bytes()], true)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

const USAGE: &str =
    "usage: perfsmoke [--out <file>] [--baseline <file>] [--write-baseline] [--runs <k>]";

/// What the command line asks for.
struct Args {
    out: PathBuf,
    baseline: PathBuf,
    write_baseline: bool,
    runs: u32,
}

/// The value after `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the command line. `Ok(None)` means `--help` printed the
/// usage; an `Err` is a usage error that names the flag.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        out: PathBuf::from("BENCH_ci.json"),
        baseline: PathBuf::from("results/BENCH_baseline.json"),
        write_baseline: false,
        runs: 9,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = value(&mut it, "--out")?.into(),
            "--baseline" => args.baseline = value(&mut it, "--baseline")?.into(),
            "--write-baseline" => args.write_baseline = true,
            "--runs" => {
                let v = value(&mut it, "--runs")?;
                args.runs = v
                    .parse()
                    .map_err(|_| format!("--runs needs a count, not {v:?}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(args))
}

fn run(args: &Args) -> Result<(), String> {
    let report = measure(args.runs);
    eprintln!("calibration: {:.3} ms", report.calibration_secs * 1e3);
    for p in &report.probes {
        eprintln!(
            "  {:<34} {:>9.3} ms  (normalized {:.4})",
            p.name,
            p.secs * 1e3,
            p.normalized
        );
    }

    if args.write_baseline {
        write_json(&args.baseline, &report)?;
        eprintln!("baseline -> {}", args.baseline.display());
        return Ok(());
    }

    write_json(&args.out, &report)?;
    eprintln!("report -> {}", args.out.display());

    let baseline = &args.baseline;
    let base_body = std::fs::read_to_string(baseline).map_err(|e| {
        format!(
            "cannot read baseline {}: {e}\nregenerate it with: cargo run --release -p perconf-bench --bin perfsmoke -- --write-baseline",
            baseline.display()
        )
    })?;
    let base: Report = serde_json::from_str(&base_body)
        .map_err(|e| format!("malformed baseline {}: {e}", baseline.display()))?;

    base.probe(GATED).ok_or_else(|| {
        format!(
            "probe {GATED} missing from baseline {} — regenerate it",
            baseline.display()
        )
    })?;
    let mut failed = Vec::new();
    for now in report
        .probes
        .iter()
        .filter(|p| GATED_PREFIXES.iter().any(|pre| p.name.starts_with(pre)))
    {
        // A probe absent from the baseline is newly added: report it,
        // gate it once the baseline is regenerated.
        let Some(was) = base.probe(&now.name) else {
            eprintln!("gate {}: not in baseline, skipped", now.name);
            continue;
        };
        let ratio = now.normalized / was.normalized;
        eprintln!(
            "gate {}: normalized {:.2} vs baseline {:.2} (x{ratio:.3}, threshold x{:.3})",
            now.name,
            now.normalized,
            was.normalized,
            1.0 + THRESHOLD
        );
        if ratio > 1.0 + THRESHOLD {
            failed.push(format!(
                "{} is {:.1}% slower than the baseline (limit {:.0}%)",
                now.name,
                (ratio - 1.0) * 100.0,
                THRESHOLD * 100.0
            ));
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "performance gate failed: {}. \
             If this slowdown is intentional, regenerate the baseline: \
             cargo run --release -p perconf-bench --bin perfsmoke -- --write-baseline",
            failed.join("; ")
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(exitcode::USAGE);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
