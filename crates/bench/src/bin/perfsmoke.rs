//! `perfsmoke` — the CI perf-gating lane.
//!
//! ```text
//! perfsmoke [--out <file>] [--baseline <file>] [--runs <k>]
//! perfsmoke --write-baseline [--baseline <file>] [--runs <k>]
//! ```
//!
//! Runs a small fixed set of wall-clock probes (best-of-`k`, default
//! 9), writes the measurements to `--out` (default `BENCH_ci.json`,
//! uploaded as a CI artifact) and compares every **`sim/` probe** —
//! the plain, faults-wrapped, and counters-enabled cycle-loop paths —
//! against the checked-in baseline (default
//! `results/BENCH_baseline.json`). Exits non-zero when any gated
//! probe regresses more than 10%.
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
//! The default build compiles the event tracer out, so the pipeline
//! probe here is the *tracing-disabled* number — the one the
//! zero-overhead contract is about.

#![forbid(unsafe_code)]
// Wall-clock probes are this binary's whole purpose.
#![allow(clippy::disallowed_methods)]

use perconf_pipeline::{PipelineConfig, Simulation};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Allowed relative regression of a gated probe before CI fails.
const THRESHOLD: f64 = 0.10;

/// The probe that must exist in every baseline; the gate additionally
/// covers any other `sim/` probe present in both the run and the
/// baseline (the faults-wrapped and counters-enabled cycle-loop paths,
/// so the zero-overhead claims stay pinned as the layout changes).
const GATED: &str = "sim/cycle-throughput-20k";

/// Probes whose names start with this prefix are gated when the
/// baseline has them too.
const GATED_PREFIX: &str = "sim/";

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

/// One timed pass of `f`, in seconds.
fn time_once<F: FnMut()>(f: &mut F) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Measures everything together, *interleaved*: each round times the
/// calibration loop then every probe once, and each keeps its
/// best-of-rounds minimum. Interleaving means the calibration and the
/// probes sample the same wall-clock window, so transient co-tenant
/// interference (common on shared CI runners) inflates both and mostly
/// cancels out of the normalized ratio; the minimum then discards any
/// round that was hit anyway.
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

    let wl = perconf_workload::spec2000_config("gcc").expect("gcc workload");
    let mut sim_probe = || {
        let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &wl);
        black_box(sim.run(20_000).cycles);
    };
    // The faults-wrapped cycle loop: both structures behind bit-upset
    // wrappers, the configuration every `repro faults` cell runs. The
    // wrappers sit on the table-walk path, so layout changes that help
    // the plain loop but regress the wrapped one show up here.
    let mut faulted_probe = || {
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
        let mut sim = Simulation::new(PipelineConfig::deep().gated(1), &wl, ctl);
        black_box(sim.run(20_000).cycles);
    };
    // The counters-enabled cycle loop: runtime tracing switched on (a
    // ZST no-op unless built with the `trace` feature — this probe
    // times the *default-build* zero-overhead path CI actually gates)
    // plus the on-demand `CounterSnapshot` materialisation every sweep
    // cell performs.
    let mut counters_probe = || {
        use perconf_obs::{TraceLevel, Tracer};
        let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &wl);
        let tracer = Tracer::new();
        tracer.set_level(TraceLevel::Standard);
        sim.set_tracer(tracer);
        black_box(sim.run(20_000).cycles);
        black_box(sim.counters());
    };
    let mut pred_probe = || {
        use perconf_bpred::BranchPredictor;
        let mut p = perconf_bpred::baseline_bimodal_gshare();
        for i in 0..10_000u64 {
            let pc = (i * 29) % 4096 * 4;
            let hist = i.wrapping_mul(0x9E37_79B9);
            let pred = p.predict(pc, hist);
            p.train(pc, hist, pred ^ (i % 7 == 0));
        }
        black_box(&p);
    };
    let mut est_probe = || {
        use perconf_core::ConfidenceEstimator;
        let mut ce = perconf_core::PerceptronCe::new(perconf_core::PerceptronCeConfig::default());
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
    };

    // Untimed warm-up pass of everything.
    cal();
    sim_probe();
    faulted_probe();
    counters_probe();
    pred_probe();
    est_probe();

    let mut cal_best = f64::INFINITY;
    let mut best = [f64::INFINITY; 5];
    for _ in 0..runs.max(1) {
        cal_best = cal_best.min(time_once(&mut cal));
        best[0] = best[0].min(time_once(&mut sim_probe));
        best[1] = best[1].min(time_once(&mut faulted_probe));
        best[2] = best[2].min(time_once(&mut counters_probe));
        best[3] = best[3].min(time_once(&mut pred_probe));
        best[4] = best[4].min(time_once(&mut est_probe));
    }
    black_box(acc);

    let names = [
        GATED,
        "sim/cycle-throughput-faulted-20k",
        "sim/cycle-throughput-counters-20k",
        "predictor/hybrid-10k",
        "estimator/perceptron-ce-10k",
    ];
    Report {
        calibration_secs: cal_best,
        probes: names
            .iter()
            .zip(best)
            .map(|(name, secs)| Probe {
                name: (*name).to_owned(),
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

fn run() -> Result<(), String> {
    let mut out = PathBuf::from("BENCH_ci.json");
    let mut baseline = PathBuf::from("results/BENCH_baseline.json");
    let mut write_baseline = false;
    let mut runs = 9u32;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a file")?),
            "--baseline" => baseline = PathBuf::from(it.next().ok_or("--baseline needs a file")?),
            "--write-baseline" => write_baseline = true,
            "--runs" => {
                runs = it
                    .next()
                    .ok_or("--runs needs a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown argument: {other}\nusage: perfsmoke [--out <file>] [--baseline <file>] [--write-baseline] [--runs <k>]"
                ))
            }
        }
    }

    let report = measure(runs);
    eprintln!("calibration: {:.3} ms", report.calibration_secs * 1e3);
    for p in &report.probes {
        eprintln!(
            "  {:<32} {:>9.3} ms  (normalized {:.2})",
            p.name,
            p.secs * 1e3,
            p.normalized
        );
    }

    if write_baseline {
        write_json(&baseline, &report)?;
        eprintln!("baseline -> {}", baseline.display());
        return Ok(());
    }

    write_json(&out, &report)?;
    eprintln!("report -> {}", out.display());

    let base_body = std::fs::read_to_string(&baseline).map_err(|e| {
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
        .filter(|p| p.name.starts_with(GATED_PREFIX))
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
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
