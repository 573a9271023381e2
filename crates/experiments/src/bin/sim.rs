//! `sim` — drive the pipeline simulator directly: pick a benchmark,
//! machine shape, predictor, estimator and speculation-control policy,
//! and get the full statistics report.
//!
//! ```text
//! sim --bench twolf --depth 40 --width 4 \
//!     --predictor bimodal-gshare --estimator perceptron --lambda 0 \
//!     --gate 1 --uops 500000 [--reverse 90] [--energy] [--density] [--out DIR]
//! ```

#![forbid(unsafe_code)]

use perconf_bpred::{baseline_bimodal_gshare, gshare_perceptron, tage_hybrid, SimPredictor};
use perconf_core::{
    AlwaysHigh, CombineRule, CompositeCe, JrsConfig, JrsEstimator, PerceptronCe,
    PerceptronCeConfig, PerceptronTnt, PerceptronTntConfig, SimEstimator, SmithCe,
    SpeculationController, TysonCe,
};
use perconf_experiments::exitcode as exit;
use perconf_pipeline::{EnergyModel, PipelineConfig, SimStats, Simulation};
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    bench: String,
    depth: u32,
    width: u32,
    predictor: String,
    estimator: String,
    lambda: i32,
    reverse: Option<i32>,
    gate: Option<u32>,
    ce_latency: u32,
    uops: u64,
    warmup: u64,
    energy: bool,
    density: bool,
    out: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            bench: "gcc".to_owned(),
            depth: 40,
            width: 4,
            predictor: "bimodal-gshare".to_owned(),
            estimator: "none".to_owned(),
            lambda: 0,
            reverse: None,
            gate: None,
            ce_latency: 1,
            uops: 400_000,
            warmup: 150_000,
            energy: false,
            density: false,
            out: None,
        }
    }
}

const USAGE: &str = "usage: sim [--bench NAME] [--depth N] [--width N] [--predictor P] \
     [--estimator E] [--lambda N] [--reverse N] [--gate PLn] [--ce-latency N] \
     [--uops N] [--warmup N] [--energy] [--density] [--out DIR]";

/// The parsed command line, or `None` when it asks for `--help`.
fn parse() -> Result<Option<Options>, String> {
    let mut o = Options::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--bench" => o.bench = val("--bench")?,
            "--depth" => o.depth = val("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--width" => o.width = val("--width")?.parse().map_err(|e| format!("{e}"))?,
            "--predictor" => o.predictor = val("--predictor")?,
            "--estimator" => o.estimator = val("--estimator")?,
            "--lambda" => o.lambda = val("--lambda")?.parse().map_err(|e| format!("{e}"))?,
            "--reverse" => {
                o.reverse = Some(val("--reverse")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--gate" => o.gate = Some(val("--gate")?.parse().map_err(|e| format!("{e}"))?),
            "--ce-latency" => {
                o.ce_latency = val("--ce-latency")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--uops" => o.uops = val("--uops")?.parse().map_err(|e| format!("{e}"))?,
            "--warmup" => o.warmup = val("--warmup")?.parse().map_err(|e| format!("{e}"))?,
            "--energy" => o.energy = true,
            "--density" => o.density = true,
            "--out" => o.out = Some(val("--out")?.into()),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Some(o))
}

fn build_predictor(name: &str) -> Result<Box<dyn SimPredictor>, String> {
    Ok(match name {
        "bimodal-gshare" => Box::new(baseline_bimodal_gshare()),
        "gshare-perceptron" => Box::new(gshare_perceptron()),
        "tage" => Box::new(tage_hybrid()),
        other => {
            return Err(format!(
                "unknown predictor {other} (bimodal-gshare | gshare-perceptron | tage)"
            ))
        }
    })
}

fn build_estimator(o: &Options) -> Result<Box<dyn SimEstimator>, String> {
    let perceptron_cfg = PerceptronCeConfig {
        lambda: o.lambda,
        reverse_lambda: o.reverse,
        ..PerceptronCeConfig::default()
    };
    Ok(match o.estimator.as_str() {
        "none" => Box::new(AlwaysHigh),
        "perceptron" => Box::new(PerceptronCe::new(perceptron_cfg)),
        "jrs" => Box::new(JrsEstimator::new(JrsConfig {
            lambda: u8::try_from(o.lambda.clamp(0, 15)).expect("clamped"),
            ..JrsConfig::default()
        })),
        "tnt" => Box::new(PerceptronTnt::new(PerceptronTntConfig {
            lambda: o.lambda,
            ..PerceptronTntConfig::default()
        })),
        "smith" => Box::new(SmithCe::new(13, 2)),
        "tyson" => Box::new(TysonCe::new(12, 8)),
        "composite-both" => Box::new(CompositeCe::new(
            PerceptronCe::new(perceptron_cfg),
            JrsEstimator::new(JrsConfig::default()),
            CombineRule::Both,
        )),
        "composite-either" => Box::new(CompositeCe::new(
            PerceptronCe::new(perceptron_cfg),
            JrsEstimator::new(JrsConfig::default()),
            CombineRule::Either,
        )),
        other => {
            return Err(format!(
                "unknown estimator {other} (none | perceptron | jrs | tnt | smith | tyson | composite-both | composite-either)"
            ))
        }
    })
}

fn report(stats: &SimStats, o: &Options) {
    let f = |name: &str, v: String| println!("{name:<28} {v}");
    f("cycles", stats.cycles.to_string());
    f("retired uops", stats.retired.to_string());
    f("IPC", format!("{:.3}", stats.ipc()));
    f(
        "fetched (correct / wrong)",
        format!("{} / {}", stats.fetched_correct, stats.fetched_wrong),
    );
    f(
        "executed (correct / wrong)",
        format!("{} / {}", stats.executed_correct, stats.executed_wrong),
    );
    f("branches retired", stats.branches_retired.to_string());
    f(
        "mispredicts (base / final)",
        format!(
            "{} / {}",
            stats.base_mispredicts, stats.speculated_mispredicts
        ),
    );
    f("MPKu", format!("{:.2}", stats.mpku()));
    f("squashes", stats.squashes.to_string());
    f("gated cycles", stats.gated_cycles.to_string());
    if stats.reversals > 0 {
        f(
            "reversals (good / bad)",
            format!("{} / {}", stats.reversals_good, stats.reversals_bad),
        );
    }
    if o.estimator != "none" {
        f(
            "estimator PVN",
            format!("{:.1}%", stats.confusion.pvn() * 100.0),
        );
        f(
            "estimator Spec",
            format!("{:.1}%", stats.confusion.spec() * 100.0),
        );
    }
    if o.energy {
        let e = EnergyModel::default().evaluate(stats);
        f("energy (arbitrary units)", format!("{:.0}", e.total));
        f("wasted energy", format!("{:.1}%", e.wasted_frac() * 100.0));
    }
}

fn run(o: &Options) -> Result<(), String> {
    let wl = perconf_workload::spec2000_config(&o.bench)
        .ok_or_else(|| format!("unknown benchmark {}", o.bench))?;
    let mut cfg = PipelineConfig::with_depth_width(o.depth, o.width);
    if let Some(pl) = o.gate {
        cfg = cfg.gated(pl).with_ce_latency(o.ce_latency);
    }
    if o.density {
        cfg = cfg.with_density(-350, 260, 10);
    }
    let ctl = SpeculationController::new(build_predictor(&o.predictor)?, build_estimator(o)?);
    let mut sim = Simulation::new(cfg, &wl, ctl);
    sim.warmup(o.warmup);
    sim.run(o.uops);
    let stats = sim.stats().clone();

    println!(
        "perconf sim: {} on {}c/{}w, predictor {}, estimator {}{}\n",
        o.bench,
        o.depth,
        o.width,
        o.predictor,
        o.estimator,
        o.gate.map_or(String::new(), |g| format!(" (gated PL{g})"))
    );
    report(&stats, o);

    if o.density {
        if let Some(d) = &stats.density {
            println!("\nestimator output density:\n{}", d.to_ascii(36));
            if let Some(dir) = &o.out {
                std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                let svg = perconf_metrics::svg::density_svg(d, "estimator output density");
                write_staged(&dir.join("density.svg"), svg.as_bytes())?;
                write_staged(&dir.join("density.csv"), d.to_csv().as_bytes())?;
                println!("wrote density.svg / density.csv to {}", dir.display());
            }
        }
    }
    Ok(())
}

/// Writes an artifact atomically, so an interrupted run never leaves
/// a torn file at the final path.
fn write_staged(path: &std::path::Path, bytes: &[u8]) -> Result<(), String> {
    perconf_bpred::atomic_write(path, &[bytes], true)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let o = match parse() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(exit::USAGE);
        }
    };
    match run(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(exit::FAILURE)
        }
    }
}
