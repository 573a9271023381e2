//! `perfbench` — layered host-time benchmark of the perconf stack.
//!
//! ```text
//! perfbench --workload <table2|faults-b4|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs timed passes for `--seconds`, each preceded
//! by extra timed set-ups and followed by repeats of its requests
//! against their stored results, checks every output, and prints the
//! end-to-end metrics, rescaled to the reference speed of
//! [`harness::Calibrator`]. With `--trace 1` it runs one untraced and one
//! traced pass (the process-wide profiler switched on) plus every layer
//! probe, and prints the per-layer metrics. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Progress goes to stderr. Scratch files live under
//! `.perfbench_work/` in the working directory and are removed on exit.
//! `METRICS.md` beside this crate defines every metric.

#![forbid(unsafe_code)]
// Wall-clock timing is this binary's whole purpose; nothing it measures
// feeds a simulated result.
#![allow(clippy::disallowed_methods)]

mod check;
mod harness;
mod probes;
mod serve_mix;
mod workloads;

use harness::{median, quantile, speed, Calibrator};
use perconf_experiments::common;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{FaultsWorkload, Pass, Table2Workload, Workload};

/// Set-ups timed before each pass, between two calibration samples.
const SETUP_REPS: usize = 8;

/// Names the benchmark accepts for `--workload`.
const WORKLOADS: [&str; 3] = ["table2", "faults-b4", "serve-mix"];

const USAGE: &str =
    "usage: perfbench --workload <table2|faults-b4|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(format!("unknown workload {value}")),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => trace = Some(num()? != 0),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if another run still uses it.
        let _ = std::fs::remove_dir(Path::new(".perfbench_work"));
    }
}

fn workload(name: &str, seed: u64, work: &Path) -> Box<dyn Workload> {
    match name {
        "table2" => Box::new(Table2Workload::new(seed, None)),
        "faults-b4" => Box::new(FaultsWorkload::new(seed)),
        _ => Box::new(serve_mix::ServeMix::new(seed, work, false)),
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Set-up plus one pass.
fn setup_and_pass(wl: &mut dyn Workload) -> Result<Pass, String> {
    wl.setup()?;
    let pass = wl.pass();
    wl.teardown();
    pass
}

/// Checked outcome of a run: operations attempted and failed.
struct Outcome {
    attempted: u64,
    failed: u64,
}

/// Checks every operation of `passes` against the workload's expected
/// outputs (derived from the first pass and independent references).
fn check_outputs(wl: &mut dyn Workload, passes: &[&Pass]) -> Result<Outcome, String> {
    let expected = wl.expected(passes[0])?;
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
    };
    for p in passes {
        let wrong = check::mismatches(&p.outputs, &expected);
        let missing = p.attempted - p.outputs.len() as u64;
        out.attempted += p.attempted;
        out.failed += wrong + missing;
    }
    Ok(out)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, work: &Path) -> Result<(Outcome, Vec<Metric>), String> {
    let mut wl = workload(&args.workload, args.seed, work);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut hits = Vec::new();
    let stored = work.join("stored");
    // Set-ups and repeat requests are spread over the whole run, like
    // the passes, so every metric samples the same stretch of machine
    // time.
    let mut cal = Calibrator::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < Duration::from_secs(args.seconds) {
        // Flush the previous pass's file writes first, so that the timed
        // set-ups do not absorb their write-back.
        let _ = std::process::Command::new("sync").status();
        let mut times = Vec::new();
        let before = cal.sample();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            wl.setup()?;
            times.push(t.elapsed().as_secs_f64());
            wl.teardown();
        }
        let k = speed(before, cal.sample());
        setups.extend(times.iter().map(|s| s * k));
        let pass = setup_and_pass(wl.as_mut())?;
        eprintln!(
            "  pass {}: {:.3} s, {:.3} s at reference speed",
            passes.len() + 1,
            pass.wall_s,
            pass.ref_wall_s
        );
        passes.push(pass);
        let repeats = wl.hits(&stored)?;
        if !repeats.hit_ms.is_empty() {
            eprintln!(
                "  repeats: {} hits, p50 {:.4} ms",
                repeats.hit_ms.len(),
                median(&repeats.hit_ms)
            );
        }
        hits.push(repeats);
    }
    let all: Vec<&Pass> = passes.iter().chain(&hits).collect();
    let outcome = check_outputs(wl.as_mut(), &all)?;
    let walls: Vec<f64> = passes.iter().map(|p| p.ref_wall_s).collect();
    let misses: Vec<f64> = all.iter().flat_map(|p| p.miss_ms.iter().copied()).collect();
    let hit_ms: Vec<f64> = all.iter().flat_map(|p| p.hit_ms.iter().copied()).collect();
    eprintln!(
        "  {} passes, {} miss and {} hit samples",
        passes.len(),
        misses.len(),
        hit_ms.len()
    );
    let metrics = vec![
        Metric {
            name: "wall_s",
            value: median(&walls),
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb()?,
            unit: "MB",
        },
        Metric {
            name: "miss_p50_ms",
            value: quantile(&misses, 0.5),
            unit: "ms",
        },
        Metric {
            name: "hit_p50_ms",
            value: quantile(&hit_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "hit_p90_ms",
            value: quantile(&hit_ms, 0.9),
            unit: "ms",
        },
    ];
    Ok((outcome, metrics))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, work: &Path) -> Result<(Outcome, Vec<Metric>), String> {
    let mut wl = workload(&args.workload, args.seed, work);
    let untraced = setup_and_pass(wl.as_mut())?;
    let profiler = common::profiler();
    profiler.reset();
    profiler.enable(true);
    let traced = setup_and_pass(wl.as_mut());
    profiler.enable(false);
    let traced = traced?;
    let report = profiler.report();
    eprintln!("{}", report.render());
    let outcome = check_outputs(wl.as_mut(), &[&untraced, &traced])?;

    let row = |name: &str| report.rows.iter().find(|r| r.name == name);
    let self_share = |name: &str| ratio(row(name).map_or(0.0, |r| r.self_s), traced.wall_s);
    let attributed: f64 = report.rows.iter().map(|r| r.self_s).sum();
    let unattributed = 1.0 - ratio(attributed, traced.wall_s);
    if args.workload != "serve-mix" && unattributed.abs() > 0.10 {
        eprintln!(
            "warning: layers leave {:.1}% of the traced wall unattributed",
            unattributed * 100.0
        );
    }
    let sim = untraced.sim;
    let mut metrics = vec![Metric {
        name: "failed_frac",
        value: ratio(outcome.failed as f64, outcome.attempted as f64),
        unit: "fraction",
    }];
    metrics.extend(probes::run_all(work));
    let mut put = |name, value, unit| metrics.push(Metric { name, value, unit });
    for (metric, span) in [
        ("pipeline.stage_share.fetch", "sim/fetch"),
        ("pipeline.stage_share.dispatch", "sim/dispatch"),
        ("pipeline.stage_share.issue", "sim/issue"),
        (
            "pipeline.stage_share.complete_resolve",
            "sim/complete_resolve",
        ),
        ("pipeline.stage_share.retire", "sim/retire"),
    ] {
        put(metric, self_share(span), "fraction");
    }
    put(
        "runner.outside_cells_share",
        1.0 - ratio(untraced.busy_s, untraced.wall_s),
        "fraction",
    );
    let ckpt = row("phase/checkpoint");
    put(
        "common.ckpt_share",
        ratio(ckpt.map_or(0.0, |r| r.total_s), traced.wall_s),
        "fraction",
    );
    put(
        "common.ckpt_calls",
        ckpt.map_or(0, |r| r.calls) as f64,
        "count",
    );
    put(
        "obs.trace_overhead",
        ratio(traced.wall_s, untraced.wall_s),
        "ratio",
    );
    put("obs.unattributed_share", unattributed, "fraction");
    put("serve.accept_ms", median(&untraced.accept_ms), "ms");
    put("serve.cache_hits", untraced.serve.hits as f64, "count");
    put("serve.cache_misses", untraced.serve.misses as f64, "count");
    put(
        "serve.rehydrations",
        untraced.serve.rehydrations as f64,
        "count",
    );
    put("sim.uops", sim.fetched as f64, "count");
    put(
        "sim.host_ns_per_uop",
        ratio(untraced.wall_s * 1e9, sim.fetched as f64),
        "ns",
    );
    put(
        "sim.fetched_wrong_frac",
        ratio(sim.fetched_wrong as f64, sim.fetched as f64),
        "fraction",
    );
    put(
        "sim.executed_wrong_frac",
        ratio(sim.executed_wrong as f64, sim.executed as f64),
        "fraction",
    );
    Ok((outcome, metrics))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = WorkDir::create(&args.workload).and_then(|work| {
        eprintln!(
            "perfbench: {} seed {} for {} s, trace {}",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        if args.trace {
            per_layer(&args, &work.0)
        } else {
            end_to_end(&args, &work.0)
        }
    });
    match run {
        Ok((outcome, metrics)) if metrics.iter().all(|m| m.value.is_finite()) => {
            println!("{}", result_json(&outcome, &metrics));
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_need_every_flag_and_a_known_workload() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_owned));
        let a = parse("--workload faults-b4 --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("faults-b4", 7, 3, true)
        );
        assert!(parse("--workload nope --seed 7 --seconds 3 --trace 0").is_err());
        assert!(parse("--workload table2 --seconds 3 --trace 0").is_err());
        assert!(parse("--workload table2 --seed x --seconds 3 --trace 0").is_err());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let outcome = Outcome {
            attempted: 3,
            failed: 1,
        };
        let m = [Metric {
            name: "wall_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            result_json(&outcome, &m),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    /// Shortened workloads, run twice, must repeat every count exactly.
    /// One test, because the profiler it switches on is process-wide.
    #[test]
    fn shortened_workloads_repeat_their_counts() {
        let traced_table2 = || {
            let mut wl = Table2Workload::new(7, Some(2));
            let profiler = common::profiler();
            profiler.reset();
            profiler.enable(true);
            let pass = setup_and_pass(&mut wl);
            profiler.enable(false);
            let calls = profiler
                .report()
                .rows
                .iter()
                .find(|r| r.name == "phase/checkpoint")
                .map(|r| r.calls);
            let pass = pass.unwrap();
            assert_eq!(pass.outputs.len(), 6);
            (pass.sim, calls, pass.outputs)
        };
        let first = traced_table2();
        assert_eq!(first.1, Some(12), "two checkpoints per cell");
        assert_eq!(first, traced_table2());

        assert_eq!(probes::snapshot_bytes(), probes::snapshot_bytes());

        let work = WorkDir::create("selftest").unwrap();
        let serve = || {
            let mut wl = serve_mix::ServeMix::new(7, &work.0, true);
            let pass = setup_and_pass(&mut wl).unwrap();
            assert_eq!(pass.outputs.len() as u64, pass.attempted);
            (pass.serve, pass.sim, pass.outputs)
        };
        let first = serve();
        assert!(first.0.hits > 0 && first.0.misses > 0 && first.0.rehydrations > 0);
        assert_eq!(first, serve());
    }
}
