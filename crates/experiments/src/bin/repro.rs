//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <experiment> [--full | --tiny] [--json <dir>] [--csv <dir>]
//!                    [--resume <dir>] [--seed <u64>] [--jobs <n>]
//!                    [--batch <n>] [--timing <file>] [--profile]
//!                    [--metrics-out <file>] [--trace-out <file>] [--force]
//! repro run <spec.toml|spec.json> [--check] [--jobs <n>] [--batch <n>]
//!           [--resume <dir>] [--json <dir>] [--csv <dir>]
//!           [--timing <file>] [--force]
//! repro verify [--bench <name>] [--full | --tiny]
//! repro obs <file.pobs> [--jsonl <file>] [--force]
//! repro sweep --queue <dir> [--workers <n>] [--grid full|small]
//!             [--lease-secs <s>] [--chaos <spec>] [--cell-timeout <s>]
//! repro faults --gc --resume <dir>
//! repro serve [--state <dir>] [--addr <ip:port>] [--queue <n>]
//!             [--restarts <n>] [--watchdog <s>]
//! repro submit [--state <dir> | --addr <ip:port>] --seed <u64>
//!              [--full | --tiny] [--grid full|small] [--json <dir>]
//!              [--chaos kill]
//!
//! experiments: table2 table3 table4 table5 table6
//!              fig4 fig5 fig6 fig7 fig8 fig9 latency energy faults
//!              sweep verify obs run all
//! ```
//!
//! `run` executes a declarative experiment spec
//! (`perconf_experiments::spec`, format reference in EXPERIMENTS.md):
//! the file names the experiment, scale, benchmarks, design points or
//! fault grid, and the run is **byte-identical** — result JSON and
//! `.psnap` checkpoints included — to the equivalent hard-coded
//! subcommand, because both lower onto the same cell machinery (CI's
//! `specs` lane diffs exactly that). `--check` parses, validates and
//! lowers the spec, prints what would run, and exits without
//! simulating. `--jobs`, `--batch` and `--resume` pass through
//! unchanged; the spec's `[output]` section supplies default `--json`
//! / `--timing` destinations, with explicit flags winning. A spec
//! whose `spec_version` is from another era exits with code 6,
//! distinct from ordinary usage errors.
//!
//! `--resume <dir>` checkpoints every sweep cell into `<dir>` and, on
//! a rerun, loads finished cells instead of recomputing them — only
//! failed or missing cells execute; cells with a mid-run partial
//! checkpoint continue from it instead of from scratch. The directory
//! records the run that filled it (experiment, scale, and for `faults`
//! seed and grid), and a run that differs in any of them is refused
//! with exit 2; `--bench`, `--jobs` and `--batch` may change between
//! runs. `--seed` sets the fault-injection campaign seed (default 42).
//!
//! `--jobs <n>` fans independent sweep cells (and per-benchmark
//! pipeline runs inside the table experiments) across `n` worker
//! threads; `--jobs 0` means every available core, and the default is
//! every core. Results are byte-identical at any job count — only
//! wall-clock time changes. `--batch <n>` (at least 1) groups the
//! fault sweep's cells `n` at a time: the group's cells that evaluate
//! the same benchmark share one trace-level pass, then the group runs
//! their pipeline legs one at a time. Like `--jobs` it is purely a
//! throughput knob — output stays byte-identical for every width,
//! including under `--resume`. `--timing <file>` writes the per-cell
//! wall-time/retry report of the `faults` sweep as JSON (wall time is
//! inherently nondeterministic, which is why it lives in its own file
//! rather than in the diffable result output).
//!
//! Observability (all derived outputs — none of them changes a single
//! simulated bit, see `perconf-obs`):
//!
//! * `--profile` turns on per-phase profiling and prints the
//!   self/child wall-time table to stderr after the run;
//! * `--metrics-out <file>` writes a JSON object with the run's merged
//!   hierarchical counter snapshot (for experiments that produce one;
//!   currently the `faults` sweep) and the profile rows;
//! * `--trace-out <file>` records structured events during the run
//!   (branch resolutions, gate stalls, checkpoint writes, retries) and
//!   flushes them to a checksummed `.pobs` trace;
//! * `repro obs <file.pobs>` summarizes a recorded trace (event counts
//!   by kind, drops) and exports it as JSON lines with `--jsonl`.
//!
//! Output files named by `--timing`, `--metrics-out`, `--trace-out`
//! and `--jsonl` are written atomically (temp file + rename) and are
//! **refused** if the destination already exists, unless `--force` is
//! given.
//!
//! `verify` is the determinism self-check: a clean lockstep run of two
//! identical machines must stay digest-identical, a snapshot written
//! through the checksummed container and restored into a fresh machine
//! must replay identically, and an injected single-bit fault *must* be
//! reported as a divergence with the cycle it first appeared at.
//!
//! `sweep` runs the faults grid across `--workers <n>` worker
//! *processes* coordinated through a filesystem lease queue at
//! `--queue <dir>` (see `perconf_experiments::distrib`). Output is
//! byte-identical to a single-process run, including when workers are
//! killed mid-sweep (`--chaos kill-mid-cell=1.0,seed=3` scripts
//! deterministic process faults into the fleet). A queue of another
//! sweep (seed, scale or grid) is refused with exit 2; `--lease-secs`
//! may change between runs. The coordinator
//! respawns dead workers, drains stragglers inline, and merges in
//! canonical grid order; scheduling statistics land in the queue's
//! `report.json`, never in the diffable output. `--worker-id` /
//! `--chaos-script` are the internal worker-mode flags the coordinator
//! uses when re-invoking this binary.
//!
//! `repro faults --gc --resume <dir>` garbage-collects a checkpoint
//! directory (orphaned mid-cell partials whose final result landed,
//! leftover atomic-write temp files) without running anything; clean
//! sweep completions run the same collection automatically.
//!
//! `serve` / `submit` delegate to the sibling `perconf-serve` binary:
//! a long-running supervised experiment server that keeps one
//! checkpoint directory per spec (repeat submissions re-simulate
//! nothing) and actor-per-experiment fault tolerance. A waited `submit --json`
//! writes byte-identical output to the equivalent one-shot
//! `repro faults` run. See `perconf-serve --help`.
//!
//! Exit codes (see `perconf_experiments::exit`): 0 success, 1
//! unclassified error, 2 usage error, 3 success after degrading
//! corrupt input to recomputation, 4 failed sweep cells, 5 failed
//! cells where every failure was a watchdog timeout, 6 unsupported
//! `spec_version` in a `repro run` spec file.

#![forbid(unsafe_code)]

use perconf_experiments::runner::{
    bind_dir, default_jobs, degraded_count, gc_dir, Scheduler, SchedulerConfig,
};
use perconf_experiments::spec::{Lowered, RunSpec, SpecError};
use perconf_experiments::{
    common, distrib, energy, exit, faults, fig89, figs, latency, table2, table3, table4, table5,
    table6, verify, Scale,
};
use perconf_faults::{process::parse_script, ChaosConfig};
use perconf_obs::{pobs, CounterSnapshot, TraceLevel};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Why a run failed, classified for the documented exit-code taxonomy
/// (`perconf_experiments::exit`). `From<String>` keeps `?` working on
/// the many helpers that error with plain rendered strings — those
/// map to the unclassified code 1.
enum RunFailure {
    /// Bad flag combination or unknown experiment → exit 2.
    Usage(String),
    /// A `repro run` spec declared a `spec_version` this build does
    /// not read → exit 6 (distinct from exit 2 so automation can tell
    /// "upgrade or regenerate" apart from "fix your spec").
    SpecVersion(String),
    /// The sweep finished but cells failed terminally → exit 4, or 5
    /// when every failure class is `timeout`.
    FailedCells {
        keys: Vec<String>,
        kinds: Vec<String>,
    },
    /// Everything else → exit 1.
    Other(String),
}

impl From<String> for RunFailure {
    fn from(s: String) -> Self {
        RunFailure::Other(s)
    }
}

impl RunFailure {
    fn exit_code(&self) -> u8 {
        match self {
            RunFailure::Usage(_) => exit::USAGE,
            RunFailure::SpecVersion(_) => exit::SPEC_VERSION,
            RunFailure::FailedCells { kinds, .. } => exit::classify_failed_kinds(kinds),
            RunFailure::Other(_) => exit::FAILURE,
        }
    }

    fn render(&self) -> String {
        match self {
            RunFailure::Usage(m) | RunFailure::SpecVersion(m) | RunFailure::Other(m) => m.clone(),
            RunFailure::FailedCells { keys, kinds } => {
                let all_timeout = !kinds.is_empty() && kinds.iter().all(|k| k == "timeout");
                format!(
                    "{} sweep cell(s) failed{}: {}",
                    keys.len(),
                    if all_timeout {
                        " (all watchdog timeouts — consider a longer --cell-timeout)"
                    } else {
                        ""
                    },
                    keys.join(", ")
                )
            }
        }
    }
}

/// Writes `body` to `path` durably and atomically, refusing to
/// replace an existing file unless `force` is set.
fn write_guarded(path: &Path, body: &str, force: bool) -> Result<(), String> {
    if path.exists() && !force {
        return Err(format!(
            "refusing to overwrite {} (pass --force to replace it)",
            path.display()
        ));
    }
    perconf_bpred::atomic_write(path, &[body.as_bytes()], true)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Up-front collision check for every `--*-out` style destination, so
/// an hours-long sweep is not thrown away at write time.
fn check_output_paths(args: &Args) -> Result<(), String> {
    if args.force {
        return Ok(());
    }
    for path in [
        &args.timing,
        &args.metrics_out,
        &args.trace_out,
        &args.jsonl,
    ]
    .into_iter()
    .flatten()
    {
        if path.exists() {
            return Err(format!(
                "output file {} already exists (pass --force to replace it)",
                path.display()
            ));
        }
    }
    Ok(())
}

#[derive(Clone)]
struct Args {
    experiment: String,
    /// Second positional argument (the trace file for `repro obs`).
    input: Option<String>,
    scale: Scale,
    json_dir: Option<PathBuf>,
    csv_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    seed: u64,
    jobs: usize,
    timing: Option<PathBuf>,
    /// Benchmark filter (`--bench`, repeatable). Empty = the full
    /// SPECint2000 set for table/figure experiments; `verify` uses the
    /// first entry (default `gcc`).
    bench: Vec<String>,
    profile: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    jsonl: Option<PathBuf>,
    force: bool,
    /// Queue directory for the distributed `sweep` experiment.
    queue: Option<PathBuf>,
    /// Worker processes for `sweep` (1 = inline, no subprocess).
    workers: usize,
    /// Grid preset for `faults`/`sweep` (`--grid full|small`).
    grid: faults::Grid,
    /// Batch width for `faults` (1 = unbatched): the members of a group
    /// that evaluate the same benchmark share one trace-level pass, and
    /// the group then runs their pipeline legs one at a time.
    batch: usize,
    /// Lease duration for `sweep` queue claims. `None` falls back to
    /// `distrib::DEFAULT_LEASE` (30 s).
    lease_secs: Option<u64>,
    /// Chaos campaign spec (`key=value,...`) for `sweep`.
    chaos: Option<String>,
    /// Per-attempt cell watchdog for `sweep` (`None` = no watchdog).
    cell_timeout: Option<u64>,
    /// Internal: run as a sweep worker with this id.
    worker_id: Option<String>,
    /// Internal: this worker's rendered chaos script.
    chaos_script: Option<String>,
    /// Garbage-collect the `--resume` directory instead of sweeping.
    gc: bool,
    /// `repro run --check`: validate and lower the spec, then exit
    /// without simulating.
    check: bool,
}

const USAGE: &str = "usage: repro <experiment> [--full | --tiny] [--json <dir>] [--csv <dir>] [--resume <dir>] [--seed <u64>] [--jobs <n>] [--batch <n>] [--timing <file>]\n\
     \x20            [--grid full|small] [--profile] [--metrics-out <file>] [--trace-out <file>] [--force]\n\
     \x20      repro run <spec.toml|spec.json> [--check] [--jobs <n>] [--batch <n>] [--resume <dir>] [--json <dir>] [--csv <dir>] [--timing <file>] [--force]\n\
     \x20      repro verify [--bench <name>] [--full | --tiny]\n\
     \x20      repro obs <file.pobs> [--jsonl <file>] [--force]\n\
     \x20      repro sweep --queue <dir> [--workers <n>] [--grid full|small] [--lease-secs <s>] [--chaos <spec>] [--cell-timeout <s>]\n\
     \x20      repro faults --gc --resume <dir>\n\
     \x20      repro serve [--state <dir>] [--addr <ip:port>] [--queue <n>] [--restarts <n>] [--watchdog <s>]\n\
     \x20      repro submit [--state <dir> | --addr <ip:port>] --seed <u64> [--full | --tiny] [--grid full|small] [--json <dir>] [--chaos kill]\n\
     experiments: table2 table3 table4 table5 table6 fig4 fig5 fig6 fig7 fig8 fig9 latency energy faults sweep verify obs run all\n\
     exit codes: 0 ok | 1 error | 2 usage | 3 ok-but-degraded-input | 4 failed cells | 5 all failures were watchdog timeouts | 6 unsupported spec_version";

/// The parsed command line, or `None` when it asks for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut experiment = None;
    let mut input = None;
    let mut scale = Scale::quick();
    let mut json_dir = None;
    let mut csv_dir = None;
    let mut resume_dir = None;
    let mut seed = 42;
    let mut jobs = default_jobs();
    let mut batch = 1usize;
    let mut timing = None;
    let mut bench = Vec::new();
    let mut profile = false;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut jsonl = None;
    let mut force = false;
    let mut queue = None;
    let mut workers = 1;
    let mut grid = faults::Grid::full();
    let mut lease_secs = None;
    let mut chaos = None;
    let mut cell_timeout = None;
    let mut worker_id = None;
    let mut chaos_script = None;
    let mut gc = false;
    let mut check = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => scale = Scale::full(),
            "--tiny" => scale = Scale::tiny(),
            "--json" => {
                json_dir = Some(PathBuf::from(it.next().ok_or("--json needs a directory")?));
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(it.next().ok_or("--csv needs a directory")?));
            }
            "--resume" => {
                resume_dir = Some(PathBuf::from(
                    it.next().ok_or("--resume needs a directory")?,
                ));
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .ok_or("--jobs needs a worker count")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                jobs = if n == 0 { default_jobs() } else { n };
            }
            "--timing" => {
                timing = Some(PathBuf::from(it.next().ok_or("--timing needs a file")?));
            }
            "--batch" => {
                batch = it
                    .next()
                    .ok_or("--batch needs a width")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?;
                if batch == 0 {
                    return Err("--batch must be at least 1".to_owned());
                }
            }
            "--bench" => {
                bench.push(it.next().ok_or("--bench needs a benchmark name")?);
            }
            "--profile" => profile = true,
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().ok_or("--metrics-out needs a file")?,
                ));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a file")?));
            }
            "--jsonl" => {
                jsonl = Some(PathBuf::from(it.next().ok_or("--jsonl needs a file")?));
            }
            "--force" => force = true,
            "--queue" => {
                queue = Some(PathBuf::from(it.next().ok_or("--queue needs a directory")?));
            }
            "--workers" => {
                workers = it
                    .next()
                    .ok_or("--workers needs a process count")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--grid" => {
                let name = it.next().ok_or("--grid needs `full` or `small`")?;
                grid = faults::Grid::by_name(&name)
                    .ok_or_else(|| format!("--grid must be `full` or `small`, got `{name}`"))?;
            }
            "--lease-secs" => lease_secs = Some(parse_secs("--lease-secs", it.next())?),
            "--chaos" => {
                chaos = Some(it.next().ok_or("--chaos needs a key=value,... spec")?);
            }
            "--cell-timeout" => cell_timeout = Some(parse_secs("--cell-timeout", it.next())?),
            "--worker-id" => {
                worker_id = Some(it.next().ok_or("--worker-id needs an id")?);
            }
            "--chaos-script" => {
                chaos_script = Some(it.next().ok_or("--chaos-script needs a script")?);
            }
            "--gc" => gc = true,
            "--check" => check = true,
            "--help" | "-h" => return Ok(None),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            other if experiment.is_some() && input.is_none() && !other.starts_with('-') => {
                input = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Some(Args {
        experiment: experiment.ok_or("missing experiment name")?,
        input,
        scale,
        json_dir,
        csv_dir,
        resume_dir,
        seed,
        jobs,
        timing,
        bench,
        profile,
        metrics_out,
        trace_out,
        jsonl,
        force,
        queue,
        workers,
        grid,
        batch,
        lease_secs,
        chaos,
        cell_timeout,
        worker_id,
        chaos_script,
        gc,
        check,
    }))
}

/// Parses the whole seconds after `flag`. Zero is refused: a zero
/// lease expires at once, and a zero watchdog fails every attempt.
fn parse_secs(flag: &str, raw: Option<String>) -> Result<u64, String> {
    let secs: u64 = raw
        .ok_or_else(|| format!("{flag} needs seconds"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if secs == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(secs)
}

/// The `verify` experiment: determinism, replay and fault-divergence
/// self-checks. Fails (returns `Err`) when a clean probe diverges or
/// the injected-fault probe does *not*.
fn run_verify(args: &Args) -> Result<(), String> {
    let bench = args.bench.first().map_or("gcc", String::as_str);
    let wl = perconf_workload::spec2000_config(bench)
        .ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let cfg = perconf_pipeline::PipelineConfig::deep().gated(1);
    let mk = || common::controller(common::PredictorKind::BimodalGshare, common::perceptron(14));
    let scale = args.scale;
    let interval = (scale.run_uops / 8).max(1);

    let clean = verify::lockstep(&wl, cfg, mk, scale, interval, None)
        .map_err(|e| format!("lockstep probe failed: {e}"))?;
    println!("{}", clean.render());

    let snap = std::env::temp_dir().join(format!("repro-verify-{}.psnap", std::process::id()));
    let replayed = verify::replay(&wl, cfg, mk, scale, scale.run_uops / 3, interval, &snap)
        .map_err(|e| format!("replay probe failed: {e}"))?;
    let _ = std::fs::remove_file(&snap);
    println!("{}", replayed.render());

    let inject = verify::Inject {
        at_uops: scale.run_uops / 3,
        bit: 5,
    };
    let faulted = verify::lockstep(&wl, cfg, mk, scale, interval, Some(inject))
        .map_err(|e| format!("inject probe failed: {e}"))?;
    println!("{}", faulted.render());

    if clean.diverged() {
        return Err("clean lockstep run diverged: the simulator is nondeterministic".into());
    }
    if replayed.diverged() {
        return Err("snapshot replay diverged from the original run".into());
    }
    match faulted.first_divergence {
        Some(d) => {
            println!(
                "self-check passed: injected single-bit fault detected at cycle {} ({} retired uops)",
                d.cycle_b, d.retired
            );
            Ok(())
        }
        None => Err("injected single-bit fault was NOT detected — digest coverage hole".into()),
    }
}

/// Saves a result struct as `<dir>/<name>.json` through the same
/// atomic temp+rename, refuse-to-overwrite-without-`--force` guard as
/// every other output writer. Best-effort (a failed save warns rather
/// than discarding the already-computed result from stdout).
fn save_json(dir: &Option<PathBuf>, name: &str, value: &impl serde::Serialize, force: bool) {
    if let Some(dir) = dir {
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(s) => {
                if let Err(e) = write_guarded(&path, &s, force) {
                    eprintln!("warning: {e}");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
        }
    }
}

fn save_csv(dir: &Option<PathBuf>, name: &str, body: &str, force: bool) {
    save_file(dir, &format!("{name}.csv"), body, force);
}

fn save_file(dir: &Option<PathBuf>, file: &str, body: &str, force: bool) {
    if let Some(dir) = dir {
        if let Err(e) = write_guarded(&dir.join(file), body, force) {
            eprintln!("warning: {e}");
        }
    }
}

/// Prints the per-cell wall-time/retry report to stderr (so the
/// diffable table output on stdout stays deterministic) and, with
/// `--timing`, writes it as JSON for CI to publish as an artifact.
fn report_timings(
    timings: &[perconf_experiments::runner::CellTiming],
    jobs: usize,
    timing_file: &Option<PathBuf>,
    force: bool,
) {
    let total: f64 = timings.iter().map(|t| t.wall_s).sum();
    eprintln!(
        "[{} cells on {jobs} worker(s): {} executed, {} resumed, {} retries, {} failed; {total:.1} cell-seconds]",
        timings.len(),
        timings.iter().filter(|t| t.attempts > 0).count(),
        timings.iter().filter(|t| t.resumed).count(),
        timings.iter().map(|t| u64::from(t.retries)).sum::<u64>(),
        timings.iter().filter(|t| !t.ok).count(),
    );
    for t in timings {
        eprintln!(
            "  {:<40} {:>8.2}s attempts={} retries={}{}{}{}",
            t.key,
            t.wall_s,
            t.attempts,
            t.retries,
            if t.resumed { " resumed" } else { "" },
            if t.resumed_mid_cell { " mid-cell" } else { "" },
            if t.ok { "" } else { " FAILED" },
        );
    }
    if let Some(path) = timing_file {
        match serde_json::to_string_pretty(&timings.to_vec()) {
            Ok(s) => {
                if let Err(e) = write_guarded(path, &s, force) {
                    eprintln!("warning: {e}");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize timing report: {e}"),
        }
    }
}

/// Summarizes a recorded `.pobs` trace and optionally exports it as
/// JSON lines (`--jsonl <file>`, guarded like every other output).
fn run_obs(args: &Args) -> Result<(), String> {
    let input = args
        .input
        .as_deref()
        .ok_or("obs needs a trace file argument: repro obs <file.pobs>")?;
    let path = Path::new(input);
    let t = pobs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    println!(
        "trace {}: {} event(s), {} dropped at capture",
        path.display(),
        t.events.len(),
        t.dropped
    );
    for (kind, n) in t.counts_by_kind() {
        println!("  {kind:<20} {n:>10}");
    }
    if let Some(out) = &args.jsonl {
        let body = t
            .to_jsonl()
            .map_err(|e| format!("cannot export JSON lines: {e}"))?;
        write_guarded(out, &body, args.force)?;
        eprintln!("[jsonl -> {}]", out.display());
    }
    Ok(())
}

/// Runs one named experiment. `counters` is an out-parameter: the
/// experiments that produce a merged [`CounterSnapshot`] (currently the
/// `faults` sweep) deposit it there so `main` can include it in
/// `--metrics-out`.
fn run_one(
    name: &str,
    args: &Args,
    counters: &mut Option<CounterSnapshot>,
) -> Result<(), RunFailure> {
    if name == "faults" && args.gc {
        return run_gc(args);
    }
    if let Some(lowered) = lower_subcommand(name, args)? {
        return run_lowered(lowered, args, counters);
    }
    let scale = args.scale;
    match name {
        "table3" => {
            let t = table3::run(scale);
            println!("{}", t.render());
            println!(
                "headline (perceptron PVN beats JRS everywhere): {}",
                t.perceptron_pvn_dominates()
            );
            save_json(&args.json_dir, "table3", &t, args.force);
        }
        "table5" => {
            let t = table5::run(scale);
            println!("{}", t.render());
            println!(
                "better predictor leaves less opportunity: {}",
                t.better_predictor_reduces_opportunity()
            );
            save_json(&args.json_dir, "table5", &t, args.force);
        }
        "table6" => {
            let t = table6::run(scale);
            println!("{}", t.render());
            println!("narrow weights hurt most: {}", t.narrow_weights_hurt_most());
            save_json(&args.json_dir, "table6", &t, args.force);
        }
        "fig4" | "fig5" => {
            let f = figs::run(figs::Training::CorrectIncorrect, "gcc", scale);
            println!("{}", f.render());
            let (full, zoom) = f.to_csv();
            save_csv(&args.csv_dir, "fig4_cic_full", &full, args.force);
            save_csv(&args.csv_dir, "fig5_cic_zoom", &zoom, args.force);
            let (svg_full, svg_zoom) = f.to_svg();
            save_file(&args.csv_dir, "fig4_cic_full.svg", &svg_full, args.force);
            save_file(&args.csv_dir, "fig5_cic_zoom.svg", &svg_zoom, args.force);
            save_json(&args.json_dir, "fig45", &f, args.force);
        }
        "fig6" | "fig7" => {
            let f = figs::run(figs::Training::TakenNotTaken, "gcc", scale);
            println!("{}", f.render());
            let (full, zoom) = f.to_csv();
            save_csv(&args.csv_dir, "fig6_tnt_full", &full, args.force);
            save_csv(&args.csv_dir, "fig7_tnt_zoom", &zoom, args.force);
            let (svg_full, svg_zoom) = f.to_svg();
            save_file(&args.csv_dir, "fig6_tnt_full.svg", &svg_full, args.force);
            save_file(&args.csv_dir, "fig7_tnt_zoom.svg", &svg_zoom, args.force);
            save_json(&args.json_dir, "fig67", &f, args.force);
        }
        "latency" => {
            let l = latency::run(scale);
            println!("{}", l.render());
            println!("9-cycle latency is cheap: {}", l.nine_cycles_is_cheap());
            save_json(&args.json_dir, "latency", &l, args.force);
        }
        "energy" => {
            let e = energy::run(scale);
            println!("{}", e.render());
            println!("gating saves energy: {}", e.gating_saves_energy());
            save_json(&args.json_dir, "energy", &e, args.force);
        }
        "sweep" => {
            if let Some(id) = &args.worker_id {
                return run_sweep_worker(args, id);
            }
            let queue_root = args.queue.clone().ok_or_else(|| {
                RunFailure::Usage("sweep needs --queue <dir> (the shared queue directory)".into())
            })?;
            let chaos = match &args.chaos {
                Some(spec) => Some(ChaosConfig::parse(spec).map_err(RunFailure::Usage)?),
                None => None,
            };
            let cfg = distrib::SweepConfig {
                queue_root,
                workers: args.workers,
                scale,
                seed: args.seed,
                grid: args.grid.clone(),
                lease: args
                    .lease_secs
                    .map_or(distrib::DEFAULT_LEASE, Duration::from_secs),
                chaos,
                cell_timeout: args.cell_timeout.map(Duration::from_secs),
            };
            // `run_sweep` refuses another sweep's queue too, but among
            // its setup failures; checked first, it is a usage error.
            distrib::check_queue(&cfg).map_err(RunFailure::Usage)?;
            let (t, d) = distrib::run_sweep(&cfg)?;
            println!("{}", t.render());
            println!(
                "faults degrade metrics monotonically: {}",
                t.degrades_monotonically()
            );
            *counters = Some(t.counters.clone());
            save_json(&args.json_dir, "faults", &t, args.force);
            eprintln!(
                "[sweep: {} worker(s) spawned, {} respawned, {} chaos exit(s); \
                 {} recomputed inline, {} mid-cell resume(s)]",
                d.workers_spawned,
                d.workers_respawned,
                d.chaos_exits,
                d.cells_recomputed_inline,
                d.cells_resumed_mid_cell,
            );
            if !d.failed_cells.is_empty() {
                return Err(RunFailure::FailedCells {
                    keys: d.failed_cells.iter().map(|f| f.key.clone()).collect(),
                    kinds: d.failed_cells.iter().map(|f| f.kind.clone()).collect(),
                });
            }
        }
        "verify" => run_verify(args)?,
        "obs" => run_obs(args)?,
        "run" => run_spec(args, counters)?,
        other => return Err(RunFailure::Usage(format!("unknown experiment: {other}"))),
    }
    Ok(())
}

/// Resolves the `--bench` filter (empty = the full SPECint2000 set)
/// into workload configs, rejecting unknown names up front.
fn bench_list(args: &Args) -> Result<Vec<perconf_workload::WorkloadConfig>, RunFailure> {
    if args.bench.is_empty() {
        return Ok(common::benchmarks());
    }
    args.bench
        .iter()
        .map(|name| {
            perconf_workload::spec2000_config(name)
                .ok_or_else(|| RunFailure::Usage(format!("unknown benchmark {name}")))
        })
        .collect()
}

/// Builds the scheduler every cell-based experiment shares: `--jobs`
/// workers, resuming from `--resume <dir>` when given (with the
/// stale/empty-directory advisory) once the directory is bound to
/// `run` of `experiment` — a directory another run filled is a usage
/// error.
fn scheduler_for(args: &Args, experiment: &str, run: &str) -> Result<Scheduler, RunFailure> {
    if let Some(dir) = &args.resume_dir {
        note_resume_dir_state(dir);
        bind_dir(dir, experiment, run).map_err(RunFailure::Usage)?;
    }
    Ok(Scheduler::new(SchedulerConfig::for_run(
        args.jobs,
        args.resume_dir.as_deref(),
    )))
}

/// Maps failed cell keys to a [`RunFailure::FailedCells`], pulling
/// each cell's terminal failure class from its timing row.
fn failed_cells(
    keys: Vec<String>,
    timings: &[perconf_experiments::runner::CellTiming],
) -> RunFailure {
    let kinds = keys
        .iter()
        .map(|key| {
            timings
                .iter()
                .find(|row| &row.key == key)
                .and_then(|row| row.error_kind.clone())
                .unwrap_or_else(|| "unknown".to_owned())
        })
        .collect();
    RunFailure::FailedCells { keys, kinds }
}

/// What `repro run` would lower the equivalent spec to, for the
/// subcommands a spec can express (`table2`, `table4`, `fig8`, `fig9`,
/// `faults`); `None` for every other subcommand.
fn lower_subcommand(name: &str, args: &Args) -> Result<Option<Lowered>, RunFailure> {
    let scale = args.scale;
    let lowered = match name {
        "table2" => Lowered::Table2 {
            scale,
            benchmarks: bench_list(args)?,
        },
        "table4" => Lowered::Table4 {
            scale,
            benchmarks: bench_list(args)?,
            jrs_points: table4::default_jrs_points(),
            perceptron_lambdas: table4::default_perceptron_lambdas(),
        },
        "fig8" | "fig9" => Lowered::Fig89 {
            machine: if name == "fig8" {
                fig89::Machine::Deep
            } else {
                fig89::Machine::Wide
            },
            scale,
            benchmarks: bench_list(args)?,
            name: name.to_owned(),
        },
        "faults" => Lowered::Faults {
            scale,
            seed: args.seed,
            grid: args.grid.clone(),
        },
        _ => return Ok(None),
    };
    Ok(Some(lowered))
}

/// Runs a lowered experiment: the one path under both the hard-coded
/// subcommands and `repro run <spec>`, so the two produce
/// byte-identical outputs, checkpoint files included.
fn run_lowered(
    lowered: Lowered,
    args: &Args,
    counters: &mut Option<CounterSnapshot>,
) -> Result<(), RunFailure> {
    match lowered {
        Lowered::Table2 { scale, benchmarks } => {
            // Routed through the scheduler — not the plain in-process
            // path — so checkpoints, resume, and job fan-out behave
            // like every other cell-based experiment.
            let run = format!("table2 ({})", scale.describe());
            let mut scheduler = scheduler_for(args, "table2", &run)?;
            let (t, timings) = table2::run_scheduled(scale, &benchmarks, &mut scheduler);
            let t = t.map_err(|failed| failed_cells(failed, &timings))?;
            println!("{}", t.render());
            save_json(&args.json_dir, "table2", &t, args.force);
        }
        Lowered::Table4 {
            scale,
            benchmarks,
            jrs_points,
            perceptron_lambdas,
        } => {
            let t = table4::run_points(scale, benchmarks, &jrs_points, &perceptron_lambdas);
            println!("{}", t.render());
            save_json(&args.json_dir, "table4", &t, args.force);
        }
        Lowered::Fig89 {
            machine,
            scale,
            benchmarks,
            name,
        } => {
            let f = fig89::run_on(machine, scale, benchmarks);
            println!("{}", f.render());
            save_file(
                &args.csv_dir,
                &format!("{name}.svg"),
                &f.to_svg(),
                args.force,
            );
            save_json(&args.json_dir, &name, &f, args.force);
        }
        Lowered::Faults { scale, seed, grid } => {
            let run = faults::run_name(scale, seed, &grid);
            let mut scheduler = scheduler_for(args, "faults", &run)?;
            // Width 1 runs the identical engine one cell per group; any
            // width produces byte-identical output (pinned by the batch
            // determinism suite), so batching is purely a throughput
            // knob.
            let (t, timings) =
                faults::run_grid_batched(scale, seed, &grid, &mut scheduler, args.batch);
            println!("{}", t.render());
            println!(
                "faults degrade metrics monotonically: {}",
                t.degrades_monotonically()
            );
            *counters = Some(t.counters.clone());
            report_timings(&timings, args.jobs, &args.timing, args.force);
            save_json(&args.json_dir, "faults", &t, args.force);
            if !t.failed.is_empty() {
                // Failure classes come from the timing rows, which
                // carry each failed cell's terminal error kind.
                return Err(failed_cells(t.failed.clone(), &timings));
            }
            // Clean completion: collect the stale partials and temp
            // files a killed earlier run may have left.
            if let Some(dir) = &args.resume_dir {
                let gc = gc_dir(dir);
                if gc.total() > 0 {
                    eprintln!(
                        "[gc: removed {} stale partial(s), {} temp file(s) from {}]",
                        gc.partials_removed,
                        gc.temps_removed,
                        dir.display()
                    );
                }
            }
        }
    }
    Ok(())
}

/// `repro run <spec>`: execute (or, with `--check`, just validate) a
/// declarative experiment spec. The spec supplies experiment, scale,
/// seed, benchmarks/points/grid, and default output destinations;
/// `--jobs`, `--batch`, `--resume` and explicit output flags pass
/// through unchanged. Lowering lands on the *same* cell machinery as
/// the hard-coded subcommands, which is what makes the outputs —
/// checkpoint files included — byte-identical (CI's `specs` lane
/// gates on exactly that).
fn run_spec(args: &Args, counters: &mut Option<CounterSnapshot>) -> Result<(), RunFailure> {
    let input = args
        .input
        .as_deref()
        .ok_or_else(|| RunFailure::Usage("run needs a spec file: repro run <spec.toml>".into()))?;
    let spec = RunSpec::load(Path::new(input)).map_err(|e| match e {
        SpecError::Version { message, .. } => RunFailure::SpecVersion(message),
        SpecError::Invalid(m) => RunFailure::Usage(m),
    })?;
    let lowered = spec
        .lower()
        .map_err(|e| RunFailure::Other(format!("{input}: cannot lower spec: {e}")))?;
    if args.check {
        println!(
            "spec OK: {input} — {} ({} cell(s), scale {})",
            lowered.describe(),
            lowered.cell_count(),
            spec.experiment.scale
        );
        return Ok(());
    }
    // The spec's [output] section supplies defaults; explicit CLI
    // flags win. The merged view is what the shared helpers see, so
    // guarding and atomicity are identical either way.
    let out = spec.output.clone().unwrap_or_default();
    let merged = Args {
        json_dir: args
            .json_dir
            .clone()
            .or_else(|| out.json.as_deref().map(PathBuf::from)),
        timing: args
            .timing
            .clone()
            .or_else(|| out.timing.as_deref().map(PathBuf::from)),
        ..args.clone()
    };
    let args = &merged;
    if let Some(path) = &args.timing {
        if path.exists() && !args.force {
            return Err(RunFailure::Usage(format!(
                "output file {} already exists (pass --force to replace it)",
                path.display()
            )));
        }
    }
    run_lowered(lowered, args, counters)
}

/// Warns (actionably) when `--resume` points at a directory that
/// cannot actually resume anything — a missing or empty checkpoint
/// dir silently behaving like a fresh run has burned people before.
/// The run still proceeds: the directory is created lazily and this
/// pass's checkpoints land in it.
fn note_resume_dir_state(dir: &Path) {
    if !dir.exists() {
        eprintln!(
            "note: --resume directory {} does not exist — nothing to resume from. \
             Starting fresh; this run will create it and checkpoint into it. \
             (Expected the <dir> passed to a previous `--resume <dir>` run.)",
            dir.display()
        );
    } else if std::fs::read_dir(dir)
        .map(|mut d| d.next().is_none())
        .unwrap_or(false)
    {
        eprintln!(
            "note: --resume directory {} is empty — nothing to resume from. \
             Starting fresh; checkpoints from this run will land there.",
            dir.display()
        );
    }
}

/// `repro faults --gc --resume <dir>`: collect stale checkpoint-dir
/// garbage and report, without running a sweep.
fn run_gc(args: &Args) -> Result<(), RunFailure> {
    let Some(dir) = &args.resume_dir else {
        return Err(RunFailure::Usage(
            "--gc needs --resume <dir> (the checkpoint directory to collect)".into(),
        ));
    };
    if !dir.exists() {
        eprintln!(
            "note: checkpoint directory {} does not exist — nothing to collect",
            dir.display()
        );
        return Ok(());
    }
    let gc = gc_dir(dir);
    println!(
        "gc {}: removed {} stale partial(s), {} temp file(s)",
        dir.display(),
        gc.partials_removed,
        gc.temps_removed
    );
    Ok(())
}

/// Internal worker mode: `repro sweep --queue <dir> --worker-id <id>`.
/// Everything else (grid, scale, seed, lease) comes from the queue's
/// manifest, so a worker can never disagree with its coordinator.
fn run_sweep_worker(args: &Args, id: &str) -> Result<(), RunFailure> {
    let queue_root = args
        .queue
        .clone()
        .ok_or_else(|| RunFailure::Usage("worker mode needs --queue <dir>".into()))?;
    let script = match &args.chaos_script {
        Some(s) => parse_script(s).map_err(RunFailure::Usage)?,
        None => Vec::new(),
    };
    let cfg = distrib::WorkerConfig {
        script,
        timeout: args.cell_timeout.map(Duration::from_secs),
        ..distrib::WorkerConfig::new(queue_root, id)
    };
    let stats = distrib::run_worker(&cfg)?;
    eprintln!("[worker {id} done]\n{}", stats.render());
    Ok(())
}

const ALL: [&str; 12] = [
    "table2", "table3", "table4", "table5", "table6", "fig4", "fig6", "fig8", "fig9", "latency",
    "energy", "faults",
];

/// Post-run observability output: the profile table on stderr, the
/// merged counters + profile rows as `--metrics-out` JSON, and the
/// drained event ring as a `--trace-out` `.pobs` file. Runs whether or
/// not the experiment itself succeeded — a profile of a failed run is
/// still a profile.
fn finish_obs(args: &Args, counters: &Option<CounterSnapshot>) -> Result<(), String> {
    if args.profile {
        eprint!("{}", common::profiler().report().render());
    }
    if let Some(path) = &args.metrics_out {
        let report = common::profiler().report();
        let metrics = serde::Value::Object(vec![
            (
                "counters".into(),
                counters
                    .as_ref()
                    .and_then(|c| serde_json::to_value(c).ok())
                    .unwrap_or(serde::Value::Null),
            ),
            (
                "profile".into(),
                serde_json::to_value(&report).unwrap_or(serde::Value::Null),
            ),
        ]);
        let body = serde_json::to_string_pretty(&metrics)
            .map_err(|e| format!("cannot serialize metrics: {e}"))?;
        write_guarded(path, &body, args.force)?;
        eprintln!("[metrics -> {}]", path.display());
    }
    if let Some(path) = &args.trace_out {
        let (events, dropped) = common::tracer().drain();
        // `pobs::write` is already atomic; existence was checked up
        // front by `check_output_paths`.
        pobs::write(path, &events, dropped)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!(
            "[trace: {} event(s), {} dropped -> {}]",
            events.len(),
            dropped,
            path.display()
        );
    }
    Ok(())
}

/// `repro serve` / `repro submit` are thin wrappers around the
/// sibling `perconf-serve` binary: the server lives in its own crate
/// (which depends on this one), so the delegation is a subprocess,
/// not a library call. Stdio is inherited and the child's exit code —
/// the same shared taxonomy — passes straight through.
fn delegate_serve(cmd: &str, rest: &[String]) -> ExitCode {
    let sub = if cmd == "serve" { "run" } else { "submit" };
    let bin = std::env::var_os("PERCONF_SERVE_BIN")
        .map(PathBuf::from)
        .or_else(|| {
            let sibling = std::env::current_exe()
                .ok()?
                .parent()?
                .join("perconf-serve");
            sibling.exists().then_some(sibling)
        });
    let Some(bin) = bin else {
        eprintln!(
            "error: cannot find the `perconf-serve` sibling binary next to `repro` \
             (build it with `cargo build -p perconf-serve`, or point PERCONF_SERVE_BIN at it)"
        );
        return ExitCode::from(exit::FAILURE);
    };
    match std::process::Command::new(&bin)
        .arg(sub)
        .args(rest)
        .status()
    {
        Ok(status) => match status.code() {
            Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(exit::FAILURE)),
            None => {
                eprintln!("error: {} died on a signal", bin.display());
                ExitCode::from(exit::FAILURE)
            }
        },
        Err(e) => {
            eprintln!("error: cannot run {}: {e}", bin.display());
            ExitCode::from(exit::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(first) = raw.first() {
        if first == "serve" || first == "submit" {
            return delegate_serve(first, &raw[1..]);
        }
    }
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(exit::USAGE);
        }
    };
    if let Err(e) = check_output_paths(&args) {
        eprintln!("error: {e}");
        return ExitCode::from(exit::USAGE);
    }
    if args.profile {
        common::profiler().enable(true);
    }
    if args.trace_out.is_some() {
        common::tracer().set_level(TraceLevel::Standard);
    }
    // Table/figure experiments parallelize per benchmark through the
    // shared helper pool; the faults sweep parallelizes per cell via
    // its Scheduler. Both honour the same --jobs value.
    common::set_jobs(args.jobs);
    #[allow(clippy::disallowed_methods)]
    // lint: allow(nondeterminism-sources) — wall-time banner only, never in results
    let start = std::time::Instant::now();
    let mut counters = None;
    let result = if args.experiment == "all" {
        ALL.iter().try_for_each(|name| {
            println!("\n================ {name} ================\n");
            run_one(name, &args, &mut counters)
        })
    } else {
        run_one(&args.experiment, &args, &mut counters)
    };
    let result = result.and(finish_obs(&args, &counters).map_err(RunFailure::from));
    match result {
        Ok(()) => {
            eprintln!("\n[{:.1}s elapsed]", start.elapsed().as_secs_f64());
            let degraded = degraded_count();
            if degraded > 0 {
                // Success, but corrupt input was discarded and
                // recomputed along the way — admit it in the status.
                eprintln!(
                    "[{degraded} corrupt input(s) degraded to recomputation — exit {}]",
                    exit::DEGRADED
                );
                return ExitCode::from(exit::DEGRADED);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}", e.render());
            ExitCode::from(e.exit_code())
        }
    }
}
