//! The two-context SMT machine: its behavioural checks, and a golden
//! that pins the per-thread statistics of nine runs field by field.
//!
//! The golden was recorded from the standalone two-thread engine that
//! `SmtSimulation` ran on before it was rebuilt on the stages of
//! `Simulation`; the rebuilt machine must reproduce every field of it
//! exactly. The runs cover both fetch policies, both shapes, gating on
//! one thread, and the two runs of `examples/smt_gating.rs`.
//!
//! Regenerate after an intentional result change with:
//!
//! ```text
//! cargo test -p perconf-pipeline --test smt_engine -- --ignored
//! ```

use perconf_core::{AlwaysHigh, PerceptronCe, PerceptronCeConfig, SpeculationController};
use perconf_pipeline::{Controller, FetchPolicy, PipelineConfig, SimStats, SmtSimulation};
use perconf_workload::WorkloadConfig;
use serde::{Serialize, Value};
use std::path::PathBuf;

fn wl(name: &str) -> WorkloadConfig {
    perconf_workload::spec2000_config(name).unwrap()
}

fn gated_controller() -> Controller {
    SpeculationController::new(
        Box::new(perconf_bpred::baseline_bimodal_gshare()) as Box<dyn perconf_bpred::SimPredictor>,
        Box::new(PerceptronCe::new(PerceptronCeConfig::default()))
            as Box<dyn perconf_core::SimEstimator>,
    )
}

fn ungated_controller() -> Controller {
    SpeculationController::new(
        Box::new(perconf_bpred::baseline_bimodal_gshare()) as Box<dyn perconf_bpred::SimPredictor>,
        Box::new(AlwaysHigh) as Box<dyn perconf_core::SimEstimator>,
    )
}

#[test]
fn both_threads_make_progress() {
    let mut smt = SmtSimulation::with_defaults(
        PipelineConfig::shallow(),
        FetchPolicy::RoundRobin,
        &wl("gzip"),
        &wl("gcc"),
    );
    smt.run_cycles(30_000);
    assert!(smt.stats(0).retired > 1_000, "t0 {}", smt.stats(0).retired);
    assert!(smt.stats(1).retired > 1_000, "t1 {}", smt.stats(1).retired);
    assert!(smt.combined_ipc() > 0.2);
}

#[test]
fn icount_favours_the_faster_thread() {
    // eon (few mispredicts) vs mcf (memory bound, many squashes):
    // under ICOUNT the fast thread should retire clearly more.
    let mut smt = SmtSimulation::with_defaults(
        PipelineConfig::shallow(),
        FetchPolicy::Icount,
        &wl("eon"),
        &wl("mcf"),
    );
    smt.run_cycles(40_000);
    assert!(smt.stats(0).retired > smt.stats(1).retired);
}

#[test]
fn smt_throughput_beats_half_a_core() {
    // Two threads sharing one core should beat a single thread's
    // IPC on the same core (that is the point of SMT).
    let mut single =
        perconf_pipeline::Simulation::with_defaults(PipelineConfig::shallow(), &wl("twolf"));
    single.warmup(30_000);
    let single_ipc = single.run(60_000).ipc();

    let mut smt = SmtSimulation::with_defaults(
        PipelineConfig::shallow(),
        FetchPolicy::Icount,
        &wl("twolf"),
        &wl("gzip"),
    );
    smt.warmup_cycles(30_000);
    smt.run_cycles(60_000);
    assert!(
        smt.combined_ipc() > single_ipc,
        "smt {:.3} vs single {:.3}",
        smt.combined_ipc(),
        single_ipc
    );
}

#[test]
fn gating_the_noisy_thread_helps_its_neighbour() {
    // Thread 1 runs vpr (frequent, fast-resolving mispredicts, so
    // it keeps re-filling its front end with wrong-path uops);
    // only *it* is gated. Each gated cycle hands the fetch slot to
    // gzip, which should retire more than in the ungated pair —
    // the Luo et al. SMT speculation-control result.
    let base_cfg = PipelineConfig::deep();
    let mut base =
        SmtSimulation::with_defaults(base_cfg, FetchPolicy::RoundRobin, &wl("gzip"), &wl("vpr"));
    base.warmup_cycles(40_000);
    base.run_cycles(120_000);

    let mut gated = SmtSimulation::new(
        base_cfg.gated(1),
        FetchPolicy::RoundRobin,
        (&wl("gzip"), ungated_controller()),
        (&wl("vpr"), gated_controller()),
    );
    gated.warmup_cycles(40_000);
    gated.run_cycles(120_000);

    let neighbour_gain = gated.stats(0).retired as f64 / base.stats(0).retired as f64;
    assert!(
        neighbour_gain > 1.01,
        "gating vpr should boost gzip: gain {neighbour_gain:.3}"
    );
    // And the noisy thread's wrong-path fetch must drop.
    assert!(gated.stats(1).fetched_wrong < base.stats(1).fetched_wrong);
}

#[test]
fn per_thread_wrong_path_squash_does_not_cross_threads() {
    let mut smt = SmtSimulation::with_defaults(
        PipelineConfig::shallow(),
        FetchPolicy::RoundRobin,
        &wl("vpr"),
        &wl("vortex"),
    );
    smt.run_cycles(30_000);
    // vortex barely mispredicts: nearly all squashed uops belong
    // to vpr.
    assert!(smt.stats(0).squashed > smt.stats(1).squashed);
}

// ---------------------------------------------------------------- //
// The golden.
// ---------------------------------------------------------------- //

/// One pinned run: thread 0 always runs the plain controller, thread
/// 1 the perceptron estimator when `gated` (with `cfg` gating it).
struct Run {
    name: &'static str,
    cfg: PipelineConfig,
    policy: FetchPolicy,
    benches: [&'static str; 2],
    gated: bool,
    warmup: u64,
    cycles: u64,
}

/// The five tests' runs above, the example's two runs at its own
/// length (the test above runs them at 40k + 120k cycles), and deep
/// ICOUNT on gcc + mcf.
#[rustfmt::skip]
fn runs() -> Vec<Run> {
    use FetchPolicy::{Icount, RoundRobin};
    let (shallow, deep) = (PipelineConfig::shallow(), PipelineConfig::deep());
    let run = |name, cfg, policy, benches, gated, warmup, cycles| Run {
        name, cfg, policy, benches, gated, warmup, cycles,
    };
    vec![
        run("rr_gzip_gcc", shallow, RoundRobin, ["gzip", "gcc"], false, 0, 30_000),
        run("icount_eon_mcf", shallow, Icount, ["eon", "mcf"], false, 0, 40_000),
        run("icount_twolf_gzip", shallow, Icount, ["twolf", "gzip"], false, 30_000, 60_000),
        run("deep_gzip_vpr", deep, RoundRobin, ["gzip", "vpr"], false, 40_000, 120_000),
        run("deep_gzip_vpr_gated", deep.gated(1), RoundRobin, ["gzip", "vpr"], true, 40_000, 120_000),
        run("rr_vpr_vortex", shallow, RoundRobin, ["vpr", "vortex"], false, 0, 30_000),
        run("example_gzip_vpr", deep, RoundRobin, ["gzip", "vpr"], false, 50_000, 200_000),
        run("example_gzip_vpr_gated", deep.gated(1), RoundRobin, ["gzip", "vpr"], true, 50_000, 200_000),
        run("deep_icount_gcc_mcf", deep, Icount, ["gcc", "mcf"], false, 20_000, 100_000),
    ]
}

/// The `SimStats` fields the golden pins: every one the standalone
/// engine counted.
const FIELDS: [&str; 13] = [
    "cycles",
    "retired",
    "fetched_correct",
    "fetched_wrong",
    "executed_correct",
    "executed_wrong",
    "squashed",
    "squashes",
    "branches_retired",
    "base_mispredicts",
    "speculated_mispredicts",
    "gated_cycles",
    "confusion",
];

fn pinned(stats: &SimStats) -> Value {
    let all = stats.to_value();
    Value::Object(
        FIELDS
            .iter()
            .map(|&f| (f.into(), all.get(f).expect("SimStats field").clone()))
            .collect(),
    )
}

/// Runs every golden run; one `{run, threads: [t0, t1]}` object each.
fn measure() -> Value {
    let runs = runs()
        .into_iter()
        .map(|r| {
            let t1 = if r.gated {
                gated_controller()
            } else {
                ungated_controller()
            };
            let mut smt = SmtSimulation::new(
                r.cfg,
                r.policy,
                (&wl(r.benches[0]), ungated_controller()),
                (&wl(r.benches[1]), t1),
            );
            smt.warmup_cycles(r.warmup);
            smt.run_cycles(r.cycles);
            Value::Object(vec![
                ("run".into(), Value::Str(r.name.to_owned())),
                (
                    "threads".into(),
                    Value::Array(vec![pinned(smt.stats(0)), pinned(smt.stats(1))]),
                ),
            ])
        })
        .collect();
    Value::Array(runs)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/smt_runs.json")
}

#[test]
fn every_run_matches_the_golden_field_by_field() {
    let text = std::fs::read_to_string(golden_path()).expect("golden file present");
    let expected: Value = serde_json::from_str(&text).expect("golden parses");
    let (Value::Array(expected), Value::Array(actual)) = (expected, measure()) else {
        panic!("the golden is an array of runs");
    };
    assert_eq!(actual.len(), expected.len(), "run count");
    let mut mismatches = Vec::new();
    for (a, e) in actual.iter().zip(&expected) {
        let run = e.get("run").expect("run name");
        assert_eq!(a.get("run"), Some(run), "runs in golden order");
        let threads = |v: &Value| match v.get("threads") {
            Some(Value::Array(t)) => t.clone(),
            other => panic!("threads: {other:?}"),
        };
        for (t, (at, et)) in threads(a).iter().zip(&threads(e)).enumerate() {
            for f in FIELDS {
                if at.get(f) != et.get(f) {
                    mismatches.push(format!(
                        "{run:?} t{t} {f}: {:?} != golden {:?}",
                        at.get(f),
                        et.get(f)
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "SMT runs drifted from the golden:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
#[ignore = "writes tests/golden/smt_runs.json; run after intentional result changes"]
fn regenerate_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
    let text = serde_json::to_string_pretty(&measure()).expect("render golden");
    std::fs::write(&path, text + "\n").expect("write golden");
    println!("wrote {}", path.display());
}
