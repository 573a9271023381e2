//! `Simulation::try_run` jumps over idle cycles, while `try_step`
//! advances exactly one. The jump must be invisible: a run split over
//! several `try_run` calls has to end in the same statistics, state
//! digest, counters and trace events as a `try_step` loop that stops
//! each leg at the same retired count. Every machine shape is covered,
//! with controllers that never gate, gate through JRS and the
//! perceptron, and gate through fault-wrapped tables. Two gated
//! variants reach the timed events the stock machines leave idle: a
//! slow estimator keeps gate increments pending across idle cycles,
//! and memory slower than the completion ring files completions in its
//! overflow list.

use perconf_bpred::{baseline_bimodal_gshare, SimPredictor, Snapshot};
use perconf_core::{
    AlwaysHigh, JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig, SimEstimator,
    SpeculationController,
};
use perconf_faults::{FaultConfig, FaultyEstimator, FaultyPredictor};
use perconf_obs::{Profiler, TraceEvent, TraceLevel, Tracer};
use perconf_pipeline::{Controller, PipelineConfig, Simulation};

const BENCHES: [&str; 3] = ["mcf", "twolf", "gcc"];
const CONTROLLERS: [&str; 4] = ["default", "jrs", "perceptron", "faulty"];
/// Warm-up, then run legs of uneven length (one of a single uop).
const WARMUP: u64 = 2_000;
const LEGS: [u64; 3] = [1_500, 1, 2_500];

fn jrs() -> JrsEstimator {
    JrsEstimator::new(JrsConfig {
        lambda: 1,
        ..JrsConfig::default()
    })
}

fn controller(name: &str) -> Controller {
    let faults = |seed| FaultConfig {
        rate: 1e-3,
        history_rate: 1e-3,
        seed,
    };
    let (p, e): (Box<dyn SimPredictor>, Box<dyn SimEstimator>) = match name {
        "default" => (Box::new(baseline_bimodal_gshare()), Box::new(AlwaysHigh)),
        "jrs" => (Box::new(baseline_bimodal_gshare()), Box::new(jrs())),
        "perceptron" => (
            Box::new(baseline_bimodal_gshare()),
            Box::new(PerceptronCe::new(PerceptronCeConfig::default())),
        ),
        "faulty" => (
            Box::new(FaultyPredictor::new(baseline_bimodal_gshare(), &faults(7))),
            Box::new(FaultyEstimator::new(jrs(), &faults(8))),
        ),
        other => panic!("unknown controller {other}"),
    };
    SpeculationController::new(p, e)
}

fn build(cfg: PipelineConfig, bench: &str, ctl: &str) -> (Simulation, Tracer) {
    let wl = perconf_workload::spec2000_config(bench).expect("known benchmark");
    let mut sim = Simulation::new(cfg, &wl, controller(ctl));
    let tracer = Tracer::with_capacity(1 << 20);
    tracer.set_level(TraceLevel::Verbose);
    sim.set_tracer(tracer.clone());
    (sim, tracer)
}

/// `try_run(n)` one cycle at a time: the leg ends at the first cycle
/// that reaches its retired target.
fn step_to(sim: &mut Simulation, uops: u64) {
    let target = sim.stats().retired + uops;
    while sim.stats().retired < target {
        sim.try_step().expect("healthy step");
    }
}

/// Runs one machine/controller/benchmark cell both ways and returns
/// the skipping run's tracer events.
fn compare(cfg: PipelineConfig, bench: &str, ctl: &str) -> Vec<TraceEvent> {
    let what = format!("{ctl} on {bench}");
    let (mut skipping, skip_tracer) = build(cfg, bench, ctl);
    skipping.try_warmup(WARMUP).expect("healthy warmup");
    for n in LEGS {
        skipping.try_run(n).expect("healthy run");
    }

    // The stepping side runs profiled, so the profiled cycle body is
    // checked against the plain one as well.
    let (mut stepping, step_tracer) = build(cfg, bench, ctl);
    let profiler = Profiler::default();
    profiler.enable(true);
    stepping.set_profiler(profiler);
    step_to(&mut stepping, WARMUP);
    stepping.try_warmup(0).expect("stats reset");
    for n in LEGS {
        step_to(&mut stepping, n);
    }

    assert_eq!(skipping.stats(), stepping.stats(), "{what}: stats");
    assert_eq!(skipping.now(), stepping.now(), "{what}: cycle");
    assert_eq!(
        skipping.state_digest(),
        stepping.state_digest(),
        "{what}: state digest"
    );
    assert_eq!(skipping.counters(), stepping.counters(), "{what}: counters");
    let (events, dropped) = skip_tracer.drain();
    assert_eq!(
        (events.clone(), dropped),
        step_tracer.drain(),
        "{what}: events"
    );
    assert_eq!(dropped, 0, "{what}: the ring must hold every event");
    events
}

fn compare_all(cfg: PipelineConfig) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for ctl in CONTROLLERS {
        for bench in BENCHES {
            events.extend(compare(cfg, bench, ctl));
        }
    }
    events
}

#[test]
fn skipping_matches_stepping_on_the_shallow_machine() {
    compare_all(PipelineConfig::shallow());
}

#[test]
fn skipping_matches_stepping_on_the_wide_machine() {
    compare_all(PipelineConfig::wide());
}

#[test]
fn skipping_matches_stepping_on_the_deep_machine() {
    compare_all(PipelineConfig::deep());
}

#[test]
fn skipping_matches_stepping_on_the_gated_deep_machine() {
    let events = compare_all(PipelineConfig::deep().gated(1));
    // Gate stalls were skipped through, and their lengths still match.
    let long_stalls = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GateStallEnd { stalled, .. } if *stalled > 1))
        .count();
    assert!(
        long_stalls > 100,
        "only {long_stalls} multi-cycle gate stalls"
    );
}

#[test]
fn skipping_matches_stepping_with_a_slow_estimator() {
    // §5.4.2's 9-cycle estimator: a gate increment falls due up to 9
    // cycles after its branch was fetched, so it can fall due in the
    // middle of an idle stretch.
    compare_all(PipelineConfig::deep().gated(1).with_ce_latency(9));
}

#[test]
fn skipping_matches_stepping_when_memory_outlasts_the_completion_ring() {
    let mut cfg = PipelineConfig::deep().gated(1);
    cfg.mem.mem_latency = 400;
    compare_all(cfg);
}

/// The comparison above is only worth something if the skip acts: on
/// the gated deep machine most cycles are idle, and a profiled
/// `try_run` opens stage spans for the stepped cycles alone.
#[test]
fn try_run_steps_fewer_cycles_than_it_simulates() {
    let (mut sim, _) = build(PipelineConfig::deep().gated(1), "mcf", "jrs");
    let profiler = Profiler::default();
    profiler.enable(true);
    sim.set_profiler(profiler.clone());
    sim.try_run(5_000).expect("healthy run");
    let stepped = profiler
        .report()
        .rows
        .iter()
        .find(|r| r.name == "sim/retire")
        .map_or(0, |r| r.calls);
    assert_eq!(sim.stats().cycles, sim.now());
    assert!(
        stepped * 2 < sim.now(),
        "stepped {stepped} of {} cycles",
        sim.now()
    );
}
