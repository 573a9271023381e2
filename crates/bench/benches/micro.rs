//! Microbenchmarks of the individual structures: predictor and
//! estimator lookup/train throughput, workload generation rate, cache
//! access rate, and raw simulator cycle throughput. These bound the
//! hardware-structure costs the paper discusses (§5.4.2 motivates the
//! perceptron-latency study with exactly this dot-product cost).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use perconf_bpred::{baseline_bimodal_gshare, BranchPredictor, Gshare, PerceptronPredictor};
use perconf_core::{
    ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig,
};
use perconf_pipeline::{obs, Cache, CacheConfig, PipelineConfig, Simulation};
use perconf_workload::WorkloadGenerator;
use std::hint::black_box;
use std::time::Duration;

const N: u64 = 10_000;

fn predictor_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictor");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("gshare-predict-train", |b| {
        let mut p = Gshare::new(16, 8);
        b.iter(|| {
            for i in 0..N {
                let pc = (i * 29) % 4096 * 4;
                let hist = i.wrapping_mul(0x9E37_79B9);
                let pred = p.predict(pc, hist);
                p.train(pc, hist, pred ^ (i % 7 == 0));
            }
            black_box(&p);
        });
    });
    g.bench_function("perceptron-predict-train", |b| {
        let mut p = PerceptronPredictor::new(128, 32);
        b.iter(|| {
            for i in 0..N {
                let pc = (i * 29) % 4096 * 4;
                let hist = i.wrapping_mul(0x9E37_79B9);
                let pred = p.predict(pc, hist);
                p.train(pc, hist, pred ^ (i % 7 == 0));
            }
            black_box(&p);
        });
    });
    g.bench_function("hybrid-predict-train", |b| {
        let mut p = baseline_bimodal_gshare();
        b.iter(|| {
            for i in 0..N {
                let pc = (i * 29) % 4096 * 4;
                let hist = i.wrapping_mul(0x9E37_79B9);
                let pred = p.predict(pc, hist);
                p.train(pc, hist, pred ^ (i % 7 == 0));
            }
            black_box(&p);
        });
    });
    g.finish();
}

fn estimator_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("estimator");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("perceptron-ce-estimate-train", |b| {
        let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
        b.iter(|| {
            for i in 0..N {
                let ctx = EstimateCtx {
                    pc: (i * 29) % 4096 * 4,
                    history: i.wrapping_mul(0x9E37_79B9),
                    predicted_taken: i % 3 == 0,
                };
                let est = ce.estimate(&ctx);
                ce.train(&ctx, est, i % 11 == 0);
            }
            black_box(&ce);
        });
    });
    g.bench_function("jrs-estimate-train", |b| {
        let mut ce = JrsEstimator::new(JrsConfig::default());
        b.iter(|| {
            for i in 0..N {
                let ctx = EstimateCtx {
                    pc: (i * 29) % 4096 * 4,
                    history: i.wrapping_mul(0x9E37_79B9),
                    predicted_taken: i % 3 == 0,
                };
                let est = ce.estimate(&ctx);
                ce.train(&ctx, est, i % 11 == 0);
            }
            black_box(&ce);
        });
    });
    g.finish();
}

fn workload_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    let cfg = perconf_workload::spec2000_config("gcc").unwrap();
    g.bench_function("generate-uops", |b| {
        let mut gen = WorkloadGenerator::new(&cfg);
        b.iter(|| {
            for _ in 0..N {
                black_box(gen.next_uop());
            }
        });
    });
    g.finish();
}

fn cache_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.bench_function("l1-access", |b| {
        let mut cache = Cache::new(CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 8,
            line_bytes: 64,
        });
        b.iter(|| {
            for i in 0..N {
                black_box(cache.access((i * 97) % 65_536));
            }
        });
    });
    g.finish();
}

fn simulator_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    g.throughput(Throughput::Elements(20_000));
    let wl = perconf_workload::spec2000_config("gcc").unwrap();
    g.bench_function("cycle-throughput-20k-uops", |b| {
        b.iter(|| {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &wl);
            black_box(sim.run(20_000).cycles)
        });
    });
    // The same run with the whole observability stack attached and
    // live: event tracing at Standard level (every resolved branch
    // pushed into the ring) plus per-stage profiling. The gap to the
    // bench above is the total observability cost.
    g.bench_function("cycle-throughput-20k-uops-observed", |b| {
        b.iter(|| {
            let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &wl);
            let tracer = obs::Tracer::new();
            tracer.set_level(obs::TraceLevel::Standard);
            let profiler = obs::Profiler::default();
            profiler.enable(true);
            sim.set_tracer(tracer);
            sim.set_profiler(profiler);
            black_box(sim.run(20_000).cycles)
        });
    });
    g.finish();
}

fn obs_bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.throughput(Throughput::Elements(N));
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_secs(1));
    // Cost of one record() call with the tracer live: the level check
    // and the ring-buffer push.
    g.bench_function("tracer-record", |b| {
        let t = obs::Tracer::new();
        t.set_level(obs::TraceLevel::Standard);
        b.iter(|| {
            for i in 0..N {
                t.record(obs::TraceEvent::BranchResolved {
                    cycle: i,
                    pc: i * 4,
                    mispredicted: i % 7 == 0,
                });
            }
            black_box(t.enabled())
        });
    });
    // The disabled profiler costs one relaxed atomic load per scope;
    // the enabled one adds two clock reads and a map update.
    g.bench_function("profiler-scope-disabled", |b| {
        let p = obs::Profiler::default();
        b.iter(|| {
            for _ in 0..N {
                let _s = p.scope("bench/span");
            }
            black_box(p.enabled())
        });
    });
    g.bench_function("profiler-scope-enabled", |b| {
        let p = obs::Profiler::default();
        p.enable(true);
        b.iter(|| {
            for _ in 0..N {
                let _s = p.scope("bench/span");
            }
            black_box(p.enabled())
        });
    });
    // Counters are materialized on demand, never maintained in the
    // cycle loop; this is the cost of building a full snapshot.
    g.bench_function("counters-snapshot", |b| {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let mut sim = Simulation::with_defaults(PipelineConfig::deep(), &wl);
        sim.run(2_000);
        b.iter(|| {
            for _ in 0..N / 100 {
                black_box(sim.counters());
            }
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    predictor_bench,
    estimator_bench,
    workload_bench,
    cache_bench,
    simulator_bench,
    obs_bench
);
criterion_main!(benches);
