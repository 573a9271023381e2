//! Quickstart: build the paper's perceptron confidence estimator, feed
//! it a branch stream, and read off its accuracy (PVN) and coverage
//! (Spec).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use perconf::bpred::{baseline_bimodal_gshare, BranchPredictor};
use perconf::core::{ConfidenceEstimator, EstimateCtx, PerceptronCe, PerceptronCeConfig};
use perconf::metrics::ConfusionMatrix;
use perconf::workload::{spec2000_config, WorkloadGenerator};

fn main() {
    // 1. A workload: the synthetic "gcc" benchmark (calibrated to the
    //    paper's Table 2 misprediction rate).
    let wl = spec2000_config("gcc").expect("gcc is a known benchmark");
    let mut gen = WorkloadGenerator::new(&wl);

    // 2. The paper's baseline branch predictor (Table 1) and its
    //    4 KB perceptron confidence estimator (P128W8H32, λ = 0).
    let mut predictor = baseline_bimodal_gshare();
    let mut estimator = PerceptronCe::new(PerceptronCeConfig::default());

    // 3. Run 200k branches: predict, estimate confidence, then train
    //    both structures with the architectural outcome — exactly what
    //    the pipeline does at fetch and retirement.
    let mut history = 0u64;
    let mut cm = ConfusionMatrix::new();
    let warmup = 50_000;
    for seen in 1..=250_000 {
        let branch = gen.next_branch();

        let predicted_taken = predictor.predict(branch.pc, history);
        let ctx = EstimateCtx {
            pc: branch.pc,
            history,
            predicted_taken,
        };
        let estimate = estimator.estimate(&ctx);
        let mispredicted = predicted_taken != branch.taken;

        if seen > warmup {
            cm.record(mispredicted, estimate.is_low());
        }

        predictor.train(branch.pc, history, branch.taken);
        estimator.train(&ctx, estimate, mispredicted);
        history = (history << 1) | u64::from(branch.taken);
    }

    // 4. The paper's two metrics.
    println!("branches measured : {}", cm.total());
    println!(
        "misprediction rate: {:.2}%",
        cm.misprediction_rate() * 100.0
    );
    println!(
        "PVN (accuracy)    : {:.0}%  — of flagged branches, how many really mispredict",
        cm.pvn() * 100.0
    );
    println!(
        "Spec (coverage)   : {:.0}%  — of mispredictions, how many were flagged",
        cm.spec() * 100.0
    );
}
