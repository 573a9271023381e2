//! Compare all five confidence estimators implemented in this
//! repository — perceptron_cic (the paper's), perceptron_tnt, enhanced
//! JRS, Smith, and Tyson — on one benchmark, at equal-ish storage.
//!
//! ```text
//! cargo run --release --example estimator_comparison [bench]
//! ```

use perconf::bpred::{baseline_bimodal_gshare, BranchPredictor};
use perconf::core::{
    ConfidenceEstimator, EstimateCtx, JrsConfig, JrsEstimator, PerceptronCe, PerceptronCeConfig,
    PerceptronTnt, PerceptronTntConfig, SmithCe, TysonCe,
};
use perconf::metrics::{Align, ConfusionMatrix, Table};
use perconf::workload::WorkloadGenerator;

fn evaluate(
    wl: &perconf::workload::WorkloadConfig,
    estimator: &mut dyn ConfidenceEstimator,
) -> ConfusionMatrix {
    let mut gen = WorkloadGenerator::new(wl);
    let mut predictor = baseline_bimodal_gshare();
    let mut history = 0u64;
    let mut cm = ConfusionMatrix::new();
    let warmup = 100_000;
    for seen in 1..=400_000 {
        let b = gen.next_branch();
        let predicted_taken = predictor.predict(b.pc, history);
        let ctx = EstimateCtx {
            pc: b.pc,
            history,
            predicted_taken,
        };
        let est = estimator.estimate(&ctx);
        let mispredicted = predicted_taken != b.taken;
        if seen > warmup {
            cm.record(mispredicted, est.is_low());
        }
        predictor.train(b.pc, history, b.taken);
        estimator.train(&ctx, est, mispredicted);
        history = (history << 1) | u64::from(b.taken);
    }
    cm
}

fn main() {
    let bench = std::env::args().nth(1).unwrap_or_else(|| "vpr".to_owned());
    let wl = perconf::workload::spec2000_config(&bench)
        .unwrap_or_else(|| panic!("unknown benchmark {bench}"));

    let mut estimators: Vec<Box<dyn ConfidenceEstimator>> = vec![
        Box::new(PerceptronCe::new(PerceptronCeConfig::default())),
        Box::new(PerceptronTnt::new(PerceptronTntConfig::default())),
        Box::new(JrsEstimator::new(JrsConfig::default())),
        Box::new(SmithCe::new(13, 2)),
        Box::new(TysonCe::new(12, 8)),
    ];

    let mut t = Table::with_headers(&["estimator", "storage", "PVN%", "Spec%", "flag rate%"]);
    for i in 1..5 {
        t.align(i, Align::Right);
    }
    println!("confidence estimators on {bench} (baseline bimodal-gshare predictor)\n");
    for est in &mut estimators {
        let name = est.name();
        let bits = est.storage_bits();
        let cm = evaluate(&wl, est.as_mut());
        t.row(vec![
            name.to_owned(),
            format!("{:.1}KB", bits as f64 / 8192.0),
            format!("{:.0}", cm.pvn() * 100.0),
            format!("{:.0}", cm.spec() * 100.0),
            format!("{:.1}", cm.flagged_low() as f64 * 100.0 / cm.total() as f64),
        ]);
    }
    println!("{}", t.render());
    println!("PVN = P(mispredict | flagged low); Spec = P(flagged low | mispredict).");
}
