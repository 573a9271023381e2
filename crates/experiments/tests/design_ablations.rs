//! The evidence behind two of the estimators' design choices
//! (DESIGN.md §7 and §8): JRS's resetting miss-distance counters, and
//! the perceptron CE's training threshold `T = 75`.
//!
//! Each estimator is trained beside the baseline bimodal-gshare
//! predictor by one trace-level pass over vpr, 20,000 warm-up and
//! 60,000 measured branches. The simulator is deterministic, so the
//! orderings below are exact, not statistical.

use perconf_core::{
    ConfidenceEstimator, JrsConfig, JrsEstimator, MissPolicy, PerceptronCe, PerceptronCeConfig,
};
use perconf_experiments::common::{trace_eval, PredictorKind};

/// PVN and Spec of `ce` on vpr.
fn quality(ce: &mut dyn ConfidenceEstimator) -> (f64, f64) {
    let wl = perconf_workload::spec2000_config("vpr").expect("vpr workload");
    let mut p = PredictorKind::BimodalGshare.build();
    let (cm, _) = trace_eval(&wl, p.as_mut(), ce, 20_000, 60_000, None);
    (cm.pvn(), cm.spec())
}

/// Resetting a counter on a miss flags every branch whose last miss is
/// recent, so JRS covers more of the mispredictions (Spec) than it
/// does when a miss only decrements the counter.
#[test]
fn resetting_jrs_counters_cover_more_mispredictions() {
    let [(reset_pvn, reset_spec), (decr_pvn, decr_spec)] =
        [MissPolicy::Reset, MissPolicy::Decrement].map(|miss_policy| {
            quality(&mut JrsEstimator::new(JrsConfig {
                miss_policy,
                ..JrsConfig::default()
            }))
        });
    eprintln!(
        "JRS Reset: PVN {:.0}% Spec {:.0}%; Decrement: PVN {:.0}% Spec {:.0}%",
        reset_pvn * 100.0,
        reset_spec * 100.0,
        decr_pvn * 100.0,
        decr_spec * 100.0
    );
    assert!(
        reset_spec > decr_spec,
        "Reset Spec {reset_spec:.3} is not above Decrement's {decr_spec:.3}"
    );
}

/// A higher training threshold keeps training confidently-correct
/// branches, pushing their outputs further from the low-confidence
/// band: what stays flagged is more often a real misprediction (PVN
/// rises) but fewer mispredictions are flagged (Spec falls). `T = 75`
/// sits where PVN has nearly levelled off.
#[test]
fn raising_the_training_threshold_trades_spec_for_pvn() {
    let points: Vec<(i32, f64, f64)> = [0, 14, 75, 150]
        .into_iter()
        .map(|train_threshold| {
            let (pvn, spec) = quality(&mut PerceptronCe::new(PerceptronCeConfig {
                train_threshold,
                ..PerceptronCeConfig::default()
            }));
            eprintln!(
                "T={train_threshold}: PVN {:.0}% Spec {:.0}%",
                pvn * 100.0,
                spec * 100.0
            );
            (train_threshold, pvn, spec)
        })
        .collect();
    for pair in points.windows(2) {
        let ((t0, pvn0, spec0), (t1, pvn1, spec1)) = (pair[0], pair[1]);
        assert!(
            pvn1 > pvn0,
            "PVN does not rise from T={t0} ({pvn0:.3}) to T={t1} ({pvn1:.3})"
        );
        assert!(
            spec1 < spec0,
            "Spec does not fall from T={t0} ({spec0:.3}) to T={t1} ({spec1:.3})"
        );
    }
}
