//! Figures 4–7 — density functions of the perceptron output on gcc,
//! for correctly predicted (CB) and mispredicted (MB) branches:
//!
//! * Figure 4: `perceptron_cic` (correct/incorrect training), full range;
//! * Figure 5: same, zoomed to `[-70, 200]` — exposing the three
//!   regions (reversal / gating / high confidence);
//! * Figure 6: `perceptron_tnt` (direction training), full range;
//! * Figure 7: same, zoomed to `[-50, 50]` — showing that no region
//!   separates MB from CB.
//!
//! Both figures plot the **signed** perceptron output `y` (for `tnt`
//! that is the direction-perceptron's output, not the confidence
//! margin), exactly as in the paper.

use crate::common::{PredictorKind, Scale};
use perconf_core::{
    ConfidenceEstimator, EstimateCtx, PerceptronCe, PerceptronCeConfig, PerceptronTnt,
    PerceptronTntConfig,
};
use perconf_metrics::DensityPair;
use perconf_workload::WorkloadGenerator;
use serde::{Deserialize, Serialize};

/// Which training scheme a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Training {
    /// Correct/incorrect training (the paper's scheme, Figs 4–5).
    CorrectIncorrect,
    /// Taken/not-taken training (the Jimenez–Lin straw man, Figs 6–7).
    TakenNotTaken,
}

/// One density-figure result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigDensity {
    /// Benchmark used (the paper uses gcc).
    pub bench: String,
    /// Training scheme.
    pub training: Training,
    /// Density over the full output range.
    pub full: DensityPair,
    /// Density over the zoom range (Fig 5 / Fig 7).
    pub zoom: DensityPair,
}

enum Estimator {
    Cic(PerceptronCe),
    Tnt(PerceptronTnt),
}

impl Estimator {
    fn signed_output(&self, pc: u64, hist: u64) -> i32 {
        match self {
            Estimator::Cic(ce) => ce.output(pc, hist),
            Estimator::Tnt(ce) => ce.output(pc, hist),
        }
    }

    fn step(&mut self, ctx: &EstimateCtx, mispredicted: bool) {
        match self {
            Estimator::Cic(ce) => {
                let est = ce.estimate(ctx);
                ce.train(ctx, est, mispredicted);
            }
            Estimator::Tnt(ce) => {
                let est = ce.estimate(ctx);
                ce.train(ctx, est, mispredicted);
            }
        }
    }
}

/// Runs the density experiment for one training scheme on `bench`.
///
/// # Panics
///
/// Panics if `bench` is not one of the SPECint2000 names.
#[must_use]
pub fn run(training: Training, bench: &str, scale: Scale) -> FigDensity {
    let wl = perconf_workload::spec2000_config(bench).expect("known benchmark");
    let (full_range, zoom_range) = match training {
        Training::CorrectIncorrect => ((-350i64, 260i64, 10u32), (-70i64, 200i64, 10u32)),
        Training::TakenNotTaken => ((-350, 260, 10), (-50, 50, 10)),
    };
    let mut gen = WorkloadGenerator::new(&wl);
    let mut predictor = PredictorKind::BimodalGshare.build();
    let mut est = match training {
        Training::CorrectIncorrect => {
            Estimator::Cic(PerceptronCe::new(PerceptronCeConfig::default()))
        }
        Training::TakenNotTaken => {
            Estimator::Tnt(PerceptronTnt::new(PerceptronTntConfig::default()))
        }
    };
    let mut full = DensityPair::new(full_range.0, full_range.1, full_range.2);
    let mut zoom = DensityPair::new(zoom_range.0, zoom_range.1, zoom_range.2);
    let mut hist = 0u64;
    for seen in 1..=scale.warmup_branches + scale.run_branches {
        let b = gen.next_branch();
        let predicted_taken = predictor.predict(b.pc, hist);
        let ctx = EstimateCtx {
            pc: b.pc,
            history: hist,
            predicted_taken,
        };
        let mispredicted = predicted_taken != b.taken;
        if seen > scale.warmup_branches {
            let y = i64::from(est.signed_output(b.pc, hist));
            full.add(y, mispredicted);
            zoom.add(y, mispredicted);
        }
        est.step(&ctx, mispredicted);
        predictor.train(b.pc, hist, b.taken);
        hist = (hist << 1) | u64::from(b.taken);
    }
    FigDensity {
        bench: bench.to_owned(),
        training,
        full,
        zoom,
    }
}

impl FigDensity {
    /// Renders CSV + ASCII art + the Figure 5 region analysis.
    #[must_use]
    pub fn render(&self) -> String {
        let title = match self.training {
            Training::CorrectIncorrect => "Figures 4-5: perceptron_cic output density",
            Training::TakenNotTaken => "Figures 6-7: perceptron_tnt output density",
        };
        let mut out = format!("{title} ({})\n\nfull range:\n", self.bench);
        out.push_str(&self.full.to_ascii(40));
        out.push_str("\nzoom:\n");
        out.push_str(&self.zoom.to_ascii(40));
        out.push('\n');
        out.push_str(&self.region_analysis());
        out
    }

    /// The Figure 5 three-region analysis: MB/CB ratio above the
    /// reversal threshold, in the gating band, and below it.
    #[must_use]
    pub fn region_analysis(&self) -> String {
        let r = |from, to| {
            self.full
                .mb_cb_ratio(from, to)
                .map_or("n/a".to_owned(), |x| format!("{x:.2}"))
        };
        format!(
            "MB/CB ratio by region: y>30: {}   -30..30: {}   y<-30: {}\n",
            r(30, 260),
            r(-30, 30),
            r(-350, -30)
        )
    }

    /// Figure 5's key property for `cic`: mispredicted branches
    /// outnumber correct ones above the reversal threshold.
    #[must_use]
    pub fn reversal_region_mb_dominates(&self) -> bool {
        self.full.mb_cb_ratio(30, 260).is_none_or(|r| r > 1.0)
    }

    /// CSV bodies `(full, zoom)` for external plotting.
    #[must_use]
    pub fn to_csv(&self) -> (String, String) {
        (self.full.to_csv(), self.zoom.to_csv())
    }

    /// SVG renderings `(full, zoom)` of the density pair, in the
    /// paper's dual-scale style.
    #[must_use]
    pub fn to_svg(&self) -> (String, String) {
        let (t_full, t_zoom) = match self.training {
            Training::CorrectIncorrect => (
                "Figure 4: perceptron_cic output density (gcc)",
                "Figure 5: perceptron_cic output density, zoom (gcc)",
            ),
            Training::TakenNotTaken => (
                "Figure 6: perceptron_tnt output density (gcc)",
                "Figure 7: perceptron_tnt output density, zoom (gcc)",
            ),
        };
        (
            perconf_metrics::svg::density_svg(&self.full, t_full),
            perconf_metrics::svg::density_svg(&self.zoom, t_zoom),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_at_tiny_scale() {
        let f = run(Training::CorrectIncorrect, "gcc", Scale::tiny());
        assert!(f.full.correct.count() > 0);
        assert_eq!(f.bench, "gcc");
        let s = f.render();
        assert!(s.contains("Figures 4-5"));
    }

    #[test]
    fn tnt_plots_signed_direction_output() {
        // Direction-trained outputs on a mostly-taken workload should
        // have substantial mass at strongly positive y (strong taken),
        // unlike the confidence margin λ−|y| which is capped at λ.
        let f = run(Training::TakenNotTaken, "gcc", Scale::tiny());
        assert!(f.full.correct.mass_in(50, 260) > 0);
    }
}
