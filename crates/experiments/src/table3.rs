//! Table 3 — confidence-estimation metrics: PVN (accuracy) and Spec
//! (coverage) for the enhanced JRS estimator at λ ∈ {3, 7, 11, 15}
//! versus the perceptron estimator at λ ∈ {25, 0, −25, −50}, both at
//! 4 KB of storage, over all twelve benchmarks.

use crate::common::{
    benchmarks, jobs, jrs, par_map_ordered, perceptron, trace_eval_each, PredictorKind, Scale,
    TracePair,
};
use crate::paper;
use perconf_metrics::{ConfusionMatrix, Table};
use serde::{Deserialize, Serialize};

/// One estimator design point's aggregated metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Estimator threshold λ.
    pub lambda: i32,
    /// Measured PVN (%), aggregated across benchmarks.
    pub pvn: f64,
    /// Measured Spec (%), aggregated across benchmarks.
    pub spec: f64,
}

/// Full Table 3 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3 {
    /// Enhanced JRS rows (λ = 3, 7, 11, 15).
    pub jrs: Vec<Table3Row>,
    /// Perceptron rows (λ = 25, 0, −25, −50).
    pub perceptron: Vec<Table3Row>,
}

/// The JRS thresholds swept by the paper.
pub const JRS_LAMBDAS: [u8; 4] = [3, 7, 11, 15];
/// The perceptron thresholds swept by the paper.
pub const PERCEPTRON_LAMBDAS: [i32; 4] = [25, 0, -25, -50];

/// Runs the Table 3 experiment: per benchmark, one trace pass trains
/// all eight design points (each with its own baseline predictor).
/// The passes fan out over [`jobs`] worker threads, and each point's
/// matrices then merge in benchmark order, so the result is identical
/// at any job count.
#[must_use]
pub fn run(scale: Scale) -> Table3 {
    let per_bench = par_map_ordered(jobs(), &benchmarks(), |wl| {
        let estimators = JRS_LAMBDAS
            .iter()
            .map(|&l| jrs(l))
            .chain(PERCEPTRON_LAMBDAS.iter().map(|&l| perceptron(l)));
        let mut built: Vec<_> = estimators
            .map(|ce| (PredictorKind::BimodalGshare.build(), ce))
            .collect();
        let mut pairs: Vec<TracePair<'_>> = built
            .iter_mut()
            .map(|(p, ce)| (p.as_mut() as _, ce.as_mut() as _))
            .collect();
        trace_eval_each(wl, &mut pairs, scale.warmup_branches, scale.run_branches)
    });
    let mut totals = [ConfusionMatrix::new(); JRS_LAMBDAS.len() + PERCEPTRON_LAMBDAS.len()];
    for cms in &per_bench {
        for (total, cm) in totals.iter_mut().zip(cms) {
            total.merge(cm);
        }
    }
    let row = |lambda: i32, cm: &ConfusionMatrix| Table3Row {
        lambda,
        pvn: cm.pvn() * 100.0,
        spec: cm.spec() * 100.0,
    };
    let (jrs_totals, perc_totals) = totals.split_at(JRS_LAMBDAS.len());
    Table3 {
        jrs: JRS_LAMBDAS
            .iter()
            .zip(jrs_totals)
            .map(|(&l, cm)| row(i32::from(l), cm))
            .collect(),
        perceptron: PERCEPTRON_LAMBDAS
            .iter()
            .zip(perc_totals)
            .map(|(&l, cm)| row(l, cm))
            .collect(),
    }
}

impl Table3 {
    /// Renders both halves with the paper's numbers alongside.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 3: confidence estimation metrics (PVN = accuracy, Spec = coverage)\n",
        );
        let mut t = Table::with_headers(&[
            "estimator",
            "λ",
            "PVN%",
            "PVN(paper)",
            "Spec%",
            "Spec(paper)",
        ]);
        t.numeric();
        for (row, p) in self.jrs.iter().zip(paper::TABLE3_JRS) {
            t.row(vec![
                "enhanced-JRS".into(),
                row.lambda.to_string(),
                format!("{:.0}", row.pvn),
                format!("{:.0}", p.1),
                format!("{:.0}", row.spec),
                format!("{:.0}", p.2),
            ]);
        }
        for (row, p) in self.perceptron.iter().zip(paper::TABLE3_PERCEPTRON) {
            t.row(vec![
                "perceptron".into(),
                row.lambda.to_string(),
                format!("{:.0}", row.pvn),
                format!("{:.0}", p.1),
                format!("{:.0}", row.spec),
                format!("{:.0}", p.2),
            ]);
        }
        out.push_str(&t.render());
        out
    }

    /// The paper's headline claim: the perceptron's *worst* accuracy
    /// beats the JRS estimator's *best* accuracy.
    #[must_use]
    pub fn perceptron_pvn_dominates(&self) -> bool {
        let best_jrs = self.jrs.iter().map(|r| r.pvn).fold(0.0, f64::max);
        let worst_p = self.perceptron.iter().map(|r| r.pvn).fold(100.0, f64::min);
        worst_p > best_jrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_constants_match_paper() {
        assert_eq!(JRS_LAMBDAS, [3, 7, 11, 15]);
        assert_eq!(PERCEPTRON_LAMBDAS, [25, 0, -25, -50]);
    }
}
