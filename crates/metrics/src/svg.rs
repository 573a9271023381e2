//! Minimal self-contained SVG chart rendering, so the figure drivers
//! can emit actual plots (no plotting dependency needed offline).
//!
//! Two chart shapes cover the paper: [`density_svg`] renders a
//! [`DensityPair`] as the dual-scale line plot of
//! Figures 4–7 (CB and MB each normalised to their own maximum, as in
//! the paper), and [`bars_svg`] renders the grouped per-benchmark bars
//! of Figures 8–9.

use crate::histogram::DensityPair;
use std::fmt::Write as _;

const W: f64 = 720.0;
const H: f64 = 400.0;
const MARGIN_L: f64 = 60.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 50.0;

fn header(title: &str) -> String {
    format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">
<style>text {{ font-family: sans-serif; font-size: 12px; }} .t {{ font-size: 15px; font-weight: bold; }}</style>
<rect width="{W}" height="{H}" fill="white"/>
<text class="t" x="{}" y="22" text-anchor="middle">{title}</text>
"#,
        W / 2.0
    )
}

fn polyline(points: &[(f64, f64)], color: &str) -> String {
    let pts: Vec<String> = points
        .iter()
        .map(|(x, y)| format!("{x:.1},{y:.1}"))
        .collect();
    format!(
        r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
        pts.join(" ")
    )
}

/// Renders a CB/MB output-density pair as an SVG line chart in the
/// style of the paper's Figures 4–7: each series normalised to its own
/// peak (the paper plots them on different scales because correct
/// predictions vastly outnumber mispredictions).
///
/// # Examples
///
/// ```
/// use perconf_metrics::{svg, DensityPair};
///
/// let mut d = DensityPair::new(-100, 100, 10);
/// d.add(-50, false);
/// d.add(40, true);
/// let s = svg::density_svg(&d, "Figure 4");
/// assert!(s.starts_with("<svg"));
/// assert!(s.contains("Figure 4"));
/// ```
#[must_use]
pub fn density_svg(d: &DensityPair, title: &str) -> String {
    let bins: Vec<(i64, u64, u64)> = d
        .correct
        .iter()
        .zip(d.mispredicted.iter())
        .map(|((edge, cb), (_, mb))| (edge, cb, mb))
        .collect();
    let mut out = header(title);
    if bins.is_empty() {
        out.push_str("</svg>\n");
        return out;
    }
    let (x0, x1) = (bins[0].0 as f64, bins[bins.len() - 1].0 as f64);
    let span = (x1 - x0).max(1.0);
    let max_cb = bins.iter().map(|b| b.1).max().unwrap_or(1).max(1) as f64;
    let max_mb = bins.iter().map(|b| b.2).max().unwrap_or(1).max(1) as f64;
    let plot_w = W - MARGIN_L - MARGIN_R;
    let plot_h = H - MARGIN_T - MARGIN_B;
    let sx = |v: f64| MARGIN_L + (v - x0) / span * plot_w;
    let sy = |frac: f64| MARGIN_T + (1.0 - frac) * plot_h;

    // Axes.
    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        H - MARGIN_B,
        W - MARGIN_R,
        H - MARGIN_B
    );
    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{}" stroke="black"/>"#,
        H - MARGIN_B
    );
    // X ticks: five evenly spaced labels.
    for i in 0..=4 {
        let v = x0 + span * f64::from(i) / 4.0;
        let x = sx(v);
        let _ = writeln!(
            out,
            r#"<line x1="{x:.1}" y1="{}" x2="{x:.1}" y2="{}" stroke="black"/><text x="{x:.1}" y="{}" text-anchor="middle">{v:.0}</text>"#,
            H - MARGIN_B,
            H - MARGIN_B + 5.0,
            H - MARGIN_B + 20.0
        );
    }
    let _ = writeln!(
        out,
        r#"<text x="{}" y="{}" text-anchor="middle">perceptron output</text>"#,
        W / 2.0,
        H - 10.0
    );

    let cb_points: Vec<(f64, f64)> = bins
        .iter()
        .map(|&(e, cb, _)| (sx(e as f64), sy(cb as f64 / max_cb)))
        .collect();
    let mb_points: Vec<(f64, f64)> = bins
        .iter()
        .map(|&(e, _, mb)| (sx(e as f64), sy(mb as f64 / max_mb)))
        .collect();
    out.push_str(&polyline(&cb_points, "#1f77b4"));
    out.push('\n');
    out.push_str(&polyline(&mb_points, "#d62728"));
    out.push('\n');
    // Legend.
    let _ = writeln!(
        out,
        r##"<rect x="{}" y="{MARGIN_T}" width="12" height="3" fill="#1f77b4"/><text x="{}" y="{}">CB (correct, own scale)</text>"##,
        W - 230.0,
        W - 212.0,
        MARGIN_T + 5.0
    );
    let _ = writeln!(
        out,
        r##"<rect x="{}" y="{}" width="12" height="3" fill="#d62728"/><text x="{}" y="{}">MB (mispredicted, own scale)</text>"##,
        W - 230.0,
        MARGIN_T + 16.0,
        W - 212.0,
        MARGIN_T + 21.0
    );
    out.push_str("</svg>\n");
    out
}

/// Renders grouped per-category bars (e.g. Figures 8–9: speedup and
/// uop reduction per benchmark). Each entry is
/// `(label, [series values...])`; series share one y-axis, negative
/// values hang below the zero line.
///
/// # Panics
///
/// Panics if rows have different numbers of values than
/// `series_names`.
#[must_use]
pub fn bars_svg(title: &str, series_names: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = header(title);
    if rows.is_empty() || series_names.is_empty() {
        out.push_str("</svg>\n");
        return out;
    }
    for (_, vs) in rows {
        assert_eq!(vs.len(), series_names.len(), "row width mismatch");
    }
    let max = rows
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(1.0f64, |a, b| a.max(b.abs()))
        * 1.1;
    let plot_w = W - MARGIN_L - MARGIN_R;
    let plot_h = H - MARGIN_T - MARGIN_B;
    let zero_y = MARGIN_T + plot_h / 2.0;
    let sy = |v: f64| zero_y - v / max * (plot_h / 2.0);
    let colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"];
    let group_w = plot_w / rows.len() as f64;
    let bar_w = (group_w * 0.8) / series_names.len() as f64;

    let _ = writeln!(
        out,
        r#"<line x1="{MARGIN_L}" y1="{zero_y:.1}" x2="{}" y2="{zero_y:.1}" stroke="black"/>"#,
        W - MARGIN_R
    );
    for (g, (label, vs)) in rows.iter().enumerate() {
        let gx = MARGIN_L + group_w * (g as f64 + 0.1);
        for (si, &v) in vs.iter().enumerate() {
            let x = gx + bar_w * si as f64;
            let y = sy(v.max(0.0));
            let h = (sy(0.0) - sy(v.abs())).abs();
            let _ = writeln!(
                out,
                r#"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{h:.1}" fill="{}"/>"#,
                bar_w * 0.9,
                colors[si % colors.len()]
            );
        }
        let _ = writeln!(
            out,
            r#"<text x="{:.1}" y="{}" text-anchor="middle" transform="rotate(45 {:.1} {})">{label}</text>"#,
            gx + group_w * 0.4,
            H - MARGIN_B + 24.0,
            gx + group_w * 0.4,
            H - MARGIN_B + 24.0
        );
    }
    for (si, name) in series_names.iter().enumerate() {
        let y = MARGIN_T + 14.0 * si as f64;
        let _ = writeln!(
            out,
            r#"<rect x="{}" y="{y:.1}" width="12" height="8" fill="{}"/><text x="{}" y="{:.1}">{name}</text>"#,
            W - 200.0,
            colors[si % colors.len()],
            W - 182.0,
            y + 8.0
        );
    }
    // Y extremes.
    let _ = writeln!(
        out,
        r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{max:.0}</text><text x="{:.1}" y="{:.1}" text-anchor="end">0</text>"#,
        MARGIN_L - 6.0,
        MARGIN_T + 10.0,
        MARGIN_L - 6.0,
        zero_y + 4.0
    );
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_svg_is_well_formed() {
        let mut d = DensityPair::new(-50, 50, 10);
        for i in -5..5 {
            d.add(i * 10, i > 2);
        }
        let s = density_svg(&d, "test-density");
        assert!(s.starts_with("<svg"));
        assert!(s.trim_end().ends_with("</svg>"));
        assert_eq!(s.matches("<polyline").count(), 2);
        assert!(s.contains("test-density"));
    }

    #[test]
    fn empty_density_renders_without_panic() {
        let d = DensityPair::new(0, 10, 10);
        let s = density_svg(&d, "empty");
        assert!(s.contains("</svg>"));
    }

    #[test]
    fn bars_svg_draws_one_rect_per_value() {
        let rows = vec![
            ("a".to_owned(), vec![1.0, -2.0]),
            ("b".to_owned(), vec![3.0, 4.0]),
        ];
        let s = bars_svg("bars", &["x", "y"], &rows);
        // 4 data bars + 2 legend swatches.
        assert_eq!(s.matches("<rect").count(), 4 + 2 + 1); // +1 background
        assert!(s.contains("bars"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_bar_rows_panic() {
        let rows = vec![("a".to_owned(), vec![1.0])];
        let _ = bars_svg("t", &["x", "y"], &rows);
    }
}
