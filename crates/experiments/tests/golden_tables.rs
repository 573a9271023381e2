//! Golden-value regression suite: reduced-scale runs of Table 2,
//! Table 3 (all eight estimator design points over the twelve
//! benchmarks), the Figures 4–7 output densities, Table 4 (two
//! estimators × representative design points), and the Figure 8
//! reversal+gating combination, compared field-by-field against
//! checked-in expected JSON under `tests/golden/`.
//!
//! The simulator is bit-deterministic, so the tolerance is tight
//! (1e-9 relative): these tests exist to catch *any* unintended change
//! to simulation results — a new feature that shifts numbers must
//! consciously regenerate the goldens and justify the diff.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! cargo test -p perconf-experiments --test golden_tables -- --ignored
//! ```

use perconf_experiments::common::{jrs, perceptron, BaselineSet, PredictorKind};
use perconf_experiments::table4::{Table4, Table4Row};
use perconf_experiments::{fig89, figs, table2, table3, Scale};
use perconf_pipeline::PipelineConfig;
use serde::{Key, Value};
use std::path::PathBuf;

/// Relative tolerance for float fields. The runs are deterministic;
/// this only absorbs numeric-formatting round trips.
const RTOL: f64 = 1e-9;

fn benches() -> Vec<perconf_workload::WorkloadConfig> {
    ["gcc", "mcf", "twolf"]
        .iter()
        .map(|b| perconf_workload::spec2000_config(b).expect("known benchmark"))
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

// ---------------------------------------------------------------- //
// The three reduced-scale experiments under golden protection.
// ---------------------------------------------------------------- //

fn reduced_table2() -> table2::Table2 {
    table2::run_on(Scale::tiny(), &benches())
}

/// Table 3 at tiny scale: every trace-level design point over the
/// twelve benchmarks.
fn reduced_table3() -> table3::Table3 {
    table3::run(Scale::tiny())
}

/// Figures 4–5 at tiny scale: the `perceptron_cic` output density on
/// gcc, full range and zoomed.
fn reduced_fig45() -> figs::FigDensity {
    figs::run(figs::Training::CorrectIncorrect, "gcc", Scale::tiny())
}

/// Figures 6–7 at tiny scale: the same for `perceptron_tnt`.
fn reduced_fig67() -> figs::FigDensity {
    figs::run(figs::Training::TakenNotTaken, "gcc", Scale::tiny())
}

/// Representative Table 4 design points: the paper's midrange JRS
/// point (λ=7) at two branch-counter thresholds, and the perceptron at
/// its aggressive (λ=0) and conservative (λ=−25) thresholds.
fn reduced_table4() -> Table4 {
    let baselines = BaselineSet::build_on(
        PredictorKind::BimodalGshare,
        PipelineConfig::deep(),
        Scale::tiny(),
        benches(),
    );
    let jrs_rows = [(7u8, 1u32), (7, 2)]
        .iter()
        .map(|&(l, pl)| Table4Row {
            lambda: i32::from(l),
            pl,
            outcome: perconf_experiments::table4::run_point(&baselines, &|| jrs(l), pl),
        })
        .collect();
    let perc_rows = [0i32, -25]
        .iter()
        .map(|&l| Table4Row {
            lambda: l,
            pl: 1,
            outcome: perconf_experiments::table4::run_point(&baselines, &|| perceptron(l), 1),
        })
        .collect();
    Table4 {
        jrs: jrs_rows,
        perceptron: perc_rows,
    }
}

/// The Figure 8 combination cells: reversal + gating on the deep
/// machine, per benchmark.
fn reduced_fig8() -> fig89::Fig8 {
    fig89::run_on(fig89::Machine::Deep, Scale::tiny(), benches())
}

// ---------------------------------------------------------------- //
// Tolerant structural comparison over serde value trees.
// ---------------------------------------------------------------- //

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= RTOL * scale.max(1e-300) || (a - b).abs() <= f64::EPSILON
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Collects every mismatch between `actual` and `expected`, naming
/// the JSON path so a failure pinpoints the drifted field.
fn diff(path: &str, actual: &Value, expected: &Value, out: &mut Vec<String>) {
    if let (Some(a), Some(e)) = (as_f64(actual), as_f64(expected)) {
        if !close(a, e) {
            out.push(format!("{path}: {a} != {e}"));
        }
        return;
    }
    match (actual, expected) {
        (Value::Null, Value::Null) => {}
        (Value::Bool(a), Value::Bool(e)) if a == e => {}
        (Value::Str(a), Value::Str(e)) if a == e => {}
        (Value::Array(a), Value::Array(e)) => {
            if a.len() != e.len() {
                out.push(format!("{path}: array len {} != {}", a.len(), e.len()));
                return;
            }
            for (i, (av, ev)) in a.iter().zip(e).enumerate() {
                diff(&format!("{path}[{i}]"), av, ev, out);
            }
        }
        (Value::Object(a), Value::Object(e)) => {
            let keys = |o: &[(Key, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(a) != keys(e) {
                out.push(format!("{path}: keys {:?} != {:?}", keys(a), keys(e)));
                return;
            }
            for ((k, av), (_, ev)) in a.iter().zip(e) {
                diff(&format!("{path}.{k}"), av, ev, out);
            }
        }
        _ => out.push(format!("{path}: {actual:?} != {expected:?}")),
    }
}

fn assert_matches_golden(name: &str, actual: &impl serde::Serialize) {
    let path = golden_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); regenerate with \
             `cargo test -p perconf-experiments --test golden_tables -- --ignored`",
            path.display()
        )
    });
    let expected: Value = serde_json::from_str(&text).expect("golden file parses");
    let actual = serde_json::to_value(actual).expect("serialize actual");
    let mut mismatches = Vec::new();
    diff("$", &actual, &expected, &mut mismatches);
    assert!(
        mismatches.is_empty(),
        "{name} drifted from its golden values:\n  {}",
        mismatches.join("\n  ")
    );
}

// ---------------------------------------------------------------- //
// The golden tests.
// ---------------------------------------------------------------- //

#[test]
fn table2_matches_golden() {
    assert_matches_golden("table2_tiny.json", &reduced_table2());
}

#[test]
fn table3_matches_golden() {
    assert_matches_golden("table3_tiny.json", &reduced_table3());
}

#[test]
fn fig45_matches_golden() {
    assert_matches_golden("fig45_tiny.json", &reduced_fig45());
}

#[test]
fn fig67_matches_golden() {
    assert_matches_golden("fig67_tiny.json", &reduced_fig67());
}

#[test]
fn table4_matches_golden() {
    assert_matches_golden("table4_tiny.json", &reduced_table4());
}

#[test]
fn fig8_combo_matches_golden() {
    assert_matches_golden("fig8_combo_tiny.json", &reduced_fig8());
}

// ---------------------------------------------------------------- //
// Spec pinning: the checked-in `specs/*.toml` files must lower to
// exactly the golden-protected experiments. A drift in either the
// spec or the lowering shows up as a golden mismatch here.
// ---------------------------------------------------------------- //

fn load_spec(name: &str) -> perconf_experiments::spec::Lowered {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .join(name);
    perconf_experiments::spec::RunSpec::load(&path)
        .unwrap_or_else(|e| panic!("{name} parses: {}", e.message()))
        .lower()
        .unwrap_or_else(|e| panic!("{name} lowers: {e}"))
}

#[test]
fn table2_spec_lowers_to_the_golden_experiment() {
    use perconf_experiments::spec::Lowered;
    let Lowered::Table2 { scale, benchmarks } = load_spec("table2_reduced.toml") else {
        panic!("table2_reduced.toml must lower to Table2");
    };
    assert_eq!(scale, Scale::tiny());
    assert_matches_golden("table2_tiny.json", &table2::run_on(scale, &benchmarks));
}

#[test]
fn table4_spec_lowers_to_the_golden_experiment() {
    use perconf_experiments::spec::Lowered;
    let Lowered::Table4 {
        scale,
        benchmarks,
        jrs_points,
        perceptron_lambdas,
    } = load_spec("table4_reduced.toml")
    else {
        panic!("table4_reduced.toml must lower to Table4");
    };
    assert_eq!(jrs_points, vec![(7, 1), (7, 2)]);
    assert_eq!(perceptron_lambdas, vec![0, -25]);
    assert_matches_golden(
        "table4_tiny.json",
        &perconf_experiments::table4::run_points(
            scale,
            benchmarks,
            &jrs_points,
            &perceptron_lambdas,
        ),
    );
}

#[test]
fn fig8_spec_lowers_to_the_golden_experiment() {
    use perconf_experiments::spec::Lowered;
    let Lowered::Fig89 {
        machine,
        scale,
        benchmarks,
        ..
    } = load_spec("fig8_reduced.toml")
    else {
        panic!("fig8_reduced.toml must lower to Fig89");
    };
    assert!(matches!(machine, fig89::Machine::Deep));
    assert_matches_golden(
        "fig8_combo_tiny.json",
        &fig89::run_on(machine, scale, benchmarks),
    );
}

#[test]
fn faults_specs_lower_to_the_named_presets() {
    use perconf_experiments::{faults, spec::Lowered};
    let Lowered::Faults { seed, grid, .. } = load_spec("faults_small.toml") else {
        panic!("faults_small.toml must lower to Faults");
    };
    assert_eq!((seed, grid), (42, faults::Grid::small()));
    let Lowered::Faults { seed, grid, .. } = load_spec("faults_full.toml") else {
        panic!("faults_full.toml must lower to Faults");
    };
    assert_eq!((seed, grid), (42, faults::Grid::full()));
}

/// The comparator itself must reject perturbed values — a golden suite
/// with a too-loose tolerance protects nothing.
#[test]
fn comparator_rejects_perturbed_values() {
    let t = reduced_table2();
    let good = serde_json::to_value(&t).expect("serialize");

    fn perturb_first_float(v: &mut Value) -> bool {
        match v {
            Value::Float(f) if *f != 0.0 => {
                *f *= 1.0 + 1e-6; // far above RTOL, far below eyeball
                true
            }
            Value::Array(a) => a.iter_mut().any(perturb_first_float),
            Value::Object(o) => o.iter_mut().any(|(_, v)| perturb_first_float(v)),
            _ => false,
        }
    }
    let mut bad = good.clone();
    assert!(perturb_first_float(&mut bad), "found a float to perturb");

    let mut mismatches = Vec::new();
    diff("$", &bad, &good, &mut mismatches);
    assert!(
        !mismatches.is_empty(),
        "a 1e-6 relative perturbation must fail the comparison"
    );
    // And the unperturbed tree passes against itself.
    let mut clean = Vec::new();
    diff("$", &good, &good, &mut clean);
    assert!(clean.is_empty());
}

// ---------------------------------------------------------------- //
// Regeneration (run explicitly with --ignored after intended changes).
// ---------------------------------------------------------------- //

#[test]
#[ignore = "writes tests/golden/*.json; run after intentional result changes"]
fn regenerate_golden_files() {
    std::fs::create_dir_all(golden_path("")).expect("create golden dir");
    let write = |name: &str, v: &dyn erased::Ser| {
        let text = v.pretty();
        std::fs::write(golden_path(name), text + "\n").expect("write golden");
        println!("wrote {}", golden_path(name).display());
    };
    write("table2_tiny.json", &reduced_table2());
    write("table3_tiny.json", &reduced_table3());
    write("fig45_tiny.json", &reduced_fig45());
    write("fig67_tiny.json", &reduced_fig67());
    write("table4_tiny.json", &reduced_table4());
    write("fig8_combo_tiny.json", &reduced_fig8());
}

/// Object-safe serialization shim so the regenerate closure can take
/// heterogeneous tables.
mod erased {
    pub trait Ser {
        fn pretty(&self) -> String;
    }
    impl<T: serde::Serialize> Ser for T {
        fn pretty(&self) -> String {
            serde_json::to_string_pretty(self).expect("serialize golden")
        }
    }
}
