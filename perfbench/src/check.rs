//! Output checks: the Table 2 goldens, the result digests recorded for
//! seed 42, and the per-operation comparison that turns any mismatch
//! into a failed operation.

use perconf_experiments::table2::Table2;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// The seed whose inputs are the paper configuration the goldens pin.
pub const GOLDEN_SEED: u64 = 42;

/// Relative tolerance of the golden comparison (the golden suite's).
const RTOL: f64 = 1e-9;

const GOLDEN_TABLE2: &str = include_str!("../../crates/experiments/tests/golden/table2_tiny.json");

/// Result digests recorded for seed 42, per workload (see
/// `expected_seed42.json`).
const RECORDED: &str = include_str!("../expected_seed42.json");

/// FNV digest of a value's JSON encoding.
#[must_use]
pub fn digest_json<T: Serialize>(v: &T) -> u64 {
    perconf_bpred::digest_bytes(serde_json::to_string(v).expect("serialize").as_bytes())
}

/// Digest of the Table 2 fields one (benchmark, shape) cell fills in:
/// executed and fetched waste, plus mispredicts per 1000 uops on the
/// shape the table reports it for.
#[must_use]
pub fn table2_cell_digest(executed: f64, fetched: f64, mpku: Option<f64>) -> u64 {
    perconf_bpred::digest_bytes(format!("{executed:?}|{fetched:?}|{mpku:?}").as_bytes())
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= RTOL * a.abs().max(b.abs()).max(1e-300)
}

/// Every difference between `table` and the golden Table 2 rows it
/// covers (`gcc`, `mcf` and `twolf` at seed 42), as readable lines.
#[must_use]
pub fn table2_golden_mismatches(table: &Table2) -> Vec<String> {
    let golden: Value = serde_json::from_str(GOLDEN_TABLE2).expect("golden file parses");
    let actual = serde_json::to_value(table).expect("serialize table");
    let rows = |v: &Value| match v.get("rows") {
        Some(Value::Array(rows)) => rows.clone(),
        _ => Vec::new(),
    };
    let actual_rows = rows(&actual);
    let mut out = Vec::new();
    for g in rows(&golden) {
        let bench = g.get("bench").cloned();
        let Some(a) = actual_rows
            .iter()
            .find(|r| r.get("bench").cloned() == bench)
        else {
            out.push(format!("row {bench:?} missing"));
            continue;
        };
        let mut pairs = vec![("mpku".to_owned(), g.get("mpku"), a.get("mpku"))];
        if let (Some(Value::Array(gw)), Some(Value::Array(aw))) = (g.get("waste"), a.get("waste")) {
            for (i, (gp, ap)) in gw.iter().zip(aw).enumerate() {
                for f in ["executed", "fetched"] {
                    pairs.push((format!("waste[{i}].{f}"), gp.get(f), ap.get(f)));
                }
            }
        }
        for (field, gv, av) in pairs {
            match (gv.and_then(as_f64), av.and_then(as_f64)) {
                (Some(e), Some(x)) if close(x, e) => {}
                (e, x) => out.push(format!("{bench:?}.{field}: {x:?} != golden {e:?}")),
            }
        }
    }
    out
}

/// The digests recorded for `workload` at seed 42, in operation order.
#[must_use]
pub fn recorded(workload: &str) -> Vec<u64> {
    let v: Value = serde_json::from_str(RECORDED).expect("recorded digests parse");
    match v.get(workload) {
        Some(Value::Array(xs)) => xs
            .iter()
            .filter_map(|x| match x {
                Value::Str(s) => u64::from_str_radix(s, 16).ok(),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Checks `digests` against the ones recorded for `workload` at seed
/// 42; the error names both sides so a deliberate change can record
/// the new values.
///
/// # Errors
///
/// Returns a message when the digests differ.
pub fn check_recorded(workload: &str, digests: &[u64]) -> Result<(), String> {
    if recorded(workload) == digests {
        return Ok(());
    }
    let hex: Vec<String> = digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
    Err(format!(
        "{workload}: result digests [{}] differ from the ones recorded for seed {GOLDEN_SEED}",
        hex.join(", ")
    ))
}

/// Operations whose output differs from what `expected` holds for
/// their key (a key with no expectation counts as different).
#[must_use]
pub fn mismatches(outputs: &[(String, u64)], expected: &BTreeMap<String, u64>) -> u64 {
    outputs
        .iter()
        .filter(|(key, d)| expected.get(key) != Some(d))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Table2 {
        serde_json::from_str(GOLDEN_TABLE2).expect("golden parses as Table2")
    }

    #[test]
    fn golden_table_matches_itself() {
        assert!(table2_golden_mismatches(&golden()).is_empty());
    }

    #[test]
    fn a_one_value_perturbation_is_caught() {
        let mut t = golden();
        t.rows[1].waste[2].fetched *= 1.0 + 1e-6;
        let found = table2_golden_mismatches(&t);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("waste[2].fetched"));
        assert_ne!(digest_json(&t), digest_json(&golden()));

        // The same perturbation, seen per operation, fails exactly the
        // one cell it touched.
        let cells = |t: &Table2| -> Vec<(String, u64)> {
            t.rows
                .iter()
                .flat_map(|r| {
                    (0..3).map(move |s| {
                        let w = r.waste[s];
                        let key = format!("{}-s{s}", r.bench);
                        (
                            key,
                            table2_cell_digest(w.executed, w.fetched, (s == 2).then_some(r.mpku)),
                        )
                    })
                })
                .collect()
        };
        let expected: BTreeMap<String, u64> = cells(&golden()).into_iter().collect();
        assert_eq!(mismatches(&cells(&golden()), &expected), 0);
        assert_eq!(mismatches(&cells(&t), &expected), 1);
    }

    #[test]
    fn recorded_digests_exist_for_every_workload() {
        assert_eq!(recorded("table2").len(), 1);
        assert_eq!(recorded("faults-b4").len(), 1);
        assert_eq!(recorded("serve-mix").len(), 6);
        assert!(check_recorded("table2", &[0]).is_err());
    }
}
