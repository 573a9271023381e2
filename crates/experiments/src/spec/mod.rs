//! Declarative experiment specs: versioned TOML/JSON documents that
//! describe a machine, workload mixture, estimator stack, fault plan
//! or sweep grid — lowered onto the exact same engines the hard-coded
//! experiment modules use, so `repro run spec.toml` is byte-identical
//! to the equivalent compiled-in path.
//!
//! The contract has three legs:
//!
//! 1. **Strictness.** Unknown keys, misplaced sections, unknown
//!    benchmark/estimator names, and malformed values are rejected at
//!    parse time with a `file:line:`-quality message (the TOML parser
//!    in [`toml`] records a source line for every key). A typo can
//!    never silently change what simulates.
//! 2. **Versioning.** `spec_version` is required and must equal
//!    [`SPEC_VERSION`]; a mismatch is its own error class
//!    ([`SpecError::Version`]) mapped to its own exit code
//!    ([`crate::exitcode::SPEC_VERSION`]), so scripts can distinguish
//!    "wrong spec era" from "bad spec".
//! 3. **Equivalence.** [`RunSpec::lower`] resolves a parsed spec onto
//!    [`crate::faults::Grid`] / the table drivers — never onto a
//!    parallel reimplementation — which is what the CI `specs` lane's
//!    byte-diff gate (spec output vs hard-coded output, `.psnap`
//!    checkpoints included) enforces.
//!
//! See `EXPERIMENTS.md` for the full field reference and an annotated
//! example, and `specs/` for the checked-in spec files mirroring the
//! golden-table experiments.

pub mod toml;

use crate::common::Scale;
use crate::{faults, fig89, table4};
use serde::{Key, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The spec format version this build reads and writes.
pub const SPEC_VERSION: i64 = 1;

/// How a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// `spec_version` present but not [`SPEC_VERSION`] — a different
    /// spec era, distinct from a malformed spec (own exit code).
    Version {
        /// The version the document declared.
        found: i64,
        /// Rendered `file:line: ...` diagnostic.
        message: String,
    },
    /// Everything else: syntax, unknown key, bad name, bad shape.
    Invalid(String),
}

impl SpecError {
    /// The rendered diagnostic.
    #[must_use]
    pub fn message(&self) -> &str {
        match self {
            SpecError::Version { message, .. } => message,
            SpecError::Invalid(m) => m,
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for SpecError {}

/// `[experiment]` — what to run and at what scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSection {
    /// `table2` | `table4` | `fig8` | `fig9` | `faults`.
    pub kind: String,
    /// `tiny` | `quick` | `full`.
    pub scale: String,
    /// Campaign seed (faults only; default 42).
    pub seed: Option<u64>,
}

/// `[workload]` — benchmark mixture for the table/figure experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSection {
    /// SPECint2000 benchmark names, in run order.
    pub benchmarks: Vec<String>,
}

/// `[machine]` — pipeline selection for `fig8`/`fig9`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSection {
    /// `deep` (40-cycle/4-wide) or `wide` (20-cycle/8-wide).
    pub pipeline: String,
}

/// `[estimator]` — Table 4 design points.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSection {
    /// JRS (λ, PL) pairs; `None` = the module's default sweep.
    pub jrs_points: Option<Vec<(i64, i64)>>,
    /// Perceptron thresholds at PL 1; `None` = the module's default.
    pub perceptron_lambdas: Option<Vec<i64>>,
}

/// `[faults]` — the fault-injection sweep grid: either a named preset
/// or explicit axes.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsSection {
    /// Preset grid name (`full` | `small`), exclusive with the axes.
    pub grid: Option<String>,
    /// Estimator axis (`perceptron` | `jrs`).
    pub estimators: Option<Vec<String>>,
    /// Benchmark axis.
    pub benchmarks: Option<Vec<String>>,
    /// Per-access fault-rate axis (each in `[0, 1]`).
    pub rates: Option<Vec<f64>>,
}

/// `[output]` — where results land when the CLI gives no flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputSection {
    /// Directory for the result JSON (CLI `--json` overrides).
    pub json: Option<String>,
    /// Timing-report file for the faults sweep (CLI `--timing`
    /// overrides).
    pub timing: Option<String>,
}

/// One parsed, validated experiment spec.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Format version (always [`SPEC_VERSION`] after a successful
    /// parse).
    pub spec_version: i64,
    /// What to run.
    pub experiment: ExperimentSection,
    /// Benchmark mixture (table/figure kinds).
    pub workload: Option<WorkloadSection>,
    /// Machine selection (`fig8`/`fig9`).
    pub machine: Option<MachineSection>,
    /// Table 4 design points.
    pub estimator: Option<EstimatorSection>,
    /// Fault sweep grid (`faults` kind).
    pub faults: Option<FaultsSection>,
    /// Default output destinations.
    pub output: Option<OutputSection>,
}

/// A spec lowered onto the executable experiment machinery.
#[derive(Debug)]
pub enum Lowered {
    /// Table 2 over a benchmark list.
    Table2 {
        /// Simulation scale.
        scale: Scale,
        /// Benchmarks in run order.
        benchmarks: Vec<perconf_workload::WorkloadConfig>,
    },
    /// Table 4 design points over a benchmark list.
    Table4 {
        /// Simulation scale.
        scale: Scale,
        /// Benchmarks in run order.
        benchmarks: Vec<perconf_workload::WorkloadConfig>,
        /// JRS (λ, PL) points.
        jrs_points: Vec<(u8, u32)>,
        /// Perceptron thresholds at PL 1.
        perceptron_lambdas: Vec<i32>,
    },
    /// Figure 8/9: combined gating + reversal on one machine.
    Fig89 {
        /// Deep or wide machine.
        machine: fig89::Machine,
        /// Simulation scale.
        scale: Scale,
        /// Benchmarks in run order.
        benchmarks: Vec<perconf_workload::WorkloadConfig>,
        /// Output name (`fig8` or `fig9`), preserved from the kind.
        name: String,
    },
    /// The fault-injection resilience sweep.
    Faults {
        /// Simulation scale.
        scale: Scale,
        /// Campaign seed.
        seed: u64,
        /// The sweep grid.
        grid: faults::Grid,
    },
}

impl Lowered {
    /// Number of scheduler cells the lowered experiment submits.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        match self {
            // One cell per (benchmark × pipeline shape).
            Lowered::Table2 { benchmarks, .. } => benchmarks.len() * crate::table2::shapes().len(),
            Lowered::Table4 {
                benchmarks,
                jrs_points,
                perceptron_lambdas,
                ..
            } => {
                // Baselines + one gated run per design point, per
                // benchmark (the table driver's own accounting).
                benchmarks.len() * (1 + jrs_points.len() + perceptron_lambdas.len())
            }
            Lowered::Fig89 { benchmarks, .. } => benchmarks.len(),
            Lowered::Faults { grid, .. } => grid.cell_count(),
        }
    }

    /// One-line human description for `repro run --check`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Lowered::Table2 { benchmarks, .. } => {
                format!("table2 over {} benchmark(s)", benchmarks.len())
            }
            Lowered::Table4 {
                benchmarks,
                jrs_points,
                perceptron_lambdas,
                ..
            } => format!(
                "table4: {} JRS + {} perceptron point(s) over {} benchmark(s)",
                jrs_points.len(),
                perceptron_lambdas.len(),
                benchmarks.len()
            ),
            Lowered::Fig89 {
                name, benchmarks, ..
            } => format!("{name} over {} benchmark(s)", benchmarks.len()),
            Lowered::Faults { seed, grid, .. } => format!(
                "faults sweep: seed {seed}, {}×{}×{} grid ({} cells)",
                grid.estimators.len(),
                grid.benchmarks.len(),
                grid.rates.len(),
                grid.cell_count()
            ),
        }
    }
}

// ------------------------------------------------------------------ //
// Source locations.
// ------------------------------------------------------------------ //

/// Source context for diagnostics: the display name plus (for TOML)
/// the per-key line map.
struct Src {
    file: String,
    lines: BTreeMap<String, u32>,
}

impl Src {
    /// `file:line:` prefix for a dotted key path, degrading to just
    /// `file:` when the path has no recorded line (JSON input, or a
    /// missing-key diagnostic pointing at the enclosing section).
    fn at(&self, path: &str) -> String {
        match self.lines.get(path) {
            Some(l) => format!("{}:{l}", self.file),
            None => match path.rsplit_once('.') {
                // Fall back to the enclosing table's header line.
                Some((parent, _)) => self.at(parent),
                None => self.file.clone(),
            },
        }
    }

    fn err(&self, path: &str, msg: impl std::fmt::Display) -> SpecError {
        SpecError::Invalid(format!("{}: {msg}", self.at(path)))
    }
}

// ------------------------------------------------------------------ //
// Strict tree walking.
// ------------------------------------------------------------------ //

fn fields<'v>(v: &'v Value, path: &str, src: &Src) -> Result<&'v [(Key, Value)], SpecError> {
    match v {
        Value::Object(f) => Ok(f),
        other => Err(src.err(
            path,
            format!("`{path}` must be a table, got {}", kind_name(other)),
        )),
    }
}

fn kind_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
        Value::Str(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "table",
    }
}

/// Rejects the first key not in `allowed`, citing its source line.
fn check_keys(
    obj: &[(Key, Value)],
    prefix: &str,
    allowed: &[&str],
    src: &Src,
) -> Result<(), SpecError> {
    for (k, _) in obj {
        if !allowed.contains(&&**k) {
            let dotted = dotted(prefix, k);
            return Err(src.err(
                &dotted,
                format!(
                    "unknown key `{dotted}` (known keys: {})",
                    allowed.join(", ")
                ),
            ));
        }
    }
    Ok(())
}

fn dotted(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_owned()
    } else {
        format!("{prefix}.{key}")
    }
}

fn get_str(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<String>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Str(s))) => Ok(Some(s.clone())),
        Some((_, other)) => Err(src.err(
            &path,
            format!("`{path}` must be a string, got {}", kind_name(other)),
        )),
    }
}

fn get_int(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<i128>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, v)) => match v.as_int() {
            Some(i) => Ok(Some(i)),
            None => Err(src.err(
                &path,
                format!("`{path}` must be an integer, got {}", kind_name(v)),
            )),
        },
    }
}

fn get_str_array(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<Vec<String>>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Array(items))) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match it {
                    Value::Str(s) => out.push(s.clone()),
                    other => {
                        return Err(src.err(
                            &path,
                            format!(
                                "`{path}` must be an array of strings, found {}",
                                kind_name(other)
                            ),
                        ))
                    }
                }
            }
            Ok(Some(out))
        }
        Some((_, other)) => Err(src.err(
            &path,
            format!("`{path}` must be an array, got {}", kind_name(other)),
        )),
    }
}

fn get_f64_array(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<Vec<f64>>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Array(items))) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match it.as_f64() {
                    Some(f) => out.push(f),
                    None => {
                        return Err(src.err(
                            &path,
                            format!(
                                "`{path}` must be an array of numbers, found {}",
                                kind_name(it)
                            ),
                        ))
                    }
                }
            }
            Ok(Some(out))
        }
        Some((_, other)) => Err(src.err(
            &path,
            format!("`{path}` must be an array, got {}", kind_name(other)),
        )),
    }
}

fn get_int_array(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<Vec<i64>>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Array(items))) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match it.as_int().and_then(|i| i64::try_from(i).ok()) {
                    Some(i) => out.push(i),
                    None => {
                        return Err(src.err(
                            &path,
                            format!(
                                "`{path}` must be an array of integers, found {}",
                                kind_name(it)
                            ),
                        ))
                    }
                }
            }
            Ok(Some(out))
        }
        Some((_, other)) => Err(src.err(
            &path,
            format!("`{path}` must be an array, got {}", kind_name(other)),
        )),
    }
}

/// Array of `[int, int]` pairs (`jrs_points = [[7, 1], [7, 2]]`).
fn get_pair_array(
    obj: &[(Key, Value)],
    prefix: &str,
    key: &str,
    src: &Src,
) -> Result<Option<Vec<(i64, i64)>>, SpecError> {
    let path = dotted(prefix, key);
    match obj.iter().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, Value::Array(items))) => {
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                let pair = match it {
                    Value::Array(p) if p.len() == 2 => {
                        match (
                            p[0].as_int().and_then(|i| i64::try_from(i).ok()),
                            p[1].as_int().and_then(|i| i64::try_from(i).ok()),
                        ) {
                            (Some(a), Some(b)) => Some((a, b)),
                            _ => None,
                        }
                    }
                    _ => None,
                };
                match pair {
                    Some(p) => out.push(p),
                    None => {
                        return Err(src.err(
                            &path,
                            format!("`{path}` must be an array of `[int, int]` pairs"),
                        ))
                    }
                }
            }
            Ok(Some(out))
        }
        Some((_, other)) => Err(src.err(
            &path,
            format!("`{path}` must be an array, got {}", kind_name(other)),
        )),
    }
}

// ------------------------------------------------------------------ //
// Parsing and validation.
// ------------------------------------------------------------------ //

const KINDS: [&str; 5] = ["table2", "table4", "fig8", "fig9", "faults"];
const SCALES: [&str; 3] = ["tiny", "quick", "full"];

fn reject_duplicates(items: &[String], path: &str, src: &Src) -> Result<(), SpecError> {
    for (i, a) in items.iter().enumerate() {
        if items[i + 1..].contains(a) {
            return Err(src.err(path, format!("`{path}` lists `{a}` more than once")));
        }
    }
    Ok(())
}

impl RunSpec {
    /// Parses and validates a TOML spec. `file` is the display name
    /// used in diagnostics.
    ///
    /// # Errors
    ///
    /// [`SpecError::Version`] on a `spec_version` from another era,
    /// [`SpecError::Invalid`] for everything else — both rendered with
    /// `file:line:` positions.
    pub fn parse_toml(text: &str, file: &str) -> Result<Self, SpecError> {
        let (tree, lines) = toml::parse(text)
            .map_err(|e| SpecError::Invalid(format!("{file}:{}: {}", e.line, e.message)))?;
        Self::from_tree(
            &tree,
            &Src {
                file: file.to_owned(),
                lines,
            },
        )
    }

    /// Parses and validates a JSON spec (same schema; diagnostics cite
    /// key paths instead of lines, which JSON input cannot provide).
    ///
    /// # Errors
    ///
    /// Same classes as [`Self::parse_toml`].
    pub fn parse_json(text: &str, file: &str) -> Result<Self, SpecError> {
        let tree: Value =
            serde_json::from_str(text).map_err(|e| SpecError::Invalid(format!("{file}: {e}")))?;
        Self::from_tree(
            &tree,
            &Src {
                file: file.to_owned(),
                lines: BTreeMap::new(),
            },
        )
    }

    /// Reads and parses a spec file, picking the format from the
    /// extension (`.json` = JSON, anything else = TOML).
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`SpecError::Invalid`]; parse failures
    /// as in [`Self::parse_toml`] / [`Self::parse_json`].
    pub fn load(path: &Path) -> Result<Self, SpecError> {
        let name = path.display().to_string();
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Invalid(format!("cannot read {name}: {e}")))?;
        if path.extension().is_some_and(|e| e == "json") {
            Self::parse_json(&text, &name)
        } else {
            Self::parse_toml(&text, &name)
        }
    }

    fn from_tree(tree: &Value, src: &Src) -> Result<Self, SpecError> {
        let root = fields(tree, "", src)
            .map_err(|_| SpecError::Invalid(format!("{}: spec root must be a table", src.file)))?;
        // Version gate first: a future-version spec may legitimately
        // use keys this build has never heard of, so "wrong era" must
        // win over "unknown key".
        let version = get_int(root, "", "spec_version", src)?.ok_or_else(|| {
            src.err(
                "spec_version",
                format!("missing required `spec_version` (current version is {SPEC_VERSION})"),
            )
        })?;
        if version != i128::from(SPEC_VERSION) {
            return Err(SpecError::Version {
                found: i64::try_from(version).unwrap_or(i64::MAX),
                message: format!(
                    "{}: spec_version {version} is not supported (this build reads version \
                     {SPEC_VERSION})",
                    src.at("spec_version")
                ),
            });
        }
        check_keys(
            root,
            "",
            &[
                "spec_version",
                "experiment",
                "workload",
                "machine",
                "estimator",
                "faults",
                "output",
            ],
            src,
        )?;

        // [experiment]
        let exp_v = root
            .iter()
            .find(|(k, _)| k == "experiment")
            .map(|(_, v)| v)
            .ok_or_else(|| src.err("experiment", "missing required `[experiment]` section"))?;
        let exp = fields(exp_v, "experiment", src)?;
        check_keys(exp, "experiment", &["kind", "scale", "seed"], src)?;
        let kind = get_str(exp, "experiment", "kind", src)?
            .ok_or_else(|| src.err("experiment", "missing required `experiment.kind`"))?;
        if !KINDS.contains(&kind.as_str()) {
            return Err(src.err(
                "experiment.kind",
                format!(
                    "unknown experiment kind `{kind}` (known kinds: {})",
                    KINDS.join(", ")
                ),
            ));
        }
        let scale = get_str(exp, "experiment", "scale", src)?.unwrap_or_else(|| "quick".to_owned());
        if !SCALES.contains(&scale.as_str()) {
            return Err(src.err(
                "experiment.scale",
                format!(
                    "unknown scale `{scale}` (known scales: {})",
                    SCALES.join(", ")
                ),
            ));
        }
        let seed =
            match get_int(exp, "experiment", "seed", src)? {
                None => None,
                Some(s) => Some(u64::try_from(s).map_err(|_| {
                    src.err("experiment.seed", "`experiment.seed` must fit in a u64")
                })?),
            };
        if seed.is_some() && kind != "faults" {
            return Err(src.err(
                "experiment.seed",
                "`experiment.seed` only applies to kind = \"faults\" (the table and figure \
                 experiments are seedless)",
            ));
        }

        let spec = RunSpec {
            spec_version: SPEC_VERSION,
            experiment: ExperimentSection { kind, scale, seed },
            workload: Self::parse_workload(root, src)?,
            machine: Self::parse_machine(root, src)?,
            estimator: Self::parse_estimator(root, src)?,
            faults: Self::parse_faults(root, src)?,
            output: Self::parse_output(root, src)?,
        };
        spec.validate(src)?;
        Ok(spec)
    }

    fn parse_workload(
        root: &[(Key, Value)],
        src: &Src,
    ) -> Result<Option<WorkloadSection>, SpecError> {
        let Some((_, v)) = root.iter().find(|(k, _)| k == "workload") else {
            return Ok(None);
        };
        let obj = fields(v, "workload", src)?;
        check_keys(obj, "workload", &["benchmarks"], src)?;
        let benchmarks = get_str_array(obj, "workload", "benchmarks", src)?
            .ok_or_else(|| src.err("workload", "`[workload]` needs a `benchmarks` array"))?;
        Ok(Some(WorkloadSection { benchmarks }))
    }

    fn parse_machine(
        root: &[(Key, Value)],
        src: &Src,
    ) -> Result<Option<MachineSection>, SpecError> {
        let Some((_, v)) = root.iter().find(|(k, _)| k == "machine") else {
            return Ok(None);
        };
        let obj = fields(v, "machine", src)?;
        check_keys(obj, "machine", &["pipeline"], src)?;
        let pipeline = get_str(obj, "machine", "pipeline", src)?
            .ok_or_else(|| src.err("machine", "`[machine]` needs a `pipeline` name"))?;
        Ok(Some(MachineSection { pipeline }))
    }

    fn parse_estimator(
        root: &[(Key, Value)],
        src: &Src,
    ) -> Result<Option<EstimatorSection>, SpecError> {
        let Some((_, v)) = root.iter().find(|(k, _)| k == "estimator") else {
            return Ok(None);
        };
        let obj = fields(v, "estimator", src)?;
        check_keys(obj, "estimator", &["jrs_points", "perceptron_lambdas"], src)?;
        Ok(Some(EstimatorSection {
            jrs_points: get_pair_array(obj, "estimator", "jrs_points", src)?,
            perceptron_lambdas: get_int_array(obj, "estimator", "perceptron_lambdas", src)?,
        }))
    }

    fn parse_faults(root: &[(Key, Value)], src: &Src) -> Result<Option<FaultsSection>, SpecError> {
        let Some((_, v)) = root.iter().find(|(k, _)| k == "faults") else {
            return Ok(None);
        };
        let obj = fields(v, "faults", src)?;
        check_keys(
            obj,
            "faults",
            &["grid", "estimators", "benchmarks", "rates"],
            src,
        )?;
        Ok(Some(FaultsSection {
            grid: get_str(obj, "faults", "grid", src)?,
            estimators: get_str_array(obj, "faults", "estimators", src)?,
            benchmarks: get_str_array(obj, "faults", "benchmarks", src)?,
            rates: get_f64_array(obj, "faults", "rates", src)?,
        }))
    }

    fn parse_output(root: &[(Key, Value)], src: &Src) -> Result<Option<OutputSection>, SpecError> {
        let Some((_, v)) = root.iter().find(|(k, _)| k == "output") else {
            return Ok(None);
        };
        let obj = fields(v, "output", src)?;
        check_keys(obj, "output", &["json", "timing"], src)?;
        Ok(Some(OutputSection {
            json: get_str(obj, "output", "json", src)?,
            timing: get_str(obj, "output", "timing", src)?,
        }))
    }

    /// Cross-field validation: section applicability per kind, known
    /// names, well-formed grids.
    #[allow(clippy::too_many_lines)]
    fn validate(&self, src: &Src) -> Result<(), SpecError> {
        let kind = self.experiment.kind.as_str();
        let known_benches = perconf_workload::SPEC2000_NAMES;

        // Section applicability.
        if self.workload.is_some() && kind == "faults" {
            return Err(src.err(
                "workload",
                "`[workload]` does not apply to kind = \"faults\" — the sweep's benchmark \
                 axis lives in `faults.benchmarks`",
            ));
        }
        if self.machine.is_some() && !matches!(kind, "fig8" | "fig9") {
            return Err(src.err(
                "machine",
                format!("`[machine]` does not apply to kind = \"{kind}\" (fig8/fig9 only)"),
            ));
        }
        if self.estimator.is_some() && kind != "table4" {
            return Err(src.err(
                "estimator",
                format!("`[estimator]` does not apply to kind = \"{kind}\" (table4 only)"),
            ));
        }
        if self.faults.is_some() && kind != "faults" {
            return Err(src.err(
                "faults",
                format!("`[faults]` does not apply to kind = \"{kind}\""),
            ));
        }
        if kind == "faults" && self.faults.is_none() {
            return Err(src.err(
                "experiment.kind",
                "kind = \"faults\" needs a `[faults]` section naming a preset `grid` or \
                 explicit `estimators`/`benchmarks`/`rates` axes",
            ));
        }
        if let Some(out) = &self.output {
            if out.timing.is_some() && kind != "faults" {
                return Err(src.err(
                    "output.timing",
                    "`output.timing` only applies to kind = \"faults\" (only the sweep \
                     produces a per-cell timing report)",
                ));
            }
        }

        // Workload names.
        if let Some(w) = &self.workload {
            if w.benchmarks.is_empty() {
                return Err(src.err("workload.benchmarks", "`workload.benchmarks` is empty"));
            }
            reject_duplicates(&w.benchmarks, "workload.benchmarks", src)?;
            for b in &w.benchmarks {
                if !known_benches.iter().any(|k| k == b) {
                    return Err(src.err(
                        "workload.benchmarks",
                        format!(
                            "unknown benchmark `{b}` (known: {})",
                            known_benches.join(", ")
                        ),
                    ));
                }
            }
        }

        // Machine names.
        if let Some(m) = &self.machine {
            if !matches!(m.pipeline.as_str(), "deep" | "wide") {
                return Err(src.err(
                    "machine.pipeline",
                    format!("unknown pipeline `{}` (known: deep, wide)", m.pipeline),
                ));
            }
        }

        // Table 4 point ranges.
        if let Some(e) = &self.estimator {
            if let Some(points) = &e.jrs_points {
                if points.is_empty() {
                    return Err(src.err("estimator.jrs_points", "`estimator.jrs_points` is empty"));
                }
                for &(l, pl) in points {
                    if u8::try_from(l).is_err() {
                        return Err(src.err(
                            "estimator.jrs_points",
                            format!("JRS λ {l} is out of range (0..=255)"),
                        ));
                    }
                    if !(1..=8).contains(&pl) {
                        return Err(src.err(
                            "estimator.jrs_points",
                            format!("pipeline-gating level {pl} is out of range (1..=8)"),
                        ));
                    }
                }
            }
            if let Some(ls) = &e.perceptron_lambdas {
                if ls.is_empty() {
                    return Err(src.err(
                        "estimator.perceptron_lambdas",
                        "`estimator.perceptron_lambdas` is empty",
                    ));
                }
                for &l in ls {
                    if i32::try_from(l).is_err() {
                        return Err(src.err(
                            "estimator.perceptron_lambdas",
                            format!("perceptron λ {l} is out of range (i32)"),
                        ));
                    }
                }
            }
        }

        // Fault grid.
        if let Some(f) = &self.faults {
            let explicit = f.estimators.is_some() || f.benchmarks.is_some() || f.rates.is_some();
            match (&f.grid, explicit) {
                (Some(_), true) => {
                    return Err(src.err(
                        "faults.grid",
                        "`faults.grid` (preset) and explicit axes are mutually exclusive — \
                         name one or spell out all three",
                    ));
                }
                (Some(name), false) => {
                    if faults::Grid::by_name(name).is_none() {
                        return Err(src.err(
                            "faults.grid",
                            format!("unknown grid preset `{name}` (known: full, small)"),
                        ));
                    }
                }
                (None, _) => {
                    let (Some(ests), Some(benches), Some(rates)) =
                        (&f.estimators, &f.benchmarks, &f.rates)
                    else {
                        return Err(src.err(
                            "faults",
                            "an explicit grid needs all three axes: `estimators`, \
                             `benchmarks` and `rates` (or use a `grid` preset)",
                        ));
                    };
                    if ests.is_empty() || benches.is_empty() || rates.is_empty() {
                        return Err(src.err("faults", "grid axes must be non-empty"));
                    }
                    reject_duplicates(ests, "faults.estimators", src)?;
                    reject_duplicates(benches, "faults.benchmarks", src)?;
                    for e in ests {
                        if !faults::ESTIMATORS.contains(&e.as_str()) {
                            return Err(src.err(
                                "faults.estimators",
                                format!(
                                    "unknown estimator `{e}` (known: {})",
                                    faults::ESTIMATORS.join(", ")
                                ),
                            ));
                        }
                    }
                    for b in benches {
                        if !known_benches.iter().any(|k| k == b) {
                            return Err(src.err(
                                "faults.benchmarks",
                                format!(
                                    "unknown benchmark `{b}` (known: {})",
                                    known_benches.join(", ")
                                ),
                            ));
                        }
                    }
                    for (i, &r) in rates.iter().enumerate() {
                        if !r.is_finite() || !(0.0..=1.0).contains(&r) {
                            return Err(src.err(
                                "faults.rates",
                                format!("rate {r} is not a probability in [0, 1]"),
                            ));
                        }
                        if rates[i + 1..].iter().any(|&o| o.to_bits() == r.to_bits()) {
                            return Err(src.err(
                                "faults.rates",
                                format!("`faults.rates` lists {r} more than once"),
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Lowers the validated spec onto the executable machinery:
    /// resolved workload configs, the concrete [`faults::Grid`], and
    /// the table drivers' native design-point types.
    ///
    /// # Errors
    ///
    /// Only on internal inconsistency (every name was validated at
    /// parse time); callers can treat a failure as a bug.
    pub fn lower(&self) -> Result<Lowered, String> {
        let scale = Scale::by_name(&self.experiment.scale)
            .ok_or_else(|| format!("unknown scale {}", self.experiment.scale))?;
        let resolve_benches = |names: Option<&Vec<String>>| -> Result<Vec<_>, String> {
            match names {
                None => Ok(crate::common::benchmarks()),
                Some(ns) => ns
                    .iter()
                    .map(|n| {
                        perconf_workload::spec2000_config(n)
                            .ok_or_else(|| format!("unknown benchmark {n}"))
                    })
                    .collect(),
            }
        };
        match self.experiment.kind.as_str() {
            "table2" => Ok(Lowered::Table2 {
                scale,
                benchmarks: resolve_benches(self.workload.as_ref().map(|w| &w.benchmarks))?,
            }),
            "table4" => {
                let est = self.estimator.as_ref();
                let jrs_points = match est.and_then(|e| e.jrs_points.as_ref()) {
                    None => table4::default_jrs_points(),
                    Some(ps) => ps
                        .iter()
                        .map(|&(l, pl)| {
                            Ok((
                                u8::try_from(l).map_err(|_| format!("JRS λ {l} out of range"))?,
                                u32::try_from(pl).map_err(|_| format!("PL {pl} out of range"))?,
                            ))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                let perceptron_lambdas = match est.and_then(|e| e.perceptron_lambdas.as_ref()) {
                    None => table4::default_perceptron_lambdas(),
                    Some(ls) => ls
                        .iter()
                        .map(|&l| {
                            i32::try_from(l).map_err(|_| format!("perceptron λ {l} out of range"))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                Ok(Lowered::Table4 {
                    scale,
                    benchmarks: resolve_benches(self.workload.as_ref().map(|w| &w.benchmarks))?,
                    jrs_points,
                    perceptron_lambdas,
                })
            }
            kind @ ("fig8" | "fig9") => {
                let default = if kind == "fig8" { "deep" } else { "wide" };
                let pipeline = self
                    .machine
                    .as_ref()
                    .map_or(default, |m| m.pipeline.as_str());
                let machine = match pipeline {
                    "deep" => fig89::Machine::Deep,
                    "wide" => fig89::Machine::Wide,
                    other => return Err(format!("unknown pipeline {other}")),
                };
                Ok(Lowered::Fig89 {
                    machine,
                    scale,
                    benchmarks: resolve_benches(self.workload.as_ref().map(|w| &w.benchmarks))?,
                    name: kind.to_owned(),
                })
            }
            "faults" => {
                let f = self.faults.as_ref().ok_or("faults spec without [faults]")?;
                let grid = match &f.grid {
                    Some(name) => faults::Grid::by_name(name)
                        .ok_or_else(|| format!("unknown grid preset {name}"))?,
                    None => faults::Grid {
                        estimators: f.estimators.clone().unwrap_or_default(),
                        benchmarks: f.benchmarks.clone().unwrap_or_default(),
                        rates: f.rates.clone().unwrap_or_default(),
                    },
                };
                Ok(Lowered::Faults {
                    scale,
                    seed: self.experiment.seed.unwrap_or(42),
                    grid,
                })
            }
            other => Err(format!("unknown experiment kind {other}")),
        }
    }

    /// Renders the spec as canonical TOML: fixed section and key
    /// order, `None` fields omitted. `parse_toml(to_toml(s)) == s`
    /// for every valid spec (pinned by the round-trip suite).
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "spec_version = {}", self.spec_version);
        let _ = writeln!(out, "\n[experiment]");
        let _ = writeln!(
            out,
            "kind = {}",
            toml::render_value(&Value::Str(self.experiment.kind.clone()))
        );
        let _ = writeln!(
            out,
            "scale = {}",
            toml::render_value(&Value::Str(self.experiment.scale.clone()))
        );
        if let Some(seed) = self.experiment.seed {
            let _ = writeln!(out, "seed = {seed}");
        }
        if let Some(w) = &self.workload {
            let _ = writeln!(out, "\n[workload]");
            let _ = writeln!(
                out,
                "benchmarks = {}",
                toml::render_value(&Value::Array(
                    w.benchmarks.iter().map(|b| Value::Str(b.clone())).collect()
                ))
            );
        }
        if let Some(m) = &self.machine {
            let _ = writeln!(out, "\n[machine]");
            let _ = writeln!(
                out,
                "pipeline = {}",
                toml::render_value(&Value::Str(m.pipeline.clone()))
            );
        }
        if let Some(e) = &self.estimator {
            let _ = writeln!(out, "\n[estimator]");
            if let Some(points) = &e.jrs_points {
                let _ = writeln!(
                    out,
                    "jrs_points = {}",
                    toml::render_value(&Value::Array(
                        points
                            .iter()
                            .map(|&(l, pl)| Value::Array(vec![Value::Int(l), Value::Int(pl)]))
                            .collect()
                    ))
                );
            }
            if let Some(ls) = &e.perceptron_lambdas {
                let _ = writeln!(
                    out,
                    "perceptron_lambdas = {}",
                    toml::render_value(&Value::Array(ls.iter().map(|&l| Value::Int(l)).collect()))
                );
            }
        }
        if let Some(f) = &self.faults {
            let _ = writeln!(out, "\n[faults]");
            if let Some(g) = &f.grid {
                let _ = writeln!(out, "grid = {}", toml::render_value(&Value::Str(g.clone())));
            }
            if let Some(es) = &f.estimators {
                let _ = writeln!(
                    out,
                    "estimators = {}",
                    toml::render_value(&Value::Array(
                        es.iter().map(|e| Value::Str(e.clone())).collect()
                    ))
                );
            }
            if let Some(bs) = &f.benchmarks {
                let _ = writeln!(
                    out,
                    "benchmarks = {}",
                    toml::render_value(&Value::Array(
                        bs.iter().map(|b| Value::Str(b.clone())).collect()
                    ))
                );
            }
            if let Some(rs) = &f.rates {
                let _ = writeln!(
                    out,
                    "rates = {}",
                    toml::render_value(&Value::Array(
                        rs.iter().map(|&r| Value::Float(r)).collect()
                    ))
                );
            }
        }
        if let Some(o) = &self.output {
            let _ = writeln!(out, "\n[output]");
            if let Some(j) = &o.json {
                let _ = writeln!(out, "json = {}", toml::render_value(&Value::Str(j.clone())));
            }
            if let Some(t) = &o.timing {
                let _ = writeln!(
                    out,
                    "timing = {}",
                    toml::render_value(&Value::Str(t.clone()))
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULTS_SPEC: &str = r#"
spec_version = 1

[experiment]
kind = "faults"
scale = "tiny"
seed = 7

[faults]
estimators = ["jrs"]
benchmarks = ["gcc", "twolf"]
rates = [0.0, 1e-2]
"#;

    #[test]
    fn parses_and_lowers_an_explicit_faults_grid() {
        let spec = RunSpec::parse_toml(FAULTS_SPEC, "t.toml").expect("parses");
        let Lowered::Faults { seed, grid, .. } = spec.lower().expect("lowers") else {
            panic!("not a faults lowering");
        };
        assert_eq!(seed, 7);
        assert_eq!(grid, faults::Grid::small());
    }

    #[test]
    fn version_mismatch_is_its_own_error_class() {
        let text = FAULTS_SPEC.replace("spec_version = 1", "spec_version = 99");
        match RunSpec::parse_toml(&text, "t.toml") {
            Err(SpecError::Version { found, message }) => {
                assert_eq!(found, 99);
                assert!(message.starts_with("t.toml:2:"), "{message}");
            }
            other => panic!("expected a version error, got {other:?}"),
        }
        // Missing entirely is Invalid, not Version.
        let text = FAULTS_SPEC.replace("spec_version = 1", "");
        assert!(matches!(
            RunSpec::parse_toml(&text, "t.toml"),
            Err(SpecError::Invalid(_))
        ));
    }

    #[test]
    fn unknown_keys_cite_file_and_line() {
        let text = FAULTS_SPEC.replace("seed = 7", "sede = 7");
        let e = RunSpec::parse_toml(&text, "bad.toml").unwrap_err();
        let msg = e.message();
        assert!(msg.starts_with("bad.toml:7:"), "{msg}");
        assert!(msg.contains("unknown key `experiment.sede`"), "{msg}");
    }

    #[test]
    fn misplaced_sections_are_rejected() {
        let text = format!("{FAULTS_SPEC}\n[machine]\npipeline = \"deep\"\n");
        let e = RunSpec::parse_toml(&text, "t.toml").unwrap_err();
        assert!(e.message().contains("does not apply"), "{e}");
        let table2_with_faults = r#"
spec_version = 1
[experiment]
kind = "table2"
[faults]
grid = "small"
"#;
        let e = RunSpec::parse_toml(table2_with_faults, "t.toml").unwrap_err();
        assert!(e.message().contains("`[faults]` does not apply"), "{e}");
    }

    #[test]
    fn grid_preset_and_axes_are_exclusive_and_validated() {
        let both = FAULTS_SPEC.replace("estimators = ", "grid = \"small\"\nestimators = ");
        assert!(RunSpec::parse_toml(&both, "t.toml")
            .unwrap_err()
            .message()
            .contains("mutually exclusive"));
        let bad_rate = FAULTS_SPEC.replace("rates = [0.0, 1e-2]", "rates = [0.0, 1.5]");
        assert!(RunSpec::parse_toml(&bad_rate, "t.toml")
            .unwrap_err()
            .message()
            .contains("not a probability"));
        let bad_est = FAULTS_SPEC.replace("[\"jrs\"]", "[\"oracle\"]");
        assert!(RunSpec::parse_toml(&bad_est, "t.toml")
            .unwrap_err()
            .message()
            .contains("unknown estimator"));
        let bad_bench = FAULTS_SPEC.replace("\"twolf\"", "\"doom\"");
        assert!(RunSpec::parse_toml(&bad_bench, "t.toml")
            .unwrap_err()
            .message()
            .contains("unknown benchmark"));
    }

    #[test]
    fn canonical_toml_round_trips() {
        let spec = RunSpec::parse_toml(FAULTS_SPEC, "t.toml").expect("parses");
        let rendered = spec.to_toml();
        let back = RunSpec::parse_toml(&rendered, "t.toml").expect("reparses");
        assert_eq!(spec, back);
    }

    #[test]
    fn json_specs_parse_with_the_same_schema() {
        let json = r#"{
            "spec_version": 1,
            "experiment": {"kind": "table2", "scale": "tiny"},
            "workload": {"benchmarks": ["gcc", "mcf"]}
        }"#;
        let spec = RunSpec::parse_json(json, "t.json").expect("parses");
        let Lowered::Table2 { benchmarks, .. } = spec.lower().expect("lowers") else {
            panic!("not table2");
        };
        assert_eq!(benchmarks.len(), 2);
        // Unknown keys are rejected in JSON too (path-quality message).
        let bad = json.replace("\"benchmarks\"", "\"benchmark\"");
        let e = RunSpec::parse_json(&bad, "t.json").unwrap_err();
        assert!(
            e.message().contains("unknown key `workload.benchmark`"),
            "{e}"
        );
    }

    #[test]
    fn defaults_fill_scale_seed_and_benchmarks() {
        let minimal = "spec_version = 1\n[experiment]\nkind = \"table2\"\n";
        let spec = RunSpec::parse_toml(minimal, "t.toml").expect("parses");
        assert_eq!(spec.experiment.scale, "quick");
        let Lowered::Table2 { benchmarks, .. } = spec.lower().expect("lowers") else {
            panic!("not table2");
        };
        assert_eq!(benchmarks.len(), crate::common::benchmarks().len());
    }
}
