//! Findings and their rustc-style rendering / JSON report form.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`snapshot-completeness`, ...).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or justify it.
    pub help: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.file, self.line, self.col)?;
        write!(f, "   = help: {}", self.help)
    }
}

impl Finding {
    /// The finding as a JSON-ready value tree.
    #[must_use]
    pub fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("rule".into(), serde::Value::Str(self.rule.to_owned())),
            ("file".into(), serde::Value::Str(self.file.clone())),
            ("line".into(), serde::Value::UInt(u64::from(self.line))),
            ("column".into(), serde::Value::UInt(u64::from(self.col))),
            ("message".into(), serde::Value::Str(self.message.clone())),
            ("help".into(), serde::Value::Str(self.help.clone())),
        ])
    }
}

/// The whole run as a JSON report: per-rule counts plus every
/// finding, stable-ordered so CI artifact diffs are meaningful.
#[must_use]
pub fn report_value(findings: &[Finding], files_scanned: usize) -> serde::Value {
    let mut by_rule: Vec<(String, u64)> = Vec::new();
    for f in findings {
        match by_rule.iter_mut().find(|(r, _)| r == f.rule) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((f.rule.to_owned(), 1)),
        }
    }
    serde::Value::Object(vec![
        (
            "files_scanned".into(),
            serde::Value::UInt(files_scanned as u64),
        ),
        (
            "total_findings".into(),
            serde::Value::UInt(findings.len() as u64),
        ),
        (
            "findings_by_rule".into(),
            serde::Value::Object(
                by_rule
                    .into_iter()
                    .map(|(r, n)| (r.into(), serde::Value::UInt(n)))
                    .collect(),
            ),
        ),
        (
            "findings".into(),
            serde::Value::Array(findings.iter().map(Finding::to_value).collect()),
        ),
    ])
}
