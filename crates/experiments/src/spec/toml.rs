//! Minimal TOML-subset parser for experiment specs.
//!
//! The build environment vendors its dependencies, and no TOML crate
//! is among them — which turns out to be a feature: spec diagnostics
//! need per-key source lines (`spec.toml:12: unknown key ...`), and a
//! hand-rolled parser can record them for free where an off-the-shelf
//! value tree would have dropped them.
//!
//! Supported grammar (a strict subset of TOML 1.0):
//!
//! - `# comments`, blank lines
//! - `[table]` and `[table.subtable]` headers (each at most once)
//! - `key = value` with bare keys (`[A-Za-z0-9_-]+`)
//! - values: basic strings (`"..."` with `\\ \" \n \t \r` escapes),
//!   booleans, integers (`_` separators allowed), floats (decimal
//!   point and/or exponent), and single-line arrays — nestable, e.g.
//!   `[[7, 1], [7, 2]]`
//!
//! Out of scope (rejected with an error, never misparsed): dotted
//! keys, inline tables, multi-line strings and arrays, dates, and
//! array-of-tables headers. Specs are small; every construct they
//! need fits on one line.
//!
//! [`parse`] returns the document as a vendored [`serde::Value`]
//! object tree plus a [`SourceMap`] from dotted key paths to the
//! 1-based source line each key (or table header) appeared on.

use serde::{Key, Value};
use std::collections::BTreeMap;

/// Dotted key path (`"faults.rates"`) → 1-based source line.
pub type SourceMap = BTreeMap<String, u32>;

/// A parse failure, with the line it happened on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based source line.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn err<T>(line: u32, message: impl Into<String>) -> Result<T, TomlError> {
    Err(TomlError {
        line,
        message: message.into(),
    })
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Parses a spec document into a value tree plus the per-key line map.
///
/// # Errors
///
/// Returns a [`TomlError`] naming the offending line for any syntax
/// error, duplicate key, or construct outside the supported subset.
pub fn parse(text: &str) -> Result<(Value, SourceMap), TomlError> {
    let mut root: Vec<(Key, Value)> = Vec::new();
    let mut lines_map: SourceMap = BTreeMap::new();
    // Dotted path of the currently open `[table]` (empty = root).
    let mut current: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx + 1).unwrap_or(u32::MAX);
        let line = strip_comment(raw, lineno)?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if rest.starts_with('[') {
                return err(lineno, "array-of-tables `[[...]]` is not supported");
            }
            let Some(inner) = rest.strip_suffix(']') else {
                return err(lineno, "table header is missing the closing `]`");
            };
            let path = parse_header_path(inner.trim(), lineno)?;
            let dotted = path.join(".");
            if lines_map.contains_key(&dotted) {
                return err(lineno, format!("duplicate table `[{dotted}]`"));
            }
            lines_map.insert(dotted, lineno);
            open_table(&mut root, &path, lineno)?;
            current = path;
            continue;
        }
        let Some(eq) = find_top_level_eq(line) else {
            return err(
                lineno,
                "expected `key = value` or a `[table]` header".to_owned(),
            );
        };
        let key = line[..eq].trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return err(
                lineno,
                format!("`{key}` is not a bare key (dotted and quoted keys are not supported)"),
            );
        }
        let (value, rest) = parse_value(line[eq + 1..].trim(), lineno)?;
        if !rest.trim().is_empty() {
            return err(lineno, format!("trailing content after value: `{rest}`"));
        }
        let dotted = if current.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", current.join("."))
        };
        if lines_map.contains_key(&dotted) {
            return err(lineno, format!("duplicate key `{dotted}`"));
        }
        lines_map.insert(dotted, lineno);
        insert_key(&mut root, &current, key, value, lineno)?;
    }
    Ok((Value::Object(root), lines_map))
}

/// Removes a trailing `# comment`, respecting string literals.
fn strip_comment(line: &str, lineno: u32) -> Result<&str, TomlError> {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return Ok(&line[..i]),
            _ => {}
        }
    }
    if in_str {
        return err(lineno, "unterminated string literal");
    }
    Ok(line)
}

fn parse_header_path(inner: &str, lineno: u32) -> Result<Vec<String>, TomlError> {
    if inner.is_empty() {
        return err(lineno, "empty table header `[]`");
    }
    let mut path = Vec::new();
    for part in inner.split('.') {
        let part = part.trim();
        if part.is_empty() || !part.chars().all(is_bare_key_char) {
            return err(lineno, format!("`[{inner}]` is not a bare table header"));
        }
        path.push(part.to_owned());
    }
    Ok(path)
}

/// Finds the `=` separating key from value (specs never quote keys,
/// so the first `=` outside a string is it).
fn find_top_level_eq(line: &str) -> Option<usize> {
    line.find('=')
}

/// Walks/creates the nested object path for a `[table]` header.
fn open_table(root: &mut Vec<(Key, Value)>, path: &[String], lineno: u32) -> Result<(), TomlError> {
    let mut fields = root;
    for part in path {
        let pos = fields.iter().position(|(k, _)| k == part);
        let slot = match pos {
            Some(p) => p,
            None => {
                fields.push((part.clone().into(), Value::Object(Vec::new())));
                fields.len() - 1
            }
        };
        match &mut fields[slot].1 {
            Value::Object(inner) => fields = inner,
            _ => return err(lineno, format!("`{part}` is already a value, not a table")),
        }
    }
    Ok(())
}

fn insert_key(
    root: &mut Vec<(Key, Value)>,
    table: &[String],
    key: &str,
    value: Value,
    lineno: u32,
) -> Result<(), TomlError> {
    let mut fields = root;
    for part in table {
        let pos = fields
            .iter()
            .position(|(k, _)| k == part)
            .expect("table opened by header");
        match &mut fields[pos].1 {
            Value::Object(inner) => fields = inner,
            _ => return err(lineno, format!("`{part}` is not a table")),
        }
    }
    if fields.iter().any(|(k, _)| k == key) {
        return err(lineno, format!("duplicate key `{key}`"));
    }
    fields.push((key.to_owned().into(), value));
    Ok(())
}

/// Parses one value from the front of `s`; returns it and the unread
/// remainder (so array elements can recurse).
fn parse_value(s: &str, lineno: u32) -> Result<(Value, &str), TomlError> {
    let s = s.trim_start();
    let Some(first) = s.chars().next() else {
        return err(lineno, "missing value after `=`");
    };
    match first {
        '"' => parse_string(s, lineno),
        '[' => parse_array(s, lineno),
        't' | 'f' => {
            if let Some(rest) = s.strip_prefix("true") {
                Ok((Value::Bool(true), rest))
            } else if let Some(rest) = s.strip_prefix("false") {
                Ok((Value::Bool(false), rest))
            } else {
                err(lineno, format!("unrecognised value `{s}`"))
            }
        }
        c if c == '+' || c == '-' || c.is_ascii_digit() => parse_number(s, lineno),
        _ => err(lineno, format!("unrecognised value `{s}`")),
    }
}

fn parse_string(s: &str, lineno: u32) -> Result<(Value, &str), TomlError> {
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1);
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((Value::Str(out), &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '\\')) => out.push('\\'),
                Some((_, '"')) => out.push('"'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => return err(lineno, format!("unsupported escape `\\{other}`")),
                None => return err(lineno, "unterminated string literal"),
            },
            other => out.push(other),
        }
    }
    err(lineno, "unterminated string literal")
}

fn parse_array(s: &str, lineno: u32) -> Result<(Value, &str), TomlError> {
    let mut rest = s[1..].trim_start();
    let mut items = Vec::new();
    loop {
        if let Some(after) = rest.strip_prefix(']') {
            return Ok((Value::Array(items), after));
        }
        if rest.is_empty() {
            return err(
                lineno,
                "unterminated array (arrays must close on the same line)",
            );
        }
        let (v, after) = parse_value(rest, lineno)?;
        items.push(v);
        rest = after.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.starts_with(']') {
            return err(lineno, "expected `,` or `]` in array");
        }
    }
}

fn parse_number(s: &str, lineno: u32) -> Result<(Value, &str), TomlError> {
    // The token runs until a delimiter; underscores are separators.
    let end = s
        .char_indices()
        .find(|&(i, c)| {
            !(c.is_ascii_digit()
                || c == '_'
                || c == '.'
                || c == 'e'
                || c == 'E'
                || ((c == '+' || c == '-')
                    && (i == 0 || matches!(s.as_bytes()[i - 1], b'e' | b'E'))))
        })
        .map_or(s.len(), |(i, _)| i);
    let tok = &s[..end];
    let rest = &s[end..];
    let clean: String = tok.chars().filter(|&c| c != '_').collect();
    if clean.contains('.') || clean.contains('e') || clean.contains('E') {
        match clean.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok((Value::Float(f), rest)),
            _ => err(lineno, format!("`{tok}` is not a finite float")),
        }
    } else if let Ok(i) = clean.parse::<i64>() {
        Ok((Value::Int(i), rest))
    } else if let Ok(u) = clean.parse::<u64>() {
        Ok((Value::UInt(u), rest))
    } else {
        err(lineno, format!("`{tok}` is not an integer"))
    }
}

/// Renders a value as a single-line TOML value (the serialization
/// counterpart of `parse_value`; used by the spec's canonical
/// writer).
#[must_use]
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "\"\"".to_owned(), // never produced by specs
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(f) => render_float(*f),
        Value::Str(s) => render_string(s),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(render_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Object(_) => "{}".to_owned(), // inline tables unsupported
    }
}

/// Shortest float form that re-parses to the same bits, with TOML's
/// requirement of a `.` or exponent kept intact.
#[must_use]
pub fn render_float(f: f64) -> String {
    let s = format!("{f:?}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn render_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(v: &Value, key: &str) -> Value {
        v.get(key).expect(key).clone()
    }

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let text = r#"
# a spec
spec_version = 1

[experiment]
kind = "faults"     # trailing comment
seed = 42
enabled = true
ratio = 0.5

[faults]
rates = [0.0, 1e-4, 1e-2]
points = [[7, 1], [7, 2]]
names = ["a", "b"]
"#;
        let (v, lines) = parse(text).expect("parses");
        assert_eq!(obj(&v, "spec_version"), Value::Int(1));
        let exp = obj(&v, "experiment");
        assert_eq!(obj(&exp, "kind"), Value::Str("faults".into()));
        assert_eq!(obj(&exp, "seed"), Value::Int(42));
        assert_eq!(obj(&exp, "enabled"), Value::Bool(true));
        assert_eq!(obj(&exp, "ratio"), Value::Float(0.5));
        let f = obj(&v, "faults");
        assert_eq!(
            obj(&f, "rates"),
            Value::Array(vec![
                Value::Float(0.0),
                Value::Float(1e-4),
                Value::Float(1e-2)
            ])
        );
        assert_eq!(
            obj(&f, "points"),
            Value::Array(vec![
                Value::Array(vec![Value::Int(7), Value::Int(1)]),
                Value::Array(vec![Value::Int(7), Value::Int(2)]),
            ])
        );
        assert_eq!(lines["spec_version"], 3);
        assert_eq!(lines["experiment"], 5);
        assert_eq!(lines["experiment.kind"], 6);
        assert_eq!(lines["faults.rates"], 12);
    }

    #[test]
    fn rejects_duplicates_with_the_second_line() {
        let e = parse("a = 1\na = 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate key `a`"), "{e}");
        let e = parse("[t]\n[t]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate table"), "{e}");
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse("[[t]]\n").is_err());
        assert!(parse("a.b = 1\n").is_err());
        assert!(parse("a = {x = 1}\n").is_err());
        assert!(parse("a = [1,\n2]\n").is_err());
        assert!(parse("a = \"unterminated\n").is_err());
        assert!(parse("just words\n").is_err());
        assert!(parse("a = 1 garbage\n").is_err());
    }

    #[test]
    fn strings_escape_and_round_trip() {
        let (v, _) = parse(r#"s = "a \"b\"\n\t\\c""#).expect("parses");
        let Value::Str(s) = obj(&v, "s") else {
            panic!("not a string")
        };
        assert_eq!(s, "a \"b\"\n\t\\c");
        let rendered = render_value(&Value::Str(s.clone()));
        let (v2, _) = parse(&format!("s = {rendered}")).expect("reparses");
        assert_eq!(obj(&v2, "s"), Value::Str(s));
    }

    #[test]
    fn floats_render_and_reparse_bit_exactly() {
        for f in [0.0, 1e-4, 0.5, -1.25, 3.0, 1e300, 42.0] {
            let s = render_float(f);
            let (v, _) = parse(&format!("x = {s}")).expect("reparses");
            let Value::Float(back) = obj(&v, "x") else {
                panic!("{s} did not parse as a float")
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn integers_support_underscores_and_u64_range() {
        let (v, _) = parse("a = 1_000_000\nb = 18446744073709551615\n").unwrap();
        assert_eq!(obj(&v, "a"), Value::Int(1_000_000));
        assert_eq!(obj(&v, "b"), Value::UInt(u64::MAX));
    }
}
