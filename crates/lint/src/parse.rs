//! Structural recovery over the token stream: struct definitions
//! (named fields with lines and attributes), `impl Snapshot for T`
//! blocks (per-method identifier coverage), and the token ranges the
//! output-atomicity rule exempts (`fn` bodies, `#[cfg(test)]`
//! modules). Everything here is brace/bracket/angle matching over
//! [`crate::lexer`] tokens — enough structure for the rules without a
//! real parser.

use crate::lexer::{Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One named field of a struct definition.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field identifier.
    pub name: String,
    /// Line of the field identifier.
    pub line: u32,
    /// Column of the field identifier.
    pub col: u32,
    /// Whether a `#[serde(skip...)]` attribute excludes this field
    /// from derived serialization (and so from
    /// `snapshot_serde_body!` coverage).
    pub serde_skip: bool,
}

/// What kind of body a struct has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructKind {
    /// `struct S { ... }` — the only kind the snapshot rule checks.
    Named,
    /// `struct S(...);` — positional fields, skipped.
    Tuple,
    /// `struct S;` — no state, trivially complete.
    Unit,
}

/// One struct definition found in a file.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: u32,
    /// Body kind.
    pub kind: StructKind,
    /// Named fields (empty unless [`StructKind::Named`]).
    pub fields: Vec<FieldDef>,
}

/// One `impl Snapshot for Target` block.
#[derive(Debug, Clone)]
pub struct SnapshotImpl {
    /// The implementing type's final path segment (`Simulation`,
    /// `Box`, ...).
    pub target: String,
    /// Line of the `impl` keyword.
    pub line: u32,
    /// Identifiers appearing in the `save_state` body, if present.
    pub save_idents: Option<BTreeSet<String>>,
    /// Identifiers appearing in the `restore_state` body, if present.
    pub restore_idents: Option<BTreeSet<String>>,
    /// Whether the body invokes `snapshot_serde_body!` (which covers
    /// `save_state`/`restore_state` for every non-`serde(skip)`
    /// field by serializing the whole struct).
    pub serde_macro: bool,
}

/// Advances past one balanced `< ... >` group starting at `i`
/// (`toks[i]` must be `<`), tolerating `->` inside (its `>` does not
/// close an angle group). Returns the index just past the closing
/// `>`.
fn skip_angles(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Advances past one balanced group of `open`/`close` punctuation
/// starting at `i` (`toks[i]` must be `open`). Returns the index just
/// past the matching closer.
fn skip_balanced(toks: &[Tok], mut i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Extracts every struct definition from a token stream.
#[must_use]
pub fn structs(toks: &[Tok]) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("struct") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        // Skip a `where` clause: scan to the body opener at
        // angle-depth zero.
        if toks.get(j).is_some_and(|t| t.is_ident("where")) {
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') {
                    j = skip_angles(toks, j);
                    continue;
                }
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                j += 1;
            }
        }
        let def = match toks.get(j) {
            Some(t) if t.is_punct('{') => {
                let end = skip_balanced(toks, j, '{', '}');
                StructDef {
                    name,
                    line,
                    kind: StructKind::Named,
                    fields: fields(&toks[j + 1..end.saturating_sub(1)]),
                }
            }
            Some(t) if t.is_punct('(') => StructDef {
                name,
                line,
                kind: StructKind::Tuple,
                fields: Vec::new(),
            },
            _ => StructDef {
                name,
                line,
                kind: StructKind::Unit,
                fields: Vec::new(),
            },
        };
        out.push(def);
        i = j.max(i + 2);
    }
    out
}

/// Parses the interior tokens of a named-struct body into fields.
fn fields(body: &[Tok]) -> Vec<FieldDef> {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        // Field preamble: attributes and visibility.
        let mut serde_skip = false;
        loop {
            match body.get(i) {
                Some(t) if t.is_punct('#') => {
                    let start = i + 1;
                    if body.get(start).is_some_and(|t| t.is_punct('[')) {
                        let end = skip_balanced(body, start, '[', ']');
                        let attr = &body[start..end];
                        let has = |s: &str| attr.iter().any(|t| t.is_ident(s));
                        if has("serde")
                            && attr
                                .iter()
                                .any(|t| t.kind == TokKind::Ident && t.text.starts_with("skip"))
                        {
                            serde_skip = true;
                        }
                        i = end;
                    } else {
                        i += 1;
                    }
                }
                Some(t) if t.is_ident("pub") => {
                    i += 1;
                    if body.get(i).is_some_and(|t| t.is_punct('(')) {
                        i = skip_balanced(body, i, '(', ')');
                    }
                }
                _ => break,
            }
        }
        // Field name.
        let Some(name_tok) = body.get(i) else { break };
        if name_tok.kind != TokKind::Ident || !body.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            break;
        }
        out.push(FieldDef {
            name: name_tok.text.clone(),
            line: name_tok.line,
            col: name_tok.col,
            serde_skip,
        });
        i += 2;
        // Skip the type up to the field-separating comma at depth
        // zero. Inside a struct body every `<` opens a generic group
        // (expressions cannot appear), except the `>` of `->`.
        let mut angle = 0i32;
        while i < body.len() {
            let t = &body[i];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(i > 0 && body[i - 1].is_punct('-')) {
                angle -= 1;
            } else if t.is_punct('(') {
                i = skip_balanced(body, i, '(', ')');
                continue;
            } else if t.is_punct('[') {
                i = skip_balanced(body, i, '[', ']');
                continue;
            } else if t.is_punct('{') {
                i = skip_balanced(body, i, '{', '}');
                continue;
            } else if t.is_punct(',') && angle == 0 {
                i += 1;
                break;
            }
            i += 1;
        }
        if i >= body.len() {
            break;
        }
    }
    out
}

/// One `impl Trait for Target { ... }` header with its body range.
struct ImplBlock {
    /// Final path segment of the trait, `None` for inherent impls.
    trait_name: Option<String>,
    /// Final path segment of the implementing type.
    target: String,
    /// Line of the `impl` keyword.
    line: u32,
    /// Token range of the body interior (between the braces).
    body: std::ops::Range<usize>,
}

/// Scans the token stream for every `impl` block, recovering the
/// trait's and target's final path segments plus the body range.
fn impl_blocks(toks: &[Tok]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('<')) {
            j = skip_angles(toks, j);
        }
        // Collect header tokens up to the body `{`, splitting on the
        // top-level `for`.
        let mut trait_last_ident: Option<String> = None;
        let mut target_last_ident: Option<String> = None;
        let mut seen_for = false;
        let mut seen_where = false;
        let mut found_body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('<') {
                j = skip_angles(toks, j);
                continue;
            }
            if t.is_punct('{') {
                found_body = Some(j);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            if t.is_ident("for") {
                seen_for = true;
            } else if t.is_ident("where") {
                seen_where = true;
            } else if t.kind == TokKind::Ident && !seen_where {
                if seen_for {
                    target_last_ident = Some(t.text.clone());
                } else {
                    trait_last_ident = Some(t.text.clone());
                }
            }
            j += 1;
        }
        let Some(body_open) = found_body else {
            i = j.max(i + 1);
            continue;
        };
        let body_end = skip_balanced(toks, body_open, '{', '}');
        let (trait_name, target) = if seen_for {
            match target_last_ident {
                Some(t) => (trait_last_ident, t),
                None => {
                    i = body_open + 1;
                    continue;
                }
            }
        } else {
            match trait_last_ident {
                // Inherent impl: the "trait" position holds the type.
                Some(t) => (None, t),
                None => {
                    i = body_open + 1;
                    continue;
                }
            }
        };
        out.push(ImplBlock {
            trait_name,
            target,
            line,
            body: body_open + 1..body_end.saturating_sub(1),
        });
        i = body_end;
    }
    out
}

/// Extracts every `impl ... Snapshot for Target { ... }` block.
#[must_use]
pub fn snapshot_impls(toks: &[Tok]) -> Vec<SnapshotImpl> {
    impl_blocks(toks)
        .into_iter()
        .filter(|b| b.trait_name.as_deref() == Some("Snapshot"))
        .map(|b| {
            let body = &toks[b.body];
            SnapshotImpl {
                target: b.target,
                line: b.line,
                save_idents: method_idents(body, "save_state"),
                restore_idents: method_idents(body, "restore_state"),
                serde_macro: body.iter().any(|t| t.is_ident("snapshot_serde_body")),
            }
        })
        .collect()
}

/// Hand-written serialization a `Snapshot` impl may delegate to: the
/// identifier sets of `Serialize::to_value` and
/// `Deserialize::from_value` bodies, per target type.
#[derive(Debug, Clone, Default)]
pub struct SerdeCoverage {
    /// Idents in the target's `Serialize::to_value` body.
    pub to_value_idents: BTreeSet<String>,
    /// Idents in the target's `Deserialize::from_value` body.
    pub from_value_idents: BTreeSet<String>,
}

/// Collects [`SerdeCoverage`] for every type with a hand-written
/// `Serialize`/`Deserialize` impl in this token stream. A
/// `save_state` body that calls `to_value` (resp. a `restore_state`
/// that calls `from_value`) inherits this coverage — the delegation
/// idiom generic types use because the vendored derive cannot.
#[must_use]
pub fn serde_coverage(toks: &[Tok]) -> BTreeMap<String, SerdeCoverage> {
    let mut out: BTreeMap<String, SerdeCoverage> = BTreeMap::new();
    for b in impl_blocks(toks) {
        let (method, is_ser) = match b.trait_name.as_deref() {
            Some("Serialize") => ("to_value", true),
            Some("Deserialize") => ("from_value", false),
            _ => continue,
        };
        if let Some(idents) = method_idents(&toks[b.body], method) {
            let cov = out.entry(b.target).or_default();
            if is_ser {
                cov.to_value_idents.extend(idents);
            } else {
                cov.from_value_idents.extend(idents);
            }
        }
    }
    out
}

/// Token ranges of the bodies of every `fn <name>` in `toks`.
#[must_use]
pub fn fn_bodies(toks: &[Tok], name: &str) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_ident("fn") && toks[i + 1].is_ident(name) {
            // Find the first `{` after the signature; nothing in a
            // signature contains braces.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            if j >= toks.len() {
                break;
            }
            let end = skip_balanced(toks, j, '{', '}');
            out.push(j + 1..end.saturating_sub(1));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// Token ranges of the bodies of inline `#[cfg(test)] mod m { ... }`
/// modules — test code, out of scope like `tests/` directories.
#[must_use]
pub fn cfg_test_modules(toks: &[Tok]) -> Vec<Range<usize>> {
    const ATTR: [&str; 8] = ["#", "[", "cfg", "(", "test", ")", "]", "mod"];
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let open = i + ATTR.len() + 1;
        let matches = ATTR
            .iter()
            .enumerate()
            .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want));
        if matches && toks.get(open).is_some_and(|t| t.is_punct('{')) {
            let end = skip_balanced(toks, open, '{', '}');
            out.push(open + 1..end.saturating_sub(1));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

/// The identifier set of the body of `fn <name>` inside an impl body,
/// or `None` if the method is absent.
fn method_idents(body: &[Tok], name: &str) -> Option<BTreeSet<String>> {
    let range = fn_bodies(body, name).into_iter().next()?;
    Some(
        body[range]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn struct_fields_with_generics_and_attrs() {
        let src = r#"
            #[derive(Debug)]
            pub struct S<T: Clone> where T: Default {
                pub a: u32,
                #[serde(skip)]
                b: std::collections::BTreeMap<u64, Vec<(u32, T)>>,
                pub(crate) c: fn(u32) -> u64,
                d: [u8; 4],
            }
        "#;
        let (toks, _) = lex(src);
        let s = &structs(&toks)[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.kind, StructKind::Named);
        let names: Vec<_> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
        assert!(s.fields[1].serde_skip);
        assert!(!s.fields[0].serde_skip);
    }

    #[test]
    fn tuple_and_unit_structs() {
        let (toks, _) = lex("struct A(u32, u64); struct B; struct C {}");
        let ss = structs(&toks);
        assert_eq!(ss[0].kind, StructKind::Tuple);
        assert_eq!(ss[1].kind, StructKind::Unit);
        assert_eq!(ss[2].kind, StructKind::Named);
    }

    #[test]
    fn snapshot_impl_extraction() {
        let src = r#"
            impl Snapshot for Widget {
                fn save_state(&self) -> Value { self.alpha.to_value() }
                fn restore_state(&mut self, v: &Value) -> Result<(), E> {
                    self.alpha = read(v)?;
                    Ok(())
                }
            }
            impl other::Snapshot for Gadget {
                crate::snapshot_serde_body!();
            }
            impl<S: Snapshot + ?Sized> Snapshot for Box<S> {
                fn save_state(&self) -> Value { (**self).save_state() }
            }
            impl Widget { fn not_snapshot(&self) {} }
        "#;
        let (toks, _) = lex(src);
        let impls = snapshot_impls(&toks);
        assert_eq!(impls.len(), 3);
        assert_eq!(impls[0].target, "Widget");
        assert!(impls[0].save_idents.as_ref().unwrap().contains("alpha"));
        assert!(impls[0].restore_idents.as_ref().unwrap().contains("alpha"));
        assert!(!impls[0].serde_macro);
        assert_eq!(impls[1].target, "Gadget");
        assert!(impls[1].serde_macro);
        assert_eq!(impls[2].target, "Box");
    }

    #[test]
    fn cfg_test_module_and_fn_body_ranges() {
        let src = r#"
            fn atomic_write() { create(); }
            fn other() { write(); }
            #[cfg(test)]
            mod tests { fn t() { write(); } }
            #[cfg(not(test))]
            mod real { fn w() { write(); } }
        "#;
        let (toks, _) = lex(src);
        let idents = |r: &Range<usize>| -> Vec<&str> {
            toks[r.clone()]
                .iter()
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.as_str())
                .collect()
        };
        let bodies = fn_bodies(&toks, "atomic_write");
        assert_eq!(bodies.len(), 1);
        assert_eq!(idents(&bodies[0]), ["create"]);
        let mods = cfg_test_modules(&toks);
        assert_eq!(mods.len(), 1, "only the cfg(test) module counts");
        assert_eq!(idents(&mods[0]), ["fn", "t", "write"]);
    }
}
