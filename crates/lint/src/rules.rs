//! The rule set. Each rule walks lexed [`SourceFile`]s (plus, for
//! snapshot-completeness, the cross-file struct index) and emits
//! [`Finding`]s. Suppression is uniform: `// lint: allow(<rule>)` on
//! the offending line or in the free-standing comment block directly
//! above it — see [`crate::source`] for the grammar.

use crate::diag::Finding;
use crate::lexer::TokKind;
use crate::parse::{SerdeCoverage, SnapshotImpl, StructDef, StructKind};
use crate::source::{Scope, SourceFile};
use std::collections::BTreeMap;

/// Rule: every named field of a type implementing `Snapshot` must be
/// referenced in both `save_state` and `restore_state`, or carry a
/// `// lint: transient` marker. (`state_digest` is derived from
/// `save_state`, so it needs no check of its own.)
pub const SNAPSHOT_COMPLETENESS: &str = "snapshot-completeness";
/// Rule: no wall-clock reads, ambient RNG, hasher-ordered
/// collections, or pointer-value hashing in sim-path crates.
pub const NONDETERMINISM_SOURCES: &str = "nondeterminism-sources";
/// Rule: `#![forbid(unsafe_code)]` in every workspace crate root;
/// `// SAFETY:` above any `unsafe` in vendored code.
pub const UNSAFE_HYGIENE: &str = "unsafe-hygiene";
/// Rule: no `File::create` or `fs::write` outside
/// `perconf_bpred::atomic_write` — every persisted file goes through
/// the one atomic writer.
pub const OUTPUT_ATOMICITY: &str = "output-atomicity";

/// Every shipped rule, in reporting order.
pub const ALL_RULES: [&str; 4] = [
    SNAPSHOT_COMPLETENESS,
    NONDETERMINISM_SOURCES,
    UNSAFE_HYGIENE,
    OUTPUT_ATOMICITY,
];

/// Crates whose sources are result-producing ("sim path"): anything
/// that can perturb the bytes of a `.psnap`, a results table, or a
/// digest. `serve` and `bench` are excluded wholesale (supervision
/// timing and benchmarking are wall-clock by nature); within the sim
/// path, the profiling and lease-queue modules below are the
/// designated timing/heartbeat allowlist.
const SIM_PATH_CRATES: [&str; 9] = [
    "bpred",
    "core",
    "workload",
    "faults",
    "pipeline",
    "metrics",
    "obs",
    "experiments",
    "root",
];

/// Built-in module allowlist for nondeterminism-sources: the
/// profiler (wall-time attribution is its whole job) and the
/// multi-process lease queue (mtime heartbeats). Determinism tests
/// pin that neither perturbs result bytes.
const NONDET_ALLOWED_PATHS: [&str; 2] = [
    "crates/obs/src/profile.rs",
    "crates/experiments/src/distrib/",
];

/// Cross-file context handed to rules: the struct index.
pub struct Index {
    /// struct name -> (file index, def) for every definition seen.
    pub structs: BTreeMap<String, Vec<(usize, StructDef)>>,
    /// Snapshot impls per file index.
    pub impls: Vec<(usize, SnapshotImpl)>,
    /// Hand-written `Serialize`/`Deserialize` ident coverage, keyed by
    /// (file index, target type). `save_state`/`restore_state` bodies
    /// that call `to_value`/`from_value` inherit it.
    pub serde_cov: BTreeMap<(usize, String), SerdeCoverage>,
}

impl Index {
    /// Builds the index over all files.
    #[must_use]
    pub fn build(files: &[SourceFile]) -> Self {
        let mut structs: BTreeMap<String, Vec<(usize, StructDef)>> = BTreeMap::new();
        let mut impls = Vec::new();
        let mut serde_cov = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            // Vendored code keeps its own snapshot/struct conventions;
            // only workspace and ad-hoc files feed the contract check.
            if matches!(f.scope, Scope::Vendor { .. }) {
                continue;
            }
            for s in crate::parse::structs(&f.toks) {
                structs.entry(s.name.clone()).or_default().push((fi, s));
            }
            for im in crate::parse::snapshot_impls(&f.toks) {
                impls.push((fi, im));
            }
            for (target, cov) in crate::parse::serde_coverage(&f.toks) {
                serde_cov.insert((fi, target), cov);
            }
        }
        Self {
            structs,
            impls,
            serde_cov,
        }
    }

    /// Resolves the struct an impl targets: same file, then same
    /// crate, then a unique global definition; ambiguous or foreign
    /// targets resolve to `None` (and the impl is skipped).
    fn resolve(
        &self,
        files: &[SourceFile],
        impl_file: usize,
        target: &str,
    ) -> Option<(usize, &StructDef)> {
        let cands = self.structs.get(target)?;
        if let Some((fi, d)) = cands.iter().find(|(fi, _)| *fi == impl_file) {
            return Some((*fi, d));
        }
        let impl_scope = &files[impl_file].scope;
        let same_crate: Vec<_> = cands
            .iter()
            .filter(|(fi, _)| files[*fi].scope == *impl_scope)
            .collect();
        if let [one] = same_crate[..] {
            return Some((one.0, &one.1));
        }
        if let [one] = &cands[..] {
            return Some((one.0, &one.1));
        }
        None
    }

    /// The struct a field of type `ty` (declared in file `fi`) holds
    /// by value, when that struct can only be persisted field by
    /// field: it has named fields and no serialization of its own (no
    /// `Snapshot` impl, no hand-written or derived
    /// `Serialize`/`Deserialize`).
    fn plain_struct(
        &self,
        files: &[SourceFile],
        fi: usize,
        ty: Option<&str>,
    ) -> Option<(usize, &StructDef)> {
        let ty = ty?;
        let (sfi, def) = self.resolve(files, fi, ty)?;
        let serializes_itself = def.serde_derive
            || self.impls.iter().any(|(_, im)| im.target == ty)
            || self.serde_cov.keys().any(|(_, t)| t == ty);
        (def.kind == StructKind::Named && !serializes_itself).then_some((sfi, def))
    }
}

/// Runs `snapshot-completeness` over every indexed impl.
pub fn snapshot_completeness(files: &[SourceFile], index: &Index, out: &mut Vec<Finding>) {
    for (impl_fi, im) in &index.impls {
        let impl_file = &files[*impl_fi];
        if impl_file.allows(SNAPSHOT_COMPLETENESS, im.line) {
            continue;
        }
        let Some((struct_fi, def)) = index.resolve(files, *impl_fi, &im.target) else {
            continue;
        };
        if def.kind != StructKind::Named {
            continue;
        }
        let fields = Fields {
            files,
            index,
            im,
            // A save/restore that delegates to a hand-written
            // `Serialize::to_value` / `Deserialize::from_value` (the
            // idiom generic types use, since the vendored derive
            // cannot handle them) covers whatever the serialization
            // body references.
            delegated: index.serde_cov.get(&(*impl_fi, im.target.clone())),
        };
        fields.check(struct_fi, def, &mut Vec::new(), out);
    }
}

/// One `Snapshot` impl's coverage, checked against a struct's fields.
struct Fields<'a> {
    files: &'a [SourceFile],
    index: &'a Index,
    im: &'a SnapshotImpl,
    delegated: Option<&'a SerdeCoverage>,
}

impl Fields<'_> {
    /// Checks every field of `def` (defined in file `fi`). A field
    /// holding a plain struct (see [`Index::plain_struct`]) is
    /// followed: its own fields are checked in its place, `via`
    /// naming the path to them.
    fn check(&self, fi: usize, def: &StructDef, via: &mut Vec<String>, out: &mut Vec<Finding>) {
        let (im, delegated) = (self.im, self.delegated);
        let struct_file = &self.files[fi];
        for field in &def.fields {
            if struct_file.is_transient(field.line)
                || struct_file.allows(SNAPSHOT_COMPLETENESS, field.line)
            {
                continue;
            }
            // A struct cannot hold itself by value; the depth cap only
            // stops same-named types in different crates from cycling.
            let nested = self.index.plain_struct(self.files, fi, field.ty.as_deref());
            if let Some((nfi, nested)) = nested.filter(|_| via.len() < 8) {
                via.push(format!("{}.{}", def.name, field.name));
                self.check(nfi, nested, via, out);
                via.pop();
                continue;
            }
            let in_save = (im.serde_macro && !field.serde_skip)
                || im.save_idents.as_ref().is_some_and(|s| {
                    s.contains(&field.name)
                        || (s.contains("to_value")
                            && delegated.is_some_and(|d| d.to_value_idents.contains(&field.name)))
                });
            let in_restore = (im.serde_macro && !field.serde_skip)
                || im.restore_idents.as_ref().is_some_and(|s| {
                    s.contains(&field.name)
                        || (s.contains("from_value")
                            && delegated.is_some_and(|d| d.from_value_idents.contains(&field.name)))
                });
            let missing = match (in_save, in_restore) {
                (true, true) => continue,
                (false, true) => "save_state",
                (true, false) => "restore_state",
                (false, false) => "save_state, restore_state",
            };
            let via = if via.is_empty() {
                String::new()
            } else {
                format!(" (in `{}`)", via.join("` → `"))
            };
            out.push(Finding {
                rule: SNAPSHOT_COMPLETENESS,
                file: struct_file.rel.clone(),
                line: field.line,
                col: field.col,
                message: format!(
                    "field `{}` of `{}`{via} is not covered by Snapshot::{{{missing}}}",
                    field.name, def.name,
                ),
                help: "reference the field in save_state and restore_state, or mark it \
                       `// lint: transient` with a reason (derived state, config constant, \
                       or observability)"
                    .to_owned(),
            });
        }
    }
}

/// Whether nondeterminism-sources applies to this file at all.
fn nondet_in_scope(f: &SourceFile) -> bool {
    match &f.scope {
        Scope::Adhoc => true,
        Scope::Vendor { .. } => false,
        Scope::Workspace { crate_dir } => {
            SIM_PATH_CRATES.contains(&crate_dir.as_str())
                && !NONDET_ALLOWED_PATHS.iter().any(|p| f.rel.starts_with(p))
        }
    }
}

/// Runs `nondeterminism-sources` over one file.
pub fn nondeterminism_sources(f: &SourceFile, out: &mut Vec<Finding>) {
    if !nondet_in_scope(f) {
        return;
    }
    let t = &f.toks;
    let mut push = |i: usize, message: String, help: &str| {
        if !f.allows(NONDETERMINISM_SOURCES, t[i].line) {
            out.push(Finding {
                rule: NONDETERMINISM_SOURCES,
                file: f.rel.clone(),
                line: t[i].line,
                col: t[i].col,
                message,
                help: help.to_owned(),
            });
        }
    };
    for i in 0..t.len() {
        let tok = &t[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        let path_call = |name: &str| {
            t.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && t.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && t.get(i + 3).is_some_and(|a| a.is_ident(name))
        };
        match tok.text.as_str() {
            "Instant" | "SystemTime" if path_call("now") => push(
                i,
                format!("wall-clock read `{}::now` in a sim-path crate", tok.text),
                "time must never feed a result-producing path; keep timing in the \
                 allowlisted profiler/heartbeat modules or annotate \
                 `// lint: allow(nondeterminism-sources)` with why the value cannot \
                 reach an artifact",
            ),
            "thread_rng" => push(
                i,
                "`thread_rng` draws from ambient OS entropy".to_owned(),
                "all randomness must come from a seeded generator that is part of the \
                 snapshot (`SmallRng` behind `Snapshot`)",
            ),
            "HashMap" | "HashSet" => push(
                i,
                format!(
                    "`{}` iteration order depends on hasher seed state",
                    tok.text
                ),
                "use BTreeMap/BTreeSet (or an insertion-ordered structure), or annotate \
                 `// lint: allow(nondeterminism-sources)` explaining why iteration order \
                 can never reach an artifact (e.g. contents are sorted before serialization)",
            ),
            "ptr" if path_call("hash") => push(
                i,
                "pointer-value hashing is address-space dependent".to_owned(),
                "hash a stable identifier (seq number, table index) instead of an address",
            ),
            // `as *const T` / `as *mut T`: a pointer-value cast whose
            // numeric value is allocation-dependent.
            "as" if t.get(i + 1).is_some_and(|a| a.is_punct('*'))
                && t.get(i + 2)
                    .is_some_and(|a| a.is_ident("const") || a.is_ident("mut")) =>
            {
                push(
                    i,
                    "pointer-value cast in a sim-path crate".to_owned(),
                    "pointer values vary per run (ASLR, allocator); derive ordering and \
                     hashes from stable indices instead",
                );
            }
            _ => {}
        }
    }
}

/// Whether a file is a crate root the forbid-attribute check covers.
fn is_crate_root(f: &SourceFile) -> bool {
    match &f.scope {
        Scope::Adhoc => true,
        Scope::Vendor { .. } => false,
        Scope::Workspace { .. } => {
            f.rel == "src/lib.rs"
                || (f.rel.starts_with("crates/")
                    && (f.rel.ends_with("/src/lib.rs")
                        || f.rel.ends_with("/src/main.rs")
                        || f.rel.contains("/src/bin/")))
        }
    }
}

/// Whether the token stream contains `forbid(...unsafe_code...)`.
fn has_forbid_unsafe(f: &SourceFile) -> bool {
    let t = &f.toks;
    for i in 0..t.len() {
        if t[i].is_ident("forbid") && t.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            let mut j = i + 2;
            let mut depth = 1;
            while j < t.len() && depth > 0 {
                if t[j].is_punct('(') {
                    depth += 1;
                } else if t[j].is_punct(')') {
                    depth -= 1;
                } else if t[j].is_ident("unsafe_code") {
                    return true;
                }
                j += 1;
            }
        }
    }
    false
}

/// Runs `unsafe-hygiene` over one file.
pub fn unsafe_hygiene(f: &SourceFile, out: &mut Vec<Finding>) {
    if is_crate_root(f) && !has_forbid_unsafe(f) && !f.allows(UNSAFE_HYGIENE, 1) {
        out.push(Finding {
            rule: UNSAFE_HYGIENE,
            file: f.rel.clone(),
            line: 1,
            col: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
            help: "every workspace crate forbids unsafe; the only unsafe lives in \
                   vendored crates under `vendor/` with `// SAFETY:` justifications"
                .to_owned(),
        });
    }
    for tok in &f.toks {
        if tok.is_ident("unsafe") {
            if f.has_safety(tok.line) || f.allows(UNSAFE_HYGIENE, tok.line) {
                continue;
            }
            out.push(Finding {
                rule: UNSAFE_HYGIENE,
                file: f.rel.clone(),
                line: tok.line,
                col: tok.col,
                message: "`unsafe` without a `// SAFETY:` comment".to_owned(),
                help: "explain the invariant that makes this sound in a `// SAFETY:` \
                       comment directly above the unsafe block"
                    .to_owned(),
            });
        }
    }
}

/// Runs `output-atomicity` over one file. Inline `#[cfg(test)]`
/// modules are out of scope (as `tests/` directories are), and so is
/// the body of `atomic_write` itself.
pub fn output_atomicity(f: &SourceFile, out: &mut Vec<Finding>) {
    if matches!(f.scope, Scope::Vendor { .. }) {
        return;
    }
    let t = &f.toks;
    let mut exempt = crate::parse::cfg_test_modules(t);
    exempt.extend(crate::parse::fn_bodies(t, "atomic_write"));
    for i in 0..t.len() {
        let path_call = |head: &str, method: &str| {
            t[i].is_ident(head)
                && t.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && t.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && t.get(i + 3).is_some_and(|a| a.is_ident(method))
        };
        let call = if path_call("File", "create") {
            "File::create"
        } else if path_call("fs", "write") {
            "fs::write"
        } else {
            continue;
        };
        if exempt.iter().any(|r| r.contains(&i)) || f.allows(OUTPUT_ATOMICITY, t[i].line) {
            continue;
        }
        out.push(Finding {
            rule: OUTPUT_ATOMICITY,
            file: f.rel.clone(),
            line: t[i].line,
            col: t[i].col,
            message: format!("direct `{call}` bypasses `atomic_write`"),
            help: "write files through `perconf_bpred::atomic_write` (or the `frame`, \
                   `snapfile` and `pobs` writers built on it), which stages to a unique \
                   temp sibling and renames; annotate `// lint: allow(output-atomicity)` \
                   only if the stream is self-checking (checksummed records with \
                   truncation detection)"
                .to_owned(),
        });
    }
}
