//! `perconf-lint` — static determinism analyzer for the perconf
//! workspace.
//!
//! Every result this repository produces rests on a determinism
//! contract: byte-identical `.psnap`/results output across jobs,
//! batch widths, kill+resume, and processes. The CI byte-diff lanes
//! enforce that contract *dynamically*; this crate enforces the bug
//! classes that actually threaten it *statically*, before a diff
//! lane can flake:
//!
//! - **snapshot-completeness** — a field added to a `Snapshot` type
//!   but forgotten in `save_state`/`restore_state` silently corrupts
//!   resume and divergence probes (`state_digest` is derived from
//!   `save_state`, so it cannot drift).
//! - **nondeterminism-sources** — `HashMap` iteration order,
//!   `Instant::now`, `thread_rng`, or pointer-value hashing creeping
//!   into a result-producing path.
//! - **unsafe-hygiene** — `#![forbid(unsafe_code)]` in every
//!   workspace crate root; `// SAFETY:` above any `unsafe` in
//!   vendored code.
//! - **output-atomicity** — no `File::create` or `fs::write` outside
//!   `perconf_bpred::atomic_write`, the one writer that stages to a
//!   temp sibling and renames (torn files must read as *recompute*,
//!   never as wrong data).
//!
//! The analyzer is a self-contained lightweight Rust lexer
//! ([`lexer`]) — comment/string/raw-string aware, no external parser
//! dependencies — plus brace-matching structural recovery
//! ([`parse`]), an annotation layer ([`source`]), and the rules
//! ([`rules`]). Run it with:
//!
//! ```text
//! cargo run -p perconf-lint --release -- --workspace
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod diag;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod source;

pub use analyze::{analyze_paths, analyze_workspace, find_workspace_root, Analysis, Options};
pub use diag::Finding;
