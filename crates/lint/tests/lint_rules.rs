//! Integration tests: the fixture corpus (each rule must demonstrably
//! fire on its firing fixture and stay quiet on its clean twin), the
//! workspace-clean invariant, and a mutation test proving that
//! dropping a field from a real hand-written `restore_state` is
//! caught.

use perconf_lint::rules;
use perconf_lint::{analyze_paths, analyze_workspace, Analysis, Options};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

fn analyze_fixture(name: &str) -> Analysis {
    analyze_paths(&[fixture(name)], &Options::default()).expect("fixture should be readable")
}

fn rules_fired(a: &Analysis) -> Vec<&'static str> {
    let mut rs: Vec<&'static str> = a.findings.iter().map(|f| f.rule).collect();
    rs.dedup();
    rs
}

#[test]
fn snapshot_completeness_fires_on_fixture() {
    let a = analyze_fixture("snapshot_firing.rs");
    let snap: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::SNAPSHOT_COMPLETENESS)
        .collect();
    // `theta` escapes the restore; `scratch` escapes everything.
    assert_eq!(snap.len(), 2, "findings: {:?}", a.findings);
    assert!(snap[0].message.contains("`theta`"), "{}", snap[0].message);
    assert!(snap[0].message.contains("restore_state"));
    assert!(!snap[0].message.contains("save_state"));
    assert!(snap[1].message.contains("`scratch`"), "{}", snap[1].message);
    assert!(snap[1].message.contains("save_state, restore_state"));
}

#[test]
fn snapshot_completeness_follows_a_plain_nested_struct() {
    let a = analyze_fixture("snapshot_nested.rs");
    // `theta` is reached through `Machine.core`; the derived `Stats`
    // and the transient fields stay quiet.
    assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, rules::SNAPSHOT_COMPLETENESS);
    assert!(
        f.message.contains("`theta` of `Core` (in `Machine.core`)"),
        "{}",
        f.message
    );
    assert!(f.message.contains("restore_state"));
    assert!(!f.message.contains("save_state"));
}

#[test]
fn snapshot_completeness_quiet_on_clean_fixture() {
    let a = analyze_fixture("snapshot_clean.rs");
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
}

#[test]
fn nondeterminism_sources_fires_on_fixture() {
    let a = analyze_fixture("nondet_firing.rs");
    let msgs: Vec<&str> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::NONDETERMINISM_SOURCES)
        .map(|f| f.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("Instant::now")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("thread_rng")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("HashMap")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("pointer-value cast")),
        "{msgs:?}"
    );
}

#[test]
fn nondeterminism_sources_quiet_on_clean_fixture() {
    let a = analyze_fixture("nondet_clean.rs");
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
}

#[test]
fn unsafe_hygiene_fires_on_fixture() {
    let a = analyze_fixture("unsafe_firing.rs");
    let msgs: Vec<&str> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::UNSAFE_HYGIENE)
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(msgs[0].contains("forbid(unsafe_code)"), "{msgs:?}");
    assert!(msgs[1].contains("SAFETY"), "{msgs:?}");
}

#[test]
fn unsafe_hygiene_quiet_on_clean_fixture() {
    let a = analyze_fixture("unsafe_clean.rs");
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
}

#[test]
fn output_atomicity_fires_on_fixture() {
    let a = analyze_fixture("atomicity_firing.rs");
    let atom: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::OUTPUT_ATOMICITY)
        .collect();
    assert_eq!(atom.len(), 1, "findings: {:?}", a.findings);
    assert!(atom[0].message.contains("File::create"));
}

#[test]
fn output_atomicity_fires_on_hand_staged_temp_rename() {
    let a = analyze_fixture("atomicity_staged.rs");
    let atom: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::OUTPUT_ATOMICITY)
        .collect();
    assert_eq!(atom.len(), 1, "findings: {:?}", a.findings);
    assert!(atom[0].message.contains("File::create"));
}

#[test]
fn output_atomicity_quiet_on_clean_fixture() {
    let a = analyze_fixture("atomicity_clean.rs");
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
}

#[test]
fn output_atomicity_fires_on_raw_fs_write_in_a_bin() {
    let a = analyze_fixture("src/bin/atomicity_bin_firing.rs");
    let atom: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::OUTPUT_ATOMICITY)
        .collect();
    assert_eq!(atom.len(), 1, "findings: {:?}", a.findings);
    assert!(atom[0].message.contains("fs::write"), "{:?}", atom[0]);
}

#[test]
fn output_atomicity_fires_on_staged_fs_write_in_a_bin() {
    // A hand-staged temp+rename is a second atomic writer: only
    // `atomic_write` may stage and rename.
    let a = analyze_fixture("src/bin/atomicity_bin_staged.rs");
    let atom: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == rules::OUTPUT_ATOMICITY)
        .collect();
    assert_eq!(atom.len(), 1, "findings: {:?}", a.findings);
    assert!(atom[0].message.contains("fs::write"), "{:?}", atom[0]);
}

#[test]
fn output_atomicity_fires_on_fs_write_outside_bins() {
    // The firing fixture's body at a library path: the rule covers
    // library code as well as binaries.
    let text = std::fs::read_to_string(fixture("src/bin/atomicity_bin_firing.rs")).unwrap();
    let dir = std::env::temp_dir().join(format!("perconf-lint-lib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("atomicity_lib_copy.rs");
    std::fs::write(&path, text).unwrap();
    let a = analyze_paths(std::slice::from_ref(&path), &Options::default()).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(a.findings.len(), 1, "findings: {:?}", a.findings);
    assert_eq!(a.findings[0].rule, rules::OUTPUT_ATOMICITY);
}

#[test]
fn rule_filter_restricts_output() {
    let opts = Options {
        rules: Some([rules::OUTPUT_ATOMICITY.to_owned()].into_iter().collect()),
    };
    // The nondet fixture is full of violations, but none of them are
    // atomicity violations.
    let a = analyze_paths(&[fixture("nondet_firing.rs")], &opts).unwrap();
    assert!(a.findings.is_empty(), "findings: {:?}", a.findings);
}

/// The tree-wide invariant: `perconf-lint --workspace` exits 0 on
/// this tree. Every legitimate exception is annotated in
/// place, so any new finding is a regression.
#[test]
fn workspace_is_clean() {
    let a = analyze_workspace(&workspace_root(), &Options::default())
        .expect("workspace should be walkable");
    assert!(
        a.findings.is_empty(),
        "the tree must lint clean; findings:\n{}",
        a.findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(a.files_scanned > 80, "suspiciously few files scanned");
}

#[test]
fn fixtures_fire_every_shipped_rule() {
    let mut fired: Vec<&'static str> = [
        "snapshot_firing.rs",
        "nondet_firing.rs",
        "unsafe_firing.rs",
        "atomicity_firing.rs",
    ]
    .iter()
    .flat_map(|f| rules_fired(&analyze_fixture(f)))
    .collect();
    fired.sort_unstable();
    fired.dedup();
    let mut all = rules::ALL_RULES.to_vec();
    all.sort_unstable();
    assert_eq!(fired, all, "every shipped rule must have a firing fixture");
}

/// Analyzes a copy of the workspace file `rel` with every line
/// containing `drop` removed.
fn analyze_without_line(rel: &str, drop: &str) -> Analysis {
    let src = std::fs::read_to_string(workspace_root().join(rel)).expect("mutation target exists");
    assert!(
        src.contains(drop),
        "mutation target moved; update this test"
    );
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains(drop))
        .map(|l| format!("{l}\n"))
        .collect();
    let name = Path::new(rel).file_name().unwrap().to_string_lossy();
    let dir = std::env::temp_dir().join(format!("perconf-lint-mut-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("mutated_{name}"));
    std::fs::write(&path, mutated).unwrap();
    let a = analyze_paths(std::slice::from_ref(&path), &Options::default()).unwrap();
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    a
}

/// The snapshot-completeness findings on the workspace file `rel` as
/// it is (ad-hoc scope still runs the other rules, so filter).
fn snapshot_findings(rel: &str) -> Vec<perconf_lint::Finding> {
    let a = analyze_paths(&[workspace_root().join(rel)], &Options::default()).unwrap();
    a.findings
        .into_iter()
        .filter(|f| f.rule == rules::SNAPSHOT_COMPLETENESS)
        .collect()
}

/// Mutation test: drop the `injected` line from the real hand-written
/// `FaultPlan::restore_state` and the analyzer must catch the
/// now-incomplete restore. This pins the property the rule exists
/// for — a field forgotten on the restore path cannot slip through.
#[test]
fn mutated_restore_is_caught() {
    let a = analyze_without_line(
        "crates/faults/src/plan.rs",
        "self.injected = f(state, \"injected\")?;",
    );
    let caught = a.findings.iter().any(|f| {
        f.rule == rules::SNAPSHOT_COMPLETENESS
            && f.message.contains("`injected`")
            && f.message.contains("restore_state")
    });
    assert!(
        caught,
        "dropping injected from restore_state must be caught; findings: {:?}",
        a.findings
    );

    // Control: the unmutated file carries no snapshot-completeness
    // finding.
    let clean = snapshot_findings("crates/faults/src/plan.rs");
    assert!(clean.is_empty(), "control failed: {clean:?}");
}

/// Mutation test through a nested struct: `Simulation` keeps its
/// per-thread state in a `Context` field, which the rule must follow.
/// Drop one per-context field from the real
/// `Simulation::restore_state` and the analyzer must name it.
#[test]
fn mutated_per_context_restore_is_caught() {
    let a = analyze_without_line(
        "crates/pipeline/src/sim.rs",
        "self.fetch_history = f(state, \"fetch_history\")?;",
    );
    let caught = a.findings.iter().any(|f| {
        f.rule == rules::SNAPSHOT_COMPLETENESS
            && f.message.contains("`fetch_history` of `Context`")
            && f.message.contains("restore_state")
    });
    assert!(
        caught,
        "dropping fetch_history from restore_state must be caught; findings: {:?}",
        a.findings
    );
    let clean = snapshot_findings("crates/pipeline/src/sim.rs");
    assert!(clean.is_empty(), "control failed: {clean:?}");
}
