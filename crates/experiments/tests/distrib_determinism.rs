//! End-to-end determinism contract for `repro sweep`: the sweep's
//! byte-compared outputs (`faults.json`, `results/*.psnap`) must be
//! identical for 1 worker process, N worker processes, and N worker
//! processes that are chaos-killed mid-cell and respawned — and the
//! `repro` / `validate` binaries must honour the documented exit-code
//! taxonomy. A `repro --trace-out` run records events and writes the
//! same results as a plain one.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "perconf-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Byte-compares two directories of published results (same file
/// names, same bytes).
fn assert_identical_trees(a: &Path, b: &Path) {
    let names = |d: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(d)
            .unwrap_or_else(|e| panic!("read {}: {e}", d.display()))
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        v.sort_unstable();
        v
    };
    let (an, bn) = (names(a), names(b));
    assert_eq!(
        an,
        bn,
        "{} and {} hold the same files",
        a.display(),
        b.display()
    );
    for n in an {
        let ab = std::fs::read(a.join(&n)).unwrap();
        let bb = std::fs::read(b.join(&n)).unwrap();
        assert!(
            ab == bb,
            "result file {n} differs between {} and {}",
            a.display(),
            b.display()
        );
    }
}

/// One sweep invocation into fresh queue/json dirs; returns the paths.
fn sweep(tag: &str, extra: &[&str]) -> (PathBuf, PathBuf) {
    let queue = fresh_dir(&format!("q-{tag}"));
    let json = fresh_dir(&format!("j-{tag}"));
    let mut args = vec![
        "sweep",
        "--grid",
        "small",
        "--tiny",
        "--seed",
        "11",
        "--queue",
        queue.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = repro(&args);
    assert!(
        out.status.success(),
        "sweep {tag} failed (status {:?}):\n{}",
        out.status.code(),
        stderr_of(&out)
    );
    (queue, json)
}

#[test]
fn sweep_output_is_byte_identical_across_workers_and_chaos_kills() {
    let (q1, j1) = sweep("w1", &["--workers", "1"]);
    let (q4, j4) = sweep("w4", &["--workers", "4"]);
    // Every incarnation-0 worker is killed the moment its first
    // mid-cell partial hits disk; the respawned workers must resume
    // their dead peers' cells from those orphaned partials.
    let (qc, jc) = sweep(
        "chaos",
        &[
            "--workers",
            "4",
            "--chaos",
            "kill-mid-cell=1.0,seed=3",
            "--lease-secs",
            "2",
        ],
    );

    let table1 = std::fs::read(j1.join("faults.json")).expect("workers=1 table");
    let table4 = std::fs::read(j4.join("faults.json")).expect("workers=4 table");
    let tablec = std::fs::read(jc.join("faults.json")).expect("chaos table");
    assert!(table1 == table4, "faults.json differs: 1 vs 4 workers");
    assert!(
        table1 == tablec,
        "faults.json differs: clean vs chaos-killed"
    );

    assert_identical_trees(&q1.join("results"), &q4.join("results"));
    assert_identical_trees(&q1.join("results"), &qc.join("results"));

    // The chaos run's report must prove the failure path actually ran:
    // workers died to chaos and orphaned partials were resumed.
    let report: perconf_experiments::distrib::DistribReport = serde_json::from_str(
        &std::fs::read_to_string(qc.join("report.json")).expect("chaos report.json"),
    )
    .expect("parse report.json");
    assert!(report.chaos_exits >= 1, "chaos killed at least one worker");
    assert!(
        report.cells_resumed_mid_cell >= 1,
        "at least one cell resumed from an orphaned mid-cell partial"
    );
    assert!(report.workers_respawned >= 1, "dead workers were respawned");
    assert!(report.failed_cells.is_empty(), "no terminally failed cells");

    for d in [q1, j1, q4, j4, qc, jc] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

#[test]
fn resuming_a_half_finished_queue_completes_without_recompute() {
    // Run a sweep to completion, then re-run the coordinator against
    // the same queue: everything is already published, so the second
    // run must merge straight from the results tree and still succeed.
    let (queue, json) = sweep("rerun", &["--workers", "1"]);
    let before = std::fs::read(json.join("faults.json")).unwrap();

    let out = repro(&[
        "sweep",
        "--grid",
        "small",
        "--tiny",
        "--seed",
        "11",
        "--queue",
        queue.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
        "--workers",
        "1",
    ]);
    assert!(out.status.success(), "re-run failed:\n{}", stderr_of(&out));
    let after = std::fs::read(json.join("faults.json")).unwrap();
    assert!(
        before == after,
        "re-run over a finished queue changed bytes"
    );

    let _ = std::fs::remove_dir_all(&queue);
    let _ = std::fs::remove_dir_all(&json);
}

#[test]
fn trace_out_records_events_without_changing_results() {
    let (traced, plain) = (fresh_dir("traced"), fresh_dir("plain"));
    let trace = fresh_dir("trace").with_extension("pobs");
    let run = |json: &Path, extra: &[&str]| {
        let mut args = vec!["faults", "--grid", "small", "--tiny", "--seed", "11"];
        args.extend(["--jobs", "1", "--json", json.to_str().unwrap()]);
        let out = repro(&[&args[..], extra].concat());
        assert!(out.status.success(), "{}", stderr_of(&out));
        out
    };
    let out = run(&traced, &["--trace-out", trace.to_str().unwrap()]);
    run(&plain, &[]);
    assert!(traced.join("faults.json").is_file());
    assert_identical_trees(&traced, &plain);

    let file = perconf_obs::pobs::read(&trace).expect("read the recorded trace");
    assert!(!file.events.is_empty(), "the trace holds no events");
    for kind in ["branch_resolved", "gate_stall_begin"] {
        assert!(
            file.events.iter().any(|e| e.kind_name() == kind),
            "the trace holds no {kind} event"
        );
    }
    let err = stderr_of(&out);
    assert!(!err.contains("compiled out"), "{err}");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(&traced);
    let _ = std::fs::remove_dir_all(&plain);
}

// ----- exit-code taxonomy ------------------------------------------

#[test]
fn missing_experiment_is_a_usage_error() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

#[test]
fn sweep_without_queue_is_a_usage_error() {
    let out = repro(&["sweep", "--tiny"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--queue"), "{}", stderr_of(&out));
}

#[test]
fn bad_chaos_spec_is_a_usage_error() {
    let q = fresh_dir("bad-chaos");
    let out = repro(&[
        "sweep",
        "--queue",
        q.to_str().unwrap(),
        "--chaos",
        "frobnicate=yes",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let _ = std::fs::remove_dir_all(&q);
}

#[test]
fn gc_without_resume_dir_is_a_usage_error() {
    let out = repro(&["faults", "--gc"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--resume"), "{}", stderr_of(&out));
}

#[test]
fn gc_of_a_missing_dir_reports_and_succeeds() {
    let dir = fresh_dir("gc-missing");
    let out = repro(&["faults", "--gc", "--resume", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("does not exist"),
        "actionable note expected, got:\n{}",
        stderr_of(&out)
    );
}

#[test]
fn resume_from_a_missing_dir_warns_then_runs_fresh() {
    let dir = fresh_dir("resume-missing");
    let json = fresh_dir("resume-missing-json");
    let out = repro(&[
        "faults",
        "--grid",
        "small",
        "--tiny",
        "--seed",
        "11",
        "--resume",
        dir.to_str().unwrap(),
        "--json",
        json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("does not exist") && err.contains("Starting fresh"),
        "actionable resume note expected, got:\n{err}"
    );
    assert!(
        dir.exists(),
        "the run creates the checkpoint dir it promised"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&json);
}
