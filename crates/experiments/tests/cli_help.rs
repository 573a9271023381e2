//! `--help` and `-h` print the usage to stdout and exit 0; an unknown
//! flag or a refused value is a usage error (exit 2) that names the
//! flag and prints the usage to stderr.

use perconf_experiments::exitcode;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn help_succeeds_and_unknown_flags_are_usage_errors() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let bins = [
        repro,
        env!("CARGO_BIN_EXE_sim"),
        env!("CARGO_BIN_EXE_validate"),
    ];
    for bin in bins {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag]);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
        }
    }
    // (binary, arguments, the flag the error must name)
    let mut usage_errors: Vec<(&str, &[&str], &str)> = bins
        .iter()
        .map(|&bin| (bin, &["--no-such-flag"][..], "--no-such-flag"))
        .collect();
    // A zero watchdog would time out every attempt at once.
    let queue = std::env::temp_dir().join(format!("perconf-cli-queue-{}", std::process::id()));
    let queue = queue.to_str().expect("UTF-8 temp dir");
    let zero_timeout = [
        "sweep",
        "--grid",
        "small",
        "--tiny",
        "--seed",
        "11",
        "--workers",
        "1",
        "--queue",
        queue,
        "--cell-timeout",
        "0",
    ];
    usage_errors.push((repro, &zero_timeout, "--cell-timeout"));
    // A zero batch width names no group size; it used to run width 1.
    usage_errors.push((repro, &["faults", "--tiny", "--batch", "0"], "--batch"));
    // `verify` scans no uop trace file; the usage still lists `--trace-out`.
    let trace = ["verify", "--tiny", "--trace", "x.trc"];
    usage_errors.push((repro, &trace, "unknown argument: --trace"));
    usage_errors.push((repro, &["verify", "--tiny", "--tolerant"], "--tolerant"));
    for (bin, args, flag) in usage_errors {
        let out = run(bin, args);
        assert_eq!(
            out.status.code(),
            Some(i32::from(exitcode::USAGE)),
            "{bin} {args:?}"
        );
        assert!(out.stdout.is_empty(), "{bin}: usage errors go to stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{bin}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?}: {stderr}");
    }
}
