//! `--help` and `-h` print the usage to stdout and exit 0; an unknown
//! flag is a usage error (exit 2) that prints the usage to stderr.

use perconf_experiments::exitcode;
use std::process::{Command, Output};

fn run(bin: &str, arg: &str) -> Output {
    Command::new(bin)
        .arg(arg)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

#[test]
fn help_succeeds_and_unknown_flags_are_usage_errors() {
    for bin in [
        env!("CARGO_BIN_EXE_repro"),
        env!("CARGO_BIN_EXE_sim"),
        env!("CARGO_BIN_EXE_validate"),
    ] {
        for flag in ["--help", "-h"] {
            let out = run(bin, flag);
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
        }
        let out = run(bin, "--no-such-flag");
        assert_eq!(
            out.status.code(),
            Some(i32::from(exitcode::USAGE)),
            "{bin} --no-such-flag"
        );
        assert!(out.stdout.is_empty(), "{bin}: usage errors go to stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{bin}: {stderr}");
    }
}
