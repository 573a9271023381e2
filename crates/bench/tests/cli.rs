//! `perfsmoke --help` and `-h` print the usage to stdout and exit 0;
//! an unknown flag or a refused value is a usage error (exit 2, not the
//! failed gate's 1) that names the flag, prints the usage to stderr and
//! runs no probe.

use std::process::{Command, Output};

fn perfsmoke(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfsmoke"))
        .args(args)
        .output()
        .expect("cannot run perfsmoke")
}

#[test]
fn help_prints_the_usage_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = perfsmoke(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: perfsmoke"), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_flags_and_refused_values_are_usage_errors() {
    // (arguments, the flag the error must name)
    let cases: [(&[&str], &str); 4] = [
        (&["--runs", "x"], "--runs"),
        (&["--runs"], "--runs"),
        (&["--out"], "--out"),
        (&["--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        let out = perfsmoke(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: usage errors go to stderr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: perfsmoke"), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(!stderr.contains("calibration"), "{args:?} ran the probes");
    }
}
