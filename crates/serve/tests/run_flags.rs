//! `perconf-serve run` refuses a zero `--watchdog` or `--cell-timeout`
//! as a usage error, before any server starts: a zero watchdog would
//! time out every attempt at once and finalise every experiment
//! degraded.

// Test deadline: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::exitcode;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn zero_watchdogs_are_usage_errors_before_any_server_starts() {
    for flag in ["--watchdog", "--cell-timeout"] {
        let state =
            std::env::temp_dir().join(format!("perconf-serve-zero{flag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state);
        let mut child = Command::new(env!("CARGO_BIN_EXE_perconf-serve"))
            .arg("run")
            .arg("--state")
            .arg(&state)
            .args(["--addr", "127.0.0.1:0", flag, "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn perconf-serve");
        // A server that did start would serve until shut down.
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("poll perconf-serve").is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_dir_all(&state);
                panic!("perconf-serve run {flag} 0 started a server");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let out = child
            .wait_with_output()
            .expect("collect perconf-serve output");
        assert_eq!(
            out.status.code(),
            Some(i32::from(exitcode::USAGE)),
            "{flag} 0"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag} 0: {stderr}");
        assert!(stderr.contains("usage: "), "{flag} 0: {stderr}");
        assert!(
            !state.exists(),
            "{flag} 0 must exit before the server creates its state"
        );
    }
}
