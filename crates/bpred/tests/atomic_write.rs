//! Crash-safety contract of `atomic_write`, the one writer every
//! persisted file goes through:
//!
//! - concurrent writers of one path (threads of one process) never
//!   share a temp file, so the destination is always one whole body;
//! - a writer SIGKILLed at a random point leaves the destination
//!   absent, holding the old body, or holding the new body — never a
//!   torn mix.

use perconf_bpred::atomic_write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const BODY_WORDS: usize = 512 * 1024; // 4 MiB
const CHILD_ENV: &str = "PERCONF_ATOMIC_WRITE_CHILD";

/// A multi-MB body whose every word names it, so any mix of two
/// bodies, and any prefix, fails [`body_id`].
fn body(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(BODY_WORDS * 8);
    for i in 0..BODY_WORDS as u64 {
        out.extend_from_slice(&(id ^ i.rotate_left(40)).to_le_bytes());
    }
    out
}

/// The id of a whole body, or `None` for anything else.
fn body_id(bytes: &[u8]) -> Option<u64> {
    let id = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
    (bytes == body(id).as_slice()).then_some(id)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("perconf-atomic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn concurrent_writers_of_one_path_leave_one_whole_body() {
    const THREADS: u64 = 4;
    let dir = fresh_dir("concurrent");
    let path = dir.join("cell.part.psnap");
    for round in 0..12u64 {
        let start = Arc::new(Barrier::new(THREADS as usize));
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (start, path) = (Arc::clone(&start), path.clone());
                std::thread::spawn(move || {
                    let bytes = body((round << 8) | t);
                    start.wait();
                    atomic_write(&path, &[&bytes[..8], &bytes[8..]], false).unwrap();
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let id = body_id(&std::fs::read(&path).unwrap())
            .unwrap_or_else(|| panic!("round {round}: destination is torn"));
        assert_eq!(id >> 8, round, "round {round}: a stale body survived");
    }
    let names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names, ["cell.part.psnap"], "no temp file may survive");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Child-process entry for the kill test: when spawned with
/// `CHILD_ENV` set to `<path>:<first id>`, rewrites `<path>` with
/// bodies `first, first + 1, ...` until killed. A no-op in a normal
/// test run.
#[test]
fn writer_child_process() {
    let Ok(arg) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (path, first) = arg.rsplit_once(':').expect("<path>:<first id>");
    let first: u64 = first.parse().expect("numeric first id");
    for id in first.. {
        atomic_write(Path::new(path), &[&body(id)], id % 2 == 0).unwrap();
    }
}

#[test]
fn sigkill_mid_write_leaves_absent_old_or_new_never_torn() {
    let dir = fresh_dir("kill");
    let path = dir.join("pending.json");
    let exe = std::env::current_exe().unwrap();
    let mut last: Option<u64> = None;
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    for trial in 1..=16u64 {
        let first = trial << 32;
        let mut child = Command::new(&exe)
            .args(["--exact", "writer_child_process", "--test-threads=1"])
            .env(CHILD_ENV, format!("{}:{first}", path.display()))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        std::thread::sleep(Duration::from_millis(5 + (lcg >> 33) % 120));
        child.kill().unwrap(); // SIGKILL
        child.wait().unwrap();
        let now = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Ok(bytes) => Some(body_id(&bytes).unwrap_or_else(|| {
                panic!("trial {trial}: destination is torn ({} bytes)", bytes.len())
            })),
            Err(e) => panic!("trial {trial}: {e}"),
        };
        let is_new = now.is_some_and(|id| id >> 32 == trial);
        assert!(
            now == last || is_new,
            "trial {trial}: destination holds {now:?}, neither old {last:?} nor new"
        );
        last = now;
    }
    // Whatever the kills left behind is only ever a `.tmp` sibling.
    for e in std::fs::read_dir(&dir).unwrap() {
        let name = e.unwrap().file_name().into_string().unwrap();
        assert!(name == "pending.json" || name.contains(".tmp"), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
