//! Property and protocol tests for the distributed sweep queue
//! (`perconf_experiments::distrib`): exclusive claims under thread
//! races, lease expiry and exactly-once completion, heartbeat
//! liveness, and corrupt-entry degradation. These exercise the queue
//! protocol directly — the end-to-end multi-process determinism
//! contract is covered by `distrib_determinism.rs`.

// Test deadlines/heartbeat timing: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::distrib::{Manifest, Queue, MANIFEST_VERSION};
use perconf_experiments::faults::Grid;
use perconf_experiments::Scale;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A unique scratch directory per test invocation (tests run in
/// parallel within one process, and the process id alone is shared).
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "perconf-distrib-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manifest(lease_ms: u64) -> Manifest {
    Manifest {
        version: MANIFEST_VERSION,
        seed: 11,
        scale: Scale::tiny(),
        grid: Grid::small(),
        lease_ms,
    }
}

/// Tiny deterministic generator for the property loop (keeps the test
/// independent of any RNG crate's stream stability).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[test]
fn every_cell_claimed_exactly_once_across_threads() {
    let root = fresh_dir("claim-race");
    let q = Queue::create(&root, &manifest(60_000)).unwrap();
    let n = q.manifest().grid.cell_count();
    assert_eq!(q.enqueue_missing().unwrap(), n);

    let claimed: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let q = q.clone();
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(c) = q.claim(&format!("t{t}")) {
                        mine.push(c.desc.key.clone());
                        assert!(q.complete(&c), "fresh claim must complete");
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut keys = claimed;
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n, "every cell claimed exactly once");
    assert_eq!(q.pending(), 0);
    for desc in q.manifest().cells() {
        assert!(q.is_done(&desc.key));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn expired_lease_is_reaped_and_late_completion_fails() {
    let root = fresh_dir("reap");
    let q = Queue::create(&root, &manifest(50)).unwrap();
    assert!(q.enqueue_missing().unwrap() > 0);

    let stale = q.claim("dead-worker").expect("first claim");
    std::thread::sleep(Duration::from_millis(200));
    assert!(q.reap() >= 1, "expired lease requeued");

    // The cell is claimable again by a survivor.
    let fresh = q.claim("survivor").expect("requeued cell claimable again");
    assert_eq!(fresh.desc.key, stale.desc.key);
    assert!(q.complete(&fresh));

    // The dead worker's handle is now useless: heartbeat and complete
    // both fail, which is exactly the signal that tells a late worker
    // not to publish its result.
    assert!(!q.heartbeat(&stale), "reaped lease cannot heartbeat");
    assert!(!q.complete(&stale), "late completion must be rejected");
    assert!(q.is_done(&stale.desc.key));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn heartbeat_keeps_a_slow_cell_leased() {
    let root = fresh_dir("heartbeat");
    let q = Queue::create(&root, &manifest(2_000)).unwrap();
    assert!(q.enqueue_missing().unwrap() > 0);

    let claim = q.claim("slow").expect("claim");
    // Hold the lease past its expiry window by heartbeating.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(2_500) {
        assert!(q.heartbeat(&claim), "live lease heartbeats");
        assert_eq!(q.reap(), 0, "heartbeated lease never reaped");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(q.complete(&claim));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_todo_entry_is_reconstructed_from_the_manifest() {
    let root = fresh_dir("corrupt-todo");
    let q = Queue::create(&root, &manifest(60_000)).unwrap();
    q.enqueue_missing().unwrap();

    let first = q.manifest().cells().remove(0);
    std::fs::write(root.join("todo").join(&first.key), "{not json").unwrap();

    let claim = q.claim("w").expect("corrupt entry still claimable");
    assert_eq!(claim.desc, first, "descriptor rebuilt from the key");
    // The claim repaired the lease content in place: after expiry and
    // a reap/re-claim cycle the entry parses cleanly again.
    let text = std::fs::read_to_string(claim.lease_path()).unwrap();
    assert!(text.contains(&first.key), "lease content repaired");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn foreign_queue_entries_are_dropped_not_executed() {
    let root = fresh_dir("foreign");
    let q = Queue::create(&root, &manifest(60_000)).unwrap();
    q.enqueue_missing().unwrap();
    // An entry whose key no grid cell matches (e.g. leftover from a
    // different sweep dropped into the directory).
    std::fs::write(root.join("todo").join("alien-cell"), "junk").unwrap();

    let mut claimed = Vec::new();
    while let Some(c) = q.claim("w") {
        claimed.push(c.desc.key.clone());
        q.complete(&c);
    }
    assert_eq!(claimed.len(), q.manifest().grid.cell_count());
    assert!(claimed.iter().all(|k| k != "alien-cell"));
    assert!(
        !root.join("todo").join("alien-cell").exists(),
        "foreign entry removed so it cannot wedge the queue"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_lease_names_are_removed_by_reap() {
    let root = fresh_dir("bad-lease");
    let q = Queue::create(&root, &manifest(60_000)).unwrap();
    std::fs::write(root.join("lease").join("no-separators"), "x").unwrap();
    std::fs::write(root.join("lease").join("key@worker@not-a-number"), "x").unwrap();

    assert_eq!(q.reap(), 0, "malformed entries are removed, not requeued");
    assert_eq!(q.pending(), 0, "queue not wedged by junk leases");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn enqueue_missing_is_idempotent_at_every_stage() {
    let root = fresh_dir("idempotent");
    let q = Queue::create(&root, &manifest(60_000)).unwrap();
    let n = q.manifest().grid.cell_count();

    assert_eq!(q.enqueue_missing().unwrap(), n);
    assert_eq!(q.enqueue_missing().unwrap(), 0, "already queued");

    let claim = q.claim("w").unwrap();
    assert_eq!(q.enqueue_missing().unwrap(), 0, "leased cell not re-added");

    q.complete(&claim);
    assert_eq!(q.enqueue_missing().unwrap(), 0, "done cell not re-added");

    // Re-creating the queue over existing state must also resume, not
    // reset: the completed cell stays done.
    let q2 = Queue::create(&root, q.manifest()).unwrap();
    assert_eq!(q2.enqueue_missing().unwrap(), 0);
    assert!(q2.is_done(&claim.desc.key));
    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded chaos at the protocol level: threads randomly complete,
/// abandon, or stall on claims while everyone reaps; the queue must
/// still drain with every cell done exactly once and no entry wedged.
#[test]
fn seeded_random_failures_still_drain_every_cell_exactly_once() {
    let root = fresh_dir("property");
    let q = Queue::create(&root, &manifest(80)).unwrap();
    let n = q.manifest().grid.cell_count();
    assert_eq!(q.enqueue_missing().unwrap(), n);

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = q.clone();
            s.spawn(move || {
                let mut rng = XorShift(0x9e37_79b9 ^ (t + 1));
                // Distinct worker id per claim so an abandoned lease
                // can never collide with a later claim's lease path.
                let mut attempt = 0u32;
                let deadline = Instant::now() + Duration::from_secs(30);
                while Instant::now() < deadline {
                    q.reap();
                    let Some(claim) = q.claim(&format!("t{t}a{attempt}")) else {
                        if q.pending() == 0 {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    };
                    attempt += 1;
                    match rng.next() % 10 {
                        // Abandon: drop the claim; expiry + reap must
                        // recover the cell.
                        0 | 1 => {}
                        // Stall past expiry, then try to complete
                        // late; success and failure are both legal,
                        // exactly-once is what matters.
                        2 => {
                            std::thread::sleep(Duration::from_millis(160));
                            let _ = q.complete(&claim);
                        }
                        _ => {
                            assert!(q.complete(&claim), "fresh un-expired claim completes");
                        }
                    }
                }
                panic!("queue failed to drain within the deadline");
            });
        }
    });

    assert_eq!(q.pending(), 0, "todo and lease directories empty");
    let mut done = 0;
    for desc in q.manifest().cells() {
        assert!(q.is_done(&desc.key), "cell {} completed", desc.key);
        done += 1;
    }
    assert_eq!(done, n);
    let _ = std::fs::remove_dir_all(&root);
}
