//! `WorkloadGenerator::next_branch` makes a block's draws without
//! building its plain uops. It must return exactly the branches a
//! `next_uop` loop returns, and leave the generator in the same state
//! at every branch boundary, also when it starts from a snapshot taken
//! in the middle of a block.

use perconf_bpred::Snapshot;
use perconf_workload::{spec2000, Branch, WorkloadGenerator};

const BRANCHES: usize = 20_000;
/// Digesting the whole generator costs about a millisecond, so the
/// states are compared at about every thousandth branch.
const DIGEST_EVERY: usize = 997;

/// The next branch as a `next_uop` loop finds it.
fn next_branch_by_uops(g: &mut WorkloadGenerator) -> Branch {
    loop {
        if let Some(b) = g.next_uop().branch {
            return b;
        }
    }
}

/// Draws `n` branches both ways, comparing every branch and, now and
/// then, the two generators' digests.
fn assert_lockstep(
    name: &str,
    branches: &mut WorkloadGenerator,
    uops: &mut WorkloadGenerator,
    n: usize,
) {
    for i in 0..n {
        assert_eq!(
            branches.next_branch(),
            next_branch_by_uops(uops),
            "{name}: branch {i}"
        );
        if i % DIGEST_EVERY == 0 || i + 1 == n {
            assert_eq!(
                branches.state_digest(),
                uops.state_digest(),
                "{name}: state after branch {i}"
            );
        }
    }
    assert_eq!(branches.emitted(), uops.emitted(), "{name}: emitted");
    assert_eq!(branches.history(), uops.history(), "{name}: history");
}

#[test]
fn next_branch_returns_the_next_uop_loop_branches_on_every_benchmark() {
    for cfg in spec2000() {
        let mut branches = WorkloadGenerator::new(&cfg);
        let mut uops = WorkloadGenerator::new(&cfg);
        assert_lockstep(&cfg.name, &mut branches, &mut uops, BRANCHES);
    }
}

#[test]
fn next_branch_resumes_from_a_snapshot_taken_mid_block() {
    for cfg in spec2000() {
        let mut uops = WorkloadGenerator::new(&cfg);
        for _ in 0..5_000 {
            let _ = uops.next_uop();
        }
        // A plain uop is never last in its block: its branch is still
        // queued when the snapshot is taken.
        while uops.next_uop().branch.is_some() {}
        let mut branches = WorkloadGenerator::new(&cfg);
        branches
            .restore_state(&uops.save_state())
            .expect("restore into a generator of the same workload");
        assert_lockstep(&cfg.name, &mut branches, &mut uops, 5_000);
    }
}

#[test]
fn next_uop_continues_the_stream_after_next_branch() {
    for cfg in spec2000() {
        let mut mixed = WorkloadGenerator::new(&cfg);
        let mut uops = WorkloadGenerator::new(&cfg);
        for i in 0..2_000 {
            assert_eq!(
                mixed.next_branch(),
                next_branch_by_uops(&mut uops),
                "{}: {i}",
                cfg.name
            );
            for _ in 0..i % 9 {
                assert_eq!(
                    mixed.next_uop(),
                    uops.next_uop(),
                    "{}: uop after {i}",
                    cfg.name
                );
            }
        }
        assert_eq!(mixed.state_digest(), uops.state_digest(), "{}", cfg.name);
    }
}
