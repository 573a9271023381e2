//! Deterministic-replay verification and divergence self-checks.
//!
//! The simulator's reproducibility claim — same workload, same
//! configuration, same stream of retired uops, bit for bit — is only
//! worth something if it is *checked*. This module provides two
//! probes, surfaced by `repro verify`:
//!
//! * [`lockstep`] runs two independently constructed simulations of
//!   the same cell side by side, comparing 64-bit state digests every
//!   `interval` retired uops. Any nondeterminism (unseeded randomness,
//!   iteration-order dependence, uninitialised state) shows up as a
//!   digest divergence with the cycle it first appeared at. The same
//!   probe doubles as a fault detector: with an [`Inject`] it flips
//!   one state bit in the second machine mid-run and must report the
//!   divergence — a self-test that the digest actually covers the
//!   state it claims to.
//! * [`replay`] exercises the full checkpoint chain: run a machine to
//!   a snapshot point, persist the snapshot through the checksummed
//!   [`snapfile`](crate::snapfile) container, restore it into a fresh
//!   machine, and verify the restored machine tracks the original
//!   digest-for-digest to the end of the run.

use crate::common::Scale;
use perconf_bpred::Snapshot;
use perconf_pipeline::{Controller, PipelineConfig, SimError, Simulation};
use perconf_workload::WorkloadConfig;
use serde::{Serialize, Value};
use std::path::Path;

/// A deliberate single-bit state fault, injected into the second
/// machine of a [`lockstep`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inject {
    /// Retired-uop mark after which the bit is flipped. Rounded up to
    /// the next digest interval boundary.
    pub at_uops: u64,
    /// Which bit of the fetch-history register to flip.
    pub bit: u32,
}

/// One digest comparison point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IntervalRecord {
    /// Retired correct-path uops at this point.
    pub retired: u64,
    /// Cycle count of machine A at this point.
    pub cycle: u64,
    /// State digest of machine A.
    pub digest_a: u64,
    /// State digest of machine B.
    pub digest_b: u64,
}

/// Where two machines first stopped agreeing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Divergence {
    /// Retired-uop mark of the first mismatching digest.
    pub retired: u64,
    /// Machine A's cycle count at that mark.
    pub cycle_a: u64,
    /// Machine B's cycle count at that mark (may already differ).
    pub cycle_b: u64,
}

/// Result of one verification probe.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct VerifyReport {
    /// Probe name (`lockstep`, `lockstep+inject`, `replay`).
    pub probe: String,
    /// Benchmark the probe ran on.
    pub benchmark: String,
    /// Every digest comparison point, in order.
    pub intervals: Vec<IntervalRecord>,
    /// First mismatch, if any.
    pub first_divergence: Option<Divergence>,
}

impl VerifyReport {
    /// Whether the two machines ever disagreed.
    #[must_use]
    pub fn diverged(&self) -> bool {
        self.first_divergence.is_some()
    }

    /// Renders the probe outcome with the digest trail.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} on {}: {} digest comparisons, ",
            self.probe,
            self.benchmark,
            self.intervals.len()
        );
        match &self.first_divergence {
            Some(d) => out.push_str(&format!(
                "DIVERGED at {} retired uops (cycle {} vs {})\n",
                d.retired, d.cycle_a, d.cycle_b
            )),
            None => out.push_str("identical throughout\n"),
        }
        for r in &self.intervals {
            let mark = if r.digest_a == r.digest_b { "  " } else { "!=" };
            out.push_str(&format!(
                "  {mark} {:>10} uops  cycle {:>10}  A {:#018x}  B {:#018x}\n",
                r.retired, r.cycle, r.digest_a, r.digest_b
            ));
        }
        out
    }
}

fn drive(
    a: &mut Simulation,
    b: &mut Simulation,
    probe: &str,
    benchmark: &str,
    total_uops: u64,
    interval: u64,
    inject: Option<Inject>,
) -> Result<VerifyReport, SimError> {
    let interval = interval.max(1);
    let mut intervals = Vec::new();
    let mut first_divergence = None;
    let mut injected = inject.is_none();
    while a.stats().retired < total_uops {
        let chunk = interval.min(total_uops - a.stats().retired);
        a.try_run(chunk)?;
        b.try_run(chunk)?;
        if let Some(f) = inject {
            if !injected && a.stats().retired >= f.at_uops {
                flip_history_bit(b, f.bit)?;
                injected = true;
            }
        }
        let rec = IntervalRecord {
            retired: a.stats().retired,
            cycle: a.stats().cycles,
            digest_a: a.state_digest(),
            digest_b: b.state_digest(),
        };
        if rec.digest_a != rec.digest_b && first_divergence.is_none() {
            first_divergence = Some(Divergence {
                retired: rec.retired,
                cycle_a: a.stats().cycles,
                cycle_b: b.stats().cycles,
            });
        }
        intervals.push(rec);
    }
    Ok(VerifyReport {
        probe: probe.to_owned(),
        benchmark: benchmark.to_owned(),
        intervals,
        first_divergence,
    })
}

/// Flips one bit of a simulation's global fetch-history register by
/// round-tripping its snapshot — a minimal, surgical single-bit state
/// fault injected from outside the crate boundary.
fn flip_history_bit(sim: &mut Simulation, bit: u32) -> Result<(), SimError> {
    let mut state = sim.save_state();
    let Value::Object(fields) = &mut state else {
        return Err(SimError::Stalled {
            retired: 0,
            target: 0,
            cycle: 0,
        });
    };
    let mut flipped = false;
    for (k, v) in fields.iter_mut() {
        if k == "fetch_history" {
            // The in-memory snapshot holds `UInt`, but a snapshot that
            // passed through JSON re-parses small values as `Int`.
            match v {
                Value::UInt(h) => {
                    *h ^= 1u64 << (bit % 64);
                    flipped = true;
                }
                Value::Int(h) => {
                    *v = Value::UInt((*h as u64) ^ (1u64 << (bit % 64)));
                    flipped = true;
                }
                _ => {}
            }
        }
    }
    assert!(flipped, "simulation snapshot lost its fetch_history field");
    sim.restore_state(&state)
        .expect("tampered snapshot keeps its own schema");
    Ok(())
}

/// Runs two independently built machines of the same cell in lockstep,
/// digesting both every `interval` retired uops. With `inject`, flips
/// a fetch-history bit in machine B at the requested mark; the probe
/// then *must* report a divergence (verified by the caller).
///
/// # Errors
///
/// Propagates [`SimError`] from either machine.
pub fn lockstep(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    mk_ctl: impl Fn() -> Controller,
    scale: Scale,
    interval: u64,
    inject: Option<Inject>,
) -> Result<VerifyReport, SimError> {
    let mut a = Simulation::new(cfg, wl, mk_ctl());
    let mut b = Simulation::new(cfg, wl, mk_ctl());
    let probe = if inject.is_some() {
        "lockstep+inject"
    } else {
        "lockstep"
    };
    drive(
        &mut a,
        &mut b,
        probe,
        &wl.name,
        scale.run_uops,
        interval,
        inject,
    )
}

/// Replays a cell from a mid-run snapshot: machine A runs to
/// `snapshot_at` retired uops, its snapshot travels through the
/// on-disk [`snapfile`](crate::snapfile) container at `snap_path`,
/// machine B restores from the file, and both run to `scale.run_uops`
/// comparing digests every `interval`.
///
/// # Errors
///
/// Propagates [`SimError`]; snapshot-container failures surface as
/// [`SimError::Stalled`] is never used for them — they panic, because
/// a snapshot this function itself just wrote must read back.
///
/// # Panics
///
/// Panics if the just-written snapshot file fails to read back or
/// restore — that is the bug this probe exists to catch.
pub fn replay(
    wl: &WorkloadConfig,
    cfg: PipelineConfig,
    mk_ctl: impl Fn() -> Controller,
    scale: Scale,
    snapshot_at: u64,
    interval: u64,
    snap_path: &Path,
) -> Result<VerifyReport, SimError> {
    let mut a = Simulation::new(cfg, wl, mk_ctl());
    a.try_run(snapshot_at.min(scale.run_uops))?;
    crate::snapfile::write(snap_path, &a.save_state())
        .unwrap_or_else(|e| panic!("cannot write verify snapshot: {e}"));
    let restored = crate::snapfile::read(snap_path)
        .unwrap_or_else(|e| panic!("just-written snapshot failed to read back: {e}"));
    let mut b = Simulation::new(cfg, wl, mk_ctl());
    b.restore_state(&restored)
        .unwrap_or_else(|e| panic!("just-written snapshot failed to restore: {e}"));
    drive(
        &mut a,
        &mut b,
        "replay",
        &wl.name,
        scale.run_uops,
        interval,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{controller, perceptron, PredictorKind};

    fn cfg() -> PipelineConfig {
        PipelineConfig::with_depth_width(20, 4)
    }

    fn mk() -> Controller {
        controller(PredictorKind::BimodalGshare, perceptron(14))
    }

    fn small_scale() -> Scale {
        Scale {
            warmup_uops: 0,
            run_uops: 60_000,
            warmup_branches: 0,
            run_branches: 0,
        }
    }

    #[test]
    fn identical_machines_never_diverge() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let r = lockstep(&wl, cfg(), mk, small_scale(), 15_000, None).unwrap();
        assert!(!r.diverged(), "{}", r.render());
        assert_eq!(r.intervals.len(), 4);
        assert!(r.render().contains("identical throughout"));
    }

    #[test]
    fn injected_bit_flip_is_detected_with_its_cycle() {
        let wl = perconf_workload::spec2000_config("gcc").unwrap();
        let inject = Inject {
            at_uops: 30_000,
            bit: 3,
        };
        let r = lockstep(&wl, cfg(), mk, small_scale(), 15_000, Some(inject)).unwrap();
        let d = r.first_divergence.expect("single-bit fault must be seen");
        assert!(
            d.retired > inject.at_uops,
            "divergence {} must postdate the injection at {}",
            d.retired,
            inject.at_uops
        );
        assert!(d.cycle_a > 0);
        assert!(r.render().contains("DIVERGED"));
    }

    #[test]
    fn replay_from_snapfile_tracks_the_original() {
        let wl = perconf_workload::spec2000_config("twolf").unwrap();
        let path = std::env::temp_dir().join(format!(
            "perconf-verify-replay-{}.psnap",
            std::process::id()
        ));
        let r = replay(&wl, cfg(), mk, small_scale(), 20_000, 10_000, &path).unwrap();
        assert!(!r.diverged(), "{}", r.render());
        let _ = std::fs::remove_file(&path);
    }
}
