//! Reproduction drivers for every table and figure in the evaluation
//! of *Perceptron-Based Branch Confidence Estimation* (HPCA 2004).
//!
//! Each experiment is a function returning a serialisable result
//! struct with a `render()` method that prints rows in the same shape
//! the paper reports, side by side with the paper's numbers where
//! available. The `repro` binary dispatches to them:
//!
//! ```text
//! cargo run --release -p perconf-experiments --bin repro -- table3
//! cargo run --release -p perconf-experiments --bin repro -- all --full
//! ```
//!
//! | ID | Paper content | Module |
//! |---|---|---|
//! | `table2` | workload speculation-waste characteristics | [`table2`] |
//! | `table3` | PVN/Spec: enhanced JRS vs perceptron | [`table3`] |
//! | `table4` | pipeline gating: uop reduction vs perf loss | [`table4`] |
//! | `table5` | effect of a better baseline predictor | [`table5`] |
//! | `table6` | perceptron size sensitivity | [`table6`] |
//! | `fig4`–`fig7` | perceptron output densities (cic vs tnt) | [`figs`] |
//! | `latency` | §5.4.2 estimator-latency sensitivity | [`latency`] |
//! | `fig8`/`fig9` | combined gating + reversal per benchmark | [`fig89`] |
//! | `energy` | energy / energy×delay of gating (extension) | [`energy`] |
//! | `faults` | resilience under fault injection (extension) | [`faults`] |
//! | `sweep` | distributed (multi-process) fault sweep | [`distrib`] |
//! | `run <spec>` | any of the above from a declarative spec file | [`spec`] |
//!
//! Long sweeps run their cells through [`runner::Scheduler`] (`--jobs
//! N` threads; one job runs cells one at a time), whose per-cell
//! engine isolates panics, applies watchdog timeouts, and checkpoints
//! completed cells so `repro --resume <dir>` skips finished work.
//! Scheduler output is byte-identical for any job count: results
//! merge in canonical sweep order and every cell seeds from its grid
//! coordinates, never from scheduling order. [`distrib`] extends the
//! same contract across worker *processes* via a filesystem lease
//! queue: `repro sweep --workers N` is byte-identical to `--workers
//! 1`, even when workers are killed and respawned mid-sweep.
//!
//! Absolute numbers differ from the paper (the substrate is a
//! synthetic-trace simulator, not Intel's LIT testbed — see
//! `DESIGN.md` §2); the drivers exist to reproduce the *shape* of
//! each result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod distrib;
pub mod energy;
pub mod exitcode;
pub mod faults;
pub mod fig89;
pub mod figs;
pub mod latency;
pub mod paper;
pub mod runner;
pub mod snapfile;
pub mod spec;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod verify;

pub use common::Scale;
/// Compatibility alias: the exit-code taxonomy used to live inline
/// here as `exit`; it is now the shared [`exitcode`] module.
pub use exitcode as exit;
