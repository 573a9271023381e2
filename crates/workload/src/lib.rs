//! Synthetic workload substrate for the HPCA 2004 perceptron
//! confidence-estimation reproduction.
//!
//! The paper evaluates on proprietary Intel "LIT" traces of the
//! SPECint2000 benchmarks, which are not available. This crate replaces
//! them with a **calibrated synthetic workload generator**: each of the
//! twelve SPECint2000 benchmark names is modelled as a static program of
//! branch *sites*, each site drawing its outcomes from one of several
//! behaviour classes (strongly biased, loop exit, linearly
//! history-correlated, non-linearly (XOR) history-correlated, or
//! data-dependent random). The class mixture, branch density, memory
//! footprint and dependence structure of each benchmark are calibrated
//! so that the branch misprediction rate spectrum across benchmarks
//! approximates the paper's Table 2 (0.2–16 mispredicts per 1000 uops).
//!
//! What matters for confidence estimation is the *distribution of
//! branch predictability* — which branches a real predictor gets wrong,
//! and how that correlates with global history — not instruction-set
//! semantics, so this substitution preserves the behaviour the paper
//! measures (see `DESIGN.md` §2).
//!
//! The generator is an infinite, deterministic (seeded) iterator of
//! [`Uop`]s. Wrong-path uops (fetched past a mispredicted branch) are
//! synthesised from an independent RNG stream via
//! [`WorkloadGenerator::next_wrong_path`], so the correct-path stream is
//! bit-identical across simulator configurations — a prerequisite for
//! fair gating/no-gating comparisons.
//!
//! # Examples
//!
//! ```
//! use perconf_workload::{spec2000, WorkloadGenerator};
//!
//! let cfg = &spec2000()[2]; // gcc
//! let mut gen = WorkloadGenerator::new(cfg);
//! let branches = (0..10_000)
//!     .map(|_| gen.next_uop())
//!     .filter(|u| u.branch.is_some())
//!     .count();
//! assert!(branches > 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavior;
mod generator;
mod spec;
mod uop;
mod zipf;

pub use behavior::{BehaviorClass, BehaviorSpec, BranchSite, LONG_TAP_MAX, LONG_TAP_MIN, MAX_TAP};
pub use generator::WorkloadGenerator;
pub use spec::{spec2000, spec2000_config, BehaviorMix, Program, WorkloadConfig, SPEC2000_NAMES};
pub use uop::{Branch, MemRef, Uop, UopKind};
pub use zipf::Zipf;
