//! Branch-predictor substrate for the HPCA 2004 confidence-estimation
//! reproduction.
//!
//! The paper's baseline processor uses a *"combined: 16K bimodal, 64K
//! gshare, 64K meta"* hybrid predictor (Table 1), and §5.2 additionally
//! evaluates a *gshare–perceptron* hybrid. This crate implements all of
//! the pieces from scratch:
//!
//! * [`SatCounter`] — n-bit saturating counters (the universal
//!   building block, also reused by the confidence estimators), held
//!   in [`Counters`] tables;
//! * [`Bimodal`] — per-PC 2-bit counters;
//! * [`Gshare`] — global-history XOR-indexed counters (McFarling);
//! * [`PerceptronPredictor`] — the Jimenez–Lin perceptron predictor,
//!   trained with taken/not-taken directions;
//! * [`Hybrid`] — a McFarling meta/chooser combiner over any two
//!   predictors, giving the paper's `bimodal-gshare` baseline and the
//!   `gshare-perceptron` predictor of §5.2.
//!
//! All predictors implement [`BranchPredictor`]: `predict` is a pure
//! lookup against the caller-supplied global-history snapshot, and
//! `train` is applied non-speculatively (at retirement) with the same
//! snapshot that was live at prediction time.
//!
//! The crate also hosts what every persisted file in the workspace
//! shares, beside the FNV-1a digest they use: [`atomic_write`], the one
//! atomic file writer, and [`frame`], the one checksummed container.
//! It depends only on serde, so every other crate can reach them.
//!
//! # Examples
//!
//! ```
//! use perconf_bpred::{BranchPredictor, Gshare};
//!
//! let mut p = Gshare::new(16, 12); // 2^16 counters, 12 history bits
//! let pc = 0x40_0000;
//! for _ in 0..32 {
//!     let hist = 0;
//!     let _ = p.predict(pc, hist);
//!     p.train(pc, hist, true); // branch is always taken
//! }
//! assert!(p.predict(pc, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod counter;
mod faultable;
pub mod frame;
mod gshare;
mod history;
mod hybrid;
mod perceptron;
mod snapshot;
mod tage;
mod traits;

pub use bimodal::Bimodal;
pub use counter::{Counters, ResettingCounter, SatCounter, TableCounter};
pub use faultable::{FaultablePredictor, FaultableState};
pub use frame::atomic_write;
pub use gshare::Gshare;
pub use history::GlobalHistory;
pub use hybrid::Hybrid;
pub use perceptron::{flip_weight_bit, perceptron_theta, PerceptronPredictor};
pub use snapshot::{
    digest_bytes, digest_value, SimPredictor, Snapshot, SnapshotError, StateDigest,
};
pub use tage::Tage;
pub use traits::BranchPredictor;

/// Builds the paper's Table 1 baseline predictor: 16K-entry bimodal +
/// 64K-entry gshare combined by a 64K-entry meta table.
///
/// The gshare component folds 8 history bits into its 16-bit index —
/// using fewer history bits than index bits is the standard way to
/// trade pattern-space size against warm-up time; 8 bits cover every
/// short-range correlated tap the synthetic workloads emit while
/// leaving the long-range (periodic / long-history) correlations to
/// structures with longer windows, exactly the regime the perceptron
/// literature targets.
#[must_use]
pub fn baseline_bimodal_gshare() -> Hybrid<Bimodal, Gshare> {
    Hybrid::new(Bimodal::new(14), Gshare::new(16, 8), 16)
}

/// Builds the §5.2 gshare–perceptron hybrid: 64K gshare combined with a
/// 256-entry, 32-history perceptron predictor by a 64K meta table.
#[must_use]
pub fn gshare_perceptron() -> Hybrid<Gshare, PerceptronPredictor> {
    Hybrid::new(Gshare::new(16, 8), PerceptronPredictor::new(256, 32), 16)
}

/// Builds an extension baseline two steps past the paper: 64K gshare
/// combined with a [`Tage`] predictor. Used to show Table 5's
/// better-predictor trend continuing with a modern predictor.
#[must_use]
pub fn tage_hybrid() -> Hybrid<Gshare, Tage> {
    Hybrid::new(Gshare::new(16, 8), Tage::default_config(), 16)
}
