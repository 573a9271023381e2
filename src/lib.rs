//! # perconf — Perceptron-Based Branch Confidence Estimation
//!
//! A full reproduction of *"Perceptron-Based Branch Confidence
//! Estimation"* (Akkary, Srinivasan, Koltur, Patil, Refaai — HPCA
//! 2004), including every substrate the paper depends on:
//!
//! * [`workload`] — calibrated synthetic SPECint2000-like uop traces
//!   (replacing the paper's proprietary Intel LIT traces);
//! * [`bpred`] — bimodal, gshare, perceptron, TAGE and McFarling hybrid
//!   branch predictors;
//! * [`core`] — the paper's contribution: perceptron confidence
//!   estimation trained on correct/incorrect outcomes, plus the JRS,
//!   enhanced-JRS, perceptron_tnt, Smith and Tyson baselines, and the
//!   pipeline-gating / branch-reversal policies;
//! * [`pipeline`] — a cycle-level out-of-order superscalar simulator
//!   with wrong-path fetch/execute modelling;
//! * [`metrics`] — PVN/Spec confusion metrics, density histograms and
//!   table rendering;
//! * [`experiments`] — drivers that regenerate every table and figure
//!   of the paper's evaluation, plus a panic-isolated, checkpointing
//!   sweep runner ([`experiments::runner`]);
//! * [`faults`] — deterministic seeded fault injection: single-bit
//!   upsets in predictor/estimator state and transient history
//!   strikes, for the resilience extension, and seeded process faults
//!   for distributed-sweep workers.
//!
//! # Quickstart
//!
//! ```
//! use perconf::core::{ConfidenceEstimator, EstimateCtx, PerceptronCe, PerceptronCeConfig};
//!
//! let mut ce = PerceptronCe::new(PerceptronCeConfig::default());
//! let ctx = EstimateCtx { pc: 0x400100, history: 0b1011, predicted_taken: true };
//! let est = ce.estimate(&ctx);
//! // Train with the eventual outcome: was the branch prediction wrong?
//! ce.train(&ctx, est, /* mispredicted = */ false);
//! ```
//!
//! See `examples/` for end-to-end pipeline-gating runs and
//! `EXPERIMENTS.md` for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use perconf_bpred as bpred;
pub use perconf_core as core;
pub use perconf_experiments as experiments;
pub use perconf_faults as faults;
pub use perconf_metrics as metrics;
pub use perconf_pipeline as pipeline;
pub use perconf_workload as workload;
