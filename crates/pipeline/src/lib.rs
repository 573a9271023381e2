//! Cycle-level, trace-driven out-of-order superscalar pipeline
//! simulator — the execution substrate of the HPCA 2004 reproduction.
//!
//! The paper evaluates pipeline gating and branch reversal on a
//! cycle-accurate IA32 uop simulator modelled on the Pentium 4
//! (Table 1). This crate implements an equivalent from-scratch
//! simulator over the synthetic uop traces of `perconf-workload`:
//!
//! * a front-end pipe of configurable depth and width, with a branch
//!   predictor + confidence estimator (`perconf-core`'s
//!   [`SpeculationController`](perconf_core::SpeculationController)) in
//!   the fetch stage;
//! * **wrong-path modelling**: after a branch whose *speculated*
//!   direction is wrong is fetched, the front end keeps fetching
//!   synthesised wrong-path uops that occupy real resources and
//!   execute until the branch resolves, at which point everything
//!   younger is squashed and fetch redirects (paying the full
//!   front-end refill);
//! * out-of-order issue over int/mem/fp schedulers and functional
//!   units, a ROB, and load/store buffers (Table 1 sizes);
//! * an L1D/L2/memory hierarchy with a stream prefetcher;
//! * **pipeline gating**: a low-confidence branch counter gates fetch
//!   while `count >= threshold` (paper Figure 1), with configurable
//!   estimator latency (§5.4.2);
//! * **branch reversal**: strongly-low-confidence predictions are
//!   inverted at fetch (§5.5);
//! * a two-thread **SMT** core ([`SmtSimulation`]) on the same stages:
//!   each thread gets half the ROB, load/store buffers and front end,
//!   and the threads share the fetch port ([`FetchPolicy`]), the
//!   scheduler windows, the execution units and the memory hierarchy.
//!
//! [`Simulation::run`] retires a requested number of correct-path uops
//! and produces [`SimStats`]: fetched/executed/retired uop counts split
//! by path, cycles, gated cycles, misprediction and reversal counts,
//! the PVN/Spec confusion quadrants, and (optionally) the perceptron
//! output densities of Figures 4–7.
//!
//! # Examples
//!
//! ```
//! use perconf_bpred::baseline_bimodal_gshare;
//! use perconf_core::{AlwaysHigh, SpeculationController};
//! use perconf_pipeline::{PipelineConfig, Simulation};
//! use perconf_workload::spec2000_config;
//!
//! let wl = spec2000_config("gcc").unwrap();
//! let ctl = SpeculationController::new(
//!     Box::new(baseline_bimodal_gshare()) as Box<dyn perconf_bpred::SimPredictor>,
//!     Box::new(AlwaysHigh) as Box<dyn perconf_core::SimEstimator>,
//! );
//! let mut sim = Simulation::new(PipelineConfig::with_depth_width(20, 4), &wl, ctl);
//! let stats = sim.run(20_000);
//! assert!(stats.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod config;
mod energy;
mod sim;
mod stats;

pub use batch::BatchSim;
pub use cache::{Cache, CacheConfig, MemHierarchy, MemHierarchyConfig, StreamPrefetcher};
pub use config::{GatingConfig, PipelineConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
/// The observability layer (counters, tracer, profiler), re-exported
/// so downstream crates can name its types without a separate
/// dependency edge.
pub use perconf_obs as obs;
pub use sim::{Controller, FetchPolicy, SimError, Simulation, SmtSimulation};
pub use stats::SimStats;
