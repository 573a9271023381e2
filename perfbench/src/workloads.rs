//! The three workloads behind one [`Workload`] interface: `table2` and
//! `faults-b4` here, `serve-mix` in [`crate::serve_mix`].
//!
//! Each workload builds its inputs from the benchmark seed and hands the
//! library only those inputs (spec documents, workload configurations,
//! experiment specs). A pass returns what the timed operations produced,
//! keyed per operation, so [`crate::check`] can fail single operations.

use crate::check::{self, GOLDEN_SEED};
use crate::harness::{speed, Calibrator, REFERENCE_S};
use perconf_core::AlwaysHigh;
use perconf_experiments::common::{self, run_pipeline_checkpointed, PredictorKind};
use perconf_experiments::faults::{self, FaultCell, FaultTable, Grid};
use perconf_experiments::runner::{
    CellSpec, CellTiming, CheckpointCell, Scheduler, SchedulerConfig,
};
use perconf_experiments::spec::{Lowered, RunSpec};
use perconf_experiments::{table2, Scale};
use perconf_obs::CounterSnapshot;
use perconf_workload::WorkloadConfig;
use serde::{Deserialize, DeserializeOwned, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Repeats of a pass's requests answered from stored results, after one
/// more that warms the file cache and is not kept.
const HIT_REPS: usize = 10;

/// Simulated work of a pass, summed over the simulations it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Uops fetched (correct and wrong path) in measured phases.
    pub fetched: u64,
    /// Of those, fetched down a mispredicted path.
    pub fetched_wrong: u64,
    /// Uops executed (issued to a functional unit).
    pub executed: u64,
    /// Of those, executed down a mispredicted path.
    pub executed_wrong: u64,
}

impl SimCounts {
    /// Adds a simulation counter snapshot (`fetch` and `rob` groups).
    pub fn add_counters(&mut self, c: &CounterSnapshot) {
        let get = |g, n| c.get(g, n).unwrap_or(0);
        self.fetched += get("fetch", "uops_correct") + get("fetch", "uops_wrong");
        self.fetched_wrong += get("fetch", "uops_wrong");
        self.executed += get("rob", "executed_correct") + get("rob", "executed_wrong");
        self.executed_wrong += get("rob", "executed_wrong");
    }
}

/// Counts from the experiment server's `Stats` replies, summed over
/// the server lifetimes of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Cell lookups served from the cache.
    pub hits: u64,
    /// Cell lookups that had to simulate.
    pub misses: u64,
    /// Hits read back from the disk tier.
    pub rehydrations: u64,
}

impl ServeCounts {
    /// Adds one server's `cache` counter group.
    pub fn add(&mut self, c: &CounterSnapshot) {
        let get = |n| c.get("cache", n).unwrap_or(0);
        self.hits += get("hits");
        self.misses += get("misses");
        self.rehydrations += get("rehydrations");
    }
}

/// What one timed pass (or one batch of repeat requests) produced.
///
/// On `table2` and `faults-b4` the benchmark hands the scheduler one
/// operation at a time and samples the [`Calibrator`] between them; the
/// samples are not part of any timing. `ref_wall_s`, `miss_ms` and
/// `hit_ms` are then rescaled to the reference speed by the samples on
/// either side of each operation. On `serve-mix` only the first
/// submissions, which simulate, are rescaled; the repeats are mostly
/// socket round trips and stay wall times.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Wall time of the pass at the calibrator's reference speed.
    pub ref_wall_s: f64,
    /// Operations attempted (cells or submissions).
    pub attempted: u64,
    /// `(operation key, output digest)` per operation that returned a
    /// result; attempted operations missing here failed.
    pub outputs: Vec<(String, u64)>,
    /// Latency of each operation that had to simulate.
    pub miss_ms: Vec<f64>,
    /// Latency of each operation answered from stored results.
    pub hit_ms: Vec<f64>,
    /// Submit-to-`Accepted` latency of each submission.
    pub accept_ms: Vec<f64>,
    /// Wall time spent inside operations (the rest is outside them).
    pub busy_s: f64,
    /// Simulated work.
    pub sim: SimCounts,
    /// Server cache counters.
    pub serve: ServeCounts,
}

/// One benchmark workload.
pub trait Workload {
    /// Builds what one pass needs; timed as set-up.
    ///
    /// # Errors
    ///
    /// Returns why the inputs could not be built.
    fn setup(&mut self) -> Result<(), String>;

    /// Runs one timed pass over the set-up inputs.
    ///
    /// # Errors
    ///
    /// Returns why the pass could not run at all (single failed
    /// operations are reported in the [`Pass`] instead).
    fn pass(&mut self) -> Result<Pass, String>;

    /// Stops what [`setup`](Self::setup) started. Untimed.
    fn teardown(&mut self) {}

    /// Repeats the last pass's requests against their stored results
    /// under `dir` (the `--resume` path of a finished run); a workload
    /// whose passes already mix in repeat requests returns an empty
    /// [`Pass`].
    ///
    /// # Errors
    ///
    /// Returns why the repeat requests could not run.
    fn hits(&mut self, dir: &Path) -> Result<Pass, String>;

    /// The expected output digest per operation key, checked against an
    /// independent computation where the cost allows, against the
    /// goldens and recorded digests at seed 42, and otherwise against
    /// `first` (so later passes must repeat it exactly). An empty map
    /// fails every operation.
    ///
    /// # Errors
    ///
    /// Returns why the reference could not be computed.
    fn expected(&mut self, first: &Pass) -> Result<BTreeMap<String, u64>, String>;
}

fn lower(text: &str, file: &str) -> Result<Lowered, String> {
    RunSpec::parse_toml(text, file)
        .map_err(|e| e.message().to_owned())?
        .lower()
}

/// Records one scheduler cell: its latency, split by whether it
/// simulated or was served from a stored result, and its output. With
/// `want_hit`, a cell that simulated instead of resuming has failed.
fn record<T>(
    pass: &mut Pass,
    timing: &CellTiming,
    latency_s: f64,
    out: Option<&T>,
    digest: impl Fn(&T) -> u64,
    want_hit: bool,
) {
    pass.attempted += 1;
    let ms = latency_s * 1e3;
    if timing.resumed {
        pass.hit_ms.push(ms);
    } else {
        pass.miss_ms.push(ms);
    }
    if let (true, Some(v)) = (timing.ok && timing.resumed == want_hit, out) {
        pass.outputs.push((timing.key.clone(), digest(v)));
    }
}

/// Rescales the latencies of a batch of repeat requests by `k`. A
/// repeat takes microseconds, far less than a calibration sample, so
/// the samples bracket the whole batch rather than each request.
fn rescale(pass: &mut Pass, k: f64) {
    for ms in pass.hit_ms.iter_mut().chain(&mut pass.miss_ms) {
        *ms *= k;
    }
}

/// Writes `cells` under `dir` as finished results, through the runner
/// itself, so a scheduler resuming from `dir` serves every one of them
/// without simulating.
fn store_results<T>(dir: &Path, cells: &[(String, T)])
where
    T: Clone + Serialize + DeserializeOwned + Send + Sync + 'static,
{
    let stored = cells
        .iter()
        .map(|(key, c)| {
            let c = c.clone();
            CellSpec::new(key.clone(), move |_: &CheckpointCell| c.clone())
        })
        .collect();
    Scheduler::new(SchedulerConfig::for_run(1, Some(dir))).run_cells(stored);
    // Flush them, so that their write-back does not land in the timed
    // repeats.
    let _ = std::process::Command::new("sync").status();
}

/// One Table 2 cell's result plus the raw counts behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct T2Cell {
    /// The table's view of the cell.
    pub cell: table2::ShapeCell,
    /// Simulated work behind it.
    pub fetched: u64,
    /// Wrong-path fetches.
    pub fetched_wrong: u64,
    /// Executed uops.
    pub executed: u64,
    /// Wrong-path executions.
    pub executed_wrong: u64,
}

impl T2Cell {
    fn digest(&self) -> u64 {
        let c = &self.cell;
        check::table2_cell_digest(c.executed, c.fetched, (c.shape == 2).then_some(c.mpku))
    }
}

/// Computes one Table 2 cell the way `table2::run_shape_cell` does
/// (`AlwaysHigh` controller, 50k-uop checkpoint interval), on an
/// explicit workload configuration so the seed can reseed it.
fn table2_cell(wl: &WorkloadConfig, shape: usize, scale: Scale, chk: &CheckpointCell) -> T2Cell {
    let _span = common::profiler().scope("bench/cell");
    let (_, cfg) = table2::shapes()[shape];
    let mk = || common::controller(PredictorKind::BimodalGshare, Box::new(AlwaysHigh));
    let sim = run_pipeline_checkpointed(wl, cfg, mk, scale, chk, 50_000)
        .unwrap_or_else(|e| panic!("{e}"));
    let s = sim.stats();
    T2Cell {
        cell: table2::ShapeCell {
            bench: wl.name.clone(),
            shape,
            executed: s.wasted_execution_frac() * 100.0,
            fetched: if s.fetched_correct == 0 {
                0.0
            } else {
                s.fetched_wrong as f64 * 100.0 / s.fetched_correct as f64
            },
            mpku: s.mpku(),
        },
        fetched: s.fetched_correct + s.fetched_wrong,
        fetched_wrong: s.fetched_wrong,
        executed: s.executed_total(),
        executed_wrong: s.executed_wrong,
    }
}

fn table2_specs(scale: Scale, benches: &[WorkloadConfig]) -> Vec<CellSpec<T2Cell>> {
    let mut specs = Vec::new();
    for wl in benches {
        for shape in 0..table2::shapes().len() {
            let wl = wl.clone();
            specs.push(CellSpec::new(
                table2::cell_key(&wl.name, shape),
                move |chk: &CheckpointCell| table2_cell(&wl, shape, scale, chk),
            ));
        }
    }
    specs
}

const TABLE2_SPEC: &str = "spec_version = 1\n\n[experiment]\nkind = \"table2\"\nscale = \"tiny\"\n";

/// `table2`: Table 2 at tiny scale, all twelve benchmarks on all three
/// shapes, 36 cells through a one-job scheduler with no checkpoint
/// directory, handed to it one cell at a time.
pub struct Table2Workload {
    seed: u64,
    benches: Option<usize>,
    scale: Scale,
    configs: Vec<WorkloadConfig>,
    ready: Option<(Vec<CellSpec<T2Cell>>, Scheduler)>,
    last: Vec<(String, T2Cell)>,
    cal: Calibrator,
}

impl Table2Workload {
    /// Seed 42 runs the paper's configurations; any other seed reseeds
    /// every benchmark's program and outcomes (`common::reseed`).
    /// `benches` keeps only the first n benchmarks (self-tests).
    #[must_use]
    pub fn new(seed: u64, benches: Option<usize>) -> Self {
        Self {
            seed,
            benches,
            scale: Scale::tiny(),
            configs: Vec::new(),
            ready: None,
            last: Vec::new(),
            cal: Calibrator::new(),
        }
    }
}

impl Workload for Table2Workload {
    fn setup(&mut self) -> Result<(), String> {
        let Lowered::Table2 { scale, benchmarks } = lower(TABLE2_SPEC, "table2.toml")? else {
            return Err("table2 spec lowered to another experiment".into());
        };
        let n = self.benches.unwrap_or(benchmarks.len());
        self.scale = scale;
        self.configs = benchmarks
            .iter()
            .take(n)
            .map(|wl| {
                if self.seed == GOLDEN_SEED {
                    wl.clone()
                } else {
                    common::reseed(wl, self.seed)
                }
            })
            .collect();
        let specs = table2_specs(scale, &self.configs);
        self.ready = Some((specs, Scheduler::new(SchedulerConfig::for_run(1, None))));
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let (specs, mut scheduler) = self.ready.take().ok_or("table2: pass before setup")?;
        let mut pass = Pass::default();
        self.last.clear();
        let mut before = self.cal.sample();
        for spec in specs {
            let t = Instant::now();
            let report = scheduler.run_cells(vec![spec]);
            let wall = t.elapsed().as_secs_f64();
            let after = self.cal.sample();
            let k = speed(before, after);
            before = after;
            pass.wall_s += wall;
            pass.ref_wall_s += wall * k;
            for r in report.cells {
                let timing = r.timing();
                pass.busy_s += timing.wall_s;
                let cell = r.outcome.ok();
                record(
                    &mut pass,
                    &timing,
                    timing.wall_s * k,
                    cell.as_ref(),
                    T2Cell::digest,
                    false,
                );
                if let Some(c) = cell {
                    pass.sim.fetched += c.fetched;
                    pass.sim.fetched_wrong += c.fetched_wrong;
                    pass.sim.executed += c.executed;
                    pass.sim.executed_wrong += c.executed_wrong;
                    self.last.push((r.key, c));
                }
            }
        }
        Ok(pass)
    }

    fn hits(&mut self, dir: &Path) -> Result<Pass, String> {
        store_results(dir, &self.last);
        let (mut warm, mut pass) = (Pass::default(), Pass::default());
        let before = self.cal.sample();
        for rep in 0..=HIT_REPS {
            let mut scheduler = Scheduler::new(SchedulerConfig::for_run(1, Some(dir)));
            let report = scheduler.run_cells(table2_specs(self.scale, &self.configs));
            let into = if rep == 0 { &mut warm } else { &mut pass };
            for r in report.cells {
                let timing = r.timing();
                record(
                    into,
                    &timing,
                    timing.wall_s,
                    r.outcome.as_ref().ok(),
                    T2Cell::digest,
                    true,
                );
            }
        }
        rescale(&mut pass, speed(before, self.cal.sample()));
        Ok(pass)
    }

    fn expected(&mut self, _first: &Pass) -> Result<BTreeMap<String, u64>, String> {
        // The plain (uncheckpointed) Table 2 path must agree bit for bit.
        let reference = table2::run_on(self.scale, &self.configs);
        if self.seed == GOLDEN_SEED && self.benches.is_none() {
            let mut bad = check::table2_golden_mismatches(&reference);
            if let Err(e) = check::check_recorded("table2", &[check::digest_json(&reference)]) {
                bad.push(e);
            }
            if !bad.is_empty() {
                eprintln!("table2: output check failed:\n  {}", bad.join("\n  "));
                return Ok(BTreeMap::new());
            }
        }
        let mut map = BTreeMap::new();
        for row in &reference.rows {
            for (s, w) in row.waste.iter().enumerate() {
                let mpku = (s == 2).then_some(row.mpku);
                map.insert(
                    table2::cell_key(&row.bench, s),
                    check::table2_cell_digest(w.executed, w.fetched, mpku),
                );
            }
        }
        Ok(map)
    }
}

/// The `faults` spec document for `seed`: the full grid at tiny scale.
fn faults_spec(seed: u64) -> String {
    format!(
        "spec_version = 1\n\n[experiment]\nkind = \"faults\"\nscale = \"tiny\"\nseed = {seed}\n\n\
         [faults]\ngrid = \"full\"\n"
    )
}

/// Batch width of the `faults-b4` workload.
const WIDTH: usize = 4;

/// `faults-b4`: the full fault grid at tiny scale (2 estimators × 3
/// benchmarks × 5 rates), four cells per batched cycle loop, one job, no
/// checkpoint directory. The eight batch groups go to the scheduler one
/// at a time.
pub struct FaultsWorkload {
    seed: u64,
    scale: Scale,
    grid: Grid,
    ready: Option<Scheduler>,
    first: Option<FaultTable>,
    last: Vec<(String, FaultCell)>,
    cal: Calibrator,
}

impl FaultsWorkload {
    /// The campaign seed is the benchmark seed; 42 is `repro`'s default.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            scale: Scale::tiny(),
            grid: Grid::full(),
            ready: None,
            first: None,
            last: Vec::new(),
            cal: Calibrator::new(),
        }
    }

    /// Runs the grid's batch groups through `scheduler`, one group per
    /// call, and assembles the table as `faults::run_grid_batched` does;
    /// records every cell (`want_hit`: as a repeat served from stored
    /// results, whose latencies are left to [`rescale`]).
    fn run(&mut self, scheduler: &mut Scheduler, pass: &mut Pass, want_hit: bool) -> FaultTable {
        let (mut cells, mut failed) = (Vec::new(), Vec::new());
        let mut sample = || {
            if want_hit {
                REFERENCE_S
            } else {
                self.cal.sample()
            }
        };
        let mut before = sample();
        for group in faults::batch_specs(self.scale, self.seed, &self.grid, WIDTH) {
            let t = Instant::now();
            let report = scheduler.run_batches(vec![group]);
            let wall = t.elapsed().as_secs_f64();
            let after = sample();
            let k = speed(before, after);
            before = after;
            pass.wall_s += wall;
            pass.ref_wall_s += wall * k;
            // The runner times every member of a batch group from the
            // group's start. Members served from stored results are read
            // one after another, so each one's own latency is the step
            // from the member before; simulated members finish with the
            // group.
            let (mut prev, mut group_s) = (0.0, 0.0_f64);
            for r in report.cells {
                let timing = r.timing();
                let latency = if timing.resumed {
                    timing.wall_s - prev
                } else {
                    timing.wall_s
                };
                prev = timing.wall_s;
                group_s = group_s.max(timing.wall_s);
                let cell = r.outcome.ok();
                record(
                    pass,
                    &timing,
                    latency * k,
                    cell.as_ref(),
                    check::digest_json,
                    want_hit,
                );
                match cell {
                    Some(c) => cells.push(c),
                    None => failed.push(r.key),
                }
            }
            pass.busy_s += group_s;
        }
        faults::table_from_cells(self.seed, &self.grid, cells, failed)
    }
}

impl Workload for FaultsWorkload {
    fn setup(&mut self) -> Result<(), String> {
        let Lowered::Faults { scale, seed, grid } = lower(&faults_spec(self.seed), "faults.toml")?
        else {
            return Err("faults spec lowered to another experiment".into());
        };
        (self.scale, self.seed, self.grid) = (scale, seed, grid);
        self.ready = Some(Scheduler::new(SchedulerConfig::for_run(1, None)));
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        let mut scheduler = self.ready.take().ok_or("faults-b4: pass before setup")?;
        let mut pass = Pass::default();
        let table = self.run(&mut scheduler, &mut pass, false);
        pass.sim.add_counters(&table.counters);
        self.last = pass
            .outputs
            .iter()
            .map(|(k, _)| k.clone())
            .zip(table.cells.iter().cloned())
            .collect();
        self.first.get_or_insert(table);
        Ok(pass)
    }

    fn hits(&mut self, dir: &Path) -> Result<Pass, String> {
        store_results(dir, &self.last);
        let (mut warm, mut pass) = (Pass::default(), Pass::default());
        let before = self.cal.sample();
        for rep in 0..=HIT_REPS {
            let mut scheduler = Scheduler::new(SchedulerConfig::for_run(1, Some(dir)));
            let into = if rep == 0 { &mut warm } else { &mut pass };
            self.run(&mut scheduler, into, true);
        }
        rescale(&mut pass, speed(before, self.cal.sample()));
        Ok(pass)
    }

    fn expected(&mut self, first: &Pass) -> Result<BTreeMap<String, u64>, String> {
        let mut map: BTreeMap<String, u64> = first.outputs.iter().cloned().collect();
        if self.seed == GOLDEN_SEED {
            let table = self.first.as_ref().ok_or("faults-b4: no pass ran")?;
            if let Err(e) = check::check_recorded("faults-b4", &[check::digest_json(table)]) {
                eprintln!("faults-b4: output check failed: {e}");
                return Ok(BTreeMap::new());
            }
        }
        // One batch group, chosen by the seed, recomputed on the
        // sequential one-cell path the batched one must match.
        let mut coords = Vec::new();
        for est in &self.grid.estimators {
            for bench in &self.grid.benchmarks {
                for (ri, &rate) in self.grid.rates.iter().enumerate() {
                    coords.push((est.clone(), bench.clone(), ri, rate));
                }
            }
        }
        let groups = coords.len().div_ceil(WIDTH);
        let g = (self.seed % groups as u64) as usize;
        for (est, bench, ri, rate) in coords.iter().skip(g * WIDTH).take(WIDTH) {
            let cs = faults::cell_seed(self.seed, bench, est, *ri);
            let cell = faults::run_cell(
                bench,
                est,
                *rate,
                cs,
                self.scale,
                &CheckpointCell::disabled(),
            );
            let key = faults::cell_key(self.seed, est, bench, *ri);
            let d = check::digest_json(&cell);
            if map.get(&key) != Some(&d) {
                eprintln!("faults-b4: batched cell {key} differs from its sequential run");
            }
            map.insert(key, d);
        }
        Ok(map)
    }
}
