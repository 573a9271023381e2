//! The degraded assembly a spent restart budget falls back to reads
//! the checkpoint directory by the same rule as the distributed merge
//! (`runner::recover`): a dead incarnation's final checkpoint is served
//! and cached, its failure marker lists the cell with the marker's
//! kind, and only a cell with nothing on disk is `abandoned`.

use perconf_experiments::faults::{self, FaultCell, FaultTable, Grid};
use perconf_experiments::runner::{CellSpec, RunnerConfig, Scheduler, SchedulerConfig};
use perconf_experiments::Scale;
use perconf_obs::CounterSnapshot;
use perconf_serve::actor::{assemble_partial, ActorConfig};
use perconf_serve::api::ExperimentSpec;
use perconf_serve::cache::{CacheConfig, CellCache};
use std::sync::Mutex;

#[test]
fn spent_budget_reports_failure_markers_and_serves_final_checkpoints() {
    let root = std::env::temp_dir().join(format!("perconf-serve-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let seed = 11;
    // The `small` grid: jrs × {gcc, twolf} × {0, 1e-2}.
    let rates = Grid::small().rates;
    let key = |bench: &str, ri: usize| faults::cell_key(seed, "jrs", bench, ri);
    let done = FaultCell {
        benchmark: "gcc".to_owned(),
        estimator: "jrs".to_owned(),
        rate: rates[1],
        pvn: 35.0,
        spec: 48.0,
        miss_rate: 5.0,
        ipc: 1.5,
        faults_predictor: 3,
        faults_estimator: 1,
        counters: CounterSnapshot::default(),
    };

    // What a dead incarnation's one-job scheduler leaves behind: the
    // first cell spent its retry budget on a panic, the second one
    // finished.
    let cells_dir = root.join("cells");
    let mut scheduler = Scheduler::new(SchedulerConfig {
        runner: RunnerConfig {
            retries: 0,
            timeout: None,
            ..RunnerConfig::resuming(&cells_dir)
        },
        jobs: 1,
    });
    let finished = done.clone();
    let report = scheduler.run_cells(vec![
        CellSpec::new(key("gcc", 0), |_| -> FaultCell {
            panic!("scripted cell death")
        }),
        CellSpec::new(key("gcc", 1), move |_| finished.clone()),
    ]);
    assert!(report.cells[0].outcome.is_err());
    assert!(report.cells[1].outcome.is_ok());

    let cache = Mutex::new(CellCache::open(CacheConfig::at(root.join("cache"))).unwrap());
    let cfg = ActorConfig {
        spec: ExperimentSpec {
            seed,
            scale: "tiny".to_owned(),
            grid: "small".to_owned(),
        },
        checkpoint_dir: cells_dir,
        jobs: 1,
        cell_timeout: None,
        kill_after: None,
    };
    let out = assemble_partial(&cfg, &cache).unwrap();
    assert_eq!(
        out.failed,
        [key("gcc", 0), key("twolf", 0), key("twolf", 1)]
    );
    assert_eq!(out.failed_kinds, ["panic", "abandoned", "abandoned"]);
    assert_eq!((out.from_cache, out.computed, out.resumed), (0, 0, 1));

    let digest = faults::cell_content_digest(seed, Scale::tiny(), "jrs", "gcc", 1, rates[1]);
    let cached = cache
        .lock()
        .unwrap()
        .get(digest)
        .expect("resumed cell is cached");
    assert_eq!(serde_json::from_value::<FaultCell>(&cached).unwrap(), done);
    let table: FaultTable = serde_json::from_value(&out.table).unwrap();
    assert_eq!(table.cells, [done]);
    assert_eq!(table.failed, out.failed);
    let _ = std::fs::remove_dir_all(&root);
}
