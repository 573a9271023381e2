//! An experiment that outlives its watchdog with no restarts left
//! finalises degraded: the abandoned incarnation counts as a watchdog
//! kill, not a restart, and the degraded table accounts for every grid
//! cell exactly once.

// Test deadlines: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::faults::{self, FaultCell, FaultTable};
use perconf_experiments::runner;
use perconf_serve::api::ExperimentSpec;
use perconf_serve::supervisor::{Phase, Submitted, Supervisor, SupervisorConfig};
use std::time::{Duration, Instant};

#[test]
fn an_experiment_past_its_watchdog_finalises_degraded() {
    let state = std::env::temp_dir().join(format!("perconf-serve-wdog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut cfg = SupervisorConfig::at(&state);
    cfg.restart_budget = 0;
    cfg.watchdog = Duration::from_millis(1);
    let sup = Supervisor::start(cfg).expect("start supervisor");
    let seed = 31;
    let spec = ExperimentSpec {
        seed,
        scale: "tiny".to_owned(),
        grid: "small".to_owned(),
    };
    let id = match sup.submit(&spec, false) {
        Submitted::Accepted { id, .. } => id,
        other => panic!("submit rejected: {other:?}"),
    };

    let deadline = Instant::now() + Duration::from_secs(120);
    let phase = loop {
        assert!(Instant::now() < deadline, "{id} never finalised");
        match sup.status(&id).map(|e| e.phase) {
            Some(phase) if phase.is_terminal() => break phase,
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    assert_eq!(phase, Phase::Degraded);
    let stats = sup.stats();
    assert_eq!(stats.get("serve", "watchdog_kills"), Some(1));
    assert!(
        matches!(stats.get("serve", "restarts"), None | Some(0)),
        "a spent budget must not restart: {:?}",
        stats.get("serve", "restarts")
    );

    // Every grid cell appears exactly once, completed or failed.
    let table: FaultTable =
        serde_json::from_value(&sup.result_table(&id).expect("result table")).unwrap();
    let grid = faults::Grid::small();
    let mut listed: Vec<String> = table.failed.clone();
    for cell in &table.cells {
        let ri = grid
            .rates
            .iter()
            .position(|&r| r == cell.rate)
            .expect("cell rate is on the grid");
        listed.push(faults::cell_key(seed, &cell.estimator, &cell.benchmark, ri));
    }
    listed.sort();
    let mut expected = Vec::new();
    for est in &grid.estimators {
        for bench in &grid.benchmarks {
            for ri in 0..grid.rates.len() {
                expected.push(faults::cell_key(seed, est, bench, ri));
            }
        }
    }
    expected.sort();
    assert_eq!(listed, expected);

    // The abandoned incarnation runs on and stores all four cells'
    // finals; let it finish writing before the state directory goes.
    let spec_dir = state.join("specs").join(spec.digest_hex());
    while !expected
        .iter()
        .all(|key| matches!(runner::recover::<FaultCell>(&spec_dir, key), Some(Ok(_))))
    {
        assert!(
            Instant::now() < deadline,
            "abandoned incarnation never finished"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    sup.shutdown_and_drain();
    let _ = std::fs::remove_dir_all(&state);
}
