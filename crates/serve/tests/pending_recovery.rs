//! Recovery over a `pending/` directory a killed server left behind:
//! valid markers sit beside the temp file of a marker write that was
//! killed before its rename. The successor must re-enqueue every valid
//! marker, mark none failed, and never mistake the temp for a marker.

// Test deadline: wall-clock never reaches asserted results.
#![allow(clippy::disallowed_methods)]

use perconf_serve::api::ExperimentSpec;
use perconf_serve::supervisor::{Phase, Supervisor, SupervisorConfig};
use std::time::{Duration, Instant};

fn spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        seed,
        scale: "tiny".to_owned(),
        grid: "small".to_owned(),
    }
}

#[test]
fn leftover_temp_beside_valid_markers_re_enqueues_all_and_fails_none() {
    let state = std::env::temp_dir().join(format!("perconf-serve-tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let pending = state.join("pending");
    let ids: Vec<String> = [21, 22]
        .iter()
        .enumerate()
        .map(|(ord, &seed)| {
            let sp = spec(seed);
            let id = format!("{}-{ord}", sp.digest_hex());
            let body = serde_json::to_string_pretty(&sp).unwrap();
            perconf_bpred::atomic_write(
                &pending.join(format!("{id}.json")),
                &[body.as_bytes()],
                true,
            )
            .unwrap();
            id
        })
        .collect();
    // The third accepted experiment's marker write died mid-write: only
    // a torn temp sibling, named the way `atomic_write` names temps,
    // remains.
    let torn = serde_json::to_string_pretty(&spec(23)).unwrap();
    let torn_id = format!("{}-2", spec(23).digest_hex());
    std::fs::write(
        pending.join(format!("{torn_id}.json.tmp4242-0")),
        &torn.as_bytes()[..torn.len() / 2],
    )
    .unwrap();

    let sup = Supervisor::start(SupervisorConfig::at(&state)).expect("start supervisor");
    let stats = sup.stats();
    assert_eq!(stats.get("serve", "resumed_pending"), Some(2));
    assert_eq!(stats.get("serve", "failed_experiments"), None);
    for id in &ids {
        let phase = sup.status(id).expect("valid marker re-enqueued").phase;
        assert_ne!(phase, Phase::Failed, "{id}");
    }
    assert!(
        sup.status(&torn_id).is_none(),
        "a temp file is not a marker"
    );

    // The recovered work runs to completion; both finish cleanly.
    let deadline = Instant::now() + Duration::from_secs(120);
    for id in &ids {
        loop {
            assert!(Instant::now() < deadline, "{id} never finished");
            match sup.status(id).map(|e| e.phase) {
                Some(phase) if phase.is_terminal() => {
                    assert_eq!(phase, Phase::Done, "{id}");
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
    sup.shutdown_and_drain();
    let _ = std::fs::remove_dir_all(&state);
}
