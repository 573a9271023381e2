//! Fixture: `snapshot-completeness` follows a field that holds a plain
//! struct (one with no serialization of its own) into that struct's
//! fields. `Core::theta` never reaches the restore, although the
//! `core` field itself is named in both bodies. `Stats` derives its
//! serialization, so the `stats` field is covered whole.
#![forbid(unsafe_code)]

pub struct Core {
    weights: Vec<i32>,
    theta: i32,
    scratch: Vec<u32>, // lint: transient — derived, rebuilt on restore
}

#[derive(Debug, Serialize, Deserialize)]
pub struct Stats {
    hits: u64,
    misses: u64,
}

pub struct Machine {
    core: Core,
    stats: Stats,
    log: Vec<String>, // lint: transient — observability
}

impl Snapshot for Machine {
    fn save_state(&self) -> Value {
        let core = &self.core;
        Value::Object(vec![
            ("weights".into(), core.weights.to_value()),
            ("theta".into(), core.theta.to_value()),
            ("stats".into(), self.stats.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        let core = &mut self.core;
        core.weights = serde::field(state, "weights").map_err(SnapshotError::from_de)?;
        self.stats = serde::field(state, "stats").map_err(SnapshotError::from_de)?;
        Ok(())
    }
}
