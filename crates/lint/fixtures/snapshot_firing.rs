//! Fixture: `snapshot-completeness` must fire — `theta` is saved but
//! never restored, and `scratch` is covered nowhere.
#![forbid(unsafe_code)]

pub struct Widget {
    weights: Vec<i32>,
    theta: i32,
    scratch: Vec<u32>,
}

impl Snapshot for Widget {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("weights".into(), self.weights.to_value()),
            ("theta".into(), self.theta.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        self.weights = serde::field(state, "weights").map_err(SnapshotError::from_de)?;
        Ok(())
    }
}
