//! Fixture: `snapshot-completeness` must stay quiet — every field is
//! either fully covered, marked transient, or covered through the
//! hand-written `Serialize`/`Deserialize` delegation idiom.
#![forbid(unsafe_code)]

pub struct Widget {
    weights: Vec<i32>,
    theta: i32,
    cache: Vec<u32>, // lint: transient — derived, rebuilt on restore
}

impl Snapshot for Widget {
    crate::snapshot_serde_body!();
}

pub struct Pair<A, B> {
    a: A,
    b: B,
}

impl<A: Serialize, B: Serialize> Serialize for Pair<A, B> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("a".into(), self.a.to_value()),
            ("b".into(), self.b.to_value()),
        ])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for Pair<A, B> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            a: serde::field(v, "a")?,
            b: serde::field(v, "b")?,
        })
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for Pair<A, B> {
    fn save_state(&self) -> Value {
        self.to_value()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        *self = Self::from_value(state)?;
        Ok(())
    }
}
