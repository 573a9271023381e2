//! Snapshot/restore capability and rolling state digests.
//!
//! Every stateful component of the simulation stack (predictors here,
//! estimators and controllers in `perconf-core`, the workload cursor in
//! `perconf-workload`, the full pipeline in `perconf-pipeline`)
//! implements [`Snapshot`]: its state can be rendered into a
//! serde [`Value`] tree, restored from one, and summarised into a
//! stable 64-bit [FNV-1a] digest of that tree. Digests are the backbone of the
//! deterministic-replay verification in `perconf-experiments`: two runs
//! of the same configuration must produce identical digests at every
//! comparison point, so the first differing digest localises
//! nondeterminism or fault-induced corruption in time.
//!
//! Digest stability contract: for a fixed crate version and a fixed
//! component configuration, equal logical state ⇒ equal digest.
//! Digests are *not* stable across code changes that alter state
//! layout; snapshot files carry a format version for that reason.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
//!
//! # Examples
//!
//! ```
//! use perconf_bpred::{Bimodal, BranchPredictor, Snapshot};
//!
//! let mut a = Bimodal::new(8);
//! a.train(0x40, 0, true);
//! let saved = a.save_state();
//! let digest = a.state_digest();
//!
//! let mut b = Bimodal::new(8);
//! assert_ne!(b.state_digest(), digest);
//! b.restore_state(&saved).unwrap();
//! assert_eq!(b.state_digest(), digest);
//! ```

use serde::{DeError, Value};
use std::fmt;

/// Error restoring a component from a saved state tree: shape
/// mismatch, out-of-range value, or configuration mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    message: String,
}

impl SnapshotError {
    /// Creates an error from anything printable.
    pub fn msg(m: impl fmt::Display) -> Self {
        Self {
            message: m.to_string(),
        }
    }

    /// Converts a vendored-serde deserialisation error.
    #[must_use]
    pub fn from_de(e: DeError) -> Self {
        Self::msg(e)
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot restore failed: {}", self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// State that can be checkpointed, restored, and digest-summarised.
///
/// Object-safe; the pipeline holds `Box<dyn SimPredictor>` /
/// `Box<dyn SimEstimator>` trait objects that bundle this capability
/// with the behavioural trait.
///
/// Contract: `restore_state(&x.save_state())` must leave the component
/// in a state behaviourally identical to `x` (same future outputs for
/// the same future inputs) with `state_digest()` equal to
/// `x.state_digest()`. `restore_state` must not partially apply a
/// failing restore in a way that panics later — returning an error and
/// leaving *any* legal state is acceptable, because callers degrade to
/// a from-scratch rerun on error.
pub trait Snapshot {
    /// Renders the complete mutable state into a value tree.
    fn save_state(&self) -> Value;

    /// Restores state previously produced by
    /// [`save_state`](Self::save_state) on a component with the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on shape or configuration mismatch.
    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError>;

    /// A stable 64-bit digest of the current state: the FNV-1a fold of
    /// [`save_state`](Self::save_state)'s tree ([`digest_value`]).
    /// Derived, never hand-written, so it covers exactly what a
    /// snapshot persists — equal saved states give equal digests.
    fn state_digest(&self) -> u64 {
        digest_value(&self.save_state())
    }
}

impl<S: Snapshot + ?Sized> Snapshot for Box<S> {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        (**self).restore_state(state)
    }
}

/// A branch predictor that can also be checkpointed. Blanket
/// implemented; exists so callers can hold one trait object
/// (`Box<dyn SimPredictor>`) giving both capabilities.
pub trait SimPredictor: crate::traits::BranchPredictor + Snapshot {}

impl<T: crate::traits::BranchPredictor + Snapshot> SimPredictor for T {}

/// Expands to the [`Snapshot`] `save_state`/`restore_state` methods for
/// a `Serialize + Deserialize` type, serialising the whole struct.
/// Invoke inside an `impl Snapshot for T` block; `state_digest` is the
/// trait's provided method, derived from `save_state`.
#[macro_export]
macro_rules! snapshot_serde_body {
    () => {
        fn save_state(&self) -> ::serde::Value {
            ::serde::Serialize::to_value(self)
        }

        fn restore_state(
            &mut self,
            state: &::serde::Value,
        ) -> ::std::result::Result<(), $crate::SnapshotError> {
            *self = <Self as ::serde::Deserialize>::from_value(state)
                .map_err($crate::SnapshotError::from_de)?;
            ::std::result::Result::Ok(())
        }
    };
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher behind every digest in the workspace
/// (state digests, frame payloads). Deliberately not
/// `std::hash::Hasher`: the std trait makes no cross-run stability
/// promise, while experiment artifacts persist digests to disk and
/// compare them across processes.
///
/// # Examples
///
/// ```
/// use perconf_bpred::StateDigest;
///
/// let mut d = StateDigest::new();
/// d.word(42).byte(7).flag(true);
/// let a = d.finish();
/// assert_eq!(a, StateDigest::new().word(42).byte(7).flag(true).finish());
/// ```
#[derive(Debug, Clone)]
pub struct StateDigest {
    h: u64,
}

impl Default for StateDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StateDigest {
    /// Creates a hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { h: FNV_OFFSET }
    }

    /// Folds one byte.
    pub fn byte(&mut self, b: u8) -> &mut Self {
        self.h = (self.h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        self
    }

    /// Folds a 64-bit word (little-endian byte order).
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// Folds a signed word through its two's-complement bits.
    #[allow(clippy::cast_sign_loss)]
    pub fn signed(&mut self, w: i64) -> &mut Self {
        self.word(w as u64)
    }

    /// Folds a boolean as one byte.
    pub fn flag(&mut self, b: bool) -> &mut Self {
        self.byte(u8::from(b))
    }

    /// Folds a float through its IEEE-754 bit pattern (so `-0.0` and
    /// `0.0` digest differently, and NaN digests deterministically).
    pub fn float(&mut self, f: f64) -> &mut Self {
        self.word(f.to_bits())
    }

    /// Folds every byte of a slice.
    pub fn bytes(&mut self, bs: &[u8]) -> &mut Self {
        for &b in bs {
            self.byte(b);
        }
        self
    }

    /// The digest of everything folded so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Digests a byte slice in one call — the hash [`crate::frame`] uses
/// for on-disk payloads, exposed here so every consumer shares a
/// single FNV-1a implementation.
#[must_use]
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = StateDigest::new();
    d.bytes(bytes);
    d.finish()
}

/// Digests an arbitrary value tree — the provided
/// [`Snapshot::state_digest`] applied to `save_state()`.
#[must_use]
pub fn digest_value(v: &Value) -> u64 {
    let mut d = StateDigest::new();
    fold_value(&mut d, v);
    d.finish()
}

fn fold_value(d: &mut StateDigest, v: &Value) {
    match v {
        Value::Null => {
            d.byte(0);
        }
        Value::Bool(b) => {
            d.byte(1).flag(*b);
        }
        // Int and UInt representations of the same non-negative number
        // must digest identically: which one the tree holds depends on
        // whether the value took a JSON round trip.
        #[allow(clippy::cast_sign_loss)]
        Value::Int(i) => {
            d.byte(2).word(*i as u64);
        }
        Value::UInt(u) => {
            d.byte(2).word(*u);
        }
        Value::Float(f) => {
            d.byte(3).float(*f);
        }
        Value::Str(s) => {
            d.byte(4).word(s.len() as u64).bytes(s.as_bytes());
        }
        Value::Array(items) => {
            d.byte(5).word(items.len() as u64);
            for item in items {
                fold_value(d, item);
            }
        }
        Value::Object(fields) => {
            d.byte(6).word(fields.len() as u64);
            for (k, fv) in fields {
                d.word(k.len() as u64).bytes(k.as_bytes());
                fold_value(d, fv);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baseline_bimodal_gshare, Bimodal, BranchPredictor};

    #[test]
    fn digest_is_order_sensitive() {
        let a = StateDigest::new().word(1).word(2).finish();
        let b = StateDigest::new().word(2).word(1).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn digest_distinguishes_field_boundaries() {
        let a = StateDigest::new().byte(0).word(1).finish();
        let b = StateDigest::new().word(1).byte(0).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn int_and_uint_trees_digest_identically() {
        assert_eq!(
            digest_value(&Value::Int(42)),
            digest_value(&Value::UInt(42))
        );
    }

    #[test]
    fn box_forwards_snapshot() {
        let mut p: Box<dyn SimPredictor> = Box::new(Bimodal::new(4));
        p.train(0x40, 0, true);
        let saved = p.save_state();
        let digest = p.state_digest();
        let mut q: Box<dyn SimPredictor> = Box::new(Bimodal::new(4));
        q.restore_state(&saved).unwrap();
        assert_eq!(q.state_digest(), digest);
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let mut p = baseline_bimodal_gshare();
        assert!(p.restore_state(&Value::Str("nonsense".into())).is_err());
    }
}
