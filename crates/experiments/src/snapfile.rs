//! On-disk snapshot files: one serialized [`Value`] tree (as produced
//! by [`perconf_bpred::Snapshot::save_state`]), rendered as JSON, in a
//! `PSNAP001` [`perconf_bpred::frame`] — the workspace's one
//! checksummed container, whose header carries the magic, the format
//! version, an FNV-1a 64 payload digest and the payload length.
//!
//! Writes are atomic and durable (temp file, fsync, rename), so a
//! crash mid-write leaves either the previous checkpoint or none —
//! never a truncated one under the final name. Readers distinguish
//! every failure mode ([`SnapfileError`]) so callers can log *why* a
//! checkpoint was discarded and fall back to a from-scratch rerun.

use perconf_bpred::frame;
use serde::Value;
use std::path::Path;

/// The frame's error enum, under the name snapshot callers know.
pub use perconf_bpred::frame::FrameError as SnapfileError;

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PSNAP001";

/// Current format version. Bumped when the payload encoding changes
/// incompatibly; readers reject versions they don't know.
pub const VERSION: u32 = 1;

/// Writes `state` to `path` atomically: serialize, then frame, fsync
/// and rename over the destination.
///
/// # Errors
///
/// Returns [`SnapfileError::Io`] on any filesystem failure and
/// [`SnapfileError::Malformed`] if the value cannot be serialized.
pub fn write(path: &Path, state: &Value) -> Result<(), SnapfileError> {
    let payload =
        serde_json::to_string(state).map_err(|e| SnapfileError::Malformed(e.to_string()))?;
    Ok(frame::write(path, MAGIC, VERSION, payload.as_bytes())?)
}

/// Reads a snapshot back, verifying the frame before parsing the
/// payload.
///
/// # Errors
///
/// Any [`SnapfileError`] variant; all of them mean "this checkpoint is
/// unusable, rerun from scratch" to a resuming caller.
pub fn read(path: &Path) -> Result<Value, SnapfileError> {
    let payload = frame::read(path, MAGIC, VERSION)?;
    let text = String::from_utf8(payload).map_err(|e| SnapfileError::Malformed(e.to_string()))?;
    serde_json::from_str(&text).map_err(|e| SnapfileError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_value_in_pinned_bytes() {
        let p = std::env::temp_dir().join(format!("perconf-snapfile-{}.psnap", std::process::id()));
        let sample = Value::Object(vec![
            // `Int`, not `UInt`: JSON re-parses in-range non-negative
            // integers as `Int`, and the comparison is exact.
            ("now".into(), Value::Int(12345)),
            (
                "weights".into(),
                Value::Array(vec![Value::Int(-3), Value::Int(7)]),
            ),
        ]);
        write(&p, &sample).unwrap();
        let payload = br#"{"now":12345,"weights":[-3,7]}"#;
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(&bytes[..12], b"PSNAP001\x01\x00\x00\x00");
        assert_eq!(&bytes[20..28], &(payload.len() as u64).to_le_bytes());
        assert_eq!(&bytes[28..], payload);
        assert_eq!(read(&p).unwrap(), sample);
        let _ = std::fs::remove_file(&p);
    }
}
