//! The `.pobs` on-disk trace container: a flat array of fixed-width
//! binary event records in a `POBS0001` [`perconf_bpred::frame`] — the
//! workspace's one checksummed container (magic, format version,
//! FNV-1a 64 payload digest, payload length), written atomically.
//!
//! ```text
//! payload offset  size  field
//! 0               8     event count, u64 LE
//! 8               8     events dropped by ring overwrites, u64 LE
//! 16              n     count × 25-byte records (see `event`)
//! ```
//!
//! Version 1 kept the two counts in the header; its files are
//! rejected by version, never misread. A half-written or bit-rotted
//! trace is *detected* ([`PobsError`]), never silently decoded into
//! nonsense.

use crate::event::{TraceEvent, RECORD_BYTES};
use perconf_bpred::frame;
use std::path::Path;

/// The frame's error enum, under the name trace callers know.
pub use perconf_bpred::frame::FrameError as PobsError;

/// Leading magic of every trace file.
pub const MAGIC: [u8; 8] = *b"POBS0001";

/// Current format version.
pub const VERSION: u32 = 2;

/// Bytes of the count words that open the payload.
const COUNTS_BYTES: usize = 16;

/// A decoded trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFile {
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites before the flush.
    pub dropped: u64,
}

impl TraceFile {
    /// Renders the events as JSON lines, one event object per line,
    /// each tagged with its `kind` name.
    ///
    /// # Errors
    ///
    /// Returns [`PobsError::Malformed`] if an event fails to
    /// serialize (not expected for any [`TraceEvent`]).
    pub fn to_jsonl(&self) -> Result<String, PobsError> {
        let mut out = String::new();
        for ev in &self.events {
            let body =
                serde_json::to_string(ev).map_err(|e| PobsError::Malformed(e.to_string()))?;
            // The derive encodes an enum as {"Variant": {fields}}; wrap
            // it with a flat `kind` tag so JSONL consumers can filter
            // without knowing the Rust variant names.
            out.push_str(&format!(
                "{{\"kind\":\"{}\",\"event\":{body}}}\n",
                ev.kind_name()
            ));
        }
        Ok(out)
    }

    /// Counts events per kind, sorted by kind name.
    #[must_use]
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for ev in &self.events {
            *counts.entry(ev.kind_name()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Writes `events` to `path` atomically: encode, frame, fsync,
/// rename over the destination.
///
/// # Errors
///
/// Returns [`PobsError::Io`] on any filesystem failure.
pub fn write(path: &Path, events: &[TraceEvent], dropped: u64) -> Result<(), PobsError> {
    let mut payload = Vec::with_capacity(COUNTS_BYTES + events.len() * RECORD_BYTES);
    payload.extend_from_slice(&(events.len() as u64).to_le_bytes());
    payload.extend_from_slice(&dropped.to_le_bytes());
    for ev in events {
        payload.extend_from_slice(&ev.encode());
    }
    Ok(frame::write(path, MAGIC, VERSION, &payload)?)
}

/// Reads a trace back, verifying the frame and the record encoding.
///
/// # Errors
///
/// Any [`PobsError`] variant; all of them mean the trace file is
/// unusable.
pub fn read(path: &Path) -> Result<TraceFile, PobsError> {
    let payload = frame::read(path, MAGIC, VERSION)?;
    let word = |at: usize| {
        payload
            .get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    let (Some(count), Some(dropped)) = (word(0), word(8)) else {
        return Err(PobsError::Malformed(
            "payload shorter than its counts".to_owned(),
        ));
    };
    let records = &payload[COUNTS_BYTES..];
    if records.len() as u64 != count.saturating_mul(RECORD_BYTES as u64) {
        return Err(PobsError::Malformed(format!(
            "{} record bytes disagree with event count {count}",
            records.len()
        )));
    }
    let events = records
        .chunks_exact(RECORD_BYTES)
        .map(|chunk| {
            let rec: &[u8; RECORD_BYTES] = chunk.try_into().expect("exact chunk");
            TraceEvent::decode(rec).map_err(|e| PobsError::Malformed(e.to_string()))
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceFile { events, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perconf-pobs-{name}-{}.pobs", std::process::id()))
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::BranchResolved {
                cycle: 10,
                pc: 0x1000,
                mispredicted: false,
            },
            TraceEvent::ConfidenceBucket {
                cycle: 11,
                pc: 0x1004,
                raw: -42,
                class: 1,
            },
            TraceEvent::GateStallBegin { cycle: 12 },
            TraceEvent::GateStallEnd {
                cycle: 20,
                stalled: 8,
            },
        ]
    }

    #[test]
    fn round_trips_events_and_dropped_count() {
        let p = tmp("roundtrip");
        write(&p, &sample(), 3).unwrap();
        let back = read(&p).unwrap();
        assert_eq!(back.events, sample());
        assert_eq!(back.dropped, 3);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn empty_trace_round_trips() {
        let p = tmp("empty");
        write(&p, &[], 0).unwrap();
        let back = read(&p).unwrap();
        assert!(back.events.is_empty());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn version_1_trace_is_rejected_by_version() {
        // Version 1 layout: the counts sat in a 44-byte header.
        let records: Vec<u8> = sample().iter().flat_map(TraceEvent::encode).collect();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&perconf_bpred::digest_bytes(&records).to_le_bytes());
        bytes.extend_from_slice(&(records.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&4u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&records);
        let p = tmp("v1");
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read(&p),
            Err(PobsError::UnsupportedVersion { found: 1 })
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn count_disagreeing_with_records_is_malformed() {
        let p = tmp("count");
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&sample()[0].encode());
        frame::write(&p, MAGIC, VERSION, &payload).unwrap();
        assert!(matches!(read(&p), Err(PobsError::Malformed(_))));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn jsonl_export_tags_kinds() {
        let tf = TraceFile {
            events: sample(),
            dropped: 0,
        };
        let jsonl = tf.to_jsonl().unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"kind\":\"branch_resolved\""));
        assert!(lines[1].contains("\"raw\":-42"));
    }

    #[test]
    fn counts_by_kind_sums_to_event_total() {
        let tf = TraceFile {
            events: sample(),
            dropped: 0,
        };
        let counts = tf.counts_by_kind();
        let total: u64 = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 4);
        assert!(counts
            .iter()
            .any(|&(k, n)| k == "gate_stall_begin" && n == 1));
    }
}
