//! Fixture: `output-atomicity` must fire — a binary writes an
//! artifact with raw `fs::write` at its final path, so a crash
//! mid-write leaves a torn file.
#![forbid(unsafe_code)]

pub fn save(bytes: &[u8]) -> std::io::Result<()> {
    std::fs::write("results/report.json", bytes)
}
