//! Fixture: `output-atomicity` must fire — the binary stages its
//! `fs::write` to a `tmp` sibling and renames into place by hand
//! instead of calling `atomic_write`, so its temp name is shared by
//! every writer of the same path.
#![forbid(unsafe_code)]

pub fn save(bytes: &[u8]) -> std::io::Result<()> {
    let tmp = std::path::Path::new("results/report.json.tmp");
    std::fs::write(tmp, bytes)?;
    std::fs::rename(tmp, "results/report.json")
}
