//! Fixture: `output-atomicity` must fire — a library hand-stages a
//! temp sibling and renames it into place: a second atomic writer,
//! whose fixed temp name two writers of one path would share.
#![forbid(unsafe_code)]

use std::fs::File;
use std::io::Write;
use std::path::Path;

pub fn save(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("psnap.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    std::fs::rename(&tmp, path)
}
