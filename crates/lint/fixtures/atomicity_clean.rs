//! Fixture: `output-atomicity` must stay quiet — the only
//! `File::create` is inside `atomic_write` itself, every other write
//! goes through it, and the raw write in the `#[cfg(test)]` module is
//! out of scope.
#![forbid(unsafe_code)]

use std::fs::File;
use std::io::Write;
use std::path::Path;

pub fn atomic_write(path: &Path, parts: &[&[u8]], durable: bool) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp0-0");
    let mut f = File::create(&tmp)?;
    for part in parts {
        f.write_all(part)?;
    }
    if durable {
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

pub fn save(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write(path, &[bytes], true)
}

#[cfg(test)]
mod tests {
    #[test]
    fn corrupts_a_file() {
        std::fs::write("state.psnap", b"PSNAPxxx").unwrap();
    }
}
