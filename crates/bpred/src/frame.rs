//! The one atomic file writer and the one checksummed container frame.
//!
//! Every file the system relies on after a kill goes through
//! [`atomic_write`]: the bytes land in a temp sibling, optionally get
//! fsynced, and are renamed over the destination, so the destination
//! holds either its previous contents or the new ones — never a torn
//! prefix.
//!
//! Checksummed artifacts (`.psnap` snapshots, `.pcell` finished sweep
//! cells, `.pobs` traces) additionally wrap their payload in one
//! frame, so a bit-rotted or truncated file is *detected* rather than
//! decoded into nonsense:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (names the payload kind, e.g. b"PSNAP001")
//! 8       4     format version, u32 LE
//! 12      8     FNV-1a 64 digest of the payload bytes, u64 LE
//! 20      8     payload length in bytes, u64 LE
//! 28      n     payload
//! ```
//!
//! Readers distinguish every failure mode ([`FrameError`]) so callers
//! can log *why* a file was discarded and fall back to recomputing.

use crate::snapshot::digest_bytes;
use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes in a frame header.
const HEADER_BYTES: usize = 28;

/// Per-process counter that makes every [`atomic_write`] temp name
/// unique, so two threads writing the same path never share a temp.
static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);

/// Writes the concatenation of `parts` to `path` atomically: creates
/// the parent directory, writes a temp sibling
/// `<name>.tmp<pid>-<n>` (unique per process and per call), fsyncs it
/// when `durable`, and renames it over `path`.
///
/// `parts` lets a header and a multi-megabyte payload go out without
/// being copied into one buffer. The `.tmp` infix is what directory
/// scanners (checkpoint GC, the distributed queue, the server's
/// pending-marker recovery) skip, so a writer killed mid-write leaves
/// only an ignorable temp file behind.
///
/// # Errors
///
/// Any filesystem failure; the temp file is removed on a failed
/// write or rename.
pub fn atomic_write(path: &Path, parts: &[&[u8]], durable: bool) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("out"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(
        ".tmp{}-{}",
        std::process::id(),
        NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(name);
    let staged = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        if durable {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if staged.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    staged
}

/// Why a framed file could not be read back.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read or write failed.
    Io(io::Error),
    /// The file does not start with the expected magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The header names a format version this reader doesn't support.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ends before the header-declared payload length.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload digest does not match the header — bit rot or a
    /// torn write.
    DigestMismatch {
        /// Digest recorded in the header.
        stored: u64,
        /// Digest of the payload as read.
        computed: u64,
    },
    /// The payload does not decode as its kind.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic { found } => {
                write!(f, "not the expected file kind (magic {found:02x?})")
            }
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            FrameError::Truncated { expected, got } => write!(
                f,
                "truncated file: header promises {expected} payload bytes, file has {got}"
            ),
            FrameError::DigestMismatch { stored, computed } => write!(
                f,
                "payload digest mismatch: header {stored:#018x}, computed {computed:#018x}"
            ),
            FrameError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `payload` to `path` in a `magic`/`version` frame, durably
/// and atomically (see [`atomic_write`]). The header and payload go
/// out as two parts; the payload is never copied.
///
/// # Errors
///
/// Any filesystem failure.
pub fn write(path: &Path, magic: [u8; 8], version: u32, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(&magic);
    header[8..12].copy_from_slice(&version.to_le_bytes());
    header[12..20].copy_from_slice(&digest_bytes(payload).to_le_bytes());
    header[20..28].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    atomic_write(path, &[&header, payload], true)
}

/// Reads a frame back in one file read, verifying magic, version,
/// length and digest, and returns the payload bytes.
///
/// # Errors
///
/// Any [`FrameError`] variant except [`Malformed`](FrameError::Malformed)
/// (payload decoding is the caller's job); all of them mean "this
/// file is unusable" to a resuming caller.
pub fn read(path: &Path, magic: [u8; 8], version: u32) -> Result<Vec<u8>, FrameError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            expected: HEADER_BYTES as u64,
            got: bytes.len() as u64,
        });
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut found = [0u8; 8];
    found.copy_from_slice(&bytes[..8]);
    if found != magic {
        return Err(FrameError::BadMagic { found });
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(FrameError::UnsupportedVersion { found });
    }
    let (stored, len) = (word(12), word(20));
    let payload = &bytes[HEADER_BYTES..];
    if (payload.len() as u64) != len {
        return Err(FrameError::Truncated {
            expected: len,
            got: payload.len() as u64,
        });
    }
    let computed = digest_bytes(payload);
    if computed != stored {
        return Err(FrameError::DigestMismatch { stored, computed });
    }
    bytes.drain(..HEADER_BYTES);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const MAGIC: [u8; 8] = *b"TEST0001";

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perconf-frame-{name}-{}", std::process::id()))
    }

    #[test]
    fn pins_the_frame_bytes_of_a_known_payload() {
        let p = tmp("pinned");
        write(&p, *b"PSNAP001", 1, b"{\"now\":12345}").unwrap();
        let mut want = b"PSNAP001".to_vec();
        want.extend_from_slice(&1u32.to_le_bytes());
        want.extend_from_slice(&0xe3c7_02da_bc30_dcfeu64.to_le_bytes());
        want.extend_from_slice(&13u64.to_le_bytes());
        want.extend_from_slice(b"{\"now\":12345}");
        assert_eq!(std::fs::read(&p).unwrap(), want);
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn round_trips_a_payload() {
        let p = tmp("roundtrip");
        write(&p, MAGIC, 3, b"payload").unwrap();
        assert_eq!(read(&p, MAGIC, 3).unwrap(), b"payload");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn rejects_wrong_magic() {
        let p = tmp("magic");
        write(&p, MAGIC, 1, b"payload").unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read(&p, MAGIC, 1),
            Err(FrameError::BadMagic { .. })
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn rejects_unknown_version() {
        let p = tmp("version");
        write(&p, MAGIC, 1, b"payload").unwrap();
        assert!(matches!(
            read(&p, MAGIC, 2),
            Err(FrameError::UnsupportedVersion { found: 1 })
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn detects_a_single_flipped_payload_bit() {
        let p = tmp("bitrot");
        write(&p, MAGIC, 1, b"payload").unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        match read(&p, MAGIC, 1) {
            Err(FrameError::DigestMismatch { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn detects_truncation_of_payload_and_header() {
        let p = tmp("truncated");
        write(&p, MAGIC, 1, b"payload").unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            read(&p, MAGIC, 1),
            Err(FrameError::Truncated {
                expected: 7,
                got: 2
            })
        ));
        std::fs::write(&p, &bytes[..12]).unwrap();
        assert!(matches!(
            read(&p, MAGIC, 1),
            Err(FrameError::Truncated {
                expected: 28,
                got: 12
            })
        ));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn missing_file_reports_io() {
        let p = tmp("nonexistent-never-written");
        let _ = std::fs::remove_file(&p);
        assert!(matches!(read(&p, MAGIC, 1), Err(FrameError::Io(_))));
    }

    #[test]
    fn no_temp_file_survives_a_write() {
        let dir = tmp("atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let p = dir.join("nested").join("out.bin");
        atomic_write(&p, &[b"a", b"bc"], false).unwrap();
        atomic_write(&p, &[b"def"], true).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"def");
        let names: Vec<_> = std::fs::read_dir(p.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
