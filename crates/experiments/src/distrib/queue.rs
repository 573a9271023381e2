//! Filesystem-backed, lease-based cell queue for distributed sweeps.
//!
//! The queue is a directory tree; every protocol step is a single
//! atomic `rename`, so any number of worker processes can race on it
//! without locks and a `kill -9` at any instant leaves the queue in a
//! state some other worker can repair:
//!
//! ```text
//! <root>/
//!   manifest.json            what is being swept (seed, scale, grid, lease)
//!   todo/<key>               unclaimed cells (content: the cell's
//!                            faults::CellCoord)
//!   lease/<key>@<wid>@<ms>   claimed cells; mtime + embedded ms = deadline
//!   done/<key>               completed cells (claim → done rename)
//!   cells/                   runner checkpoint dir (<key>.json,
//!                            <key>.part.psnap, <key>.failed.json)
//!   results/<key>.psnap      published results (checksummed snapfile)
//!   workers/<wid>.json       per-worker counter snapshots (not merged
//!                            into byte-compared output)
//!   report.json              coordinator's sweep report (wall-clock
//!                            and scheduling stats; never diffed)
//! ```
//!
//! * **claim** — `rename(todo/<key>, lease/<key>@<wid>@<ms>)`; the
//!   rename is the arbiter, exactly one racing worker wins. The lease
//!   file's mtime is refreshed to "now" on claim and by heartbeats.
//! * **complete** — `rename(lease-entry, done/<key>)`. If the lease
//!   was reaped in the meantime the source is gone, the rename fails,
//!   and the worker knows its result is *late*: it must not publish.
//!   That failure is the exactly-once guarantee.
//! * **reap** — a lease whose `mtime + ms` deadline has passed is
//!   renamed back to `todo/<key>` (content is still the `CellDesc`),
//!   making a dead or hung worker's cell claimable again. The next
//!   claimer resumes from the dead peer's orphaned `.part.psnap` in
//!   `cells/` through the ordinary runner resume path.
//!
//! Corrupt entries never abort a sweep: an unreadable `CellDesc` is
//! reconstructed from the manifest grid by key (or dropped if the key
//! is foreign), a corrupt result file is deleted and recomputed, and
//! every such event is counted via [`note_degraded`] so the binaries
//! can exit with the documented "degraded" code.
//!
//! Determinism: nothing in this module influences cell *content*. A
//! cell's bytes depend only on `(seed, coordinates, scale)` via
//! [`faults::cell_seed`](crate::faults::cell_seed); the queue decides
//! only *which process* computes them. Merging reads results in
//! canonical grid order, so 1 worker, N workers, and
//! kill-half-the-workers all serialize to identical bytes.

use crate::common::Scale;
use crate::faults::{FaultCell, Grid};
use crate::runner::note_degraded;
use crate::snapfile;
use perconf_bpred::atomic_write;
use perconf_obs::CounterSnapshot;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Current queue / manifest format version; readers reject others.
pub const MANIFEST_VERSION: u32 = 1;

/// What a queue is sweeping. Written once at queue creation; workers
/// read it instead of taking sweep parameters on their command line,
/// so a worker can never disagree with its coordinator about the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Queue format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Fault-injection campaign seed.
    pub seed: u64,
    /// Run scale for every cell.
    pub scale: Scale,
    /// The design-space grid being swept.
    pub grid: Grid,
    /// Lease duration in milliseconds: a claimed cell whose lease
    /// mtime is older than this is considered abandoned and requeued.
    pub lease_ms: u64,
}

impl Manifest {
    /// Cell descriptors in canonical grid order ([`Grid::cells`]) — the
    /// order every merge walks.
    #[must_use]
    pub fn cells(&self) -> Vec<CellDesc> {
        self.grid.cells(self.seed)
    }

    /// Reconstructs a descriptor from its key alone — the degraded
    /// path for a todo entry whose JSON content was corrupted. The key
    /// *is* the identity (it encodes seed and coordinates), so a
    /// readable filename is enough to recompute the cell.
    #[must_use]
    pub fn desc_for_key(&self, key: &str) -> Option<CellDesc> {
        self.cells().into_iter().find(|c| c.key == key)
    }
}

/// One sweep cell as carried through the queue: the grid's own cell
/// coordinate, so `todo/` and `done/` entries hold its JSON.
pub use crate::faults::CellCoord as CellDesc;

/// A successfully claimed cell: the descriptor plus the lease entry
/// the claim created. Completion and heartbeats go through the lease
/// path; once the lease disappears (reaped), both fail and the holder
/// knows it has been superseded.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The claimed cell.
    pub desc: CellDesc,
    lease_path: PathBuf,
}

impl Claim {
    /// The lease file backing this claim (exists until completion or
    /// reaping).
    #[must_use]
    pub fn lease_path(&self) -> &Path {
        &self.lease_path
    }
}

/// Handle on one on-disk queue.
#[derive(Debug, Clone)]
pub struct Queue {
    root: PathBuf,
    manifest: Manifest,
}

/// Sets a file's mtime to now (used for lease claims and heartbeats).
// Lease heartbeats are wall-clock by design; mtimes never reach results.
#[allow(clippy::disallowed_methods)]
fn touch(path: &Path) -> io::Result<()> {
    std::fs::File::options()
        .write(true)
        .open(path)?
        .set_modified(SystemTime::now())
}

/// Maps a worker id to the restricted alphabet lease filenames parse
/// (`@` is the field separator, so it must never appear in an id).
fn sanitize_worker(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Queue {
    /// Creates (or re-creates) the queue directory tree and writes the
    /// manifest. Existing cell/lease/result state is left untouched,
    /// so re-creating over a partially executed queue resumes it.
    ///
    /// # Errors
    ///
    /// Any filesystem failure, rendered.
    pub fn create(root: &Path, manifest: &Manifest) -> Result<Self, String> {
        let q = Self {
            root: root.to_owned(),
            manifest: manifest.clone(),
        };
        for d in [
            q.todo_dir(),
            q.lease_dir(),
            q.done_dir(),
            q.cells_dir(),
            q.results_dir(),
            q.workers_dir(),
        ] {
            std::fs::create_dir_all(&d)
                .map_err(|e| format!("cannot create {}: {e}", d.display()))?;
        }
        let text = serde_json::to_string_pretty(manifest)
            .map_err(|e| format!("cannot serialize manifest: {e}"))?;
        atomic_write(&q.manifest_path(), &[text.as_bytes()], true)
            .map_err(|e| format!("cannot write {}: {e}", q.manifest_path().display()))?;
        Ok(q)
    }

    /// Opens an existing queue by reading its manifest.
    ///
    /// # Errors
    ///
    /// A missing, unreadable, corrupt, or version-mismatched manifest.
    /// Callers that can reconstruct the manifest (the coordinator)
    /// should treat a *corrupt* manifest as degraded input and
    /// [`create`](Self::create) over it.
    pub fn open(root: &Path) -> Result<Self, String> {
        let path = root.join("manifest.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let manifest: Manifest = serde_json::from_str(&text)
            .map_err(|e| format!("corrupt manifest {}: {e}", path.display()))?;
        if manifest.version != MANIFEST_VERSION {
            return Err(format!(
                "manifest {} has version {} (this build knows {MANIFEST_VERSION})",
                path.display(),
                manifest.version
            ));
        }
        Ok(Self {
            root: root.to_owned(),
            manifest,
        })
    }

    /// The manifest this queue was created with.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The queue root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the manifest file.
    #[must_use]
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    fn todo_dir(&self) -> PathBuf {
        self.root.join("todo")
    }

    fn lease_dir(&self) -> PathBuf {
        self.root.join("lease")
    }

    fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }

    /// The runner checkpoint directory every worker shares — where
    /// final checkpoints, mid-cell partials, and failure markers live.
    #[must_use]
    pub fn cells_dir(&self) -> PathBuf {
        self.root.join("cells")
    }

    fn results_dir(&self) -> PathBuf {
        self.root.join("results")
    }

    fn workers_dir(&self) -> PathBuf {
        self.root.join("workers")
    }

    /// Path of a cell's published (checksummed) result file.
    #[must_use]
    pub fn result_path(&self, key: &str) -> PathBuf {
        self.results_dir().join(format!("{key}.psnap"))
    }

    fn sorted_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| !n.contains(".tmp"))
                    .collect()
            })
            .unwrap_or_default();
        names.sort_unstable();
        names
    }

    /// Enqueues every manifest cell that is not already queued,
    /// leased, done, or published. Idempotent: safe to call on a
    /// half-finished queue (crash-and-restart of the coordinator).
    ///
    /// # Errors
    ///
    /// Any filesystem failure, rendered.
    pub fn enqueue_missing(&self) -> Result<usize, String> {
        let leased: Vec<String> = Self::sorted_names(&self.lease_dir())
            .iter()
            .filter_map(|n| n.split('@').next().map(str::to_owned))
            .collect();
        let mut added = 0;
        for desc in self.manifest.cells() {
            let todo = self.todo_dir().join(&desc.key);
            if todo.exists()
                || self.done_dir().join(&desc.key).exists()
                || self.result_path(&desc.key).exists()
                || leased.iter().any(|k| k == &desc.key)
            {
                continue;
            }
            let text = serde_json::to_string_pretty(&desc)
                .map_err(|e| format!("cannot serialize cell {}: {e}", desc.key))?;
            atomic_write(&todo, &[text.as_bytes()], true)
                .map_err(|e| format!("cannot enqueue {}: {e}", desc.key))?;
            added += 1;
        }
        Ok(added)
    }

    /// Tries to claim one cell for `worker`. Walks the todo entries in
    /// sorted order and races on each with an atomic rename; the first
    /// rename that succeeds is the claim. Returns `None` when nothing
    /// is claimable right now (queue drained *or* everything currently
    /// leased — distinguish via [`pending`](Self::pending)).
    #[must_use]
    pub fn claim(&self, worker: &str) -> Option<Claim> {
        let worker = sanitize_worker(worker);
        for name in Self::sorted_names(&self.todo_dir()) {
            let src = self.todo_dir().join(&name);
            let dst = self
                .lease_dir()
                .join(format!("{name}@{worker}@{}", self.manifest.lease_ms));
            if std::fs::rename(&src, &dst).is_err() {
                continue; // lost the race for this cell; try the next
            }
            // The rename preserves the enqueue-time mtime; refresh it
            // or the fresh lease may be born expired.
            if let Err(e) = touch(&dst) {
                eprintln!("warning: cannot refresh lease {}: {e}", dst.display());
            }
            let desc = match std::fs::read_to_string(&dst)
                .ok()
                .and_then(|t| serde_json::from_str::<CellDesc>(&t).ok())
            {
                Some(d) if d.key == name => d,
                _ => {
                    // Corrupt or mismatched content: the filename is
                    // the identity, reconstruct from the manifest.
                    eprintln!(
                        "warning: corrupt queue entry for {name}; reconstructing from manifest"
                    );
                    note_degraded();
                    match self.manifest.desc_for_key(&name) {
                        Some(d) => {
                            // Repair the lease content so a later
                            // reap/claim cycle sees clean JSON.
                            if let Ok(text) = serde_json::to_string_pretty(&d) {
                                let _ = atomic_write(&dst, &[text.as_bytes()], true);
                            }
                            d
                        }
                        None => {
                            // A key foreign to this sweep: drop it so
                            // it cannot wedge the queue.
                            eprintln!("warning: dropping foreign queue entry {name}");
                            let _ = std::fs::remove_file(&dst);
                            continue;
                        }
                    }
                }
            };
            return Some(Claim {
                desc,
                lease_path: dst,
            });
        }
        None
    }

    /// Refreshes a claim's lease deadline. Returns `false` when the
    /// lease no longer exists — it was reaped, and the holder's
    /// eventual result will be late.
    pub fn heartbeat(&self, claim: &Claim) -> bool {
        touch(&claim.lease_path).is_ok()
    }

    /// Marks a claimed cell complete: `rename(lease, done/<key>)`.
    /// Returns `false` when the lease was already reaped — the
    /// exactly-once gate: a `false` here means another worker owns the
    /// cell now and this worker must **not** publish its result.
    pub fn complete(&self, claim: &Claim) -> bool {
        std::fs::rename(&claim.lease_path, self.done_dir().join(&claim.desc.key)).is_ok()
    }

    /// Requeues every expired lease (mtime + embedded duration in the
    /// past) and removes malformed lease entries that could otherwise
    /// wedge the queue forever. Returns the number of cells requeued.
    /// Safe to call concurrently from every worker: the rename back to
    /// `todo/` is atomic and only one reaper wins.
    // Lease expiry is wall-clock by design; mtimes never reach results.
    #[allow(clippy::disallowed_methods)]
    pub fn reap(&self) -> usize {
        let now = SystemTime::now();
        let mut requeued = 0;
        for name in Self::sorted_names(&self.lease_dir()) {
            let path = self.lease_dir().join(&name);
            let mut fields = name.rsplitn(3, '@');
            let (ms, _worker, key) = match (fields.next(), fields.next(), fields.next()) {
                (Some(ms), Some(w), Some(k)) => match ms.parse::<u64>() {
                    Ok(ms) => (ms, w, k),
                    Err(_) => {
                        eprintln!("warning: removing malformed lease entry {name}");
                        note_degraded();
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                },
                _ => {
                    eprintln!("warning: removing malformed lease entry {name}");
                    note_degraded();
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
            };
            let Ok(meta) = std::fs::metadata(&path) else {
                continue; // completed or reaped by someone else
            };
            let expired = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok())
                .is_some_and(|age| age > Duration::from_millis(ms));
            if expired && std::fs::rename(&path, self.todo_dir().join(key)).is_ok() {
                requeued += 1;
            }
        }
        requeued
    }

    /// Cells not yet completed: todo entries plus live leases. Workers
    /// exit when this reaches zero.
    #[must_use]
    pub fn pending(&self) -> usize {
        Self::sorted_names(&self.todo_dir()).len() + Self::sorted_names(&self.lease_dir()).len()
    }

    /// Whether a cell has been marked complete.
    #[must_use]
    pub fn is_done(&self, key: &str) -> bool {
        self.done_dir().join(key).exists()
    }

    /// Publishes a cell result as a checksummed snapfile. Best-effort:
    /// a publish failure warns and continues (the coordinator's merge
    /// falls back to the runner checkpoint, then to recompute).
    pub fn publish_result(&self, key: &str, cell: &FaultCell) {
        let path = self.result_path(key);
        match serde_json::to_value(cell) {
            Ok(v) => {
                if let Err(e) = snapfile::write(&path, &v) {
                    eprintln!("warning: cannot publish result {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize result {key}: {e}"),
        }
    }

    /// Reads a published result back, verifying the snapfile checksum.
    /// `None` when absent; a *corrupt* file is deleted, counted as
    /// degraded input, and also reported as `None` so the caller
    /// recomputes instead of aborting.
    #[must_use]
    pub fn read_result(&self, key: &str) -> Option<FaultCell> {
        let path = self.result_path(key);
        if !path.exists() {
            return None;
        }
        let parsed = snapfile::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|v| serde_json::from_value(&v).map_err(|e| e.to_string()));
        match parsed {
            Ok(cell) => Some(cell),
            Err(e) => {
                eprintln!(
                    "warning: discarding unusable result {}: {e}",
                    path.display()
                );
                note_degraded();
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists a worker's counter snapshot (overwrites the previous
    /// one for the same worker id). These are scheduling statistics —
    /// nondeterministic by nature — and are merged into the
    /// coordinator's report, never into the byte-compared sweep output.
    pub fn write_worker_stats(&self, worker: &str, snapshot: &CounterSnapshot) {
        let path = self
            .workers_dir()
            .join(format!("{}.json", sanitize_worker(worker)));
        match serde_json::to_string_pretty(snapshot) {
            Ok(text) => {
                if let Err(e) = atomic_write(&path, &[text.as_bytes()], true) {
                    eprintln!("warning: cannot write worker stats {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: cannot serialize worker stats: {e}"),
        }
    }

    /// Reads every worker's counter snapshot (unreadable ones are
    /// skipped with a degraded-input note).
    #[must_use]
    pub fn read_worker_stats(&self) -> Vec<CounterSnapshot> {
        Self::sorted_names(&self.workers_dir())
            .iter()
            .filter(|n| n.ends_with(".json"))
            .filter_map(|n| {
                let path = self.workers_dir().join(n);
                let text = std::fs::read_to_string(&path).ok()?;
                match serde_json::from_str(&text) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!(
                            "warning: skipping unreadable worker stats {}: {e}",
                            path.display()
                        );
                        note_degraded();
                        None
                    }
                }
            })
            .collect()
    }
}
