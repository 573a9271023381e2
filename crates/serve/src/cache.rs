//! Content-addressed result cache.
//!
//! Cells are keyed by `faults::cell_content_digest` — a digest of
//! everything that determines the cell's bytes (config, seed, grid
//! coordinates, rate bits) — so a hit is *guaranteed* to be the same
//! bytes a recompute would produce. Entries live as checksummed
//! `.psnap` files under the cache directory with a bounded-size LRU
//! policy in two tiers:
//!
//! - a hot in-memory tier (`mem_capacity` decoded values);
//! - the disk tier (`disk_capacity` files); entries evicted from
//!   memory rehydrate from disk on the next hit, entries evicted from
//!   disk are recomputed like any miss.
//!
//! Corruption policy: a `.psnap` whose checksum fails is deleted and
//! reported as a **miss** — the caller recomputes and overwrites. The
//! event is counted (`cache/corrupt`) and flagged through
//! `runner::note_degraded`, so a run that consumed corrupt cache
//! state still exits with the degraded status code. The cache can
//! degrade a result's *cost*, never its *content*.

use perconf_experiments::runner::note_degraded;
use perconf_experiments::snapfile;
use perconf_obs::Counters;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};

/// Sizing and placement for a [`CellCache`].
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Directory holding the `.psnap` entries.
    pub dir: PathBuf,
    /// Decoded entries kept in memory (the hot tier).
    pub mem_capacity: usize,
    /// Entries kept on disk before LRU eviction.
    pub disk_capacity: usize,
}

impl CacheConfig {
    /// Default sizing rooted at `dir`: a small hot tier, a disk tier
    /// comfortably larger than a full grid.
    #[must_use]
    pub fn at<P: Into<PathBuf>>(dir: P) -> Self {
        Self {
            dir: dir.into(),
            mem_capacity: 64,
            disk_capacity: 4096,
        }
    }
}

/// Two-tier LRU cache of cell results, see the module docs.
#[derive(Debug)]
pub struct CellCache {
    cfg: CacheConfig,
    /// Digests present on disk, coldest first.
    order: VecDeque<u64>,
    /// Hot decoded tier (subset of `order`). A `BTreeMap` — not a
    /// hash map — so iteration order (now or in any future use) is
    /// the key order, never a function of hasher seed state. LRU
    /// recency lives in `mem_order`, which is already deterministic.
    mem: BTreeMap<u64, serde::Value>,
    /// Hot-tier recency, coldest first.
    mem_order: VecDeque<u64>,
    hits: u64,
    misses: u64,
    rehydrations: u64,
    corrupt: u64,
    evictions: u64,
}

impl CellCache {
    /// Opens (creating if needed) the cache directory and indexes the
    /// entries already there. Pre-existing entries are ordered by file
    /// name — a deterministic stand-in for lost recency, only relevant
    /// to which of them evict first.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures.
    pub fn open(cfg: CacheConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.dir)?;
        let mut found: Vec<u64> = std::fs::read_dir(&cfg.dir)?
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let hex = name.strip_suffix(".psnap")?;
                u64::from_str_radix(hex, 16).ok()
            })
            .collect();
        found.sort_unstable();
        Ok(Self {
            cfg,
            order: found.into(),
            mem: BTreeMap::new(),
            mem_order: VecDeque::new(),
            hits: 0,
            misses: 0,
            rehydrations: 0,
            corrupt: 0,
            evictions: 0,
        })
    }

    /// Path of one entry.
    #[must_use]
    pub fn entry_path(&self, digest: u64) -> PathBuf {
        entry_path(&self.cfg.dir, digest)
    }

    /// Entries currently on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Looks up a cell result. A checksum failure deletes the entry
    /// and reads as a miss (recompute and [`put`](Self::put) again).
    pub fn get(&mut self, digest: u64) -> Option<serde::Value> {
        if let Some(v) = self.mem.get(&digest).cloned() {
            self.hits += 1;
            touch(&mut self.mem_order, digest);
            touch(&mut self.order, digest);
            return Some(v);
        }
        if !self.order.contains(&digest) {
            self.misses += 1;
            return None;
        }
        match snapfile::read(&self.entry_path(digest)) {
            Ok(v) => {
                self.hits += 1;
                self.rehydrations += 1;
                touch(&mut self.order, digest);
                self.insert_mem(digest, v.clone());
                Some(v)
            }
            Err(e) => {
                // Corrupt (or vanished) entry: drop it and miss. The
                // caller recomputes; the result can never be wrong.
                eprintln!(
                    "warning: cache entry {:016x} unreadable ({e}); degrading to recompute",
                    digest
                );
                let _ = std::fs::remove_file(self.entry_path(digest));
                forget(&mut self.order, digest);
                note_degraded();
                self.corrupt += 1;
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a cell result, evicting LRU entries beyond the bounds.
    pub fn put(&mut self, digest: u64, value: &serde::Value) {
        if let Err(e) = snapfile::write(&self.entry_path(digest), value) {
            // A cache that cannot persist still works as a process-
            // lifetime memo; warn and carry on.
            eprintln!("warning: cannot write cache entry {digest:016x}: {e}");
        }
        touch(&mut self.order, digest);
        self.insert_mem(digest, value.clone());
        while self.order.len() > self.cfg.disk_capacity.max(1) {
            if let Some(cold) = self.order.pop_front() {
                let _ = std::fs::remove_file(self.entry_path(cold));
                forget(&mut self.mem_order, cold);
                self.mem.remove(&cold);
                self.evictions += 1;
            }
        }
    }

    fn insert_mem(&mut self, digest: u64, value: serde::Value) {
        self.mem.insert(digest, value);
        touch(&mut self.mem_order, digest);
        while self.mem.len() > self.cfg.mem_capacity.max(1) {
            if let Some(cold) = self.mem_order.pop_front() {
                // Falls out of memory only; the disk tier still holds
                // it, so the next hit rehydrates instead of computing.
                self.mem.remove(&cold);
            }
        }
    }

    /// Publishes the cache's counters into `c` under group `cache`.
    pub fn publish_counters(&self, c: &mut Counters) {
        c.counter("cache", "hits", self.hits)
            .counter("cache", "misses", self.misses)
            .counter("cache", "rehydrations", self.rehydrations)
            .counter("cache", "corrupt", self.corrupt)
            .counter("cache", "evictions", self.evictions)
            .gauge("cache", "entries", self.order.len() as u64)
            .gauge("cache", "entries_hot", self.mem.len() as u64);
    }
}

fn entry_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.psnap"))
}

/// Moves `digest` to the hot end of `order`, inserting if absent.
fn touch(order: &mut VecDeque<u64>, digest: u64) {
    forget(order, digest);
    order.push_back(digest);
}

fn forget(order: &mut VecDeque<u64>, digest: u64) {
    if let Some(pos) = order.iter().position(|&d| d == digest) {
        order.remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("perconf-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn val(n: i64) -> serde::Value {
        serde::Value::Object(vec![("n".into(), serde::Value::Int(n))])
    }

    fn open(dir: &Path, mem: usize, disk: usize) -> CellCache {
        CellCache::open(CacheConfig {
            dir: dir.to_path_buf(),
            mem_capacity: mem,
            disk_capacity: disk,
        })
        .unwrap()
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let dir = tmpdir("roundtrip");
        let mut c = open(&dir, 4, 16);
        assert_eq!(c.get(1), None);
        c.put(1, &val(10));
        assert_eq!(c.get(1), Some(val(10)));
        let mut counters = Counters::new();
        c.publish_counters(&mut counters);
        let s = counters.snapshot();
        assert_eq!(s.get("cache", "hits"), Some(1));
        assert_eq!(s.get("cache", "misses"), Some(1));
        assert_eq!(s.get("cache", "corrupt"), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_flip_corruption_degrades_to_a_miss_and_deletes_the_entry() {
        let dir = tmpdir("corrupt");
        let mut c = open(&dir, 4, 16);
        c.put(7, &val(70));
        // Flip one payload byte behind the cache's back.
        let p = c.entry_path(7);
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        // Memory tier would mask the corruption — evict it first by
        // reopening (fresh process, cold memory).
        let mut c = open(&dir, 4, 16);
        assert_eq!(c.get(7), None, "corrupt entry must read as a miss");
        assert!(!p.exists(), "corrupt entry must be deleted");
        let mut counters = Counters::new();
        c.publish_counters(&mut counters);
        let s = counters.snapshot();
        assert_eq!(s.get("cache", "corrupt"), Some(1));
        assert_eq!(s.get("cache", "misses"), Some(1));
        // Recompute-and-put heals the entry.
        c.put(7, &val(70));
        assert_eq!(c.get(7), Some(val(70)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_eviction_rehydrates_from_disk() {
        let dir = tmpdir("rehydrate");
        let mut c = open(&dir, 1, 16);
        c.put(1, &val(1));
        c.put(2, &val(2)); // evicts 1 from the hot tier only
        assert_eq!(c.len(), 2, "disk tier keeps both");
        assert_eq!(c.get(1), Some(val(1)), "rehydrates from disk");
        let mut counters = Counters::new();
        c.publish_counters(&mut counters);
        assert_eq!(counters.snapshot().get("cache", "rehydrations"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_eviction_is_lru_and_bounded() {
        let dir = tmpdir("evict");
        let mut c = open(&dir, 8, 2);
        c.put(1, &val(1));
        c.put(2, &val(2));
        let _ = c.get(1); // 2 is now coldest
        c.put(3, &val(3)); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(!c.entry_path(2).exists(), "coldest entry evicted");
        assert!(c.entry_path(1).exists());
        assert_eq!(c.get(2), None, "evicted entry is a miss");
        let mut counters = Counters::new();
        c.publish_counters(&mut counters);
        assert_eq!(counters.snapshot().get("cache", "evictions"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_indexes_existing_entries() {
        let dir = tmpdir("reopen");
        let mut c = open(&dir, 4, 16);
        c.put(0xabc, &val(5));
        drop(c);
        let mut c = open(&dir, 4, 16);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(0xabc), Some(val(5)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
