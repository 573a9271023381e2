use crate::spec::{Program, WorkloadConfig};
use crate::uop::{Uop, UopKind};
use perconf_bpred::{Snapshot, SnapshotError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;

// Kept at half the hardware prefetcher's stream count so that correct-
// and wrong-path streams together still fit its tracking table.
const STREAM_COUNT: usize = 8;
const MAX_DEP_DISTANCE: u32 = 64;

/// Deterministic, infinite generator of one benchmark's uop stream.
///
/// The dynamic branch stream walks the workload's control-flow *paths*
/// (see [`Program`]): a path is selected by its Zipf frequency, its
/// branch sites are visited in order (with non-branch uops in
/// between), then a new path is drawn. Repeating paths are what give
/// the global history register realistic, learnable structure.
///
/// Correct-path uops come from [`next_uop`](Self::next_uop) (also
/// available through the [`Iterator`] impl); wrong-path filler fetched
/// past a mispredicted branch comes from
/// [`next_wrong_path`](Self::next_wrong_path) and is drawn from an
/// **independent RNG stream**, so the correct-path sequence is
/// identical no matter how much wrong-path work a particular simulator
/// configuration fetched.
///
/// # Examples
///
/// ```
/// use perconf_workload::{spec2000_config, WorkloadGenerator};
///
/// let cfg = spec2000_config("gzip").unwrap();
/// let a: Vec<_> = WorkloadGenerator::new(&cfg).take(100).collect();
/// let b: Vec<_> = WorkloadGenerator::new(&cfg).take(100).collect();
/// assert_eq!(a, b); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    program: Program,
    rng: SmallRng,
    wp_rng: SmallRng,
    history: u64,
    queue: VecDeque<Uop>,
    streams: [u64; STREAM_COUNT],
    wp_streams: [u64; STREAM_COUNT],
    uops_since_load: u32,
    emitted: u64,
    path: usize,
    path_pos: usize,
    path_repeats_left: u32,
}

/// Range of times a selected path is re-executed back to back before a
/// new path is drawn. Repetition is what makes the global history
/// structured the way loops make real programs' histories structured —
/// without it, history-indexed predictors face an unlearnably large
/// pattern space.
const PATH_REPEAT: std::ops::RangeInclusive<u32> = 4..=16;

impl WorkloadGenerator {
    /// Builds a generator for the given workload configuration.
    #[must_use]
    pub fn new(cfg: &WorkloadConfig) -> Self {
        let program = Program::build(cfg);
        let mut streams = [0u64; STREAM_COUNT];
        let mut wp_streams = [0u64; STREAM_COUNT];
        let stride = (cfg.working_set / STREAM_COUNT as u64).max(4096);
        for (i, s) in streams.iter_mut().enumerate() {
            *s = i as u64 * stride;
        }
        for (i, s) in wp_streams.iter_mut().enumerate() {
            *s = i as u64 * stride + 2048;
        }
        Self {
            cfg: cfg.clone(),
            program,
            rng: SmallRng::seed_from_u64(cfg.seed),
            wp_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xBAD0_7A7E),
            history: 0,
            queue: VecDeque::new(),
            streams,
            wp_streams,
            uops_since_load: MAX_DEP_DISTANCE,
            emitted: 0,
            path: 0,
            path_pos: usize::MAX, // force a fresh path draw
            path_repeats_left: 0,
        }
    }

    /// The configuration this generator was built from.
    #[must_use]
    pub fn config(&self) -> &WorkloadConfig {
        &self.cfg
    }

    /// The program (sites + paths) being walked.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Global history of actual branch outcomes so far
    /// (bit 0 = most recent; 1 = taken).
    #[must_use]
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Total correct-path uops emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Returns the next correct-path uop.
    pub fn next_uop(&mut self) -> Uop {
        if self.queue.is_empty() {
            self.refill_block();
        }
        let u = self.queue.pop_front().expect("block refill produced uops");
        self.emitted += 1;
        if u.kind == UopKind::Load {
            self.uops_since_load = 0;
        } else {
            self.uops_since_load = (self.uops_since_load + 1).min(MAX_DEP_DISTANCE);
        }
        u
    }

    /// Returns the next wrong-path filler uop (consumed by the
    /// simulator while fetching past a mispredicted branch).
    ///
    /// Wrong-path conditional branches carry real site PCs so they
    /// exercise predictor and estimator lookups like real wrong-path
    /// code would, but the simulator never trains on them.
    pub fn next_wrong_path(&mut self) -> Uop {
        let mut rng = self.wp_rng.clone();
        let u = self.sample_wrong_path(&mut rng);
        self.wp_rng = rng;
        u
    }

    fn sample_wrong_path(&mut self, rng: &mut SmallRng) -> Uop {
        let x: f64 = rng.gen();
        let c = &self.cfg;
        if x < c.branch_frac {
            // A site from a random point of a random path.
            let p = rng.gen_range(0..self.program.paths.len());
            let path = &self.program.paths[p];
            let site = path[rng.gen_range(0..path.len())] as usize;
            let pc = self.program.sites[site].pc;
            let taken = rng.gen::<bool>();
            Uop::branch(pc, site as u32, taken, 1 + rng.gen_range(0..3))
        } else if x < c.branch_frac + c.load_frac {
            let addr = Self::mem_addr(&mut self.wp_streams, c, rng);
            Uop::mem(UopKind::Load, addr, Self::dep(c, rng))
        } else if x < c.branch_frac + c.load_frac + c.store_frac {
            let addr = Self::mem_addr(&mut self.wp_streams, c, rng);
            Uop::mem(UopKind::Store, addr, Self::dep(c, rng))
        } else if x < c.branch_frac + c.load_frac + c.store_frac + c.fp_frac {
            Uop::alu(UopKind::Fp, Self::dep(c, rng), Self::dep(c, rng))
        } else if x < c.branch_frac + c.load_frac + c.store_frac + c.fp_frac + c.mul_frac {
            Uop::alu(UopKind::IntMul, Self::dep(c, rng), 0)
        } else {
            Uop::alu(UopKind::IntAlu, Self::dep(c, rng), Self::dep(c, rng))
        }
    }

    fn next_site(&mut self) -> usize {
        let at_end = self.path_pos == usize::MAX
            || self.path_pos
                >= self.program.paths[self.path.min(self.program.paths.len() - 1)].len();
        if at_end {
            if self.path_repeats_left > 0 && self.path_pos != usize::MAX {
                // Loop: run the same path again.
                self.path_repeats_left -= 1;
            } else {
                self.path = self.program.path_zipf.sample(&mut self.rng) as usize;
                self.path_repeats_left = self.rng.gen_range(PATH_REPEAT);
            }
            self.path_pos = 0;
        }
        let site = self.program.paths[self.path][self.path_pos];
        self.path_pos += 1;
        site as usize
    }

    fn refill_block(&mut self) {
        // One block = `gap` plain uops followed by one branch.
        let mean_gap = ((1.0 - self.cfg.branch_frac) / self.cfg.branch_frac).max(1.0);
        let lo = (mean_gap / 2.0).floor() as u32;
        let hi = (mean_gap * 1.5).ceil() as u32;
        let gap = self.rng.gen_range(lo..=hi.max(lo + 1));

        let site_idx = self.next_site();
        let data_dependent = self.program.sites[site_idx].is_data_dependent() && gap >= 1;

        let mut since_load = self.uops_since_load;
        let plain = if data_dependent { gap - 1 } else { gap };
        for _ in 0..plain {
            let u = self.sample_plain();
            if u.kind == UopKind::Load {
                since_load = 0;
            } else {
                since_load = (since_load + 1).min(MAX_DEP_DISTANCE);
            }
            self.queue.push_back(u);
        }
        if data_dependent {
            // Data-dependent branches consume a freshly loaded value —
            // a pointer load that skips the L1-resident core region,
            // so branch resolution genuinely waits on the hierarchy.
            let addr = self.pointer_addr();
            self.queue.push_back(Uop::mem(UopKind::Load, addr, 0));
            since_load = 0;
        }

        let outcome = self.program.sites[site_idx].next_outcome(self.history, &mut self.rng);
        self.history = (self.history << 1) | u64::from(outcome);

        let src1 = if data_dependent {
            1 // the pointer load immediately before the branch
        } else if self.rng.gen::<f64>() < self.cfg.branch_on_load_frac {
            // Depend on the most recent load so resolution waits on it.
            since_load + 1
        } else {
            1 + self.rng.gen_range(0..3)
        };
        let pc = self.program.sites[site_idx].pc;
        self.queue
            .push_back(Uop::branch(pc, site_idx as u32, outcome, src1));
    }

    /// Address for a pointer load feeding a data-dependent branch:
    /// uniform over the whole working set (pointer chasing has no
    /// useful locality), so the load's latency reflects how much of
    /// the benchmark's data footprint fits in cache.
    fn pointer_addr(&mut self) -> u64 {
        let ws = self.cfg.working_set.max(64);
        self.rng.gen_range(0..(ws / 8).max(1)) * 8
    }

    fn sample_plain(&mut self) -> Uop {
        let denom = 1.0 - self.cfg.branch_frac;
        let x: f64 = self.rng.gen::<f64>() * denom.max(f64::MIN_POSITIVE);
        let (load_frac, store_frac, fp_frac, mul_frac) = (
            self.cfg.load_frac,
            self.cfg.store_frac,
            self.cfg.fp_frac,
            self.cfg.mul_frac,
        );
        if x < load_frac {
            let addr = Self::mem_addr(&mut self.streams, &self.cfg, &mut self.rng);
            // Load addresses mostly come from induction variables and
            // are ready at dispatch; only pointer-chasing loads wait.
            let src = if self.rng.gen::<f64>() < 0.75 {
                0
            } else {
                Self::dep(&self.cfg, &mut self.rng)
            };
            Uop::mem(UopKind::Load, addr, src)
        } else if x < load_frac + store_frac {
            let addr = Self::mem_addr(&mut self.streams, &self.cfg, &mut self.rng);
            let src = Self::dep(&self.cfg, &mut self.rng);
            Uop::mem(UopKind::Store, addr, src)
        } else if x < load_frac + store_frac + fp_frac {
            let s1 = Self::dep(&self.cfg, &mut self.rng);
            let s2 = Self::dep(&self.cfg, &mut self.rng);
            Uop::alu(UopKind::Fp, s1, s2)
        } else if x < load_frac + store_frac + fp_frac + mul_frac {
            let s1 = Self::dep(&self.cfg, &mut self.rng);
            Uop::alu(UopKind::IntMul, s1, 0)
        } else {
            let s1 = Self::dep(&self.cfg, &mut self.rng);
            let s2 = Self::dep(&self.cfg, &mut self.rng);
            Uop::alu(UopKind::IntAlu, s1, s2)
        }
    }

    fn mem_addr(streams: &mut [u64; STREAM_COUNT], c: &WorkloadConfig, rng: &mut SmallRng) -> u64 {
        if rng.gen::<f64>() < c.seq_frac {
            let i = rng.gen_range(0..STREAM_COUNT);
            let a = streams[i];
            streams[i] = (streams[i] + 8) % c.working_set.max(64);
            a
        } else {
            // Non-sequential accesses follow a two-level locality
            // model: most hit a small L1-resident core, a further
            // slice stays within the hot region, and the remainder
            // roams the whole working set.
            let ws = c.working_set.max(64);
            let core = 8 * 1024u64.min(ws);
            let hot = (ws / 64).clamp(8 * 1024, ws);
            let r: f64 = rng.gen();
            let region = if r < 0.75 * c.hot_frac {
                core
            } else if r < c.hot_frac {
                hot
            } else {
                ws
            };
            rng.gen_range(0..(region / 8).max(1)) * 8
        }
    }

    fn dep(c: &WorkloadConfig, rng: &mut SmallRng) -> u32 {
        // Geometric-ish dependence distance around `dep_mean`; 0 means
        // no dependence. Distances are kept short so typical code forms
        // deep dependence chains — that is what delays branch
        // resolution past dispatch and lets wrong-path work issue, as
        // on real machines.
        if rng.gen::<f64>() < 0.20 {
            return 0;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let d = 1.0 + (-u.ln()) * (c.dep_mean - 1.0).max(0.1);
        (d as u32).clamp(1, MAX_DEP_DISTANCE)
    }
}

impl Iterator for WorkloadGenerator {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        Some(self.next_uop())
    }
}

/// Snapshotting captures every piece of mutable cursor state — both RNG
/// streams, the refill queue, the stream pointers, the path cursor, and
/// the per-site behaviour state inside `program.sites` (loop counters,
/// phase timers, pattern positions). The static program structure
/// (paths, Zipf tables, site frequencies) is *not* saved: it is a pure
/// function of the config, and restore targets a generator already
/// built from the same config — which is validated, so a snapshot can
/// never silently resume under the wrong workload.
impl Snapshot for WorkloadGenerator {
    fn save_state(&self) -> Value {
        Value::Object(vec![
            ("cfg".into(), self.cfg.to_value()),
            ("rng".into(), self.rng.state().to_value()),
            ("wp_rng".into(), self.wp_rng.state().to_value()),
            ("history".into(), self.history.to_value()),
            ("queue".into(), self.queue.to_value()),
            ("streams".into(), self.streams.to_value()),
            ("wp_streams".into(), self.wp_streams.to_value()),
            ("uops_since_load".into(), self.uops_since_load.to_value()),
            ("emitted".into(), self.emitted.to_value()),
            ("path".into(), self.path.to_value()),
            ("path_pos".into(), self.path_pos.to_value()),
            (
                "path_repeats_left".into(),
                self.path_repeats_left.to_value(),
            ),
            ("sites".into(), self.program.sites.to_value()),
        ])
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), SnapshotError> {
        let cfg: WorkloadConfig = serde::field(state, "cfg").map_err(SnapshotError::from_de)?;
        if cfg != self.cfg {
            return Err(SnapshotError::msg(format!(
                "generator snapshot was taken under workload `{}`, not `{}` (or configs differ)",
                cfg.name, self.cfg.name
            )));
        }
        let sites: Vec<crate::behavior::BranchSite> =
            serde::field(state, "sites").map_err(SnapshotError::from_de)?;
        if sites.len() != self.program.sites.len() {
            return Err(SnapshotError::msg(format!(
                "generator snapshot has {} sites, program has {}",
                sites.len(),
                self.program.sites.len()
            )));
        }
        fn f<T: Deserialize>(state: &Value, name: &str) -> Result<T, SnapshotError> {
            serde::field(state, name).map_err(SnapshotError::from_de)
        }
        self.rng = SmallRng::from_state(f(state, "rng")?);
        self.wp_rng = SmallRng::from_state(f(state, "wp_rng")?);
        self.history = f(state, "history")?;
        self.queue = f(state, "queue")?;
        self.streams = f(state, "streams")?;
        self.wp_streams = f(state, "wp_streams")?;
        self.uops_since_load = f(state, "uops_since_load")?;
        self.emitted = f(state, "emitted")?;
        self.path = f(state, "path")?;
        self.path_pos = f(state, "path_pos")?;
        self.path_repeats_left = f(state, "path_repeats_left")?;
        self.program.sites = sites;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{spec2000, spec2000_config};

    fn gen(name: &str) -> WorkloadGenerator {
        WorkloadGenerator::new(&spec2000_config(name).unwrap())
    }

    #[test]
    fn branch_density_matches_config() {
        let mut g = gen("gcc");
        let n = 40_000;
        let branches = (0..n).filter(|_| g.next_uop().is_branch()).count();
        let frac = branches as f64 / n as f64;
        let target = g.config().branch_frac;
        assert!((frac - target).abs() < 0.02, "frac={frac} target={target}");
    }

    #[test]
    fn load_density_roughly_matches_config() {
        let mut g = gen("vpr");
        let n = 40_000;
        let loads = (0..n)
            .filter(|_| g.next_uop().kind == UopKind::Load)
            .count();
        let frac = loads as f64 / n as f64;
        assert!((frac - g.config().load_frac).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn wrong_path_consumption_does_not_perturb_correct_path() {
        let cfg = spec2000_config("twolf").unwrap();
        let mut a = WorkloadGenerator::new(&cfg);
        let mut b = WorkloadGenerator::new(&cfg);
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        for i in 0..5_000 {
            sa.push(a.next_uop());
            if i % 3 == 0 {
                // b interleaves wrong-path fetches
                for _ in 0..7 {
                    let _ = b.next_wrong_path();
                }
            }
            sb.push(b.next_uop());
        }
        assert_eq!(sa, sb);
    }

    #[test]
    fn history_tracks_branch_outcomes() {
        let mut g = gen("gzip");
        let mut outcomes = Vec::new();
        while outcomes.len() < 10 {
            let u = g.next_uop();
            if let Some(b) = u.branch {
                outcomes.push(b.taken);
            }
        }
        let h = g.history();
        for (i, &t) in outcomes.iter().rev().enumerate() {
            assert_eq!((h >> i) & 1 == 1, t, "history bit {i}");
        }
    }

    #[test]
    fn branch_stream_follows_paths() {
        let mut g = gen("bzip");
        // Collect the site sequence and verify it is a concatenation of
        // program paths (each path traversed in full, in order).
        let paths = g.program().paths.clone();
        let mut sites = Vec::new();
        while sites.len() < 200 {
            if let Some(b) = g.next_uop().branch {
                sites.push(b.site);
            }
        }
        let mut i = 0;
        let mut matched_paths = 0;
        'outer: while i + 12 < sites.len() {
            for p in &paths {
                if sites[i..].starts_with(p) {
                    i += p.len();
                    matched_paths += 1;
                    continue 'outer;
                }
            }
            panic!("site stream at {i} does not start with any path");
        }
        assert!(matched_paths > 5);
    }

    #[test]
    fn wrong_path_branches_use_real_site_pcs() {
        let mut g = gen("mcf");
        let pcs: std::collections::BTreeSet<u64> = g.program().sites.iter().map(|s| s.pc).collect();
        let mut seen = 0;
        for _ in 0..5_000 {
            let u = g.next_wrong_path();
            if let Some(b) = u.branch {
                assert!(pcs.contains(&b.pc));
                seen += 1;
            }
        }
        assert!(seen > 100);
    }

    #[test]
    fn mem_uops_have_addresses_within_working_set() {
        for cfg in spec2000() {
            let mut g = WorkloadGenerator::new(&cfg);
            for _ in 0..2_000 {
                let u = g.next_uop();
                if let Some(m) = u.mem {
                    assert!(m.addr < cfg.working_set, "{}: {:x}", cfg.name, m.addr);
                }
            }
        }
    }

    #[test]
    fn hot_region_concentrates_random_accesses() {
        let cfg = spec2000_config("vpr").unwrap(); // hot_frac 0.9
        let mut g = WorkloadGenerator::new(&cfg);
        let hot = cfg.working_set / 16;
        let mut in_hot = 0u32;
        let mut total = 0u32;
        for _ in 0..60_000 {
            let u = g.next_uop();
            if let Some(m) = u.mem {
                total += 1;
                if m.addr < hot {
                    in_hot += 1;
                }
            }
        }
        // seq accesses sweep the whole set; random ones are 90% hot.
        let frac = f64::from(in_hot) / f64::from(total);
        assert!(frac > 0.4, "hot frac = {frac}");
    }

    #[test]
    fn dependence_distances_bounded() {
        let mut g = gen("gap");
        for _ in 0..10_000 {
            let u = g.next_uop();
            assert!(u.src1 <= MAX_DEP_DISTANCE + 1);
            assert!(u.src2 <= MAX_DEP_DISTANCE);
        }
    }

    #[test]
    fn emitted_counter_advances() {
        let mut g = gen("eon");
        for _ in 0..100 {
            let _ = g.next_uop();
        }
        assert_eq!(g.emitted(), 100);
    }

    #[test]
    fn snapshot_resume_reproduces_the_stream() {
        let cfg = spec2000_config("twolf").unwrap();
        let mut a = WorkloadGenerator::new(&cfg);
        for _ in 0..7_777 {
            let _ = a.next_uop();
            let _ = a.next_wrong_path();
        }
        let snap = a.save_state();
        let digest = a.state_digest();

        // Restore into a fresh generator built from the same config.
        let mut b = WorkloadGenerator::new(&cfg);
        b.restore_state(&snap).unwrap();
        assert_eq!(b.state_digest(), digest);
        for _ in 0..5_000 {
            assert_eq!(a.next_uop(), b.next_uop());
            assert_eq!(a.next_wrong_path(), b.next_wrong_path());
        }
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_survives_json_round_trip() {
        let cfg = spec2000_config("gzip").unwrap();
        let mut a = WorkloadGenerator::new(&cfg);
        for _ in 0..3_000 {
            let _ = a.next_uop();
        }
        let json = serde_json::to_string(&a.save_state()).unwrap();
        let back = serde_json::from_str(&json).unwrap();
        let mut b = WorkloadGenerator::new(&cfg);
        b.restore_state(&back).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        for _ in 0..2_000 {
            assert_eq!(a.next_uop(), b.next_uop());
        }
    }

    #[test]
    fn restore_rejects_wrong_workload() {
        let mut a = WorkloadGenerator::new(&spec2000_config("gzip").unwrap());
        let snap = a.save_state();
        let mut b = WorkloadGenerator::new(&spec2000_config("mcf").unwrap());
        let err = b.restore_state(&snap).unwrap_err();
        assert!(err.to_string().contains("gzip"), "{err}");
        // `a` itself accepts its own snapshot.
        a.restore_state(&snap).unwrap();
    }

    #[test]
    fn digest_changes_as_the_stream_advances() {
        let mut g = gen("vpr");
        let d0 = g.state_digest();
        let _ = g.next_uop();
        assert_ne!(g.state_digest(), d0);
    }

    #[test]
    fn iterator_and_next_uop_agree() {
        let cfg = spec2000_config("bzip").unwrap();
        let a: Vec<_> = WorkloadGenerator::new(&cfg).take(500).collect();
        let mut g = WorkloadGenerator::new(&cfg);
        let b: Vec<_> = (0..500).map(|_| g.next_uop()).collect();
        assert_eq!(a, b);
    }
}
