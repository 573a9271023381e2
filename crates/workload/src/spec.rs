use crate::behavior::{BehaviorSpec, BranchSite};
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The twelve SPECint2000 benchmark names used by the paper
/// (Table 2), in the paper's order.
pub const SPEC2000_NAMES: [&str; 12] = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "link", "eon", "perlbmk", "gap", "vortex", "bzip",
    "twolf",
];

/// Zipf exponent of the path execution-frequency skew.
const PATH_ZIPF_S: f64 = 0.8;
/// Path length bounds (branch sites per path).
const PATH_LEN: std::ops::RangeInclusive<u32> = 4..=12;

/// A weighted mixture of branch behaviours. Behaviours are assigned to
/// sites by *stratified* allocation over each site's execution
/// frequency, so the dynamic behaviour mix matches the configured
/// weights even though site frequencies are heavily skewed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorMix {
    entries: Vec<(f64, BehaviorSpec)>,
}

impl BehaviorMix {
    /// Creates a mixture from `(weight, spec)` pairs. Weights are
    /// normalised internally.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty or any weight is non-positive.
    #[must_use]
    pub fn new(entries: Vec<(f64, BehaviorSpec)>) -> Self {
        assert!(!entries.is_empty(), "mixture must have at least one entry");
        assert!(
            entries.iter().all(|&(w, _)| w > 0.0),
            "mixture weights must be positive"
        );
        Self { entries }
    }

    /// The `(weight, spec)` entries (weights as given, unnormalised).
    #[must_use]
    pub fn entries(&self) -> &[(f64, BehaviorSpec)] {
        &self.entries
    }

    /// Expected dynamic misprediction rate of the mixture under a
    /// well-trained predictor (weighted intrinsic rates). Used for
    /// calibration sanity checks only.
    #[must_use]
    pub fn expected_miss_rate(&self) -> f64 {
        let wsum: f64 = self.entries.iter().map(|&(w, _)| w).sum();
        self.entries
            .iter()
            .map(|&(w, s)| w * s.intrinsic_miss_rate())
            .sum::<f64>()
            / wsum
    }

    /// Assigns one behaviour spec per mass in `masses` (ordered from
    /// hottest to coldest site) so that each class's share of total
    /// mass matches its weight, using a greedy largest-deficit rule.
    ///
    /// *Hard* classes ([`BehaviorClass::is_hard`]) claim the hottest
    /// sites until they meet their mass quota; the remaining classes
    /// share the rest. This mirrors real programs, where
    /// mispredictions concentrate in a few notorious hot branches,
    /// and keeps the set of hard static sites small enough for
    /// PC-indexed estimator tables to learn.
    ///
    /// [`BehaviorClass::is_hard`]: crate::behavior::BehaviorClass::is_hard
    #[must_use]
    pub fn assign_specs(&self, masses: &[f64]) -> Vec<BehaviorSpec> {
        let grand_total: f64 = masses.iter().sum();
        let wsum: f64 = self.entries.iter().map(|&(w, _)| w).sum();
        let quota: Vec<f64> = self
            .entries
            .iter()
            .map(|&(w, _)| w / wsum * grand_total)
            .collect();
        let mut assigned = vec![0.0f64; self.entries.len()];
        let mut out = Vec::with_capacity(masses.len());
        let mut soft_total = 0.0;
        for &m in masses {
            // Hard classes first: hottest sites fill their quotas.
            let hard = (0..self.entries.len())
                .filter(|&i| self.entries[i].1.class().is_hard())
                .filter(|&i| assigned[i] + m / 2.0 < quota[i])
                .max_by(|&a, &b| (quota[a] - assigned[a]).total_cmp(&(quota[b] - assigned[b])));
            if let Some(i) = hard {
                assigned[i] += m;
                out.push(self.entries[i].1);
                continue;
            }
            // Remaining (easy) classes by largest deficit over the
            // mass seen so far, excluding what the hard classes took.
            soft_total += m;
            let soft_wsum: f64 = self
                .entries
                .iter()
                .filter(|e| !e.1.class().is_hard())
                .map(|&(w, _)| w)
                .sum();
            let mut best = 0;
            let mut best_deficit = f64::NEG_INFINITY;
            for (i, &(w, spec)) in self.entries.iter().enumerate() {
                if spec.class().is_hard() {
                    continue;
                }
                let deficit = w / soft_wsum.max(f64::MIN_POSITIVE) * soft_total - assigned[i];
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = i;
                }
            }
            assigned[best] += m;
            out.push(self.entries[best].1);
        }
        out
    }
}

/// The static structure of one synthetic benchmark: its branch sites
/// and the control-flow *paths* (repeating site sequences) the dynamic
/// stream walks.
///
/// Paths are what give the global branch history its realistic,
/// learnable structure: the same short sequences of branches recur, so
/// history-indexed predictors see a bounded set of patterns per site
/// instead of maximum-entropy noise.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Instantiated branch sites, indexed by site id.
    pub sites: Vec<BranchSite>,
    /// Control-flow paths: each is a sequence of site ids.
    pub paths: Vec<Vec<u32>>, // lint: transient — built from the workload config
    /// Execution-frequency distribution over paths.
    pub path_zipf: Zipf, // lint: transient — built from the workload config
    /// Per-site execution-frequency mass (sums to 1).
    pub site_freq: Vec<f64>, // lint: transient — built from the workload config
}

impl Program {
    /// Builds the program implied by a workload configuration.
    /// Deterministic in the config (including its seed).
    #[must_use]
    pub fn build(cfg: &WorkloadConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_0001);
        let site_zipf = Zipf::new(cfg.sites, cfg.zipf_s);
        let n_paths = cfg.paths.max(1);
        let path_zipf = Zipf::new(n_paths, PATH_ZIPF_S);
        let paths: Vec<Vec<u32>> = (0..n_paths)
            .map(|_| {
                let len = rng.gen_range(PATH_LEN);
                (0..len).map(|_| site_zipf.sample(&mut rng)).collect()
            })
            .collect();

        let mut site_freq = vec![0.0f64; cfg.sites as usize];
        for (p, path) in paths.iter().enumerate() {
            let m = path_zipf.mass(p) / path.len() as f64;
            for &s in path {
                site_freq[s as usize] += m;
            }
        }

        // Stratified behaviour assignment over measured frequency.
        let mut order: Vec<usize> = (0..cfg.sites as usize).collect();
        order.sort_by(|&a, &b| site_freq[b].total_cmp(&site_freq[a]).then(a.cmp(&b)));
        let masses: Vec<f64> = order.iter().map(|&i| site_freq[i]).collect();
        let specs = cfg.mix.assign_specs(&masses);
        let mut chosen = vec![None; cfg.sites as usize];
        for (rank, &site) in order.iter().enumerate() {
            chosen[site] = Some(specs[rank]);
        }
        let sites = chosen
            .into_iter()
            .enumerate()
            .map(|(id, spec)| {
                BranchSite::instantiate(id as u32, spec.expect("every site assigned"), &mut rng)
            })
            .collect();

        Self {
            sites,
            paths,
            path_zipf,
            site_freq,
        }
    }
}

/// Full configuration of one synthetic benchmark workload.
///
/// Instances for the paper's twelve benchmarks come from [`spec2000`];
/// custom workloads can be built directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Benchmark name (one of [`SPEC2000_NAMES`] for the calibrated set).
    pub name: String,
    /// RNG seed; the generated uop stream is a pure function of the
    /// config including this seed.
    pub seed: u64,
    /// Number of static branch sites.
    pub sites: u32,
    /// Number of control-flow paths (repeating site sequences).
    pub paths: u32,
    /// Zipf exponent used when drawing sites into paths.
    pub zipf_s: f64,
    /// Fraction of uops that are conditional branches.
    pub branch_frac: f64,
    /// Fraction of uops that are loads.
    pub load_frac: f64,
    /// Fraction of uops that are stores.
    pub store_frac: f64,
    /// Fraction of uops that are floating-point.
    pub fp_frac: f64,
    /// Fraction of uops that are long-latency integer (multiply class).
    pub mul_frac: f64,
    /// Fraction of memory accesses that follow sequential streams
    /// (prefetcher-friendly); the rest are distributed over the
    /// working set.
    pub seq_frac: f64,
    /// Working-set size in bytes.
    pub working_set: u64,
    /// Fraction of non-sequential accesses confined to the hot region
    /// (working_set / 16); models temporal locality.
    pub hot_frac: f64,
    /// Mean register-dependence distance in uops.
    pub dep_mean: f64,
    /// Fraction of branches whose source operand is the most recent
    /// load (delaying branch resolution — pointer-chasing codes).
    pub branch_on_load_frac: f64,
    /// Behaviour mixture across branch sites.
    pub mix: BehaviorMix,
    /// The paper's Table 2 "branch mispredicts / 1000 uops" value this
    /// config was calibrated against (documentation only).
    pub target_mpku: f64,
}

impl WorkloadConfig {
    /// Instantiates the static branch sites of this workload.
    #[must_use]
    pub fn build_sites(&self) -> Vec<BranchSite> {
        Program::build(self).sites
    }

    /// Builds the full program (sites + paths).
    #[must_use]
    pub fn build_program(&self) -> Program {
        Program::build(self)
    }
}

fn mix(entries: Vec<(f64, BehaviorSpec)>) -> BehaviorMix {
    BehaviorMix::new(entries)
}

fn biased(p: f64) -> BehaviorSpec {
    BehaviorSpec::Biased { p_taken: p }
}
fn lp(mean_trip: u32) -> BehaviorSpec {
    BehaviorSpec::Loop { mean_trip }
}
fn lin(noise: f64) -> BehaviorSpec {
    BehaviorSpec::LinearHistory { taps: 5, noise }
}
fn xor(noise: f64) -> BehaviorSpec {
    BehaviorSpec::XorHistory { noise }
}
fn rnd(p: f64) -> BehaviorSpec {
    BehaviorSpec::Random { p_taken: p }
}
fn ph(mean_stable: u32, mean_chaotic: u32) -> BehaviorSpec {
    BehaviorSpec::Phased {
        mean_stable,
        mean_chaotic,
    }
}
fn lt(noise: f64) -> BehaviorSpec {
    BehaviorSpec::LongHistory { noise }
}
fn pd(period: u32) -> BehaviorSpec {
    BehaviorSpec::Periodic {
        period,
        noise: 0.02,
    }
}

/// Builds a benchmark mixture from a target per-branch misprediction
/// rate, distributing the rate across behaviour classes in fixed
/// shares using *empirically measured* per-class misprediction rates
/// under the baseline bimodal–gshare hybrid (see `DESIGN.md`). The
/// share split keeps ~84% of mispredictions in hard, clustered
/// contexts — matching the concentration real traces exhibit and that
/// the paper's coverage numbers imply — with the remainder as
/// irreducible noise on strongly biased branches.
fn standard_mix(rate: f64, trip: u32, ph_stable: u32, pd_period: u32) -> BehaviorMix {
    // Empirical per-class misprediction rates (measured via the
    // calibrate example at 1.5M uops per benchmark).
    const E_LIN: f64 = 0.10;
    const E_XOR: f64 = 0.22;
    const E_PD: f64 = 0.22;
    const E_RND: f64 = 0.50;
    const E_LT: f64 = 0.50;
    let e_loop = 1.2 / f64::from(trip.max(2));
    let e_ph = (18.4 / (f64::from(ph_stable) + 16.0)).min(0.45);

    // Shares of the misprediction budget per class.
    let w_loop = 0.10 * rate / e_loop;
    let w_lin = 0.08 * rate / E_LIN;
    let w_xor = 0.08 * rate / E_XOR;
    let w_ph = 0.30 * rate / e_ph;
    let w_pd = 0.16 * rate / E_PD;
    let w_rnd = 0.08 * rate / E_RND;
    let w_lt = 0.04 * rate / E_LT;
    let used = w_loop + w_lin + w_xor + w_ph + w_pd + w_rnd + w_lt;
    assert!(used < 0.9, "misprediction budget too large for the mix");
    let w_b = 1.0 - used;
    // The biased bulk carries the remaining 16% of the budget as noise.
    let p_taken = (1.0 - 0.16 * rate / w_b).clamp(0.95, 0.9995);

    mix(vec![
        (w_b, biased(p_taken)),
        (w_loop, lp(trip)),
        (w_lin, lin(0.008)),
        (w_xor, xor(0.008)),
        (w_ph, ph(ph_stable, 16)),
        (w_pd, pd(pd_period)),
        (w_rnd, rnd(0.45)),
        (w_lt, lt(0.02)),
    ])
}

/// Returns the calibrated configuration for one SPECint2000 benchmark
/// name, or `None` for an unknown name.
///
/// # Examples
///
/// ```
/// let gcc = perconf_workload::spec2000_config("gcc").unwrap();
/// assert_eq!(gcc.name, "gcc");
/// assert!(perconf_workload::spec2000_config("nope").is_none());
/// ```
#[must_use]
pub fn spec2000_config(name: &str) -> Option<WorkloadConfig> {
    spec2000().into_iter().find(|c| c.name == name)
}

/// Returns the twelve calibrated SPECint2000 workload configurations in
/// the paper's Table 2 order.
///
/// Each mixture was chosen so its expected misprediction rate under a
/// good hybrid predictor, times the branch density, lands near the
/// paper's "branch mispredicts / 1000 uops" column (`target_mpku`).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn spec2000() -> Vec<WorkloadConfig> {
    struct Base<'a> {
        name: &'a str,
        sites: u32,
        paths: u32,
        zipf_s: f64,
        branch_frac: f64,
        seq_frac: f64,
        working_set: u64,
        hot_frac: f64,
        branch_on_load_frac: f64,
        mix: BehaviorMix,
        target_mpku: f64,
    }
    let build = |b: Base| WorkloadConfig {
        name: b.name.to_owned(),
        seed: 0x9e37_79b9
            ^ b.name.len() as u64
            ^ (b.name.as_bytes()[0] as u64) << 8
            ^ (b.name.as_bytes()[1] as u64) << 16,
        sites: b.sites,
        paths: b.paths,
        zipf_s: b.zipf_s,
        branch_frac: b.branch_frac,
        load_frac: 0.22,
        store_frac: 0.10,
        fp_frac: if b.name == "eon" { 0.12 } else { 0.02 },
        mul_frac: 0.02,
        seq_frac: b.seq_frac,
        working_set: b.working_set,
        hot_frac: b.hot_frac,
        dep_mean: 2.5,
        branch_on_load_frac: b.branch_on_load_frac,
        mix: b.mix,
        target_mpku: b.target_mpku,
    };

    vec![
        build(Base {
            name: "gzip",
            sites: 400,
            paths: 100,
            zipf_s: 1.15,
            branch_frac: 0.15,
            seq_frac: 0.80,
            working_set: 8 << 20,
            hot_frac: 0.92,
            branch_on_load_frac: 0.20,
            mix: standard_mix(0.03538, 16, 48, 2),
            target_mpku: 5.2,
        }),
        build(Base {
            name: "vpr",
            sites: 600,
            paths: 150,
            zipf_s: 1.0,
            branch_frac: 0.15,
            seq_frac: 0.45,
            working_set: 2 << 20,
            hot_frac: 0.90,
            branch_on_load_frac: 0.30,
            mix: standard_mix(0.03860, 10, 32, 2),
            target_mpku: 6.6,
        }),
        build(Base {
            name: "gcc",
            sites: 2400,
            paths: 600,
            zipf_s: 0.9,
            branch_frac: 0.16,
            seq_frac: 0.55,
            working_set: 4 << 20,
            hot_frac: 0.90,
            branch_on_load_frac: 0.20,
            mix: standard_mix(0.00998, 25, 48, 3),
            target_mpku: 2.3,
        }),
        build(Base {
            name: "mcf",
            sites: 350,
            paths: 90,
            zipf_s: 1.0,
            branch_frac: 0.15,
            seq_frac: 0.10,
            working_set: 24 << 20,
            hot_frac: 0.40,
            branch_on_load_frac: 0.55,
            mix: standard_mix(0.07960, 8, 16, 2),
            target_mpku: 16.0,
        }),
        build(Base {
            name: "crafty",
            sites: 1200,
            paths: 300,
            zipf_s: 1.0,
            branch_frac: 0.15,
            seq_frac: 0.50,
            working_set: 2 << 20,
            hot_frac: 0.90,
            branch_on_load_frac: 0.25,
            mix: standard_mix(0.01463, 20, 40, 2),
            target_mpku: 3.4,
        }),
        build(Base {
            name: "link",
            sites: 800,
            paths: 200,
            zipf_s: 1.0,
            branch_frac: 0.15,
            seq_frac: 0.40,
            working_set: 3 << 20,
            hot_frac: 0.85,
            branch_on_load_frac: 0.30,
            mix: standard_mix(0.02255, 12, 36, 2),
            target_mpku: 4.6,
        }),
        build(Base {
            name: "eon",
            sites: 900,
            paths: 220,
            zipf_s: 1.0,
            branch_frac: 0.10,
            seq_frac: 0.60,
            working_set: 1 << 19,
            hot_frac: 0.95,
            branch_on_load_frac: 0.10,
            mix: standard_mix(0.00413, 50, 80, 3),
            target_mpku: 0.5,
        }),
        build(Base {
            name: "perlbmk",
            sites: 1500,
            paths: 380,
            zipf_s: 0.95,
            branch_frac: 0.14,
            seq_frac: 0.55,
            working_set: 1 << 20,
            hot_frac: 0.92,
            branch_on_load_frac: 0.15,
            mix: standard_mix(0.00360, 40, 80, 3),
            target_mpku: 0.7,
        }),
        build(Base {
            name: "gap",
            sites: 1000,
            paths: 250,
            zipf_s: 1.0,
            branch_frac: 0.14,
            seq_frac: 0.55,
            working_set: 2 << 20,
            hot_frac: 0.90,
            branch_on_load_frac: 0.20,
            mix: standard_mix(0.01074, 20, 60, 2),
            target_mpku: 1.7,
        }),
        build(Base {
            name: "vortex",
            sites: 1400,
            paths: 350,
            zipf_s: 0.95,
            branch_frac: 0.16,
            seq_frac: 0.50,
            working_set: 6 << 20,
            hot_frac: 0.90,
            branch_on_load_frac: 0.15,
            mix: standard_mix(0.00088, 100, 150, 3),
            target_mpku: 0.2,
        }),
        build(Base {
            name: "bzip",
            sites: 350,
            paths: 90,
            zipf_s: 1.15,
            branch_frac: 0.15,
            seq_frac: 0.80,
            working_set: 8 << 20,
            hot_frac: 0.92,
            branch_on_load_frac: 0.20,
            mix: standard_mix(0.00573, 40, 80, 3),
            target_mpku: 1.1,
        }),
        build(Base {
            name: "twolf",
            sites: 700,
            paths: 170,
            zipf_s: 1.0,
            branch_frac: 0.15,
            seq_frac: 0.45,
            working_set: 3 << 20,
            hot_frac: 0.88,
            branch_on_load_frac: 0.30,
            mix: standard_mix(0.03529, 10, 30, 2),
            target_mpku: 6.3,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::BehaviorClass;

    #[test]
    fn twelve_benchmarks_in_paper_order() {
        let cfgs = spec2000();
        assert_eq!(cfgs.len(), 12);
        for (cfg, name) in cfgs.iter().zip(SPEC2000_NAMES) {
            assert_eq!(cfg.name, name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec2000_config("mcf").is_some());
        assert!(spec2000_config("swim").is_none());
    }

    #[test]
    fn expected_rates_track_paper_targets() {
        // The mixture's analytic expected miss rate, times branch
        // density, should land within 3x of the paper's MPKu column
        // (the budgeted builder uses empirical class rates, so the
        // intrinsic-rate estimate is only a loose lower-order check).
        for cfg in spec2000() {
            let mpku = cfg.mix.expected_miss_rate() * cfg.branch_frac * 1000.0;
            assert!(
                mpku > cfg.target_mpku / 3.0 && mpku < cfg.target_mpku * 3.0,
                "{}: analytic {:.2} vs target {:.2}",
                cfg.name,
                mpku,
                cfg.target_mpku
            );
        }
    }

    #[test]
    fn mcf_is_worst_and_vortex_best() {
        let rates: Vec<(String, f64)> = spec2000()
            .into_iter()
            .map(|c| {
                let r = c.mix.expected_miss_rate() * c.branch_frac;
                (c.name, r)
            })
            .collect();
        let max = rates.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        let min = rates.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert_eq!(max.0, "mcf");
        assert_eq!(min.0, "vortex");
    }

    #[test]
    fn program_paths_cover_sites_with_mass_one() {
        let cfg = spec2000_config("gcc").unwrap();
        let prog = cfg.build_program();
        assert_eq!(prog.sites.len(), cfg.sites as usize);
        assert_eq!(prog.paths.len(), cfg.paths as usize);
        let total: f64 = prog.site_freq.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
        for p in &prog.paths {
            assert!(p.len() >= 4 && p.len() <= 12);
            assert!(p.iter().all(|&s| s < cfg.sites));
        }
    }

    #[test]
    fn stratified_assignment_matches_weights_in_mass() {
        let cfg = spec2000_config("gcc").unwrap();
        let prog = cfg.build_program();
        // Mass share of the Biased class should be close to the
        // biased entry's weight share in the built mixture.
        let wsum: f64 = cfg.mix.entries().iter().map(|&(w, _)| w).sum();
        let want: f64 = cfg
            .mix
            .entries()
            .iter()
            .filter(|(_, s)| s.class() == BehaviorClass::Biased)
            .map(|&(w, _)| w)
            .sum::<f64>()
            / wsum;
        let biased_mass: f64 = prog
            .sites
            .iter()
            .filter(|s| s.spec.class() == BehaviorClass::Biased)
            .map(|s| prog.site_freq[s.id as usize])
            .sum();
        assert!(
            (biased_mass - want).abs() < 0.05,
            "biased mass = {biased_mass}, want ≈ {want}"
        );
    }

    #[test]
    fn assign_specs_matches_weights_on_uniform_mass() {
        let m = BehaviorMix::new(vec![(0.5, biased(0.99)), (0.5, rnd(0.5))]);
        let specs = m.assign_specs(&vec![1.0; 100]);
        let biased_count = specs
            .iter()
            .filter(|s| s.class() == BehaviorClass::Biased)
            .count();
        assert_eq!(biased_count, 50);
    }

    #[test]
    fn hard_classes_take_the_hottest_sites() {
        let m = BehaviorMix::new(vec![(0.9, biased(0.99)), (0.1, rnd(0.5))]);
        // Masses descending: hottest first.
        let masses: Vec<f64> = (0..100).map(|i| 1.0 / f64::from(i + 1)).collect();
        let specs = m.assign_specs(&masses);
        // The very hottest site must be the hard (Random) class, which
        // claims hot sites until its 10% mass quota fills.
        assert_eq!(specs[0].class(), BehaviorClass::Random);
        // And the cold tail is all biased.
        assert!(specs[60..]
            .iter()
            .all(|s| s.class() == BehaviorClass::Biased));
    }

    #[test]
    fn build_program_is_deterministic() {
        let cfg = spec2000_config("vpr").unwrap();
        assert_eq!(cfg.build_program(), cfg.build_program());
    }

    #[test]
    fn seeds_differ_across_benchmarks() {
        let cfgs = spec2000();
        for i in 0..cfgs.len() {
            for j in i + 1..cfgs.len() {
                assert_ne!(
                    cfgs[i].seed, cfgs[j].seed,
                    "{} vs {}",
                    cfgs[i].name, cfgs[j].name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_mix_panics() {
        let _ = BehaviorMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_panics() {
        let _ = BehaviorMix::new(vec![(0.0, biased(0.99))]);
    }

    #[test]
    fn standard_mix_budget_is_monotone_in_rate() {
        let lo = standard_mix(0.005, 20, 40, 2);
        let hi = standard_mix(0.05, 20, 40, 2);
        assert!(hi.expected_miss_rate() > lo.expected_miss_rate());
    }

    #[test]
    #[should_panic(expected = "budget too large")]
    fn standard_mix_rejects_absurd_rates() {
        let _ = standard_mix(0.9, 4, 16, 2);
    }
}
