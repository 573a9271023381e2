//! `validate` — run the whole reproduction at reduced scale and check
//! every qualitative claim from the paper's evaluation (the
//! EXPERIMENTS.md checklist). Exits non-zero if any claim fails, so it
//! can serve as the repository's reproduction CI.
//!
//! ```text
//! validate [--tiny | --full] [--jobs <n>]
//! ```
//!
//! `--jobs <n>` fans the per-benchmark pipeline runs inside each
//! experiment across `n` worker threads (`0` = every core; default
//! every core). Claim outcomes are byte-identical at any job count.
//!
//! When run from the repository root, the checked-in declarative
//! specs under `specs/` are also validated (parse → lower) as one of
//! the claims.
//!
//! Exit codes follow the shared taxonomy
//! (`perconf_experiments::exitcode`): 0 every check passed, 2 usage
//! error, 3 all checks passed but corrupt input was degraded to
//! recomputation, 4 one or more checks failed.

#![forbid(unsafe_code)]

use perconf_experiments::runner::{default_jobs, degraded_count};
use perconf_experiments::{
    common, energy, exitcode as exit, fig89, figs, latency, spec, table2, table3, table4, table5,
    table6, Scale,
};
use std::process::ExitCode;

struct Checker {
    failures: u32,
}

impl Checker {
    fn check(&mut self, name: &str, ok: bool) {
        println!("{} {name}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.failures += 1;
        }
    }
}

const USAGE: &str = "usage: validate [--tiny | --full] [--jobs <n>]";

fn main() -> ExitCode {
    let mut scale = Scale::quick();
    let mut jobs = default_jobs();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--tiny" => scale = Scale::tiny(),
            "--full" => scale = Scale::full(),
            "--jobs" => {
                let n = argv
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--jobs needs a number");
                        std::process::exit(i32::from(exit::USAGE));
                    });
                jobs = if n == 0 { default_jobs() } else { n };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other}; {USAGE}");
                return ExitCode::from(exit::USAGE);
            }
        }
    }
    common::set_jobs(jobs);
    let mut c = Checker { failures: 0 };
    #[allow(clippy::disallowed_methods)]
    // lint: allow(nondeterminism-sources) — wall-time banner only, never in results
    let t0 = std::time::Instant::now();

    // Table 2: waste grows with depth and width; mcf worst, in the
    // fetched metric.
    let t2 = table2::run(scale);
    let avg =
        |i: usize| t2.rows.iter().map(|r| r.waste[i].fetched).sum::<f64>() / t2.rows.len() as f64;
    c.check(
        "table2: deeper pipeline wastes more (fetched)",
        avg(2) > avg(0) * 1.2,
    );
    c.check(
        "table2: wider pipeline wastes more (fetched)",
        avg(1) > avg(0) * 1.2,
    );
    let mcf = t2.rows.iter().find(|r| r.bench == "mcf").expect("mcf row");
    c.check(
        "table2: mcf is the worst benchmark",
        t2.rows
            .iter()
            .all(|r| r.waste[2].fetched <= mcf.waste[2].fetched),
    );

    // Table 3: the headline accuracy claim and all four monotone trends.
    let t3 = table3::run(scale);
    c.check(
        "table3: perceptron PVN beats JRS at every λ",
        t3.perceptron_pvn_dominates(),
    );
    c.check(
        "table3: JRS coverage rises with λ",
        t3.jrs.windows(2).all(|w| w[1].spec >= w[0].spec),
    );
    c.check(
        "table3: perceptron coverage rises as λ falls",
        t3.perceptron.windows(2).all(|w| w[1].spec >= w[0].spec),
    );
    c.check(
        "table3: JRS coverage exceeds the perceptron's",
        t3.jrs.iter().map(|r| r.spec).fold(f64::MAX, f64::min)
            > t3.perceptron.iter().map(|r| r.spec).fold(0.0, f64::max) * 0.9,
    );

    // Table 4: perceptron dominates within a small loss budget and its
    // reduction grows as λ falls.
    let t4 = table4::run(scale);
    c.check(
        "table4: perceptron dominates JRS within a 2% loss budget",
        t4.perceptron_dominates_at_low_loss(0.02),
    );
    c.check(
        "table4: perceptron reduction grows as λ falls",
        t4.perceptron
            .windows(2)
            .all(|w| w[1].outcome.u_fetched >= w[0].outcome.u_fetched * 0.9),
    );

    // Table 5: the better predictor leaves less opportunity.
    let t5 = table5::run(scale);
    c.check(
        "table5: better predictor leaves less opportunity",
        t5.better_predictor_reduces_opportunity(),
    );

    // Table 6: narrow weights are the worst way to shrink.
    let t6 = table6::run(scale);
    c.check(
        "table6: 4-bit weights hurt most",
        t6.narrow_weights_hurt_most(),
    );

    // Figures 4–7: cic separates, tnt does not.
    let cic = figs::run(figs::Training::CorrectIncorrect, "gcc", scale);
    c.check(
        "fig5: MB outnumbers CB above the reversal threshold (cic)",
        cic.reversal_region_mb_dominates(),
    );
    let tnt = figs::run(figs::Training::TakenNotTaken, "gcc", scale);
    c.check(
        "fig7: tnt has no MB-dominant region",
        !tnt.full.mb_cb_ratio(30, 260).is_some_and(|r| r > 1.0)
            && !tnt.full.mb_cb_ratio(-30, 30).is_some_and(|r| r > 1.0),
    );

    // §5.4.2: estimator latency is cheap.
    let lat = latency::run(scale);
    c.check(
        "latency: 9-cycle estimator is cheap",
        lat.nine_cycles_is_cheap(),
    );

    // Figures 8–9: combined control at ~no loss; wide < deep.
    let f8 = fig89::run(fig89::Machine::Deep, scale);
    c.check(
        "fig8: combined gating+reversal at ~no average loss",
        f8.avg_speedup() > -2.0 && f8.avg_fetch_reduction() > 2.0,
    );
    let good: u64 = f8.rows.iter().map(|r| r.reversals_good).sum();
    let bad: u64 = f8.rows.iter().map(|r| r.reversals_bad).sum();
    c.check("fig8: reversals net positive", good > bad);
    let f9 = fig89::run(fig89::Machine::Wide, scale);
    c.check(
        "fig9: wide machine benefits less than deep",
        f9.avg_fetch_reduction() <= f8.avg_fetch_reduction() * 1.1,
    );

    // Extension: some gating point saves energy.
    let en = energy::run(scale);
    c.check(
        "energy: gating saves energy at some λ",
        en.gating_saves_energy(),
    );

    // The declarative spec surface: every checked-in `specs/*` file
    // must still parse, validate, and lower — the data files are part
    // of the reproduction, and a claim checker that ignored them
    // would let the spec twin of a table rot. Skipped (with a note)
    // when run outside the repository root.
    match std::fs::read_dir("specs") {
        Ok(entries) => {
            let mut ok = true;
            let mut n = 0u32;
            for path in entries.flatten().map(|e| e.path()) {
                if !path.extension().is_some_and(|x| x == "toml" || x == "json") {
                    continue;
                }
                n += 1;
                let lowered = spec::RunSpec::load(&path)
                    .map_err(|e| e.message().to_owned())
                    .and_then(|s| s.lower());
                if let Err(msg) = lowered {
                    eprintln!("  {}: {msg}", path.display());
                    ok = false;
                }
            }
            c.check("specs: every checked-in spec lowers", ok && n > 0);
        }
        Err(_) => eprintln!("[no specs/ directory here — spec check skipped]"),
    }

    println!(
        "\n{} checks failed [{:.0}s elapsed]",
        c.failures,
        t0.elapsed().as_secs_f64()
    );
    if c.failures == 0 {
        if degraded_count() > 0 {
            eprintln!(
                "[{} corrupt input(s) degraded to recomputation — exit {}]",
                degraded_count(),
                exit::DEGRADED
            );
            return ExitCode::from(exit::DEGRADED);
        }
        ExitCode::SUCCESS
    } else {
        // Failed checks map to the "failed cells" code: the run
        // finished, specific items within it did not.
        ExitCode::from(exit::FAILED_CELLS)
    }
}
