//! `perconf-lint`: the workspace determinism analyzer CLI.
//!
//! ```text
//! perconf-lint --workspace [--root <dir>] [--rules <a,b,...>]
//!              [--json <file>] [--quiet]
//! perconf-lint <file.rs>... [--rules ...] [--json <file>]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]

use perconf_lint::rules::ALL_RULES;
use perconf_lint::{analyze_paths, analyze_workspace, find_workspace_root, Analysis, Options};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    rules: Option<BTreeSet<String>>,
    quiet: bool,
    paths: Vec<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: perconf-lint (--workspace | <file.rs>...) [--root <dir>] \
         [--rules <list>] [--json <file>] [--quiet]\n\nrules: {}",
        ALL_RULES.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        json: None,
        rules: None,
        quiet: false,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--rules" => {
                let list = it.next().ok_or("--rules needs a comma-separated list")?;
                let mut set = BTreeSet::new();
                for r in list.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                    if !ALL_RULES.contains(&r) {
                        return Err(format!(
                            "unknown rule `{r}` (known: {})",
                            ALL_RULES.join(", ")
                        ));
                    }
                    set.insert(r.to_owned());
                }
                args.rules = Some(set);
            }
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()));
            }
            file => args.paths.push(PathBuf::from(file)),
        }
    }
    if args.workspace == args.paths.is_empty() {
        Ok(args)
    } else if args.workspace {
        Err("--workspace and explicit files are mutually exclusive".to_owned())
    } else {
        Err(usage())
    }
}

fn run(args: &Args) -> Result<Analysis, String> {
    let opts = Options {
        rules: args.rules.clone(),
    };
    if args.workspace {
        let root = match &args.root {
            Some(r) => r.clone(),
            None => {
                let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
                find_workspace_root(&cwd)
                    .ok_or("cannot find a workspace root above the current directory")?
            }
        };
        analyze_workspace(&root, &opts).map_err(|e| format!("analyzing workspace: {e}"))
    } else {
        analyze_paths(&args.paths, &opts).map_err(|e| format!("analyzing files: {e}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let analysis = match run(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perconf-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(json) = &args.json {
        let report = perconf_lint::diag::report_value(&analysis.findings, analysis.files_scanned);
        let body = match serde_json::to_string_pretty(&report) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perconf-lint: cannot serialize report: {e}");
                return ExitCode::from(2);
            }
        };
        // Atomic, so a crash never leaves a torn report — the
        // discipline the output-atomicity rule enforces.
        if let Err(e) = perconf_bpred::atomic_write(json, &[body.as_bytes(), b"\n"], true) {
            eprintln!("perconf-lint: cannot write {}: {e}", json.display());
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        for f in &analysis.findings {
            println!("{f}\n");
        }
    }
    if analysis.findings.is_empty() {
        if !args.quiet {
            println!(
                "perconf-lint: clean — {} files, 0 findings",
                analysis.files_scanned
            );
        }
        ExitCode::SUCCESS
    } else {
        println!(
            "perconf-lint: {} finding(s) across {} files",
            analysis.findings.len(),
            analysis.files_scanned
        );
        ExitCode::from(1)
    }
}
