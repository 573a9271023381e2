//! `perconf-serve`: the experiment server binary and its line-protocol
//! clients.
//!
//! ```text
//! perconf-serve run    [--state <dir>] [--addr <ip:port>] [--queue <n>]
//!                      [--actors <n>] [--jobs <n>] [--restarts <n>]
//!                      [--watchdog <secs>] [--cell-timeout <secs>]
//! perconf-serve submit [--state <dir> | --addr <ip:port>]
//!                      (--spec <file.toml|file.json> |
//!                       --seed <n> [--tiny | --full] [--grid small|full])
//!                      [--json <dir>] [--chaos kill] [--no-wait]
//! perconf-serve status --id <id>  [--state <dir> | --addr <ip:port>]
//! perconf-serve stats             [--state <dir> | --addr <ip:port>]
//! perconf-serve ping              [--state <dir> | --addr <ip:port>]
//! perconf-serve shutdown          [--state <dir> | --addr <ip:port>]
//! ```
//!
//! `repro serve` / `repro submit` delegate here, so the flag spelling
//! mirrors `repro faults` (`--seed`, `--tiny`/`--full`, `--grid`,
//! `--json`). `submit --spec <file>` sends a declarative experiment
//! spec document (the same format `repro run` takes) over the wire
//! instead, replacing the knob flags. A waited `submit` writes the
//! same `faults.json` bytes a one-shot `repro faults` run would, and
//! exits through the shared taxonomy in
//! `perconf_experiments::exitcode`.
//!
//! The server runs an experiment as one batch group per grid row (the
//! cells that differ only in fault rate, which share one trace-level
//! pass). Two consequences for `run`'s flags:
//!
//! - `--jobs` parallelism inside one experiment is at most its row
//!   count: 2 for `--grid small`, 6 for `--grid full`;
//! - `--cell-timeout` stays per cell, so a row group's watchdog is
//!   that value times its pending cells.

#![forbid(unsafe_code)]
// Supervision timing (watchdogs, drain deadlines) is wall-clock by nature
// and never reaches result bytes.
#![allow(clippy::disallowed_methods)]

use perconf_experiments::exitcode;
use perconf_serve::api::{spec_document_to_experiment, ExperimentSpec, Request, Response};
use perconf_serve::protocol;
use perconf_serve::server::{Server, ServerConfig};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

const DEFAULT_STATE_DIR: &str = "serve-state";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        usage();
        exit(i32::from(exitcode::USAGE));
    };
    let code = match cmd.as_str() {
        "run" => cmd_run(&argv[1..]),
        "submit" => cmd_submit(&argv[1..]),
        "status" => cmd_status(&argv[1..]),
        "stats" => cmd_simple(&argv[1..], &Request::Stats),
        "ping" => cmd_simple(&argv[1..], &Request::Ping),
        "shutdown" => cmd_simple(&argv[1..], &Request::Shutdown),
        "--help" | "-h" | "help" => {
            usage();
            exitcode::OK
        }
        other => {
            eprintln!("unknown subcommand `{other}`");
            usage();
            exitcode::USAGE
        }
    };
    exit(i32::from(code));
}

fn usage() {
    eprintln!(
        "usage: perconf-serve run [--state <dir>] [--addr <ip:port>] [--queue <n>]\n\
         \x20                        [--actors <n>] [--jobs <n>] [--restarts <n>]\n\
         \x20                        [--watchdog <secs>] [--cell-timeout <secs>]\n\
         \x20      perconf-serve submit [--state <dir> | --addr <ip:port>]\n\
         \x20                        (--spec <file.toml|file.json> |\n\
         \x20                         --seed <n> [--tiny | --full] [--grid small|full])\n\
         \x20                        [--json <dir>] [--chaos kill] [--no-wait]\n\
         \x20      perconf-serve status --id <id> [--state <dir> | --addr <ip:port>]\n\
         \x20      perconf-serve stats|ping|shutdown [--state <dir> | --addr <ip:port>]\n\n\
         run: an experiment runs one batch group per grid row (its cells that differ only\n\
         in fault rate), so --jobs parallelism inside it is at most its row count (2 for\n\
         --grid small, 6 for --grid full), and --cell-timeout stays per cell: a row\n\
         group's watchdog is that value times its pending cells."
    );
}

/// Pulls the value after a `--flag`; `Err` if the flag is last.
fn take_value(argv: &[String], i: &mut usize) -> Result<String, String> {
    let flag = argv[*i].clone();
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{name} wants a number, got `{raw}`"))
}

/// Parses a watchdog in whole seconds. Zero is refused: every attempt
/// would time out at once.
fn parse_secs(name: &str, raw: &str) -> Result<Duration, String> {
    match parse_num(name, raw)? {
        0 => Err(format!("{name} must be at least 1")),
        secs => Ok(Duration::from_secs(secs)),
    }
}

// ---------------------------------------------------------------- run

fn cmd_run(argv: &[String]) -> u8 {
    let mut cfg = ServerConfig::at(DEFAULT_STATE_DIR);
    let mut i = 0;
    while i < argv.len() {
        let r: Result<(), String> = (|| {
            match argv[i].as_str() {
                "--state" => cfg.supervisor.state_dir = PathBuf::from(take_value(argv, &mut i)?),
                "--addr" => cfg.addr = take_value(argv, &mut i)?,
                "--queue" => {
                    cfg.supervisor.queue_capacity =
                        parse_num("--queue", &take_value(argv, &mut i)?)?;
                }
                "--actors" => {
                    cfg.supervisor.actor_threads =
                        parse_num("--actors", &take_value(argv, &mut i)?)?;
                }
                "--jobs" => cfg.supervisor.jobs = parse_num("--jobs", &take_value(argv, &mut i)?)?,
                "--restarts" => {
                    cfg.supervisor.restart_budget =
                        parse_num("--restarts", &take_value(argv, &mut i)?)?;
                }
                "--watchdog" => {
                    cfg.supervisor.watchdog = parse_secs("--watchdog", &take_value(argv, &mut i)?)?;
                }
                "--cell-timeout" => {
                    cfg.supervisor.cell_timeout =
                        Some(parse_secs("--cell-timeout", &take_value(argv, &mut i)?)?);
                }
                other => return Err(format!("unknown flag `{other}` for run")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("{e}");
            usage();
            return exitcode::USAGE;
        }
        i += 1;
    }
    let server = match Server::start(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return exitcode::FAILURE;
        }
    };
    eprintln!(
        "serve: listening on {} (state {})",
        server.local_addr(),
        cfg.supervisor.state_dir.display()
    );
    server.run();
    exitcode::OK
}

// ----------------------------------------------------------- clients

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, String> {
        protocol::write_msg(&mut self.writer, req).map_err(|e| format!("send: {e}"))?;
        protocol::read_msg(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned())
    }
}

/// `--addr` wins; otherwise the endpoint file under `--state` names
/// the server (waiting briefly for one that is still starting up).
fn resolve_addr(addr: Option<String>, state_dir: &Path) -> Result<String, String> {
    if let Some(a) = addr {
        return Ok(a);
    }
    let endpoint = state_dir.join("endpoint");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match std::fs::read_to_string(&endpoint) {
            Ok(text) if !text.trim().is_empty() => return Ok(text.trim().to_owned()),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
            _ => {
                return Err(format!(
                    "no server endpoint at {} (is `perconf-serve run` up?)",
                    endpoint.display()
                ))
            }
        }
    }
}

/// Common `--state`/`--addr` tail shared by the client subcommands.
/// Returns unconsumed flags for the caller to reject or use.
fn split_conn_flags(argv: &[String]) -> Result<(Option<String>, PathBuf, Vec<String>), String> {
    let mut addr = None;
    let mut state = PathBuf::from(DEFAULT_STATE_DIR);
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = Some(take_value(argv, &mut i)?),
            "--state" => state = PathBuf::from(take_value(argv, &mut i)?),
            _ => rest.push(argv[i].clone()),
        }
        i += 1;
    }
    Ok((addr, state, rest))
}

fn cmd_simple(argv: &[String], req: &Request) -> u8 {
    let parsed = split_conn_flags(argv).and_then(|(addr, state, rest)| {
        if let Some(stray) = rest.first() {
            return Err(format!("unknown flag `{stray}`"));
        }
        resolve_addr(addr, &state)
    });
    let addr = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::USAGE;
        }
    };
    let resp = Conn::open(&addr).and_then(|mut c| c.roundtrip(req));
    match resp {
        Ok(Response::Stats { counters }) => {
            // Flat `group/name value` lines: trivially awk/python
            // parseable, which the CI server-smoke lane relies on.
            for e in counters.entries() {
                println!("{}/{} {}", e.group, e.name, e.value);
            }
            exitcode::OK
        }
        Ok(Response::Pong) => {
            println!("pong {addr}");
            exitcode::OK
        }
        Ok(Response::ShuttingDown) => {
            println!("server draining");
            exitcode::OK
        }
        Ok(other) => {
            eprintln!("unexpected response: {other:?}");
            exitcode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            exitcode::FAILURE
        }
    }
}

fn cmd_status(argv: &[String]) -> u8 {
    let parsed = split_conn_flags(argv).and_then(|(addr, state, rest)| {
        let mut id = None;
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--id" => id = Some(take_value(&rest, &mut i)?),
                other => return Err(format!("unknown flag `{other}` for status")),
            }
            i += 1;
        }
        let id = id.ok_or("status needs --id <id>")?;
        Ok((resolve_addr(addr, &state)?, id))
    });
    let (addr, id) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::USAGE;
        }
    };
    match Conn::open(&addr).and_then(|mut c| c.roundtrip(&Request::Status { id })) {
        Ok(Response::Status {
            id,
            phase,
            restarts,
            from_cache,
            computed,
            failed,
            ..
        }) => {
            println!(
                "{id}: {phase} (restarts {restarts}, from_cache {from_cache}, \
                 computed {computed}, failed {})",
                failed.len()
            );
            exitcode::OK
        }
        Ok(Response::Error { message }) => {
            eprintln!("{message}");
            exitcode::FAILURE
        }
        Ok(other) => {
            eprintln!("unexpected response: {other:?}");
            exitcode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            exitcode::FAILURE
        }
    }
}

// -------------------------------------------------------------- submit

struct SubmitArgs {
    request: Request,
    json_dir: Option<PathBuf>,
    wait: bool,
    addr: Option<String>,
    state: PathBuf,
}

fn parse_submit(argv: &[String]) -> Result<SubmitArgs, String> {
    let (addr, state, rest) = split_conn_flags(argv)?;
    let mut spec = ExperimentSpec {
        seed: 42,
        scale: "quick".to_owned(),
        grid: "small".to_owned(),
    };
    let mut spec_file: Option<PathBuf> = None;
    let mut knob_flags = false;
    let mut chaos_kill = false;
    let mut json_dir = None;
    let mut wait = true;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--spec" => spec_file = Some(PathBuf::from(take_value(&rest, &mut i)?)),
            "--seed" => {
                spec.seed = parse_num("--seed", &take_value(&rest, &mut i)?)?;
                knob_flags = true;
            }
            "--tiny" => {
                spec.scale = "tiny".to_owned();
                knob_flags = true;
            }
            "--full" => {
                spec.scale = "full".to_owned();
                knob_flags = true;
            }
            "--grid" => {
                spec.grid = take_value(&rest, &mut i)?;
                knob_flags = true;
            }
            "--json" => json_dir = Some(PathBuf::from(take_value(&rest, &mut i)?)),
            "--chaos" => {
                let mode = take_value(&rest, &mut i)?;
                if mode != "kill" {
                    return Err(format!("unknown chaos mode `{mode}` (kill)"));
                }
                chaos_kill = true;
            }
            "--no-wait" => wait = false,
            other => return Err(format!("unknown flag `{other}` for submit")),
        }
        i += 1;
    }
    let request = match spec_file {
        Some(path) => {
            if knob_flags {
                return Err(
                    "--spec replaces --seed/--tiny/--full/--grid (the file carries them)"
                        .to_owned(),
                );
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let format = if path.extension().is_some_and(|e| e == "json") {
                "json"
            } else {
                "toml"
            };
            // Reject what the server would reject, before connecting.
            spec_document_to_experiment(&text, format)?;
            Request::SubmitSpec {
                spec: text,
                format: format.to_owned(),
                chaos_kill,
            }
        }
        None => {
            // Reject what the server would reject, before connecting.
            spec.resolve()?;
            Request::Submit { spec, chaos_kill }
        }
    };
    Ok(SubmitArgs {
        request,
        json_dir,
        wait,
        addr,
        state,
    })
}

fn cmd_submit(argv: &[String]) -> u8 {
    let args = match parse_submit(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            usage();
            return exitcode::USAGE;
        }
    };
    let addr = match resolve_addr(args.addr.clone(), &args.state) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::FAILURE;
        }
    };
    let mut conn = match Conn::open(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return exitcode::FAILURE;
        }
    };
    let id = match conn.roundtrip(&args.request) {
        Ok(Response::Accepted { id, deduped }) => {
            eprintln!(
                "submitted {id}{}",
                if deduped { " (coalesced)" } else { "" }
            );
            id
        }
        Ok(Response::Busy { reason }) => {
            // The 429 path: explicit, retryable, non-zero.
            eprintln!("server busy: {reason}");
            return exitcode::FAILURE;
        }
        Ok(Response::Error { message }) => {
            eprintln!("rejected: {message}");
            return exitcode::USAGE;
        }
        Ok(other) => {
            eprintln!("unexpected response: {other:?}");
            return exitcode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return exitcode::FAILURE;
        }
    };
    if !args.wait {
        println!("{id}");
        return exitcode::OK;
    }
    wait_and_fetch(&mut conn, &id, args.json_dir.as_deref())
}

/// Polls until the experiment is terminal, fetches the table, writes
/// `faults.json` (same bytes as one-shot `repro faults --json`), and
/// maps the outcome onto the shared exit-code taxonomy.
fn wait_and_fetch(conn: &mut Conn, id: &str, json_dir: Option<&Path>) -> u8 {
    let deadline = Instant::now() + Duration::from_secs(3600);
    let (phase, failed_kinds) = loop {
        if Instant::now() > deadline {
            eprintln!("gave up waiting for {id} after 3600s");
            return exitcode::FAILURE;
        }
        match conn.roundtrip(&Request::Status { id: id.to_owned() }) {
            Ok(Response::Status {
                phase,
                failed_kinds,
                ..
            }) => {
                if matches!(phase.as_str(), "done" | "degraded" | "failed") {
                    break (phase, failed_kinds);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok(Response::Error { message }) => {
                eprintln!("{message}");
                return exitcode::FAILURE;
            }
            Ok(other) => {
                eprintln!("unexpected response: {other:?}");
                return exitcode::FAILURE;
            }
            Err(e) => {
                eprintln!("{e}");
                return exitcode::FAILURE;
            }
        }
    };
    if phase == "failed" {
        eprintln!("experiment {id} failed");
        return exitcode::FAILURE;
    }
    match conn.roundtrip(&Request::Result { id: id.to_owned() }) {
        Ok(Response::Result {
            table,
            from_cache,
            computed,
            ..
        }) => {
            eprintln!("experiment {id}: {phase} (from_cache {from_cache}, computed {computed})");
            if let Some(dir) = json_dir {
                if let Err(e) = write_table(dir, &table) {
                    eprintln!("cannot write result: {e}");
                    return exitcode::FAILURE;
                }
            }
        }
        Ok(other) => {
            eprintln!("unexpected response: {other:?}");
            return exitcode::FAILURE;
        }
        Err(e) => {
            eprintln!("{e}");
            return exitcode::FAILURE;
        }
    }
    match phase.as_str() {
        "done" => exitcode::OK,
        // Degraded with failed cells classifies like a one-shot sweep
        // (all-timeout → WATCHDOG); degraded without failed cells
        // means corrupt state was recomputed → DEGRADED.
        _ if !failed_kinds.is_empty() => exitcode::classify_failed_kinds(&failed_kinds),
        _ => exitcode::DEGRADED,
    }
}

/// Writes the result table exactly as `repro`'s `save_json` would:
/// pretty JSON, no trailing newline — the byte-identity contract the
/// chaos harness diffs against. Atomic, so a crash mid-write never
/// leaves a torn `faults.json`.
fn write_table(dir: &Path, table: &serde::Value) -> std::io::Result<()> {
    let body = serde_json::to_string_pretty(table)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    perconf_bpred::atomic_write(&dir.join("faults.json"), &[body.as_bytes()], true)
}
