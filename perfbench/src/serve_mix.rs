//! `serve-mix`: one closed-loop client drives a fresh experiment server
//! over its line protocol.
//!
//! A pass submits six distinct-seed `small`-grid tiny experiments, which
//! miss the cache (each simulates, writes `.psnap` checkpoints, and fills
//! cache entries). After each miss come [`HITS_PER_MISS`] repeat
//! submissions of experiments already answered, which the cache serves.
//! Halfway through the server restarts on the same state directory, so
//! the first repeats after it rehydrate from disk. The server runs in
//! this process with its default policy: one actor thread, one job.

use crate::check::{self, GOLDEN_SEED};
use crate::harness::{speed, Calibrator};
use crate::workloads::{Pass, ServeCounts, Workload};
use perconf_experiments::faults::{self, FaultTable, Grid};
use perconf_experiments::runner::{Scheduler, SchedulerConfig};
use perconf_experiments::Scale;
use perconf_obs::CounterSnapshot;
use perconf_serve::api::{ExperimentSpec, Request, Response};
use perconf_serve::protocol::{read_msg, write_msg};
use perconf_serve::server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Distinct experiments per pass, each a cache miss.
const MISSES: usize = 6;
/// Repeat submissions after each miss.
const HITS_PER_MISS: usize = 17;

/// The line-protocol client: one connection, one request in flight.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Self {
            reader: BufReader::new(read),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        write_msg(&mut self.writer, req).map_err(|e| format!("send: {e}"))?;
        read_msg(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "server closed the connection".to_owned())
    }

    fn stats(&mut self) -> Result<CounterSnapshot, String> {
        match self.call(&Request::Stats)? {
            Response::Stats { counters } => Ok(counters),
            other => Err(format!("stats: unexpected reply {other:?}")),
        }
    }
}

/// A server running on its own thread, plus the connection to it.
struct Running {
    client: Client,
    thread: JoinHandle<()>,
}

impl Running {
    /// Starts a server on `state` and connects to it.
    fn start(state: &Path) -> Result<Self, String> {
        let server =
            Server::start(ServerConfig::at(state)).map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr();
        let thread = thread::Builder::new()
            .name("serve-mix-server".into())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        Ok(Self {
            client: Client::connect(addr)?,
            thread,
        })
    }

    /// Waits until the server has accepted the connection.
    fn ping(&mut self) -> Result<(), String> {
        match self.client.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(format!("ping: unexpected reply {other:?}")),
        }
    }

    /// Asks the server to drain and exit, and joins it.
    fn stop(mut self) -> Result<(), String> {
        let reply = self.client.call(&Request::Shutdown)?;
        drop(self.client);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())?;
        match reply {
            Response::ShuttingDown => Ok(()),
            other => Err(format!("shutdown: unexpected reply {other:?}")),
        }
    }
}

/// One answered submission.
struct Answer {
    accept_ms: f64,
    latency_ms: f64,
    table: serde::Value,
    computed: u64,
}

/// Submits `spec` and polls until its result arrives.
fn submit(client: &mut Client, spec: &ExperimentSpec) -> Result<Answer, String> {
    let t = Instant::now();
    let id = match client.call(&Request::Submit {
        spec: spec.clone(),
        chaos_kill: false,
    })? {
        Response::Accepted { id, .. } => id,
        other => return Err(format!("submit: {other:?}")),
    };
    let accept_ms = t.elapsed().as_secs_f64() * 1e3;
    loop {
        match client.call(&Request::Result { id: id.clone() })? {
            Response::Result {
                phase,
                table,
                computed,
                ..
            } => {
                if phase != "done" {
                    return Err(format!("experiment {id} finished {phase}"));
                }
                return Ok(Answer {
                    accept_ms,
                    latency_ms: t.elapsed().as_secs_f64() * 1e3,
                    table,
                    computed,
                });
            }
            Response::Status { .. } => {}
            other => return Err(format!("result {id}: {other:?}")),
        }
        // Fine polling while a cache hit is still plausible, coarser
        // once the experiment is clearly simulating.
        let wait = if t.elapsed() < Duration::from_millis(50) {
            100
        } else {
            1_000
        };
        thread::sleep(Duration::from_micros(wait));
    }
}

/// `serve-mix` (see the module docs).
pub struct ServeMix {
    seed: u64,
    misses: usize,
    hits_per_miss: usize,
    work: PathBuf,
    state_no: usize,
    state: PathBuf,
    running: Option<Running>,
    cal: Calibrator,
}

impl ServeMix {
    /// Experiment seeds are `seed`, `seed + 1`, …; `work` holds the
    /// per-pass state directories. `shortened` runs one miss on each
    /// side of the restart (self-tests).
    #[must_use]
    pub fn new(seed: u64, work: &Path, shortened: bool) -> Self {
        let (misses, hits_per_miss) = if shortened {
            (2, 3)
        } else {
            (MISSES, HITS_PER_MISS)
        };
        Self {
            seed,
            misses,
            hits_per_miss,
            work: work.to_owned(),
            state_no: 0,
            state: PathBuf::new(),
            running: None,
            cal: Calibrator::new(),
        }
    }

    fn spec(&self, i: usize) -> ExperimentSpec {
        ExperimentSpec {
            seed: self.seed.wrapping_add(i as u64),
            scale: "tiny".into(),
            grid: "small".into(),
        }
    }

    fn running(&mut self) -> Result<&mut Running, String> {
        self.running
            .as_mut()
            .ok_or_else(|| "serve-mix: no server".to_owned())
    }

    /// Submits experiment `i` and records the answer in `pass`. Returns
    /// the seconds spent on calibration samples.
    fn op(&mut self, i: usize, want_hit: bool, pass: &mut Pass) -> Result<f64, String> {
        let spec = self.spec(i);
        pass.attempted += 1;
        // A first submission simulates for about a second, on the
        // server's thread and this core, so it is timed between two
        // calibration samples and rescaled. Repeats are mostly socket
        // round trips and stay wall times.
        let before = if want_hit { 0.0 } else { self.cal.sample() };
        let a = submit(&mut self.running()?.client, &spec)?;
        let (k, cal_s) = if want_hit {
            (1.0, 0.0)
        } else {
            let after = self.cal.sample();
            (speed(before, after), before + after)
        };
        pass.accept_ms.push(a.accept_ms);
        pass.busy_s += a.latency_ms / 1e3;
        pass.ref_wall_s += (k - 1.0) * a.latency_ms / 1e3;
        if a.computed == 0 {
            pass.hit_ms.push(a.latency_ms * k);
        } else {
            pass.miss_ms.push(a.latency_ms * k);
            let table: FaultTable =
                serde_json::from_value(&a.table).map_err(|e| format!("result table: {e}"))?;
            pass.sim.add_counters(&table.counters);
        }
        // A repeat that re-simulated, or a first submission the cache
        // claimed to know, is a failed operation.
        if (a.computed == 0) == want_hit {
            pass.outputs
                .push((format!("spec{i}"), check::digest_json(&a.table)));
        }
        Ok(cal_s)
    }
}

impl Workload for ServeMix {
    fn setup(&mut self) -> Result<(), String> {
        self.state = self.work.join(format!("state-{}", self.state_no));
        self.state_no += 1;
        self.running = Some(Running::start(&self.state)?);
        Ok(())
    }

    fn pass(&mut self) -> Result<Pass, String> {
        self.running()?.ping()?;
        let mut pass = Pass::default();
        let mut counts = ServeCounts::default();
        let mut cal_s = 0.0;
        let t = Instant::now();
        for i in 0..self.misses {
            if i > 0 && i == self.misses / 2 {
                let mut old = self.running.take().ok_or("serve-mix: no server")?;
                counts.add(&old.client.stats()?);
                old.stop()?;
                let mut new = Running::start(&self.state)?;
                new.ping()?;
                self.running = Some(new);
            }
            cal_s += self.op(i, false, &mut pass)?;
            for j in 0..self.hits_per_miss {
                let k = (j + self.seed as usize) % (i + 1);
                cal_s += self.op(k, true, &mut pass)?;
            }
        }
        pass.wall_s = t.elapsed().as_secs_f64() - cal_s;
        pass.ref_wall_s += pass.wall_s;
        counts.add(&self.running()?.client.stats()?);
        pass.serve = counts;
        Ok(pass)
    }

    fn teardown(&mut self) {
        if let Some(r) = self.running.take() {
            if let Err(e) = r.stop() {
                eprintln!("serve-mix: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&self.state);
    }

    fn hits(&mut self, _dir: &Path) -> Result<Pass, String> {
        Ok(Pass::default())
    }

    fn expected(&mut self, first: &Pass) -> Result<BTreeMap<String, u64>, String> {
        // Each experiment's first answer (its miss) is what every
        // repeat must serve.
        let mut map = BTreeMap::new();
        for (key, d) in &first.outputs {
            map.entry(key.clone()).or_insert(*d);
        }
        let misses: Vec<u64> = (0..self.misses)
            .map(|i| map.get(&format!("spec{i}")).copied().unwrap_or(0))
            .collect();
        if self.seed == GOLDEN_SEED && self.misses == MISSES {
            if let Err(e) = check::check_recorded("serve-mix", &misses) {
                eprintln!("serve-mix: output check failed: {e}");
                return Ok(BTreeMap::new());
            }
        }
        // The first experiment recomputed in-process, without the
        // server, must match what the server answered.
        let spec = self.spec(0);
        let mut scheduler = Scheduler::new(SchedulerConfig::for_run(1, None));
        let (table, _) = faults::run_grid(Scale::tiny(), spec.seed, &Grid::small(), &mut scheduler);
        let value = serde_json::to_value(&table).map_err(|e| e.to_string())?;
        let direct = check::digest_json(&value);
        if misses[0] != direct {
            eprintln!("serve-mix: served result for spec0 differs from a direct run");
            map.insert("spec0".into(), direct);
        }
        Ok(map)
    }
}
