//! TCP front end: accept loop, connection handling, and the
//! SIGTERM-driven drain-then-exit path.
//!
//! The listener binds loopback (an experiment server is a local
//! supervision convenience, not a network service), writes its bound
//! address to `<state_dir>/endpoint` so clients can find an
//! ephemeral-port server, and handles each connection on its own
//! thread. Request handling is a thin translation layer — all policy
//! (queueing, shedding, restarts) lives in [`crate::supervisor`].
//!
//! Shutdown paths, both of which drain accepted work before exit:
//!
//! - a protocol [`Request::Shutdown`] line;
//! - SIGTERM, observed through a one-flag handler registered via the
//!   vendored `signal-hook` subset (`flag::register`), which keeps
//!   the `unsafe` signal plumbing out of this crate so the crate root
//!   can `#![forbid(unsafe_code)]`.

use crate::api::{self, Request, Response};
use crate::protocol;
use crate::supervisor::{Submitted, Supervisor, SupervisorConfig};
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

/// Set by the SIGTERM handler; polled by the accept loop.
fn term_flag() -> &'static Arc<AtomicBool> {
    static TERM: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    TERM.get_or_init(|| Arc::new(AtomicBool::new(false)))
}

/// Installs the SIGTERM flag handler (idempotent). Async-signal-safe:
/// the registered handler only stores an atomic.
fn install_sigterm_handler() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let registered =
            signal_hook::flag::register(signal_hook::consts::SIGTERM, Arc::clone(term_flag()));
        if let Err(e) = registered {
            // Degraded but functional: protocol `Shutdown` still
            // drains; only the signal path is lost.
            eprintln!("warning: cannot install SIGTERM handler: {e}");
        }
    });
}

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (published via
    /// the endpoint file).
    pub addr: String,
    /// Supervisor policy (state directory, queue bound, restarts...).
    pub supervisor: SupervisorConfig,
}

impl ServerConfig {
    /// Defaults: loopback ephemeral port, supervisor rooted at
    /// `state_dir`.
    #[must_use]
    pub fn at<P: Into<PathBuf>>(state_dir: P) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            supervisor: SupervisorConfig::at(state_dir),
        }
    }
}

/// A running server: listener plus supervision tree.
pub struct Server {
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
    state_dir: PathBuf,
    /// Set by a protocol `Shutdown` request.
    shutdown_requested: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listener, starts the supervisor (recovering any
    /// pending experiments a dead server left), and publishes the
    /// endpoint file.
    ///
    /// # Errors
    ///
    /// Propagates bind and state-directory failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Self> {
        let state_dir = cfg.supervisor.state_dir.clone();
        let supervisor = Arc::new(Supervisor::start(cfg.supervisor)?);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // Not fsynced: the rendezvous file is rewritten on every start.
        let endpoint = format!("{addr}\n");
        perconf_bpred::atomic_write(&state_dir.join("endpoint"), &[endpoint.as_bytes()], false)?;
        Ok(Self {
            listener,
            supervisor,
            state_dir,
            shutdown_requested: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read (the
    /// bind already succeeded, so this indicates a torn-down socket).
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("listener has no address")
    }

    /// Serves until SIGTERM or a protocol `Shutdown`, then drains the
    /// supervisor (finishing all accepted experiments) and removes
    /// the endpoint file. Connection threads are detached; in-flight
    /// connections at shutdown finish their current request at most.
    pub fn run(self) {
        install_sigterm_handler();
        loop {
            if term_flag().load(Ordering::SeqCst) || self.shutdown_requested.load(Ordering::SeqCst)
            {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let sup = Arc::clone(&self.supervisor);
                    let stop = Arc::clone(&self.shutdown_requested);
                    let spawned = thread::Builder::new()
                        .name("serve-conn".to_owned())
                        .spawn(move || handle_connection(stream, &sup, &stop));
                    if let Err(e) = spawned {
                        eprintln!("warning: cannot spawn connection thread: {e}");
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    eprintln!("accept error: {e}");
                    thread::sleep(Duration::from_millis(100));
                }
            }
        }
        eprintln!("serve: draining accepted experiments before exit");
        let _ = std::fs::remove_file(self.state_dir.join("endpoint"));
        match Arc::try_unwrap(self.supervisor) {
            Ok(sup) => sup.shutdown_and_drain(),
            Err(shared) => {
                // Connection threads still hold the supervisor; wait
                // for them to finish their current request, bounded.
                for _ in 0..600 {
                    if Arc::strong_count(&shared) == 1 {
                        break;
                    }
                    thread::sleep(Duration::from_millis(100));
                }
                match Arc::try_unwrap(shared) {
                    Ok(sup) => sup.shutdown_and_drain(),
                    Err(_) => eprintln!(
                        "warning: connection threads still live after grace; exiting undrained"
                    ),
                }
            }
        }
    }
}

/// One connection: read a request line, answer it, repeat until EOF.
fn handle_connection(stream: TcpStream, sup: &Supervisor, stop: &Arc<AtomicBool>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let req = match protocol::read_msg::<_, Request>(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return,
            Err(e) => {
                let _ = protocol::write_msg(
                    &mut writer,
                    &Response::Error {
                        message: format!("bad request: {e}"),
                    },
                );
                return;
            }
        };
        let resp = handle_request(&req, sup, stop);
        let done = matches!(resp, Response::ShuttingDown);
        if protocol::write_msg(&mut writer, &resp).is_err() || done {
            return;
        }
    }
}

fn handle_request(req: &Request, sup: &Supervisor, stop: &Arc<AtomicBool>) -> Response {
    match req {
        Request::Submit { spec, chaos_kill } => match sup.submit(spec, *chaos_kill) {
            Submitted::Accepted { id, deduped } => Response::Accepted { id, deduped },
            Submitted::Busy { reason } => Response::Busy { reason },
            Submitted::Invalid { reason } => Response::Error { message: reason },
        },
        Request::SubmitSpec {
            spec,
            format,
            chaos_kill,
        } => match api::spec_document_to_experiment(spec, format) {
            Ok(exp) => match sup.submit(&exp, *chaos_kill) {
                Submitted::Accepted { id, deduped } => Response::Accepted { id, deduped },
                Submitted::Busy { reason } => Response::Busy { reason },
                Submitted::Invalid { reason } => Response::Error { message: reason },
            },
            Err(message) => Response::Error { message },
        },
        Request::Status { id } => match sup.status(id) {
            Some(e) => Response::Status {
                id: e.id,
                phase: e.phase.name().to_owned(),
                restarts: e.restarts,
                from_cache: e.from_cache,
                computed: e.computed,
                failed: e.failed,
                failed_kinds: e.failed_kinds,
            },
            None => Response::Error {
                message: format!("no such experiment: {id}"),
            },
        },
        Request::Result { id } => match sup.status(id) {
            Some(e) if e.phase.is_terminal() => {
                let table = sup.result_table(id).unwrap_or(serde::Value::Null);
                Response::Result {
                    id: e.id,
                    phase: e.phase.name().to_owned(),
                    table,
                    from_cache: e.from_cache,
                    computed: e.computed,
                }
            }
            Some(e) => Response::Status {
                id: e.id,
                phase: e.phase.name().to_owned(),
                restarts: e.restarts,
                from_cache: e.from_cache,
                computed: e.computed,
                failed: e.failed,
                failed_kinds: e.failed_kinds,
            },
            None => Response::Error {
                message: format!("no such experiment: {id}"),
            },
        },
        Request::Stats => Response::Stats {
            counters: sup.stats(),
        },
        Request::Ping => Response::Pong,
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
    }
}
