//! Wire types for the experiment server.
//!
//! Everything here rides the vendored serde derive, whose enum
//! support covers unit variants and struct-like (named-field)
//! variants only — keep new variants in one of those two shapes.

use perconf_experiments::{faults, Scale};
use serde::{Deserialize, Serialize};

/// What a client asks the server to run: the full identity of a fault
/// sweep. Two specs with equal [`digest`](Self::digest) are guaranteed
/// to simulate identically, which is what lets the server keep one
/// checkpoint directory per digest and serve repeats from it without
/// re-simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Campaign seed (`repro --seed`).
    pub seed: u64,
    /// Simulation scale: `quick`, `tiny` or `full`.
    pub scale: String,
    /// Sweep grid: `small` or `full`.
    pub grid: String,
}

impl ExperimentSpec {
    /// Resolves the spec's string knobs, rejecting anything the
    /// one-shot `repro faults` CLI would reject.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message for unknown scale or grid names.
    pub fn resolve(&self) -> Result<(Scale, faults::Grid), String> {
        let scale = Scale::by_name(&self.scale)
            .ok_or_else(|| format!("unknown scale `{}` (quick|tiny|full)", self.scale))?;
        let grid = faults::Grid::by_name(&self.grid)
            .ok_or_else(|| format!("unknown grid `{}` (small|full)", self.grid))?;
        Ok((scale, grid))
    }

    /// Content digest of the spec itself, which names the spec's
    /// checkpoint directory on the server.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let canon = format!(
            "spec-v1|seed={}|scale={}|grid={}",
            self.seed, self.scale, self.grid
        );
        perconf_bpred::digest_bytes(canon.as_bytes())
    }

    /// The digest as the fixed-width hex prefix experiment ids use.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

/// Translates a declarative experiment spec document
/// (`perconf_experiments::spec`, TOML or JSON) into the server's
/// [`ExperimentSpec`] — the submit-spec half of the line protocol.
/// The server runs fault sweeps, so the document must have
/// `experiment.kind = "faults"`, and (v1 restriction) its grid must
/// equal one of the named presets the server's checkpoint directories
/// are keyed on: [`ExperimentSpec::digest`] hashes
/// `spec-v1|seed|scale|grid-name`, so an arbitrary-axis grid has no
/// identity there yet.
///
/// # Errors
///
/// Returns the spec parser's `file:line`-quality message for a
/// malformed document, and a usage-style message for a non-faults
/// kind or a grid that matches no preset.
pub fn spec_document_to_experiment(text: &str, format: &str) -> Result<ExperimentSpec, String> {
    use perconf_experiments::spec::{Lowered, RunSpec};
    let parsed = match format {
        "toml" => RunSpec::parse_toml(text, "<submitted spec>"),
        "json" => RunSpec::parse_json(text, "<submitted spec>"),
        other => return Err(format!("unknown spec format `{other}` (toml|json)")),
    }
    .map_err(|e| e.message().to_owned())?;
    let lowered = parsed
        .lower()
        .map_err(|e| format!("cannot lower spec: {e}"))?;
    let Lowered::Faults { seed, grid, .. } = lowered else {
        return Err(format!(
            "the experiment server runs fault sweeps only: expected kind = \"faults\", got \
             \"{}\" (run other kinds locally with `repro run`)",
            parsed.experiment.kind
        ));
    };
    let preset = grid.preset_name().ok_or_else(|| {
        "spec v1 submissions must use a preset grid (`grid = \"full\"` or `\"small\"`): \
         the server's checkpoint directories are keyed on preset names, so explicit axes \
         have no identity there yet"
            .to_owned()
    })?;
    Ok(ExperimentSpec {
        seed,
        scale: parsed.experiment.scale,
        grid: preset.to_owned(),
    })
}

/// One client request line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit an experiment. `chaos_kill` arms one scripted actor
    /// death (used by the chaos harness; results must stay
    /// byte-identical to an undisturbed run).
    Submit {
        /// What to run.
        spec: ExperimentSpec,
        /// Arm one actor kill after the first computed cell.
        chaos_kill: bool,
    },
    /// Submit a declarative experiment spec *document* (the
    /// `perconf_experiments::spec` format, same file `repro run`
    /// takes) instead of the compiled-in [`ExperimentSpec`] shape —
    /// clients drive the server with data files, no recompile. The
    /// server validates with the same strict parser and answers
    /// [`Response::Accepted`] / [`Response::Error`] exactly like
    /// [`Request::Submit`].
    SubmitSpec {
        /// The spec document text (not a path — the file's contents).
        spec: String,
        /// `toml` or `json`.
        format: String,
        /// Arm one actor kill after the first computed cell.
        chaos_kill: bool,
    },
    /// Query one experiment's phase and progress.
    Status {
        /// Experiment id from [`Response::Accepted`].
        id: String,
    },
    /// Fetch one experiment's result table (when finished).
    Result {
        /// Experiment id from [`Response::Accepted`].
        id: String,
    },
    /// Fetch the server's counter snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain accepted work and exit.
    Shutdown,
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The submission was accepted (or coalesced onto an identical
    /// in-flight experiment when `deduped`).
    Accepted {
        /// Id to poll with [`Request::Status`] / [`Request::Result`].
        id: String,
        /// `true` when an identical spec was already queued/running.
        deduped: bool,
    },
    /// 429-style rejection: the bounded submission queue is full (or
    /// the server is draining for shutdown). Resubmit later.
    Busy {
        /// Why the submission was shed.
        reason: String,
    },
    /// Phase and progress of one experiment.
    Status {
        /// Experiment id.
        id: String,
        /// `queued` | `running` | `done` | `degraded` | `failed`.
        phase: String,
        /// Actor restarts consumed so far.
        restarts: u32,
        /// Cells served from their final checkpoints.
        from_cache: u64,
        /// Cells actually simulated.
        computed: u64,
        /// Keys of cells that failed terminally.
        failed: Vec<String>,
        /// Failure class per entry of `failed` (`timeout`, `panic`,
        /// `io`, `invariant`, `abandoned`) — what lets the submit
        /// client map a degraded sweep onto the shared exit-code
        /// taxonomy.
        failed_kinds: Vec<String>,
    },
    /// A finished experiment's result.
    Result {
        /// Experiment id.
        id: String,
        /// `done` or `degraded` (a degraded table is still complete
        /// for every cell that could be recovered).
        phase: String,
        /// The `FaultTable` as a JSON value, `null` until finished.
        table: serde::Value,
        /// Cells served from their final checkpoints.
        from_cache: u64,
        /// Cells actually simulated.
        computed: u64,
    },
    /// The server's merged counter snapshot.
    Stats {
        /// The server's counters.
        counters: perconf_obs::CounterSnapshot,
    },
    /// Liveness reply.
    Pong,
    /// Acknowledges [`Request::Shutdown`]; the server drains and exits.
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ExperimentSpec {
        ExperimentSpec {
            seed: 7,
            scale: "tiny".to_owned(),
            grid: "small".to_owned(),
        }
    }

    #[test]
    fn spec_digest_separates_every_field() {
        let base = spec().digest();
        assert_eq!(base, spec().digest());
        assert_ne!(base, ExperimentSpec { seed: 8, ..spec() }.digest());
        assert_ne!(
            base,
            ExperimentSpec {
                scale: "full".to_owned(),
                ..spec()
            }
            .digest()
        );
        assert_ne!(
            base,
            ExperimentSpec {
                grid: "full".to_owned(),
                ..spec()
            }
            .digest()
        );
        assert_eq!(spec().digest_hex().len(), 16);
    }

    #[test]
    fn spec_resolves_known_names_and_rejects_unknown() {
        assert!(spec().resolve().is_ok());
        assert!(ExperimentSpec {
            scale: "huge".to_owned(),
            ..spec()
        }
        .resolve()
        .is_err());
        assert!(ExperimentSpec {
            grid: "medium".to_owned(),
            ..spec()
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn spec_documents_translate_to_preset_experiments() {
        let doc = "spec_version = 1\n\n[experiment]\nkind = \"faults\"\nscale = \"tiny\"\n\
                   seed = 7\n\n[faults]\ngrid = \"small\"\n";
        let exp = spec_document_to_experiment(doc, "toml").unwrap();
        assert_eq!(exp, spec());

        let json = r#"{"spec_version":1,"experiment":{"kind":"faults","scale":"tiny","seed":7},"faults":{"grid":"full"}}"#;
        let exp = spec_document_to_experiment(json, "json").unwrap();
        assert_eq!(exp.grid, "full");

        // Non-faults kinds and non-preset grids are rejected with a
        // reason, not a panic; so are unknown formats.
        let t2 = "spec_version = 1\n\n[experiment]\nkind = \"table2\"\n";
        assert!(spec_document_to_experiment(t2, "toml")
            .unwrap_err()
            .contains("faults"));
        let axes = "spec_version = 1\n\n[experiment]\nkind = \"faults\"\n\n[faults]\n\
                    estimators = [\"jrs\"]\nbenchmarks = [\"gcc\"]\nrates = [0.01]\n";
        assert!(spec_document_to_experiment(axes, "toml")
            .unwrap_err()
            .contains("preset"));
        assert!(spec_document_to_experiment(doc, "yaml").is_err());
    }

    #[test]
    fn requests_and_responses_round_trip_as_json_lines() {
        let reqs = [
            Request::Submit {
                spec: spec(),
                chaos_kill: false,
            },
            Request::SubmitSpec {
                spec: "[experiment]\nkind = \"faults\"\n".into(),
                format: "toml".into(),
                chaos_kill: true,
            },
            Request::Status { id: "x-0".into() },
            Request::Result { id: "x-0".into() },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in &reqs {
            let line = serde_json::to_string(r).unwrap();
            assert!(!line.contains('\n'));
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, r);
        }
        let resps = [
            Response::Accepted {
                id: "x-0".into(),
                deduped: true,
            },
            Response::Busy {
                reason: "queue full".into(),
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::Error {
                message: "no such id".into(),
            },
        ];
        for r in &resps {
            let back: Response = serde_json::from_str(&serde_json::to_string(r).unwrap()).unwrap();
            assert_eq!(&back, r);
        }
    }
}
