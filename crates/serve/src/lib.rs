//! `condspec-serve` — the sweep-as-a-service daemon of the Conditional
//! Speculation reproduction.
//!
//! `condspec serve` turns the batch engine into a long-running service:
//! an HTTP/1.1 micro-server (in-tree, on `std::net::TcpListener` — no
//! external dependencies) accepts job and sweep submissions as JSON,
//! shards them across the engine's panic-isolated worker pool, streams
//! progress as newline-delimited JSON over chunked transfer encoding,
//! and serves rendered reports, Perfetto traces, and time-series
//! documents. Submissions run against the same persistent result store
//! as the CLI, so a sweep submitted twice reports 100% store hits the
//! second time — and a sweep the CLI already ran costs the daemon
//! nothing.
//!
//! # API
//!
//! | Method | Path | Purpose |
//! |---|---|---|
//! | GET  | `/` | endpoint index |
//! | GET  | `/healthz` | health: version, uptime, store root, jobs in flight |
//! | GET  | `/api/health` | liveness probe |
//! | GET  | `/api/leaks` | taint-oracle leak matrix (`?variant=`, `?defense=`) |
//! | GET  | `/api/sweeps` | list submissions |
//! | POST | `/api/sweeps` | submit `{"sweep", "iters"?, "warmup"?, "mode"?, "distributed"?, "claim_timeout_ms"?}` |
//! | POST | `/api/work/claim` | worker leases one job `{"owner"}` |
//! | POST | `/api/work/result` | worker reports `{"owner", "submission", "index", "artifact"\|"error"}` |
//! | POST | `/api/work/heartbeat` | renew liveness/lease `{"owner", "submission"?, "index"?}` |
//! | GET  | `/api/sweeps/<id>` | one submission's status |
//! | GET  | `/api/sweeps/<id>/stream` | chunked progress stream (NDJSON) |
//! | GET  | `/api/sweeps/<id>/report` | rendered report text |
//! | GET  | `/api/report/<sweep-id>` | report from run dir and/or store |
//! | POST | `/api/jobs` | run one job `{"kind", ...}` synchronously |
//! | GET  | `/api/trace` | Perfetto trace of one attack round |
//! | GET  | `/api/timeseries` | windowed time-series of one benchmark |
//! | GET  | `/api/store/stats` | store stats + counters (metrics JSON) |
//! | GET  | `/api/metrics` | daemon metrics registry |
//! | POST | `/api/shutdown` | graceful stop |

pub mod http;
pub mod state;

pub use state::{ServerState, Submission, SubmissionStatus, SubmitMode, WorkerEntry};

use condspec::{leak_report_to_json, DefenseConfig};
use condspec_attacks::{leak_probe, traced_variant_round, AttackScenario};
use condspec_engine::{
    load_sweep_report_with_store, JobSpec, MachinePreset, ProgramCache, ResultStore, Sweep,
    Workload,
};
use condspec_stats::{Json, MetricsRegistry};
use condspec_workloads::GadgetKind;
use http::{read_request, respond_json, respond_text, ChunkedResponse, Request};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The address `condspec serve` binds when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7877";

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 binds an ephemeral port.
    pub addr: String,
    /// Worker threads per sweep (0 = engine default).
    pub workers: usize,
    /// Artifact root for daemon-run sweeps.
    pub runs_root: PathBuf,
    /// Persistent store root; `None` disables the store.
    pub store_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: 0,
            runs_root: PathBuf::from(condspec_engine::DEFAULT_ROOT),
            store_root: Some(ResultStore::default_root()),
        }
    }
}

/// A bound daemon, ready to serve.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listen socket and initializes shared state. Nothing is
    /// served until [`Server::run`].
    pub fn bind(config: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let state = Arc::new(ServerState::new(
            config.workers,
            config.runs_root.clone(),
            config.store_root.clone(),
        ));
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (for embedding and tests).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Serves until `POST /api/shutdown`. One thread per connection;
    /// running submissions own their own threads and finish
    /// independently of connection handling.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || {
                let mut stream = stream;
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                if let Err(e) = handle_connection(&state, addr, &mut stream) {
                    // Client went away mid-response or sent garbage;
                    // nothing to do but note it.
                    let _ = e;
                }
            });
        }
        Ok(())
    }
}

fn handle_connection(
    state: &Arc<ServerState>,
    addr: SocketAddr,
    stream: &mut TcpStream,
) -> io::Result<()> {
    let request = match read_request(stream) {
        Ok(r) => r,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return respond_json(stream, 400, &error_json(&e.to_string()));
        }
        Err(e) => return Err(e),
    };
    state.requests.fetch_add(1, Ordering::Relaxed);

    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) => respond_json(stream, 200, &index_json().render()),
        ("GET", ["api", "health"]) => respond_json(
            stream,
            200,
            &Json::object(vec![("ok", Json::from(true))]).render(),
        ),
        ("GET", ["healthz"]) => healthz(state, stream),
        ("GET", ["api", "leaks"]) => serve_leaks(stream, &request),
        ("GET", ["api", "sweeps"]) => {
            let list = state
                .submissions()
                .iter()
                .map(Submission::to_json)
                .collect();
            respond_json(
                stream,
                200,
                &Json::object(vec![("submissions", Json::Array(list))]).render(),
            )
        }
        ("POST", ["api", "sweeps"]) => submit_sweep(state, stream, &request),
        ("POST", ["api", "work", "claim"]) => work_claim(state, stream, &request),
        ("POST", ["api", "work", "result"]) => work_result(state, stream, &request),
        ("POST", ["api", "work", "heartbeat"]) => work_heartbeat(state, stream, &request),
        ("GET", ["api", "sweeps", id]) => match parse_id(id).and_then(|id| state.submission(id)) {
            Some(s) => respond_json(stream, 200, &s.to_json().render()),
            None => respond_json(stream, 404, &error_json("no such submission")),
        },
        ("GET", ["api", "sweeps", id, "stream"]) => match parse_id(id) {
            Some(id) if state.submission(id).is_some() => stream_progress(state, stream, id),
            _ => respond_json(stream, 404, &error_json("no such submission")),
        },
        ("GET", ["api", "sweeps", id, "report"]) => {
            match parse_id(id).and_then(|id| state.submission(id)) {
                Some(s) => match &s.report {
                    Some(report) => respond_text(stream, 200, report),
                    None => respond_json(
                        stream,
                        409,
                        &error_json(&format!("submission is {}", s.status.key())),
                    ),
                },
                None => respond_json(stream, 404, &error_json("no such submission")),
            }
        }
        ("GET", ["api", "report", sweep_id]) => {
            match load_sweep_report_with_store(&state.runs_root, sweep_id, state.store()) {
                Ok(report) => respond_text(stream, 200, &report.sweep.render(&report.results)),
                Err(e) => respond_json(stream, 404, &error_json(&e)),
            }
        }
        ("POST", ["api", "jobs"]) => run_job(state, stream, &request),
        ("GET", ["api", "trace"]) => serve_trace(stream, &request),
        ("GET", ["api", "timeseries"]) => serve_timeseries(stream, &request),
        ("GET", ["api", "store", "stats"]) => store_stats(state, stream),
        ("GET", ["api", "metrics"]) => metrics(state, stream),
        ("POST", ["api", "shutdown"]) => {
            respond_json(
                stream,
                200,
                &Json::object(vec![("shutting_down", Json::from(true))]).render(),
            )?;
            state.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            Ok(())
        }
        _ => respond_json(stream, 404, &error_json("no such endpoint")),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse().ok()
}

fn error_json(message: &str) -> String {
    Json::object(vec![("error", Json::from(message))]).render()
}

/// The 409 every store-backed endpoint answers on a `--no-store` daemon.
fn store_disabled(stream: &mut TcpStream) -> io::Result<()> {
    respond_json(
        stream,
        409,
        &error_json("the store is disabled (--no-store)"),
    )
}

fn index_json() -> Json {
    let endpoints = [
        "GET /healthz",
        "GET /api/health",
        "GET /api/leaks",
        "GET /api/sweeps",
        "POST /api/sweeps",
        "POST /api/work/claim",
        "POST /api/work/result",
        "POST /api/work/heartbeat",
        "GET /api/sweeps/<id>",
        "GET /api/sweeps/<id>/stream",
        "GET /api/sweeps/<id>/report",
        "GET /api/report/<sweep-id>",
        "POST /api/jobs",
        "GET /api/trace",
        "GET /api/timeseries",
        "GET /api/store/stats",
        "GET /api/metrics",
        "POST /api/shutdown",
    ];
    Json::object(vec![
        ("service", Json::from("condspec-serve")),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        (
            "endpoints",
            Json::Array(endpoints.iter().map(|e| Json::from(*e)).collect()),
        ),
        (
            "sweeps",
            Json::Array(Sweep::NAMES.iter().map(|n| Json::from(*n)).collect()),
        ),
    ])
}

fn submit_sweep(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let Ok(body) = Json::parse(&request.body) else {
        return respond_json(stream, 400, &error_json("body is not JSON"));
    };
    let Some(name) = body.get("sweep").and_then(Json::as_str) else {
        return respond_json(stream, 400, &error_json("missing \"sweep\""));
    };
    let Some(sweep) = Sweep::by_name(name) else {
        return respond_json(
            stream,
            400,
            &error_json(&format!(
                "unknown sweep `{name}` — available: {}",
                Sweep::NAMES.join(", ")
            )),
        );
    };
    let iterations = body.get("iters").and_then(Json::as_u64);
    let warmup = body.get("warmup").and_then(Json::as_u64);
    if body.get("distributed").and_then(Json::as_bool) == Some(true) {
        // Remote workers' leases live in the store.
        if state.store().is_none() {
            return store_disabled(stream);
        }
        let claim_timeout = body
            .get("claim_timeout_ms")
            .and_then(Json::as_u64)
            .map(Duration::from_millis);
        return match state.submit_distributed(sweep, iterations, warmup, claim_timeout) {
            Ok((id, sweep_id)) => respond_json(
                stream,
                202,
                &Json::object(vec![
                    ("submission", Json::from(id)),
                    ("sweep_id", Json::from(sweep_id.as_str())),
                    ("distributed", Json::from(true)),
                ])
                .render(),
            ),
            Err(e) => respond_json(stream, 500, &error_json(&e.to_string())),
        };
    }
    let mode = match body.get("mode").and_then(Json::as_str) {
        None => SubmitMode::Detailed,
        Some(key) => match SubmitMode::from_key(key) {
            Some(mode) => mode,
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json(&format!(
                        "unknown mode `{key}` — available: detailed, sampled"
                    )),
                )
            }
        },
    };
    let (id, sweep_id) = state.submit(sweep, iterations, warmup, mode);
    respond_json(
        stream,
        202,
        &Json::object(vec![
            ("submission", Json::from(id)),
            ("sweep_id", Json::from(sweep_id.as_str())),
        ])
        .render(),
    )
}

/// `POST /api/work/claim` — a worker leases one pending job of the
/// distributed submissions. The response is either a job descriptor
/// (`submission`, `index`, `sweep`, `key`, ...) or `{"idle": true}`.
fn work_claim(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let Ok(body) = Json::parse(&request.body) else {
        return respond_json(stream, 400, &error_json("body is not JSON"));
    };
    let Some(owner) = body.get("owner").and_then(Json::as_str) else {
        return respond_json(stream, 400, &error_json("missing \"owner\""));
    };
    let doc = state.claim_work(owner);
    respond_json(stream, 200, &format!("{}\n", doc.render()))
}

/// `POST /api/work/result` — a worker reports the outcome of a claimed
/// job: `artifact` (the simulated result document) on success, `error`
/// (a message) on failure. First report wins; a late duplicate gets
/// `{"ok": true, "duplicate": true}` and changes nothing.
fn work_result(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let Ok(body) = Json::parse(&request.body) else {
        return respond_json(stream, 400, &error_json("body is not JSON"));
    };
    let Some(owner) = body.get("owner").and_then(Json::as_str) else {
        return respond_json(stream, 400, &error_json("missing \"owner\""));
    };
    let Some(submission) = body.get("submission").and_then(Json::as_u64) else {
        return respond_json(stream, 400, &error_json("missing \"submission\""));
    };
    let Some(index) = body.get("index").and_then(Json::as_u64) else {
        return respond_json(stream, 400, &error_json("missing \"index\""));
    };
    let outcome = match body.get("artifact") {
        Some(artifact) => Ok(artifact.clone()),
        None => match body.get("error").and_then(Json::as_str) {
            Some(message) => Err(message.to_string()),
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json("missing \"artifact\" or \"error\""),
                )
            }
        },
    };
    match state.work_result(owner, submission, index as usize, outcome) {
        Ok(doc) => respond_json(stream, 200, &format!("{}\n", doc.render())),
        Err(e) => respond_json(stream, 404, &error_json(&e)),
    }
}

/// `POST /api/work/heartbeat` — renews a worker's liveness (and, when
/// `submission`/`index` name a job it holds, that job's lease).
fn work_heartbeat(
    state: &Arc<ServerState>,
    stream: &mut TcpStream,
    request: &Request,
) -> io::Result<()> {
    let Ok(body) = Json::parse(&request.body) else {
        return respond_json(stream, 400, &error_json("body is not JSON"));
    };
    let Some(owner) = body.get("owner").and_then(Json::as_str) else {
        return respond_json(stream, 400, &error_json("missing \"owner\""));
    };
    let submission = body.get("submission").and_then(Json::as_u64);
    let index = body.get("index").and_then(Json::as_u64).map(|i| i as usize);
    let doc = state.work_heartbeat(owner, submission, index);
    respond_json(stream, 200, &format!("{}\n", doc.render()))
}

/// Streams progress snapshots as newline-delimited JSON until the
/// submission finishes. Each chunk is one complete line, so clients can
/// parse incrementally.
fn stream_progress(state: &Arc<ServerState>, stream: &mut TcpStream, id: u64) -> io::Result<()> {
    let mut chunked = ChunkedResponse::begin(stream, 200, "application/x-ndjson")?;
    let mut last = String::new();
    while let Some(s) = state.submission(id) {
        let line = s.to_json().render();
        if line != last {
            chunked.chunk(&format!("{line}\n"))?;
            last = line;
        }
        if matches!(s.status, SubmissionStatus::Done | SubmissionStatus::Error) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    chunked.finish()
}

/// Builds a [`JobSpec`] from a `POST /api/jobs` body.
fn parse_job(body: &Json) -> Result<JobSpec, String> {
    let defense = match body.get("defense").and_then(Json::as_str) {
        Some(key) => {
            DefenseConfig::from_key(key).ok_or_else(|| format!("unknown defense `{key}`"))?
        }
        None => return Err("missing \"defense\"".to_string()),
    };
    let kind = body
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing \"kind\" (bench | attack | variant)")?;
    match kind {
        "bench" => {
            let benchmark = body
                .get("benchmark")
                .and_then(Json::as_str)
                .ok_or("missing \"benchmark\"")?;
            let spec = condspec_workloads::spec::by_name(benchmark)
                .ok_or_else(|| format!("unknown benchmark `{benchmark}`"))?;
            let mut job = JobSpec::bench(spec.name, defense);
            if let Workload::Bench {
                iterations, warmup, ..
            } = &mut job.workload
            {
                if let Some(i) = body.get("iters").and_then(Json::as_u64) {
                    *iterations = i;
                }
                if let Some(w) = body.get("warmup").and_then(Json::as_u64) {
                    *warmup = w;
                }
            }
            if let Some(key) = body.get("machine").and_then(Json::as_str) {
                job.machine = MachinePreset::from_key(key)
                    .ok_or_else(|| format!("unknown machine `{key}`"))?;
            }
            Ok(job)
        }
        "attack" => {
            let key = body
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("missing \"scenario\"")?;
            let scenario =
                AttackScenario::from_key(key).ok_or_else(|| format!("unknown scenario `{key}`"))?;
            Ok(JobSpec::attack(scenario, defense))
        }
        "variant" => {
            let key = body
                .get("variant")
                .and_then(Json::as_str)
                .ok_or("missing \"variant\"")?;
            let kind =
                GadgetKind::from_key(key).ok_or_else(|| format!("unknown variant `{key}`"))?;
            Ok(JobSpec::variant(kind, defense))
        }
        other => Err(format!("unknown kind `{other}`")),
    }
}

/// Runs one job synchronously through the scheduler (store-consulted,
/// panic-isolated) and returns its artifact with provenance.
fn run_job(state: &Arc<ServerState>, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let Ok(body) = Json::parse(&request.body) else {
        return respond_json(stream, 400, &error_json("body is not JSON"));
    };
    let job = match parse_job(&body) {
        Ok(j) => j,
        Err(e) => return respond_json(stream, 400, &error_json(&e)),
    };
    let programs = Arc::new(ProgramCache::new());
    let mut results = condspec_engine::run_jobs_stored(
        std::slice::from_ref(&job),
        1,
        &programs,
        state.store(),
        |_, _, _, _| {},
    );
    let (outcome, _, source) = results.remove(0);
    match outcome {
        Ok(artifact) => respond_json(
            stream,
            200,
            &Json::object(vec![
                ("job", Json::from(job.hash_hex())),
                ("label", Json::from(job.label())),
                ("source", Json::from(source.key())),
                ("artifact", artifact),
            ])
            .render(),
        ),
        Err(message) => respond_json(stream, 500, &error_json(&message)),
    }
}

/// `GET /healthz` — operational health beyond the bare liveness probe:
/// build version, seconds of uptime, the store root (or null when the
/// store is disabled), how many submissions are queued or running, and
/// the distributed-work picture: connected workers (with per-worker
/// last-heartbeat age and completion count) and the store's leases in
/// flight (remote workers' and store-root pools' alike).
fn healthz(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    let workers = state.workers_snapshot();
    let worker_rows: Vec<Json> = workers
        .iter()
        .map(|w| {
            Json::object(vec![
                ("owner", Json::from(w.owner.as_str())),
                ("completed", Json::from(w.completed)),
                (
                    "last_heartbeat_secs",
                    Json::from(w.last_seen.elapsed().as_secs()),
                ),
            ])
        })
        .collect();
    let leases = state
        .store()
        .and_then(|store| store.leases().ok())
        .map_or(0, |leases| leases.len());
    let doc = Json::object(vec![
        ("ok", Json::from(true)),
        ("version", Json::from(env!("CARGO_PKG_VERSION"))),
        ("uptime_secs", Json::from(state.started.elapsed().as_secs())),
        (
            "store_root",
            match state.store_root.as_deref() {
                Some(root) => Json::from(root.display().to_string()),
                None => Json::Null,
            },
        ),
        ("jobs_in_flight", Json::from(state.in_flight() as u64)),
        ("workers_connected", Json::from(workers.len() as u64)),
        ("workers", Json::Array(worker_rows)),
        ("leases_in_flight", Json::from(leases as u64)),
    ]);
    respond_json(stream, 200, &format!("{}\n", doc.render()))
}

/// `GET /api/leaks` — the taint-oracle leak matrix over the Table IV
/// gadget corpus and all four defenses, one probe per cell
/// (`?variant=`/`?defense=` restrict either axis). The claim verdict
/// quantifies over defenses, so it is present only when every defense
/// column ran.
fn serve_leaks(stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let corpus: Vec<GadgetKind> = match request.query("variant") {
        Some(key) => match GadgetKind::from_key(key) {
            Some(kind) => vec![kind],
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json(&format!("unknown variant `{key}`")),
                )
            }
        },
        None => vec![
            GadgetKind::V1,
            GadgetKind::V2,
            GadgetKind::V4,
            GadgetKind::Rsb,
        ],
    };
    let defenses: Vec<DefenseConfig> = match request.query("defense") {
        Some(key) => match DefenseConfig::from_key(key) {
            Some(d) => vec![d],
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json(&format!("unknown defense `{key}`")),
                )
            }
        },
        None => DefenseConfig::ALL.to_vec(),
    };
    let claim_checkable = defenses.len() == DefenseConfig::ALL.len();

    let mut cells = Vec::new();
    let mut violated = false;
    for kind in &corpus {
        for defense in &defenses {
            let outcome = leak_probe(*kind, *defense);
            violated |= (*defense == DefenseConfig::Origin) != outcome.cache_leaked();
            cells.push(Json::object(vec![
                ("variant", Json::from(kind.key())),
                ("defense", Json::from(defense.key())),
                ("cache_leaked", Json::from(outcome.cache_leaked())),
                ("leaks", leak_report_to_json(&outcome.leaks)),
                ("leak_events", Json::from(outcome.events.len() as u64)),
            ]));
        }
    }
    let mut fields = vec![("cells", Json::Array(cells))];
    if claim_checkable {
        fields.push((
            "claim",
            Json::from(if violated { "VIOLATED" } else { "REPRODUCED" }),
        ));
    }
    respond_json(stream, 200, &format!("{}\n", Json::object(fields).render()))
}

/// The numeric query parameter `name`: `Ok(None)` when absent, an error
/// naming it when its value does not parse.
fn query_number<T: std::str::FromStr>(request: &Request, name: &str) -> Result<Option<T>, String> {
    request
        .query(name)
        .map(|v| v.parse().map_err(|_| format!("bad {name} `{v}`")))
        .transpose()
}

/// `/api/timeseries`'s numeric parameters: the `iters` and `warmup`
/// overrides, `window` (cycles) and `rows`, checked as the CLI checks
/// them.
fn timeseries_numbers(request: &Request) -> Result<(Option<u64>, Option<u64>, u64, usize), String> {
    let iters = query_number(request, "iters")?;
    let warmup = query_number(request, "warmup")?;
    let window = query_number(request, "window")?.unwrap_or(10_000);
    if window == 0 {
        return Err("window must be at least 1 cycle".to_string());
    }
    let rows = query_number(request, "rows")?.unwrap_or(512);
    if rows == 0 {
        return Err("rows must be at least 1".to_string());
    }
    Ok((iters, warmup, window, rows))
}

/// Perfetto (Chrome JSON) trace of one traced attack round.
fn serve_trace(stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let key = request.query("variant").unwrap_or("v1");
    let Some(kind) = GadgetKind::from_key(key) else {
        return respond_json(
            stream,
            400,
            &error_json(&format!("unknown variant `{key}`")),
        );
    };
    let defense = match request.query("defense") {
        Some(key) => match DefenseConfig::from_key(key) {
            Some(d) => d,
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json(&format!("unknown defense `{key}`")),
                )
            }
        },
        None => DefenseConfig::CacheHitTpbuf,
    };
    let events = match query_number(request, "events") {
        Ok(events) => events.unwrap_or(4096usize),
        Err(e) => return respond_json(stream, 400, &error_json(&e)),
    };
    let trace = traced_variant_round(kind, defense, events);
    let doc = condspec_pipeline::perfetto::to_chrome_trace(&trace);
    respond_json(stream, 200, &format!("{}\n", doc.render()))
}

/// Windowed time-series of one benchmark run, as JSON.
fn serve_timeseries(stream: &mut TcpStream, request: &Request) -> io::Result<()> {
    let Some(benchmark) = request.query("benchmark") else {
        return respond_json(stream, 400, &error_json("missing ?benchmark="));
    };
    let Some(spec) = condspec_workloads::spec::by_name(benchmark) else {
        return respond_json(
            stream,
            400,
            &error_json(&format!("unknown benchmark `{benchmark}`")),
        );
    };
    let defense = match request.query("defense") {
        Some(key) => match DefenseConfig::from_key(key) {
            Some(d) => d,
            None => {
                return respond_json(
                    stream,
                    400,
                    &error_json(&format!("unknown defense `{key}`")),
                )
            }
        },
        None => DefenseConfig::CacheHitTpbuf,
    };
    let (iters, warmup, window, rows) = match timeseries_numbers(request) {
        Ok(numbers) => numbers,
        Err(e) => return respond_json(stream, 400, &error_json(&e)),
    };
    let mut job = JobSpec::bench(spec.name, defense);
    if let Workload::Bench {
        iterations,
        warmup: warmup_iterations,
        ..
    } = &mut job.workload
    {
        *iterations = iters.unwrap_or(*iterations);
        *warmup_iterations = warmup.unwrap_or(*warmup_iterations);
    }
    let doc = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job.execute_timeseries(window, rows)
    }));
    match doc {
        Ok(doc) => respond_json(stream, 200, &format!("{}\n", doc.render())),
        Err(_) => respond_json(stream, 500, &error_json("time-series run panicked")),
    }
}

/// Store stats and counters, rendered through the metrics registry.
fn store_stats(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    let Some(store) = state.store() else {
        return store_disabled(stream);
    };
    let stats = match store.stats() {
        Ok(s) => s,
        Err(e) => return respond_json(stream, 500, &error_json(&e.to_string())),
    };
    let mut registry = MetricsRegistry::new();
    stats.fill_metrics(&mut registry);
    registry.set_counter("store.hits", state.store_hits_total.load(Ordering::Relaxed));
    registry.set_counter(
        "store.inserts",
        state.store_inserts_total.load(Ordering::Relaxed),
    );
    let doc = Json::object(vec![
        ("root", Json::from(store.root().display().to_string())),
        ("summary", Json::from(stats.summary(store.root()))),
        ("metrics", registry.to_json()),
    ]);
    respond_json(stream, 200, &format!("{}\n", doc.render()))
}

/// The daemon's metrics registry: request/submission counters plus the
/// store's on-disk footprint and daemon-lifetime hit/insert totals.
fn metrics(state: &Arc<ServerState>, stream: &mut TcpStream) -> io::Result<()> {
    let mut registry = MetricsRegistry::new();
    registry.set_counter("serve.requests", state.requests.load(Ordering::Relaxed));
    registry.set_counter("serve.submissions", state.submissions().len() as u64);
    registry.set_counter("store.hits", state.store_hits_total.load(Ordering::Relaxed));
    registry.set_counter(
        "store.inserts",
        state.store_inserts_total.load(Ordering::Relaxed),
    );
    if let Some(store) = state.store() {
        if let Ok(stats) = store.stats() {
            stats.fill_metrics(&mut registry);
        }
    }
    respond_json(stream, 200, &format!("{}\n", registry.to_json().render()))
}
