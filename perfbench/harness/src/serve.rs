//! `warm-serve`: one client in a closed loop against a `condspec-serve`
//! daemon whose result store was filled during set-up. Each submission
//! is `POST /api/sweeps` for the `leaks` sweep (16 jobs), the NDJSON
//! progress stream read to `done`, then `GET …/report`; one operation
//! is four submissions in a row. No job is simulated, so the daemon,
//! the engine's bookkeeping, store loads, artifact writes and JSON
//! dominate — the read side of the store that `fig5-cold` writes.
//!
//! Why only `leaks`: the progress stream polls every 25 ms, so a
//! submission takes a whole number of polls. `leaks` finishes well
//! inside the first poll, while the warm work of `fig5` (110 jobs) and
//! `table6` (264) lands near a poll boundary that moves with host load,
//! so their latencies jump by whole polls from run to run.
//!
//! Checks: every submission reports zero simulated jobs and all store
//! hits, and its report text equals the render of the set-up run.

use crate::common::{
    check_same_files, quantile, repeat_setup, timed_loop, Outcome, RunConfig, Tally, WORKERS,
};
use crate::replay::replay_sweep;
use crate::trace::Tracer;
use condspec_engine::{run_sweep, ResultStore, Sweep, SweepOptions};
use condspec_serve::{ServeConfig, Server};
use condspec_stats::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SWEEP: &str = "leaks";
const SUBMISSION: &str = "{\"sweep\":\"leaks\"}";
/// Submissions per timed operation.
const PER_OP: usize = 4;

static OPEN_CONNECTIONS: AtomicU64 = AtomicU64::new(0);
static MAX_CONNECTIONS: AtomicU64 = AtomicU64::new(0);

/// A daemon bound on an ephemeral port, serving from its own thread.
struct Daemon {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(runs: PathBuf, store: PathBuf) -> Result<Daemon, String> {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            runs_root: runs,
            store_root: Some(store),
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?
            .to_string();
        let thread = std::thread::spawn(move || server.run());
        let daemon = Daemon {
            addr,
            thread: Some(thread),
        };
        match request_lines(&daemon.addr, "GET", "/api/health", "", |_| {}) {
            Ok((200, _)) => Ok(daemon),
            other => Err(format!("daemon health check failed: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = request_lines(&self.addr, "POST", "/api/shutdown", "", |_| {});
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct Setup {
    daemon: Daemon,
    sweep: Sweep,
    /// The report text, rendered from the set-up run.
    render: String,
}

/// The harness's only HTTP client: a blocking request that hands each
/// complete line of a chunked body to `on_line` as it arrives (for the
/// first-line latency) and counts the connections open at once.
fn request_lines(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<(u16, String)> {
    let open = OPEN_CONNECTIONS.fetch_add(1, Ordering::SeqCst) + 1;
    MAX_CONNECTIONS.fetch_max(open, Ordering::SeqCst);
    let result = (|| {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut chunked = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
                break;
            }
            let lower = line.to_ascii_lowercase();
            chunked |= lower.starts_with("transfer-encoding:") && lower.contains("chunked");
        }
        let mut text = String::new();
        if chunked {
            let mut pending = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    break;
                }
                let size = usize::from_str_radix(line.trim(), 16).unwrap_or(0);
                if size == 0 {
                    break;
                }
                let mut chunk = vec![0u8; size + 2];
                reader.read_exact(&mut chunk)?;
                chunk.truncate(size);
                pending.push_str(&String::from_utf8_lossy(&chunk));
                while let Some(end) = pending.find('\n') {
                    let complete: String = pending.drain(..=end).collect();
                    on_line(complete.trim_end());
                    text.push_str(&complete);
                }
            }
            text.push_str(&pending);
        } else {
            reader.read_to_string(&mut text)?;
        }
        Ok((status, text))
    })();
    OPEN_CONNECTIONS.fetch_sub(1, Ordering::SeqCst);
    result
}

/// What one submission returned.
struct Reply {
    statuses: [u16; 3],
    final_line: Option<Json>,
    report: String,
}

/// One submission: `POST /api/sweeps`, the progress stream read to its
/// end, then the report. Untraced operations pass a disabled tracer, so
/// the timed and the traced path use the same client.
fn submit(tr: &Tracer, addr: &str) -> Reply {
    let (s1, accepted) = tr
        .span("serve.submit", || {
            request_lines(addr, "POST", "/api/sweeps", SUBMISSION, |_| {})
        })
        .unwrap_or((0, String::new()));
    let id = Json::parse(&accepted)
        .ok()
        .and_then(|d| d.get("submission").and_then(Json::as_u64))
        .unwrap_or(0);
    let started = Instant::now();
    let mut first_line = None;
    let mut lines = 0u64;
    let (s2, stream) = tr
        .span("serve.stream", || {
            request_lines(addr, "GET", &format!("/api/sweeps/{id}/stream"), "", |_| {
                first_line.get_or_insert_with(|| started.elapsed().as_secs_f64());
                lines += 1;
            })
        })
        .unwrap_or((0, String::new()));
    tr.count("serve.first_line_s", first_line.unwrap_or(0.0));
    tr.count("serve.stream_lines", lines as f64);
    let (s3, report) = tr
        .span("serve.report", || {
            request_lines(addr, "GET", &format!("/api/sweeps/{id}/report"), "", |_| {})
        })
        .unwrap_or((0, String::new()));
    let errors = [s1 != 202, s2 != 200, s3 != 200]
        .iter()
        .filter(|e| **e)
        .count();
    tr.count("serve.http_errors", errors as f64);
    Reply {
        statuses: [s1, s2, s3],
        final_line: stream.lines().last().and_then(|l| Json::parse(l).ok()),
        report,
    }
}

/// Checks one submission: HTTP statuses, a final progress line with
/// zero simulated jobs and all store hits, and the set-up render.
fn check_reply(tally: &mut Tally, setup: &Setup, reply: &Reply) {
    let name = SWEEP;
    let total = setup.sweep.jobs.len() as u64;
    tally.check(reply.statuses == [202, 200, 200], || {
        format!("{name}: HTTP statuses {:?}", reply.statuses)
    });
    let line = reply.final_line.as_ref();
    let field = |k: &str| line.and_then(|d| d.get(k)).and_then(Json::as_u64);
    let status = line.and_then(|d| d.get("status")).and_then(Json::as_str);
    tally.check(
        status == Some("done")
            && field("simulated") == Some(0)
            && field("store_hits") == Some(total)
            && field("failed") == Some(0),
        || {
            format!(
                "{name}: final progress line {:?} is not all store hits",
                line.map(Json::render)
            )
        },
    );
    tally.check(reply.report == setup.render, || {
        format!("{name}: served report differs from the set-up render")
    });
}

pub fn run(cfg: &RunConfig, tr: &Tracer) -> Result<Outcome, String> {
    let runs = cfg.work.join("runs");
    let replay_runs = cfg.work.join("runs-replay");
    let store_root = cfg.work.join("store");
    let mut prepare = || {
        let sweep = Sweep::by_name(SWEEP).ok_or("the engine has no leaks sweep")?;
        let opts = SweepOptions {
            workers: WORKERS,
            root: cfg.work.join("prefill"),
            store: Some(store_root.clone()),
            quiet: true,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&sweep, &opts).map_err(|e| format!("pre-filling: {e}"))?;
        if !outcome.failed.is_empty() {
            return Err(format!("pre-filling: {} jobs failed", outcome.failed.len()));
        }
        let render = sweep.render(&outcome.results);
        let daemon = Daemon::start(runs.clone(), store_root.clone())?;
        Ok(Setup {
            daemon,
            sweep,
            render,
        })
    };
    let (mut setups, setup) = repeat_setup(&cfg.work, &mut prepare)?;

    let addr = setup.daemon.addr.clone();
    let untraced = Tracer::new(false, String::new());
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let store = ResultStore::open(&store_root);
    let (ops, traced_ops, threads) = timed_loop(
        cfg,
        |_, traced| {
            let mut replies = Vec::new();
            for _ in 0..PER_OP {
                let started = Instant::now();
                let reply = if traced {
                    tr.span("op", || submit(tr, &addr))
                } else {
                    submit(&untraced, &addr)
                };
                if !traced {
                    latencies.push(started.elapsed().as_secs_f64() * 1e3);
                }
                replies.push(reply);
            }
            Ok(((PER_OP * setup.sweep.jobs.len()) as u64, replies))
        },
        |index, traced, replies| {
            for reply in replies {
                check_reply(&mut tally, &setup, &reply);
                if traced {
                    // The daemon's engine and store work, replayed
                    // in-process against the same warm store: its
                    // artifacts must equal the ones the daemon wrote.
                    let before = (store.hits(), store.misses(), store.corrupt());
                    let replayed = tr.span("replay", || {
                        replay_sweep(tr, &setup.sweep, &replay_runs, Some(&store))
                    })?;
                    tr.count("store.hits", (store.hits() - before.0) as f64);
                    tr.count("store.misses", (store.misses() - before.1) as f64);
                    tr.count("store.corrupt", (store.corrupt() - before.2) as f64);
                    let dir_name = replayed
                        .dir
                        .file_name()
                        .map(PathBuf::from)
                        .unwrap_or_default();
                    check_same_files(&mut tally, SWEEP, &runs.join(dir_name), &replayed.dir);
                    tally.check(replayed.rendered == setup.render, || {
                        "replayed render differs from the set-up render".to_string()
                    });
                    let _ = std::fs::remove_dir_all(&replay_runs);
                }
            }
            // Each operation writes into an empty run root: the previous
            // one's directory is moved aside, and all of them are deleted
            // after the timed phase. Re-writing files in place would make
            // every artifact a replace-by-rename, which ext4 answers by
            // starting write-back of the file, and deleting files between
            // operations stalls the next operation's file creation.
            let aside = cfg.work.join(format!("done-{index}-{}", u8::from(traced)));
            let _ = std::fs::rename(&runs, aside);
            Ok(())
        },
    )?;
    let clients = MAX_CONNECTIONS.load(Ordering::SeqCst);
    let layers = BTreeMap::from([
        ("serve.submit_p50_ms", quantile(&latencies, 0.5)),
        ("serve.submit_p90_ms", quantile(&latencies, 0.9)),
        ("serve.max_connections", clients as f64),
    ]);
    drop(setup);
    setups.extend(repeat_setup(&cfg.work, &mut prepare)?.0);
    let _ = std::fs::remove_dir_all(&cfg.work);
    Ok(Outcome {
        ops,
        traced_ops,
        setups,
        host_scaled: false,
        tally,
        layers,
        notes: BTreeMap::new(),
        threads,
        clients,
    })
}
