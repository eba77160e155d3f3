//! End-to-end daemon tests over real sockets: submit a scaled sweep
//! twice, watch the second submission come entirely from the persistent
//! store, stream progress, fetch reports and traces, drain distributed
//! submissions with pull workers beside a store-root pool, and shut
//! down cleanly.

use condspec_serve::{ServeConfig, Server};
use condspec_stats::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("condspec-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One HTTP exchange: returns `(status, body)`. Chunked bodies are
/// de-framed; the connection closes after every response.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let payload = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    (status, payload)
}

/// Reassembles a chunked body.
fn dechunk(mut payload: &str) -> String {
    let mut out = String::new();
    while let Some((size_line, rest)) = payload.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        if size == 0 {
            break;
        }
        out.push_str(&rest[..size]);
        payload = &rest[size + 2..]; // skip chunk body + CRLF
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

/// Polls a submission until it leaves the queued/running states.
fn await_submission(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = get(addr, &format!("/api/sweeps/{id}"));
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).expect("submission JSON");
        match doc.get("status").and_then(Json::as_str) {
            Some("done") | Some("error") => return doc,
            _ => {}
        }
        assert!(Instant::now() < deadline, "submission {id} timed out");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One pull-model worker: claims jobs over the work API, simulates them
/// in-process, reports results, and exits once the daemon is idle with
/// no active distributed runs. Returns the number of jobs it completed.
fn drive_worker(addr: SocketAddr, owner: &str) -> u64 {
    drain_jobs(addr, owner).len() as u64
}

/// [`drive_worker`], returning the `(submission, index)` of every job
/// the daemon handed out, in order.
fn drain_jobs(addr: SocketAddr, owner: &str) -> Vec<(u64, u64)> {
    let programs = std::sync::Arc::new(condspec_engine::ProgramCache::new());
    let mut completed = Vec::new();
    loop {
        let (status, body) = post(
            addr,
            "/api/work/claim",
            &format!("{{\"owner\":\"{owner}\"}}"),
        );
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).expect("claim JSON");
        if doc.get("idle").and_then(Json::as_bool) == Some(true) {
            if doc.get("active").and_then(Json::as_u64) == Some(0) {
                return completed;
            }
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        let submission = doc
            .get("submission")
            .and_then(Json::as_u64)
            .expect("submission id");
        let index = doc.get("index").and_then(Json::as_u64).expect("index");
        let sweep_name = doc.get("sweep").and_then(Json::as_str).expect("sweep name");
        let key = doc.get("key").and_then(Json::as_str).expect("store key");
        assert!(
            doc.get("claim_timeout_ms").and_then(Json::as_u64).is_some(),
            "descriptor names its requeue window: {doc:?}"
        );
        // Reconstruct the job exactly as `condspec worker --attach` does:
        // from the sweep name + index, validated against the store key.
        let sweep = condspec_engine::Sweep::by_name(sweep_name)
            .expect("known sweep")
            .scaled(
                doc.get("iters").and_then(Json::as_u64),
                doc.get("warmup").and_then(Json::as_u64),
            );
        let job = sweep.jobs[index as usize].clone();
        assert_eq!(
            job.store_key(),
            key,
            "descriptor key matches reconstruction"
        );
        let mut results = condspec_engine::run_jobs_stored(
            std::slice::from_ref(&job),
            1,
            &programs,
            None,
            |_, _, _, _| {},
        );
        let (outcome, _, _) = results.pop().expect("one result");
        let mut fields = vec![
            ("owner", Json::from(owner)),
            ("submission", Json::from(submission)),
            ("index", Json::from(index)),
        ];
        match outcome {
            Ok(artifact) => fields.push(("artifact", artifact)),
            Err(message) => fields.push(("error", Json::from(message.as_str()))),
        }
        let (status, ack) = post(addr, "/api/work/result", &Json::object(fields).render());
        assert_eq!(status, 200, "{ack}");
        let ack = Json::parse(&ack).expect("ack JSON");
        assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
        completed.push((submission, index));
    }
}

#[test]
fn store_root_pools_and_pull_workers_share_one_lease_protocol() {
    let runs_root = scratch("mixed-runs");
    let store_root = scratch("mixed-store");
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        runs_root: runs_root.clone(),
        store_root: Some(store_root.clone()),
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let state = server.state();
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    let (status, body) = post(
        addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"iters\":2,\"warmup\":1,\"distributed\":true}",
    );
    assert_eq!(status, 202, "{body}");
    let id = Json::parse(&body)
        .expect("receipt")
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");

    // A pool on the same store root — as `condspec worker --store-root`
    // would — leases one job through its own store handle.
    let sweep = condspec_engine::Sweep::by_name("icache")
        .expect("icache")
        .scaled(Some(2), Some(1));
    let total = sweep.jobs.len() as u64;
    let leased = 1u64;
    let job = sweep.jobs[leased as usize].clone();
    let pool = condspec_engine::ResultStore::open(&store_root);
    assert_eq!(
        pool.try_claim(&job.store_key(), "pool", Duration::from_secs(600))
            .expect("pool lease"),
        condspec_store::ClaimStatus::Acquired
    );

    // Meanwhile a pull worker drains the rest over HTTP. Once only the
    // leased job is left, the pool files its result.
    let handed = std::thread::scope(|scope| {
        let worker = scope.spawn(|| drain_jobs(addr, "w"));
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let (_, body) = get(addr, &format!("/api/sweeps/{id}"));
            let doc = Json::parse(&body).expect("submission JSON");
            if doc.get("done").and_then(Json::as_u64) == Some(total - 1) {
                break;
            }
            assert!(Instant::now() < deadline, "the pull worker stalled");
            std::thread::sleep(Duration::from_millis(25));
        }
        pool.insert_claimed(
            &job.store_key(),
            &job.hash_hex(),
            &job.label(),
            condspec_engine::hash::code_fingerprint(),
            &job.execute(),
            "pool",
        )
        .expect("pool insert");
        worker.join().expect("pull worker")
    });
    assert!(
        handed.iter().all(|&(_, index)| index != leased),
        "the pull worker was handed the pool's leased job: {handed:?}"
    );

    // The daemon picked the pool's result up from the store.
    let done = await_submission(addr, id);
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    let count = |field: &str| done.get(field).and_then(Json::as_u64).expect(field);
    assert_eq!(count("done"), total);
    assert_eq!(
        count("done"),
        count("simulated") + count("store_hits") + count("failed")
    );
    assert_eq!(count("failed"), 0);
    let run_dir = std::fs::read_dir(&runs_root)
        .expect("runs root")
        .map(|e| e.expect("entry").path())
        .find(|p| p.is_dir())
        .expect("run dir");
    let manifest =
        Json::parse(&std::fs::read_to_string(run_dir.join("manifest.json")).expect("manifest"))
            .expect("manifest JSON");
    let row = manifest
        .get("jobs")
        .and_then(Json::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.get("hash").and_then(Json::as_str) == Some(job.hash_hex().as_str()))
        })
        .expect("the leased job's manifest row");
    assert_eq!(row.get("owner").and_then(Json::as_str), Some("pool"));

    // One lease protocol: every job was inserted exactly once across the
    // daemon's handle and the pool's.
    let daemon_store = state.store().expect("the daemon has a store");
    assert_eq!(daemon_store.inserts() + pool.inserts(), total);
    assert_eq!(daemon_store.duplicate_inserts(), 0);
    assert_eq!(pool.duplicate_inserts(), 0);
    assert_eq!(daemon_store.leases().expect("leases"), vec![]);

    let (status, body) = post(addr, "/api/shutdown", "");
    assert_eq!(status, 200, "{body}");
    daemon.join().expect("daemon thread exits cleanly");

    // Without a store there is nowhere to keep leases: a `--no-store`
    // daemon refuses distributed submissions.
    let bare = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        runs_root: runs_root.clone(),
        store_root: None,
    })
    .expect("bind");
    let bare_addr = bare.local_addr().expect("addr");
    let bare_daemon = std::thread::spawn(move || bare.run().expect("serve"));
    let (status, body) = post(
        bare_addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"distributed\":true}",
    );
    assert_eq!(status, 409, "{body}");
    post(bare_addr, "/api/shutdown", "");
    bare_daemon.join().expect("daemon thread exits cleanly");

    std::fs::remove_dir_all(&runs_root).ok();
    std::fs::remove_dir_all(&store_root).ok();
}

#[test]
fn distributed_submission_is_drained_by_pull_workers() {
    let runs_root = scratch("dist-runs");
    let store_root = scratch("dist-store");
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        runs_root: runs_root.clone(),
        store_root: Some(store_root.clone()),
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    // With no distributed runs registered, a claim reports idle.
    let (status, body) = post(addr, "/api/work/claim", "{\"owner\":\"scout\"}");
    assert_eq!(status, 200, "{body}");
    let doc = Json::parse(&body).expect("claim JSON");
    assert_eq!(doc.get("idle").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("active").and_then(Json::as_u64), Some(0));
    let (status, _) = post(addr, "/api/work/claim", "{}");
    assert_eq!(status, 400, "owner is required");

    // A distributed submission queues every job for remote workers.
    let (status, body) = post(
        addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"iters\":2,\"warmup\":1,\"distributed\":true}",
    );
    assert_eq!(status, 202, "{body}");
    let receipt = Json::parse(&body).expect("receipt");
    let id = receipt
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");
    assert_eq!(
        receipt.get("distributed").and_then(Json::as_bool),
        Some(true)
    );

    // Two in-process workers race the pull API until the queue drains.
    let (c1, c2) = std::thread::scope(|scope| {
        let w1 = scope.spawn(move || drive_worker(addr, "w1"));
        let w2 = scope.spawn(move || drive_worker(addr, "w2"));
        (w1.join().expect("w1"), w2.join().expect("w2"))
    });

    let done = await_submission(addr, id);
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    let total = done.get("total").and_then(Json::as_u64).expect("total");
    assert_eq!(c1 + c2, total, "every job reported exactly once");
    assert_eq!(done.get("simulated").and_then(Json::as_u64), Some(total));
    assert_eq!(done.get("store_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
    // All simulation was remote, and the per-worker split is reported.
    assert_eq!(done.get("remote").and_then(Json::as_u64), Some(total));
    let workers = done
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers array");
    let credited: u64 = workers
        .iter()
        .map(|w| w.get("simulated").and_then(Json::as_u64).expect("count"))
        .sum();
    assert_eq!(credited, total);
    for w in workers {
        let owner = w.get("owner").and_then(Json::as_str).expect("owner");
        assert!(matches!(owner, "w1" | "w2"), "unexpected worker {owner}");
    }

    // The manifest carries per-shard provenance and the report renders.
    let (status, report) = get(addr, &format!("/api/sweeps/{id}/report"));
    assert_eq!(status, 200);
    assert!(report.contains("ICache-hit filter"), "{report}");
    let run_dir = std::fs::read_dir(&runs_root)
        .expect("runs root")
        .map(|e| e.expect("entry").path())
        .find(|p| p.is_dir())
        .expect("run dir");
    let manifest = std::fs::read_to_string(run_dir.join("manifest.json")).expect("manifest");
    let owned =
        manifest.matches("\"owner\":\"w1\"").count() + manifest.matches("\"owner\":\"w2\"").count();
    assert_eq!(owned as u64, total, "every row names its shard: {manifest}");

    // /healthz shows the fleet: connected workers with heartbeat ages,
    // and no claims in flight once the queue is drained.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health = Json::parse(&body).expect("healthz JSON");
    let connected = health
        .get("workers_connected")
        .and_then(Json::as_u64)
        .expect("workers_connected");
    assert!(connected >= 3, "scout + both workers seen: {body}");
    let fleet = health
        .get("workers")
        .and_then(Json::as_array)
        .expect("workers");
    assert!(fleet.iter().any(|w| {
        w.get("owner").and_then(Json::as_str) == Some("w1")
            && w.get("last_heartbeat_secs")
                .and_then(Json::as_u64)
                .is_some()
    }));
    assert_eq!(
        health.get("leases_in_flight").and_then(Json::as_u64),
        Some(0)
    );

    // Requeue-on-disconnect: a ghost worker claims a job from a fresh
    // (cold-key) submission with a 100ms window and vanishes; the claim
    // expires and the same job is re-issued to a live worker.
    let (status, body) = post(
        addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"iters\":3,\"warmup\":1,\"distributed\":true,\
         \"claim_timeout_ms\":100}",
    );
    assert_eq!(status, 202, "{body}");
    let second = Json::parse(&body)
        .expect("receipt")
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");
    let (status, body) = post(addr, "/api/work/claim", "{\"owner\":\"ghost\"}");
    assert_eq!(status, 200, "{body}");
    let ghost_claim = Json::parse(&body).expect("claim JSON");
    assert_eq!(
        ghost_claim.get("submission").and_then(Json::as_u64),
        Some(second)
    );
    let ghost_index = ghost_claim
        .get("index")
        .and_then(Json::as_u64)
        .expect("index");
    assert_eq!(
        ghost_claim.get("claim_timeout_ms").and_then(Json::as_u64),
        Some(100)
    );
    std::thread::sleep(Duration::from_millis(150));

    // A heartbeat from someone else does not renew the expired claim...
    let (_, body) = post(
        addr,
        "/api/work/heartbeat",
        &format!("{{\"owner\":\"rescuer\",\"submission\":{second},\"index\":{ghost_index}}}"),
    );
    let beat = Json::parse(&body).expect("heartbeat JSON");
    assert_eq!(beat.get("held").and_then(Json::as_bool), Some(false));

    // ...and the next claim re-issues the ghost's job.
    let (status, body) = post(addr, "/api/work/claim", "{\"owner\":\"rescuer\"}");
    assert_eq!(status, 200, "{body}");
    let reissued = Json::parse(&body).expect("claim JSON");
    assert_eq!(
        reissued.get("submission").and_then(Json::as_u64),
        Some(second)
    );
    assert_eq!(
        reissued.get("index").and_then(Json::as_u64),
        Some(ghost_index)
    );

    // Holding the claim, the rescuer's heartbeat renews it.
    let (_, body) = post(
        addr,
        "/api/work/heartbeat",
        &format!("{{\"owner\":\"rescuer\",\"submission\":{second},\"index\":{ghost_index}}}"),
    );
    let beat = Json::parse(&body).expect("heartbeat JSON");
    assert_eq!(beat.get("held").and_then(Json::as_bool), Some(true));

    // The rescuer simulates and reports the job; the ghost's late
    // report for the same index is acknowledged as a duplicate.
    let programs = std::sync::Arc::new(condspec_engine::ProgramCache::new());
    let sweep = condspec_engine::Sweep::by_name("icache")
        .expect("icache")
        .scaled(Some(3), Some(1));
    let job = sweep.jobs[ghost_index as usize].clone();
    let mut results = condspec_engine::run_jobs_stored(
        std::slice::from_ref(&job),
        1,
        &programs,
        None,
        |_, _, _, _| {},
    );
    let artifact = results.pop().expect("result").0.expect("job ok");
    let (status, body) = post(
        addr,
        "/api/work/result",
        &Json::object(vec![
            ("owner", Json::from("rescuer")),
            ("submission", Json::from(second)),
            ("index", Json::from(ghost_index)),
            ("artifact", artifact),
        ])
        .render(),
    );
    assert_eq!(status, 200, "{body}");
    let ack = Json::parse(&body).expect("ack JSON");
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert!(ack.get("duplicate").is_none(), "first report wins: {body}");
    let (status, body) = post(
        addr,
        "/api/work/result",
        &format!(
            "{{\"owner\":\"ghost\",\"submission\":{second},\"index\":{ghost_index},\
             \"error\":\"stale claim\"}}"
        ),
    );
    assert_eq!(status, 200, "{body}");
    let ack = Json::parse(&body).expect("ack JSON");
    assert_eq!(ack.get("duplicate").and_then(Json::as_bool), Some(true));
    let (_, body) = get(addr, &format!("/api/sweeps/{second}"));
    let snapshot = Json::parse(&body).expect("submission JSON");
    assert_eq!(
        snapshot.get("failed").and_then(Json::as_u64),
        Some(0),
        "the duplicate error report changed nothing: {body}"
    );
    // Unknown submissions and out-of-range indices are client errors.
    let (status, _) = post(
        addr,
        "/api/work/result",
        "{\"owner\":\"x\",\"submission\":999,\"index\":0,\"error\":\"nope\"}",
    );
    assert_eq!(status, 404);

    let (status, body) = post(addr, "/api/shutdown", "");
    assert_eq!(status, 200, "{body}");
    daemon.join().expect("daemon thread exits cleanly");

    std::fs::remove_dir_all(&runs_root).ok();
    std::fs::remove_dir_all(&store_root).ok();
}

#[test]
fn daemon_round_trip_with_warm_store_second_submission() {
    let runs_root = scratch("runs");
    let store_root = scratch("store");
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        runs_root: runs_root.clone(),
        store_root: Some(store_root.clone()),
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    // Liveness + index.
    let (status, body) = get(addr, "/api/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\":true"), "{body}");
    let (status, body) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(body.contains("/api/sweeps"), "{body}");

    // Health endpoint: version, uptime, store root, jobs in flight.
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    let health = Json::parse(&body).expect("healthz JSON");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(health.get("uptime_secs").and_then(Json::as_u64).is_some());
    assert_eq!(
        health.get("store_root").and_then(Json::as_str),
        Some(store_root.display().to_string().as_str())
    );
    assert_eq!(health.get("jobs_in_flight").and_then(Json::as_u64), Some(0));

    // Leak matrix endpoint: one cell when both axes are pinned, claim
    // verdict only when every defense column runs.
    let (status, body) = get(addr, "/api/leaks?variant=v1&defense=origin");
    assert_eq!(status, 200, "{body}");
    let leaks = Json::parse(&body).expect("leaks JSON");
    let cells = leaks.get("cells").and_then(Json::as_array).expect("cells");
    assert_eq!(cells.len(), 1);
    assert_eq!(
        cells[0].get("cache_leaked").and_then(Json::as_bool),
        Some(true),
        "v1 leaks through the cache under origin"
    );
    assert!(leaks.get("claim").is_none(), "single column has no verdict");
    let (status, body) = get(addr, "/api/leaks?variant=rsb");
    assert_eq!(status, 200, "{body}");
    let leaks = Json::parse(&body).expect("leaks JSON");
    let cells = leaks.get("cells").and_then(Json::as_array).expect("cells");
    assert_eq!(cells.len(), 4, "one cell per defense");
    assert_eq!(
        leaks.get("claim").and_then(Json::as_str),
        Some("REPRODUCED")
    );
    let (status, _) = get(addr, "/api/leaks?variant=vax");
    assert_eq!(status, 400);

    // Bad submissions are rejected, not crashed on.
    let (status, _) = post(addr, "/api/sweeps", "not json");
    assert_eq!(status, 400);
    let (status, body) = post(addr, "/api/sweeps", "{\"sweep\":\"fig9\"}");
    assert_eq!(status, 400);
    assert!(body.contains("unknown sweep"), "{body}");
    let (status, _) = get(addr, "/api/sweeps/999");
    assert_eq!(status, 404);

    // First submission: a scaled-down icache sweep, cold store.
    let submit_body = "{\"sweep\":\"icache\",\"iters\":2,\"warmup\":1}";
    let (status, body) = post(addr, "/api/sweeps", submit_body);
    assert_eq!(status, 202, "{body}");
    let accepted = Json::parse(&body).expect("submission receipt");
    let first_id = accepted
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");
    let sweep_id = accepted
        .get("sweep_id")
        .and_then(Json::as_str)
        .expect("sweep id")
        .to_string();

    let first = await_submission(addr, first_id);
    assert_eq!(first.get("status").and_then(Json::as_str), Some("done"));
    let total = first.get("total").and_then(Json::as_u64).expect("total");
    assert!(total > 0);
    assert_eq!(first.get("simulated").and_then(Json::as_u64), Some(total));
    assert_eq!(first.get("store_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(first.get("failed").and_then(Json::as_u64), Some(0));

    // Second identical submission: 100% persistent-store hits.
    let (status, body) = post(addr, "/api/sweeps", submit_body);
    assert_eq!(status, 202, "{body}");
    let second_id = Json::parse(&body)
        .expect("receipt")
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");
    let second = await_submission(addr, second_id);
    assert_eq!(second.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(second.get("store_hits").and_then(Json::as_u64), Some(total));
    assert_eq!(second.get("simulated").and_then(Json::as_u64), Some(0));

    // Reports: both submissions render identical text, and the
    // by-sweep-id report endpoint agrees.
    let (status, first_report) = get(addr, &format!("/api/sweeps/{first_id}/report"));
    assert_eq!(status, 200);
    assert!(first_report.contains("ICache-hit filter"), "{first_report}");
    let (_, second_report) = get(addr, &format!("/api/sweeps/{second_id}/report"));
    assert_eq!(second_report, first_report, "store hits change no cell");
    let (status, by_id_report) = get(addr, &format!("/api/report/{sweep_id}"));
    assert_eq!(status, 200);
    assert_eq!(by_id_report, first_report);

    // The progress stream replays to completion as parseable NDJSON.
    let (status, stream_body) = get(addr, &format!("/api/sweeps/{first_id}/stream"));
    assert_eq!(status, 200);
    let lines: Vec<&str> = stream_body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "stream produced no snapshots");
    let last = Json::parse(lines.last().expect("line")).expect("snapshot JSON");
    assert_eq!(last.get("status").and_then(Json::as_str), Some("done"));

    // Store stats + metrics reflect the two submissions.
    let (status, body) = get(addr, "/api/store/stats");
    assert_eq!(status, 200, "{body}");
    let stats = Json::parse(&body).expect("stats JSON");
    let metrics = stats.get("metrics").expect("metrics object");
    assert_eq!(
        metrics.get("store.entries").and_then(Json::as_u64),
        Some(total),
        "one store entry per job"
    );
    assert_eq!(
        metrics.get("store.hits").and_then(Json::as_u64),
        Some(total)
    );
    assert_eq!(
        metrics.get("store.inserts").and_then(Json::as_u64),
        Some(total)
    );
    let (status, body) = get(addr, "/api/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("\"serve.requests\""), "{body}");
    assert!(body.contains("\"serve.submissions\":2"), "{body}");

    // Sampled-mode submission: same sweep, SimPoint-style windows.
    let (status, body) = post(
        addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"iters\":2,\"warmup\":1,\"mode\":\"vax\"}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown mode"), "{body}");
    let (status, body) = post(
        addr,
        "/api/sweeps",
        "{\"sweep\":\"icache\",\"iters\":2,\"warmup\":1,\"mode\":\"sampled\"}",
    );
    assert_eq!(status, 202, "{body}");
    let sampled_id = Json::parse(&body)
        .expect("receipt")
        .get("submission")
        .and_then(Json::as_u64)
        .expect("id");
    let sampled = await_submission(addr, sampled_id);
    assert_eq!(sampled.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(sampled.get("mode").and_then(Json::as_str), Some("sampled"));
    assert_eq!(sampled.get("failed").and_then(Json::as_u64), Some(0));
    let (status, sampled_report) = get(addr, &format!("/api/sweeps/{sampled_id}/report"));
    assert_eq!(status, 200);
    assert!(
        sampled_report.contains("ICache-hit filter"),
        "{sampled_report}"
    );

    // Both metric documents carry the same store scan, and neither
    // counts checkpoints: a sampled run keeps them in memory and files
    // only its window results.
    let (status, stats_body) = get(addr, "/api/store/stats");
    assert_eq!(status, 200, "{stats_body}");
    let stats = Json::parse(&stats_body).expect("stats JSON");
    let scan = stats.get("metrics").expect("metrics object");
    let (status, body) = get(addr, "/api/metrics");
    assert_eq!(status, 200, "{body}");
    let metrics = Json::parse(&body).expect("metrics JSON");
    for name in [
        "store.entries",
        "store.bytes",
        "store.leases",
        "store.stray_tmp",
    ] {
        assert!(scan.get(name).is_some(), "{name} missing: {stats_body}");
        assert_eq!(metrics.get(name), scan.get(name), "{name}: {body}");
    }
    assert!(scan.get("store.checkpoints").is_none());
    assert!(metrics.get("store.checkpoints").is_none());

    // Single-job submission: a store hit for a job the sweep already ran.
    let (status, body) = post(
        addr,
        "/api/jobs",
        "{\"kind\":\"bench\",\"benchmark\":\"gcc\",\"defense\":\"cache-hit-tpbuf\",\
         \"iters\":2,\"warmup\":1}",
    );
    assert_eq!(status, 200, "{body}");
    let job = Json::parse(&body).expect("job JSON");
    assert_eq!(job.get("source").and_then(Json::as_str), Some("store"));
    assert!(job.get("artifact").and_then(|a| a.get("report")).is_some());
    let (status, body) = post(
        addr,
        "/api/jobs",
        "{\"kind\":\"variant\",\"variant\":\"v1\",\"defense\":\"origin\"}",
    );
    assert_eq!(status, 200, "{body}");
    let job = Json::parse(&body).expect("job JSON");
    assert_eq!(
        job.get("artifact").and_then(|a| a.get("leaked")?.as_bool()),
        Some(true),
        "v1 leaks under origin"
    );

    // Trace and time-series endpoints.
    let (status, body) = get(
        addr,
        "/api/trace?variant=v1&defense=cache-hit-tpbuf&events=64",
    );
    assert_eq!(status, 200);
    assert!(body.contains("traceEvents"), "{body}");
    let (status, _) = get(addr, "/api/trace?variant=vax");
    assert_eq!(status, 400);
    let (status, body) = get(addr, "/api/trace?variant=v1&events=many");
    assert_eq!(status, 400);
    assert!(body.contains("bad events `many`"), "{body}");
    let (status, body) = get(
        addr,
        "/api/timeseries?benchmark=gcc&iters=2&warmup=1&window=2000&rows=16",
    );
    assert_eq!(status, 200);
    assert!(body.contains("timeseries"), "{body}");
    let (status, _) = get(addr, "/api/timeseries?benchmark=vax");
    assert_eq!(status, 400);
    // Numeric parameters are checked, not defaulted or passed on to a
    // sampler that cannot take them.
    for (query, error) in [
        ("window=0", "window must be at least 1 cycle"),
        ("rows=0", "rows must be at least 1"),
        ("window=abc", "bad window `abc`"),
        ("rows=-1", "bad rows `-1`"),
        ("iters=two", "bad iters `two`"),
        (
            "warmup=18446744073709551616",
            "bad warmup `18446744073709551616`",
        ),
    ] {
        let (status, body) = get(addr, &format!("/api/timeseries?benchmark=gcc&{query}"));
        assert_eq!(status, 400, "{query}: {body}");
        assert!(body.contains(error), "{query}: {body}");
    }

    // Graceful shutdown: the accept loop exits and the thread joins.
    let (status, body) = post(addr, "/api/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");
    daemon.join().expect("daemon thread exits cleanly");

    std::fs::remove_dir_all(&runs_root).ok();
    std::fs::remove_dir_all(&store_root).ok();
}

#[test]
fn a_deeply_nested_body_is_refused_and_the_daemon_lives_on() {
    let runs_root = scratch("nested-runs");
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        runs_root: runs_root.clone(),
        store_root: None,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve"));

    // The largest body the daemon reads, all `[`: the JSON parser must
    // refuse it rather than recurse once per level off the end of the
    // handler thread's stack, which would abort the whole process.
    let body = "[".repeat(condspec_serve::http::MAX_BODY);
    let (status, reply) = post(addr, "/api/sweeps", &body);
    assert!((400..500).contains(&status), "{status}: {reply}");
    let (status, reply) = get(addr, "/healthz");
    assert_eq!(status, 200, "{reply}");

    let (status, _) = post(addr, "/api/shutdown", "");
    assert_eq!(status, 200);
    daemon.join().expect("daemon thread exits cleanly");
    std::fs::remove_dir_all(&runs_root).ok();
}
