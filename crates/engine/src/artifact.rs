//! Result artifacts on disk: one JSON document per job plus a sweep
//! manifest, laid out for resumable runs.
//!
//! A sweep writes into `<root>/<sweep-id>/`:
//!
//! ```text
//! target/condspec-runs/fig5-1a2b3c4d5e6f7081/
//!   manifest.json          sweep name, id, and per-job status
//!   0123456789abcdef.json  one artifact per job, named by job hash
//! ```
//!
//! The sweep id is itself content-derived (sweep name + hash of all job
//! hashes), so editing a sweep's definition starts a fresh directory
//! instead of mixing artifacts from two generations. A job is
//! *complete* iff its artifact file exists and parses; failed jobs
//! write nothing and therefore re-run on `--resume`. Writes go through
//! a uniquely named temp file and rename, so a killed run never leaves
//! a truncated artifact that a resume would mistake for a result, and
//! two writers landing on the same artifact (e.g. concurrent daemon
//! submissions of one sweep) never scribble on each other's temp file.
//!
//! Artifact *contents* are strictly deterministic. The manifest's
//! per-job `status` is too, but its `source` field records where each
//! result came from this particular run (`simulated`, `store`,
//! `resumed`) — byte-identity comparisons between runs should cover the
//! job artifacts and rendered reports, not `manifest.json`.

use crate::job::JobSpec;
use crate::sweep::SweepResults;
use condspec_stats::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The default artifact root, relative to the working directory.
pub const DEFAULT_ROOT: &str = "target/condspec-runs";

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Atomically writes `doc` (plus a trailing newline) to `path`.
pub fn write_artifact(path: &Path, doc: &Json) -> io::Result<()> {
    // Temp name is unique per (process, write): concurrent writers of
    // the same artifact each rename their own complete file.
    let tmp = path.with_extension(format!(
        "{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, doc.render() + "\n")?;
    let renamed = fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed
}

/// Loads the artifact at `path` if it exists, is at most
/// [`condspec_store::MAX_FILE_BYTES`] long and parses; `None` means
/// "not complete, run the job".
pub fn load_artifact(path: &Path) -> Option<Json> {
    let text = condspec_store::read_capped(path).ok()?;
    Json::parse(&text).ok()
}

/// Where one job's result came from in a particular run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Simulated by this run's worker pool.
    Simulated,
    /// Served from the persistent result store.
    Store,
    /// Skipped by `--resume`: the artifact already existed on disk.
    Resumed,
}

impl JobSource {
    /// The stable manifest string.
    pub fn key(&self) -> &'static str {
        match self {
            JobSource::Simulated => "simulated",
            JobSource::Store => "store",
            JobSource::Resumed => "resumed",
        }
    }
}

/// One job's row in the sweep manifest.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// The job's content hash (artifact file stem).
    pub hash: String,
    /// Human-readable job label.
    pub label: String,
    /// `"ok"` or `"failed"`.
    pub status: &'static str,
    /// Where the result came from (meaningless for failed jobs, which
    /// record the source they *attempted*).
    pub source: JobSource,
    /// Per-shard provenance under claim-mode sharding: the owner id of
    /// the worker that simulated this job (ours, or the shard recorded
    /// in the store entry we loaded). `None` outside claim mode.
    pub owner: Option<String>,
}

impl JobStatus {
    /// The manifest rows of `jobs`, in sweep order: a job is `ok` when
    /// `results` holds its artifact and `failed` otherwise, and
    /// `provenance` gives each job's source and owner.
    pub fn rows(
        jobs: &[JobSpec],
        results: &SweepResults,
        provenance: impl IntoIterator<Item = (JobSource, Option<String>)>,
    ) -> Vec<JobStatus> {
        jobs.iter()
            .zip(provenance)
            .map(|(job, (source, owner))| {
                let hash = job.hash_hex();
                let status = if results.contains_key(&hash) {
                    "ok"
                } else {
                    "failed"
                };
                JobStatus {
                    label: job.label(),
                    hash,
                    status,
                    source,
                    owner,
                }
            })
            .collect()
    }
}

/// The manifest's sweep-level header.
#[derive(Debug, Clone, Copy)]
pub struct ManifestInfo<'a> {
    /// The sweep's short name (`fig5`, ...).
    pub sweep_name: &'a str,
    /// The content-derived sweep id.
    pub sweep_id: &'a str,
    /// Measured-run iteration override applied to benchmark jobs, when
    /// the sweep was scaled (`--iters`).
    pub bench_iterations: Option<u64>,
    /// Warm-up iteration override applied to benchmark jobs (`--warmup`).
    pub bench_warmup: Option<u64>,
}

/// A sweep's artifact directory.
#[derive(Debug, Clone)]
pub struct SweepDir {
    dir: PathBuf,
}

impl SweepDir {
    /// Opens (creating if needed) `<root>/<sweep_id>/`.
    pub fn create(root: &Path, sweep_id: &str) -> io::Result<SweepDir> {
        let dir = root.join(sweep_id);
        fs::create_dir_all(&dir)?;
        Ok(SweepDir { dir })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for a job hash.
    pub fn artifact_path(&self, job_hash: &str) -> PathBuf {
        self.dir.join(format!("{job_hash}.json"))
    }

    /// The completed artifact for a job hash, if any.
    pub fn completed(&self, job_hash: &str) -> Option<Json> {
        load_artifact(&self.artifact_path(job_hash))
    }

    /// Writes one job artifact atomically.
    pub fn write(&self, job_hash: &str, doc: &Json) -> io::Result<()> {
        write_artifact(&self.artifact_path(job_hash), doc)
    }

    /// Writes the sweep manifest: the sweep header plus one row per job
    /// in sweep order. Job `status` values are deterministic; `source`
    /// values describe this run (see the module docs).
    pub fn write_manifest(&self, info: &ManifestInfo, statuses: &[JobStatus]) -> io::Result<()> {
        let jobs = statuses
            .iter()
            .map(|job| {
                let mut row = vec![
                    ("hash", Json::from(job.hash.as_str())),
                    ("label", Json::from(job.label.as_str())),
                    ("status", Json::from(job.status)),
                    ("source", Json::from(job.source.key())),
                ];
                if let Some(owner) = &job.owner {
                    row.push(("owner", Json::from(owner.as_str())));
                }
                Json::object(row)
            })
            .collect::<Vec<_>>();
        let mut doc = vec![
            ("sweep", Json::from(info.sweep_name)),
            ("sweep_id", Json::from(info.sweep_id)),
        ];
        if let Some(iterations) = info.bench_iterations {
            doc.push(("bench_iterations", Json::from(iterations)));
        }
        if let Some(warmup) = info.bench_warmup {
            doc.push(("bench_warmup", Json::from(warmup)));
        }
        doc.push(("total", Json::from(statuses.len() as u64)));
        doc.push(("jobs", Json::Array(jobs)));
        write_artifact(&self.dir.join("manifest.json"), &Json::object(doc))
    }

    /// Loads the manifest, if present and well-formed.
    pub fn manifest(&self) -> Option<Json> {
        load_artifact(&self.dir.join("manifest.json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("condspec-artifact-{tag}-{}", std::process::id()))
    }

    #[test]
    fn artifact_round_trip_and_atomicity() {
        let root = scratch("round-trip");
        let dir = SweepDir::create(&root, "demo-0000").expect("create");
        let doc = Json::object(vec![("x", Json::from(1u64))]);
        dir.write("00ff", &doc).expect("write");
        assert_eq!(dir.completed("00ff"), Some(doc));
        assert_eq!(dir.completed("ffee"), None, "absent artifact");
        // A truncated file is "not complete", never a parse panic.
        fs::write(dir.artifact_path("bad0"), "{\"x\":").expect("write");
        assert_eq!(dir.completed("bad0"), None);
        // No stray temp files after a successful write.
        let stray: Vec<_> = fs::read_dir(dir.path())
            .expect("read dir")
            .filter(|e| {
                e.as_ref()
                    .expect("entry")
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_writes_of_one_artifact_leave_one_clean_file() {
        let root = scratch("concurrent");
        let dir = SweepDir::create(&root, "demo-0002").expect("create");
        let doc = Json::object(vec![("x", Json::from(7u64))]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dir = dir.clone();
                let doc = doc.clone();
                scope.spawn(move || {
                    for _ in 0..25 {
                        dir.write("aaaa", &doc).expect("write");
                    }
                });
            }
        });
        assert_eq!(dir.completed("aaaa"), Some(doc));
        let names: Vec<String> = fs::read_dir(dir.path())
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["aaaa.json"], "exactly one file, no strays");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_round_trip() {
        let root = scratch("manifest");
        let dir = SweepDir::create(&root, "demo-0001").expect("create");
        dir.write_manifest(
            &ManifestInfo {
                sweep_name: "demo",
                sweep_id: "demo-0001",
                bench_iterations: Some(4),
                bench_warmup: None,
            },
            &[
                JobStatus {
                    hash: "aa".to_string(),
                    label: "gcc/origin".to_string(),
                    status: "ok",
                    source: JobSource::Store,
                    owner: Some("shard-a".to_string()),
                },
                JobStatus {
                    hash: "bb".to_string(),
                    label: "gcc/baseline".to_string(),
                    status: "failed",
                    source: JobSource::Simulated,
                    owner: None,
                },
            ],
        )
        .expect("write manifest");
        let m = dir.manifest().expect("manifest parses");
        assert_eq!(m.get("sweep").and_then(Json::as_str), Some("demo"));
        assert_eq!(m.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(m.get("bench_iterations").and_then(Json::as_u64), Some(4));
        assert_eq!(m.get("bench_warmup"), None);
        let jobs = m.get("jobs").and_then(Json::as_array).expect("jobs");
        assert_eq!(jobs[0].get("source").and_then(Json::as_str), Some("store"));
        assert_eq!(jobs[0].get("owner").and_then(Json::as_str), Some("shard-a"));
        assert_eq!(jobs[1].get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(jobs[1].get("owner"), None);
        fs::remove_dir_all(&root).ok();
    }
}
