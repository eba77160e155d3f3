//! `condspec-store` — a persistent, content-addressed result store.
//!
//! The sweep engine already gives every [`JobSpec`] a stable content
//! hash and produces fully deterministic JSON artifacts; this crate
//! makes those results outlive a single process. Entries are keyed by a
//! *store key* — the job's canonical key hashed together with a store
//! schema version and a code-generation fingerprint (see
//! `condspec_engine::hash::store_key`) — so re-running `fig5` after an
//! unrelated change is a pure cache hit, while a binary whose simulation
//! semantics changed (fingerprint bump) cleanly misses instead of
//! silently serving stale results.
//!
//! On disk the store is a two-level fan-out of self-describing JSON
//! envelopes:
//!
//! ```text
//! <root>/objects/3f/3fa94c0d12e86b77.json
//!   { "schema": "condspec-store-v1", "key": "3fa94c0d12e86b77",
//!     "job": "<job hash>", "label": "gcc/origin",
//!     "fingerprint": "<hex16>", "payload_fnv": "<hex16>",
//!     "artifact": { ... the job's artifact document ... } }
//! ```
//!
//! Robustness rules, in priority order:
//!
//! * **A damaged entry is a miss, never a panic.** Truncated files,
//!   invalid JSON, envelope/key mismatches and payload-checksum failures
//!   all return `None` from [`ResultStore::load`] (and bump the
//!   `corrupt` counter); a later [`ResultStore::insert`] of the same key
//!   repairs the entry in place.
//! * **Inserts are atomic.** Writes go to a uniquely named temp file in
//!   the same directory and `rename(2)` over the destination, so a
//!   killed process never leaves a half-written entry under a live key,
//!   and two processes inserting the same key concurrently both succeed
//!   (last rename wins; the contents are identical by construction —
//!   the key is a content hash).
//! * **Reads never require locks.** All bookkeeping is atomic counters;
//!   the store is `Sync` and shared freely across the worker pool.
//!
//! A second fan-out, `claims/`, holds lease files for distributed work
//! claiming — any number of worker processes attach to one store root
//! and drain a sweep without duplicating simulations. See the
//! [`claims`] module docs for the protocol. Simulator checkpoints are
//! not stored: they live in memory only. A `checkpoints/` directory an
//! older binary left under the root is never walked and is safe to
//! delete.
//!
//! [`JobSpec`]: https://docs.rs/condspec-engine

pub mod claims;

pub use claims::{Claim, ClaimStatus, LeaseInfo, DEFAULT_STEAL_TIMEOUT, LEASE_SCHEMA};

use condspec_stats::{fnv1a64, hex16, Json, MetricsRegistry};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Schema identifier written into every store envelope. Bumping it
/// orphans all existing entries (they fail the schema check and read as
/// misses).
pub const STORE_SCHEMA: &str = "condspec-store-v1";

/// Environment variable overriding [`ResultStore::default_root`].
pub const STORE_ROOT_ENV: &str = "CONDSPEC_STORE_ROOT";

/// The default store root, relative to the working directory, when
/// [`STORE_ROOT_ENV`] is unset. Kept under `target/` so a checkout is
/// self-contained and `cargo clean` empties the cache.
pub const DEFAULT_STORE_ROOT: &str = "target/condspec-store";

/// A persistent content-addressed result store rooted at one directory.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    corrupt: AtomicU64,
    claims: AtomicU64,
    steals: AtomicU64,
    releases: AtomicU64,
    duplicate_inserts: AtomicU64,
}

/// Shallow scan of a store: entry count and total payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Result entries present (every `*.json` under `objects/`).
    pub entries: u64,
    /// Total bytes across those result entries.
    pub bytes: u64,
    /// In-flight work leases (every `*.json` under `claims/`).
    pub leases: u64,
    /// Stray temp files from interrupted writes (both directories).
    pub stray_tmp: u64,
}

impl StoreStats {
    /// The one-line summary `condspec store stats` prints.
    pub fn summary(&self, root: &Path) -> String {
        format!(
            "store stats: {} entries, {} bytes, {} leases, {} stray tmp files at {}",
            self.entries,
            self.bytes,
            self.leases,
            self.stray_tmp,
            root.display()
        )
    }

    /// Exports the scan into a [`MetricsRegistry`] under `store.*`
    /// names, beside the session counters [`ResultStore::fill_metrics`]
    /// writes.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("store.entries", self.entries);
        registry.set_counter("store.bytes", self.bytes);
        registry.set_counter("store.leases", self.leases);
        registry.set_counter("store.stray_tmp", self.stray_tmp);
    }
}

/// Outcome of a deep [`ResultStore::verify`] scan.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Entries examined.
    pub checked: u64,
    /// Entries that passed every envelope and checksum test.
    pub ok: u64,
    /// Damaged entries as `(path, reason)`.
    pub bad: Vec<(PathBuf, String)>,
    /// Work leases in flight under `claims/` (not envelope-checked —
    /// leases are transient; a crashed fleet shows up here).
    pub leases: u64,
}

impl VerifyReport {
    /// Whether every entry verified clean.
    pub fn is_clean(&self) -> bool {
        self.bad.is_empty()
    }
}

/// Outcome of a [`ResultStore::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries kept (current fingerprint, verified clean).
    pub kept: u64,
    /// Entries removed (stale fingerprint or damaged) plus stray temp
    /// files.
    pub removed: u64,
    /// Stale work leases pruned from `claims/`.
    pub stale_leases: u64,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
}

impl ResultStore {
    /// Opens a store rooted at `root`. The directory is created lazily
    /// on first insert; opening never touches the filesystem.
    pub fn open(root: impl Into<PathBuf>) -> ResultStore {
        ResultStore {
            root: root.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            claims: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            releases: AtomicU64::new(0),
            duplicate_inserts: AtomicU64::new(0),
        }
    }

    /// The store root a process should use when the caller does not
    /// say: `$CONDSPEC_STORE_ROOT`, else [`DEFAULT_STORE_ROOT`].
    pub fn default_root() -> PathBuf {
        match std::env::var_os(STORE_ROOT_ENV) {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from(DEFAULT_STORE_ROOT),
        }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn objects_dir(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn keyed_path(base: PathBuf, key: &str) -> PathBuf {
        if key.len() >= 2
            && key
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            base.join(&key[..2]).join(format!("{key}.json"))
        } else {
            base.join("invalid").join("invalid.json")
        }
    }

    /// The on-disk path for a store key. Keys are validated to be
    /// lowercase hex so a malformed key can never escape the store
    /// directory; invalid keys map to a reserved `invalid` shard and
    /// simply never hit.
    pub fn object_path(&self, key: &str) -> PathBuf {
        Self::keyed_path(self.objects_dir(), key)
    }

    /// Loads the artifact stored under `key`, or `None` on any miss:
    /// absent entry, truncated/unparseable file, envelope mismatch, or
    /// payload-checksum failure. Damaged entries additionally bump the
    /// `corrupt` counter; they are repaired by the next [`insert`] of
    /// the same key.
    ///
    /// [`insert`]: ResultStore::insert
    pub fn load(&self, key: &str) -> Option<Json> {
        self.load_with_origin(key).map(|(doc, _)| doc)
    }

    /// [`ResultStore::load`] that also returns the owner id recorded by
    /// an [`insert_claimed`] — the per-shard provenance a merged sweep
    /// reports. Entries written by a plain [`insert`] have no owner.
    ///
    /// [`insert`]: ResultStore::insert
    /// [`insert_claimed`]: ResultStore::insert_claimed
    pub fn load_with_origin(&self, key: &str) -> Option<(Json, Option<String>)> {
        match self.load_envelope(key) {
            Ok(envelope) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Envelope was fully validated; artifact is present.
                envelope.artifact.map(|doc| (doc, envelope.owner))
            }
            Err(LoadMiss::Absent) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(LoadMiss::Damaged(_)) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn load_envelope(&self, key: &str) -> Result<Envelope, LoadMiss> {
        let text = match fs::read_to_string(self.object_path(key)) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(LoadMiss::Absent),
            Err(e) => return Err(LoadMiss::Damaged(e.to_string())),
        };
        let envelope = Envelope::parse(&text).map_err(LoadMiss::Damaged)?;
        if envelope.key != key {
            return Err(LoadMiss::Damaged(format!(
                "envelope names key {} but file is {}",
                envelope.key, key
            )));
        }
        Ok(envelope)
    }

    /// Atomically inserts (or repairs) the entry for `key`.
    ///
    /// `job` is the job's artifact-file hash, `label` its human label,
    /// `fingerprint` the code-generation fingerprint the key was derived
    /// with — all recorded in the envelope for `verify`/`gc` and for
    /// humans spelunking the store.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the shard directory or writing/renaming
    /// the entry. Callers treating the store as a best-effort cache may
    /// ignore the error; the store is left without the entry but
    /// otherwise intact.
    pub fn insert(
        &self,
        key: &str,
        job: &str,
        label: &str,
        fingerprint: u64,
        artifact: &Json,
    ) -> io::Result<()> {
        self.insert_at_owned(key, job, label, fingerprint, artifact, None)
    }

    pub(crate) fn insert_at_owned(
        &self,
        key: &str,
        job: &str,
        label: &str,
        fingerprint: u64,
        artifact: &Json,
        owner: Option<&str>,
    ) -> io::Result<()> {
        let path = self.object_path(key);
        let dir = path.parent().expect("object paths always have a shard dir");
        fs::create_dir_all(dir)?;
        let envelope = Envelope {
            key: key.to_string(),
            job: job.to_string(),
            label: label.to_string(),
            fingerprint: hex16(fingerprint),
            owner: owner.map(str::to_string),
            artifact: Some(artifact.clone()),
        };
        let tmp = tmp_path(dir, key);
        fs::write(&tmp, envelope.render() + "\n")?;
        let renamed = fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed?;
        self.inserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Entries served since open.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing usable (including damaged entries).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written since open.
    pub fn inserts(&self) -> u64 {
        self.inserts.load(Ordering::Relaxed)
    }

    /// Damaged entries encountered by `load` since open.
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// The `hits`/`misses`/`inserts` line the sweep driver prints, kept
    /// deliberately distinct from the in-memory `program-cache:` line so
    /// the two cache layers are independently observable.
    pub fn summary(&self) -> String {
        format!(
            "result-store: {} hits, {} misses, {} inserts",
            self.hits(),
            self.misses(),
            self.inserts()
        )
    }

    /// Exports the session counters into a [`MetricsRegistry`] under
    /// `store.*` names.
    pub fn fill_metrics(&self, registry: &mut MetricsRegistry) {
        registry.set_counter("store.hits", self.hits());
        registry.set_counter("store.misses", self.misses());
        registry.set_counter("store.inserts", self.inserts());
        registry.set_counter("store.corrupt", self.corrupt());
        registry.set_counter("store.claims", self.claims());
        registry.set_counter("store.steals", self.steals());
        registry.set_counter("store.releases", self.releases());
        registry.set_counter("store.duplicate_inserts", self.duplicate_inserts());
    }

    fn walk_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries = Vec::new();
        if !dir.is_dir() {
            return Ok(entries);
        }
        for shard in read_dir_sorted(dir)? {
            if !shard.is_dir() {
                continue;
            }
            entries.extend(read_dir_sorted(&shard)?);
        }
        Ok(entries)
    }

    fn walk_entries(&self) -> io::Result<Vec<PathBuf>> {
        Self::walk_dir(&self.objects_dir())
    }

    /// Shallow scan: result-entry count, total bytes, leases, stray
    /// temp files. A file that vanishes between the listing and its
    /// `metadata` — an insert renaming its temp file into place — is
    /// skipped, so a scan never fails while the store is being written.
    ///
    /// # Errors
    ///
    /// Any I/O error reading the store directories.
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for path in self.walk_entries()? {
            let len = match fs::metadata(&path) {
                Ok(meta) => meta.len(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if path.extension().is_some_and(|x| x == "tmp") {
                stats.stray_tmp += 1;
            } else if path.extension().is_some_and(|x| x == "json") {
                stats.entries += 1;
                stats.bytes += len;
            }
        }
        for path in Self::walk_dir(&self.claims_dir())? {
            if path.extension().is_some_and(|x| x == "tmp") {
                stats.stray_tmp += 1;
            } else if path.extension().is_some_and(|x| x == "json") {
                stats.leases += 1;
            }
        }
        Ok(stats)
    }

    /// Deep scan: parses every entry and re-checks its envelope (schema,
    /// key-vs-filename, payload checksum). A bit-flipped artifact fails
    /// its `payload_fnv` and lands in [`VerifyReport::bad`].
    ///
    /// # Errors
    ///
    /// Any I/O error walking the store; unreadable *entries* are
    /// reported in `bad`, not returned as errors.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for path in self.walk_entries()? {
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            report.checked += 1;
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let outcome = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Envelope::parse(&text))
                .and_then(|envelope| {
                    if envelope.key == stem {
                        Ok(())
                    } else {
                        Err(format!(
                            "envelope names key {} but file is {stem}",
                            envelope.key
                        ))
                    }
                });
            match outcome {
                Ok(()) => report.ok += 1,
                Err(reason) => report.bad.push((path, reason)),
            }
        }
        report.leases = self.leases()?.len() as u64;
        Ok(report)
    }

    /// Removes stale and damaged entries: anything whose fingerprint is
    /// not `keep_fingerprint`, anything that fails verification, stray
    /// temp files, and work leases older than [`DEFAULT_STEAL_TIMEOUT`]
    /// (a crashed fleet can't silently pin keys). Clean,
    /// current-generation entries and live leases are kept.
    ///
    /// # Errors
    ///
    /// Any I/O error walking the store or deleting a file.
    pub fn gc(&self, keep_fingerprint: u64) -> io::Result<GcReport> {
        self.gc_with(keep_fingerprint, DEFAULT_STEAL_TIMEOUT)
    }

    /// [`ResultStore::gc`] with an explicit lease staleness cutoff.
    ///
    /// # Errors
    ///
    /// Any I/O error walking the store or deleting a file.
    pub fn gc_with(
        &self,
        keep_fingerprint: u64,
        lease_stale_after: Duration,
    ) -> io::Result<GcReport> {
        let keep = hex16(keep_fingerprint);
        let mut report = GcReport::default();
        for path in self.walk_entries()? {
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if path.extension().is_some_and(|x| x == "tmp") {
                fs::remove_file(&path)?;
                report.removed += 1;
                report.bytes_freed += len;
                continue;
            }
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let keepable = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Envelope::parse(&text))
                .map(|envelope| envelope.key == stem && envelope.fingerprint == keep)
                .unwrap_or(false);
            if keepable {
                report.kept += 1;
            } else {
                fs::remove_file(&path)?;
                report.removed += 1;
                report.bytes_freed += len;
            }
        }
        let (stale, tmp, bytes) = self.gc_claims(lease_stale_after)?;
        report.stale_leases = stale;
        report.removed += tmp;
        report.bytes_freed += bytes;
        Ok(report)
    }
}

/// A temp-file name no other writer can be using: `{key}.{pid}.{seq}.tmp`
/// with `seq` counted per process, not per store handle, so two threads —
/// through one handle or two on the same root — or two processes never
/// scribble on the same temp file before their atomic rename or link.
pub(crate) fn tmp_path(dir: &Path, key: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    dir.join(format!(
        "{key}.{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    paths.sort();
    Ok(paths)
}

enum LoadMiss {
    Absent,
    #[allow(dead_code)] // reason is useful in debuggers and future logs
    Damaged(String),
}

/// The parsed, validated on-disk envelope.
struct Envelope {
    key: String,
    job: String,
    label: String,
    fingerprint: String,
    owner: Option<String>,
    artifact: Option<Json>,
}

impl Envelope {
    fn render(&self) -> String {
        let artifact = self.artifact.clone().expect("render requires an artifact");
        let payload_fnv = hex16(fnv1a64(artifact.render().as_bytes()));
        let mut fields = vec![
            ("schema", Json::from(STORE_SCHEMA)),
            ("key", Json::from(self.key.as_str())),
            ("job", Json::from(self.job.as_str())),
            ("label", Json::from(self.label.as_str())),
            ("fingerprint", Json::from(self.fingerprint.as_str())),
        ];
        if let Some(owner) = &self.owner {
            fields.push(("owner", Json::from(owner.as_str())));
        }
        fields.push(("payload_fnv", Json::from(payload_fnv)));
        fields.push(("artifact", artifact));
        Json::object(fields).render()
    }

    /// Parses and fully validates an envelope: schema, required fields,
    /// and the payload checksum. Every failure is a reason string.
    fn parse(text: &str) -> Result<Envelope, String> {
        let doc = Json::parse(text).map_err(|e| format!("unparseable JSON: {e}"))?;
        let field = |name: &str| -> Result<String, String> {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("envelope is missing `{name}`"))
        };
        let schema = field("schema")?;
        if schema != STORE_SCHEMA {
            return Err(format!("schema `{schema}` is not `{STORE_SCHEMA}`"));
        }
        let key = field("key")?;
        let job = field("job")?;
        let label = field("label")?;
        let fingerprint = field("fingerprint")?;
        let payload_fnv = field("payload_fnv")?;
        let artifact = doc
            .get("artifact")
            .cloned()
            .ok_or("envelope is missing `artifact`")?;
        let actual = hex16(fnv1a64(artifact.render().as_bytes()));
        if actual != payload_fnv {
            return Err(format!(
                "payload checksum mismatch: envelope says {payload_fnv}, artifact hashes to {actual}"
            ));
        }
        // The inserting owner is provenance, not identity: optional, and
        // entries written before the claims protocol existed lack it.
        let owner = doc.get("owner").and_then(Json::as_str).map(str::to_string);
        Ok(Envelope {
            key,
            job,
            label,
            fingerprint,
            owner,
            artifact: Some(artifact),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("condspec-store-{tag}-{}", std::process::id()))
    }

    fn artifact(x: u64) -> Json {
        Json::object(vec![("cycles", Json::from(x)), ("ipc", Json::from(1.5))])
    }

    #[test]
    fn round_trip_and_counters() {
        let root = scratch("round-trip");
        let store = ResultStore::open(&root);
        let key = "00ff00ff00ff00ff";
        assert_eq!(store.load(key), None, "cold store misses");
        store
            .insert(key, "ab", "gcc/origin", 7, &artifact(100))
            .expect("insert");
        assert_eq!(store.load(key), Some(artifact(100)));
        assert_eq!((store.hits(), store.misses(), store.inserts()), (1, 1, 1));
        assert_eq!(store.summary(), "result-store: 1 hits, 1 misses, 1 inserts");
        let mut reg = MetricsRegistry::new();
        store.fill_metrics(&mut reg);
        assert_eq!(
            reg.get("store.hits"),
            Some(&condspec_stats::MetricValue::Counter(1))
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_keys_never_escape_the_root() {
        let root = scratch("keys");
        let store = ResultStore::open(&root);
        for bad in ["../../etc/passwd", "", "ABCDEF", "g123", "a/b"] {
            let path = store.object_path(bad);
            assert!(
                path.starts_with(root.join("objects")),
                "{bad} mapped outside the store: {}",
                path.display()
            );
            assert_eq!(store.load(bad), None);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stats_and_verify_on_a_small_store() {
        let root = scratch("stats");
        let store = ResultStore::open(&root);
        store
            .insert("aa00aa00aa00aa00", "j1", "a", 1, &artifact(1))
            .unwrap();
        store
            .insert("bb00bb00bb00bb00", "j2", "b", 1, &artifact(2))
            .unwrap();
        // A `checkpoints/` tree left by an older binary is never walked.
        let old_shard = root.join("checkpoints").join("cc");
        fs::create_dir_all(&old_shard).unwrap();
        fs::write(old_shard.join("cc00cc00cc00cc00.json"), "not an envelope").unwrap();
        let stats = store.stats().expect("stats");
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes > 0);
        assert_eq!(stats.stray_tmp, 0);
        assert!(stats.summary(store.root()).contains("2 entries"));
        let verify = store.verify().expect("verify");
        assert_eq!((verify.checked, verify.ok), (2, 2));
        assert!(verify.is_clean());
        assert_eq!(store.gc(1).expect("gc").removed, 0);
        assert!(old_shard.join("cc00cc00cc00cc00.json").is_file());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_drops_stale_fingerprints_and_strays() {
        let root = scratch("gc");
        let store = ResultStore::open(&root);
        store
            .insert("aa00aa00aa00aa00", "j1", "a", 1, &artifact(1))
            .unwrap();
        store
            .insert("bb00bb00bb00bb00", "j2", "b", 2, &artifact(2))
            .unwrap();
        // A stray temp file from a hypothetical interrupted writer.
        let shard = store.object_path("aa00aa00aa00aa00");
        fs::write(shard.with_extension("9999.0.tmp"), "partial").unwrap();
        let report = store.gc(2).expect("gc");
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 2, "stale fingerprint + stray tmp");
        assert!(report.bytes_freed > 0);
        assert_eq!(store.load("bb00bb00bb00bb00"), Some(artifact(2)));
        assert_eq!(store.load("aa00aa00aa00aa00"), None);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_store_scans_cleanly() {
        let root = scratch("empty");
        let store = ResultStore::open(&root);
        assert_eq!(store.stats().expect("stats"), StoreStats::default());
        assert!(store.verify().expect("verify").is_clean());
        assert_eq!(store.gc(0).expect("gc"), GcReport::default());
        fs::remove_dir_all(&root).ok();
    }
}
