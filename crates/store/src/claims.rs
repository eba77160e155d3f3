//! Lease-based work claiming over the store.
//!
//! A `claims/` fan-out lives next to `objects/`, holding one small JSON
//! lease document per in-flight job, keyed by the job's store key:
//!
//! ```text
//! <root>/claims/3f/3fa94c0d12e86b77.json
//!   { "schema": "condspec-lease-v1", "key": "3fa94c0d12e86b77",
//!     "owner": "shard-a.12345", "beats": 4 }
//! ```
//!
//! Any number of worker processes attach to the same store root and
//! drain a sweep with zero coordination beyond the filesystem:
//! claim → simulate → insert → release. The protocol:
//!
//! * **Acquisition is atomic.** The lease is written to a uniquely
//!   named temp file and `link(2)`ed to the lease path. `hard_link`
//!   fails with `AlreadyExists` when another owner holds the lease —
//!   unlike `rename(2)`, which would silently replace it — so exactly
//!   one claimant wins.
//! * **The heartbeat is the lease file's mtime.** Owners renew by
//!   atomically rewriting their own lease (temp + rename), refreshing
//!   mtime. No clocks are compared across hosts: staleness is always
//!   judged by the reader's clock against the shared filesystem's
//!   mtime.
//! * **Stale leases are stolen.** A lease whose mtime age exceeds the
//!   caller's `steal_after` is presumed orphaned by a dead worker; the
//!   stealer renames its own lease over it and reads the file back to
//!   confirm it won. Two simultaneous stealers both rename, but the
//!   read-back serializes them: at most one sees its own owner id. The
//!   residual window (A confirms, then B renames over) can only cause a
//!   *duplicated* simulation, never a lost one — inserts are idempotent
//!   because the key is a content hash — and every such duplicate is
//!   counted by [`ResultStore::duplicate_inserts`].
//! * **Release-on-insert.** [`ResultStore::insert_claimed`] writes the
//!   result and removes the lease in one call, so a finished job's
//!   lease disappears with its result and other workers' `load` checks
//!   resolve the job before ever touching the lease.
//!
//! Crash semantics follow from the above: a worker that dies *before*
//! inserting leaves a lease that goes stale and is stolen (the job is
//! re-simulated); one that dies *after* inserting but before releasing
//! leaves a lease over a present object, which every other worker
//! resolves as a store hit and which `gc`/steal eventually clears.

use crate::{tmp_path, ResultStore};
use condspec_stats::Json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, SystemTime};

/// Schema identifier written into every lease document.
pub const LEASE_SCHEMA: &str = "condspec-lease-v1";

/// Default time without a heartbeat after which a lease is presumed
/// orphaned and may be stolen. Heartbeats renew at a quarter of the
/// claimant's timeout, so a live worker is never mistaken for a dead
/// one unless the filesystem stalls for most of a minute.
pub const DEFAULT_STEAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Outcome of a [`ResultStore::try_claim`] attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimStatus {
    /// The lease was free (or already ours) and is now held.
    Acquired,
    /// The lease had gone stale and was taken over.
    Stolen,
    /// A live owner holds the lease; skip the job for now.
    Busy {
        /// The holder's owner id (`"unknown"` if the lease document
        /// was unreadable — mtime still governs staleness).
        owner: String,
        /// Lease age at the time of the check.
        age: Duration,
    },
}

/// Outcome of [`ResultStore::claim_or_load`]: what a claimant — an
/// engine pool, or the serve daemon on a remote worker's behalf — does
/// with one job.
#[derive(Debug, Clone, PartialEq)]
pub enum Claim {
    /// The result is already stored: the artifact and the owner that
    /// inserted it (absent for entries written outside the protocol).
    Stored(Json, Option<String>),
    /// The caller now holds the lease and should simulate.
    Held,
    /// A live owner holds the lease; ask again later.
    Busy,
}

/// One in-flight lease, as listed by [`ResultStore::leases`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// The leased store key.
    pub key: String,
    /// The owner id recorded in the lease document.
    pub owner: String,
    /// Time since the last heartbeat (mtime age).
    pub age: Duration,
}

fn lease_doc(key: &str, owner: &str, beats: u64) -> String {
    Json::object(vec![
        ("schema", Json::from(LEASE_SCHEMA)),
        ("key", Json::from(key)),
        ("owner", Json::from(owner)),
        ("beats", Json::from(beats)),
    ])
    .render()
}

fn parse_lease(text: &str) -> Option<(String, u64)> {
    let doc = Json::parse(text).ok()?;
    if doc.get("schema")?.as_str()? != LEASE_SCHEMA {
        return None;
    }
    let owner = doc.get("owner")?.as_str()?.to_string();
    let beats = doc.get("beats").and_then(Json::as_u64).unwrap_or(0);
    Some((owner, beats))
}

fn read_lease(path: &Path) -> Option<(String, u64)> {
    parse_lease(&fs::read_to_string(path).ok()?)
}

/// Age of the file at `path` by mtime, saturating to zero when the
/// mtime is in the future (clock skew between writer and reader makes
/// a lease look *fresher*, never stale — the safe direction).
fn file_age(path: &Path) -> io::Result<Duration> {
    let modified = fs::metadata(path)?.modified()?;
    Ok(SystemTime::now()
        .duration_since(modified)
        .unwrap_or(Duration::ZERO))
}

impl ResultStore {
    pub(crate) fn claims_dir(&self) -> PathBuf {
        self.root.join("claims")
    }

    /// The on-disk lease path for a store key. Same lowercase-hex key
    /// validation as [`ResultStore::object_path`].
    pub fn claim_path(&self, key: &str) -> PathBuf {
        Self::keyed_path(self.claims_dir(), key)
    }

    /// Attempts to claim the lease for `key` on behalf of `owner`.
    ///
    /// Returns [`ClaimStatus::Acquired`] when the lease was free or
    /// already held by `owner` (re-entrant claims refresh the
    /// heartbeat), [`ClaimStatus::Stolen`] when a lease older than
    /// `steal_after` was taken over, and [`ClaimStatus::Busy`] when a
    /// live owner holds it.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the shard directory or writing the lease.
    pub fn try_claim(
        &self,
        key: &str,
        owner: &str,
        steal_after: Duration,
    ) -> io::Result<ClaimStatus> {
        let path = self.claim_path(key);
        let dir = path.parent().expect("lease paths always have a shard dir");
        fs::create_dir_all(dir)?;
        // Bounded retries cover the benign races (a holder releasing
        // between our link failure and our stat of its lease).
        for _ in 0..4 {
            let tmp = tmp_path(dir, key);
            fs::write(&tmp, lease_doc(key, owner, 0) + "\n")?;
            match fs::hard_link(&tmp, &path) {
                Ok(()) => {
                    let _ = fs::remove_file(&tmp);
                    self.claims.fetch_add(1, Ordering::Relaxed);
                    return Ok(ClaimStatus::Acquired);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(e);
                }
            }
            let holder = read_lease(&path).map(|(owner, _)| owner);
            if holder.as_deref() == Some(owner) {
                // Our own lease from an earlier pass: refresh it.
                let renamed = fs::rename(&tmp, &path);
                if renamed.is_err() {
                    let _ = fs::remove_file(&tmp);
                }
                renamed?;
                return Ok(ClaimStatus::Acquired);
            }
            let age = match file_age(&path) {
                Ok(age) => age,
                // Released between link and stat: retry from the top.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    let _ = fs::remove_file(&tmp);
                    continue;
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(e);
                }
            };
            if age <= steal_after {
                let _ = fs::remove_file(&tmp);
                return Ok(ClaimStatus::Busy {
                    owner: holder.unwrap_or_else(|| "unknown".to_string()),
                    age,
                });
            }
            // Stale: rename our lease over it, then read back to learn
            // whether we won the (possible) multi-stealer race.
            let renamed = fs::rename(&tmp, &path);
            if renamed.is_err() {
                let _ = fs::remove_file(&tmp);
            }
            renamed?;
            match read_lease(&path) {
                Some((winner, _)) if winner == owner => {
                    self.claims.fetch_add(1, Ordering::Relaxed);
                    self.steals.fetch_add(1, Ordering::Relaxed);
                    return Ok(ClaimStatus::Stolen);
                }
                other => {
                    return Ok(ClaimStatus::Busy {
                        owner: other
                            .map(|(owner, _)| owner)
                            .unwrap_or_else(|| "unknown".to_string()),
                        age: Duration::ZERO,
                    });
                }
            }
        }
        Ok(ClaimStatus::Busy {
            owner: "unknown".to_string(),
            age: Duration::ZERO,
        })
    }

    /// The lease protocol for one job, in the order that makes it safe:
    /// a stored result resolves the key; otherwise claim its lease
    /// (stealing one older than `steal_after`) and check the store
    /// again, because the previous holder may have inserted just before
    /// releasing — in which case the new lease is dropped at once.
    ///
    /// # Errors
    ///
    /// Any I/O error from [`ResultStore::try_claim`].
    pub fn claim_or_load(
        &self,
        key: &str,
        owner: &str,
        steal_after: Duration,
    ) -> io::Result<Claim> {
        if let Some((doc, origin)) = self.load_with_origin(key) {
            return Ok(Claim::Stored(doc, origin));
        }
        if let ClaimStatus::Busy { .. } = self.try_claim(key, owner, steal_after)? {
            return Ok(Claim::Busy);
        }
        match self.load_with_origin(key) {
            Some((doc, origin)) => {
                let _ = self.release(key, owner);
                Ok(Claim::Stored(doc, origin))
            }
            None => Ok(Claim::Held),
        }
    }

    /// Renews `owner`'s lease on `key` by atomically rewriting it
    /// (refreshing mtime, incrementing the beat counter). Returns
    /// `false` — without touching the file — when the lease is absent
    /// or held by someone else (e.g. it was stolen from under us).
    ///
    /// # Errors
    ///
    /// Any I/O error rewriting a lease we do hold.
    pub fn heartbeat(&self, key: &str, owner: &str) -> io::Result<bool> {
        let path = self.claim_path(key);
        let beats = match read_lease(&path) {
            Some((holder, beats)) if holder == owner => beats,
            _ => return Ok(false),
        };
        let dir = path.parent().expect("lease paths always have a shard dir");
        let tmp = tmp_path(dir, key);
        fs::write(&tmp, lease_doc(key, owner, beats + 1) + "\n")?;
        let renamed = fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed?;
        Ok(true)
    }

    /// Releases `owner`'s lease on `key`. Returns `false` when the
    /// lease is absent or held by someone else (never removes another
    /// owner's lease).
    ///
    /// # Errors
    ///
    /// Any I/O error removing a lease we do hold.
    pub fn release(&self, key: &str, owner: &str) -> io::Result<bool> {
        let path = self.claim_path(key);
        match read_lease(&path) {
            Some((holder, _)) if holder == owner => {}
            _ => return Ok(false),
        }
        match fs::remove_file(&path) {
            Ok(()) => {
                self.releases.fetch_add(1, Ordering::Relaxed);
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// [`ResultStore::insert`] plus release-on-insert: writes the
    /// result under `key` with the inserting `owner` recorded in the
    /// envelope (per-shard provenance), then drops `owner`'s lease so
    /// the job's lease disappears with its result.
    ///
    /// # Errors
    ///
    /// Any I/O error from the insert; a failed lease release after a
    /// successful insert is swallowed (the lease is now over a present
    /// object — harmless, and cleared by gc or the next steal).
    #[allow(clippy::too_many_arguments)]
    pub fn insert_claimed(
        &self,
        key: &str,
        job: &str,
        label: &str,
        fingerprint: u64,
        artifact: &Json,
        owner: &str,
    ) -> io::Result<()> {
        if fs::metadata(self.object_path(key)).is_ok() {
            self.duplicate_inserts.fetch_add(1, Ordering::Relaxed);
        }
        self.insert_at_owned(key, job, label, fingerprint, artifact, Some(owner))?;
        let _ = self.release(key, owner);
        Ok(())
    }

    /// Every in-flight lease, in key order. Unparseable lease files
    /// are listed with owner `"unknown"` — their mtime still governs
    /// staleness, so they cannot pin a key forever.
    ///
    /// # Errors
    ///
    /// Any I/O error walking the `claims/` directory.
    pub fn leases(&self) -> io::Result<Vec<LeaseInfo>> {
        let mut listed = Vec::new();
        for path in Self::walk_dir(&self.claims_dir())? {
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let key = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            let owner = read_lease(&path)
                .map(|(owner, _)| owner)
                .unwrap_or_else(|| "unknown".to_string());
            let age = match file_age(&path) {
                Ok(age) => age,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            listed.push(LeaseInfo { key, owner, age });
        }
        Ok(listed)
    }

    /// Prunes the `claims/` tree: removes every stray `*.tmp` and every
    /// lease older than `stale_after`. Live leases are left alone.
    /// Returns `(stale_leases_removed, tmp_removed, bytes_freed)`.
    pub(crate) fn gc_claims(&self, stale_after: Duration) -> io::Result<(u64, u64, u64)> {
        let (mut stale, mut tmp, mut bytes) = (0, 0, 0);
        for path in Self::walk_dir(&self.claims_dir())? {
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if path.extension().is_some_and(|x| x == "tmp") {
                fs::remove_file(&path)?;
                tmp += 1;
                bytes += len;
                continue;
            }
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let old = match file_age(&path) {
                Ok(age) => age > stale_after,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if old {
                match fs::remove_file(&path) {
                    Ok(()) => {
                        stale += 1;
                        bytes += len;
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok((stale, tmp, bytes))
    }

    /// Leases acquired since open (including steals).
    pub fn claims(&self) -> u64 {
        self.claims.load(Ordering::Relaxed)
    }

    /// Stale leases stolen since open.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Leases released since open.
    pub fn releases(&self) -> u64 {
        self.releases.load(Ordering::Relaxed)
    }

    /// Inserts that found the object already present — i.e. the same
    /// job was simulated more than once. Zero in a correctly sharded
    /// sweep; the claim-mode summary line prints this.
    pub fn duplicate_inserts(&self) -> u64 {
        self.duplicate_inserts.load(Ordering::Relaxed)
    }

    /// The claim-protocol counter line every worker prints at exit —
    /// CI greps the trailing `0 duplicate simulations`.
    pub fn claims_summary(&self) -> String {
        format!(
            "claims: {} claimed, {} stolen, {} released; {} duplicate simulations",
            self.claims(),
            self.steals(),
            self.releases(),
            self.duplicate_inserts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("condspec-claims-{tag}-{}", std::process::id()))
    }

    fn artifact(x: u64) -> Json {
        Json::object(vec![("cycles", Json::from(x))])
    }

    const KEY: &str = "00ff00ff00ff00ff";
    const LONG: Duration = Duration::from_secs(3600);

    #[test]
    fn claim_is_exclusive_and_reentrant() {
        let root = scratch("exclusive");
        let store = ResultStore::open(&root);
        assert_eq!(
            store.try_claim(KEY, "a", LONG).unwrap(),
            ClaimStatus::Acquired
        );
        // A second owner is refused while the lease is fresh.
        match store.try_claim(KEY, "b", LONG).unwrap() {
            ClaimStatus::Busy { owner, .. } => assert_eq!(owner, "a"),
            other => panic!("expected busy, got {other:?}"),
        }
        // The holder re-claims without conflict.
        assert_eq!(
            store.try_claim(KEY, "a", LONG).unwrap(),
            ClaimStatus::Acquired
        );
        assert_eq!(store.claims(), 1, "re-entrant claims are not re-counted");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stale_leases_are_stolen_and_fresh_ones_are_not() {
        let root = scratch("steal");
        let store = ResultStore::open(&root);
        assert_eq!(
            store.try_claim(KEY, "dead", LONG).unwrap(),
            ClaimStatus::Acquired
        );
        // With a zero steal timeout every lease is immediately stale.
        assert_eq!(
            store.try_claim(KEY, "live", Duration::ZERO).unwrap(),
            ClaimStatus::Stolen
        );
        assert_eq!(store.steals(), 1);
        let leases = store.leases().unwrap();
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].owner, "live");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn heartbeat_and_release_verify_ownership() {
        let root = scratch("heartbeat");
        let store = ResultStore::open(&root);
        assert!(!store.heartbeat(KEY, "a").unwrap(), "no lease yet");
        store.try_claim(KEY, "a", LONG).unwrap();
        assert!(store.heartbeat(KEY, "a").unwrap());
        assert!(!store.heartbeat(KEY, "b").unwrap(), "not the holder");
        assert!(!store.release(KEY, "b").unwrap(), "not the holder");
        assert!(store.release(KEY, "a").unwrap());
        assert!(!store.release(KEY, "a").unwrap(), "already released");
        assert_eq!(store.leases().unwrap(), vec![]);
        assert_eq!(store.releases(), 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn insert_claimed_releases_and_records_owner_and_duplicates() {
        let root = scratch("insert");
        let store = ResultStore::open(&root);
        store.try_claim(KEY, "a", LONG).unwrap();
        store
            .insert_claimed(KEY, "j1", "gcc/origin", 7, &artifact(1), "a")
            .unwrap();
        assert_eq!(store.leases().unwrap(), vec![], "release-on-insert");
        assert_eq!(
            store.load_with_origin(KEY),
            Some((artifact(1), Some("a".into())))
        );
        assert_eq!(store.duplicate_inserts(), 0);
        // A second simulation of the same key is a counted duplicate.
        store
            .insert_claimed(KEY, "j1", "gcc/origin", 7, &artifact(1), "b")
            .unwrap();
        assert_eq!(store.duplicate_inserts(), 1);
        assert!(store.claims_summary().ends_with("1 duplicate simulations"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn claim_or_load_resolves_holds_or_waits() {
        let root = scratch("claim-or-load");
        let store = ResultStore::open(&root);
        assert_eq!(store.claim_or_load(KEY, "a", LONG).unwrap(), Claim::Held);
        assert_eq!(store.claim_or_load(KEY, "b", LONG).unwrap(), Claim::Busy);
        store
            .insert_claimed(KEY, "j1", "gcc/origin", 7, &artifact(1), "a")
            .unwrap();
        assert_eq!(
            store.claim_or_load(KEY, "b", LONG).unwrap(),
            Claim::Stored(artifact(1), Some("a".into()))
        );
        assert_eq!(store.claims(), 1, "a stored key takes no lease");
        assert_eq!(store.leases().unwrap(), vec![]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stats_verify_and_gc_cover_leases() {
        let root = scratch("maintenance");
        let store = ResultStore::open(&root);
        store.insert(KEY, "j1", "a", 1, &artifact(1)).unwrap();
        store.try_claim("aa00aa00aa00aa00", "a", LONG).unwrap();
        store.try_claim("bb00bb00bb00bb00", "b", LONG).unwrap();
        // A stray temp file from a hypothetical interrupted claimant.
        let shard = store.claim_path("aa00aa00aa00aa00");
        fs::write(shard.with_extension("9999.0.tmp"), "partial").unwrap();

        let stats = store.stats().unwrap();
        assert_eq!((stats.entries, stats.leases, stats.stray_tmp), (1, 2, 1));
        assert!(stats.summary(store.root()).contains("2 leases"));
        assert_eq!(store.verify().unwrap().leases, 2);

        // A gc with a long lease timeout prunes only the stray tmp.
        let report = store.gc_with(1, LONG).unwrap();
        assert_eq!(
            (report.kept, report.removed, report.stale_leases),
            (1, 1, 0)
        );
        assert_eq!(store.leases().unwrap().len(), 2);

        // A zero-timeout gc treats every lease as stale.
        let report = store.gc_with(1, Duration::ZERO).unwrap();
        assert_eq!(report.stale_leases, 2);
        assert_eq!(store.leases().unwrap(), vec![]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_lease_keys_never_escape_the_root() {
        let root = scratch("keys");
        let store = ResultStore::open(&root);
        for bad in ["../../etc/passwd", "", "ABCDEF", "g123"] {
            assert!(store.claim_path(bad).starts_with(root.join("claims")));
        }
        fs::remove_dir_all(&root).ok();
    }
}
