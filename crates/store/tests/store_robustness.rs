//! Robustness properties of the persistent result store: concurrent
//! same-key inserts, lease races between handles, scans racing a
//! writer, corruption tolerance, hostile file contents, and deep
//! verification.

use condspec_stats::json::MAX_DEPTH;
use condspec_stats::{Json, SplitMix64};
use condspec_store::{ClaimStatus, ResultStore};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("condspec-store-it-{tag}-{}", std::process::id()))
}

fn artifact() -> Json {
    Json::object(vec![
        ("job", Json::from("0123456789abcdef")),
        ("cycles", Json::from(176_878u64)),
        ("ipc", Json::from(1.25)),
    ])
}

const KEY: &str = "0123456789abcdef";

#[test]
fn concurrent_inserts_of_one_key_converge_to_identical_bytes() {
    let root = scratch("concurrent");
    fs::remove_dir_all(&root).ok();
    let store = Arc::new(ResultStore::open(&root));

    // Many threads race to insert the same key while others read it.
    // The store key is a content hash, so every writer carries the same
    // artifact; whichever rename lands last must leave exactly those
    // bytes, and no reader may ever observe a torn entry.
    std::thread::scope(|scope| {
        for t in 0..8 {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for _ in 0..50 {
                    if t % 2 == 0 {
                        store
                            .insert(KEY, "0123456789abcdef", "gcc/origin", 42, &artifact())
                            .expect("insert never fails on a healthy filesystem");
                    } else {
                        // A read races the writers: either a miss (not
                        // yet inserted) or the full artifact — never a
                        // partial document, never a panic.
                        if let Some(doc) = store.load(KEY) {
                            assert_eq!(doc, artifact(), "reader saw a torn entry");
                        }
                    }
                }
            });
        }
    });

    assert_eq!(store.load(KEY), Some(artifact()));
    assert_eq!(store.corrupt(), 0, "no reader ever hit a torn entry");
    // Exactly one object file, no leftover temp files.
    let stats = store.stats().expect("stats");
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.stray_tmp, 0);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn two_handles_on_one_root_never_share_a_lease() {
    let root = scratch("lease-race");
    fs::remove_dir_all(&root).ok();
    // Two handles in one process, as when the serve daemon leases on
    // behalf of remote workers beside an in-process pool: their temp
    // files must never collide, or a claim fails spuriously or both
    // owners believe they won.
    let keys: Vec<String> = (0..300u64)
        .map(|i| format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let handles = [ResultStore::open(&root), ResultStore::open(&root)];
    let start = Barrier::new(handles.len());
    let outcomes: Vec<Vec<_>> = std::thread::scope(|scope| {
        let racers: Vec<_> = handles
            .iter()
            .zip(["a", "b"])
            .map(|(store, owner)| {
                let (keys, start) = (&keys, &start);
                scope.spawn(move || {
                    start.wait();
                    keys.iter()
                        .map(|key| store.try_claim(key, owner, Duration::from_secs(3600)))
                        .collect()
                })
            })
            .collect();
        racers
            .into_iter()
            .map(|r| r.join().expect("racer"))
            .collect()
    });
    for (i, key) in keys.iter().enumerate() {
        let statuses: Vec<&ClaimStatus> = outcomes
            .iter()
            .map(|o| {
                o[i].as_ref()
                    .unwrap_or_else(|e| panic!("try_claim({key}) failed: {e}"))
            })
            .collect();
        let winners = statuses
            .iter()
            .filter(|s| matches!(s, ClaimStatus::Acquired | ClaimStatus::Stolen))
            .count();
        assert_eq!(winners, 1, "key {key}: {statuses:?}");
    }
    assert_eq!(handles[0].claims() + handles[1].claims(), keys.len() as u64);
    assert_eq!(handles[0].stats().expect("stats").stray_tmp, 0);
    fs::remove_dir_all(&root).ok();
}

/// `stats` lists a shard, then reads the size of every file it listed;
/// an insert renames its temp file away between those two steps. A scan
/// that races a writer skips the vanished file instead of failing.
#[test]
fn stats_never_fails_while_a_writer_inserts() {
    let root = scratch("stats-race");
    fs::remove_dir_all(&root).ok();
    let store = ResultStore::open(&root);
    // Every key lands in the `ab` shard, the one directory the scan lists.
    let keys: Vec<String> = (0..16u64).map(|i| format!("ab{i:014x}")).collect();
    let stop = AtomicBool::new(false);
    let failures: Vec<String> = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                for key in &keys {
                    store
                        .insert(key, key, "race", 42, &artifact())
                        .expect("insert");
                }
            }
        });
        while store.inserts() == 0 && !writer.is_finished() {
            std::thread::yield_now();
        }
        let failures = (0..500)
            .filter_map(|_| store.stats().err())
            .map(|e| e.to_string())
            .collect();
        stop.store(true, Ordering::Relaxed);
        failures
    });
    assert!(
        failures.is_empty(),
        "{} of 500 scans failed, first: {}",
        failures.len(),
        failures[0]
    );
    let stats = store.stats().expect("quiet scan");
    assert_eq!((stats.entries, stats.stray_tmp), (keys.len() as u64, 0));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn truncated_entry_is_a_miss_and_reinsert_repairs_it() {
    let root = scratch("truncated");
    fs::remove_dir_all(&root).ok();
    let store = ResultStore::open(&root);
    store
        .insert(KEY, "0123456789abcdef", "gcc/origin", 42, &artifact())
        .expect("insert");
    let path = store.object_path(KEY);

    // Simulate a crash mid-write of a non-atomic writer: truncate the
    // entry to half its length.
    let full = fs::read_to_string(&path).expect("read entry");
    fs::write(&path, &full[..full.len() / 2]).expect("truncate");

    assert_eq!(store.load(KEY), None, "truncated entry must read as a miss");
    assert_eq!(store.corrupt(), 1);

    // Re-inserting the same key repairs the entry in place.
    store
        .insert(KEY, "0123456789abcdef", "gcc/origin", 42, &artifact())
        .expect("repair insert");
    assert_eq!(store.load(KEY), Some(artifact()), "repair restores the hit");
    assert_eq!(store.corrupt(), 1, "the repaired entry is clean");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn verify_flags_a_bit_flipped_entry() {
    let root = scratch("bitflip");
    fs::remove_dir_all(&root).ok();
    let store = ResultStore::open(&root);
    store
        .insert(KEY, "0123456789abcdef", "gcc/origin", 42, &artifact())
        .expect("insert");
    let other = "fedcba9876543210";
    store
        .insert(other, "fedcba9876543210", "mcf/origin", 42, &artifact())
        .expect("insert");
    assert!(store.verify().expect("verify").is_clean());

    // Flip one bit inside the artifact payload (the digit '6' in the
    // cycles value) without breaking JSON syntax: the envelope still
    // parses, but the payload checksum no longer matches.
    let path = store.object_path(KEY);
    let mut bytes = fs::read(&path).expect("read entry");
    let pos = bytes
        .windows(6)
        .position(|w| w == b"176878")
        .expect("cycles value present");
    bytes[pos] ^= 0x01; // '1' -> '0'
    fs::write(&path, &bytes).expect("rewrite");

    let report = store.verify().expect("verify");
    assert_eq!(report.checked, 2);
    assert_eq!(report.ok, 1);
    assert_eq!(report.bad.len(), 1, "exactly the flipped entry is flagged");
    assert_eq!(report.bad[0].0, path);
    assert!(
        report.bad[0].1.contains("checksum"),
        "reason names the checksum: {}",
        report.bad[0].1
    );

    // And the damaged entry reads as a miss while the healthy one hits.
    assert_eq!(store.load(KEY), None);
    assert_eq!(store.load(other), Some(artifact()));
    fs::remove_dir_all(&root).ok();
}

/// Seeded hostile contents for the store's two readers — objects and
/// leases — and for the JSON parser beneath them: every truncation and
/// every nest past [`MAX_DEPTH`] reads as a parse error or a miss, and
/// a flipped bit never panics. A flip outside the checksummed payload
/// (a label, say) can leave an envelope valid, so a flipped object
/// reads as a miss or as the original artifact, never as a damaged one.
#[test]
fn hostile_files_read_as_misses_and_never_panic() {
    let root = scratch("hostile");
    fs::remove_dir_all(&root).ok();
    let store = ResultStore::open(&root);
    store
        .insert(KEY, "0123456789abcdef", "gcc/origin", 42, &artifact())
        .expect("insert");
    store
        .try_claim(KEY, "shard-a", Duration::from_secs(3600))
        .expect("claim");

    let mut rng = SplitMix64::new(0x5eed_f00d);
    let files = [
        ("object", store.object_path(KEY)),
        ("lease", store.claim_path(KEY)),
    ];
    for (reader, path) in &files {
        let original = fs::read(path).expect("read file");
        let end = String::from_utf8_lossy(&original).trim_end().len();
        for case in 0..300 {
            let (bytes, must_fail) = match case % 3 {
                0 => (original[..rng.gen_usize(0, end)].to_vec(), true),
                1 => {
                    let mut flipped = original.clone();
                    flipped[rng.gen_usize(0, end)] ^= 1 << rng.gen_range(0, 8);
                    (flipped, false)
                }
                _ => {
                    let depth = rng.gen_usize(MAX_DEPTH, 20_000);
                    let mut nested = "[".repeat(depth).into_bytes();
                    nested.extend_from_slice(&original[..end]);
                    nested.extend_from_slice("]".repeat(depth).as_bytes());
                    (nested, true)
                }
            };
            let parsed = Json::parse(&String::from_utf8_lossy(&bytes));
            assert!(!must_fail || parsed.is_err(), "case {case} parsed");
            fs::write(path, &bytes).expect("write hostile file");
            match *reader {
                "object" => {
                    let doc = store.load(KEY);
                    assert!(doc.is_none() || (!must_fail && doc == Some(artifact())));
                }
                _ => {
                    let renewed = store.heartbeat(KEY, "shard-a").expect("heartbeat I/O");
                    assert!(
                        !must_fail || !renewed,
                        "case {case} renewed a damaged lease"
                    );
                    let leases = store.leases().expect("list leases");
                    if must_fail {
                        assert_eq!(leases[0].owner, "unknown");
                    }
                }
            }
        }
    }
    fs::remove_dir_all(&root).ok();
}
