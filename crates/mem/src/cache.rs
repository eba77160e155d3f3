//! Set-associative cache with true-LRU replacement and the secure update
//! modes from the paper's §VII.A.

use crate::addr::line_addr;
use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, non-power-of-two
    /// line size, or capacity not divisible into `ways * line_bytes` sets).
    pub fn new(size_bytes: u64, ways: usize, line_bytes: u64, hit_latency: u64) -> Self {
        assert!(
            size_bytes > 0 && ways > 0 && line_bytes > 0,
            "cache geometry must be nonzero"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let set_bytes = ways as u64 * line_bytes;
        assert!(
            size_bytes.is_multiple_of(set_bytes),
            "capacity must be a whole number of sets"
        );
        let sets = size_bytes / set_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            hit_latency,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// How a cache hit updates the replacement (LRU) metadata.
///
/// Models the secure replacement policies of the paper's §VII.A: a
/// speculative (suspect) hit can leak through LRU state, so the defense can
/// skip ([`LruUpdate::None`]) or defer ([`LruUpdate::Deferred`]) the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LruUpdate {
    /// Normal behaviour: the hit promotes the line to most-recently-used.
    #[default]
    Normal,
    /// *No update policy*: the hit leaves replacement metadata untouched.
    None,
    /// *Delayed update policy*: the hit leaves metadata untouched now; the
    /// caller applies it later (at commit) via [`SetAssocCache::touch`].
    Deferred,
}

#[derive(Debug, Clone, Copy, Default)]
struct LineState {
    valid: bool,
    tag: u64,
    /// Global LRU timestamp; larger = more recently used.
    stamp: u64,
}

/// A set-associative, true-LRU cache holding line presence (tags only — the
/// simulator keeps data in [`crate::MainMemory`]; caches model timing and
/// the side channel).
///
/// Addresses passed in should already be *physical*; the cache aligns them
/// to lines internally.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<LineState>,
    /// One bit per set, raised by the only writes that can leave a line
    /// different from its reset value: [`SetAssocCache::fill`] and
    /// [`SetAssocCache::restore_lines`]. (`promote` and `flush_line` act
    /// on valid lines, which only a marked set holds, and `flush_all`
    /// only clears `valid`.) [`SetAssocCache::reset`] clears exactly the
    /// marked sets.
    dirty: Vec<u64>,
    tick: u64,
    set_shift: u32,
    set_mask: u64,
    /// `set_shift + log2(sets)`, precomputed: `tag()` sits on the hot
    /// lookup path of every cache level.
    tag_shift: u32,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let set_shift = config.line_bytes.trailing_zeros();
        SetAssocCache {
            config,
            lines: vec![LineState::default(); sets * config.ways],
            dirty: vec![0; sets.div_ceil(64)],
            tick: 0,
            set_shift,
            set_mask: sets as u64 - 1,
            tag_shift: set_shift + (sets as u64 - 1).count_ones(),
        }
    }

    /// Invalidates every line and rewinds the replacement clock,
    /// keeping the allocation: observationally identical to a fresh
    /// [`SetAssocCache::new`] with the same geometry. Only the sets
    /// written since the last reset are cleared, so the cost follows
    /// what the cache was used for, not its capacity.
    pub fn reset(&mut self) {
        let ways = self.config.ways;
        for (word_index, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let set = word_index * 64 + bits.trailing_zeros() as usize;
                self.lines[set * ways..(set + 1) * ways].fill(LineState::default());
                bits &= bits - 1;
            }
        }
        self.tick = 0;
    }

    fn mark_dirty(&mut self, set: usize) {
        self.dirty[set / 64] |= 1 << (set % 64);
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The set index for an address.
    pub fn set_index(&self, addr: u64) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    /// The tag for an address.
    pub fn tag(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }

    fn set_slice(&self, set: usize) -> &[LineState] {
        &self.lines[set * self.config.ways..(set + 1) * self.config.ways]
    }

    fn find_way(&self, addr: u64) -> Option<usize> {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        self.set_slice(set)
            .iter()
            .position(|l| l.valid && l.tag == tag)
    }

    /// Whether the line containing `addr` is present. Never changes state.
    pub fn probe(&self, addr: u64) -> bool {
        self.find_way(addr).is_some()
    }

    /// Looks up `addr`; on a hit, updates LRU metadata per `update` and
    /// returns `true`. On a miss returns `false` without any state change
    /// (fills are explicit via [`fill`]).
    ///
    /// [`fill`]: SetAssocCache::fill
    pub fn access(&mut self, addr: u64, update: LruUpdate) -> bool {
        match self.find_way(addr) {
            Some(way) => {
                if update == LruUpdate::Normal {
                    self.promote(self.set_index(addr), way);
                }
                true
            }
            None => false,
        }
    }

    /// Applies a (possibly deferred) LRU promotion for `addr` if the line
    /// is still present. Used by the *delayed update* policy when the
    /// access becomes non-speculative, and by stores updating recency.
    pub fn touch(&mut self, addr: u64) {
        if let Some(way) = self.find_way(addr) {
            self.promote(self.set_index(addr), way);
        }
    }

    fn promote(&mut self, set: usize, way: usize) {
        self.tick += 1;
        self.lines[set * self.config.ways + way].stamp = self.tick;
    }

    /// Inserts the line containing `addr`, evicting the LRU line of the set
    /// if necessary. Returns the base address of the evicted line, if any.
    ///
    /// Filling a line that is already present just promotes it.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        if let Some(way) = self.find_way(addr) {
            self.promote(self.set_index(addr), way);
            return None;
        }
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = set * self.config.ways;
        // Prefer an invalid way; otherwise evict the least recently used.
        let victim_way = match self.set_slice(set).iter().position(|l| !l.valid) {
            Some(w) => w,
            None => self
                .set_slice(set)
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(w, _)| w)
                .expect("ways > 0"),
        };
        let victim = self.lines[base + victim_way];
        let evicted = victim.valid.then(|| self.line_base(set, victim.tag));
        self.mark_dirty(set);
        self.tick += 1;
        self.lines[base + victim_way] = LineState {
            valid: true,
            tag,
            stamp: self.tick,
        };
        evicted
    }

    fn line_base(&self, set: usize, tag: u64) -> u64 {
        (tag << self.tag_shift) | ((set as u64) << self.set_shift)
    }

    /// Invalidates the line containing `addr`; returns whether it was
    /// present (the `clflush` primitive).
    pub fn flush_line(&mut self, addr: u64) -> bool {
        match self.find_way(addr) {
            Some(way) => {
                let set = self.set_index(addr);
                self.lines[set * self.config.ways + way].valid = false;
                true
            }
            None => false,
        }
    }

    /// Invalidates every line.
    pub fn flush_all(&mut self) {
        self.lines.iter_mut().for_each(|l| l.valid = false);
    }

    /// Number of valid lines currently in the cache.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Base addresses of the valid lines in set `set`, LRU-first.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_contents_lru_first(&self, set: usize) -> Vec<u64> {
        assert!(set < self.config.sets(), "set index out of range");
        let mut v: Vec<(u64, u64)> = self
            .set_slice(set)
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.stamp, self.line_base(set, l.tag)))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, a)| a).collect()
    }

    /// Per-line `(valid, tag, stamp)` state plus the replacement clock,
    /// in line-array order — everything [`SetAssocCache::restore_lines`]
    /// needs to reproduce this cache exactly (geometry comes from the
    /// config, which the caller re-creates).
    pub fn snapshot_lines(&self) -> (Vec<(bool, u64, u64)>, u64) {
        (
            self.lines
                .iter()
                .map(|l| (l.valid, l.tag, l.stamp))
                .collect(),
            self.tick,
        )
    }

    /// Restores per-line state captured by [`SetAssocCache::snapshot_lines`].
    ///
    /// # Panics
    ///
    /// Panics if `lines` does not match this cache's geometry.
    pub fn restore_lines(&mut self, lines: &[(bool, u64, u64)], tick: u64) {
        assert_eq!(
            lines.len(),
            self.lines.len(),
            "line count must match geometry"
        );
        for (slot, &(valid, tag, stamp)) in self.lines.iter_mut().zip(lines) {
            *slot = LineState { valid, tag, stamp };
        }
        for set in 0..self.config.sets() {
            self.mark_dirty(set);
        }
        self.tick = tick;
    }

    /// The first `count` line addresses at or after the line holding
    /// `search_base` that map to the same set as `addr`, in ascending
    /// order: eviction sets for Prime+Probe. Consecutive lines walk the
    /// sets in order, so the first match is a fixed number of lines
    /// past the start and each later one a whole set stride past the
    /// last.
    pub fn conflicting_lines(&self, addr: u64, search_base: u64, count: usize) -> Vec<u64> {
        let line_bytes = self.config.line_bytes;
        let start = line_addr(search_base, line_bytes);
        let skip = (self.set_index(addr) as u64).wrapping_sub(self.set_index(start) as u64)
            & self.set_mask;
        let first = start + skip * line_bytes;
        let stride = (self.set_mask + 1) * line_bytes;
        (0..count as u64).map(|i| first + i * stride).collect()
    }
}

impl fmt::Display for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-line cache ({} sets, {} valid lines)",
            self.config.size_bytes / 1024,
            self.config.ways,
            self.config.line_bytes,
            self.config.sets(),
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use condspec_stats::SplitMix64;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256B.
        SetAssocCache::new(CacheConfig::new(256, 2, 64, 1))
    }

    #[test]
    fn config_sets() {
        let c = CacheConfig::new(64 * 1024, 4, 64, 2);
        assert_eq!(c.sets(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_odd_line() {
        let _ = CacheConfig::new(256, 2, 48, 1);
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn config_rejects_partial_sets() {
        let _ = CacheConfig::new(200, 2, 64, 1);
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x1000, LruUpdate::Normal));
        assert_eq!(c.fill(0x1000), None);
        assert!(c.access(0x1000, LruUpdate::Normal));
        assert!(c.probe(0x103f), "same line");
        assert!(!c.probe(0x1040), "next line, different set");
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = tiny();
        c.fill(0x0);
        c.fill(0x80); // same set (2 sets, 64B lines -> set = bit 6)
        let before = c.set_contents_lru_first(0);
        assert!(c.probe(0x0));
        assert_eq!(c.set_contents_lru_first(0), before);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 holds lines 0x0, 0x80 (both map to set 0).
        c.fill(0x000);
        c.fill(0x080);
        // Touch 0x000 so 0x080 becomes LRU.
        assert!(c.access(0x000, LruUpdate::Normal));
        let evicted = c.fill(0x100); // set 0 again
        assert_eq!(evicted, Some(0x080));
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
    }

    #[test]
    fn no_update_mode_preserves_lru_order() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x080);
        // A speculative hit with None must NOT promote 0x000.
        assert!(c.access(0x000, LruUpdate::None));
        let evicted = c.fill(0x100);
        assert_eq!(evicted, Some(0x000), "0x000 stayed LRU despite the hit");
    }

    #[test]
    fn deferred_then_touch_promotes() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x080);
        assert!(c.access(0x000, LruUpdate::Deferred));
        c.touch(0x000); // commit-time application
        let evicted = c.fill(0x100);
        assert_eq!(evicted, Some(0x080));
    }

    #[test]
    fn touch_on_absent_line_is_noop() {
        let mut c = tiny();
        c.touch(0x0dea_d000);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn fill_existing_promotes() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x080);
        assert_eq!(c.fill(0x000), None, "already present");
        assert_eq!(c.fill(0x100), Some(0x080));
    }

    #[test]
    fn flush_line_and_all() {
        let mut c = tiny();
        c.fill(0x0);
        c.fill(0x40);
        assert!(c.flush_line(0x20)); // within line 0x0
        assert!(!c.flush_line(0x0)); // already gone
        assert_eq!(c.occupancy(), 1);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.fill(i * 64);
        }
        assert_eq!(c.occupancy(), 4, "2 sets x 2 ways");
    }

    #[test]
    fn set_contents_lru_first_ordering() {
        let mut c = tiny();
        c.fill(0x000);
        c.fill(0x080);
        c.access(0x000, LruUpdate::Normal);
        assert_eq!(c.set_contents_lru_first(0), vec![0x080, 0x000]);
    }

    #[test]
    fn conflicting_lines_map_to_same_set() {
        let c = tiny();
        let lines = c.conflicting_lines(0x1040, 0x8000, 4);
        assert_eq!(lines.len(), 4);
        for l in &lines {
            assert_eq!(c.set_index(*l), c.set_index(0x1040));
        }
        // Distinct lines.
        let set: std::collections::HashSet<u64> = lines.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    /// `conflicting_lines` as first defined: walk every line address
    /// from the line holding `search_base` and keep the ones in `addr`'s
    /// set.
    fn conflicting_lines_by_scan(
        c: &SetAssocCache,
        addr: u64,
        search_base: u64,
        count: usize,
    ) -> Vec<u64> {
        let target_set = c.set_index(addr);
        let mut out = Vec::with_capacity(count);
        let mut candidate = line_addr(search_base, c.config().line_bytes);
        while out.len() < count {
            if c.set_index(candidate) == target_set {
                out.push(candidate);
            }
            candidate += c.config().line_bytes;
        }
        out
    }

    #[test]
    fn conflicting_lines_equal_the_linear_scan() {
        let geometries = [
            // The L1D of each machine preset (condspec::MachineConfig):
            // paper default, A57-like, and the i7-/Xeon-like 8-way.
            CacheConfig::new(64 * 1024, 4, 64, 2),
            CacheConfig::new(32 * 1024, 2, 64, 2),
            CacheConfig::new(32 * 1024, 8, 64, 2),
            // The paper's L2 and L3, and a geometry smaller than a word
            // of sets with a different line size.
            CacheConfig::new(2 * 1024 * 1024, 16, 64, 10),
            CacheConfig::new(8 * 1024 * 1024, 32, 64, 60),
            CacheConfig::new(256, 2, 32, 1),
        ];
        let mut rng = SplitMix64::new(0xc0f1_1c75);
        for config in geometries {
            let c = SetAssocCache::new(config);
            let mut bases = vec![0, 1, 63, 64, 0x8000_0000, 0x8000_0000 + 0x27];
            bases.extend((0..20).map(|_| rng.gen_range(0, 1 << 40)));
            for search_base in bases {
                for addr in [0, search_base, rng.gen_range(0, 1 << 40)] {
                    let count = rng.gen_range(0, 2 * config.ways as u64 + 1) as usize;
                    assert_eq!(
                        c.conflicting_lines(addr, search_base, count),
                        conflicting_lines_by_scan(&c, addr, search_base, count),
                        "{config:?} addr={addr:#x} base={search_base:#x} count={count}"
                    );
                }
            }
        }
    }

    /// One cache operation, drawn independently of cache state so two
    /// caches can replay the same stream.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Fill(u64),
        Access(u64, LruUpdate),
        Touch(u64),
        FlushLine(u64),
        FlushAll,
        Restore,
    }

    fn random_op(rng: &mut SplitMix64, config: &CacheConfig) -> Op {
        // Four times the capacity, so sets fill, hit and evict.
        let lines = (config.size_bytes / config.line_bytes) * 4;
        let addr =
            rng.gen_range(0, lines) * config.line_bytes + rng.gen_range(0, config.line_bytes);
        match rng.gen_range(0, 100) {
            0..=29 => Op::Fill(addr),
            30..=39 => Op::Access(addr, LruUpdate::Normal),
            40..=49 => Op::Access(addr, LruUpdate::None),
            50..=59 => Op::Access(addr, LruUpdate::Deferred),
            60..=74 => Op::Touch(addr),
            75..=94 => Op::FlushLine(addr),
            95..=97 => Op::FlushAll,
            _ => Op::Restore,
        }
    }

    /// Applies `op` and returns what it reported: an eviction, or
    /// whether the line was present.
    fn apply(
        c: &mut SetAssocCache,
        op: Op,
        donor: &(Vec<(bool, u64, u64)>, u64),
    ) -> (Option<u64>, bool) {
        match op {
            Op::Fill(addr) => (c.fill(addr), false),
            Op::Access(addr, update) => (None, c.access(addr, update)),
            Op::Touch(addr) => {
                c.touch(addr);
                (None, false)
            }
            Op::FlushLine(addr) => (None, c.flush_line(addr)),
            Op::FlushAll => {
                c.flush_all();
                (None, false)
            }
            Op::Restore => {
                c.restore_lines(&donor.0, donor.1);
                (None, false)
            }
        }
    }

    #[test]
    fn reset_after_any_op_stream_equals_a_fresh_cache() {
        // 128 sets, so the dirty bitmap spans two words.
        let config = CacheConfig::new(128 * 2 * 64, 2, 64, 1);
        let fresh = SetAssocCache::new(config);
        let mut rng = SplitMix64::new(0x0005_eed5);
        let mut donor = SetAssocCache::new(config);
        for _ in 0..1_000 {
            donor.fill(rng.gen_range(0, 1 << 30) * 64);
        }
        let donor = donor.snapshot_lines();
        let mut cache = SetAssocCache::new(config);
        for round in 0..60 {
            // Streams of every length: some end soon after a restore,
            // leaving restored lines in sets no fill marked, and some
            // hold no restore, so only the fills' marks are tested.
            for _ in 0..rng.gen_range(0, 400) {
                apply(&mut cache, random_op(&mut rng, &config), &donor);
            }
            cache.reset();
            assert_eq!(
                cache.snapshot_lines(),
                fresh.snapshot_lines(),
                "round {round}: reset must equal a fresh cache"
            );
            let mut twin = SetAssocCache::new(config);
            for step in 0..1_000 {
                let op = random_op(&mut rng, &config);
                assert_eq!(
                    apply(&mut cache, op, &donor),
                    apply(&mut twin, op, &donor),
                    "round {round}, step {step}: {op:?}"
                );
            }
            cache.reset();
        }
    }

    #[test]
    fn tag_set_roundtrip() {
        let c = SetAssocCache::new(CacheConfig::new(64 * 1024, 4, 64, 2));
        for addr in [0u64, 0x1234_5678, 0x0dea_dbee_f000] {
            let aligned = line_addr(addr, 64);
            let set = c.set_index(addr);
            let tag = c.tag(addr);
            assert_eq!(c.line_base(set, tag), aligned);
        }
    }

    #[test]
    fn display_mentions_geometry() {
        let c = tiny();
        let s = c.to_string();
        assert!(s.contains("2-way"));
        assert!(s.contains("2 sets"));
    }
}
