//! Set-associative shared L3 cache model.
//!
//! The L3 is shared by all cores of a NUMA node (§4.2: "since L3 cache is
//! shared across cores, both RSS and PLB ultimately achieve similar
//! performance"), so the model keeps one tag store and per-core hit
//! statistics. Replacement is true LRU per set — simple and deterministic.
//!
//! # Storage
//!
//! Each set is one 128 B record in a single `Vec<u32>`: [`MAX_WAYS`] `u32`
//! tags, then [`MAX_WAYS`] `u32` last-use stamps. A line's tag is
//! `(line >> log2(sets)) + 1`, so 0 marks an empty way and the table is
//! allocated zeroed, with no fill pass: its pages fault in only when a set
//! is first used. The first record starts on a 64 B host-line boundary, so
//! a set occupies exactly two host lines, its tags and its stamps. With the
//! production geometry (192 MiB, 16-way, 64 B lines) the 196,608 raw sets
//! round down to 131,072: 2,097,152 ways, an effective 128 MiB, kept in a
//! 16 MiB record table.
//!
//! Stamps come from one `u32` access clock. A hit stamps the way; a miss
//! fills the first way with the smallest stamp, which is an empty way
//! (stamp 0) while the set has one and the least recently used way after.
//! Before the clock would wrap, a cold pass rewrites every set's live
//! stamps to their rank 1..=ways and restarts the clock at [`MAX_WAYS`].
//! Replacement only compares stamps within one set, so LRU stays exact for
//! any run length.
//!
//! [`SharedCache::touch`] reads a set's record and changes nothing.
//! [`crate::MemorySystem::read_chain`] touches the record of every line a
//! lookup chain will charge before charging the first one, so the host
//! overlaps its own misses on the record table. Because touching writes
//! nothing, each access still sees exactly the state it would have seen
//! without the touches: the same hit or miss, the same victim, the same
//! statistics.

/// Cache line size in bytes.
pub const LINE_BYTES: usize = 64;

/// Highest associativity the model supports: a set record holds 16 tags.
pub const MAX_WAYS: usize = 16;

/// `u32` words per set record: the tags, then the stamps.
const RECORD_WORDS: usize = 2 * MAX_WAYS;

/// `u32` words per 64 B host cache line.
const HOST_LINE_WORDS: usize = 64 / std::mem::size_of::<u32>();

/// A shared, set-associative, true-LRU cache with per-core hit statistics.
#[derive(Debug)]
pub struct SharedCache {
    sets: usize,
    /// `log2(sets)`.
    set_shift: u32,
    ways: usize,
    /// Bit `w` set for every way `w < ways`.
    way_mask: u32,
    /// One record per set from word `base` on; an all-zero record is an
    /// empty set.
    records: Vec<u32>,
    /// Word offset of set 0's record, aligning every record to a 64 B host
    /// line.
    base: usize,
    clock: u32,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl SharedCache {
    /// Creates a cache of `size_bytes` capacity and `ways` associativity.
    ///
    /// The set count is rounded down to a power of two for cheap indexing.
    ///
    /// # Panics
    /// Panics when `ways` is outside `1..=`[`MAX_WAYS`] or the geometry
    /// yields zero sets.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        Self::with_cores(size_bytes, ways, 0)
    }

    /// Like [`Self::new`], but pre-sizes the per-core hit/miss statistics for
    /// `cores` cores so steady-state [`Self::access`] calls never allocate.
    /// Accesses from cores beyond `cores` still work — they grow the stat
    /// vectors through a cold path, exactly as [`Self::new`] always did.
    ///
    /// # Panics
    /// Panics when `ways` is outside `1..=`[`MAX_WAYS`] or the geometry
    /// yields zero sets.
    pub fn with_cores(size_bytes: usize, ways: usize, cores: usize) -> Self {
        assert!(
            (1..=MAX_WAYS).contains(&ways),
            "associativity must be in 1..={MAX_WAYS}, got {ways}"
        );
        let raw_sets = size_bytes / (LINE_BYTES * ways);
        assert!(raw_sets > 0, "cache too small for geometry");
        let sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        // One spare host line of slack lets set 0 start on a 64 B boundary.
        let records = vec![0u32; sets * RECORD_WORDS + HOST_LINE_WORDS];
        let misalign = records.as_ptr() as usize % 64;
        let base = (64 - misalign) % 64 / std::mem::size_of::<u32>();
        Self {
            sets,
            set_shift: sets.trailing_zeros(),
            ways,
            way_mask: u32::MAX >> (32 - ways),
            records,
            base,
            clock: 0,
            hits: vec![0; cores],
            misses: vec![0; cores],
        }
    }

    /// Effective capacity in bytes after set rounding.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }

    /// Word offset of the record of the set `line` maps to.
    fn record_start(&self, line: u64) -> usize {
        self.base + (line as usize & (self.sets - 1)) * RECORD_WORDS
    }

    /// Performs an access from `core` to byte address `addr`.
    /// Returns `true` on hit. Misses install the line, evicting LRU.
    ///
    /// # Panics
    /// Panics when `addr / LINE_BYTES >> log2(sets)` reaches `u32::MAX`:
    /// the line's tag would not fit the record's 32-bit tag.
    pub fn access(&mut self, core: usize, addr: u64) -> bool {
        let line = addr / LINE_BYTES as u64;
        let high = line >> self.set_shift;
        assert!(
            high < u64::from(u32::MAX),
            "address {addr:#x} is beyond the 32-bit tag range of a {}-set cache",
            self.sets
        );
        let tag = high as u32 + 1;
        if core >= self.hits.len() {
            self.grow_stats(core);
        }
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        let (clock, ways, way_mask) = (self.clock, self.ways, self.way_mask);

        let start = self.record_start(line);
        let (tags, stamps) = self.records[start..start + RECORD_WORDS].split_at_mut(MAX_WAYS);
        let hit = tags
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &t)| m | (u32::from(t == tag) << w))
            & way_mask;
        if hit != 0 {
            stamps[hit.trailing_zeros() as usize] = clock;
            self.hits[core] += 1;
            return true;
        }
        let mut victim = 0;
        for w in 1..ways {
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        tags[victim] = tag;
        stamps[victim] = clock;
        self.misses[core] += 1;
        false
    }

    /// Reads the record of the set `addr` maps to — both of its host lines —
    /// and changes nothing. Returns a fold of the loaded words, which the
    /// caller passes to [`std::hint::black_box`] so the loads are kept.
    pub fn touch(&self, addr: u64) -> u32 {
        let start = self.record_start(addr / LINE_BYTES as u64);
        self.records[start] ^ self.records[start + MAX_WAYS]
    }

    /// Rewrites every set's live stamps to their rank 1..=ways and restarts
    /// the clock above every rank. Relative order within each set is all
    /// replacement reads, so no later hit, miss or victim changes.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let ways = self.ways;
        let end = self.base + self.sets * RECORD_WORDS;
        for record in self.records[self.base..end].chunks_exact_mut(RECORD_WORDS) {
            let stamps = &mut record[MAX_WAYS..MAX_WAYS + ways];
            let mut old = [0u32; MAX_WAYS];
            old[..ways].copy_from_slice(stamps);
            for (stamp, &own) in stamps.iter_mut().zip(&old) {
                if own != 0 {
                    let older = old[..ways].iter().filter(|&&o| o != 0 && o < own).count();
                    *stamp = older as u32 + 1;
                }
            }
        }
        self.clock = MAX_WAYS as u32;
    }

    /// Grows the per-core stat vectors for a core id beyond the pre-sized
    /// range. Out of line so the allocation never sits on the access fast
    /// path; with [`Self::with_cores`] sized correctly it is never called
    /// after construction.
    #[cold]
    #[inline(never)]
    fn grow_stats(&mut self, core: usize) {
        self.hits.resize(core + 1, 0);
        self.misses.resize(core + 1, 0);
    }

    /// Total hits across all cores.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across all cores.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Overall hit rate, or 0.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let h = self.total_hits();
        let m = self.total_misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Hit rate observed by one core.
    pub fn core_hit_rate(&self, core: usize) -> f64 {
        let h = self.hits.get(core).copied().unwrap_or(0);
        let m = self.misses.get(core).copied().unwrap_or(0);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Clears statistics (contents stay — useful for warmup-then-measure).
    pub fn reset_stats(&mut self) {
        self.hits.iter_mut().for_each(|h| *h = 0);
        self.misses.iter_mut().for_each(|m| *m = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rounds_to_power_of_two_sets() {
        let c = SharedCache::new(100 * 1024, 4);
        // 100 KiB / (64·4) = 400 sets → rounds down to 256.
        assert_eq!(c.capacity_bytes(), 256 * 4 * 64);
    }

    #[test]
    fn production_geometry_rounds_to_128_mib() {
        let c = SharedCache::new(192 * 1024 * 1024, 16);
        // 196,608 raw sets round down to 131,072 sets × 16 ways.
        assert_eq!(c.capacity_bytes(), 128 * 1024 * 1024);
        assert_eq!(c.sets, 131_072);
    }

    #[test]
    fn records_start_on_a_host_line() {
        for (size, ways) in [(64 * 1024, 8), (192 * 1024 * 1024, 16), (64, 1)] {
            let c = SharedCache::new(size, ways);
            assert_eq!(c.records[c.base..].as_ptr() as usize % 64, 0);
            assert!(c.records.len() >= c.base + c.sets * RECORD_WORDS);
        }
    }

    #[test]
    #[should_panic(expected = "associativity must be in 1..=16")]
    fn more_than_sixteen_ways_is_rejected() {
        let _ = SharedCache::new(1024 * 1024, 17);
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit tag range")]
    fn tags_never_alias_silently() {
        // One set: the tag is the whole line number.
        let mut c = SharedCache::new(64, 1);
        c.access(0, (u64::from(u32::MAX) - 1) * LINE_BYTES as u64);
        c.access(0, u64::from(u32::MAX) * LINE_BYTES as u64);
    }

    #[test]
    fn hit_after_install() {
        let mut c = SharedCache::new(64 * 1024, 8);
        assert!(!c.access(0, 0x1234));
        assert!(c.access(0, 0x1234));
        // Same line, different byte offset.
        assert!(c.access(0, 0x1234 ^ 0x7));
        assert_eq!(c.total_hits(), 2);
        assert_eq!(c.total_misses(), 1);
    }

    #[test]
    fn cache_is_shared_between_cores() {
        let mut c = SharedCache::new(64 * 1024, 8);
        assert!(!c.access(0, 0x40));
        // Core 1 hits the line core 0 installed — the shared-L3 property
        // behind Fig. 4's "PLB ≈ RSS" result.
        assert!(c.access(1, 0x40));
        assert_eq!(c.core_hit_rate(1), 1.0);
        assert_eq!(c.core_hit_rate(0), 0.0);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny direct-mapped-ish cache: 2 ways, few sets.
        let mut c = SharedCache::new(2 * 64 * 2, 2); // 2 sets × 2 ways
        let set_stride = 2 * 64; // addresses mapping to set 0
        let a = 0;
        let b = set_stride as u64;
        let x = 2 * set_stride as u64;
        assert!(!c.access(0, a));
        assert!(!c.access(0, b));
        // Touch a so b is LRU, then install x → evicts b.
        assert!(c.access(0, a));
        assert!(!c.access(0, x));
        assert!(c.access(0, a), "a must survive");
        assert!(!c.access(0, b), "b must have been evicted");
    }

    /// A cache whose clock starts just below `u32::MAX` renumbers its
    /// stamps several times during the stream and must still agree, access
    /// for access, with one whose clock never comes near wrapping, and both
    /// with a move-to-front list per set, which is LRU by construction.
    #[test]
    fn clock_wrap_keeps_lru_exact() {
        for ways in [1, 2, 3, 8, 16] {
            let sets = 4;
            let size = sets * ways * LINE_BYTES;
            let mut plain = SharedCache::new(size, ways);
            let mut wrapping = SharedCache::new(size, ways);
            wrapping.clock = u32::MAX - 37;
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sets];
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000 {
                // Jumping the clock forward keeps every stamp's order, so
                // each jump forces one more renumbering pass.
                if i % 2_500 == 0 {
                    wrapping.clock = wrapping.clock.max(u32::MAX - 11);
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Two more candidate lines per set than it has ways.
                let line = x % (sets * (ways + 2)) as u64;
                let core = (x >> 60) as usize % 3;
                let list = &mut lists[line as usize % sets];
                let want = match list.iter().position(|&l| l == line) {
                    Some(pos) => {
                        list.remove(pos);
                        true
                    }
                    None => {
                        list.truncate(ways - 1);
                        false
                    }
                };
                list.insert(0, line);
                let addr = line * LINE_BYTES as u64;
                assert_eq!(plain.access(core, addr), want, "ways {ways}, access {i}");
                assert_eq!(wrapping.access(core, addr), want, "ways {ways}, access {i}");
            }
            assert!(
                wrapping.clock < plain.clock,
                "the wrapping cache must renumber"
            );
            assert_eq!(plain.total_hits(), wrapping.total_hits());
            assert_eq!(plain.total_misses(), wrapping.total_misses());
            assert!(plain.total_hits() > 0 && plain.total_misses() > 0);
        }
    }

    #[test]
    fn touch_changes_nothing() {
        let mut touched = SharedCache::new(2 * 64 * 2, 2);
        let mut plain = SharedCache::new(2 * 64 * 2, 2);
        for addr in [0u64, 128, 0, 256, 128, 0, 64, 192, 320] {
            let _ = touched.touch(addr);
            let _ = touched.touch(addr + 128);
            assert_eq!(touched.access(0, addr), plain.access(0, addr));
        }
        assert_eq!(touched.total_hits(), plain.total_hits());
    }

    #[test]
    fn working_set_larger_than_cache_has_low_hit_rate() {
        // 64 KiB cache, cyclic sweep over 1 MiB: pure capacity misses.
        let mut c = SharedCache::new(64 * 1024, 8);
        for round in 0..4 {
            for line in 0..(1024 * 1024 / LINE_BYTES) {
                c.access(0, (line * LINE_BYTES) as u64);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        assert!(c.hit_rate() < 0.01, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = SharedCache::new(256 * 1024, 8);
        for round in 0..3 {
            for line in 0..(64 * 1024 / LINE_BYTES) {
                c.access(0, (line * LINE_BYTES) as u64);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        assert!(c.hit_rate() > 0.99, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn with_cores_matches_new_and_presizes_stats() {
        let mut lazy = SharedCache::new(64 * 1024, 8);
        let mut sized = SharedCache::with_cores(64 * 1024, 8, 4);
        for addr in [0x40u64, 0x80, 0x40, 0x1_0000] {
            for core in 0..4 {
                assert_eq!(lazy.access(core, addr), sized.access(core, addr));
            }
        }
        assert_eq!(lazy.total_hits(), sized.total_hits());
        assert_eq!(lazy.total_misses(), sized.total_misses());
        for core in 0..4 {
            assert_eq!(lazy.core_hit_rate(core), sized.core_hit_rate(core));
        }
        // A core beyond the pre-sized range still works via the cold path.
        sized.access(9, 0x40);
        assert_eq!(sized.core_hit_rate(9), 1.0);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = SharedCache::new(64 * 1024, 8);
        c.access(0, 0x80);
        c.reset_stats();
        assert_eq!(c.total_misses(), 0);
        assert!(c.access(0, 0x80), "line must still be cached");
    }
}
