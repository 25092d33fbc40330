//! Set-associative shared L3 cache model.
//!
//! The L3 is shared by all cores of a NUMA node (§4.2: "since L3 cache is
//! shared across cores, both RSS and PLB ultimately achieve similar
//! performance"), so the model keeps one tag store and per-core hit
//! statistics. Replacement is true LRU per set — simple and deterministic.
//!
//! # Storage
//!
//! Each set is one 64 B tag line in a single `Vec<u32>`, [`MAX_WAYS`] `u32`
//! tags, plus one `u64` order word in a second vector. A line's tag is
//! `(line >> log2(sets)) + 1`, so 0 marks an empty way and the tag table is
//! allocated zeroed, with no fill pass: its pages fault in only when a set
//! is first used. The first tag line starts on a 64 B host-line boundary,
//! so a set's tags occupy exactly one host line. With the production
//! geometry (192 MiB, 16-way, 64 B lines) the 196,608 raw sets round down
//! to 131,072: 2,097,152 ways, an effective 128 MiB, kept in 8 MiB of tags
//! and 1 MiB of order words.
//!
//! An order word is the set's recency order: nibble *i* is the way at rank
//! *i*, rank 0 the most recent. A hit finds its way's rank with one SWAR
//! zero-nibble test and moves it to the front; a miss fills the way at rank
//! `ways - 1` and moves it to the front. The initial word puts way 0 at the
//! LRU end, then way 1, and so on, and an empty way is never moved until
//! it is filled, so a miss fills the lowest-numbered empty way while the
//! set has one and the least recently used way after. Nibbles at ranks
//! `ways..16` hold `0xF`, which no way below 15 matches, and are never
//! moved. No clock is kept, so LRU is exact for any run length.
//!
//! [`SharedCache::touch`] reads a set's tag line and order word and changes
//! nothing. [`crate::MemorySystem::read_chain`] touches the set of every
//! line a lookup chain will charge before charging the first one, so the
//! host overlaps its own misses on the tag and order tables. Because
//! touching writes nothing, each access still sees exactly the state it
//! would have seen without the touches: the same hit or miss, the same
//! victim, the same statistics.

/// Cache line size in bytes.
pub const LINE_BYTES: usize = 64;

/// Highest associativity the model supports: a tag line holds 16 tags.
pub const MAX_WAYS: usize = 16;

/// `u32` words per 64 B host cache line.
const HOST_LINE_WORDS: usize = 64 / std::mem::size_of::<u32>();

/// One in every nibble of an order word.
const NIBBLE_ONES: u64 = 0x1111_1111_1111_1111;

/// A shared, set-associative, true-LRU cache with per-core hit statistics.
#[derive(Debug)]
pub struct SharedCache {
    sets: usize,
    /// `log2(sets)`.
    set_shift: u32,
    ways: usize,
    /// Bit `w` set for every way `w < ways`.
    way_mask: u32,
    /// One line of [`MAX_WAYS`] tags per set from word `base` on; a zero
    /// tag is an empty way.
    tags: Vec<u32>,
    /// Word offset of set 0's tag line, aligning every tag line to a 64 B
    /// host line.
    base: usize,
    /// One recency order per set: nibble *i* is the way at rank *i*.
    order: Vec<u64>,
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
        let tags = vec![0u32; sets * MAX_WAYS + HOST_LINE_WORDS];
        let misalign = tags.as_ptr() as usize % 64;
        let base = (64 - misalign) % 64 / std::mem::size_of::<u32>();
        // Way `ways - 1 - i` at rank `i`, so way 0 is least recent; ranks
        // from `ways` on hold 0xF.
        let initial = (0..MAX_WAYS).fold(0u64, |word, rank| {
            let way = ways.checked_sub(rank + 1).unwrap_or(0xF) as u64;
            word | (way << (4 * rank))
        });
        Self {
            sets,
            set_shift: sets.trailing_zeros(),
            ways,
            way_mask: u32::MAX >> (32 - ways),
            tags,
            base,
            order: vec![initial; sets],
            hits: vec![0; cores],
            misses: vec![0; cores],
        }
    }

    /// Effective capacity in bytes after set rounding.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }

    /// The set `line` maps to.
    fn set_of(&self, line: u64) -> usize {
        line as usize & (self.sets - 1)
    }

    /// Performs an access from `core` to byte address `addr`.
    /// Returns `true` on hit. Misses install the line, evicting LRU.
    ///
    /// # Panics
    /// Panics when `addr / LINE_BYTES >> log2(sets)` reaches `u32::MAX`:
    /// the line's tag would not fit the 32-bit tag.
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
        let set = self.set_of(line);
        let start = self.base + set * MAX_WAYS;
        let tags = &mut self.tags[start..start + MAX_WAYS];
        let order = &mut self.order[set];
        let hit = tags
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &t)| m | (u32::from(t == tag) << w))
            & self.way_mask;
        if hit != 0 {
            // The way's nibble is the one zero nibble of `order ^ way·ones`;
            // borrows only reach nibbles above it, so the lowest flagged
            // bit is exact.
            let x = *order ^ (u64::from(hit.trailing_zeros()) * NIBBLE_ONES);
            let zero = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
            *order = to_front(*order, zero.trailing_zeros() / 4);
            self.hits[core] += 1;
            return true;
        }
        let lru = self.ways as u32 - 1;
        tags[(*order >> (4 * lru)) as usize & 0xF] = tag;
        *order = to_front(*order, lru);
        self.misses[core] += 1;
        false
    }

    /// Reads the tag line and the order word of the set `addr` maps to and
    /// changes nothing. Returns a fold of the loaded words, which the caller
    /// passes to [`std::hint::black_box`] so the loads are kept.
    pub fn touch(&self, addr: u64) -> u64 {
        let set = self.set_of(addr / LINE_BYTES as u64);
        u64::from(self.tags[self.base + set * MAX_WAYS]) ^ self.order[set]
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

/// `order` with the way at `rank` moved to rank 0 and the ways at ranks
/// `0..rank` each one rank older; ranks above `rank` keep their ways.
fn to_front(order: u64, rank: u32) -> u64 {
    let at = 4 * rank;
    // Nibbles 0..=rank (all sixteen at rank 15, where the shift drops the
    // one bit).
    let through = (0x10u64 << at).wrapping_sub(1);
    (order & !through) | ((order << 4) & through) | ((order >> at) & 0xF)
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
    fn tag_lines_start_on_a_host_line() {
        for (size, ways) in [(64 * 1024, 8), (192 * 1024 * 1024, 16), (64, 1)] {
            let c = SharedCache::new(size, ways);
            assert_eq!(c.tags[c.base..].as_ptr() as usize % 64, 0);
            assert!(c.tags.len() >= c.base + c.sets * MAX_WAYS);
            assert_eq!(c.order.len(), c.sets);
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

    /// The order word must agree, access for access, with a move-to-front
    /// list per set, which is LRU by construction.
    #[test]
    fn order_word_matches_move_to_front_lists() {
        for ways in [1, 2, 3, 8, 16] {
            let sets = 4;
            let mut c = SharedCache::new(sets * ways * LINE_BYTES, ways);
            let mut lists: Vec<Vec<u64>> = vec![Vec::new(); sets];
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..20_000 {
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
                assert_eq!(c.access(core, addr), want, "ways {ways}, access {i}");
            }
            assert!(c.total_hits() > 0 && c.total_misses() > 0);
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
