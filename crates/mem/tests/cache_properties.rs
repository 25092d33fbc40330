//! Property tests: `SharedCache`, which keeps each set as one 64 B line of
//! `u32` tags plus a `u64` recency order word, against `RefCache`, the
//! split-array `u64` true-LRU stamp model that came before both it and the
//! 128 B set record, copied verbatim below as the oracle.
//!
//! Streams mix runs of lines that share one set (stride = sets × 64 B, more
//! lines than ways, so evictions follow recency), multi-line entries, random
//! addresses at any byte offset, `touch` calls that must change nothing,
//! and cores interleaved access by access, some beyond the pre-sized stat
//! range. Geometries cover every associativity in 1..=16 and set counts
//! from one upward, with sizes that are not powers of two.

use albatross_mem::cache::LINE_BYTES;
use albatross_mem::SharedCache;
use albatross_testkit::prelude::*;

/// The cache model as it stood before the record layout (verbatim, renamed).
#[derive(Debug)]
pub struct RefCache {
    sets: usize,
    ways: usize,
    /// Tag per (set, way); `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Last-use stamp per (set, way).
    stamps: Vec<u64>,
    clock: u64,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

const EMPTY: u64 = u64::MAX;

impl RefCache {
    /// Like [`Self::new`], but pre-sizes the per-core hit/miss statistics for
    /// `cores` cores so steady-state [`Self::access`] calls never allocate.
    /// Accesses from cores beyond `cores` still work — they grow the stat
    /// vectors through a cold path, exactly as [`Self::new`] always did.
    ///
    /// # Panics
    /// Panics when the geometry yields zero sets.
    pub fn with_cores(size_bytes: usize, ways: usize, cores: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let raw_sets = size_bytes / (LINE_BYTES * ways);
        assert!(raw_sets > 0, "cache too small for geometry");
        let sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        Self {
            sets,
            ways,
            tags: vec![EMPTY; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: vec![0; cores],
            misses: vec![0; cores],
        }
    }

    /// Performs an access from `core` to byte address `addr`.
    /// Returns `true` on hit. Misses install the line, evicting LRU.
    pub fn access(&mut self, core: usize, addr: u64) -> bool {
        let line = addr / LINE_BYTES as u64;
        let set = (line as usize) & (self.sets - 1);
        let tag = line / self.sets as u64;
        let base = set * self.ways;
        self.clock += 1;
        if core >= self.hits.len() {
            self.grow_stats(core);
        }

        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for w in 0..self.ways {
            let idx = base + w;
            if self.tags[idx] == tag {
                self.stamps[idx] = self.clock;
                self.hits[core] += 1;
                return true;
            }
            let stamp = if self.tags[idx] == EMPTY {
                0
            } else {
                self.stamps[idx]
            };
            if stamp < lru_stamp {
                lru_stamp = stamp;
                lru_way = w;
            }
        }
        let idx = base + lru_way;
        self.tags[idx] = tag;
        self.stamps[idx] = self.clock;
        self.misses[core] += 1;
        false
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
}

/// Where the synthetic tables start (`WorkingSet::new`), so tags are as
/// large as the pod's.
const TABLE_BASE: u64 = 4 << 30;

/// One stream element: `kind` picks the shape, `x` feeds the address and
/// `core` the accessing core.
type Op = (u8, u32, u8);

/// Geometry: raw set count, ways, slack bytes below the next whole set.
type Geometry = (usize, usize, usize);

fn run_against_oracle((raw_sets, ways, slack): Geometry, cores: usize, ops: &[Op]) {
    let size = raw_sets * ways * LINE_BYTES + slack % (ways * LINE_BYTES);
    let mut cache = SharedCache::with_cores(size, ways, cores);
    let mut oracle = RefCache::with_cores(size, ways, cores);
    let sets = oracle.sets as u64;
    let line = LINE_BYTES as u64;
    let stride = sets * line;
    // Two cores past the pre-sized range exercise the stat-growth path.
    let all_cores = cores + 2;
    let mut tally = vec![(0u64, 0u64); all_cores];
    let mut addrs = Vec::new();
    for (i, &(kind, x, core)) in ops.iter().enumerate() {
        let x = u64::from(x);
        addrs.clear();
        match kind % 4 {
            // A run of 1..=8 lines in one set, drawn from 2·ways + 1 lines
            // that map there, so recency decides every eviction.
            0 => {
                let set = x % sets;
                let candidates = 2 * ways as u64 + 1;
                for k in 0..(x >> 29) + 1 {
                    let pick = ((x >> 8) + k * (x >> 16 | 1)) % candidates;
                    addrs.push(TABLE_BASE + set * line + pick * stride);
                }
            }
            // A multi-line entry, as a table lookup charges it.
            1 => {
                let start = TABLE_BASE + (x % (6 * sets * ways as u64)) * line;
                for k in 0..(x >> 29) + 1 {
                    addrs.push(start + k * line);
                }
            }
            // One random byte anywhere in four times the capacity.
            2 => addrs.push(TABLE_BASE + x % (4 * oracle.sets * ways * LINE_BYTES) as u64),
            // A touch, which must change nothing: no access follows.
            _ => {
                let _ = cache.touch(TABLE_BASE + (x % (2 * ways as u64 + 1)) * stride);
                let _ = cache.touch(TABLE_BASE + x);
            }
        }
        let core = usize::from(core) % all_cores;
        for &addr in &addrs {
            let want = oracle.access(core, addr);
            assert_eq!(
                cache.access(core, addr),
                want,
                "op {i}: core {core} addr {addr:#x} ({sets} sets × {ways} ways)"
            );
            if want {
                tally[core].0 += 1;
            } else {
                tally[core].1 += 1;
            }
        }
    }
    for (core, &(hits, misses)) in tally.iter().enumerate() {
        let (oracle_hits, oracle_misses) = (
            oracle.hits.get(core).copied().unwrap_or(0),
            oracle.misses.get(core).copied().unwrap_or(0),
        );
        assert_eq!((oracle_hits, oracle_misses), (hits, misses), "core {core}");
        let rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        assert_eq!(
            cache.core_hit_rate(core).to_bits(),
            rate.to_bits(),
            "core {core}"
        );
    }
    assert_eq!(cache.total_hits(), oracle.hits.iter().sum::<u64>());
    assert_eq!(cache.total_misses(), oracle.misses.iter().sum::<u64>());
}

props! {
    #![cases(192)]

    /// Same hit or miss on every access, and the same per-core and total
    /// statistics, as the split-array model over arbitrary streams and
    /// geometries.
    fn record_cache_matches_split_array_model(
        geometry in (1usize..=70, 1usize..=16, any::<usize>()),
        cores in 1usize..=4,
        ops in vec_of((any::<u8>(), any::<u32>(), any::<u8>()), 1..300),
    ) {
        run_against_oracle(geometry, cores, &ops);
    }

    /// One set: every line competes for the same ways.
    fn single_set_matches_split_array_model(
        ways in 1usize..=16,
        ops in vec_of((any::<u8>(), any::<u32>(), any::<u8>()), 1..300),
    ) {
        run_against_oracle((1, ways, 0), 2, &ops);
    }
}
