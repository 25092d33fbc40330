//! Memory-system model for the Albatross server.
//!
//! §4.2 of the paper is a memory story: gateway forwarding tables occupy
//! *several GB* against ~200 MB of shared L3 cache, so table lookups hit L3
//! only 30–45% of the time, which (a) makes PLB and RSS perform within 1% of
//! each other (Fig. 4/5 — both are bound by the same shared-cache miss rate)
//! and (b) makes DRAM latency/frequency the dominant tuning knob (+8% from
//! 4800→5600 MHz). §7 adds the NUMA lessons: cross-NUMA placement costs 14%
//! on VPC-VPC, and Automatic NUMA Balancing causes latency bursts at 90%
//! load.
//!
//! This crate models exactly those mechanisms:
//!
//! * [`cache::SharedCache`] — a set-associative, true-LRU, shared L3 with
//!   per-core hit statistics.
//! * [`tables::WorkingSet`] — synthetic address-space layout of the gateway's
//!   forwarding tables, so lookups touch realistic cache-line sequences.
//! * [`dram::DramModel`] — hit/miss/remote access latencies parameterized by
//!   memory frequency.
//! * [`numa::NumaTopology`] / [`numa::NumaBalancing`] — node placement cost
//!   and the auto-balancing stall injector.
//! * [`MemorySystem`] — the facade the CPU-core model charges every table
//!   access through.
//! * [`flowtab::FlowTable`] / [`flowtab::ExpiryWheel`] — the CPS-grade flow
//!   table the stateful consumers (`gateway::flowstate`, `gateway::session`,
//!   `fpga::offload`) keep their real entries in: cache-line-bucketed open
//!   addressing with batched probes and amortized `O(expired)` expiry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod flowtab;
pub mod numa;
pub mod tables;

pub use cache::SharedCache;
pub use dram::DramModel;
pub use flowtab::{ExpiryWheel, FlowTable, InsertOutcome, SlotRef, WheelDecision};
pub use numa::{NumaBalancing, NumaTopology, Placement};
pub use tables::{TableId, WorkingSet};

/// The assembled memory hierarchy one NUMA node's cores see.
///
/// [`Self::read_chain`] is the hot-path entry point: given the accessing
/// core and a packet's lookup chain, it charges every line through the
/// shared cache and returns the latency, updating hit statistics.
/// [`Self::access`] charges one line.
#[derive(Debug)]
pub struct MemorySystem {
    cache: SharedCache,
    dram: DramModel,
    /// Extra latency per DRAM access when the accessing pod's memory is on
    /// the remote NUMA node (0 for intra-NUMA placement).
    remote_penalty_ns: u64,
    /// Small extra latency per cache *hit* under cross-NUMA placement:
    /// snoop/coherence traffic crossing the UPI (§7 lists "unnecessary
    /// overhead in maintaining cache coherence" among the cross-NUMA
    /// costs — the reason even a no-lookup workload degrades ~3%).
    remote_hit_penalty_ns: u64,
}

impl MemorySystem {
    /// Builds a memory system with the given cache and DRAM models and
    /// intra-NUMA placement.
    pub fn new(cache: SharedCache, dram: DramModel) -> Self {
        Self {
            cache,
            dram,
            remote_penalty_ns: 0,
            remote_hit_penalty_ns: 0,
        }
    }

    /// Configures placement: cross-NUMA placement charges the topology's
    /// remote penalty on every DRAM access and a small coherence cost on
    /// every hit.
    pub fn with_placement(mut self, topo: &NumaTopology, placement: Placement) -> Self {
        match placement {
            Placement::IntraNuma => {
                self.remote_penalty_ns = 0;
                self.remote_hit_penalty_ns = 0;
            }
            Placement::CrossNuma => {
                self.remote_penalty_ns = topo.remote_access_penalty_ns();
                self.remote_hit_penalty_ns = (topo.remote_access_penalty_ns() / 20).max(1);
            }
        }
        self
    }

    /// Performs one cached access from `core` to `addr`, returning latency
    /// in nanoseconds.
    pub fn access(&mut self, core: usize, addr: u64) -> u64 {
        if self.cache.access(core, addr) {
            self.dram.l3_hit_ns() + self.remote_hit_penalty_ns
        } else {
            self.dram.miss_ns() + self.remote_penalty_ns
        }
    }

    /// Charges a lookup chain and returns its summed latency. Each
    /// `(addr, entry_bytes)` step reads every cache line its entry spans
    /// (capped at 8 lines — entries are "hundreds of bytes", §4.2); steps
    /// are charged in order.
    ///
    /// Before the first charge, the chain reads the tag line and order word
    /// of every line it will charge through [`SharedCache::touch`], so the
    /// host overlaps its own misses on the cache model's tables instead of
    /// taking them one access at a time. Touching writes nothing, so every hit, miss, victim
    /// and latency is the one charging the lines one by one would give.
    pub fn read_chain(&mut self, core: usize, chain: &[(u64, u32)]) -> u64 {
        let mut fold = 0;
        for &(addr, entry_bytes) in chain {
            for line in entry_lines(addr, entry_bytes) {
                fold ^= self.cache.touch(line);
            }
        }
        std::hint::black_box(fold);
        let mut total = 0;
        for &(addr, entry_bytes) in chain {
            for line in entry_lines(addr, entry_bytes) {
                total += self.access(core, line);
            }
        }
        total
    }

    /// The shared cache (for hit-rate statistics).
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// The DRAM model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }
}

/// Addresses of the cache lines an entry of `entry_bytes` at `addr` spans,
/// at most 8.
fn entry_lines(addr: u64, entry_bytes: u32) -> impl Iterator<Item = u64> {
    let lines = entry_bytes.div_ceil(cache::LINE_BYTES as u32).clamp(1, 8);
    (0..u64::from(lines)).map(move |i| addr + i * cache::LINE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MemorySystem {
        MemorySystem::new(SharedCache::new(64 * 1024, 4), DramModel::new(4800))
    }

    #[test]
    fn repeated_access_hits_cache() {
        let mut m = small_system();
        let first = m.access(0, 0x1000);
        let second = m.access(0, 0x1000);
        assert!(first > second, "first access must miss, second must hit");
        assert_eq!(second, m.dram().l3_hit_ns());
    }

    #[test]
    fn cross_numa_placement_is_slower() {
        let topo = NumaTopology::albatross_server();
        let mut local = small_system().with_placement(&topo, Placement::IntraNuma);
        let mut remote = small_system().with_placement(&topo, Placement::CrossNuma);
        // Compulsory miss on both; remote must cost more.
        assert!(remote.access(0, 0x5000) > local.access(0, 0x5000));
    }

    #[test]
    fn entry_read_touches_spanning_lines() {
        let mut m = small_system();
        // 300-byte entry spans 5 lines; all miss initially.
        let cost = m.read_chain(0, &[(0, 300)]);
        assert_eq!(cost, 5 * m.dram().miss_ns());
        // Second read: all hit.
        let cost2 = m.read_chain(0, &[(0, 300)]);
        assert_eq!(cost2, 5 * m.dram().l3_hit_ns());
    }

    #[test]
    fn entry_line_count_is_capped() {
        let mut m = small_system();
        let cost = m.read_chain(0, &[(0x10_0000, 10_000)]);
        assert_eq!(cost, 8 * m.dram().miss_ns());
    }

    #[test]
    fn chain_charges_equal_line_by_line_accesses() {
        // 2 sets × 2 ways: the chain's lines fight over set 0, so a later
        // step evicts an earlier one and order matters.
        let cache = || SharedCache::new(2 * 2 * 64, 2);
        let mut chained = MemorySystem::new(cache(), DramModel::new(4800));
        let mut single = MemorySystem::new(cache(), DramModel::new(4800));
        let chain = [(0, 64), (256, 130), (128, 64), (0, 64), (512, 1), (256, 64)];
        for _ in 0..3 {
            let want: u64 = chain
                .iter()
                .flat_map(|&(addr, bytes)| entry_lines(addr, bytes))
                .map(|line| single.access(1, line))
                .sum();
            assert_eq!(chained.read_chain(1, &chain), want);
        }
        assert_eq!(chained.cache().total_hits(), single.cache().total_hits());
        assert_eq!(
            chained.cache().total_misses(),
            single.cache().total_misses()
        );
        assert_eq!(chained.read_chain(0, &[]), 0);
    }
}
