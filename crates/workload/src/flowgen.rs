//! Flow-set generation.
//!
//! A [`FlowSet`] is a deterministic population of distinct 5-tuples for one
//! tenant (or one service mix). The evaluation's standard population is
//! 500K concurrent flows per pod (§6).

use std::collections::HashSet;
use std::net::Ipv4Addr;

use albatross_packet::flow::IpProtocol;
use albatross_packet::{FiveTuple, PacketBuilder};
use albatross_sim::det::BuildDetFastHasher;
use albatross_sim::SimRng;

/// A deterministic set of distinct flows.
#[derive(Debug, Clone)]
pub struct FlowSet {
    flows: Vec<FiveTuple>,
    vni: Option<u32>,
}

impl FlowSet {
    /// Generates `n` distinct UDP flows for tenant `vni`, seeded by `seed`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn generate(n: usize, vni: Option<u32>, seed: u64) -> Self {
        assert!(n > 0, "a flow set needs at least one flow");
        let mut rng = SimRng::seed_from(seed);
        // Membership only: the flows keep the order the stream draws them.
        let mut seen = HashSet::with_capacity_and_hasher(n, BuildDetFastHasher);
        let mut flows = Vec::with_capacity(n);
        while flows.len() < n {
            let tuple = FiveTuple {
                src_ip: Ipv4Addr::from(0x0A00_0000 | (rng.below(1 << 24) as u32)),
                dst_ip: Ipv4Addr::from(0xAC10_0000 | (rng.below(1 << 20) as u32)),
                src_port: 1024 + rng.below(64_000) as u16,
                dst_port: 1024 + rng.below(64_000) as u16,
                protocol: IpProtocol::Udp,
            };
            if seen.insert(tuple) {
                flows.push(tuple);
            }
        }
        Self { flows, vni }
    }

    /// A single-flow set (the heavy hitter of Fig. 8 is one flow).
    pub fn single(tuple: FiveTuple, vni: Option<u32>) -> Self {
        Self {
            flows: vec![tuple],
            vni,
        }
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when empty (unreachable by construction).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Tenant VNI of this set.
    pub fn vni(&self) -> Option<u32> {
        self.vni
    }

    /// Flow `i` (wrapping).
    pub fn flow(&self, i: usize) -> FiveTuple {
        self.flows[i % self.flows.len()]
    }

    /// Uniformly random flow from the set.
    pub fn sample(&self, rng: &mut SimRng) -> FiveTuple {
        self.flows[rng.below(self.flows.len() as u64) as usize]
    }

    /// Materializes flow `i` as a real wire frame of `len_bytes` total
    /// (VXLAN-encapsulated when the set has a VNI).
    pub fn frame(&self, i: usize, len_bytes: usize) -> Vec<u8> {
        let t = self.flow(i);
        let builder = match self.vni {
            Some(vni) => {
                let overhead = 14 + 20 + 8 + 8; // eth+ip+udp+vxlan
                let inner = len_bytes.saturating_sub(overhead).max(14);
                PacketBuilder::udp(
                    t.src_ip,
                    t.dst_ip,
                    t.src_port,
                    albatross_packet::vxlan::UDP_PORT,
                )
                .vxlan(vni, inner)
            }
            None => {
                let overhead = 14 + 20 + 8;
                let payload = len_bytes.saturating_sub(overhead);
                PacketBuilder::udp(t.src_ip, t.dst_ip, t.src_port, t.dst_port).payload_len(payload)
            }
        };
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::parse_frame;

    #[test]
    fn flows_are_distinct_and_deterministic() {
        let a = FlowSet::generate(10_000, Some(7), 42);
        let b = FlowSet::generate(10_000, Some(7), 42);
        assert_eq!(a.len(), 10_000);
        let set: std::collections::HashSet<_> = (0..a.len()).map(|i| a.flow(i)).collect();
        assert_eq!(set.len(), 10_000, "all flows distinct");
        for i in [0, 17, 9_999] {
            assert_eq!(a.flow(i), b.flow(i), "same seed → same flows");
        }
    }

    /// `generate` keeps the first occurrence of each drawn tuple in draw
    /// order, exactly as deduplicating the same stream through an ordered
    /// set does.
    #[test]
    fn generate_matches_an_ordered_set_reference() {
        for (n, seed) in [(1, 0), (7, 1), (1_000, 2), (20_000, 3), (50_000, 0xF00D)] {
            let mut rng = SimRng::seed_from(seed);
            let mut seen = std::collections::BTreeSet::new();
            let mut want = Vec::with_capacity(n);
            while want.len() < n {
                let tuple = FiveTuple {
                    src_ip: Ipv4Addr::from(0x0A00_0000 | (rng.below(1 << 24) as u32)),
                    dst_ip: Ipv4Addr::from(0xAC10_0000 | (rng.below(1 << 20) as u32)),
                    src_port: 1024 + rng.below(64_000) as u16,
                    dst_port: 1024 + rng.below(64_000) as u16,
                    protocol: IpProtocol::Udp,
                };
                // Every drawn tuple is UDP, so the key leaves the protocol out.
                let key = (tuple.src_ip, tuple.dst_ip, tuple.src_port, tuple.dst_port);
                if seen.insert(key) {
                    want.push(tuple);
                }
            }
            let got = FlowSet::generate(n, None, seed);
            assert!((0..n).map(|i| got.flow(i)).eq(want), "n {n}, seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FlowSet::generate(100, None, 1);
        let b = FlowSet::generate(100, None, 2);
        assert!((0..100).any(|i| a.flow(i) != b.flow(i)));
    }

    #[test]
    fn flow_index_wraps() {
        let a = FlowSet::generate(10, None, 3);
        assert_eq!(a.flow(0), a.flow(10));
    }

    #[test]
    fn vxlan_frame_parses_with_vni() {
        let a = FlowSet::generate(4, Some(0x1234), 5);
        let frame = a.frame(0, 256);
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.vni, Some(0x1234));
        assert_eq!(frame.len(), 256);
    }

    #[test]
    fn plain_frame_has_requested_length() {
        let a = FlowSet::generate(4, None, 6);
        let frame = a.frame(1, 128);
        assert_eq!(frame.len(), 128);
        let p = parse_frame(&frame).unwrap();
        assert_eq!(p.vni, None);
        assert_eq!(p.tuple, a.flow(1));
    }

    #[test]
    fn sample_stays_in_set() {
        let a = FlowSet::generate(50, None, 7);
        let mut rng = SimRng::seed_from(8);
        let all: std::collections::HashSet<_> = (0..50).map(|i| a.flow(i)).collect();
        for _ in 0..200 {
            assert!(all.contains(&a.sample(&mut rng)));
        }
    }
}
