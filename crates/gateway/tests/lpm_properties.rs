//! Property tests: the LPM table agrees with a naive reference on
//! arbitrary route sets and probes.

use std::net::Ipv4Addr;

use albatross_gateway::lpm::{LpmTable, Prefix};
use albatross_testkit::prelude::*;

/// Naive reference: linear scan for the longest matching prefix.
fn reference_lookup(routes: &[(Prefix, u32)], addr: Ipv4Addr) -> Option<u32> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|&(_, nh)| nh)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).map(|(bits, len)| Prefix::new(Ipv4Addr::from(bits), len))
}

props! {
    #![cases(128)]

    fn lpm_matches_naive_reference(
        routes in vec_of((arb_prefix(), any::<u32>()), 0..64),
        probes in vec_of(any::<u32>(), 1..32),
    ) {
        let mut table = LpmTable::new();
        // Last write wins for duplicate prefixes — mirror that in the
        // reference by deduplicating keeping the last.
        let mut dedup: Vec<(Prefix, u32)> = Vec::new();
        for &(p, nh) in &routes {
            table.insert(p, nh);
            dedup.retain(|(q, _)| *q != p);
            dedup.push((p, nh));
        }
        assert_eq!(table.len(), dedup.len());
        for &probe in &probes {
            let addr = Ipv4Addr::from(probe);
            assert_eq!(
                table.lookup(addr),
                reference_lookup(&dedup, addr),
                "probe {}", addr
            );
        }
    }

    fn remove_restores_previous_behaviour(
        keep in arb_prefix(),
        remove in arb_prefix(),
        probes in vec_of(any::<u32>(), 1..16),
    ) {
        assume!(keep != remove);
        let mut with_both = LpmTable::new();
        with_both.insert(keep, 1);
        with_both.insert(remove, 2);
        with_both.remove(remove);
        let mut only_keep = LpmTable::new();
        only_keep.insert(keep, 1);
        for &probe in &probes {
            let addr = Ipv4Addr::from(probe);
            assert_eq!(with_both.lookup(addr), only_keep.lookup(addr));
        }
    }

    fn prefix_contains_iff_masked_equal(bits in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let p = Prefix::new(Ipv4Addr::from(bits), len);
        let mask = if len == 0 { 0u32 } else { u32::MAX << (32 - len) };
        let expected = (probe & mask) == (bits & mask);
        assert_eq!(p.contains(Ipv4Addr::from(probe)), expected);
    }

    fn lookup_probe_count_bounded_by_populated_lengths(
        routes in vec_of((arb_prefix(), any::<u32>()), 0..32),
        probe in any::<u32>(),
    ) {
        let mut table = LpmTable::new();
        for &(p, nh) in &routes {
            table.insert(p, nh);
        }
        let (nh, probes_used) = table.lookup_probes(Ipv4Addr::from(probe));
        assert_eq!(nh, table.lookup(Ipv4Addr::from(probe)));
        let populated = table.populated_lengths().count_ones();
        assert!(
            probes_used <= populated,
            "{probes_used} probes > {populated} populated lengths"
        );
        if nh.is_none() {
            // A miss must have consulted every populated length.
            assert_eq!(probes_used, populated);
        }
    }
}
