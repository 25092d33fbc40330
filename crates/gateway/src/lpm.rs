//! Longest-prefix-match routing table.
//!
//! The VXLAN routing table is the capacity headline of Tab. 6: Albatross
//! holds >10 M LPM rules in DRAM where Sailfish's SRAM caps at ~0.2 M and
//! DPUs lack LPM resources entirely (§2.2). The implementation is a
//! per-prefix-length hash scheme: one compact map per length, probed from
//! /32 downward. Lookups are O(33) hash probes worst case, memory is ~10
//! bytes per route — both properties the >10 M scale test exercises.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// An IPv4 prefix (address + length) with host bits guaranteed zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    bits: u32,
    len: u8,
}

impl Prefix {
    /// Creates a prefix, zeroing host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        let raw = u32::from(addr);
        let bits = if len == 0 {
            0
        } else {
            raw & (u32::MAX << (32 - len))
        };
        Self { bits, len }
    }

    /// Prefix length.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is the default route, not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the default route `0.0.0.0/0`.
    pub fn is_default(&self) -> bool {
        self.len == 0
    }

    /// Network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// True when `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        (u32::from(addr) & (u32::MAX << (32 - self.len))) == self.bits
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// A longest-prefix-match table mapping prefixes to a `u32` next-hop id.
#[derive(Debug)]
pub struct LpmTable {
    /// maps[len] : masked address → next hop.
    maps: [HashMap<u32, u32>; 33],
    /// Bit `l` set iff `maps[l]` holds at least one route. Lookups walk the
    /// set bits from /32 downward instead of scanning all 33 maps — with the
    /// handful of populated lengths a real RIB has, that turns the O(33)
    /// sweep into O(populated lengths).
    populated: u64,
    len: usize,
}

impl Default for LpmTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LpmTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            maps: std::array::from_fn(|_| HashMap::new()),
            populated: 0,
            len: 0,
        }
    }

    /// Inserts or replaces a route. Returns the previous next hop, if any.
    pub fn insert(&mut self, prefix: Prefix, next_hop: u32) -> Option<u32> {
        let prev = self.maps[prefix.len as usize].insert(prefix.bits, next_hop);
        self.populated |= 1u64 << prefix.len;
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes a route, returning its next hop if present.
    pub fn remove(&mut self, prefix: Prefix) -> Option<u32> {
        let prev = self.maps[prefix.len as usize].remove(&prefix.bits);
        if prev.is_some() {
            self.len -= 1;
            if self.maps[prefix.len as usize].is_empty() {
                self.populated &= !(1u64 << prefix.len);
            }
        }
        prev
    }

    /// The populated-length bitmap: bit `l` set iff any `/l` route exists.
    pub fn populated_lengths(&self) -> u64 {
        self.populated
    }

    /// Longest-prefix lookup, counting hash probes into `probes`.
    #[inline]
    fn lookup_counted(&self, raw: u32, probes: &mut u32) -> Option<u32> {
        let mut bits = self.populated & !1;
        while bits != 0 {
            let len = 63 - bits.leading_zeros();
            bits &= !(1u64 << len);
            let key = raw & (u32::MAX << (32 - len));
            *probes += 1;
            if let Some(&nh) = self.maps[len as usize].get(&key) {
                return Some(nh);
            }
        }
        if self.populated & 1 != 0 {
            *probes += 1;
            return self.maps[0].get(&0).copied();
        }
        None
    }

    /// Longest-prefix lookup.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<u32> {
        let mut probes = 0;
        self.lookup_counted(u32::from(addr), &mut probes)
    }

    /// [`Self::lookup`] returning `(next_hop, hash probes performed)` — the
    /// counting shim the probe-budget tests (and capacity ledgers) use to
    /// pin that only populated prefix lengths are visited.
    pub fn lookup_probes(&self, addr: Ipv4Addr) -> (Option<u32>, u32) {
        let mut probes = 0;
        let nh = self.lookup_counted(u32::from(addr), &mut probes);
        (nh, probes)
    }

    /// Exact-match lookup of a specific prefix.
    pub fn get(&self, prefix: Prefix) -> Option<u32> {
        self.maps[prefix.len as usize].get(&prefix.bits).copied()
    }

    /// Number of routes installed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str, len: u8) -> Prefix {
        Prefix::new(s.parse().unwrap(), len)
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = LpmTable::new();
        t.insert(p("10.0.0.0", 8), 1);
        t.insert(p("10.1.0.0", 16), 2);
        t.insert(p("10.1.2.0", 24), 3);
        t.insert(p("0.0.0.0", 0), 99);
        assert_eq!(t.lookup("10.1.2.3".parse().unwrap()), Some(3));
        assert_eq!(t.lookup("10.1.9.9".parse().unwrap()), Some(2));
        assert_eq!(t.lookup("10.200.0.1".parse().unwrap()), Some(1));
        assert_eq!(t.lookup("192.168.0.1".parse().unwrap()), Some(99));
    }

    #[test]
    fn no_default_route_means_miss() {
        let mut t = LpmTable::new();
        t.insert(p("10.0.0.0", 8), 1);
        assert_eq!(t.lookup("11.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn host_routes_match_exactly() {
        let mut t = LpmTable::new();
        t.insert(p("10.0.0.5", 32), 7);
        t.insert(p("10.0.0.0", 24), 1);
        assert_eq!(t.lookup("10.0.0.5".parse().unwrap()), Some(7));
        assert_eq!(t.lookup("10.0.0.6".parse().unwrap()), Some(1));
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = LpmTable::new();
        assert_eq!(t.insert(p("10.0.0.0", 24), 1), None);
        assert_eq!(t.insert(p("10.0.0.0", 24), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0", 24)), Some(2));
        assert_eq!(t.remove(p("10.0.0.0", 24)), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(p("10.0.0.0", 24)), None);
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let a = p("10.1.2.3", 16);
        let b = p("10.1.0.0", 16);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "10.1.0.0/16");
        assert!(a.contains("10.1.255.255".parse().unwrap()));
        assert!(!a.contains("10.2.0.0".parse().unwrap()));
    }

    #[test]
    fn default_prefix_contains_everything() {
        let d = p("0.0.0.0", 0);
        assert!(d.is_default());
        assert!(d.contains("255.255.255.255".parse().unwrap()));
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn overlong_prefix_rejected() {
        let _ = p("10.0.0.0", 33);
    }

    #[test]
    fn probe_count_tracks_populated_lengths_only() {
        let mut t = LpmTable::new();
        assert_eq!(t.lookup_probes("10.0.0.1".parse().unwrap()), (None, 0));

        t.insert(p("10.1.2.0", 24), 3);
        t.insert(p("10.1.0.0", 16), 2);
        t.insert(p("0.0.0.0", 0), 99);
        assert_eq!(t.populated_lengths(), (1 << 24) | (1 << 16) | 1);
        // A /24 hit stops after one probe; a /16 hit needs two; a full miss
        // probes both lengths plus the default route — never all 33 maps.
        assert_eq!(t.lookup_probes("10.1.2.9".parse().unwrap()), (Some(3), 1));
        assert_eq!(t.lookup_probes("10.1.9.9".parse().unwrap()), (Some(2), 2));
        assert_eq!(
            t.lookup_probes("192.168.0.1".parse().unwrap()),
            (Some(99), 3)
        );

        // Removing the last /16 route clears its bit and its probe.
        t.remove(p("10.1.0.0", 16));
        assert_eq!(t.populated_lengths(), (1 << 24) | 1);
        assert_eq!(
            t.lookup_probes("192.168.0.1".parse().unwrap()),
            (Some(99), 2)
        );

        // Removing one of two same-length routes keeps the bit (and probe).
        t.insert(p("10.1.3.0", 24), 4);
        t.remove(p("10.1.2.0", 24));
        assert_eq!(t.populated_lengths(), (1 << 24) | 1);
        assert_eq!(t.lookup_probes("10.1.3.7".parse().unwrap()), (Some(4), 1));

        // Dropping the default route leaves misses probe-free once no
        // lengths remain populated.
        t.remove(p("10.1.3.0", 24));
        t.remove(p("0.0.0.0", 0));
        assert_eq!(t.populated_lengths(), 0);
        assert_eq!(t.lookup_probes("10.1.3.7".parse().unwrap()), (None, 0));
    }

    #[test]
    fn hundred_thousand_routes_lookup_correctly() {
        // Scale sanity (the >10M check lives in the Tab. 6 bench where the
        // memory budget is accounted): 100K /24s + spot checks.
        let mut t = LpmTable::new();
        for i in 0..100_000u32 {
            let addr = Ipv4Addr::from(0x0A00_0000 | (i << 8));
            t.insert(Prefix::new(addr, 24), i);
        }
        assert_eq!(t.len(), 100_000);
        for i in (0..100_000u32).step_by(997) {
            let probe = Ipv4Addr::from(0x0A00_0000 | (i << 8) | 0x42);
            assert_eq!(t.lookup(probe), Some(i));
        }
    }
}
