//! The VM → NC (network container / physical host) mapping table.
//!
//! The largest exact-match table in the gateway: one entry per tenant VM,
//! mapping `(VNI, VM IP)` to the physical host (NC) that currently runs the
//! VM plus the encap parameters. On Sailfish this table's SRAM demand
//! saturated pipelines 1,3 (Tab. 1); on Albatross it lives in DRAM and can
//! grow with tenant count.

use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Where a VM lives and how to reach it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NcInfo {
    /// Physical host underlay address.
    pub nc_addr: Ipv4Addr,
    /// Tunnel id to encapsulate with (usually the tenant VNI).
    pub encap_vni: u32,
}

/// Exact-match `(vni, vm_ip)` → [`NcInfo`] map.
#[derive(Debug, Default)]
pub struct VmNcMap {
    entries: HashMap<(u32, Ipv4Addr), NcInfo>,
}

impl VmNcMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs or updates a VM's location. Returns the previous location
    /// when the VM migrated.
    pub fn insert(&mut self, vni: u32, vm_ip: Ipv4Addr, info: NcInfo) -> Option<NcInfo> {
        self.entries.insert((vni, vm_ip), info)
    }

    /// Looks up a VM.
    pub fn lookup(&self, vni: u32, vm_ip: Ipv4Addr) -> Option<NcInfo> {
        self.entries.get(&(vni, vm_ip)).copied()
    }

    /// Removes a VM (deprovisioning).
    pub fn remove(&mut self, vni: u32, vm_ip: Ipv4Addr) -> Option<NcInfo> {
        self.entries.remove(&(vni, vm_ip))
    }

    /// Number of VM entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nc(last: u8) -> NcInfo {
        NcInfo {
            nc_addr: Ipv4Addr::new(172, 16, 0, last),
            encap_vni: 100,
        }
    }

    #[test]
    fn insert_lookup_per_tenant() {
        let mut m = VmNcMap::new();
        m.insert(1, "10.0.0.5".parse().unwrap(), nc(1));
        m.insert(2, "10.0.0.5".parse().unwrap(), nc(2));
        // Same VM IP in two VPCs resolves independently — multi-tenancy.
        assert_eq!(m.lookup(1, "10.0.0.5".parse().unwrap()), Some(nc(1)));
        assert_eq!(m.lookup(2, "10.0.0.5".parse().unwrap()), Some(nc(2)));
        assert_eq!(m.lookup(3, "10.0.0.5".parse().unwrap()), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn vm_migration_updates_location() {
        let mut m = VmNcMap::new();
        m.insert(1, "10.0.0.9".parse().unwrap(), nc(1));
        let prev = m.insert(1, "10.0.0.9".parse().unwrap(), nc(7));
        assert_eq!(prev, Some(nc(1)));
        assert_eq!(m.lookup(1, "10.0.0.9".parse().unwrap()), Some(nc(7)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_deprovisions() {
        let mut m = VmNcMap::new();
        m.insert(5, "10.1.1.1".parse().unwrap(), nc(3));
        assert_eq!(m.remove(5, "10.1.1.1".parse().unwrap()), Some(nc(3)));
        assert!(m.is_empty());
    }
}
