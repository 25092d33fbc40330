//! The basic pipeline: VLAN encap/decap and header-payload split
//! (appendix A).
//!
//! Two pieces matter to the experiments:
//!
//! * **VLAN steering** — uplink switches tag packets with the VLAN of the
//!   target VF; the basic pipeline strips the tag at ingress and re-applies
//!   it at egress ([`vlan_decap`]/[`vlan_encap`] operate on real frames).
//! * **Payload buffer** — in header-only mode the payload stays on the NIC.
//!   If the header times out in the reorder engine and comes back late, the
//!   payload may already have been released; then the header is dropped
//!   (§4.1 legal check). [`PayloadBuffer`] models exactly that lifecycle
//!   with byte-capacity accounting.

use std::collections::HashMap;

use albatross_packet::ether::{EtherType, EthernetFrame};
use albatross_packet::{ether, vlan, ParseError, VlanTag};

/// Strips an 802.1Q tag from a frame, returning `(vid, untagged_frame)`.
///
/// Returns `ParseError::Malformed` if the frame is not VLAN-tagged.
pub fn vlan_decap(frame: &[u8]) -> Result<(u16, Vec<u8>), ParseError> {
    let eth = EthernetFrame::new_checked(frame)?;
    if eth.ethertype() != EtherType::Vlan {
        return Err(ParseError::Malformed);
    }
    let tag = VlanTag::new_checked(&frame[ether::HEADER_LEN..])?;
    let vid = tag.vid();
    let inner_type = tag.inner_ethertype();
    let mut out = Vec::with_capacity(frame.len() - vlan::TAG_LEN);
    out.extend_from_slice(&frame[..12]); // MACs
    out.extend_from_slice(&u16::from(inner_type).to_be_bytes());
    out.extend_from_slice(&frame[ether::HEADER_LEN + vlan::TAG_LEN..]);
    Ok((vid, out))
}

/// Inserts an 802.1Q tag with `vid` into an untagged frame.
pub fn vlan_encap(frame: &[u8], vid: u16) -> Result<Vec<u8>, ParseError> {
    let eth = EthernetFrame::new_checked(frame)?;
    let inner_type = eth.ethertype();
    let mut out = Vec::with_capacity(frame.len() + vlan::TAG_LEN);
    out.extend_from_slice(&frame[..12]);
    out.extend_from_slice(&u16::from(EtherType::Vlan).to_be_bytes());
    let mut tag_bytes = [0u8; vlan::TAG_LEN];
    {
        let mut tag = VlanTag::new_unchecked(&mut tag_bytes[..]);
        tag.set_vid(vid);
        tag.set_inner_ethertype(inner_type);
    }
    out.extend_from_slice(&tag_bytes);
    out.extend_from_slice(&frame[ether::HEADER_LEN..]);
    Ok(out)
}

/// The NIC-resident payload store for header-only delivery.
///
/// Capacity-bounded: when full, new payloads are rejected and the packet
/// must fall back to full delivery. Payloads are released either on egress
/// rejoin or by the timeout reaper.
#[derive(Debug)]
pub struct PayloadBuffer {
    capacity_bytes: u64,
    used_bytes: u64,
    /// packet id → payload length.
    entries: HashMap<u64, u32>,
    rejected: u64,
    released_by_reaper: u64,
}

impl PayloadBuffer {
    /// Creates a buffer of `capacity_bytes`.
    ///
    /// # Panics
    /// Panics on zero capacity.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "payload buffer needs capacity");
        Self {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            rejected: 0,
            released_by_reaper: 0,
        }
    }

    /// Stores packet `id`'s payload of `len` bytes. Returns `false` when
    /// capacity is exhausted (caller falls back to full delivery).
    pub fn store(&mut self, id: u64, len: u32) -> bool {
        if self.used_bytes + u64::from(len) > self.capacity_bytes {
            self.rejected += 1;
            return false;
        }
        if self.entries.insert(id, len).is_none() {
            self.used_bytes += u64::from(len);
        }
        true
    }

    /// True if packet `id`'s payload is still retained (the legal-check
    /// probe for timed-out header-only packets).
    pub fn contains(&self, id: u64) -> bool {
        self.entries.contains_key(&id)
    }

    /// Takes packet `id`'s payload for egress rejoin. Returns the payload
    /// length, or `None` if already released (header must be dropped).
    pub fn take(&mut self, id: u64) -> Option<u32> {
        let len = self.entries.remove(&id)?;
        self.used_bytes -= u64::from(len);
        Some(len)
    }

    /// Reaper: force-releases packet `id` (timeout path).
    pub fn reap(&mut self, id: u64) {
        if let Some(len) = self.entries.remove(&id) {
            self.used_bytes -= u64::from(len);
            self.released_by_reaper += 1;
        }
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Stores rejected due to capacity.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Payloads force-released by the reaper.
    pub fn released_by_reaper(&self) -> u64 {
        self.released_by_reaper
    }

    /// Occupancy as a fraction of capacity.
    pub fn fill_fraction(&self) -> f64 {
        self.used_bytes as f64 / self.capacity_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::PacketBuilder;

    #[test]
    fn vlan_decap_encap_roundtrip() {
        let tagged = PacketBuilder::udp(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            100,
            200,
        )
        .vlan(33)
        .payload_len(20)
        .build();
        let (vid, untagged) = vlan_decap(&tagged).unwrap();
        assert_eq!(vid, 33);
        assert_eq!(untagged.len(), tagged.len() - vlan::TAG_LEN);
        // The untagged frame parses as plain IPv4.
        let parsed = albatross_packet::flow::parse_frame(&untagged).unwrap();
        assert_eq!(parsed.vlan, None);
        assert_eq!(parsed.tuple.dst_port, 200);
        // Re-encap restores the original bytes exactly.
        let retagged = vlan_encap(&untagged, vid).unwrap();
        assert_eq!(retagged, tagged);
    }

    #[test]
    fn decap_untagged_frame_fails() {
        let plain = PacketBuilder::udp(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1,
            2,
        )
        .build();
        assert_eq!(vlan_decap(&plain).unwrap_err(), ParseError::Malformed);
    }

    #[test]
    fn payload_buffer_lifecycle() {
        let mut pb = PayloadBuffer::new(10_000);
        assert!(pb.store(1, 4_000));
        assert!(pb.store(2, 4_000));
        assert_eq!(pb.used_bytes(), 8_000);
        assert!(pb.contains(1));
        // Full: third store rejected.
        assert!(!pb.store(3, 4_000));
        assert_eq!(pb.rejected(), 1);
        // Egress rejoin frees space.
        assert_eq!(pb.take(1), Some(4_000));
        assert!(!pb.contains(1));
        assert!(pb.store(3, 4_000));
        // Double-take returns None (payload already released → drop header).
        assert_eq!(pb.take(1), None);
    }

    #[test]
    fn reaper_releases_and_counts() {
        let mut pb = PayloadBuffer::new(1_000);
        pb.store(7, 500);
        pb.reap(7);
        assert_eq!(pb.used_bytes(), 0);
        assert_eq!(pb.released_by_reaper(), 1);
        pb.reap(7); // idempotent
        assert_eq!(pb.released_by_reaper(), 1);
    }

    #[test]
    fn duplicate_store_does_not_double_count() {
        let mut pb = PayloadBuffer::new(1_000);
        assert!(pb.store(1, 300));
        assert!(pb.store(1, 300));
        assert_eq!(pb.used_bytes(), 300);
    }

    #[test]
    fn fill_fraction() {
        let mut pb = PayloadBuffer::new(1_000);
        pb.store(1, 250);
        assert!((pb.fill_fraction() - 0.25).abs() < 1e-12);
    }
}
