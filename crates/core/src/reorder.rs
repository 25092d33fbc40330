//! The `plb_reorder` engine: FIFO, BUF and BITMAP (§4.1, Fig. 3).
//!
//! One [`ReorderQueue`] models one order-preserving queue. Three structures
//! of equal depth (4K entries in production):
//!
//! * **FIFO** — reorder info (`psn`, ingress timestamp) appended at packet
//!   admission; a packet may only be transmitted in order once its info
//!   reaches the FIFO head.
//! * **BUF** — packets returned by the GW pod, indexed by `psn[11:0]`.
//! * **BITMAP** — the lightweight mirror (valid bit + PSN) used for the
//!   order check at FPGA clock rate.
//!
//! The **legal check** (CPU-return path) examines *only* `psn[11:0]`: the
//! return is legal iff that 12-bit value falls inside the live FIFO window.
//! A long-timed-out packet can alias back into the window — it then passes
//! the legal check and is caught later by the **reorder check** as a PSN
//! mismatch (case 3). The reorder check runs the paper's four cases:
//!
//! 1. head queued > 100 µs → release directly (HOL timeout),
//! 2. valid bit 0 → keep waiting,
//! 3. valid but PSN mismatch → best-effort transmit the aliased packet,
//! 4. valid and PSN match → transmit in order.
//!
//! The **drop flag** (HOL countermeasure #2): a GW pod that drops a packet
//! (ACL/rate limit) returns only its meta with the drop flag set; the engine
//! releases the FIFO/BUF/BITMAP resources immediately instead of letting the
//! slot time out at the head.

use albatross_sim::SimTime;

use albatross_fpga::pkt::{DeliveryMode, NicPacket};

/// Production depth of each of FIFO/BUF/BITMAP.
pub const PRODUCTION_DEPTH: usize = 4096;

/// Production head timeout: 100 µs (§4.1 case 1).
pub const PRODUCTION_TIMEOUT_NS: u64 = 100_000;

/// Configuration of one reorder queue.
#[derive(Debug, Clone)]
pub struct ReorderConfig {
    /// FIFO/BUF/BITMAP depth. Must be a power of two (hardware indexes BUF
    /// with `psn[11:0]`-style masking).
    pub depth: usize,
    /// Head-of-line timeout in nanoseconds.
    pub timeout_ns: u64,
}

impl Default for ReorderConfig {
    fn default() -> Self {
        Self {
            depth: PRODUCTION_DEPTH,
            timeout_ns: PRODUCTION_TIMEOUT_NS,
        }
    }
}

/// Outcome of the legal check on a CPU-returned packet.
#[derive(Debug)]
pub enum CpuReturnOutcome {
    /// PSN fell inside the FIFO window: buffered for in-order release.
    Accepted,
    /// PSN outside the window (timed out): transmitted immediately,
    /// best-effort, without reordering.
    BestEffort(NicPacket),
    /// PSN outside the window and the packet was header-only with its
    /// payload already released from the NIC buffer: header dropped.
    HeaderDropped,
    /// Drop-flagged return for an already-released slot: nothing to do.
    AlreadyReleased,
    /// Legal return into an already-occupied BUF/BITMAP slot (a duplicate
    /// CPU return, or a timed-out PSN aliasing onto a buffered one). The
    /// new return takes the slot; the previous occupant — which the old
    /// code silently leaked — is evicted for best-effort transmission
    /// (`None` when it was a drop-flagged return holding no packet).
    AcceptedDuplicate(Option<NicPacket>),
}

/// A release emitted by the reorder check.
#[derive(Debug)]
pub enum ReorderRelease {
    /// Case 4: transmitted in order.
    InOrder(NicPacket),
    /// Case 3: an aliased (timed-out, legal-check-passing) packet sent
    /// best-effort.
    BestEffortAlias(NicPacket),
    /// Case 1: head timed out and its reorder info was released; the packet
    /// itself may still return later (then handled best-effort).
    TimedOut {
        /// PSN whose reorder info was released.
        psn: u32,
    },
    /// A drop-flagged slot released without transmission.
    Dropped {
        /// PSN of the dropped packet.
        psn: u32,
    },
}

/// Counters for one reorder queue.
#[derive(Debug, Clone, Default)]
pub struct ReorderStats {
    /// Packets admitted at ingress (reorder info enqueued).
    pub admitted: u64,
    /// Ingress admissions refused because the FIFO was full.
    pub ingress_full_drops: u64,
    /// Case-4 in-order transmissions.
    pub in_order: u64,
    /// Case-1 head timeouts (each is one HOL event).
    pub hol_timeouts: u64,
    /// Case-3 aliased best-effort transmissions.
    pub alias_best_effort: u64,
    /// Legal-check failures transmitted best-effort.
    pub late_best_effort: u64,
    /// Header-only legal-check failures whose payload was gone.
    pub headers_dropped: u64,
    /// Slots released by the drop flag (HOL events avoided).
    pub drop_flag_releases: u64,
    /// Drop-flagged returns of already-timed-out packets that aliased into
    /// the live window (released silently; extremely rare).
    pub alias_drop_releases: u64,
    /// Legal CPU returns that found their BUF/BITMAP slot already occupied
    /// (duplicate return or in-window aliasing); the previous occupant is
    /// evicted best-effort instead of being silently overwritten.
    pub duplicate_returns: u64,
    /// Peak FIFO occupancy.
    pub max_occupancy: usize,
}

impl ReorderStats {
    /// Packets delivered out of their arrival order (disordering rate
    /// numerator for Fig. 11).
    pub fn disordered(&self) -> u64 {
        self.alias_best_effort + self.late_best_effort
    }
}

#[derive(Debug, Clone, Copy)]
struct ReorderInfo {
    psn: u32,
    enqueued: SimTime,
}

#[derive(Debug, Clone, Copy, Default)]
struct BitmapEntry {
    valid: bool,
    psn: u32,
    dropped: bool,
}

/// One order-preserving queue (FIFO + BUF + BITMAP of equal depth).
#[derive(Debug)]
pub struct ReorderQueue {
    mask: u32,
    timeout_ns: u64,
    /// Live reorder infos; `fifo[0]` is the head. Bounded by `depth`.
    fifo: std::collections::VecDeque<ReorderInfo>,
    /// Next PSN to assign (tail pointer); monotonically increasing, wraps
    /// at u32.
    next_psn: u32,
    buf: Vec<Option<NicPacket>>,
    bitmap: Vec<BitmapEntry>,
    stats: ReorderStats,
}

impl ReorderQueue {
    /// Creates a queue from `config`.
    ///
    /// # Panics
    /// Panics unless the depth is a power of two of at least 2.
    pub fn new(config: ReorderConfig) -> Self {
        assert!(
            config.depth.is_power_of_two() && config.depth >= 2,
            "depth must be a power of two (hardware masks psn bits)"
        );
        Self {
            mask: (config.depth - 1) as u32,
            timeout_ns: config.timeout_ns,
            fifo: std::collections::VecDeque::with_capacity(config.depth),
            next_psn: 0,
            buf: vec![None; config.depth],
            bitmap: vec![BitmapEntry::default(); config.depth],
            stats: ReorderStats::default(),
        }
    }

    /// Queue depth.
    pub fn depth(&self) -> usize {
        self.mask as usize + 1
    }

    /// Current FIFO occupancy.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ReorderStats {
        &self.stats
    }

    /// BRAM bits this queue's three structures consume, for the Tab. 5
    /// ledger: FIFO entry = 32 b PSN + 48 b timestamp; BUF entry = a
    /// descriptor slot (meta 128 b + pointer into the shared payload
    /// buffer + control ≈ 288 b — packet bytes themselves live in the
    /// basic pipeline's payload buffer, which Tab. 5 accounts separately);
    /// BITMAP entry = 1 valid bit + 32 b PSN.
    pub fn bram_bits(&self) -> u64 {
        let depth = self.depth() as u64;
        let fifo_bits = depth * (32 + 48);
        let buf_bits = depth * 288;
        let bitmap_bits = depth * 33;
        fifo_bits + buf_bits + bitmap_bits
    }

    /// Ingress admission: assigns the next PSN and appends reorder info.
    /// Returns `None` (ingress drop) when the FIFO is full — the C1
    /// trade-off: a 4K queue absorbs 100 µs of a 40 Mpps heavy hitter.
    pub fn admit(&mut self, now: SimTime) -> Option<u32> {
        if self.fifo.len() >= self.depth() {
            self.stats.ingress_full_drops += 1;
            return None;
        }
        let psn = self.next_psn;
        self.next_psn = self.next_psn.wrapping_add(1);
        self.fifo.push_back(ReorderInfo { psn, enqueued: now });
        self.stats.admitted += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.fifo.len());
        Some(psn)
    }

    /// The 12-bit legal check: does `psn_low` fall inside the live FIFO
    /// window? (Compared at `depth` granularity; production depth 4096 ⇒
    /// 12 bits, matching `meta.psn[11:0]` in the paper.)
    fn legal(&self, psn_low: u32) -> bool {
        match self.fifo.front() {
            None => false,
            Some(head) => {
                let head_low = head.psn & self.mask;
                let offset = psn_low.wrapping_sub(head_low) & self.mask;
                (offset as usize) < self.fifo.len()
            }
        }
    }

    /// CPU-return path (legal check + BUF/BITMAP write).
    ///
    /// `payload_available` reports whether a header-only packet's payload is
    /// still retained in the NIC payload buffer (consulted only on legal-
    /// check failure, mirroring the hardware).
    ///
    /// # Panics
    /// Panics if the packet carries no PLB meta — returning an untagged
    /// packet to the reorder engine is a driver bug, not a data condition.
    pub fn cpu_return(&mut self, pkt: NicPacket, payload_available: bool) -> CpuReturnOutcome {
        let meta = pkt.meta.expect("PLB packet returned without meta");
        let psn_low = meta.psn & self.mask;
        if !self.legal(psn_low) {
            // Timed out (or duplicate): best-effort path.
            if meta.flags.drop() {
                return CpuReturnOutcome::AlreadyReleased;
            }
            return match pkt.delivery {
                DeliveryMode::FullPacket => {
                    self.stats.late_best_effort += 1;
                    CpuReturnOutcome::BestEffort(pkt)
                }
                DeliveryMode::HeaderOnly => {
                    if payload_available {
                        self.stats.late_best_effort += 1;
                        CpuReturnOutcome::BestEffort(pkt)
                    } else {
                        self.stats.headers_dropped += 1;
                        CpuReturnOutcome::HeaderDropped
                    }
                }
            };
        }
        let idx = psn_low as usize;
        let duplicate = self.bitmap[idx].valid;
        let evicted = if duplicate {
            self.stats.duplicate_returns += 1;
            self.buf[idx].take()
        } else {
            None
        };
        self.bitmap[idx] = BitmapEntry {
            valid: true,
            psn: meta.psn,
            dropped: meta.flags.drop(),
        };
        self.buf[idx] = if meta.flags.drop() { None } else { Some(pkt) };
        if duplicate {
            CpuReturnOutcome::AcceptedDuplicate(evicted)
        } else {
            CpuReturnOutcome::Accepted
        }
    }

    /// The reorder check: drains everything releasable at `now`.
    ///
    /// The hardware runs this continuously at the FPGA clock; the simulation
    /// calls it after each CPU return and on timeout deadlines
    /// ([`Self::next_timeout`]).
    ///
    /// Allocates a fresh `Vec` per call; the pod simulation uses
    /// [`Self::poll_into`] with caller-owned scratch instead.
    pub fn poll(&mut self, now: SimTime) -> Vec<ReorderRelease> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`Self::poll`] draining into caller-owned scratch — the allocation-
    /// free primitive the pod simulation's egress path is built on. Releases
    /// are appended to `out` in release order.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<ReorderRelease>) {
        while let Some(head) = self.fifo.front().copied() {
            let idx = (head.psn & self.mask) as usize;
            let entry = self.bitmap[idx];
            if entry.valid && entry.psn == head.psn {
                // Cases 4 (transmit in order) and the drop-flag release.
                self.fifo.pop_front();
                self.bitmap[idx] = BitmapEntry::default();
                let pkt = self.buf[idx].take();
                if entry.dropped {
                    self.stats.drop_flag_releases += 1;
                    out.push(ReorderRelease::Dropped { psn: head.psn });
                } else {
                    let pkt = pkt.expect("BUF slot empty for valid non-dropped bitmap entry");
                    self.stats.in_order += 1;
                    out.push(ReorderRelease::InOrder(pkt));
                }
                continue;
            }
            if entry.valid {
                // Case 3: an aliased (timed-out) packet occupies the slot.
                // Send it best-effort and clear the slot; the head keeps
                // waiting for its real packet.
                self.bitmap[idx] = BitmapEntry::default();
                if let Some(pkt) = self.buf[idx].take() {
                    self.stats.alias_best_effort += 1;
                    out.push(ReorderRelease::BestEffortAlias(pkt));
                } else {
                    // Aliased drop-flagged return: clear the slot silently.
                    // Deliberately NOT counted as a drop-flag release — the
                    // aliased packet's own FIFO entry was already released
                    // by its head timeout.
                    self.stats.alias_drop_releases += 1;
                }
                continue;
            }
            // Case 1: head timeout.
            if now.saturating_since(head.enqueued) > self.timeout_ns {
                self.fifo.pop_front();
                self.stats.hol_timeouts += 1;
                out.push(ReorderRelease::TimedOut { psn: head.psn });
                continue;
            }
            // Case 2: busy-wait.
            break;
        }
    }

    /// When the current head will time out, if a head exists.
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.fifo.front().map(|h| h.enqueued + self.timeout_ns + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::IpProtocol;
    use albatross_packet::meta::PlbMeta;
    use albatross_packet::FiveTuple;

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_ip: "10.0.0.1".parse().unwrap(),
            dst_ip: "10.0.0.2".parse().unwrap(),
            src_port: 1,
            dst_port: 2,
            protocol: IpProtocol::Udp,
        }
    }

    fn pkt(id: u64, psn: u32, at: SimTime) -> NicPacket {
        let mut p = NicPacket::data(id, tuple(), None, 256, at);
        p.meta = Some(PlbMeta::new(psn, 0, at.as_nanos()));
        p
    }

    fn q() -> ReorderQueue {
        ReorderQueue::new(ReorderConfig {
            depth: 16,
            timeout_ns: 100_000,
        })
    }

    #[test]
    fn in_order_return_releases_immediately() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn = rq.admit(t).unwrap();
        assert!(matches!(
            rq.cpu_return(pkt(1, psn, t), true),
            CpuReturnOutcome::Accepted
        ));
        let rel = rq.poll(t + 10_000);
        assert_eq!(rel.len(), 1);
        assert!(matches!(rel[0], ReorderRelease::InOrder(ref p) if p.id == 1));
        assert_eq!(rq.stats().in_order, 1);
        assert_eq!(rq.occupancy(), 0);
    }

    #[test]
    fn out_of_order_returns_are_resequenced() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psns: Vec<u32> = (0..4).map(|_| rq.admit(t).unwrap()).collect();
        // CPU finishes them in reverse order.
        for (i, &psn) in psns.iter().enumerate().rev() {
            rq.cpu_return(pkt(i as u64, psn, t), true);
        }
        let rel = rq.poll(t + 1);
        let ids: Vec<u64> = rel
            .iter()
            .map(|r| match r {
                ReorderRelease::InOrder(p) => p.id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3], "must egress in arrival order");
    }

    #[test]
    fn partial_returns_release_prefix_only() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psns: Vec<u32> = (0..3).map(|_| rq.admit(t).unwrap()).collect();
        rq.cpu_return(pkt(0, psns[0], t), true);
        rq.cpu_return(pkt(2, psns[2], t), true);
        let rel = rq.poll(t + 1);
        assert_eq!(rel.len(), 1, "packet 2 must wait for packet 1 (case 2)");
        rq.cpu_return(pkt(1, psns[1], t), true);
        let rel = rq.poll(t + 2);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn head_timeout_releases_and_late_return_goes_best_effort() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn0 = rq.admit(t).unwrap();
        let psn1 = rq.admit(t).unwrap();
        // Packet 1 returns; packet 0 is stuck in the CPU.
        rq.cpu_return(pkt(1, psn1, t), true);
        assert!(rq.poll(t + 50_000).is_empty(), "within timeout: HOL blocks");
        // Past the 100 µs timeout the head is released, then packet 1 flows.
        let rel = rq.poll(t + 100_001);
        assert!(matches!(rel[0], ReorderRelease::TimedOut { psn } if psn == psn0));
        assert!(matches!(rel[1], ReorderRelease::InOrder(ref p) if p.id == 1));
        assert_eq!(rq.stats().hol_timeouts, 1);
        // The stuck packet finally returns: legal check fails → best effort.
        match rq.cpu_return(pkt(0, psn0, t), true) {
            CpuReturnOutcome::BestEffort(p) => assert_eq!(p.id, 0),
            other => panic!("expected best effort, got {other:?}"),
        }
        assert_eq!(rq.stats().late_best_effort, 1);
        assert_eq!(rq.stats().disordered(), 1);
    }

    #[test]
    fn duplicate_return_evicts_old_packet_instead_of_leaking() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn0 = rq.admit(t).unwrap();
        // A buggy driver returns psn0 twice before any poll: the second
        // return used to overwrite BUF/BITMAP silently, leaking packet 1.
        rq.cpu_return(pkt(1, psn0, t), true);
        match rq.cpu_return(pkt(2, psn0, t), true) {
            CpuReturnOutcome::AcceptedDuplicate(Some(p)) => assert_eq!(p.id, 1),
            other => panic!("expected duplicate eviction, got {other:?}"),
        }
        assert_eq!(rq.stats().duplicate_returns, 1);
        // The replacement packet releases in order as usual.
        let rel = rq.poll(t + 1);
        assert!(matches!(rel[0], ReorderRelease::InOrder(ref p) if p.id == 2));
    }

    #[test]
    fn duplicate_drop_flagged_return_evicts_nothing() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn0 = rq.admit(t).unwrap();
        let _psn1 = rq.admit(t).unwrap();
        let mut first = pkt(0, psn0, t);
        first.meta.as_mut().unwrap().set_drop();
        rq.cpu_return(first, true);
        // Duplicate return of a slot whose occupant was drop-flagged: the
        // slot held no packet, so there is nothing to evict.
        match rq.cpu_return(pkt(1, psn0, t), true) {
            CpuReturnOutcome::AcceptedDuplicate(None) => {}
            other => panic!("expected empty duplicate eviction, got {other:?}"),
        }
        assert_eq!(rq.stats().duplicate_returns, 1);
    }

    #[test]
    fn late_header_only_with_released_payload_is_dropped() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn = rq.admit(t).unwrap();
        rq.poll(t + 200_000); // head times out
        let mut p = pkt(9, psn, t);
        p.delivery = DeliveryMode::HeaderOnly;
        assert!(matches!(
            rq.cpu_return(p, false),
            CpuReturnOutcome::HeaderDropped
        ));
        assert_eq!(rq.stats().headers_dropped, 1);
    }

    #[test]
    fn drop_flag_releases_resources_without_transmit() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn0 = rq.admit(t).unwrap();
        let psn1 = rq.admit(t).unwrap();
        // GW pod drops packet 0 (e.g. ACL) and sets the drop flag.
        let mut dropped = pkt(0, psn0, t);
        dropped.meta.as_mut().unwrap().set_drop();
        rq.cpu_return(dropped, true);
        rq.cpu_return(pkt(1, psn1, t), true);
        let rel = rq.poll(t + 1);
        assert!(matches!(rel[0], ReorderRelease::Dropped { psn } if psn == psn0));
        assert!(matches!(rel[1], ReorderRelease::InOrder(ref p) if p.id == 1));
        assert_eq!(rq.stats().drop_flag_releases, 1);
        assert_eq!(
            rq.stats().hol_timeouts,
            0,
            "no HOL event — that's the point"
        );
    }

    #[test]
    fn without_drop_flag_a_dropped_packet_causes_hol_timeout() {
        let mut rq = q();
        let t = SimTime::ZERO;
        let _psn0 = rq.admit(t).unwrap(); // dropped silently by the CPU
        let psn1 = rq.admit(t).unwrap();
        rq.cpu_return(pkt(1, psn1, t), true);
        assert!(rq.poll(t + 99_000).is_empty(), "packet 1 HOL-blocked");
        let rel = rq.poll(t + 100_001);
        assert_eq!(rq.stats().hol_timeouts, 1);
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn fifo_full_drops_at_ingress() {
        let mut rq = q();
        let t = SimTime::ZERO;
        for _ in 0..16 {
            assert!(rq.admit(t).is_some());
        }
        assert!(rq.admit(t).is_none());
        assert_eq!(rq.stats().ingress_full_drops, 1);
        assert_eq!(rq.stats().max_occupancy, 16);
    }

    #[test]
    fn aliased_psn_passes_legal_check_and_is_caught_by_reorder_check() {
        // Depth 16: psn and psn+16 share a BUF slot. A packet that timed
        // out exactly one window ago aliases back into the live window.
        let mut rq = q();
        let t = SimTime::ZERO;
        let psn0 = rq.admit(t).unwrap(); // psn 0
                                         // Head times out; psn0's slot is freed.
        rq.poll(t + 200_000);
        // 16 more admissions: psn 16 (the last) reuses slot 0.
        let t2 = SimTime::from_micros(300);
        let psns: Vec<u32> = (0..16).map(|_| rq.admit(t2).unwrap()).collect();
        assert_eq!(psns[15] & 15, psn0 & 15, "slot aliasing precondition");
        // The ancient packet 0 returns now: psn_low 0 is inside the window
        // → passes the legal check (the paper's low-probability case).
        assert!(matches!(
            rq.cpu_return(pkt(0, psn0, t), true),
            CpuReturnOutcome::Accepted
        ));
        // Drain psns[0..15] in order; the head then reaches psn 16 whose
        // slot holds the aliased ancient packet → case 3 best-effort.
        for (i, &psn) in psns[..15].iter().enumerate() {
            rq.cpu_return(pkt(1000 + i as u64, psn, t2), true);
        }
        let rel = rq.poll(t2 + 1);
        assert_eq!(rel.len(), 16);
        assert!(rel[..15]
            .iter()
            .all(|r| matches!(r, ReorderRelease::InOrder(_))));
        assert!(matches!(rel[15], ReorderRelease::BestEffortAlias(ref p) if p.id == 0));
        assert_eq!(rq.stats().alias_best_effort, 1);
        // The real psn16 packet still gets through in order afterwards.
        rq.cpu_return(pkt(100, psns[15], t2), true);
        let rel = rq.poll(t2 + 2);
        assert!(matches!(rel[0], ReorderRelease::InOrder(ref p) if p.id == 100));
    }

    #[test]
    fn next_timeout_tracks_head() {
        let mut rq = q();
        assert_eq!(rq.next_timeout(), None);
        let t = SimTime::from_micros(10);
        rq.admit(t);
        assert_eq!(rq.next_timeout(), Some(t + 100_001));
    }

    #[test]
    fn psn_wraparound_preserves_order() {
        // Force next_psn near u32::MAX and run a window across the wrap.
        let mut rq = q();
        rq.next_psn = u32::MAX - 3;
        let t = SimTime::ZERO;
        let psns: Vec<u32> = (0..8).map(|_| rq.admit(t).unwrap()).collect();
        assert!(psns.contains(&u32::MAX) && psns.contains(&0), "{psns:?}");
        for (i, &psn) in psns.iter().enumerate().rev() {
            rq.cpu_return(pkt(i as u64, psn, t), true);
        }
        let rel = rq.poll(t + 1);
        let ids: Vec<u64> = rel
            .iter()
            .map(|r| match r {
                ReorderRelease::InOrder(p) => p.id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn production_bram_budget_matches_tab5_plb_share() {
        // 8 production queues (the max per pod) must cost on the order of
        // the PLB row of Tab. 5 (5% of 265 Mbit ≈ 13.25 Mbit).
        let total: u64 = (0..8)
            .map(|_| ReorderQueue::new(ReorderConfig::default()).bram_bits())
            .sum();
        let tab5_plb_bits = (265_000_000.0 * 0.05) as u64;
        assert!(
            total < tab5_plb_bits * 2 && total > tab5_plb_bits / 2,
            "8 queues use {total} bits vs Tab.5 {tab5_plb_bits}"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_depth_rejected() {
        let _ = ReorderQueue::new(ReorderConfig {
            depth: 100,
            timeout_ns: 1,
        });
    }

    #[test]
    #[should_panic(expected = "without meta")]
    fn untagged_return_is_a_bug() {
        let mut rq = q();
        rq.admit(SimTime::ZERO);
        let mut p = pkt(0, 0, SimTime::ZERO);
        p.meta = None;
        let _ = rq.cpu_return(p, true);
    }
}
