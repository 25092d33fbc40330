//! The assembled NIC-side load-balancing engine for one GW pod.
//!
//! [`PlbEngine`] owns the pod's dispatcher, its 1–8 order-preserving queues
//! (allocated ∝ data cores, §4.1), and the RSS fallback. It exposes the
//! three hardware touch points the simulation drives:
//!
//! * [`PlbEngine::ingress`] — classify-and-dispatch one packet, returning
//!   the target data core (or an ingress drop);
//! * [`PlbEngine::cpu_return`] — a processed packet coming back from a data
//!   core (legal check → buffering → any releases that become possible);
//! * [`PlbEngine::poll`] — the timeout-driven reorder check.
//!
//! Mode fallback (§4.1 HOL handling #5): the engine can switch from PLB to
//! RSS dynamically — new packets are steered flow-level while the reorder
//! queues drain; an optional automatic trigger flips the mode when HOL
//! timeouts exceed a threshold.

use albatross_sim::SimTime;

use albatross_fpga::pkt::NicPacket;

use crate::dispatch::{DispatchError, PlbDispatcher};
use crate::reorder::{CpuReturnOutcome, ReorderConfig, ReorderQueue, ReorderRelease, ReorderStats};
use crate::rss::RssSteering;

/// Load-balancing mode of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbMode {
    /// Packet-level load balancing with egress reordering.
    Plb,
    /// Flow-level (RSS) distribution; no reordering needed.
    Rss,
}

/// Where an ingress packet went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressDecision {
    /// Enqueued towards this data core.
    ToCore(usize),
    /// Dropped at ingress (ordq full).
    Dropped,
}

/// A packet leaving the engine towards the wire.
#[derive(Debug)]
pub enum Egress {
    /// Transmitted in its arrival order.
    InOrder(NicPacket),
    /// Transmitted best-effort, out of arrival order (timed out or aliased).
    OutOfOrder(NicPacket),
}

impl Egress {
    /// The packet inside, regardless of ordering.
    pub fn packet(&self) -> &NicPacket {
        match self {
            Egress::InOrder(p) | Egress::OutOfOrder(p) => p,
        }
    }

    /// The packet inside, by value.
    pub fn into_packet(self) -> NicPacket {
        match self {
            Egress::InOrder(p) | Egress::OutOfOrder(p) => p,
        }
    }

    /// True when the packet left in its arrival order.
    pub fn in_order(&self) -> bool {
        matches!(self, Egress::InOrder(_))
    }
}

/// Caller-owned scratch buffer for egress packets — the allocation-free
/// counterpart to the allocating `Vec<Egress>` returns. Allocate one up
/// front, hand it to [`PlbEngine::poll_into`] / [`PlbEngine::cpu_return_into`]
/// each cycle, and [`EgressBuf::drain`] it afterwards: steady state performs
/// no allocation because the backing storage is reused.
#[derive(Debug, Default)]
pub struct EgressBuf {
    items: Vec<Egress>,
}

impl EgressBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer with room for `cap` egresses before regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
        }
    }

    /// Egresses currently buffered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Buffered egresses in release order.
    pub fn as_slice(&self) -> &[Egress] {
        &self.items
    }

    /// Empties the buffer, keeping the backing storage.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Drains the buffered egresses in release order, keeping the backing
    /// storage for reuse.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Egress> {
        self.items.drain(..)
    }

    /// Unwraps into the backing vector.
    pub fn into_vec(self) -> Vec<Egress> {
        self.items
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct PlbEngineConfig {
    /// Data cores of the pod (spray targets).
    pub data_cores: usize,
    /// Order-preserving queues (1–8, ∝ cores; §4.1 "reorder queue
    /// granularity").
    pub ordqs: usize,
    /// Per-queue reorder configuration.
    pub reorder: ReorderConfig,
    /// Starting mode.
    pub mode: LbMode,
    /// Automatic PLB→RSS fallback after this many HOL timeouts
    /// (None = manual only; production has never auto-triggered).
    pub auto_fallback_hol_timeouts: Option<u64>,
}

impl PlbEngineConfig {
    /// The paper's allocation rule: 1 ordq per ~6 data cores, clamped to
    /// 1–8 (a 44-core pod gets 8, a 20-core pod gets 4).
    pub fn for_pod(data_cores: usize) -> Self {
        Self {
            data_cores,
            ordqs: (data_cores / 6).clamp(1, 8),
            reorder: ReorderConfig::default(),
            mode: LbMode::Plb,
            auto_fallback_hol_timeouts: None,
        }
    }
}

/// The assembled engine.
#[derive(Debug)]
pub struct PlbEngine {
    mode: LbMode,
    dispatcher: PlbDispatcher,
    rss: RssSteering,
    queues: Vec<ReorderQueue>,
    auto_fallback: Option<u64>,
    fallbacks: u64,
    /// `(ordq, psn)` of heads released by timeout since the last
    /// [`Self::take_timeouts_into`] call — the signal the NIC uses to reap
    /// retained payloads of header-only packets.
    recent_timeouts: Vec<(usize, u32)>,
    /// Reusable scratch for queue drains (keeps returns and polls
    /// allocation-free in steady state).
    release_scratch: Vec<ReorderRelease>,
}

impl PlbEngine {
    /// Builds the engine.
    ///
    /// # Panics
    /// Panics on zero cores or zero ordqs.
    pub fn new(cfg: PlbEngineConfig) -> Self {
        assert!(cfg.ordqs > 0, "need at least one order-preserving queue");
        Self {
            mode: cfg.mode,
            dispatcher: PlbDispatcher::new(cfg.data_cores),
            rss: RssSteering::new(cfg.data_cores),
            queues: (0..cfg.ordqs)
                .map(|_| ReorderQueue::new(cfg.reorder.clone()))
                .collect(),
            auto_fallback: cfg.auto_fallback_hol_timeouts,
            fallbacks: 0,
            recent_timeouts: Vec::new(),
            release_scratch: Vec::new(),
        }
    }

    /// Appends the `(ordq, psn)` pairs whose reorder info timed out since
    /// the last call to `out` (for payload-buffer reaping in header-only
    /// mode).
    pub fn take_timeouts_into(&mut self, out: &mut Vec<(usize, u32)>) {
        out.append(&mut self.recent_timeouts);
    }

    /// Current mode.
    pub fn mode(&self) -> LbMode {
        self.mode
    }

    /// Manually switches to RSS (remediation of last resort). In-flight
    /// reorder entries keep draining via [`Self::poll`].
    pub fn fallback_to_rss(&mut self) {
        if self.mode == LbMode::Plb {
            self.mode = LbMode::Rss;
            self.fallbacks += 1;
        }
    }

    /// Switches back to PLB (operator action after remediation).
    pub fn restore_plb(&mut self) {
        self.mode = LbMode::Plb;
    }

    /// Times PLB→RSS fallback has occurred.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Number of order-preserving queues.
    pub fn ordqs(&self) -> usize {
        self.queues.len()
    }

    /// Dispatches one ingress data packet.
    pub fn ingress(&mut self, pkt: &mut NicPacket, now: SimTime) -> IngressDecision {
        match self.mode {
            LbMode::Plb => match self.dispatcher.dispatch(pkt, &mut self.queues, now) {
                Ok(out) => IngressDecision::ToCore(out.core),
                Err(DispatchError::OrdqFull { .. }) => {
                    self.maybe_auto_fallback();
                    IngressDecision::Dropped
                }
            },
            LbMode::Rss => IngressDecision::ToCore(self.rss.core_for(&pkt.tuple)),
        }
    }

    /// Handles a packet returned by a data core.
    ///
    /// `payload_available` is consulted only for header-only packets that
    /// fail the legal check (is the payload still in the NIC buffer?).
    pub fn cpu_return(
        &mut self,
        pkt: NicPacket,
        payload_available: bool,
        now: SimTime,
    ) -> Vec<Egress> {
        let mut buf = EgressBuf::new();
        self.cpu_return_into(pkt, payload_available, now, &mut buf);
        buf.items
    }

    /// [`Self::cpu_return`] draining into a caller-owned buffer: the
    /// allocation-free variant the pod simulation drives.
    pub fn cpu_return_into(
        &mut self,
        pkt: NicPacket,
        payload_available: bool,
        now: SimTime,
        out: &mut EgressBuf,
    ) {
        let Some(meta) = pkt.meta else {
            // RSS-path packet: no reorder machinery involved.
            out.items.push(Egress::InOrder(pkt));
            return;
        };
        let ordq = meta.ordq as usize;
        match self.queues[ordq].cpu_return(pkt, payload_available) {
            CpuReturnOutcome::Accepted => {}
            CpuReturnOutcome::BestEffort(p) => out.items.push(Egress::OutOfOrder(p)),
            CpuReturnOutcome::AcceptedDuplicate(evicted) => {
                if let Some(p) = evicted {
                    out.items.push(Egress::OutOfOrder(p));
                }
            }
            CpuReturnOutcome::HeaderDropped | CpuReturnOutcome::AlreadyReleased => {}
        }
        self.drain(ordq, now, out);
    }

    /// Timeout-driven reorder check over all queues.
    pub fn poll(&mut self, now: SimTime) -> Vec<Egress> {
        let mut buf = EgressBuf::new();
        self.poll_into(now, &mut buf);
        buf.items
    }

    /// [`Self::poll`] draining into a caller-owned buffer: the
    /// allocation-free variant the pod simulation drives.
    pub fn poll_into(&mut self, now: SimTime, out: &mut EgressBuf) {
        for ordq in 0..self.queues.len() {
            self.drain(ordq, now, out);
        }
        self.maybe_auto_fallback();
    }

    fn drain(&mut self, ordq: usize, now: SimTime, out: &mut EgressBuf) {
        let mut scratch = std::mem::take(&mut self.release_scratch);
        scratch.clear();
        self.queues[ordq].poll_into(now, &mut scratch);
        for rel in scratch.drain(..) {
            match rel {
                ReorderRelease::InOrder(p) => out.items.push(Egress::InOrder(p)),
                ReorderRelease::BestEffortAlias(p) => out.items.push(Egress::OutOfOrder(p)),
                ReorderRelease::TimedOut { psn } => self.recent_timeouts.push((ordq, psn)),
                ReorderRelease::Dropped { .. } => {}
            }
        }
        self.release_scratch = scratch;
    }

    fn maybe_auto_fallback(&mut self) {
        if let Some(limit) = self.auto_fallback {
            if self.mode == LbMode::Plb && self.total_hol_timeouts() >= limit {
                self.fallback_to_rss();
            }
        }
    }

    /// Earliest pending head timeout across queues (for scheduling poll).
    pub fn next_timeout(&self) -> Option<SimTime> {
        self.queues.iter().filter_map(|q| q.next_timeout()).min()
    }

    /// Per-queue statistics.
    pub fn queue_stats(&self) -> Vec<&ReorderStats> {
        self.queues.iter().map(|q| q.stats()).collect()
    }

    /// Total HOL timeouts across queues.
    pub fn total_hol_timeouts(&self) -> u64 {
        self.queues.iter().map(|q| q.stats().hol_timeouts).sum()
    }

    /// Total packets transmitted out of order.
    pub fn total_disordered(&self) -> u64 {
        self.queues.iter().map(|q| q.stats().disordered()).sum()
    }

    /// Total in-order transmissions.
    pub fn total_in_order(&self) -> u64 {
        self.queues.iter().map(|q| q.stats().in_order).sum()
    }

    /// Total ingress drops (full ordqs).
    pub fn total_ingress_drops(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.stats().ingress_full_drops)
            .sum()
    }

    /// BRAM bits consumed by all reorder queues (feeds the Tab. 5 ledger).
    pub fn reorder_bram_bits(&self) -> u64 {
        self.queues.iter().map(|q| q.bram_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::IpProtocol;
    use albatross_packet::FiveTuple;

    fn pkt(id: u64, src_port: u16) -> NicPacket {
        let tuple = FiveTuple {
            src_ip: "10.0.0.1".parse().unwrap(),
            dst_ip: "10.0.0.2".parse().unwrap(),
            src_port,
            dst_port: 80,
            protocol: IpProtocol::Udp,
        };
        NicPacket::data(id, tuple, Some(3), 256, SimTime::ZERO)
    }

    fn engine(cores: usize, ordqs: usize) -> PlbEngine {
        PlbEngine::new(PlbEngineConfig {
            data_cores: cores,
            ordqs,
            reorder: ReorderConfig {
                depth: 64,
                timeout_ns: 100_000,
            },
            mode: LbMode::Plb,
            auto_fallback_hol_timeouts: None,
        })
    }

    #[test]
    fn ordq_allocation_rule() {
        assert_eq!(PlbEngineConfig::for_pod(44).ordqs, 7);
        assert_eq!(PlbEngineConfig::for_pod(48).ordqs, 8);
        assert_eq!(PlbEngineConfig::for_pod(20).ordqs, 3);
        assert_eq!(PlbEngineConfig::for_pod(4).ordqs, 1);
        assert_eq!(PlbEngineConfig::for_pod(96).ordqs, 8, "clamped at 8");
    }

    #[test]
    fn single_flow_round_trips_in_order() {
        let mut e = engine(4, 2);
        let t = SimTime::ZERO;
        let mut returned = Vec::new();
        for i in 0..8 {
            let mut p = pkt(i, 5000);
            assert!(matches!(e.ingress(&mut p, t), IngressDecision::ToCore(_)));
            returned.push(p);
        }
        // Cores return them in scrambled order.
        returned.swap(0, 5);
        returned.swap(2, 7);
        let mut egressed = Vec::new();
        for p in returned {
            egressed.extend(e.cpu_return(p, true, t + 10_000));
        }
        let ids: Vec<u64> = egressed
            .iter()
            .map(|eg| match eg {
                Egress::InOrder(p) => p.id,
                Egress::OutOfOrder(p) => panic!("unexpected OOO {}", p.id),
            })
            .collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
        assert_eq!(e.total_in_order(), 8);
        assert_eq!(e.total_disordered(), 0);
    }

    #[test]
    fn rss_mode_bypasses_reordering() {
        let mut e = engine(4, 2);
        e.fallback_to_rss();
        assert_eq!(e.mode(), LbMode::Rss);
        let t = SimTime::ZERO;
        let mut p = pkt(1, 1234);
        let IngressDecision::ToCore(core) = e.ingress(&mut p, t) else {
            panic!("RSS never drops at ingress");
        };
        // Same flow → same core, and no meta was attached.
        assert!(p.meta.is_none());
        let mut p2 = pkt(2, 1234);
        assert_eq!(e.ingress(&mut p2, t), IngressDecision::ToCore(core));
        let eg = e.cpu_return(p, true, t);
        assert!(matches!(eg[0], Egress::InOrder(_)));
    }

    #[test]
    fn plb_sprays_one_flow_across_cores() {
        let mut e = engine(4, 1);
        let t = SimTime::ZERO;
        let mut cores = std::collections::HashSet::new();
        for i in 0..8 {
            let mut p = pkt(i, 7777);
            if let IngressDecision::ToCore(c) = e.ingress(&mut p, t) {
                cores.insert(c);
            }
        }
        assert_eq!(cores.len(), 4, "PLB must use all cores for one flow");
    }

    #[test]
    fn auto_fallback_on_hol_storm() {
        let mut e = PlbEngine::new(PlbEngineConfig {
            data_cores: 2,
            ordqs: 1,
            reorder: ReorderConfig {
                depth: 64,
                timeout_ns: 1_000,
            },
            mode: LbMode::Plb,
            auto_fallback_hol_timeouts: Some(10),
        });
        let t = SimTime::ZERO;
        // 20 packets go in and are never returned (CPU losing packets).
        for i in 0..20 {
            e.ingress(&mut pkt(i, 5000), t);
        }
        assert_eq!(e.mode(), LbMode::Plb);
        // All 20 time out.
        let eg = e.poll(SimTime::from_millis(1));
        assert!(eg.is_empty());
        assert_eq!(e.total_hol_timeouts(), 20);
        assert_eq!(e.mode(), LbMode::Rss, "auto-fallback must have fired");
        assert_eq!(e.fallbacks(), 1);
    }

    #[test]
    fn next_timeout_reflects_oldest_head() {
        let mut e = engine(2, 2);
        assert!(e.next_timeout().is_none());
        let t = SimTime::from_micros(5);
        e.ingress(&mut pkt(1, 1000), t);
        let deadline = e.next_timeout().unwrap();
        assert_eq!(deadline, t + 100_001);
    }

    #[test]
    fn ingress_drop_when_ordq_full() {
        let mut e = PlbEngine::new(PlbEngineConfig {
            data_cores: 2,
            ordqs: 1,
            reorder: ReorderConfig {
                depth: 2,
                timeout_ns: 100_000,
            },
            mode: LbMode::Plb,
            auto_fallback_hol_timeouts: None,
        });
        let t = SimTime::ZERO;
        assert!(matches!(
            e.ingress(&mut pkt(0, 1), t),
            IngressDecision::ToCore(_)
        ));
        assert!(matches!(
            e.ingress(&mut pkt(1, 2), t),
            IngressDecision::ToCore(_)
        ));
        assert_eq!(e.ingress(&mut pkt(2, 3), t), IngressDecision::Dropped);
        assert_eq!(e.total_ingress_drops(), 1);
    }

    #[test]
    fn restore_plb_after_fallback() {
        let mut e = engine(2, 1);
        e.fallback_to_rss();
        e.restore_plb();
        assert_eq!(e.mode(), LbMode::Plb);
        let mut p = pkt(1, 9);
        e.ingress(&mut p, SimTime::ZERO);
        assert!(p.meta.is_some(), "PLB mode must tag meta again");
    }

    #[test]
    fn poll_into_reuses_caller_buffer_and_collects_timeouts() {
        let mut e = PlbEngine::new(PlbEngineConfig {
            data_cores: 2,
            ordqs: 2,
            reorder: ReorderConfig {
                depth: 64,
                timeout_ns: 1_000,
            },
            mode: LbMode::Plb,
            auto_fallback_hol_timeouts: None,
        });
        let t = SimTime::ZERO;
        for i in 0..6 {
            e.ingress(&mut pkt(i, 1000 + i as u16), t);
        }
        let mut buf = EgressBuf::new();
        e.poll_into(SimTime::from_millis(1), &mut buf);
        assert!(buf.is_empty(), "lost packets egress nothing");
        let mut timeouts = Vec::new();
        e.take_timeouts_into(&mut timeouts);
        assert_eq!(timeouts.len(), 6);
        e.take_timeouts_into(&mut timeouts);
        assert_eq!(timeouts.len(), 6, "drained timeouts must not reappear");
    }

    #[test]
    fn reorder_bram_scales_with_queue_count() {
        let e2 = engine(12, 2);
        let e8 = engine(48, 8);
        assert_eq!(e8.reorder_bram_bits(), 4 * e2.reorder_bram_bits());
    }
}
