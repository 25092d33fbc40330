//! `plb_dispatch`: packet spray, ordq selection, PSN tagging (§4.1, Fig. 3).
//!
//! Ingress PLB packets are sprayed across the pod's RX data queues in
//! round-robin order — each data queue feeds one data core, so round-robin
//! over queues is round-robin over cores. Before a packet is handed to DMA,
//! the dispatcher:
//!
//! 1. selects its order-preserving queue from the 5-tuple Toeplitz hash
//!    (`get_ordq_idx`) — all packets of one flow share one ordq, so one
//!    flow's ordering never depends on another queue's fate;
//! 2. admits it into that queue (assigning the PSN); a full queue is an
//!    ingress drop (the C1 trade-off);
//! 3. tags the packet with its PLB meta (PSN, ordq, ingress timestamp).

use albatross_packet::meta::PlbMeta;
use albatross_packet::ToeplitzHasher;
use albatross_sim::SimTime;

use albatross_fpga::pkt::NicPacket;

use crate::reorder::ReorderQueue;

/// Why a packet could not be dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// The selected order-preserving queue's FIFO is full (heavy hitter
    /// exceeding the queue's pps tolerance) — ingress drop.
    OrdqFull {
        /// The queue that was full.
        ordq: usize,
    },
}

/// A successful dispatch decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Target data core (== RX data queue index).
    pub core: usize,
    /// Order-preserving queue the packet was admitted into.
    pub ordq: usize,
    /// Assigned packet sequence number.
    pub psn: u32,
}

/// The `plb_dispatch` module of one GW pod's NIC slice.
#[derive(Debug)]
pub struct PlbDispatcher {
    n_cores: usize,
    rr_next: usize,
    hasher: ToeplitzHasher,
    dispatched: u64,
    drops: u64,
}

impl PlbDispatcher {
    /// Creates a dispatcher spraying over `n_cores` data cores.
    ///
    /// # Panics
    /// Panics if `n_cores` is zero.
    pub fn new(n_cores: usize) -> Self {
        assert!(n_cores > 0, "a pod needs at least one data core");
        Self {
            n_cores,
            rr_next: 0,
            hasher: ToeplitzHasher::default(),
            dispatched: 0,
            drops: 0,
        }
    }

    /// Number of data cores being sprayed over.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// `get_ordq_idx`: order-preserving queue for a flow.
    pub fn ordq_idx(&self, pkt: &NicPacket, n_queues: usize) -> usize {
        (self.hasher.hash_tuple(&pkt.tuple) as usize) % n_queues
    }

    /// Dispatches one packet: selects its ordq, admits it (assigning a
    /// PSN), tags the meta, and picks the next core round-robin.
    pub fn dispatch(
        &mut self,
        pkt: &mut NicPacket,
        queues: &mut [ReorderQueue],
        now: SimTime,
    ) -> Result<DispatchOutcome, DispatchError> {
        let ordq = self.ordq_idx(pkt, queues.len());
        let Some(psn) = queues[ordq].admit(now) else {
            self.drops += 1;
            return Err(DispatchError::OrdqFull { ordq });
        };
        pkt.meta = Some(PlbMeta::new(psn, ordq as u8, now.as_nanos()));
        let core = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.n_cores;
        self.dispatched += 1;
        Ok(DispatchOutcome { core, ordq, psn })
    }

    /// Packets successfully dispatched.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Ingress drops due to full ordqs.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::{ReorderConfig, ReorderQueue};
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
        NicPacket::data(id, tuple, Some(7), 256, SimTime::ZERO)
    }

    fn queues(n: usize) -> Vec<ReorderQueue> {
        (0..n)
            .map(|_| {
                ReorderQueue::new(ReorderConfig {
                    depth: 64,
                    timeout_ns: 100_000,
                })
            })
            .collect()
    }

    #[test]
    fn spray_is_round_robin_over_cores() {
        let mut d = PlbDispatcher::new(3);
        let mut qs = queues(2);
        let cores: Vec<usize> = (0..9)
            .map(|i| {
                let mut p = pkt(i, 1000 + i as u16);
                d.dispatch(&mut p, &mut qs, SimTime::ZERO).unwrap().core
            })
            .collect();
        assert_eq!(cores, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn same_flow_always_same_ordq() {
        let mut d = PlbDispatcher::new(4);
        let mut qs = queues(8);
        let mut seen = None;
        for i in 0..20 {
            let mut p = pkt(i, 5555); // one flow
            let out = d.dispatch(&mut p, &mut qs, SimTime::ZERO).unwrap();
            match seen {
                None => seen = Some(out.ordq),
                Some(q) => assert_eq!(out.ordq, q, "flow switched ordq"),
            }
        }
    }

    #[test]
    fn psns_are_sequential_per_ordq() {
        let mut d = PlbDispatcher::new(2);
        let mut qs = queues(1); // everything lands in ordq 0
        let psns: Vec<u32> = (0..5)
            .map(|i| {
                let mut p = pkt(i, 1000 + i as u16);
                d.dispatch(&mut p, &mut qs, SimTime::ZERO).unwrap().psn
            })
            .collect();
        assert_eq!(psns, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn meta_is_tagged_with_psn_ordq_and_timestamp() {
        let mut d = PlbDispatcher::new(2);
        let mut qs = queues(4);
        let mut p = pkt(1, 42);
        let t = SimTime::from_micros(77);
        let out = d.dispatch(&mut p, &mut qs, t).unwrap();
        let meta = p.meta.unwrap();
        assert_eq!(meta.psn, out.psn);
        assert_eq!(meta.ordq as usize, out.ordq);
        assert_eq!(meta.ingress_ns, t.as_nanos());
        assert!(!meta.flags.drop());
    }

    #[test]
    fn full_ordq_is_an_ingress_drop() {
        let mut d = PlbDispatcher::new(1);
        let mut qs = vec![ReorderQueue::new(ReorderConfig {
            depth: 2,
            timeout_ns: 100_000,
        })];
        for i in 0..2 {
            d.dispatch(&mut pkt(i, 1), &mut qs, SimTime::ZERO).unwrap();
        }
        let err = d
            .dispatch(&mut pkt(9, 1), &mut qs, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, DispatchError::OrdqFull { ordq: 0 });
        assert_eq!(d.drops(), 1);
        assert_eq!(d.dispatched(), 2);
    }

    #[test]
    fn flows_spread_over_multiple_ordqs() {
        let d = PlbDispatcher::new(4);
        let n_queues = 8;
        let mut used = std::collections::HashSet::new();
        for i in 0..256u16 {
            let p = pkt(0, 1000 + i);
            used.insert(d.ordq_idx(&p, n_queues));
        }
        assert_eq!(used.len(), n_queues, "256 flows must reach all 8 ordqs");
    }
}
