//! The data-core execution model.
//!
//! Each GW pod dedicates *data cores* to packet processing (44 of 46 in the
//! evaluation setup) and a couple of *ctrl cores* to the control plane. A
//! [`DataCore`] couples an RX queue (fed by the NIC's DMA into this core's
//! queue pair) with a busy-until clock and utilization accounting — the
//! instrument behind Fig. 10's per-core utilization dispersion.
//!
//! The RX queue holds whatever the caller queues per packet: the pod
//! queues `u32` slots of its packet slab, a standalone core whole
//! [`NicPacket`]s (the default).

use albatross_fpga::pkt::NicPacket;
use albatross_sim::queue::Enqueue;
use albatross_sim::{BoundedQueue, SimTime};

/// One data core, queueing one `P` per received packet.
#[derive(Debug)]
pub struct DataCore<P = NicPacket> {
    id: usize,
    rx: BoundedQueue<P>,
    busy_until: SimTime,
    processed: u64,
    busy_ns_total: u64,
    window_busy_ns: u64,
}

impl<P> DataCore<P> {
    /// Creates a core with an RX queue of `rx_depth` descriptors.
    pub fn new(id: usize, rx_depth: usize) -> Self {
        Self {
            id,
            rx: BoundedQueue::new(rx_depth),
            busy_until: SimTime::ZERO,
            processed: 0,
            busy_ns_total: 0,
            window_busy_ns: 0,
        }
    }

    /// Core id within the pod.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueues a packet into the core's RX queue (tail-drop when full —
    /// "RX/TX queue congestion" is one of §4.1's HOL causes).
    pub fn enqueue(&mut self, pkt: P) -> Enqueue {
        self.rx.push(pkt)
    }

    /// True when the core can start new work at `now`.
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// When the core finishes its current packet.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Pops the next packet to process, if any.
    pub fn take_next(&mut self) -> Option<P> {
        self.rx.pop()
    }

    /// Pending RX occupancy.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }

    /// Marks the core busy for `cost_ns` starting at `now`; returns the
    /// completion time.
    ///
    /// # Panics
    /// Panics if called while the core is still busy — that is a scheduler
    /// bug in the caller.
    pub fn begin(&mut self, now: SimTime, cost_ns: u64) -> SimTime {
        assert!(self.idle_at(now), "core {} double-scheduled", self.id);
        self.busy_until = now + cost_ns;
        self.processed += 1;
        self.busy_ns_total += cost_ns;
        self.window_busy_ns += cost_ns;
        self.busy_until
    }

    /// Packets processed since creation.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Packets tail-dropped at this core's RX queue.
    pub fn rx_drops(&self) -> u64 {
        self.rx.total_dropped()
    }

    /// Total busy nanoseconds since creation.
    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns_total
    }

    /// Consumes the current sampling window's busy time and returns the
    /// utilization over a window of `window_ns` (clamped to 1.0).
    pub fn sample_utilization(&mut self, window_ns: u64) -> f64 {
        let busy = std::mem::take(&mut self.window_busy_ns);
        (busy as f64 / window_ns as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::IpProtocol;
    use albatross_packet::FiveTuple;

    fn pkt(id: u64) -> NicPacket {
        let tuple = FiveTuple {
            src_ip: "10.0.0.1".parse().unwrap(),
            dst_ip: "10.0.0.2".parse().unwrap(),
            src_port: 1,
            dst_port: 2,
            protocol: IpProtocol::Udp,
        };
        NicPacket::data(id, tuple, None, 256, SimTime::ZERO)
    }

    #[test]
    fn begin_makes_core_busy_until_completion() {
        let mut c: DataCore = DataCore::new(0, 8);
        let done = c.begin(SimTime::from_micros(10), 700);
        assert_eq!(done, SimTime::from_nanos(10_700));
        assert!(!c.idle_at(SimTime::from_nanos(10_699)));
        assert!(c.idle_at(done));
        assert_eq!(c.processed(), 1);
    }

    #[test]
    #[should_panic(expected = "double-scheduled")]
    fn double_scheduling_is_a_bug() {
        let mut c: DataCore = DataCore::new(3, 8);
        c.begin(SimTime::ZERO, 1_000);
        c.begin(SimTime::from_nanos(500), 1_000);
    }

    #[test]
    fn rx_queue_is_fifo_with_drop_accounting() {
        let mut c = DataCore::new(0, 2);
        assert!(c.enqueue(pkt(1)).is_ok());
        assert!(c.enqueue(pkt(2)).is_ok());
        assert!(!c.enqueue(pkt(3)).is_ok());
        assert_eq!(c.rx_drops(), 1);
        assert_eq!(c.take_next().unwrap().id, 1);
        assert_eq!(c.backlog(), 1);
    }

    #[test]
    fn utilization_sampling_resets_each_window() {
        let mut c: DataCore = DataCore::new(0, 8);
        c.begin(SimTime::ZERO, 400_000);
        // 1 ms window, 0.4 ms busy → 40%.
        assert!((c.sample_utilization(1_000_000) - 0.4).abs() < 1e-12);
        // Window consumed: next sample is 0 until more work runs.
        assert_eq!(c.sample_utilization(1_000_000), 0.0);
        assert_eq!(c.busy_ns_total(), 400_000);
    }

    #[test]
    fn utilization_clamps_at_one() {
        let mut c: DataCore = DataCore::new(0, 8);
        c.begin(SimTime::ZERO, 5_000_000);
        assert_eq!(c.sample_utilization(1_000_000), 1.0);
    }
}
