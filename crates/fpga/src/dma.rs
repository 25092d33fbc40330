//! PCIe DMA model.
//!
//! DMA dominates the NIC pipeline latency (Tab. 4: 3.17 µs RX / 2.98 µs TX
//! of the ~4 µs totals). Beyond latency, the model accounts bytes moved per
//! direction — the currency header-only delivery saves: a jumbo frame with
//! an 8,500-byte payload crosses PCIe as a 64-byte header (appendix A).

use crate::pkt::NicPacket;

/// Per-direction DMA accounting and latency.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    latency_rx_ns: u64,
    latency_tx_ns: u64,
    /// Per-byte transfer cost over PCIe (Gen4 x16 ≈ 32 GB/s usable →
    /// ~0.03 ns/B; kept explicit so bandwidth saturation can be studied).
    per_byte_ps: u64,
    bytes_rx: u64,
    bytes_tx: u64,
    packets_rx: u64,
    packets_tx: u64,
}

impl DmaEngine {
    /// Production DMA: Tab. 4 fixed latencies, PCIe Gen4 x16 byte cost.
    pub fn production() -> Self {
        Self {
            latency_rx_ns: 3_170,
            latency_tx_ns: 2_980,
            per_byte_ps: 30, // 0.03 ns per byte
            bytes_rx: 0,
            bytes_tx: 0,
            packets_rx: 0,
            packets_tx: 0,
        }
    }

    /// Charges an RX (NIC→CPU) transfer; returns its latency in ns.
    pub fn transfer_rx(&mut self, pkt: &NicPacket) -> u64 {
        let bytes = u64::from(pkt.pcie_bytes());
        self.bytes_rx += bytes;
        self.packets_rx += 1;
        self.latency_rx_ns + bytes * self.per_byte_ps / 1000
    }

    /// Charges a TX (CPU→NIC) transfer; returns its latency in ns.
    pub fn transfer_tx(&mut self, pkt: &NicPacket) -> u64 {
        let bytes = u64::from(pkt.pcie_bytes());
        self.bytes_tx += bytes;
        self.packets_tx += 1;
        self.latency_tx_ns + bytes * self.per_byte_ps / 1000
    }

    /// Total bytes moved NIC→CPU.
    pub fn bytes_rx(&self) -> u64 {
        self.bytes_rx
    }

    /// Total bytes moved CPU→NIC.
    pub fn bytes_tx(&self) -> u64 {
        self.bytes_tx
    }

    /// Packets moved NIC→CPU.
    pub fn packets_rx(&self) -> u64 {
        self.packets_rx
    }

    /// Packets moved CPU→NIC.
    pub fn packets_tx(&self) -> u64 {
        self.packets_tx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pkt::DeliveryMode;
    use albatross_packet::flow::IpProtocol;
    use albatross_packet::FiveTuple;
    use albatross_sim::SimTime;

    fn pkt(len: u32, delivery: DeliveryMode) -> NicPacket {
        let tuple = FiveTuple {
            src_ip: "10.0.0.1".parse().unwrap(),
            dst_ip: "10.0.0.2".parse().unwrap(),
            src_port: 1,
            dst_port: 2,
            protocol: IpProtocol::Udp,
        };
        let mut p = NicPacket::data(1, tuple, None, len, SimTime::ZERO);
        p.delivery = delivery;
        p
    }

    #[test]
    fn latency_includes_fixed_and_per_byte_parts() {
        let mut dma = DmaEngine::production();
        let small = dma.transfer_rx(&pkt(64, DeliveryMode::FullPacket));
        let big = dma.transfer_rx(&pkt(8_500, DeliveryMode::FullPacket));
        assert!(big > small);
        assert_eq!(small, 3_170 + 64 * 30 / 1000);
        assert_eq!(big, 3_170 + 8_500 * 30 / 1000);
    }

    #[test]
    fn header_only_saves_pcie_bytes() {
        let mut full = DmaEngine::production();
        let mut split = DmaEngine::production();
        for _ in 0..100 {
            full.transfer_rx(&pkt(8_500, DeliveryMode::FullPacket));
            split.transfer_rx(&pkt(8_500, DeliveryMode::HeaderOnly));
        }
        assert_eq!(full.bytes_rx(), 850_000);
        assert_eq!(split.bytes_rx(), 6_400);
        // >99% PCIe bandwidth saving for jumbo frames.
        assert!(split.bytes_rx() * 100 < full.bytes_rx());
    }

    #[test]
    fn directions_counted_separately() {
        let mut dma = DmaEngine::production();
        dma.transfer_rx(&pkt(100, DeliveryMode::FullPacket));
        dma.transfer_tx(&pkt(200, DeliveryMode::FullPacket));
        assert_eq!(dma.bytes_rx(), 100);
        assert_eq!(dma.bytes_tx(), 200);
        assert_eq!(dma.packets_rx(), 1);
        assert_eq!(dma.packets_tx(), 1);
    }
}
