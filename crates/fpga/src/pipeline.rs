//! NIC pipeline stage latencies (Tab. 4).
//!
//! The FPGA pipeline contributes a fixed per-packet latency in each
//! direction; Tab. 4 breaks it down by module (basic pipeline, overload
//! detection, PLB, DMA — the DMA dominating at ~3 µs per direction). The
//! simulation charges these stage latencies as packets transit, and the
//! Tab. 4 harness *measures* them back from transit timestamps rather than
//! echoing the configuration — so a regression in the pipeline plumbing
//! shows up as a Tab. 4 mismatch.

use albatross_sim::SimTime;

/// Direction through the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Wire → CPU.
    Rx,
    /// CPU → wire.
    Tx,
}

/// The four Tab. 4 modules, in transit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Parser/deparser, VLAN handling, pkt_split.
    BasicPipeline,
    /// Tenant overload detection (ingress only).
    OverloadDetection,
    /// PLB dispatch (RX) / reorder (TX).
    Plb,
    /// PCIe DMA transfer.
    Dma,
}

impl Stage {
    /// All stages in RX transit order.
    pub const ALL: [Stage; 4] = [
        Stage::BasicPipeline,
        Stage::OverloadDetection,
        Stage::Plb,
        Stage::Dma,
    ];

    /// Display name matching the Tab. 4 rows.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BasicPipeline => "Basic Pipeline",
            Stage::OverloadDetection => "Overload Det.",
            Stage::Plb => "PLB",
            Stage::Dma => "DMA",
        }
    }
}

/// Per-stage RX/TX latencies in nanoseconds.
#[derive(Debug, Clone)]
pub struct NicPipelineLatency {
    basic_rx: u64,
    basic_tx: u64,
    overload_rx: u64,
    overload_tx: u64,
    plb_rx: u64,
    plb_tx: u64,
    dma_rx: u64,
    dma_tx: u64,
}

impl NicPipelineLatency {
    /// The production pipeline's measured latencies (Tab. 4):
    /// basic 0.58/0.84 µs, overload 0.10/0 µs, PLB 0.05/0.35 µs,
    /// DMA 3.17/2.98 µs.
    pub fn production() -> Self {
        Self {
            basic_rx: 580,
            basic_tx: 840,
            overload_rx: 100,
            overload_tx: 0,
            plb_rx: 50,
            plb_tx: 350,
            dma_rx: 3_170,
            dma_tx: 2_980,
        }
    }

    /// Latency of one stage in one direction.
    pub fn stage_ns(&self, stage: Stage, dir: Direction) -> u64 {
        match (stage, dir) {
            (Stage::BasicPipeline, Direction::Rx) => self.basic_rx,
            (Stage::BasicPipeline, Direction::Tx) => self.basic_tx,
            (Stage::OverloadDetection, Direction::Rx) => self.overload_rx,
            (Stage::OverloadDetection, Direction::Tx) => self.overload_tx,
            (Stage::Plb, Direction::Rx) => self.plb_rx,
            (Stage::Plb, Direction::Tx) => self.plb_tx,
            (Stage::Dma, Direction::Rx) => self.dma_rx,
            (Stage::Dma, Direction::Tx) => self.dma_tx,
        }
    }

    /// Total transit latency in one direction.
    pub fn total_ns(&self, dir: Direction) -> u64 {
        Stage::ALL.iter().map(|&s| self.stage_ns(s, dir)).sum()
    }
}

/// Records a packet's per-stage transit timestamps (the Tab. 4 measurement
/// instrument).
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    /// `(stage, direction, ns)` — one entry per record call.
    records: Vec<(Stage, Direction, u64)>,
}

impl StageBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `stage` took `ns` in `dir` for one packet.
    pub fn record(&mut self, stage: Stage, dir: Direction, ns: u64) {
        self.records.push((stage, dir, ns));
    }

    /// Average latency of `stage` in `dir` over all recorded transits.
    pub fn mean_ns(&self, stage: Stage, dir: Direction) -> f64 {
        let (sum, count) = self
            .records
            .iter()
            .filter(|(s, d, _)| *s == stage && *d == dir)
            .fold((0u128, 0u64), |(sum, count), &(_, _, ns)| {
                (sum + u128::from(ns), count + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }

    /// Sum of mean stage latencies in `dir` (the Tab. 4 "Sum" row).
    pub fn total_mean_ns(&self, dir: Direction) -> f64 {
        Stage::ALL.iter().map(|&s| self.mean_ns(s, dir)).sum()
    }
}

/// Walks one packet through all stages in `dir` at `start`, charging stage
/// latencies, recording them into `breakdown`, and returning the exit time.
pub fn transit(
    lat: &NicPipelineLatency,
    dir: Direction,
    start: SimTime,
    breakdown: &mut StageBreakdown,
) -> SimTime {
    let mut now = start;
    for &stage in &Stage::ALL {
        let ns = lat.stage_ns(stage, dir);
        breakdown.record(stage, dir, ns);
        now += ns;
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_totals_match_tab4() {
        let l = NicPipelineLatency::production();
        assert_eq!(l.total_ns(Direction::Rx), 3_900); // 3.90 µs
        assert_eq!(l.total_ns(Direction::Tx), 4_170); // 4.17 µs
    }

    #[test]
    fn dma_dominates() {
        let l = NicPipelineLatency::production();
        for dir in [Direction::Rx, Direction::Tx] {
            let dma = l.stage_ns(Stage::Dma, dir);
            let rest: u64 = Stage::ALL
                .iter()
                .filter(|&&s| s != Stage::Dma)
                .map(|&s| l.stage_ns(s, dir))
                .sum();
            assert!(dma > rest * 2, "DMA must dominate the {dir:?} path");
        }
    }

    #[test]
    fn overload_detection_is_rx_only() {
        let l = NicPipelineLatency::production();
        assert_eq!(l.stage_ns(Stage::OverloadDetection, Direction::Tx), 0);
        assert!(l.stage_ns(Stage::OverloadDetection, Direction::Rx) > 0);
    }

    #[test]
    fn transit_advances_time_by_total() {
        let l = NicPipelineLatency::production();
        let mut bd = StageBreakdown::new();
        let t0 = SimTime::from_micros(100);
        let t1 = transit(&l, Direction::Rx, t0, &mut bd);
        assert_eq!(t1 - t0, l.total_ns(Direction::Rx));
    }

    #[test]
    fn breakdown_measures_what_was_charged() {
        let l = NicPipelineLatency::production();
        let mut bd = StageBreakdown::new();
        for i in 0..10 {
            transit(&l, Direction::Rx, SimTime::from_micros(i), &mut bd);
            transit(&l, Direction::Tx, SimTime::from_micros(i), &mut bd);
        }
        assert_eq!(bd.mean_ns(Stage::Dma, Direction::Rx), 3_170.0);
        assert_eq!(bd.mean_ns(Stage::Plb, Direction::Tx), 350.0);
        assert_eq!(bd.total_mean_ns(Direction::Rx), 3_900.0);
        assert_eq!(bd.total_mean_ns(Direction::Tx), 4_170.0);
    }

    #[test]
    fn empty_breakdown_reads_zero() {
        let bd = StageBreakdown::new();
        assert_eq!(bd.mean_ns(Stage::Plb, Direction::Rx), 0.0);
    }
}
