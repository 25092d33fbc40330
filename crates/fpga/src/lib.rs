//! FPGA NIC-pipeline substrate.
//!
//! Albatross's FPGA SmartNIC implements a "NIC pipeline": a basic pipeline
//! (parser/deparser, VLAN handling for SR-IOV VF steering, header-payload
//! split), a programmable packet director (`pkt_dir`), gateway overload
//! detection, PLB dispatch/reorder, and PCIe DMA (Fig. 1, Fig. 3, appendix
//! A). The PLB and rate-limiter *algorithms* live in `albatross-core`; this
//! crate provides everything around them:
//!
//! * [`pkt::NicPacket`] — the per-packet descriptor that flows through the
//!   simulated data plane.
//! * [`resource`] — the LUT/BRAM ledger that regenerates Tab. 5, plus the
//!   device inventory of the production FPGA (912,800 LUTs, 265 Mbit BRAM).
//! * [`tofino`] — the Tofino resource model for the Sailfish baseline
//!   (Tab. 1).
//! * [`pipeline`] — per-module RX/TX stage latencies and the transit
//!   recorder behind Tab. 4.
//! * [`pktdir`] — the programmable classifier splitting traffic into
//!   priority / RSS / PLB paths with full or header-only delivery.
//! * [`basic`] — VLAN encap/decap and the header-payload split payload
//!   buffer.
//! * [`dma`] — the PCIe DMA model (latency + bytes-moved accounting, which
//!   is where header-only delivery pays off).
//! * [`sriov`] — PF/VF partitioning that gives each GW pod its own queues.
//! * [`prio`] — strict-priority protocol queues (BGP/BFD survival under
//!   overload, §4.3).
//! * [`offload`] — the §7 future-work extension: FPGA-resident session
//!   counters that spare write-heavy stateful NFs their coherence tax.
//! * [`tier`] — the dynamic FPGA/DPU/CPU co-offload hierarchy: elephants
//!   promoted into hardware under token-bucketed install budgets, mice on
//!   the CPU, placement driven by the shared heavy-hitter lifecycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basic;
pub mod dma;
pub mod offload;
pub mod pipeline;
pub mod pkt;
pub mod pktdir;
pub mod prio;
pub mod resource;
pub mod sriov;
pub mod tier;
pub mod tofino;

pub use pipeline::{NicPipelineLatency, StageBreakdown};
pub use pkt::{DeliveryMode, NicPacket};
pub use pktdir::{PacketClass, PktDir};
pub use resource::{FpgaDevice, ResourceLedger};
