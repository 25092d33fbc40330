//! The containerized gateway platform (§3.2, §5, appendix B).
//!
//! Albatross hosts multiple single-role gateways as *GW pods* on one
//! physical server, partitioning NIC resources (VFs, queue pairs, reorder
//! queues) among them and orchestrating them with a small ACK-like control
//! plane. This crate also hosts [`simrun::PodSimulation`], the
//! discrete-event driver that wires the whole reproduction together —
//! workload source → FPGA NIC pipeline → PLB/RSS engine → data cores →
//! service pipelines over the memory model → reorder → egress — and powers
//! most of the benchmark harnesses.
//!
//! * [`pod`] — GW pod specs and state.
//! * [`server`] — the dual-NUMA Albatross server with per-pod NIC resource
//!   partitioning (reorder queues ∝ cores, 4 VFs per pod).
//! * [`orchestrator`] — pod placement and 10-second elasticity.
//! * [`migration`] — advertise-before-withdraw traffic migration (§7).
//! * [`cost`] — the AZ buildout cost/power model (Fig. 15, Tab. 6).
//! * [`simrun`] — the end-to-end pod simulation.
//! * [`az`] — the coupled AZ resilience simulation: shared switch control
//!   plane + per-server BGP proxies + per-pod BFD, driven by scripted
//!   failure drills, with per-drill delivery/latency/convergence reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod az;
pub mod cost;
pub mod fleet;
pub mod migration;
pub mod orchestrator;
pub mod pod;
pub mod server;
pub mod simrun;

pub use az::{AzConfig, AzReport, AzSimulation, DrillKind, DrillReport, DrillSpec};
pub use cost::{AzCostModel, GatewayGeneration};
pub use fleet::{FleetConfig, FleetResult, Scenario, ScenarioFleet};
pub use orchestrator::Orchestrator;
pub use pod::{GwPodSpec, GwRole};
pub use server::AlbatrossServer;
pub use simrun::{PodSimulation, SimConfig, SimReport};
