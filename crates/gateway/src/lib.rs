//! Cloud gateway services and forwarding tables.
//!
//! The GW pod's CPU side: the 1st-gen x86 gateway code Albatross reuses
//! wholesale (§3.1 "the CPU can reuse the entire code from the 1st x86
//! gateway"). This crate implements:
//!
//! * [`services::ServicePipeline`] — the four Tab. 2 services as cost
//!   models: lookup chains over the synthetic table layout of
//!   [`albatross_mem::tables::WorkingSet`], charged through
//!   [`albatross_mem`]'s cache/DRAM model, which is what makes VPC-Internet
//!   slower than VPC-VPC (more tables, longer code). Its ACL step denies
//!   flows with `hash % m == 0` when set
//!   ([`ServicePipeline::with_acl_drop_modulus`]): the drop source in the
//!   Fig. 12 drop-flag experiment.
//! * [`flowstate::FlowStateEngine`] — hardware flow-state installs with a
//!   bounded insertion rate (the CPS frontier).
//! * [`worker::DataCore`] — the data-core execution model with utilization
//!   accounting.
//! * [`lpm::LpmTable`] — a real longest-prefix-match table, DRAM-resident,
//!   sized for >10 M VXLAN routes (the Tab. 6 capacity advantage over
//!   Sailfish's 0.2 M). The pod's chain does not call it; the Tab. 6 bench
//!   and the `micro` bench do.
//! * [`session::{LockedSessionTable, ShardedSessionTable}`] — the
//!   write-heavy/write-light stateful-NF state backends behind the §7
//!   scaling lesson (lock + cache-coherence contention vs per-core shards).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flowstate;
pub mod lpm;
pub mod services;
pub mod session;
pub mod worker;

pub use flowstate::{FlowStateConfig, FlowStateEngine, FlowVerdict};
pub use lpm::LpmTable;
pub use services::{ServiceKind, ServicePipeline};
pub use worker::DataCore;
