//! Synthetic traffic generation.
//!
//! The evaluation's workloads, reproduced as composable deterministic
//! sources:
//!
//! * 500K-concurrent-flow service mixes with 256 B packets (Tab. 3, Fig. 4)
//!   — [`flowgen::FlowSet`] + [`traffic::ConstantRateSource`];
//! * a heavy hitter ramping from 0 to 130% of one core's capacity against
//!   500K background flows (Fig. 8) — [`traffic::RampSource`];
//! * "real cloud network's microburst traffic" (Fig. 9/10) —
//!   [`burst::MicroburstSource`];
//! * four tenants at 4/3/2/1 Mpps with tenant 1 stepping to 34 Mpps at
//!   t=15 s (Fig. 13/14) — [`traffic::RampSource`] per tenant, merged with
//!   [`traffic::MergedSource`];
//! * rotating-overload tenant churn — M tenants each dominant for a few
//!   detection windows, then idle — for heavy-hitter lifecycle stress
//!   ([`churn::RotatingOverloadSource`]);
//! * steering timelines — per-pod constant-rate segments derived from the
//!   AZ control plane's routing decisions, with per-drill VNI labels and
//!   failed-VF edge loss ([`steer::SteeredSource`]);
//! * the short-flow/CPS frontier — single-packet DNS-style UDP and TCP
//!   connect/close churn, one fresh flow per connection at a constant
//!   connections-per-second rate ([`shortflow::ShortFlowSource`]).
//!
//! Sources yield [`PacketDesc`]s in non-decreasing virtual time; they carry
//! flow identity and size, not bytes — the `albatross-packet` builder can
//! materialize real frames for any descriptor when wire-level fidelity is
//! needed ([`flowgen::FlowSet::frame`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod churn;
pub mod flowgen;
pub mod shortflow;
pub mod steer;
pub mod traffic;

pub use churn::RotatingOverloadSource;
pub use flowgen::FlowSet;
pub use shortflow::{ShortFlowKind, ShortFlowSource};
pub use steer::{SteerSegment, SteeredSource};
pub use traffic::{ConstantRateSource, MergedSource, PoissonSource, RampSource, TrafficSource};

use albatross_packet::FiveTuple;
use albatross_sim::SimTime;

/// One packet to inject into the simulated NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDesc {
    /// Arrival time at the NIC port.
    pub time: SimTime,
    /// Flow identity.
    pub tuple: FiveTuple,
    /// Tenant VNI.
    pub vni: Option<u32>,
    /// Frame length in bytes.
    pub len_bytes: u32,
    /// True for control-plane protocol packets.
    pub protocol: bool,
}
