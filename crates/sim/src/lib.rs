//! Deterministic discrete-event simulation engine.
//!
//! The Albatross paper evaluates a hardware/software system: an FPGA NIC
//! pipeline feeding x86 cores over PCIe. None of that hardware is available
//! here, so the whole platform runs on virtual time. This crate is the
//! substrate: a nanosecond clock ([`time::SimTime`]), an event heap
//! ([`engine::Engine`]), seeded randomness ([`rng::SimRng`]), bounded queues
//! with drop accounting ([`queue::BoundedQueue`]), token buckets
//! ([`rate::TokenBucket`]) and latency distributions ([`dist::LatencyModel`]).
//!
//! Design follows the networking guides for this codebase: event-driven,
//! simple and robust, no clever type tricks, and — because the workload is
//! CPU-bound — plain synchronous code rather than an async runtime.
//! Experiments run on this engine with fixed seeds so every table and
//! figure regenerates deterministically. Each simulation owns one engine;
//! runs that need several cores run several independent simulations
//! (`container::fleet`), never one simulation across threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod det;
pub mod dist;
pub mod engine;
pub mod lifecycle;
pub mod queue;
pub mod rate;
pub mod rng;
pub mod script;
pub mod time;

pub use det::{BuildDetHasher, DetHashMap, DetHashSet};
pub use dist::LatencyModel;
pub use engine::{Engine, EventId};
pub use lifecycle::{CandidateSketch, LifecycleConfig, Promotion, SlotLifecycle};
pub use queue::BoundedQueue;
pub use rate::TokenBucket;
pub use rng::SimRng;
pub use script::EventScript;
pub use time::SimTime;
