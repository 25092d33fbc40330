//! `albatross-testkit` — the in-tree test substrate that keeps the
//! workspace hermetic.
//!
//! The build environment is offline with an empty registry cache, and
//! DESIGN.md §6 promises bit-identical regeneration of every figure. Both
//! point the same way: no registry dependencies at all. This crate replaces
//! the three external test/bench dependencies the seed tree used:
//!
//! * **`proptest`** → [`props!`] + the [`prop`] strategy combinators: a
//!   seeded property harness with fixed-iteration runs, reproducing-seed
//!   failure reports and greedy input shrinking. Randomness is
//!   [`albatross_sim::SimRng`] (in-tree xoshiro256++), so the exact case
//!   sequence of every property test is pinned by the repo itself.
//! * **`criterion`** → [`BenchTimer`]: warm-up, calibrated sample length,
//!   median/p99 per-iteration report.
//! * **`rand` in tests** → [`SimRng`] re-exported here for convenience.
//!
//! It also hosts [`alloc::CountingAllocator`], the `#[global_allocator]`
//! hook behind the pod simulation's zero-steady-state-allocation tests
//! (this crate is the one place in the workspace allowed to use `unsafe`,
//! which a `GlobalAlloc` impl requires).
//!
//! # Writing a property test
//!
//! ```ignore
//! use albatross_testkit::prelude::*;
//!
//! props! {
//!     #![cases(128)]
//!
//!     fn roundtrip(x in any::<u32>(), pad in vec_of(0u8..255, 0..64)) {
//!         assert_eq!(decode(&encode(x, &pad)), x);
//!     }
//! }
//! ```
//!
//! Set `TESTKIT_SEED=<u64>` to rerun every property with a different (or a
//! failure report's) stream.

pub mod alloc;
pub mod bench;
pub mod prop;

pub use albatross_sim::SimRng;
pub use alloc::CountingAllocator;
pub use bench::{BenchStats, BenchTimer};

/// Everything a property-test file needs.
pub mod prelude {
    pub use crate::bench::{BenchStats, BenchTimer};
    pub use crate::prop::{
        any, just, one_of, option_of, vec_of, BoxedStrategy, Strategy, StrategyExt,
    };
    pub use crate::{assume, one_of, props};
    pub use albatross_sim::SimRng;
}
