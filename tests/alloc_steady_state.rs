//! Zero-steady-state-allocation guard for the pod simulation.
//!
//! Once the simulation's scratch buffers (egress buffer, timeout and
//! utilization scratch, reorder-release scratch) reach their working size,
//! pushing more packets through the pod must not touch the allocator.
//! Strict zero is not attainable at the whole-simulation level — telemetry
//! time series and tenant rate-meter windows legitimately append as
//! simulated time passes, and the event heap grows amortized — so this test
//! measures the marginal cost instead: a run 5× longer than the baseline
//! must cost only a telemetry-sized number of extra allocations, orders of
//! magnitude below one per packet.
//!
//! Lives in its own test binary because `#[global_allocator]` is
//! process-global, and every test holds [`SERIAL`] for its whole body: the
//! harness runs tests on parallel threads, and one test's allocations must
//! not land in another's delta.

use std::sync::{Mutex, MutexGuard, PoisonError};

use albatross::container::simrun::{PodSimulation, SimConfig};
use albatross::gateway::flowstate::FlowStateConfig;
use albatross::gateway::services::ServiceKind;
use albatross::sim::SimTime;
use albatross::workload::{ConstantRateSource, FlowSet, ShortFlowKind, ShortFlowSource};
use albatross_testkit::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Serializes the tests of this binary (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]. A failed test poisons it; the lock guards no data, so
/// the remaining tests still run and report their own results.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs the standard scenario for `millis` of simulated time and returns
/// `(packets offered, allocation calls during the run)`.
fn run(millis: u64) -> (u64, u64) {
    let mut cfg = SimConfig::new(4, ServiceKind::VpcVpc);
    cfg.table_scale = 0.001;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.seed = 97;
    let duration = SimTime::from_millis(millis);
    let mut src = ConstantRateSource::new(
        FlowSet::generate(2_000, Some(31), 41),
        2_000_000,
        256,
        SimTime::ZERO,
        duration,
    )
    .with_random_flows(42);
    let before = CountingAllocator::allocations();
    let report = PodSimulation::new(cfg).run(&mut src, duration);
    let after = CountingAllocator::allocations();
    (report.offered, after - before)
}

/// Runs the CPS scenario — single-packet DNS flows through the hardware
/// flow-state frontier — for `millis` of simulated time and returns
/// `(packets offered, allocation calls during the run)`. Every packet is a
/// fresh flow, so this drives the flow table's insert path (and the expiry
/// wheel behind it) as hard as the workload allows.
fn run_cps(millis: u64) -> (u64, u64) {
    let mut cfg = SimConfig::new(4, ServiceKind::VpcInternet);
    cfg.table_scale = 0.001;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.seed = 97;
    let mut flow_state = FlowStateConfig::production();
    // Small capacity + short timeout + fast sampling so install, expiry,
    // and reclaim all cycle many times within even the shortest run — the
    // wheel's per-bucket buffers must reach working size before the
    // measured interval, or the comparison reads warm-up as steady state.
    flow_state.capacity = 4 * 1024;
    flow_state.idle_timeout = SimTime::from_millis(1);
    cfg.flow_state = Some(flow_state);
    cfg.sample_window = SimTime::from_millis(1);
    let duration = SimTime::from_millis(millis);
    let mut src = ShortFlowSource::new(ShortFlowKind::DnsUdp, 1_000_000, SimTime::ZERO, duration);
    let before = CountingAllocator::allocations();
    let report = PodSimulation::new(cfg).run(&mut src, duration);
    let after = CountingAllocator::allocations();
    assert!(
        report.flow_installs > 0,
        "precondition: the CPS run must exercise the install path"
    );
    (report.offered, after - before)
}

#[test]
fn presized_cache_stats_never_allocate_on_access() {
    use albatross::mem::SharedCache;
    let _serial = serial();

    // `with_cores` pre-sizes the per-core hit/miss vectors, so accesses
    // from every in-range core — including the very first from each core —
    // must be allocation-free. This is the cache-model half of the
    // steady-state promise: `SharedCache::access` sits under every table
    // lookup the datapath charges.
    let cores = 16;
    let mut cache = SharedCache::with_cores(1024 * 1024, 8, cores);
    let before = CountingAllocator::allocations();
    for round in 0..4u64 {
        for core in 0..cores {
            for line in 0..64u64 {
                cache.access(core, ((core as u64) << 20) | (line * 64) | round);
            }
        }
    }
    let after = CountingAllocator::allocations();
    assert_eq!(
        after - before,
        0,
        "pre-sized cache must not allocate on access"
    );
    assert!(cache.total_hits() + cache.total_misses() > 0);
}

#[test]
fn longer_runs_cost_only_telemetry_allocations() {
    let _serial = serial();
    // Warm-up run absorbs one-time lazy setup (thread-local buffers,
    // formatting machinery) so the measured runs start from steady state.
    run(2);

    let (pkts_short, allocs_short) = run(6);
    let (pkts_long, allocs_long) = run(30);

    let extra_pkts = pkts_long - pkts_short;
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_pkts > 20_000,
        "precondition: need a meaningful packet delta, got {extra_pkts}"
    );
    // 24 ms of extra simulated time at 2 Mpps is ~48k extra packets. If the
    // datapath allocated even once per packet the delta would be ≥ 48k; in
    // practice the delta is single-digit (telemetry time-series doublings
    // and rate-meter windows only). 200 leaves room for allocator noise
    // while still catching any per-packet allocation instantly.
    assert!(
        extra_allocs < 200,
        "steady-state datapath is allocating: {extra_allocs} extra \
         allocations for {extra_pkts} extra packets"
    );
}

#[test]
fn cps_churn_costs_only_telemetry_allocations() {
    let _serial = serial();
    // The flow table, expiry wheel, and NAT shards are fixed-capacity by
    // construction, so even pure table churn — every packet a fresh flow,
    // installs and expiries cycling constantly — must not touch the
    // allocator once the wheel's per-bucket scratch reaches working size.
    run_cps(2);

    let (pkts_short, allocs_short) = run_cps(6);
    let (pkts_long, allocs_long) = run_cps(30);

    let extra_pkts = pkts_long - pkts_short;
    let extra_allocs = allocs_long.saturating_sub(allocs_short);
    assert!(
        extra_pkts > 20_000,
        "precondition: need a meaningful packet delta, got {extra_pkts}"
    );
    assert!(
        extra_allocs < 200,
        "CPS churn path is allocating: {extra_allocs} extra allocations \
         for {extra_pkts} extra packets"
    );
}
