//! Bit-identical reproducibility of the full data path (DESIGN.md §6).
//!
//! `end_to_end_dataplane.rs` already checks a handful of scalar counters
//! for equality; this test holds the simulator to the actual contract: the
//! *entire* telemetry surface — every counter, every histogram bucket,
//! every per-core utilization sample, every tenant rate window, every
//! float bit — must be identical across two runs of the same seeded
//! scenario, as rendered by [`SimReport::canonical_dump`].

use albatross::container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross::core::ratelimit::RateLimiterConfig;
use albatross::gateway::services::ServiceKind;
use albatross::sim::{LatencyModel, SimTime};
use albatross::workload::{ConstantRateSource, FlowSet, MergedSource, TrafficSource};

/// A deliberately messy scenario: a flooding tenant slamming into the
/// rate limiter, two polite tenants, and per-packet stack jitter so the
/// reorder machinery actually has work to do. Every drop counter, the
/// out-of-order path, the tenant meters, and a wide latency spread are all
/// exercised — determinism of the easy all-in-order case proves little.
fn run_scenario() -> SimReport {
    let mut cfg = SimConfig::new(4, ServiceKind::VpcVpc);
    cfg.table_scale = 0.002;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.rate_limiter = Some(RateLimiterConfig {
        stage1_pps: 1_500_000.0,
        stage2_pps: 400_000.0,
        tenant_limit_pps: 2_000_000.0,
        ..RateLimiterConfig::production()
    });
    cfg.extra_jitter = Some(LatencyModel::Uniform {
        lo: 200_000,
        hi: 2_000_000,
    });
    let duration = SimTime::from_millis(20);
    let flood = ConstantRateSource::new(
        FlowSet::generate(1_500, Some(111), 11),
        3_000_000,
        256,
        SimTime::ZERO,
        duration,
    )
    .with_random_flows(12);
    let polite = ConstantRateSource::new(
        FlowSet::generate(400, Some(222), 13),
        500_000,
        512,
        SimTime::ZERO,
        duration,
    );
    let trickle = ConstantRateSource::new(
        FlowSet::generate(50, Some(333), 17),
        250_000,
        128,
        SimTime::ZERO,
        duration,
    );
    let mut src = MergedSource::new(vec![
        Box::new(flood) as Box<dyn TrafficSource>,
        Box::new(polite),
        Box::new(trickle),
    ]);
    PodSimulation::new(cfg).run(&mut src, SimTime::from_millis(30))
}

#[test]
fn telemetry_dump_is_bit_identical_across_runs() {
    let r1 = run_scenario();
    let r2 = run_scenario();
    // The scenario must be rich enough that equality means something:
    // drops happened, packets arrived disordered, latency spread across
    // many buckets, and all three tenants were metered.
    assert!(r1.offered >= 75_000, "offered only {}", r1.offered);
    assert!(r1.dropped_ratelimit > 0, "flood must hit the limiter");
    assert!(r1.out_of_order > 0, "jitter must disorder some packets");
    assert!(r1.latency.nonempty_buckets().count() > 10);
    assert_eq!(r1.tenant_delivered.len(), 3);
    let a = r1.canonical_dump();
    let b = r2.canonical_dump();
    assert_eq!(
        a, b,
        "telemetry dumps diverged between identical seeded runs"
    );
}
