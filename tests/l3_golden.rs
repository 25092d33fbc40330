//! Pins what the production L3 model does inside two pods.
//!
//! The determinism tests compare a run with itself, and the other tests use
//! caches of at most 8 MiB, so neither would notice a change in how the
//! 192 MiB, 16-way model at its 131,072-set geometry decides hits, victims
//! and latency. These pins were recorded before the cache moved to one
//! record per set and must never move on a storage or speed change:
//!
//! * a 44-core VPC-VPC pod with the full-size tables, ~100K random flows at
//!   40 Mpps for 1 ms (the Tab. 3 shape, shortened);
//! * an 8-core VPC-Internet pod with ACL denial and flow state, so some
//!   chains are cut at the ACL and resident flows skip the session step.
//!   Its 150K packets over 120K flows touch more lines than the cache has
//!   ways in many sets, so the replacement policy decides part of its hit
//!   rate: evicting in insertion order instead of LRU moves the pins.
//!
//! Floats are compared as raw bits.

use albatross::container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross::fpga::tier::InstallBudget;
use albatross::gateway::services::ServiceKind;
use albatross::gateway::FlowStateConfig;
use albatross::sim::SimTime;
use albatross::workload::{ConstantRateSource, FlowSet};

/// The pinned slice of a report.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    processed: u64,
    dropped_acl: u64,
    flow: [u64; 4],
    cache_hit_rate: u64,
    /// Latency mean, p50, p99 and max; the mean as raw `f64` bits.
    latency: [u64; 4],
}

fn pin(r: &SimReport) -> Pin {
    Pin {
        processed: r.processed,
        dropped_acl: r.dropped_acl,
        flow: [
            r.flow_hits,
            r.flow_installs,
            r.flow_deferred,
            r.flow_expired,
        ],
        cache_hit_rate: r.cache_hit_rate.to_bits(),
        latency: [
            r.latency.mean().to_bits(),
            r.latency.percentile(0.5),
            r.latency.percentile(0.99),
            r.latency.max(),
        ],
    }
}

fn run(cfg: SimConfig, flows: usize, pps: u64, millis: u64) -> SimReport {
    let end = SimTime::from_millis(millis);
    let flows = FlowSet::generate(flows, Some(0x7E57), cfg.seed);
    let mut src = ConstantRateSource::new(flows, pps, 256, SimTime::ZERO, end)
        .with_random_flows(cfg.seed ^ 0xF1F0);
    PodSimulation::new(cfg).run(&mut src, SimTime::from_millis(millis + 1))
}

#[test]
fn production_l3_vpc_vpc_pod_is_pinned() {
    let cfg = SimConfig::new(44, ServiceKind::VpcVpc);
    assert_eq!(cfg.cache_bytes, 192 * 1024 * 1024);
    assert_eq!(cfg.cache_ways, 16);
    assert_eq!(cfg.table_scale, 1.0);
    let r = run(cfg, 100_000, 40_000_000, 1);
    assert_eq!(
        pin(&r),
        Pin {
            processed: 40_000,
            dropped_acl: 0,
            flow: [0, 0, 0, 0],
            cache_hit_rate: 4_595_837_551_098_695_971,
            latency: [4_666_229_425_899_469_328, 8_960, 8_960, 9_145],
        }
    );
}

#[test]
fn production_l3_cut_and_offloaded_chains_are_pinned() {
    let mut cfg = SimConfig::new(8, ServiceKind::VpcInternet);
    cfg.seed = 5;
    cfg.acl_drop_modulus = Some(7);
    cfg.sample_window = SimTime::from_millis(2);
    cfg.flow_state = Some(FlowStateConfig {
        idle_timeout: SimTime::from_millis(8),
        install_budget: Some(InstallBudget {
            installs_per_sec: 1_000_000.0,
            burst: 64.0,
        }),
        ..FlowStateConfig::production()
    });
    let r = run(cfg, 120_000, 3_000_000, 50);
    assert_eq!(
        pin(&r),
        Pin {
            processed: 150_151,
            dropped_acl: 21_203,
            flow: [11_372, 50_063, 88_716, 40_965],
            cache_hit_rate: 4_601_523_792_514_838_651,
            latency: [4_671_110_493_459_866_106, 11_264, 98_304, 111_132],
        }
    );
}
