//! Shared scaffolding for the experiment harnesses.
//!
//! Every `benches/*.rs` target regenerates one table or figure of the
//! paper. They all run the same way: build a [`SimConfig`] (or a
//! substrate-specific model), drive it with a workload, and print a
//! paper-vs-measured [`albatross_telemetry::ExperimentReport`].
//!
//! Simulated intervals are compressed relative to the paper's wall-clock
//! runs (tens of milliseconds of virtual time instead of minutes of
//! testbed time); every harness states its interval in its notes. Rates
//! and distributions converge well within these windows because the
//! simulation is deterministic.

use albatross_container::fleet::{FleetConfig, Scenario, ScenarioFleet};
use albatross_container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross_gateway::services::ServiceKind;
use albatross_sim::SimTime;
use albatross_workload::{ConstantRateSource, FlowSet, TrafficSource};

pub use albatross_telemetry::report::{mpps, pct, us};
pub use albatross_telemetry::ExperimentReport;

/// Positional (non-flag) argv tokens, used as substring name filters by
/// every `benches/*` target — `cargo bench --bench micro -- toeplitz` runs
/// only the Toeplitz benchmark, and `scripts/ci.sh` smoke-runs single
/// harnesses the same way. The value following a `--threads` flag is
/// consumed (it is the fleet's thread count, not a filter); `--threads=N`
/// and other `-`-prefixed tokens are ignored outright.
pub fn bench_filters() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threads" {
            let _ = args.next();
        } else if !a.starts_with('-') {
            out.push(a);
        }
    }
    out
}

/// True when `name` passes the argv filter: no positional filters means
/// everything runs; otherwise any filter that is a substring of `name`
/// enables it.
pub fn bench_enabled(name: &str) -> bool {
    let filters = bench_filters();
    filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
}

/// The fleet execution config for harnesses: honours `--threads N` argv
/// (also `--threads=N`) and the `ALBATROSS_THREADS` env var, defaulting to
/// `available_parallelism`.
pub fn fleet_threads() -> FleetConfig {
    FleetConfig::from_env()
}

/// A fleet [`Scenario`] running one pod at saturating offered load —
/// the fleet-parallel equivalent of [`run_saturated`], producing the
/// bit-identical report.
pub fn saturated_scenario(
    name: impl Into<String>,
    cfg: SimConfig,
    service_seed: u64,
    offered_pps: u64,
    duration: SimTime,
) -> Scenario {
    Scenario::new(name, duration, move || {
        let flows = FlowSet::generate(EVAL_FLOWS, Some(1000 + service_seed as u32), service_seed);
        let src =
            ConstantRateSource::new(flows, offered_pps, EVAL_PKT_BYTES, SimTime::ZERO, duration)
                .with_random_flows(service_seed ^ 0x5EED);
        (cfg.clone(), Box::new(src) as Box<dyn TrafficSource>)
    })
}

/// Runs a set of scenarios through the fleet runner with the environment's
/// thread config and returns the reports in scenario order.
pub fn run_fleet(scenarios: Vec<Scenario>) -> Vec<SimReport> {
    let mut fleet = ScenarioFleet::new();
    for s in scenarios {
        fleet.push(s);
    }
    fleet
        .run(&fleet_threads())
        .into_iter()
        .map(|r| r.report)
        .collect()
}

/// The evaluation's standard packet size (§6).
pub const EVAL_PKT_BYTES: u32 = 256;

/// The evaluation's standard concurrent-flow count per pod (§6).
pub const EVAL_FLOWS: usize = 500_000;

/// Data cores per evaluation pod (§6: 46-core pod = 44 data + 2 ctrl).
pub const EVAL_DATA_CORES: usize = 44;

/// Pods per server in the evaluation (one per NUMA node).
pub const EVAL_PODS_PER_SERVER: usize = 2;

/// Builds the §6 evaluation pod configuration for a service.
pub fn eval_pod_config(service: ServiceKind) -> SimConfig {
    let mut cfg = SimConfig::new(EVAL_DATA_CORES, service);
    cfg.warmup = SimTime::from_millis(6);
    cfg.seed = 0xA1BA;
    cfg
}

/// Runs one pod at saturating offered load and returns the report.
/// `offered_pps` should exceed the pod's capacity so the measured
/// throughput is the capacity.
pub fn run_saturated(
    cfg: SimConfig,
    service_seed: u64,
    offered_pps: u64,
    duration: SimTime,
) -> SimReport {
    let flows = FlowSet::generate(EVAL_FLOWS, Some(1000 + service_seed as u32), service_seed);
    let mut src =
        ConstantRateSource::new(flows, offered_pps, EVAL_PKT_BYTES, SimTime::ZERO, duration)
            .with_random_flows(service_seed ^ 0x5EED);
    PodSimulation::new(cfg).run(&mut src, duration)
}

/// Runs one pod with an arbitrary source.
pub fn run_with_source(
    cfg: SimConfig,
    source: &mut dyn TrafficSource,
    duration: SimTime,
) -> SimReport {
    PodSimulation::new(cfg).run(source, duration)
}

/// The Fig. 13/14 tenant-overload scenario, time-compressed 2×
/// (paper second = 500 ms of virtual time; rates are kept at paper scale
/// so the y-axis reads in the same Mpps).
///
/// Four tenants start at 4/3/2/1 Mpps; tenant 1 steps to 34 Mpps halfway
/// through. The pod's capacity is ~20 Mpps: 8 VPC-VPC cores at the
/// ~2.4 Mpps/core this scenario's small hot flow set sustains. Returns
/// the report; per-tenant delivered-rate series sit in `tenant_delivered`
/// keyed by the returned VNIs.
pub fn tenant_overload_scenario(
    rate_limiter: Option<albatross_core::ratelimit::RateLimiterConfig>,
) -> (SimReport, [u32; 4], SimTime) {
    use albatross_core::engine::LbMode;
    use albatross_workload::{MergedSource, RampSource};

    let vnis = [100u32, 200, 300, 400];
    let base_mpps = [4u64, 3, 2, 1];
    let step_at = SimTime::from_millis(500);
    let duration = SimTime::from_secs(1);

    let mut cfg = SimConfig::new(8, ServiceKind::VpcVpc);
    cfg.mode = LbMode::Plb;
    cfg.ordqs = 2;
    cfg.rate_limiter = rate_limiter;
    cfg.tenant_rate_window = SimTime::from_millis(50);
    cfg.seed = 0x13_14;

    let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
    for (i, (&vni, &mpps)) in vnis.iter().zip(&base_mpps).enumerate() {
        let flows = FlowSet::generate(1_000, Some(vni), 90 + i as u64);
        let steps = if i == 0 {
            vec![(SimTime::ZERO, mpps * 1_000_000), (step_at, 34_000_000)]
        } else {
            vec![(SimTime::ZERO, mpps * 1_000_000)]
        };
        sources.push(Box::new(RampSource::new(
            flows,
            steps,
            EVAL_PKT_BYTES,
            duration,
        )));
    }
    let mut src = MergedSource::new(sources);
    let report = PodSimulation::new(cfg).run(&mut src, duration);
    (report, vnis, step_at)
}

/// Mean delivered rate (pps) over the full windows after `from` (skipping
/// the settling window right after the step and the trailing partial
/// window past `until`).
pub fn mean_rate_after(
    meter: &albatross_telemetry::RateMeter,
    from: SimTime,
    window: SimTime,
    until: SimTime,
) -> f64 {
    let pts: Vec<f64> = meter
        .series()
        .iter()
        .filter(|(t, _)| *t >= from.as_nanos() && *t + window.as_nanos() <= until.as_nanos())
        .map(|&(_, r)| r)
        .collect();
    pts.iter().sum::<f64>() / pts.len().max(1) as f64
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Percentage difference of `a` vs `b`.
pub fn pct_diff(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        (a - b).abs() / b
    }
}
