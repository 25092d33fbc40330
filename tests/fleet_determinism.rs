//! The fleet's determinism contract (DESIGN.md §4d): running the same
//! scenarios at any thread count produces **byte-identical** output.
//!
//! A 4-scenario fleet (mixed services, modes, and seeds) is run at
//! `threads ∈ {1, 2, 8}`; every run's reports are rendered with
//! [`SimReport::canonical_dump`] — every counter, float bit, histogram
//! bucket and series point — and must match byte for byte. `threads = 1`
//! is the plain serial loop, so this also pins the parallel paths to the
//! serial baseline, and the merged server-level aggregate
//! ([`SimReport::merge_ordered`]) is included so the merge layer is held
//! to the same standard.

use albatross::container::fleet::{FleetConfig, Scenario, ScenarioFleet};
use albatross::container::simrun::{SimConfig, SimReport};
use albatross::core::engine::LbMode;
use albatross::gateway::services::ServiceKind;
use albatross::sim::SimTime;
use albatross::workload::{ConstantRateSource, FlowSet, TrafficSource};

fn fleet() -> ScenarioFleet {
    let arms = [
        (ServiceKind::VpcVpc, LbMode::Plb, 2usize, 21u64),
        (ServiceKind::VpcInternet, LbMode::Rss, 3, 22),
        (ServiceKind::VpcIdc, LbMode::Plb, 1, 23),
        (ServiceKind::VpcCloudService, LbMode::Plb, 4, 24),
    ];
    let duration = SimTime::from_millis(4);
    let mut fleet = ScenarioFleet::new();
    for (service, mode, cores, seed) in arms {
        fleet.push(Scenario::new(
            format!("{}/{mode:?}", service.name()),
            duration,
            move || {
                let mut cfg = SimConfig::new(cores, service);
                cfg.mode = mode;
                cfg.seed = seed;
                let flows = FlowSet::generate(2_000, Some(seed as u32), seed);
                let src = ConstantRateSource::new(flows, 2_500_000, 256, SimTime::ZERO, duration)
                    .with_random_flows(seed ^ 0x5EED);
                (cfg, Box::new(src) as Box<dyn TrafficSource>)
            },
        ));
    }
    fleet
}

/// Renders a fleet run — every per-scenario report plus the ordered merge
/// of all four — as one canonical text ([`SimReport::canonical_dump`]).
fn render(results: &[(String, SimReport)]) -> String {
    let mut out = String::new();
    for (name, r) in results {
        out += &format!("== {name}\n{}", r.canonical_dump());
    }
    let merged =
        SimReport::merge_ordered(&results.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>());
    out += &format!("== merged\n{}", merged.canonical_dump());
    out
}

#[test]
fn fleet_json_is_byte_identical_across_thread_counts() {
    let fleet = fleet();
    let mut renders = Vec::new();
    for threads in [1usize, 2, 8] {
        let results: Vec<(String, SimReport)> = fleet
            .run(&FleetConfig { threads })
            .into_iter()
            .map(|r| (r.name, r.report))
            .collect();
        // The scenarios must be doing real work for equality to mean much.
        assert!(results.iter().all(|(_, r)| r.processed > 1_000));
        renders.push((threads, render(&results)));
    }
    let (_, baseline) = &renders[0];
    for (threads, text) in &renders[1..] {
        assert_eq!(
            text, baseline,
            "threads={threads} diverged from the serial baseline"
        );
    }
}
