//! The sharded engine's determinism contract (DESIGN.md §4g): running the
//! same coupled scenario at **any** shards × threads geometry produces
//! byte-identical output.
//!
//! The coupled AZ drill suite (shared switch control plane, BGP proxies,
//! BFD sessions, seven pod shards across the drill script) is run at
//! `shards × threads ∈ {1×1, 4×1, 4×4, 8×4}`. Each run is pinned two
//! ways:
//!
//! * the human-readable `AzReport::render` RESULT block — every drill
//!   line, the conservation line, the route series;
//! * the `SimReport::canonical_dump` of the merged report — every
//!   counter, float bit, histogram bucket and series point — so any drift
//!   at all flips bytes.
//!
//! `1×1` is the plain serial lockstep loop, so this pins every parallel
//! geometry to the serial baseline — thread count and shard count must
//! never change a byte.

use albatross::container::az::{AzConfig, AzSimulation};
use albatross::container::fleet::FleetConfig;

fn suite_cfg() -> AzConfig {
    AzConfig::new(2, 2).with_drill_suite()
}

#[test]
fn coupled_scenario_is_byte_identical_across_shard_and_thread_geometries() {
    let geometries = [(1usize, 1usize), (4, 1), (4, 4), (8, 4)];
    let mut runs = Vec::new();
    for (shards, threads) in geometries {
        let sim = AzSimulation::new(suite_cfg());
        let report = sim.run(&FleetConfig { threads, shards });
        // The scenario must be doing real coupled work for equality to
        // mean anything: drills ran, packets flowed, losses happened.
        assert_eq!(report.drills.len(), 5);
        assert!(report.merged.transmitted > 10_000);
        assert!(report.drills.iter().any(|d| d.blackholed > 0));
        let rendered = report.render(sim.config());
        let dump = report.merged.canonical_dump();
        runs.push((shards, threads, rendered, dump));
    }
    let (_, _, base_render, base_dump) = &runs[0];
    for (shards, threads, rendered, dump) in &runs[1..] {
        assert_eq!(
            rendered, base_render,
            "{shards}x{threads} RESULT block diverged from the 1x1 baseline"
        );
        assert_eq!(
            dump, base_dump,
            "{shards}x{threads} merged SimReport dump diverged from the 1x1 baseline"
        );
    }
    // The baseline itself carries RESULT lines (the rendered contract the
    // examples print) — sanity-pin their presence so an empty render can
    // never vacuously pass.
    assert!(
        base_render.contains("RESULT"),
        "render carries RESULT lines"
    );
}
