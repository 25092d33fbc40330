//! The AZ resilience scenario suite: every failure drill pinned as a
//! negative scenario with explicit expected outcomes, plus the twin-run
//! determinism check.
//!
//! One coupled AZ (2 servers × 2 pods, shared switch control plane,
//! per-server BGP proxies, per-pod BFD) runs the canonical five-drill
//! script once; each test then pins one drill's contract:
//!
//! * pod crash ⇒ its VIP is withdrawn upstream after BFD detection and
//!   delivery rides the surviving pods (stale-route packets blackholed);
//! * re-advertise (respawn / storm recovery) restores traffic within the
//!   convergence bound;
//! * all pods of a server down ⇒ upstream holds **zero** routes from that
//!   server's proxy and no phantom delivery appears;
//! * migration never loses a packet; a VF failure loses exactly the
//!   failed share; scale-out adds capacity after the 10 s bring-up;
//! * conservation: `delivered == offered − blackholed − vf_lost`, exactly.
//!
//! Determinism: the whole report renders byte-identically at
//! `threads ∈ {1, 4}`, and so does the merged report's canonical dump —
//! every counter, float bit, histogram bucket and series point.

use std::sync::OnceLock;

use albatross::container::az::{AzConfig, AzReport, AzSimulation, DrillKind};
use albatross::container::fleet::FleetConfig;
use albatross::sim::SimTime;

fn suite_cfg() -> AzConfig {
    AzConfig::new(2, 2).with_drill_suite()
}

/// The suite run once, serially; every pinning test reads this.
fn suite() -> &'static (AzReport, String) {
    static RUN: OnceLock<(AzReport, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let sim = AzSimulation::new(suite_cfg());
        let report = sim.run(&FleetConfig::serial());
        let rendered = report.render(sim.config());
        (report, rendered)
    })
}

/// Per-route switch processing delay (matches `SwitchControlPlane`).
const PER_ROUTE_NS: u64 = 20_000;
/// BFD production detection time: 3 × 50 ms.
const DETECTION_NS: u64 = 150_000_000;
/// Orchestrator bring-up.
const BRINGUP_NS: u64 = 10_000_000_000;

#[test]
fn pod_crash_blackholes_stale_routes_then_respawn_restores() {
    let (report, _) = suite();
    let drill = &report.drills[0];
    assert_eq!(drill.name, "pod-crash");
    // The switch keeps steering 1/4 of the aggregate at the dead pod until
    // the withdraw converges: those packets are lost, nothing else is.
    assert!(drill.blackholed > 0, "stale-route window must lose packets");
    assert_eq!(drill.delivered, drill.expected_delivered, "conservation");
    assert!(drill.delivery_ratio < 1.0, "a crash is not free");
    assert!(
        drill.delivery_ratio > 0.99,
        "losses bounded by detection time over the window: {}",
        drill.delivery_ratio
    );
    // Convergence = BFD detection + one /32 withdraw at 20 us.
    assert_eq!(
        drill.convergence,
        SimTime::from_nanos(DETECTION_NS + PER_ROUTE_NS),
        "detection + per-route processing, nothing hidden"
    );
    // Delivery rode the survivors: the drill window still delivered the
    // overwhelming share, and its p99 stayed measured (non-zero).
    assert!(drill.p99_ns > 0);
}

#[test]
fn migration_mid_flow_never_leaves_the_vip_unserved() {
    let (report, _) = suite();
    let drill = &report.drills[1];
    assert_eq!(drill.name, "vip-migration");
    // Advertise-before-withdraw: no blackhole window, no loss at all.
    assert_eq!(drill.blackholed, 0, "no event window without a serving pod");
    assert_eq!(drill.vf_lost, 0);
    assert_eq!(drill.delivered, drill.offered, "every packet delivered");
    assert_eq!(
        drill.delivery_ratio.to_bits(),
        1.0f64.to_bits(),
        "delivery ratio is exactly 1.0"
    );
    // Traffic moves to the new pod once it is ready and advertised:
    // 10 s bring-up + one route learned at 20 us.
    assert_eq!(
        drill.convergence,
        SimTime::from_nanos(BRINGUP_NS + PER_ROUTE_NS)
    );
}

#[test]
fn flap_storm_leaves_zero_upstream_routes_and_no_phantom_delivery() {
    let (report, _) = suite();
    let drill = &report.drills[2];
    assert_eq!(drill.name, "bfd-flap-storm");
    // Both server-0 pods went silent past the detection time: the switch
    // must end up holding zero routes from that server's proxy.
    assert_eq!(
        drill.routes_from_target,
        Some(0),
        "upstream sees zero routes for the stormed server"
    );
    // Silence + stale-route packets are blackholed; the survivors carry
    // the rest, and nothing is delivered that was never offered.
    assert!(drill.blackholed > 0);
    assert_eq!(
        drill.delivered, drill.expected_delivered,
        "no phantom delivery"
    );
    assert!(drill.delivery_ratio < 1.0);
    // Convergence: detection after the storm starts; both pods trip at
    // the same 50 ms tick and each withdraw is a single-route flush.
    assert_eq!(
        drill.convergence,
        SimTime::from_nanos(DETECTION_NS + PER_ROUTE_NS),
        "both pods detected at the same tick"
    );
    // The routed-VIP count dipped to exactly the surviving server's pods
    // (2) and ended at 5 after scale-out.
    let values: Vec<f64> = report
        .route_series
        .points()
        .iter()
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(
        values.iter().cloned().fold(f64::INFINITY, f64::min),
        2.0,
        "storm is the deepest routing dip"
    );
    assert_eq!(*values.last().expect("nonempty"), 5.0, "post-scale-out");
}

#[test]
fn vf_failure_loses_exactly_the_failed_vf_share() {
    let (report, _) = suite();
    let drill = &report.drills[3];
    assert_eq!(drill.name, "vf-failure");
    // One of the pod's 4 VFs died: 1/4 of the pod's packets (1/16 of the
    // window's aggregate) disappear at the edge until failover.
    assert!(drill.vf_lost > 0);
    assert_eq!(drill.blackholed, 0, "routing never changed");
    assert_eq!(drill.delivered, drill.expected_delivered, "conservation");
    assert_eq!(drill.convergence, SimTime::from_secs(1), "failover bound");
    // The loss is a bounded share: the failed VF ate 1/4 of one pod's
    // quarter of the aggregate for half the 2 s window — about 1/32 of
    // offered. Pin it between 1/40 and 1/16.
    assert!(drill.vf_lost * 40 > drill.offered, "drop engaged");
    assert!(drill.vf_lost * 16 < drill.offered, "only one VF of one pod");
}

#[test]
fn scale_out_adds_a_routed_pod_after_bringup() {
    let (report, _) = suite();
    let drill = &report.drills[4];
    assert_eq!(drill.name, "scale-out");
    assert_eq!(drill.blackholed, 0);
    assert_eq!(drill.delivered, drill.expected_delivered);
    assert_eq!(
        drill.convergence,
        SimTime::from_nanos(BRINGUP_NS + PER_ROUTE_NS),
        "10 s bring-up + one route learned"
    );
    // 4 initial pods + crash respawn + migration replacement + scale-out.
    assert_eq!(report.shards, 7, "every replacement ran as its own pod");
}

#[test]
fn baseline_windows_are_loss_free_and_conservation_holds_overall() {
    let (report, _) = suite();
    let base = &report.baseline;
    assert_eq!(base.blackholed, 0, "ambient windows never blackhole");
    assert_eq!(base.vf_lost, 0);
    assert_eq!(base.delivered, base.offered);
    assert_eq!(base.delivery_ratio.to_bits(), 1.0f64.to_bits());
    // Global conservation across every window: what the pods transmitted
    // is exactly what was offered minus the two analytic loss channels.
    let expected: u64 = base.expected_delivered
        + report
            .drills
            .iter()
            .map(|d| d.expected_delivered)
            .sum::<u64>();
    assert_eq!(report.merged.transmitted, expected);
    assert_eq!(
        report.merged.offered, expected,
        "pods saw exactly the NIC share"
    );
    // The data plane itself dropped nothing at these rates.
    assert_eq!(report.merged.dropped_rx_queue, 0);
    assert_eq!(report.merged.dropped_ingress_full, 0);
    assert_eq!(report.merged.dropped_ratelimit, 0);
    assert_eq!(report.merged.dropped_acl, 0);
}

#[test]
fn drill_windows_report_their_own_p99() {
    let (report, _) = suite();
    // Every window that delivered packets has a measured p99.
    for w in std::iter::once(&report.baseline).chain(&report.drills) {
        assert!(w.p99_ns > 0, "window {} must report latency", w.name);
        assert!(
            w.p99_ns < 1_000_000,
            "low-rate drills stay well under a millisecond: {} ns in {}",
            w.p99_ns,
            w.name
        );
    }
}

#[test]
fn suite_script_matches_the_documented_drills() {
    // The suite is data: pin its shape so reports stay attributable.
    let cfg = suite_cfg();
    let kinds: Vec<&'static str> = cfg.drills.iter().map(|d| d.kind.name()).collect();
    assert_eq!(
        kinds,
        [
            "pod-crash",
            "vip-migration",
            "bfd-flap-storm",
            "vf-failure",
            "scale-out"
        ]
    );
    assert!(matches!(
        cfg.drills[0].kind,
        DrillKind::PodCrash { server: 0, slot: 0 }
    ));
    let mut prev_end = SimTime::ZERO;
    for d in &cfg.drills {
        assert!(d.at >= prev_end, "windows disjoint");
        prev_end = d.window_end;
    }
}

#[test]
fn twin_runs_are_byte_identical_at_1_and_4_threads() {
    let (serial_report, serial) = suite();
    let sim = AzSimulation::new(suite_cfg());
    let parallel = sim.run(&FleetConfig { threads: 4 });
    assert!(serial.contains("RESULT az "), "render carries RESULT lines");
    assert_eq!(
        serial,
        &parallel.render(sim.config()),
        "thread count must never change a byte of the AZ report"
    );
    assert_eq!(
        serial_report.merged.canonical_dump(),
        parallel.merged.canonical_dump(),
        "thread count must never change a byte of the merged SimReport"
    );
}
