//! Containerized AZ buildout: orchestration, BGP proxy, and elastic
//! scale-out with make-before-break migration.
//!
//! ```sh
//! cargo run --release --example containerized_az
//! ```
//!
//! Walks the §5/§7 control-plane story: pack 32 gateways of 8 roles onto
//! 8 Albatross servers, front them with BGP proxies so the uplink switch
//! sees 16 peers instead of 128, then handle a traffic surge by spinning
//! up a replacement pod in 10 seconds and migrating its VIP without ever
//! leaving it unserved.

use std::net::Ipv4Addr;

use albatross::bgp::msg::NlriPrefix;
use albatross::bgp::proxy::{switch_peers_direct, switch_peers_with_proxy, BgpProxy};
use albatross::bgp::switchcp::{SwitchControlPlane, SAFE_PEER_LIMIT};
use albatross::container::cost::AzCostModel;
use albatross::container::fleet::{FleetConfig, Scenario, ScenarioFleet};
use albatross::container::migration::{Migration, MigrationPhase, VALIDATION_PERIOD};
use albatross::container::orchestrator::Orchestrator;
use albatross::container::pod::{GwPodSpec, GwRole};
use albatross::container::simrun::{SimConfig, SimReport};
use albatross::gateway::services::ServiceKind;
use albatross::sim::SimTime;
use albatross::workload::{ConstantRateSource, FlowSet, TrafficSource};

fn main() {
    // --- 1. Pack the AZ ------------------------------------------------
    let model = AzCostModel::paper();
    // One spare server beyond the Fig. 15 minimum: §7's lesson is to
    // "build redundant Albatross clusters in advance" so elasticity has
    // somewhere to land.
    let mut orch = Orchestrator::with_servers(model.albatross_servers() + 1);
    for role in GwRole::ALL {
        for _ in 0..model.gateways_per_cluster {
            let spec = GwPodSpec {
                role,
                data_cores: 21,
                ctrl_cores: 2,
            };
            orch.schedule(&spec, SimTime::ZERO).expect("AZ fits");
        }
    }
    println!("== AZ buildout ==");
    println!(
        "placed {} GW pods (8 roles x 4) on {} servers; cost -{:.0}%, power -{:.0}%",
        orch.pods().len(),
        model.albatross_servers(),
        model.cost_reduction() * 100.0,
        model.power_reduction() * 100.0
    );

    // --- 2. BGP proxy keeps the switch healthy -------------------------
    let direct = switch_peers_direct(32, 4);
    let proxied = switch_peers_with_proxy(32, 2);
    let mut cp_direct = SwitchControlPlane::new();
    for _ in 0..direct {
        cp_direct.add_peer(4);
    }
    let mut cp_proxy = SwitchControlPlane::new();
    for _ in 0..proxied {
        cp_proxy.add_peer(8);
    }
    println!("\n== BGP proxy ==");
    println!(
        "switch peers: {direct} direct (limit {SAFE_PEER_LIMIT}) vs {proxied} via dual proxies"
    );
    println!(
        "restart convergence: {} direct vs {} proxied",
        cp_direct.convergence_after_restart(),
        cp_proxy.convergence_after_restart()
    );

    // --- 3. Elastic scale-out with make-before-break -------------------
    println!("\n== Elastic scale-out (10 s) + VIP migration ==");
    let mut proxy = BgpProxy::new();
    let vip = NlriPrefix::new(Ipv4Addr::new(203, 0, 113, 80), 32);
    proxy.pod_advertise(1, vip, Ipv4Addr::new(10, 0, 0, 1));
    proxy.take_upstream_updates();

    let t0 = SimTime::from_secs(1000);
    let bigger_pod = GwPodSpec {
        role: GwRole::Igw,
        data_cores: 44,
        ctrl_cores: 2,
    };
    let scheduled = orch.schedule(&bigger_pod, t0).expect("capacity reserved");
    println!(
        "t={}: surge detected, scheduling a 46-core replacement pod (ready at t={})",
        t0, scheduled.ready_at
    );
    let ready_at = scheduled.ready_at;

    let mut migration = Migration::new(vip, 1, 2);
    migration
        .advertise_new(&mut proxy, Ipv4Addr::new(10, 0, 0, 2), ready_at)
        .expect("new pod advertises first");
    println!("t={ready_at}: new pod advertises {vip:?}; validating for {VALIDATION_PERIOD}");
    // Too early: the protocol refuses.
    let early = ready_at + SimTime::from_secs(5).as_nanos();
    assert!(migration.withdraw_old(&mut proxy, early).is_err());
    println!("t={early}: early withdraw refused (validation incomplete)");
    let done = ready_at + VALIDATION_PERIOD.as_nanos();
    migration
        .withdraw_old(&mut proxy, done)
        .expect("validated withdraw");
    assert_eq!(migration.phase(), MigrationPhase::Complete);
    let served_by = proxy.rib().best(vip).expect("VIP still served").peer;
    println!("t={done}: old pod withdrawn; VIP now served by pod {served_by}");
    println!("\nVIP was served continuously — no switch-visible withdrawal ever happened.");

    // --- 4. One server's co-resident GW pods, as a fleet ---------------
    // An Albatross server hosts two GW pods, one per NUMA node, each
    // owning its own VFs and queue pairs — fully independent data paths.
    // Simulate both pods as fleet scenarios (they may run on two OS threads;
    // `--threads` / ALBATROSS_THREADS picks) and fold them into one
    // server-level report with the ordered merge.
    println!("\n== Co-resident GW pods (one server, two NUMA nodes) ==");
    let duration = SimTime::from_millis(10);
    let mut pods = ScenarioFleet::new();
    for (numa, (service, seed)) in [(ServiceKind::VpcVpc, 31u64), (ServiceKind::VpcInternet, 32)]
        .into_iter()
        .enumerate()
    {
        pods.push(Scenario::new(format!("numa{numa}"), duration, move || {
            let mut cfg = SimConfig::new(8, service);
            cfg.table_scale = 0.01;
            cfg.seed = seed;
            let flows = FlowSet::generate(10_000, Some(seed as u32), seed);
            let src = ConstantRateSource::new(flows, 12_000_000, 256, SimTime::ZERO, duration);
            (cfg, Box::new(src) as Box<dyn TrafficSource>)
        }));
    }
    let results = pods.run(&FleetConfig::from_env());
    for r in &results {
        println!(
            "  pod {}: {:.2} Mpps, p99 {} ns",
            r.name,
            r.report.throughput_pps() / 1e6,
            r.report.latency.percentile(0.99)
        );
    }
    let reports: Vec<SimReport> = results.into_iter().map(|r| r.report).collect();
    let server = SimReport::merge_ordered(&reports);
    assert_eq!(
        server.processed,
        reports.iter().map(|r| r.processed).sum::<u64>()
    );
    assert_eq!(server.core_util.cores(), 16);
    println!(
        "  server: {:.2} Mpps across {} cores, p99 {} ns",
        server.throughput_pps() / 1e6,
        server.core_util.cores(),
        server.latency.percentile(0.99)
    );
}
