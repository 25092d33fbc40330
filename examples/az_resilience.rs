//! AZ-scale resilience drill: one availability zone under the canonical
//! failure suite (Fig. 15's operational story, run as a simulation).
//!
//! ```sh
//! cargo run --release --example az_resilience -- --threads 4
//! ```
//!
//! Eight gateway servers × four pods share one switch control plane:
//! each server's BGP proxy aggregates its pods' /32 VIP advertisements,
//! per-pod BFD sessions drive liveness, and the orchestrator places
//! replacement pods with the real 10 s bring-up. Against that coupled
//! control plane the five-drill script runs — pod crash, mid-flow VIP
//! migration, a BFD flap storm that silences a whole server, a VF
//! failure, and an elastic scale-out — while steered traffic flows the
//! whole time. Every drill window reports delivery, blackholed packets,
//! p99 latency, and control-plane convergence; the output is canonical
//! (`RESULT` lines, floats as bits) so CI can diff it across thread
//! counts: the pods run as a scenario fleet on `--threads` worker threads,
//! which must never change a byte (DESIGN.md §4d, §4f).

use albatross::container::az::{AzConfig, AzSimulation};
use albatross::container::fleet::FleetConfig;
use albatross::sim::SimTime;

fn main() {
    let mut cfg = AzConfig::new(8, 4).with_drill_suite();
    // 1 kpps per routed VIP at full strength — enough traffic for every
    // drill window to have a meaningful packet budget, small enough that
    // the whole 76 s AZ timeline runs in seconds of wall clock.
    cfg.pps = 32_000;
    cfg.flows_per_pod = 64;

    let fleet = FleetConfig::from_env();
    println!(
        "== AZ resilience: {} servers x {} pods, {} pps aggregate, {} drills \
         (threads={}) ==\n",
        cfg.servers,
        cfg.pods_per_server,
        cfg.pps,
        cfg.drills.len(),
        fleet.threads,
    );

    let sim = AzSimulation::new(cfg);
    let report = sim.run(&fleet);

    println!("baseline + drill windows:");
    for w in std::iter::once(&report.baseline).chain(&report.drills) {
        println!(
            "  {:<16} offered {:>8}  delivered {:>8}  blackholed {:>6}  vf_lost {:>5}  \
             p99 {:>6} ns  convergence {:.3} ms",
            w.name,
            w.offered,
            w.delivered,
            w.blackholed,
            w.vf_lost,
            w.p99_ns,
            w.convergence.as_nanos() as f64 / 1e6,
        );
    }
    println!(
        "\n{} shards, {} packets offered, {} blackholed, {} lost at the edge",
        report.shards,
        report.offered(),
        report.blackholed(),
        report.vf_lost()
    );

    // The drills' headline contracts hold at this scale too.
    let crash = &report.drills[0];
    assert_eq!(
        crash.convergence,
        SimTime::from_nanos(150_000_000 + 20_000),
        "crash convergence = BFD detection + one route withdraw"
    );
    let migration = &report.drills[1];
    assert_eq!(migration.blackholed, 0, "migration must not lose a packet");
    assert_eq!(migration.delivered, migration.offered);
    let storm = &report.drills[2];
    assert_eq!(
        storm.routes_from_target,
        Some(0),
        "stormed server ends with zero upstream routes"
    );
    for w in std::iter::once(&report.baseline).chain(&report.drills) {
        assert_eq!(
            w.delivered, w.expected_delivered,
            "conservation in {}",
            w.name
        );
    }

    println!();
    println!("{}", report.render(sim.config()));
}
