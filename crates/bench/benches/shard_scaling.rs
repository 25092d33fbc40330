//! Wall-clock scaling of the sharded engine (DESIGN.md §4g): one coupled
//! multi-pod scenario split over lockstep shards.
//!
//! The acceptance gates from the sharded-engine refactor:
//!
//! 1. **Exactness before timing** — the 8-pod Tab. 3-shaped run must
//!    produce byte-identical reports at `shards × threads = 1×1` and
//!    `8×N` *before* any stopwatch starts; a fast wrong answer is not a
//!    speedup.
//! 2. **Shard scaling** — the same run should finish ≥ 2.5× faster at
//!    `8×8` than at `1×1` on an 8-core machine (the pods are
//!    epoch-synchronized but independent between barriers, so the ceiling
//!    is core count minus barrier overhead).
//!
//! Timing uses `std::time::Instant` directly: both arms are
//! multi-millisecond, so a single warm pass per arm is already stable to
//! a few percent.

use std::hint::black_box;
use std::time::Instant;

use albatross_bench::{bench_enabled, eval_pod_config, ratio, EVAL_PKT_BYTES};
use albatross_container::simrun::{ShardedPodSimulation, SimReport};
use albatross_gateway::services::ServiceKind;
use albatross_sim::SimTime;
use albatross_workload::{ConstantRateSource, FlowSet, TrafficSource};

/// Builds the coupled 8-pod run: the four Tab. 3 services × 2 seeds in
/// one `ShardedPodSimulation`, each pod a saturated 3 ms trace (small
/// enough to iterate, large enough that epoch-barrier overhead is real).
fn coupled_pods() -> ShardedPodSimulation {
    let services = [
        ServiceKind::VpcVpc,
        ServiceKind::VpcInternet,
        ServiceKind::VpcIdc,
        ServiceKind::VpcCloudService,
    ];
    let duration = SimTime::from_millis(3);
    let mut sim = ShardedPodSimulation::new();
    for rep in 0..2u64 {
        for (i, &service) in services.iter().enumerate() {
            let mut cfg = eval_pod_config(service);
            cfg.warmup = SimTime::from_millis(1);
            let seed = 1 + i as u64 + 4 * rep;
            let flows = FlowSet::generate(100_000, Some(1000 + seed as u32), seed);
            let src =
                ConstantRateSource::new(flows, 40_000_000, EVAL_PKT_BYTES, SimTime::ZERO, duration)
                    .with_random_flows(seed ^ 0x5EED);
            sim.push(
                cfg,
                Box::new(src) as Box<dyn TrafficSource + Send>,
                duration,
            );
        }
    }
    sim
}

/// Canonical fingerprint of one geometry's reports: every field of every
/// report ([`SimReport::canonical_dump`]), so any drift flips bytes.
fn fingerprint(reports: &[SimReport]) -> String {
    reports.iter().map(SimReport::canonical_dump).collect()
}

fn bench_shard_scaling() {
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Exactness gate: geometry must not change a byte before it is
    // allowed to change the wall clock.
    let serial_fp = fingerprint(&coupled_pods().run(1, 1));
    for (shards, threads) in [(8usize, 1usize), (8, ncpu.min(8))] {
        let fp = fingerprint(&coupled_pods().run(shards, threads));
        assert_eq!(
            fp, serial_fp,
            "{shards}x{threads} diverged from 1x1 — refusing to time a wrong answer"
        );
    }
    println!(
        "  exactness gate: 8x1 and 8x{} match 1x1 byte for byte",
        ncpu.min(8)
    );

    let time = |shards: usize, threads: usize| {
        let sim = coupled_pods();
        let t0 = Instant::now();
        let reports = sim.run(shards, threads);
        let elapsed = t0.elapsed();
        black_box(reports.iter().map(|r| r.processed).sum::<u64>());
        elapsed
    };
    // Warm pass so allocator/page-cache effects hit neither arm.
    let _ = time(1, 1);
    let serial = time(1, 1);
    let parallel = time(8, 8);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "  coupled 8 pods: 1x1 {:.0} ms, 8x8 {:.0} ms — {} speedup ({ncpu} cores visible)",
        serial.as_secs_f64() * 1e3,
        parallel.as_secs_f64() * 1e3,
        ratio(speedup),
    );
    if ncpu >= 8 {
        println!("  gate: >= 2.50x at 8 cores");
    } else {
        println!(
            "  gate: >= 2.50x needs 8 cores; machine-limited to {ncpu} — \
             ceiling here is {ncpu}.00x, gate not evaluable"
        );
    }
}

fn main() {
    if !bench_enabled("shard_scaling") {
        return;
    }
    println!("shard_scaling:");
    bench_shard_scaling();
}
