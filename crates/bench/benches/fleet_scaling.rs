//! Wall-clock scaling of the fleet runner and the timing-wheel scheduler.
//!
//! Two acceptance gates from the parallel-fleet refactor:
//!
//! 1. **Fleet scaling** — an 8-scenario sweep should finish ≥ 2.5× faster
//!    at `threads = 8` than at `threads = 1` (the scenarios are fully
//!    independent, so the ceiling is core count; the reports must also be
//!    identical, which the determinism suite pins separately).
//! 2. **Wheel vs heap** — the hierarchical timing wheel that replaced the
//!    `BinaryHeap` event queue should sustain ≥ 1.15× the events/sec of
//!    the old heap + lazy-cancel implementation on a Tab. 3-shaped trace
//!    (short service delays with interleaved cancels, the simulator's hot
//!    pattern).
//!
//! Timing uses `std::time::Instant` directly (not `BenchTimer`): both
//! measurements are multi-millisecond, so a single warm pass per arm is
//! already stable to a few percent.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use albatross_bench::{bench_enabled, eval_pod_config, ratio, saturated_scenario};
use albatross_container::fleet::{FleetConfig, ScenarioFleet};
use albatross_gateway::services::ServiceKind;
use albatross_sim::{Engine, SimTime};

/// Builds the 8-scenario sweep: the four Tab. 3 services × 2 seeds, each
/// a saturated 3 ms pod run (small enough to iterate, large enough that
/// spawn overhead is noise).
fn sweep_fleet() -> ScenarioFleet {
    let services = [
        ServiceKind::VpcVpc,
        ServiceKind::VpcInternet,
        ServiceKind::VpcIdc,
        ServiceKind::VpcCloudService,
    ];
    let duration = SimTime::from_millis(3);
    let mut fleet = ScenarioFleet::new();
    for rep in 0..2u64 {
        for (i, &service) in services.iter().enumerate() {
            let mut cfg = eval_pod_config(service);
            cfg.warmup = SimTime::from_millis(1);
            fleet.push(saturated_scenario(
                format!("{}#{rep}", service.name()),
                cfg,
                1 + i as u64 + 4 * rep,
                40_000_000,
                duration,
            ));
        }
    }
    fleet
}

fn bench_fleet_scaling() {
    let fleet = sweep_fleet();
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    let time = |threads: usize| {
        let t0 = Instant::now();
        let results = fleet.run(&FleetConfig { threads });
        let elapsed = t0.elapsed();
        black_box(results.iter().map(|r| r.report.processed).sum::<u64>());
        elapsed
    };
    // Warm pass so allocator/page-cache effects hit neither arm.
    let _ = time(1);
    let serial = time(1);
    let parallel = time(8);
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    println!(
        "  fleet 8 scenarios: threads=1 {:.0} ms, threads=8 {:.0} ms — {} speedup ({ncpu} cores visible)",
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

/// The Tab. 3-shaped synthetic event trace: every "packet" schedules a
/// service-completion event a short delay out, every 4th in-flight event
/// is cancelled (zero-jitter short-circuit), and the engine drains as it
/// goes — matching the simulator's schedule/cancel/pop mix.
const TRACE_EVENTS: u64 = 2_000_000;

fn wheel_trace() -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut pending = Vec::with_capacity(64);
    let mut t = 0u64;
    let mut popped = 0u64;
    for i in 0..TRACE_EVENTS {
        t += 35;
        let delay = 200 + (i % 7) * 90;
        let id = eng.schedule(SimTime::from_nanos(t + delay), i);
        if i % 4 == 0 {
            pending.push(id);
        }
        if pending.len() == 64 {
            for id in pending.drain(..) {
                eng.cancel(id);
            }
        }
        while let Some((at, ev)) = eng.pop_until(SimTime::from_nanos(t)) {
            black_box((at, ev));
            popped += 1;
        }
    }
    while let Some(ev) = eng.pop() {
        black_box(ev);
        popped += 1;
    }
    popped
}

/// The pre-refactor scheduler, inlined as the baseline: a min-`BinaryHeap`
/// of `(time, seq)` with an unbounded lazy-cancel `HashSet`.
fn heap_trace() -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut cancelled: HashSet<u64> = HashSet::new();
    let mut pending = Vec::with_capacity(64);
    let mut t = 0u64;
    let mut popped = 0u64;
    for i in 0..TRACE_EVENTS {
        t += 35;
        let delay = 200 + (i % 7) * 90;
        heap.push(Reverse((t + delay, i, i)));
        if i % 4 == 0 {
            pending.push(i);
        }
        if pending.len() == 64 {
            for seq in pending.drain(..) {
                cancelled.insert(seq);
            }
        }
        while let Some(&Reverse((at, seq, ev))) = heap.peek() {
            if at > t {
                break;
            }
            heap.pop();
            if cancelled.remove(&seq) {
                continue;
            }
            black_box((at, ev));
            popped += 1;
        }
    }
    while let Some(Reverse((at, seq, ev))) = heap.pop() {
        if cancelled.remove(&seq) {
            continue;
        }
        black_box((at, ev));
        popped += 1;
    }
    popped
}

fn bench_wheel_vs_heap() {
    // Warm both paths once.
    let (w, h) = (wheel_trace(), heap_trace());
    assert_eq!(w, h, "wheel and heap must agree on the delivered trace");
    let t0 = Instant::now();
    black_box(heap_trace());
    let heap_eps = TRACE_EVENTS as f64 / t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    black_box(wheel_trace());
    let wheel_eps = TRACE_EVENTS as f64 / t1.elapsed().as_secs_f64();
    println!(
        "  scheduler events/sec: heap {:.1} M, wheel {:.1} M — {} (gate: >= 1.15x single-thread)",
        heap_eps / 1e6,
        wheel_eps / 1e6,
        ratio(wheel_eps / heap_eps),
    );
}

fn main() {
    if !bench_enabled("fleet_scaling") {
        return;
    }
    println!("fleet_scaling:");
    bench_wheel_vs_heap();
    bench_fleet_scaling();
}
