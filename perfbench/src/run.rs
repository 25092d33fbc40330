//! The two kinds of run: end-to-end (tracing off) and traced.
//!
//! Both repeat *rounds* until the time budget is spent. A round builds the
//! workload's flow sets, source and pod from scratch, runs the pod to its
//! horizon, drops everything and checks the report. Every round of a run
//! simulates the same seeded input, so every round must produce the same
//! report.

use std::path::Path;
use std::time::{Duration, Instant};

use albatross_container::simrun::{PodSimulation, SimReport};
use albatross_testkit::alloc::CountingAllocator;

use crate::checks::{self, Checks};
use crate::replay::replay;
use crate::report::{
    anon_huge_pages_kb, fingerprint, median, minor_faults, peak_rss_mb, Metric, Outcome,
};
use crate::trace::{Layer, TracedSource, Tracer};
use crate::workloads::Scenario;

/// Fewest timed rounds of an end-to-end run, whatever the time budget.
const MIN_TIMED_ROUNDS: usize = 5;

/// Set-ups timed per timed round: all but one are dropped unrun, so the
/// set-up median has more samples at a fraction of a round's cost.
const SETUPS_PER_ROUND: usize = 3;

/// Wall times and report of one round.
struct Round {
    setup: Duration,
    run: Duration,
    report: SimReport,
    /// Minor page faults taken during set-up and during `run`.
    setup_faults: u64,
    run_faults: u64,
    /// Transparent-huge-page-backed memory after the round, in KiB.
    huge_kb: u64,
    /// Allocations made inside `PodSimulation::run` (counted only when the
    /// counting allocator is installed).
    run_allocs: u64,
    /// Bytes allocated by `PodSimulation::new`.
    new_bytes: u64,
}

/// Builds the source and the pod (the timed set-up), then runs the pod.
/// With `trace_source` the source is wrapped so each burst of pulls
/// becomes a `workload.next_packet` span under a `container.run` span.
fn round(s: &Scenario, tr: &mut Tracer, trace_source: bool) -> Round {
    let f0 = minor_faults();
    let t0 = Instant::now();
    let mut source = s.source(tr);
    let bytes0 = CountingAllocator::bytes_allocated();
    let sim = tr.call(Layer::ContainerNew, || PodSimulation::new(s.config()));
    let new_bytes = CountingAllocator::bytes_allocated() - bytes0;
    let setup = t0.elapsed();
    let f1 = minor_faults();

    let allocs0 = CountingAllocator::allocations();
    let t1 = Instant::now();
    let report = if trace_source {
        let id = tr.open(Layer::ContainerRun);
        let mut traced = TracedSource::new(source.as_mut(), tr);
        let report = sim.run(&mut traced, s.horizon());
        traced.finish();
        tr.close(id);
        report
    } else {
        sim.run(source.as_mut(), s.horizon())
    };
    let run = t1.elapsed();
    let run_allocs = CountingAllocator::allocations() - allocs0;
    Round {
        setup,
        run,
        report,
        setup_faults: f1 - f0,
        run_faults: minor_faults() - f1,
        huge_kb: anon_huge_pages_kb(),
        run_allocs,
        new_bytes,
    }
}

/// Times one set-up, as a round does, and drops it without running it.
fn setup_only(s: &Scenario, tr: &mut Tracer) -> Duration {
    let t0 = Instant::now();
    let built = (s.source(tr), PodSimulation::new(s.config()));
    let setup = t0.elapsed();
    drop(built);
    setup
}

/// Runs the round's checks; returns true when all passed. `first` is the
/// fingerprint of the run's first report, which every later one must equal.
fn check_round(c: &mut Checks, s: &Scenario, r: &SimReport, first: &mut Option<String>) -> bool {
    let failed = c.failed;
    checks::conservation(c, r);
    checks::paper_shape(c, s, r);
    let fp = fingerprint(r);
    match first {
        None => *first = Some(fp),
        Some(f) => c.check("rounds_identical", *f == fp, "same seed, different report"),
    }
    c.failed == failed
}

/// The end-to-end run.
///
/// 1. A warm-up round, checked but not timed, with the source wrapped as in
///    the traced run. It brings the pages the rounds use into the process
///    (see `keep_heap_resident` in `lib.rs`), and its report is the one
///    every timed round must equal, so tracing the source is checked not to
///    change the simulation.
/// 2. Timed rounds until `seconds` have passed, at least
///    [`MIN_TIMED_ROUNDS`], each after `SETUPS_PER_ROUND - 1` set-ups that
///    are only timed. Throughput is packets over the timed rounds ÷ time
///    inside `run` over those rounds; set-up time is the median of every
///    timed set-up.
pub fn run_e2e(s: &Scenario, seconds: f64) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let mut c = Checks::default();
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let mut tally = |i: usize, r: &Round, note: &str| {
        attempted += r.report.offered;
        if !check_round(&mut c, s, &r.report, &mut first) {
            failed += r.report.offered;
        }
        eprintln!(
            "round {i}: setup {:.6} s ({} faults), run {:.6} s ({} faults), \
             AnonHugePages {} kB{note}",
            r.setup.as_secs_f64(),
            r.setup_faults,
            r.run.as_secs_f64(),
            r.run_faults,
            r.huge_kb,
        );
    };
    tally(
        0,
        &round(s, &mut Tracer::on(), true),
        ", warm-up, not timed",
    );

    let mut tr = Tracer::off();
    let (mut setups, mut timed_pkts, mut run_secs) = (Vec::new(), 0, 0.0);
    for i in 1.. {
        if i > MIN_TIMED_ROUNDS && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        for _ in 1..SETUPS_PER_ROUND {
            setups.push(setup_only(s, &mut tr).as_secs_f64());
        }
        let r = round(s, &mut tr, false);
        tally(i, &r, "");
        timed_pkts += r.report.offered;
        run_secs += r.run.as_secs_f64();
        setups.push(r.setup.as_secs_f64());
    }
    let metrics = vec![
        metric("sim_pkts_per_s", "1/s", timed_pkts as f64 / run_secs),
        metric("setup_s", "s", median(&setups)),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric("check_pass_ratio", "ratio", c.pass_ratio()),
    ];
    Ok(Outcome {
        correct: c.failed == 0,
        attempted,
        failed,
        metrics,
        fingerprint: first.unwrap_or_default(),
    })
}

/// The traced run.
///
/// 1. Replays the workload's stream through the layer adapters
///    ([`replay`]).
/// 2. Alternates untraced and traced rounds of the real pod until the time
///    budget is spent (at least one pair). The traced round wraps only the
///    source; its report must equal the untraced one field for field.
///
/// Writes `<workload>.spans.tsv` and `<workload>.summary.json` into `out`,
/// replacing those of the workload's previous traced run.
pub fn run_traced(s: &Scenario, seconds: f64, out: Option<&Path>) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let mut tr = Tracer::on();
    let mut c = Checks::default();
    let mut first = None;
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut real_offered, mut run_allocs, mut new_bytes) = (0u64, 0u64, 0u64);
    let mut report = None;
    let rp = replay(s, &mut tr);
    let replayed = 0..tr.mark();
    while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let u = round(s, &mut tr, false);
        let t = round(s, &mut tr, true);
        for r in [&u, &t] {
            attempted += r.report.offered;
            if !check_round(&mut c, s, &r.report, &mut first) {
                failed += r.report.offered;
            }
        }
        real_offered += u.report.offered;
        run_allocs += u.run_allocs;
        new_bytes = u.new_bytes;
        plain.push(u.run.as_secs_f64());
        traced.push(t.run.as_secs_f64());
        report.get_or_insert(u.report);
    }
    let report = report.expect("at least one round ran");
    let real = replayed.end..tr.mark();

    let untraced_ns_per_pkt = median(&plain) * 1e9 / report.offered.max(1) as f64;
    let source = tr.totals(real.clone(), Layer::WorkloadNextPacket);
    let run = tr.totals(real.clone(), Layer::ContainerRun);
    let mut m = Vec::new();
    let mut covered_ns = 0.0;
    for layer in Layer::MEASURED {
        let (total, per) = match layer {
            Layer::WorkloadNextPacket => (source, real_offered),
            Layer::WorkloadBuild | Layer::ContainerNew => {
                (tr.totals(real.clone(), layer), attempted)
            }
            Layer::ContainerRun => (run, real_offered),
            _ => (tr.totals(replayed.clone(), layer), rp.offered),
        };
        let calls_per_pkt = ratio(total.calls as f64, per as f64);
        if !matches!(
            layer,
            Layer::WorkloadBuild | Layer::ContainerNew | Layer::ContainerRun
        ) {
            covered_ns += calls_per_pkt * total.ns_per_call();
        }
        m.push(metric(
            format!("{}.ns_per_call", layer.name()),
            "ns",
            total.ns_per_call(),
        ));
        m.push(metric(
            format!("{}.calls_per_pkt", layer.name()),
            "calls/pkt",
            calls_per_pkt,
        ));
    }
    let r = &report;
    let dispatched = r.offered - r.dropped_ratelimit - r.dropped_ingress_full;
    let flow_total = r.flow_hits + r.flow_installs + r.flow_deferred;
    let tier_attempts = r.tier_promotions + r.tier_installs_deferred;
    m.extend([
        metric(
            "container.setup_alloc_mb",
            "MB",
            new_bytes as f64 / (1024.0 * 1024.0),
        ),
        metric(
            "container.self_ns_per_pkt",
            "ns",
            ratio(
                run.busy_ns as f64 - source.busy_ns as f64,
                real_offered as f64,
            ),
        ),
        metric(
            "container.allocs_per_kpkt",
            "allocs/kpkt",
            ratio(run_allocs as f64 * 1000.0, real_offered as f64),
        ),
        metric(
            "core.ratelimit.pass_ratio",
            "ratio",
            if s.config().rate_limiter.is_some() {
                ratio((r.offered - r.dropped_ratelimit) as f64, r.offered as f64)
            } else {
                0.0
            },
        ),
        metric(
            "core.engine.in_order_ratio",
            "ratio",
            ratio(r.in_order as f64, r.transmitted as f64),
        ),
        metric(
            "gateway.worker.rx_drop_ratio",
            "ratio",
            ratio(r.dropped_rx_queue as f64, dispatched as f64),
        ),
        metric("mem.cache.hit_ratio", "ratio", r.cache_hit_rate),
        metric(
            "mem.cache.accesses_per_pkt",
            "accesses/pkt",
            ratio(rp.cache_accesses as f64, rp.offered as f64),
        ),
        metric(
            "gateway.flowstate.hit_ratio",
            "ratio",
            ratio(r.flow_hits as f64, flow_total as f64),
        ),
        metric(
            "gateway.flowstate.deferred_ratio",
            "ratio",
            ratio(r.flow_deferred as f64, flow_total as f64),
        ),
        metric(
            "fpga.tier.offload_hit_ratio",
            "ratio",
            r.tier_offload_hit_rate(),
        ),
        metric(
            "fpga.tier.deferred_ratio",
            "ratio",
            ratio(r.tier_installs_deferred as f64, tier_attempts as f64),
        ),
        metric(
            "trace.coverage",
            "ratio",
            ratio(covered_ns, untraced_ns_per_pkt),
        ),
        metric(
            "trace.overhead",
            "ratio",
            ratio(median(&traced), median(&plain)) - 1.0,
        ),
    ]);

    let outcome = Outcome {
        correct: c.failed == 0,
        attempted,
        failed,
        metrics: m,
        fingerprint: first.unwrap_or_default(),
    };
    if let Some(dir) = out {
        std::fs::create_dir_all(dir)?;
        let stem = s.workload.name();
        std::fs::write(dir.join(format!("{stem}.spans.tsv")), tr.to_tsv())?;
        std::fs::write(
            dir.join(format!("{stem}.summary.json")),
            outcome.to_json() + "\n",
        )?;
    }
    Ok(outcome)
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
