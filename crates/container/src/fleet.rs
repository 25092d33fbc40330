//! Parallel scenario fleets with deterministic, order-preserving results.
//!
//! Every figure/table harness ultimately runs a handful of *independent*
//! [`PodSimulation`]s — one per sweep point, per tenant arm, or per
//! co-resident GW pod — and then reads the reports in a fixed order. The
//! AZ harness's data-plane phase is such a set too: one scenario per pod
//! that carries traffic (`container::az`). The fleet exploits that
//! independence: it fans the scenarios out over OS threads (each scenario
//! owns its own simulation and RNG — nothing is shared), then hands the
//! reports back **in scenario order**, so the output is bit-identical to
//! the serial loop regardless of thread count or completion order
//! (DESIGN.md §4d).
//!
//! `threads = 1` does not spawn at all: scenarios run on the calling
//! thread in the plain serial loop, reproducing today's behaviour exactly.
//!
//! ```
//! use albatross_container::fleet::{FleetConfig, Scenario, ScenarioFleet};
//! use albatross_container::SimConfig;
//! use albatross_gateway::services::ServiceKind;
//! use albatross_sim::SimTime;
//! use albatross_workload::{ConstantRateSource, FlowSet, TrafficSource};
//!
//! let duration = SimTime(2_000_000);
//! let mut fleet = ScenarioFleet::new();
//! for cores in [1usize, 2] {
//!     fleet.push(Scenario::new(
//!         format!("cores={cores}"),
//!         duration,
//!         move || {
//!             let cfg = SimConfig::new(cores, ServiceKind::VpcVpc);
//!             let flows = FlowSet::generate(64, Some(1000), 7);
//!             let src =
//!                 ConstantRateSource::new(flows, 1_000_000, 256, SimTime::ZERO, duration);
//!             (cfg, Box::new(src) as Box<dyn TrafficSource>)
//!         },
//!     ));
//! }
//! let reports = fleet.run(&FleetConfig { threads: 2 });
//! assert_eq!(reports.len(), 2);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use albatross_sim::SimTime;
use albatross_workload::TrafficSource;

use crate::simrun::{PodSimulation, SimConfig, SimReport};

/// Builds one scenario's `(config, traffic source)` pair. The closure runs
/// on the scenario's worker thread, so each scenario constructs (and seeds)
/// its own RNG — nothing crosses threads except the returned [`SimReport`].
pub type ScenarioBuilder = Box<dyn Fn() -> (SimConfig, Box<dyn TrafficSource>) + Send + Sync>;

/// One independent simulation in a fleet: a label, a duration, and a
/// builder that materializes the simulation on whichever thread runs it.
pub struct Scenario {
    /// Human-readable label, carried into [`FleetResult`].
    pub name: String,
    /// Virtual duration to run the pod for.
    pub duration: SimTime,
    build: ScenarioBuilder,
}

impl Scenario {
    /// Creates a scenario from a builder closure.
    pub fn new(
        name: impl Into<String>,
        duration: SimTime,
        builder: impl Fn() -> (SimConfig, Box<dyn TrafficSource>) + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            duration,
            build: Box::new(builder),
        }
    }

    /// Builds the pod on the calling thread and runs it.
    fn run(&self) -> SimReport {
        let (cfg, mut source) = (self.build)();
        PodSimulation::new(cfg).run(source.as_mut(), self.duration)
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("duration", &self.duration)
            .finish_non_exhaustive()
    }
}

/// One scenario's outcome, returned in scenario-index order.
#[derive(Debug)]
pub struct FleetResult {
    /// The scenario's label.
    pub name: String,
    /// The simulation report.
    pub report: SimReport,
}

/// How a fleet is executed.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads. `1` runs serially on the calling thread (no spawn);
    /// anything larger fans scenarios out over that many scoped OS threads.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl FleetConfig {
    /// A serial config (`threads = 1`).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Reads the thread count from the environment: an explicit
    /// `--threads N` argv pair (or `--threads=N`) wins, then the
    /// `ALBATROSS_THREADS` env var, then [`FleetConfig::default`]
    /// (`available_parallelism`). Used by every example and bench harness
    /// so CI can pin thread counts for determinism diffs.
    pub fn from_env() -> Self {
        let parse = |v: &str| v.parse::<usize>().ok();
        let mut threads: Option<usize> = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--threads" {
                threads = args.next().as_deref().and_then(parse).or(threads);
            } else if let Some(v) = a.strip_prefix("--threads=") {
                threads = parse(v).or(threads);
            }
        }
        let threads = threads
            .or_else(|| parse(&std::env::var("ALBATROSS_THREADS").ok()?))
            .unwrap_or_else(|| Self::default().threads)
            .max(1);
        Self { threads }
    }
}

/// An ordered collection of [`Scenario`]s and the runner that executes
/// them.
#[derive(Debug, Default)]
pub struct ScenarioFleet {
    scenarios: Vec<Scenario>,
}

impl ScenarioFleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a scenario; its index fixes its position in the results.
    pub fn push(&mut self, scenario: Scenario) {
        self.scenarios.push(scenario);
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenarios have been pushed.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Runs every scenario and returns the reports **in scenario order**.
    ///
    /// Work distribution is a shared atomic cursor (work-stealing by index):
    /// each worker claims the next unclaimed scenario until none remain, so
    /// at most `threads` pods are alive at once. The claim order affects
    /// only wall-clock, never results — every report is written to its
    /// scenario's dedicated slot and read back in index order.
    pub fn run(&self, cfg: &FleetConfig) -> Vec<FleetResult> {
        let scenarios = &self.scenarios;
        let threads = cfg.threads.max(1).min(scenarios.len().max(1));
        if threads <= 1 {
            // The exact serial loop every harness ran before the fleet
            // existed — no spawn, no locks.
            return scenarios
                .iter()
                .map(|s| FleetResult {
                    name: s.name.clone(),
                    report: s.run(),
                })
                .collect();
        }

        let slots: Vec<Mutex<Option<SimReport>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = scenarios.get(i) else { break };
                    let report = s.run();
                    *slots[i].lock().expect("fleet slot poisoned") = Some(report);
                });
            }
        });

        scenarios
            .iter()
            .zip(slots)
            .map(|(s, slot)| FleetResult {
                name: s.name.clone(),
                report: slot
                    .into_inner()
                    .expect("fleet slot poisoned")
                    .expect("worker finished without a report"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_gateway::services::ServiceKind;
    use albatross_workload::{ConstantRateSource, FlowSet};

    fn small_fleet(n: usize) -> ScenarioFleet {
        let duration = SimTime(1_500_000);
        let mut fleet = ScenarioFleet::new();
        for i in 0..n {
            fleet.push(Scenario::new(format!("pod{i}"), duration, move || {
                let cfg = SimConfig::new(1 + i % 2, ServiceKind::VpcVpc);
                let flows = FlowSet::generate(64, Some(1000 + i as u32), 11 + i as u64);
                let src = ConstantRateSource::new(flows, 2_000_000, 256, SimTime::ZERO, duration);
                (cfg, Box::new(src) as Box<dyn TrafficSource>)
            }));
        }
        fleet
    }

    #[test]
    fn results_come_back_in_scenario_order() {
        let fleet = small_fleet(5);
        let results = fleet.run(&FleetConfig { threads: 3 });
        let names: Vec<_> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["pod0", "pod1", "pod2", "pod3", "pod4"]);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let fleet = small_fleet(4);
        let serial = fleet.run(&FleetConfig::serial());
        let parallel = fleet.run(&FleetConfig { threads: 4 });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.report.processed, b.report.processed);
            assert_eq!(a.report.transmitted, b.report.transmitted);
            assert_eq!(
                a.report.latency.percentile(0.99),
                b.report.latency.percentile(0.99)
            );
        }
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let fleet = small_fleet(2);
        let results = fleet.run(&FleetConfig { threads: 16 });
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.report.processed > 0));
    }

    #[test]
    fn empty_fleet_returns_empty() {
        let fleet = ScenarioFleet::new();
        assert!(fleet.is_empty());
        assert!(fleet.run(&FleetConfig::default()).is_empty());
    }
}
