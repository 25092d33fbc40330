//! Parallel scenario fleets with deterministic, order-preserving results.
//!
//! Every figure/table harness ultimately runs a handful of *independent*
//! [`PodSimulation`]s — one per sweep point, per tenant arm, or per
//! co-resident GW pod — and then reads the reports in a fixed order. The
//! fleet runner exploits that independence: it fans the scenarios out over
//! OS threads (each shard owns its own simulation and RNG — nothing is
//! shared), then hands the reports back **in scenario order**, so the
//! output is bit-identical to the serial loop regardless of thread count
//! or completion order (DESIGN.md §4d).
//!
//! `threads = 1` does not spawn at all: scenarios run on the calling
//! thread in the plain serial loop, reproducing today's behaviour exactly.
//!
//! Scenarios need not be single pods: [`Scenario::new_sharded`] wraps a
//! whole multi-pod coupled run (a [`ShardedPodSimulation`]) as one fleet
//! entry, so a fleet of sharded scenarios shares one thread budget — the
//! fleet fans scenarios out and each sharded scenario fans its pods out
//! over its share of [`FleetConfig::threads`] (DESIGN.md §4g).
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
//! let reports = fleet.run(&FleetConfig { threads: 2, shards: 1 });
//! assert_eq!(reports.len(), 2);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use albatross_sim::SimTime;
use albatross_workload::TrafficSource;

use crate::simrun::{PodSimulation, ShardedPodSimulation, SimConfig, SimReport};

/// Builds one shard's `(config, traffic source)` pair. The closure runs on
/// the shard's worker thread, so each shard constructs (and seeds) its own
/// RNG — nothing crosses threads except the returned [`SimReport`].
pub type ScenarioBuilder = Box<dyn Fn() -> (SimConfig, Box<dyn TrafficSource>) + Send + Sync>;

/// Builds the pods of one *sharded* scenario, in pod order. Sources must
/// be `Send` because the pods execute on lockstep worker threads.
pub type ShardedScenarioBuilder =
    Box<dyn Fn() -> Vec<(SimConfig, Box<dyn TrafficSource + Send>)> + Send + Sync>;

enum Build {
    /// One pod, one classic serial loop.
    Single(ScenarioBuilder),
    /// A multi-pod coupled run on the lockstep shard layer; the report is
    /// the ordered merge of the per-pod reports.
    Sharded(ShardedScenarioBuilder),
}

/// One independent simulation in a fleet: a label, a duration, and a
/// builder that materializes the simulation on whichever thread runs it.
pub struct Scenario {
    /// Human-readable label, carried into [`FleetResult`].
    pub name: String,
    /// Virtual duration to run the pod for.
    pub duration: SimTime,
    build: Build,
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
            build: Build::Single(Box::new(builder)),
        }
    }

    /// Creates a multi-pod scenario that runs on the lockstep shard layer
    /// ([`ShardedPodSimulation`]): the builder returns every pod's
    /// `(config, source)` in pod order, the run uses
    /// [`FleetConfig::shards`] shard groups and this scenario's share of
    /// the fleet's thread budget, and the scenario's report is
    /// [`SimReport::merge_ordered`] over the per-pod reports — byte-
    /// identical at any `shards × threads`.
    pub fn new_sharded(
        name: impl Into<String>,
        duration: SimTime,
        builder: impl Fn() -> Vec<(SimConfig, Box<dyn TrafficSource + Send>)> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            duration,
            build: Build::Sharded(Box::new(builder)),
        }
    }

    /// Runs the scenario. `shards` and `inner_threads` only affect
    /// sharded scenarios (wall clock, never bytes); single-pod scenarios
    /// ignore them.
    fn run(&self, shards: usize, inner_threads: usize) -> SimReport {
        match &self.build {
            Build::Single(builder) => {
                let (cfg, mut source) = builder();
                PodSimulation::new(cfg).run(source.as_mut(), self.duration)
            }
            Build::Sharded(builder) => {
                let mut sharded = ShardedPodSimulation::new();
                for (cfg, source) in builder() {
                    sharded.push(cfg, source, self.duration);
                }
                let reports = sharded.run(shards, inner_threads);
                SimReport::merge_ordered(&reports)
            }
        }
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
    /// anything larger fans shards out over that many scoped OS threads.
    pub threads: usize,
    /// Lockstep shard groups for *sharded* scenarios (coupled multi-pod
    /// runs — see [`Scenario::new_sharded`] and `container::az`). Clamped
    /// to each scenario's pod count; single-pod scenarios ignore it. Like
    /// `threads`, this knob never changes a byte of output.
    pub shards: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            threads,
            shards: threads,
        }
    }
}

impl FleetConfig {
    /// A serial config (`threads = 1`, `shards = 1`).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            shards: 1,
        }
    }

    /// Reads the execution geometry from the environment: explicit
    /// `--threads N` / `--shards N` argv pairs (or `--threads=N` /
    /// `--shards=N`) win, then the `ALBATROSS_THREADS` / `ALBATROSS_SHARDS`
    /// env vars, then [`FleetConfig::default`] (`available_parallelism`;
    /// shards defaults to the thread count). Used by every example and
    /// bench harness so CI can pin geometries for determinism diffs.
    pub fn from_env() -> Self {
        let parse = |v: String| v.parse::<usize>().ok();
        let mut threads: Option<usize> = None;
        let mut shards: Option<usize> = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--threads" {
                threads = args.next().and_then(parse).or(threads);
            } else if let Some(v) = a.strip_prefix("--threads=") {
                threads = parse(v.to_string()).or(threads);
            } else if a == "--shards" {
                shards = args.next().and_then(parse).or(shards);
            } else if let Some(v) = a.strip_prefix("--shards=") {
                shards = parse(v.to_string()).or(shards);
            }
        }
        let env_usize = |key: &str| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        };
        let threads = threads
            .or_else(|| env_usize("ALBATROSS_THREADS"))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1);
        let shards = shards
            .or_else(|| env_usize("ALBATROSS_SHARDS"))
            .unwrap_or(threads)
            .max(1);
        Self { threads, shards }
    }
}

/// An ordered collection of [`Scenario`]s plus the runner that executes
/// them (`FleetRunner` is the internal engine; this is the public face).
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
    pub fn run(&self, cfg: &FleetConfig) -> Vec<FleetResult> {
        FleetRunner::new(cfg.clone()).run(&self.scenarios)
    }
}

/// Executes a slice of scenarios across a fixed number of threads.
///
/// Work distribution is a shared atomic cursor (work-stealing by index):
/// each worker claims the next unclaimed scenario until none remain. The
/// claim order affects only wall-clock, never results — every report is
/// written to its scenario's dedicated slot and read back in index order.
#[derive(Debug)]
pub struct FleetRunner {
    cfg: FleetConfig,
}

impl FleetRunner {
    /// Creates a runner with the given config.
    pub fn new(cfg: FleetConfig) -> Self {
        Self { cfg }
    }

    /// Runs the scenarios, returning results in scenario-index order.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<FleetResult> {
        let threads = self.cfg.threads.max(1).min(scenarios.len().max(1));
        // Shared thread budget: sharded scenarios split the fleet's thread
        // count evenly (a single sharded scenario gets the whole budget).
        // Wall-clock only — scenario bytes never depend on thread counts.
        let inner_threads = (self.cfg.threads.max(1) / scenarios.len().max(1)).max(1);
        let shards = self.cfg.shards.max(1);
        if threads <= 1 {
            // The exact serial loop every harness ran before the fleet
            // existed — no spawn, no locks (sharded scenarios may still
            // spawn their own lockstep workers when inner_threads > 1).
            return scenarios
                .iter()
                .map(|s| FleetResult {
                    name: s.name.clone(),
                    report: s.run(shards, inner_threads),
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
                    let report = s.run(shards, inner_threads);
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
            fleet.push(Scenario::new(format!("shard{i}"), duration, move || {
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
        let results = fleet.run(&FleetConfig {
            threads: 3,
            shards: 1,
        });
        let names: Vec<_> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["shard0", "shard1", "shard2", "shard3", "shard4"]);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let fleet = small_fleet(4);
        let serial = fleet.run(&FleetConfig::serial());
        let parallel = fleet.run(&FleetConfig {
            threads: 4,
            shards: 1,
        });
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
        let results = fleet.run(&FleetConfig {
            threads: 16,
            shards: 1,
        });
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.report.processed > 0));
    }

    #[test]
    fn sharded_scenarios_compose_with_the_fleet() {
        // A mixed fleet: one classic single-pod scenario plus one sharded
        // three-pod scenario. Bytes must not depend on the geometry.
        let duration = SimTime(1_500_000);
        let build_fleet = || {
            let mut fleet = ScenarioFleet::new();
            fleet.push(Scenario::new("single", duration, move || {
                let cfg = SimConfig::new(1, ServiceKind::VpcVpc);
                let flows = FlowSet::generate(64, Some(1000), 11);
                let src = ConstantRateSource::new(flows, 2_000_000, 256, SimTime::ZERO, duration);
                (cfg, Box::new(src) as Box<dyn TrafficSource>)
            }));
            fleet.push(Scenario::new_sharded("coupled", duration, move || {
                (0..3u64)
                    .map(|p| {
                        let cfg = SimConfig::new(1, ServiceKind::VpcVpc);
                        let flows = FlowSet::generate(64, Some(2000 + p as u32), 13 + p);
                        let src =
                            ConstantRateSource::new(flows, 2_000_000, 256, SimTime::ZERO, duration);
                        (cfg, Box::new(src) as Box<dyn TrafficSource + Send>)
                    })
                    .collect()
            }));
            fleet
        };
        let serial = build_fleet().run(&FleetConfig::serial());
        for cfg in [
            FleetConfig {
                threads: 2,
                shards: 3,
            },
            FleetConfig {
                threads: 8,
                shards: 2,
            },
        ] {
            let wide = build_fleet().run(&cfg);
            for (a, b) in serial.iter().zip(&wide) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.report.canonical_dump(), b.report.canonical_dump());
            }
        }
        // The sharded scenario's report is a real multi-pod merge.
        assert_eq!(serial[1].report.per_core_processed.len(), 3);
    }

    #[test]
    fn empty_fleet_returns_empty() {
        let fleet = ScenarioFleet::new();
        assert!(fleet.is_empty());
        assert!(fleet.run(&FleetConfig::default()).is_empty());
    }
}
