//! The four benchmark workloads: one pod configuration and one seeded
//! traffic source each, at benchmark size or at the self-test's tiny size.
//!
//! Every workload is one single-threaded pod fed in-process (an open loop:
//! the source's schedule never waits for the pod). Sources stop one
//! millisecond of simulated time before the pod's horizon, so the pod drains
//! and packet conservation is exact. Why each workload exists is recorded in
//! `README.md` next to this crate.

use albatross_container::simrun::SimConfig;
use albatross_core::ratelimit::RateLimiterConfig;
use albatross_fpga::tier::{InstallBudget, TierConfig};
use albatross_gateway::flowstate::FlowStateConfig;
use albatross_gateway::services::ServiceKind;
use albatross_sim::rng::Zipf;
use albatross_sim::{SimRng, SimTime};
use albatross_workload::{
    ConstantRateSource, FlowSet, MergedSource, PacketDesc, RampSource, ShortFlowKind,
    ShortFlowSource, TrafficSource,
};

use crate::trace::{Layer, Tracer};

/// Frame size of every long-flow workload (the evaluation's 256 B).
const PKT_BYTES: u32 = 256;
/// Tenant VNIs of the limiter workload (Fig. 13/14's four tenants).
pub(crate) const TENANT_VNIS: [u32; 4] = [100, 200, 300, 400];
/// Base rates of those tenants in Mpps; tenant 1 later steps to
/// [`OVERLOAD_MPPS`].
pub(crate) const TENANT_MPPS: [u64; 4] = [4, 3, 2, 1];
/// Tenant 1's rate after the step.
const OVERLOAD_MPPS: u64 = 34;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tab. 3 shape: 44-core VPC-VPC PLB pod, 500K flows at 40 Mpps.
    Tab3Plb,
    /// Fig. 14 shape: 8-core pod behind the production two-stage limiter.
    LimiterOverload,
    /// TCP connect/close churn through the flow-state install frontier.
    CpsChurn,
    /// Zipf(1.0) long flows through the FPGA/DPU/CPU session tiers.
    TiersZipf,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Tab3Plb,
        Workload::LimiterOverload,
        Workload::CpsChurn,
        Workload::TiersZipf,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tab3Plb => "tab3_plb",
            Workload::LimiterOverload => "limiter_overload",
            Workload::CpsChurn => "cps_churn",
            Workload::TiersZipf => "tiers_zipf",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Benchmark size or the self-test's tiny size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A few milliseconds of traffic over small populations, same shapes.
    Tiny,
}

/// One workload at one size and seed: everything a round needs to build a
/// pod and its source.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Which workload.
    pub workload: Workload,
    /// Which size.
    pub size: Size,
    /// Input seed: flow populations, flow choice and the pod's own RNG.
    pub seed: u64,
}

/// Window of the per-tenant delivered-rate meters.
const TENANT_WINDOW: SimTime = SimTime::from_micros(500);
/// Drain time between the end of traffic and the pod's horizon.
const DRAIN: SimTime = SimTime::from_millis(1);

impl Scenario {
    fn full(&self) -> bool {
        self.size == Size::Full
    }

    /// When the source stops emitting.
    pub fn traffic_end(&self) -> SimTime {
        let ms = match (self.workload, self.full()) {
            (Workload::Tab3Plb, true) => 10,
            (Workload::Tab3Plb, false) => 1,
            (Workload::LimiterOverload, true) => 30,
            (Workload::LimiterOverload, false) => 7,
            (Workload::CpsChurn, true) => 200,
            (Workload::CpsChurn, false) => 8,
            (Workload::TiersZipf, true) => 60,
            (Workload::TiersZipf, false) => 8,
        };
        SimTime::from_millis(ms)
    }

    /// The pod's run horizon: the drain after the last packet. Connections
    /// opened just before `traffic_end` still send for one flow lifetime.
    pub fn horizon(&self) -> SimTime {
        let tail = match self.workload {
            Workload::CpsChurn => CPS_FLOW_LIFETIME.as_nanos(),
            _ => 0,
        };
        self.traffic_end() + tail + DRAIN.as_nanos()
    }

    /// When tenant 1 of the limiter workload steps up.
    pub fn step_at(&self) -> SimTime {
        SimTime::from_millis(if self.full() { 2 } else { 1 })
    }

    /// The pod configuration. Building it allocates nothing heavy; the
    /// pod's own construction is timed separately as `container.new`.
    pub fn config(&self) -> SimConfig {
        let mut cfg = match self.workload {
            Workload::Tab3Plb => SimConfig::new(44, ServiceKind::VpcVpc),
            Workload::LimiterOverload => {
                let mut cfg = SimConfig::new(8, ServiceKind::VpcVpc);
                cfg.ordqs = 2;
                cfg.rate_limiter = Some(RateLimiterConfig::production());
                cfg
            }
            Workload::CpsChurn => {
                let mut cfg = SimConfig::new(4, ServiceKind::VpcInternet);
                cfg.table_scale = 0.001;
                cfg.cache_bytes = 8 * 1024 * 1024;
                cfg.flow_state = Some(FlowStateConfig {
                    capacity: 16 * 1024,
                    idle_timeout: SimTime::from_millis(2),
                    install_budget: Some(InstallBudget {
                        installs_per_sec: CPS_INSTALL_BUDGET,
                        burst: CPS_INSTALL_BURST,
                    }),
                    install_ns: 600,
                    slowpath_ns: 1_800,
                });
                cfg
            }
            Workload::TiersZipf => {
                let mut cfg = SimConfig::new(8, ServiceKind::VpcInternet);
                cfg.session_tiers = Some(TierConfig {
                    fpga_capacity: 8 * 1024,
                    dpu_capacity: 24 * 1024,
                    fpga_install_budget: Some(InstallBudget {
                        installs_per_sec: 400_000.0,
                        burst: 1_024.0,
                    }),
                    dpu_install_budget: Some(InstallBudget {
                        installs_per_sec: 800_000.0,
                        burst: 4_096.0,
                    }),
                    elephant_pkts_per_window: 2,
                    window: SimTime::from_millis(5),
                    demote_after_windows: Some(3),
                    evict_on_pressure: true,
                    candidate_slots: 4_096,
                    idle_timeout: SimTime::from_millis(50),
                    dpu_pkt_ns: 2_500,
                    cpu_session_ns: 80,
                });
                cfg
            }
        };
        if !self.full() {
            cfg.table_scale = cfg.table_scale.min(0.01);
            cfg.cache_bytes = cfg.cache_bytes.min(8 * 1024 * 1024);
        }
        cfg.sample_window = SimTime::from_millis(1);
        cfg.tenant_rate_window = TENANT_WINDOW;
        cfg.seed = self.seed;
        cfg
    }

    /// Builds the workload's flow populations and source. Every
    /// `FlowSet::generate` and source constructor is one `workload.build`
    /// span.
    pub fn source(&self, tr: &mut Tracer) -> Box<dyn TrafficSource> {
        let end = self.traffic_end();
        let seed = self.seed;
        match self.workload {
            Workload::Tab3Plb => {
                let n = if self.full() { 500_000 } else { 5_000 };
                let flows = tr.call(Layer::WorkloadBuild, || {
                    FlowSet::generate(n, Some(0x7E57), seed)
                });
                tr.call(Layer::WorkloadBuild, || {
                    Box::new(
                        ConstantRateSource::new(flows, 40_000_000, PKT_BYTES, SimTime::ZERO, end)
                            .with_random_flows(seed ^ 0xF1F0),
                    ) as Box<dyn TrafficSource>
                })
            }
            Workload::LimiterOverload => {
                let n = if self.full() { 1_000 } else { 200 };
                let step_at = self.step_at();
                let mut sources: Vec<Box<dyn TrafficSource>> = Vec::new();
                for (i, (&vni, &mpps)) in TENANT_VNIS.iter().zip(&TENANT_MPPS).enumerate() {
                    let flows = tr.call(Layer::WorkloadBuild, || {
                        FlowSet::generate(n, Some(vni), seed.wrapping_add(i as u64))
                    });
                    let mut steps = vec![(SimTime::ZERO, mpps * 1_000_000)];
                    if i == 0 {
                        steps.push((step_at, OVERLOAD_MPPS * 1_000_000));
                    }
                    sources.push(tr.call(Layer::WorkloadBuild, || {
                        Box::new(RampSource::new(flows, steps, PKT_BYTES, end))
                    }));
                }
                tr.call(Layer::WorkloadBuild, || {
                    Box::new(MergedSource::new(sources)) as Box<dyn TrafficSource>
                })
            }
            Workload::CpsChurn => tr.call(Layer::WorkloadBuild, || {
                let kind = ShortFlowKind::TcpChurn {
                    pkts_per_flow: 4,
                    flow_lifetime: CPS_FLOW_LIFETIME,
                };
                Box::new(SeededTuples::new(
                    ShortFlowSource::new(kind, CPS, SimTime::ZERO, end),
                    seed,
                )) as Box<dyn TrafficSource>
            }),
            Workload::TiersZipf => {
                let n = if self.full() { 200_000 } else { 20_000 };
                let flows = tr.call(Layer::WorkloadBuild, || {
                    FlowSet::generate(n, Some(0x2F1F), seed)
                });
                tr.call(Layer::WorkloadBuild, || {
                    Box::new(ZipfSource::new(flows, 4_000_000, end, seed)) as Box<dyn TrafficSource>
                })
            }
        }
    }
}

/// SYN-to-FIN time of every `cps_churn` connection.
const CPS_FLOW_LIFETIME: SimTime = SimTime::from_millis(1);
/// New TCP connections per second on `cps_churn`.
const CPS: u64 = 500_000;
/// Flow-state install budget on `cps_churn`: below [`CPS`], so deferrals
/// and slow-path packets are part of the steady state.
const CPS_INSTALL_BUDGET: f64 = 300_000.0;
/// Burst tolerance of that budget, in installs.
const CPS_INSTALL_BURST: f64 = 64.0;

/// Maps every tuple of a seed-free source through a seeded bijection
/// (address and port XOR masks), so the seed changes which flows hash where
/// while every flow stays distinct.
struct SeededTuples<S> {
    inner: S,
    ip_mask: u32,
    port_mask: u16,
}

impl<S> SeededTuples<S> {
    fn new(inner: S, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        Self {
            inner,
            // Keep the 10.0.0.0/8 client prefix.
            ip_mask: rng.next_u64() as u32 & 0x00FF_FFFF,
            port_mask: rng.next_u64() as u16,
        }
    }
}

impl<S: TrafficSource> TrafficSource for SeededTuples<S> {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        let mut p = self.inner.next_packet()?;
        p.tuple.src_ip = (u32::from(p.tuple.src_ip) ^ self.ip_mask).into();
        p.tuple.src_port ^= self.port_mask;
        Some(p)
    }
}

/// Constant-rate arrivals whose flow is drawn from Zipf(1.0) popularity
/// over a fixed population of long-lived flows.
struct ZipfSource {
    flows: FlowSet,
    zipf: Zipf,
    rng: SimRng,
    interval_ns: u64,
    next: SimTime,
    end: SimTime,
}

impl ZipfSource {
    fn new(flows: FlowSet, pps: u64, end: SimTime, seed: u64) -> Self {
        Self {
            zipf: Zipf::new(flows.len(), 1.0),
            flows,
            rng: SimRng::seed_from(seed ^ 0x21FF),
            interval_ns: 1_000_000_000 / pps,
            next: SimTime::ZERO,
            end,
        }
    }
}

impl TrafficSource for ZipfSource {
    fn next_packet(&mut self) -> Option<PacketDesc> {
        if self.next >= self.end {
            return None;
        }
        let rank = self.zipf.sample(&mut self.rng);
        let desc = PacketDesc {
            time: self.next,
            tuple: self.flows.flow(rank),
            vni: self.flows.vni(),
            len_bytes: PKT_BYTES,
            protocol: false,
        };
        self.next += self.interval_ns;
        Some(desc)
    }
}
