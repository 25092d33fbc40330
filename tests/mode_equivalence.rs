//! System-level equivalence and regression guards: properties that tie
//! the headline numbers of several experiments together, so a change that
//! silently breaks one model surfaces as a cross-check failure here.

use albatross::container::simrun::{PodSimulation, SimConfig, SimReport};
use albatross::core::engine::{LbMode, PlbEngine, PlbEngineConfig};
use albatross::core::ratelimit::RateLimiterConfig;
use albatross::core::reorder::ReorderConfig;
use albatross::fpga::pkt::NicPacket;
use albatross::fpga::tier::{InstallBudget, TierConfig};
use albatross::gateway::flowstate::FlowStateConfig;
use albatross::gateway::services::ServiceKind;
use albatross::packet::flow::IpProtocol;
use albatross::packet::FiveTuple;
use albatross::sim::{LatencyModel, SimTime};
use albatross::workload::{ConstantRateSource, FlowSet};
use albatross_testkit::prelude::*;

fn capacity(mode: LbMode, service: ServiceKind, cores: usize, seed: u64) -> f64 {
    let mut cfg = SimConfig::new(cores, service);
    cfg.mode = mode;
    cfg.warmup = SimTime::from_millis(8);
    cfg.seed = seed;
    let duration = SimTime::from_millis(24);
    let mut src = ConstantRateSource::new(
        FlowSet::generate(200_000, Some(11), seed),
        2_200_000 * cores as u64,
        256,
        SimTime::ZERO,
        duration,
    )
    .with_random_flows(seed ^ 1);
    PodSimulation::new(cfg)
        .run(&mut src, duration)
        .throughput_pps()
}

#[test]
fn fig4_invariant_plb_and_rss_capacity_agree_within_3_percent() {
    // The Fig. 4 headline as a regression guard at test scale.
    let plb = capacity(LbMode::Plb, ServiceKind::VpcVpc, 8, 5);
    let rss = capacity(LbMode::Rss, ServiceKind::VpcVpc, 8, 6);
    let gap = (plb - rss).abs() / rss;
    assert!(
        gap < 0.03,
        "PLB {plb} vs RSS {rss}: {:.1}% apart",
        gap * 100.0
    );
}

#[test]
fn tab3_invariant_service_ordering_holds_at_any_scale() {
    // VPC-Internet < {VPC-IDC} < {VPC-VPC, VPC-CloudService} in rate.
    let vpc = capacity(LbMode::Plb, ServiceKind::VpcVpc, 4, 7);
    let inet = capacity(LbMode::Plb, ServiceKind::VpcInternet, 4, 7);
    let idc = capacity(LbMode::Plb, ServiceKind::VpcIdc, 4, 7);
    let cloud = capacity(LbMode::Plb, ServiceKind::VpcCloudService, 4, 7);
    assert!(inet < idc, "inet {inet} !< idc {idc}");
    assert!(idc < vpc, "idc {idc} !< vpc {vpc}");
    assert!(inet < cloud, "inet {inet} !< cloud {cloud}");
}

#[test]
fn memory_frequency_speeds_up_the_gateway() {
    // The §4.2 8%-from-5600MHz lesson, directionally, as a guard.
    let run = |mhz: u32| {
        let mut cfg = SimConfig::new(4, ServiceKind::VpcVpc);
        cfg.mem_freq_mhz = mhz;
        cfg.warmup = SimTime::from_millis(8);
        let duration = SimTime::from_millis(24);
        let mut src = ConstantRateSource::new(
            FlowSet::generate(200_000, Some(3), 9),
            9_000_000,
            256,
            SimTime::ZERO,
            duration,
        )
        .with_random_flows(10);
        PodSimulation::new(cfg)
            .run(&mut src, duration)
            .throughput_pps()
    };
    let slow = run(4800);
    let fast = run(5600);
    let gain = fast / slow - 1.0;
    assert!(
        (0.02..0.20).contains(&gain),
        "4800→5600 MHz gain {:.1}% out of plausible range",
        gain * 100.0
    );
}

#[test]
fn reorder_timeout_bounds_worst_case_added_latency() {
    // No packet may be delayed by reordering for more than the 100 µs
    // timeout plus pipeline time: inject one stuck flow, measure others.
    let mut cfg = SimConfig::new(2, ServiceKind::VpcVpc);
    cfg.table_scale = 0.002;
    cfg.acl_drop_modulus = Some(64);
    cfg.use_drop_flag = false; // worst case: silent drops
    let duration = SimTime::from_millis(40);
    let mut src = ConstantRateSource::new(
        FlowSet::generate(5_000, Some(2), 13),
        500_000,
        256,
        SimTime::ZERO,
        duration,
    );
    let r = PodSimulation::new(cfg).run(&mut src, SimTime::from_millis(50));
    assert!(r.hol_timeouts > 0, "precondition: HOL must occur");
    // Max latency ≤ NIC (8.1 µs + per-byte) + processing + 100 µs HOL.
    assert!(
        r.latency.max() < 130_000,
        "HOL-delayed packet exceeded the timeout bound: {} ns",
        r.latency.max()
    );
}

/// The stateful engine a burst-size run puts in the pod's path.
#[derive(Debug, Clone, Copy)]
enum PodEngine {
    /// A plain VPC-VPC pod.
    None,
    /// The two-stage limiter, sized to drop part of the load: every
    /// exceeding arrival draws from the RNG for sampling, and the flooding
    /// tenant gets promoted.
    Limiter,
    /// Hardware flow state with too few slots and install tokens for the
    /// flow set, so installs, deferrals and Sample-tick expiry all occur.
    FlowState,
    /// FPGA/DPU/CPU session tiers with tight tables and budgets, and
    /// Sample-tick expiry.
    Tiers,
}

impl PodEngine {
    const ALL: [PodEngine; 4] = [
        PodEngine::None,
        PodEngine::Limiter,
        PodEngine::FlowState,
        PodEngine::Tiers,
    ];

    fn configure(self, cfg: &mut SimConfig) {
        if !matches!(self, PodEngine::None) {
            // A 1 ms tick samples slot occupancy and runs session expiry
            // many times within the run.
            cfg.sample_window = SimTime::from_millis(1);
        }
        match self {
            PodEngine::None => {}
            PodEngine::Limiter => {
                cfg.rate_limiter = Some(RateLimiterConfig {
                    stage1_pps: 1_000_000.0,
                    stage2_pps: 500_000.0,
                    tenant_limit_pps: 1_200_000.0,
                    promote_threshold: 8,
                    window: SimTime::from_millis(2),
                    ..RateLimiterConfig::production()
                });
            }
            PodEngine::FlowState => {
                cfg.flow_state = Some(FlowStateConfig {
                    capacity: 512,
                    idle_timeout: SimTime::from_millis(1),
                    install_budget: Some(InstallBudget {
                        installs_per_sec: 200_000.0,
                        burst: 16.0,
                    }),
                    install_ns: 600,
                    slowpath_ns: 1_800,
                });
            }
            PodEngine::Tiers => {
                cfg.session_tiers = Some(TierConfig {
                    fpga_capacity: 16,
                    dpu_capacity: 32,
                    fpga_install_budget: Some(InstallBudget {
                        installs_per_sec: 4_000.0,
                        burst: 2.0,
                    }),
                    dpu_install_budget: Some(InstallBudget {
                        installs_per_sec: 8_000.0,
                        burst: 4.0,
                    }),
                    elephant_pkts_per_window: 3,
                    window: SimTime::from_millis(1),
                    demote_after_windows: Some(2),
                    evict_on_pressure: true,
                    candidate_slots: 64,
                    idle_timeout: SimTime::from_millis(2),
                    dpu_pkt_ns: 2_500,
                    cpu_session_ns: 80,
                });
            }
        }
    }

    /// True when `r` shows the engine doing the work the arm is for.
    fn exercised(self, r: &SimReport) -> bool {
        match self {
            PodEngine::None => true,
            PodEngine::Limiter => r.dropped_ratelimit > 0 && r.hh_promotions > 0,
            PodEngine::FlowState => {
                r.flow_installs > 0 && r.flow_deferred > 0 && r.flow_expired > 0
            }
            PodEngine::Tiers => r.tier_promotions > 0 && r.tier_expired > 0,
        }
    }
}

/// A run of the full simulated datapath at the given burst size. With
/// `jitter`, per-packet stack jitter forces real reordering and HOL
/// timeouts; without it, service completions carry no extra latency, which
/// is exactly the regime where the inner loop takes its inlined
/// CPU-return shortcut — both halves of the inline batching get exercised.
/// A non-zero `warmup` ends inside the run, so the report is the
/// difference of two snapshots of every total.
fn burst_report(
    burst_size: usize,
    seed: u64,
    jitter: bool,
    engine: PodEngine,
    warmup: SimTime,
) -> SimReport {
    let mut cfg = SimConfig::new(4, ServiceKind::VpcVpc);
    cfg.seed = seed;
    cfg.warmup = warmup;
    cfg.table_scale = 0.001;
    cfg.cache_bytes = 8 * 1024 * 1024;
    cfg.burst.burst_size = burst_size;
    engine.configure(&mut cfg);
    if jitter {
        cfg.extra_jitter = Some(LatencyModel::Uniform {
            lo: 100_000,
            hi: 1_000_000,
        });
    }
    let duration = SimTime::from_millis(10);
    let mut src = ConstantRateSource::new(
        FlowSet::generate(2_000, Some(21), seed),
        2_000_000,
        256,
        SimTime::ZERO,
        duration,
    )
    .with_random_flows(seed ^ 1);
    PodSimulation::new(cfg).run(&mut src, SimTime::from_millis(14))
}

props! {
    #![cases(4)]

    /// Inline batching is a pure mechanical transform. Any burst size
    /// must reproduce the one-event-per-packet (`burst_size = 1`) run's
    /// entire telemetry surface bit-for-bit — every histogram bucket,
    /// utilization sample, and float bit — with each stateful engine in
    /// the path: the limiter's per-arrival RNG draws and the session
    /// engines' Sample-tick expiry must not see the batching either. Every
    /// other arm (by seed parity) ends a 3 ms warm-up inside the run, so
    /// the warm-up snapshot is held to the same bits.
    fn burst_sizes_produce_bit_identical_telemetry(
        seed in 1u64..500,
        jitter in any::<bool>(),
    ) {
        for (i, engine) in PodEngine::ALL.into_iter().enumerate() {
            let warmup = if (seed as usize + i).is_multiple_of(2) {
                SimTime::from_millis(3)
            } else {
                SimTime::ZERO
            };
            let scalar_report = burst_report(1, seed, jitter, engine, warmup);
            assert!(
                engine.exercised(&scalar_report),
                "{engine:?} arm left its engine idle"
            );
            let scalar = scalar_report.canonical_dump();
            let mid = burst_report(7, seed, jitter, engine, warmup).canonical_dump();
            let dpdk = burst_report(32, seed, jitter, engine, warmup).canonical_dump();
            assert_eq!(scalar, mid, "{engine:?}: burst_size 7 diverged from scalar");
            assert_eq!(scalar, dpdk, "{engine:?}: burst_size 32 diverged from scalar");
        }
    }
}

fn golden_pkt(id: u64) -> NicPacket {
    let tuple = FiveTuple {
        src_ip: "192.0.2.1".parse().unwrap(),
        dst_ip: "198.51.100.2".parse().unwrap(),
        src_port: 1024 + id as u16,
        dst_port: 443,
        protocol: IpProtocol::Udp,
    };
    NicPacket::data(id, tuple, Some(42), 256, SimTime::ZERO)
}

/// Golden-sequence guard: the `(ordq, psn)` tags `plb_dispatch` assigns
/// must not drift across refactors (the literal prefix pins them). The pod
/// dispatches every packet through one scalar `ingress` call, so its inline
/// batching cannot reorder them (`burst_sizes_produce_bit_identical_telemetry`).
#[test]
fn golden_psn_assignment_order_is_unchanged_under_bursting() {
    let cfg = PlbEngineConfig {
        data_cores: 4,
        ordqs: 2,
        reorder: ReorderConfig {
            depth: 256,
            timeout_ns: 100_000,
        },
        mode: LbMode::Plb,
        auto_fallback_hol_timeouts: None,
    };

    let mut engine = PlbEngine::new(cfg);
    let mut tags = Vec::new();
    for id in 0..8u64 {
        let mut pkt = golden_pkt(id);
        engine.ingress(&mut pkt, SimTime::ZERO);
        let meta = pkt.meta.expect("PLB ingress must tag the descriptor");
        tags.push((meta.ordq, meta.psn));
    }

    // Pinned golden prefix: distinct flows alternate between the two ordqs
    // and PSNs count up per queue from zero.
    assert_eq!(
        tags,
        [
            (1, 0),
            (0, 0),
            (1, 1),
            (0, 1),
            (1, 2),
            (0, 2),
            (1, 3),
            (0, 3)
        ],
        "golden (ordq, psn) prefix drifted"
    );
}

#[test]
fn different_seeds_actually_change_the_run() {
    let a = capacity(LbMode::Plb, ServiceKind::VpcVpc, 2, 100);
    let b = capacity(LbMode::Plb, ServiceKind::VpcVpc, 2, 101);
    // Same physics, different draws: close but not identical.
    assert!(a != b, "different seeds should perturb the run");
    assert!((a - b).abs() / a < 0.05, "but not by much: {a} vs {b}");
}
