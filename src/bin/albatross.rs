//! `albatross` — run gateway scenarios from the command line.
//!
//! ```text
//! albatross run [--cores N] [--mode plb|rss] [--service vpc-vpc|vpc-internet|vpc-idc|vpc-cloud]
//!               [--pps N] [--flows N] [--pkt-bytes N] [--millis N] [--seed N]
//!               [--ratelimit PPS] [--acl-drop-mod M] [--no-drop-flag]
//!               [--header-only] [--cross-numa] [--numa-balancing]
//! albatross capacity [--service S] [--cores N]    # measure a pod's max rate
//! albatross help
//! ```
//!
//! Everything runs on the deterministic simulator; the same seed always
//! prints the same report. Argument parsing is deliberately dependency-free.
//! A malformed or out-of-range argument prints the reason and exits with
//! code 2.

use std::process::ExitCode;

use albatross::container::simrun::{PodSimulation, SimConfig};
use albatross::core::engine::LbMode;
use albatross::core::ratelimit::RateLimiterConfig;
use albatross::fpga::pkt::DeliveryMode;
use albatross::gateway::services::ServiceKind;
use albatross::mem::{NumaTopology, Placement};
use albatross::sim::SimTime;
use albatross::workload::{ConstantRateSource, FlowSet};

struct Args {
    cores: usize,
    mode: LbMode,
    service: ServiceKind,
    pps: u64,
    flows: usize,
    pkt_bytes: u32,
    millis: u64,
    seed: u64,
    ratelimit: Option<f64>,
    acl_drop_mod: Option<u64>,
    drop_flag: bool,
    header_only: bool,
    cross_numa: bool,
    numa_balancing: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            cores: 8,
            mode: LbMode::Plb,
            service: ServiceKind::VpcVpc,
            pps: 2_000_000,
            flows: 100_000,
            pkt_bytes: 256,
            millis: 100,
            seed: 1,
            ratelimit: None,
            acl_drop_mod: None,
            drop_flag: true,
            header_only: false,
            cross_numa: false,
            numa_balancing: false,
        }
    }
}

/// Highest `--pps` the source can pace: it spaces packets `1e9 / pps` ns
/// apart, so above 1 Gpps the interval truncates to 0 and the run never
/// advances.
const MAX_PPS: u64 = 1_000_000_000;

impl Args {
    /// Rejects values the simulator cannot run, so a bad flag fails here
    /// with its reason instead of panicking or hanging inside the model.
    fn validate(&self) -> Result<(), String> {
        let max_cores = NumaTopology::albatross_server().total_cores();
        if !(1..=max_cores).contains(&self.cores) {
            return Err(format!(
                "--cores must be in 1..={max_cores} (one Albatross server), got {}",
                self.cores
            ));
        }
        if !(1..=MAX_PPS).contains(&self.pps) {
            return Err(format!("--pps must be in 1..={MAX_PPS}, got {}", self.pps));
        }
        if self.flows == 0 {
            return Err("--flows must be at least 1".into());
        }
        if self.pkt_bytes < 64 {
            return Err(format!(
                "--pkt-bytes must be at least 64 (the minimum Ethernet frame), got {}",
                self.pkt_bytes
            ));
        }
        if let Some(pps) = self.ratelimit {
            if !(pps.is_finite() && pps > 0.0) {
                return Err(format!(
                    "--ratelimit must be a finite rate above 0, got {pps}"
                ));
            }
        }
        if self.acl_drop_mod == Some(0) {
            return Err("--acl-drop-mod must be at least 1".into());
        }
        Ok(())
    }
}

fn usage() {
    eprintln!(
        "usage: albatross <run|capacity|help> [options]\n\
         options:\n\
           --cores N          data cores (default 8)\n\
           --mode plb|rss     load-balancing mode (default plb)\n\
           --service S        vpc-vpc | vpc-internet | vpc-idc | vpc-cloud\n\
           --pps N            offered packets/second (default 2000000)\n\
           --flows N          concurrent flows (default 100000)\n\
           --pkt-bytes N      frame size (default 256)\n\
           --millis N         traffic duration in ms (default 100)\n\
           --seed N           scenario seed (default 1)\n\
           --ratelimit PPS    enable the two-stage limiter at this tenant rate\n\
           --acl-drop-mod M   ACL-deny flows with hash%M==0\n\
           --no-drop-flag     disable the PLB drop flag (show HOL blocking)\n\
           --header-only      header-payload split delivery\n\
           --cross-numa       place memory on the remote NUMA node\n\
           --numa-balancing   leave kernel numa_balancing enabled"
    );
}

fn parse(mut argv: std::env::Args) -> Result<(String, Args), String> {
    let cmd = argv.next().unwrap_or_else(|| "help".into());
    let mut args = Args::default();
    let mut it = argv.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--cores" => args.cores = value("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--mode" => {
                args.mode = match value("--mode")?.as_str() {
                    "plb" => LbMode::Plb,
                    "rss" => LbMode::Rss,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--service" => {
                args.service = match value("--service")?.as_str() {
                    "vpc-vpc" => ServiceKind::VpcVpc,
                    "vpc-internet" => ServiceKind::VpcInternet,
                    "vpc-idc" => ServiceKind::VpcIdc,
                    "vpc-cloud" => ServiceKind::VpcCloudService,
                    other => return Err(format!("unknown service {other}")),
                }
            }
            "--pps" => args.pps = value("--pps")?.parse().map_err(|e| format!("{e}"))?,
            "--flows" => args.flows = value("--flows")?.parse().map_err(|e| format!("{e}"))?,
            "--pkt-bytes" => {
                args.pkt_bytes = value("--pkt-bytes")?.parse().map_err(|e| format!("{e}"))?
            }
            "--millis" => args.millis = value("--millis")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--ratelimit" => {
                args.ratelimit = Some(value("--ratelimit")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--acl-drop-mod" => {
                args.acl_drop_mod = Some(
                    value("--acl-drop-mod")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            "--no-drop-flag" => args.drop_flag = false,
            "--header-only" => args.header_only = true,
            "--cross-numa" => args.cross_numa = true,
            "--numa-balancing" => args.numa_balancing = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.validate()?;
    Ok((cmd, args))
}

fn build_config(a: &Args) -> SimConfig {
    let mut cfg = SimConfig::new(a.cores, a.service);
    cfg.mode = a.mode;
    cfg.seed = a.seed;
    cfg.use_drop_flag = a.drop_flag;
    cfg.acl_drop_modulus = a.acl_drop_mod;
    if a.header_only {
        cfg.delivery = DeliveryMode::HeaderOnly;
    }
    if a.cross_numa {
        cfg.placement = Placement::CrossNuma;
    }
    cfg.numa_balancing = a.numa_balancing;
    cfg.nominal_load = 0.9; // conservative for the balancing model
    if let Some(pps) = a.ratelimit {
        cfg.rate_limiter = Some(RateLimiterConfig {
            stage1_pps: pps * 0.8,
            stage2_pps: pps * 0.2,
            tenant_limit_pps: pps,
            ..RateLimiterConfig::production()
        });
    }
    cfg
}

fn run_scenario(a: &Args) {
    let cfg = build_config(a);
    let end = SimTime::from_millis(a.millis);
    let horizon = SimTime::from_millis(a.millis + 1);
    let flows = FlowSet::generate(a.flows, Some(0x7E57), a.seed);
    let mut src = ConstantRateSource::new(flows, a.pps, a.pkt_bytes, SimTime::ZERO, end)
        .with_random_flows(a.seed ^ 0xF1F0);
    let r = PodSimulation::new(cfg).run(&mut src, horizon);
    println!(
        "scenario: {} {} cores={} pps={} flows={} {}ms seed={}",
        a.service.name(),
        if a.mode == LbMode::Plb { "PLB" } else { "RSS" },
        a.cores,
        a.pps,
        a.flows,
        a.millis,
        a.seed
    );
    println!("offered      {:>12}", r.offered);
    println!("processed    {:>12}", r.processed);
    println!(
        "throughput   {:>12.3} Mpps ({:.3} Mpps/core)",
        r.throughput_pps() / 1e6,
        r.per_core_pps() / 1e6
    );
    println!(
        "transmitted  {:>12}  (in order {}, best-effort {}, disorder {:.1e})",
        r.transmitted,
        r.in_order,
        r.out_of_order,
        r.disorder_rate()
    );
    println!(
        "latency      mean {:.1} us | p50 {:.1} | p99 {:.1} | p99.9 {:.1} | max {:.1}",
        r.latency.mean() / 1e3,
        r.latency.percentile(0.50) as f64 / 1e3,
        r.latency.percentile(0.99) as f64 / 1e3,
        r.latency.percentile(0.999) as f64 / 1e3,
        r.latency.max() as f64 / 1e3
    );
    println!("L3 hit rate  {:>11.1}%", r.cache_hit_rate * 100.0);
    println!(
        "drops        ratelimit {} | ingress {} | rx-queue {} | acl {}",
        r.dropped_ratelimit, r.dropped_ingress_full, r.dropped_rx_queue, r.dropped_acl
    );
    println!(
        "reorder      HOL timeouts {} | drop-flag releases {}",
        r.hol_timeouts, r.drop_flag_releases
    );
    if a.header_only {
        println!(
            "pcie         rx {:.3} GB | tx {:.3} GB | payloads reaped {} | headers dropped {}",
            r.pcie_rx_bytes as f64 / 1e9,
            r.pcie_tx_bytes as f64 / 1e9,
            r.payloads_reaped,
            r.headers_dropped
        );
    }
}

fn run_capacity(a: &Args) {
    // Saturate and report the knee.
    let mut probe = Args {
        pps: 4_000_000 * a.cores as u64,
        millis: 40,
        ..Args::default()
    };
    probe.cores = a.cores;
    probe.service = a.service;
    probe.seed = a.seed;
    let mut cfg = build_config(&probe);
    cfg.warmup = SimTime::from_millis(10);
    let end = SimTime::from_millis(probe.millis);
    let flows = FlowSet::generate(500_000, Some(0x7E57), probe.seed);
    let mut src = ConstantRateSource::new(flows, probe.pps, 256, SimTime::ZERO, end)
        .with_random_flows(probe.seed);
    let r = PodSimulation::new(cfg).run(&mut src, end);
    println!(
        "{} on {} cores: {:.2} Mpps max ({:.3} Mpps/core) at L3 hit {:.1}% (500K flows, 256B)",
        a.service.name(),
        a.cores,
        r.throughput_pps() / 1e6,
        r.per_core_pps() / 1e6,
        r.cache_hit_rate * 100.0
    );
}

fn main() -> ExitCode {
    let mut argv = std::env::args();
    let _ = argv.next();
    match parse(argv) {
        Ok((cmd, args)) => match cmd.as_str() {
            "run" => {
                run_scenario(&args);
                ExitCode::SUCCESS
            }
            "capacity" => {
                run_capacity(&args);
                ExitCode::SUCCESS
            }
            _ => {
                usage();
                ExitCode::SUCCESS
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            // The conventional exit code for a usage error.
            ExitCode::from(2)
        }
    }
}
