//! Wall-clock microbenchmarks of the hot-path primitives.
//!
//! These complement the table/figure harnesses: they measure the *real*
//! (wall-clock) cost of the data structures the simulation exercises in
//! virtual time — LPM lookup, Toeplitz hashing, the reorder
//! admit/return/poll cycle, the two-stage meter decision, and full-frame
//! parsing. Timing is [`albatross_testkit::BenchTimer`] (warm-up +
//! calibrated samples, median/p99 report).

use std::hint::black_box;
use std::net::Ipv4Addr;

use albatross_core::ratelimit::{RateLimiterConfig, TwoStageRateLimiter};
use albatross_core::reorder::{ReorderConfig, ReorderQueue};
use albatross_fpga::pkt::NicPacket;
use albatross_gateway::lpm::{LpmTable, Prefix};
use albatross_packet::flow::parse_frame;
use albatross_packet::meta::PlbMeta;
use albatross_packet::{FiveTuple, PacketBuilder, ToeplitzHasher};
use albatross_sim::{SimRng, SimTime};
use albatross_testkit::BenchTimer;

fn bench_lpm(timer: &BenchTimer) {
    let mut table = LpmTable::new();
    for i in 0..1_000_000u32 {
        table.insert(Prefix::new(Ipv4Addr::from(i << 8), 24), i);
    }
    let probes: Vec<Ipv4Addr> = (0..1024u32)
        .map(|i| Ipv4Addr::from(((i * 977) << 8) | 0x33))
        .collect();
    let mut i = 0;
    timer.bench("lpm_lookup_1M_routes", || {
        i = (i + 1) & 1023;
        black_box(table.lookup(probes[i]))
    });
}

fn bench_toeplitz(timer: &BenchTimer) {
    let h = ToeplitzHasher::default();
    let tuple = FiveTuple {
        src_ip: "66.9.149.187".parse().unwrap(),
        dst_ip: "161.142.100.80".parse().unwrap(),
        src_port: 2794,
        dst_port: 1766,
        protocol: albatross_packet::flow::IpProtocol::Udp,
    };
    timer.bench("toeplitz_hash_tuple", || {
        black_box(h.hash_tuple(black_box(&tuple)))
    });
}

fn bench_reorder_cycle(timer: &BenchTimer) {
    let tuple = FiveTuple {
        src_ip: "10.0.0.1".parse().unwrap(),
        dst_ip: "10.0.0.2".parse().unwrap(),
        src_port: 1,
        dst_port: 2,
        protocol: albatross_packet::flow::IpProtocol::Udp,
    };
    let mut q = ReorderQueue::new(ReorderConfig::default());
    let mut t = 0u64;
    timer.bench("reorder_admit_return_poll", || {
        t += 100;
        let now = SimTime::from_nanos(t);
        let psn = q.admit(now).expect("never full at depth 4096");
        let mut pkt = NicPacket::data(t, tuple, Some(1), 256, now);
        pkt.meta = Some(PlbMeta::new(psn, 0, t));
        q.cpu_return(pkt, true);
        black_box(q.poll(now).len())
    });
}

fn bench_rate_limiter(timer: &BenchTimer) {
    let mut rl = TwoStageRateLimiter::new(RateLimiterConfig::production());
    let mut rng = SimRng::seed_from(1);
    let mut t = 0u64;
    timer.bench("two_stage_meter_decision", || {
        t += 50;
        black_box(rl.process(
            black_box((t % 4096) as u32),
            SimTime::from_nanos(t),
            &mut rng,
        ))
    });
}

fn bench_parse(timer: &BenchTimer) {
    let frame = PacketBuilder::udp(
        "10.1.0.1".parse().unwrap(),
        "10.2.0.2".parse().unwrap(),
        4000,
        albatross_packet::vxlan::UDP_PORT,
    )
    .vlan(7)
    .vxlan(0x1234, 128)
    .build();
    timer.bench("parse_frame_vlan_vxlan", || {
        black_box(parse_frame(black_box(&frame)).unwrap())
    });
}

fn bench_meta(timer: &BenchTimer) {
    let meta = PlbMeta::new(77, 3, 12345);
    let mut buf = vec![0u8; 256];
    buf.reserve(32);
    timer.bench("meta_attach_detach_tail", || {
        meta.attach_in_place(&mut buf, albatross_packet::MetaPlacement::Tail);
        black_box(
            PlbMeta::detach_in_place(&mut buf, albatross_packet::MetaPlacement::Tail).unwrap(),
        )
    });
}

fn main() {
    let enabled = albatross_bench::bench_enabled;
    let timer = BenchTimer::new();
    if enabled("lpm_lookup_1M_routes") {
        bench_lpm(&timer);
    }
    if enabled("toeplitz_hash_tuple") {
        bench_toeplitz(&timer);
    }
    if enabled("reorder_admit_return_poll") {
        bench_reorder_cycle(&timer);
    }
    if enabled("two_stage_meter_decision") {
        bench_rate_limiter(&timer);
    }
    if enabled("parse_frame_vlan_vxlan") {
        bench_parse(&timer);
    }
    if enabled("meta_attach_detach_tail") {
        bench_meta(&timer);
    }
}
