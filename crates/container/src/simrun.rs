//! The end-to-end GW pod simulation.
//!
//! [`PodSimulation`] wires every subsystem of the reproduction together in
//! one discrete-event loop, mirroring Fig. 1's data path:
//!
//! ```text
//! workload source ──► [rate limiter] ──► RX pipeline (basic/overload/PLB
//!   dispatch/DMA) ──► per-core RX queues ──► service pipeline over the
//!   L3/DRAM model ──► TX DMA ──► plb_reorder (legal + reorder check)
//!   ──► egress (latency recorded)
//! ```
//!
//! Every bench harness that reports end-to-end behaviour (Tab. 3, Fig. 4,
//! 5, 8, 9, 10, 11, 12, 13, 14, 16, 17) drives this loop with a different
//! [`SimConfig`] and traffic source. Runs are deterministic per seed.
//!
//! # Inline batching
//!
//! Every stage runs one packet at a time, in event order: the limiter,
//! dispatch, DMA, the core's session engine and service chain, and the
//! reorder engine each take one call per packet. What the loop batches is
//! its own event traffic (DPDK style): source packets are admitted in runs
//! of up to [`BurstConfig::burst_size`] without bouncing each one through
//! the event heap, zero-jitter CPU returns short-circuit the heap the same
//! way, and every egress/timeout drain goes through preallocated scratch
//! buffers ([`EgressBuf`], a timeout list, the utilization sample buffer)
//! — steady state performs no allocation. Batching is *ordering-exact*: a
//! packet is only admitted inline while it is strictly earlier than every
//! pending event, so the event sequence — and therefore the whole report —
//! is bit-identical for every `burst_size`, with `burst_size = 1`
//! reproducing the one-event-per-packet loop literally.
//!
//! # Packets in one slab
//!
//! An admitted packet lives in the pod's packet slab from the moment
//! dispatch sends it to a core until it returns to the NIC or its RX queue
//! tail-drops it. Events, RX queues and the per-core in-service entries
//! carry its `u32` slot, so an event is at most 16 B; the one source packet
//! not yet admitted waits in a pod field for its `Arrival`. The reorder
//! engine and the egress buffer still take whole packets (DESIGN.md §4l).

use std::collections::HashMap;
use std::fmt::Write as _;

use albatross_core::engine::{
    Egress, EgressBuf, IngressDecision, LbMode, PlbEngine, PlbEngineConfig,
};
use albatross_core::ratelimit::{RateLimiterConfig, TwoStageRateLimiter};
use albatross_core::reorder::ReorderConfig;
use albatross_fpga::basic::PayloadBuffer;
use albatross_fpga::dma::DmaEngine;
use albatross_fpga::pipeline::{Direction, NicPipelineLatency, Stage};
use albatross_fpga::pkt::{DeliveryMode, NicPacket};
use albatross_fpga::tier::{SessionTier, TierConfig, TieredSessionEngine};
use albatross_gateway::flowstate::{FlowStateConfig, FlowStateEngine, FlowVerdict};
use albatross_gateway::services::{PacketAction, ServiceKind, ServicePipeline};
use albatross_gateway::worker::DataCore;
use albatross_mem::tables::CloudGatewayTables;
use albatross_mem::{DramModel, MemorySystem, NumaBalancing, NumaTopology, Placement, SharedCache};
use albatross_sim::{
    Engine, EpochShard, LatencyModel, LockstepRunner, Lookahead, ShardMsg, SimRng, SimTime,
};
use albatross_telemetry::{CoreUtilization, LatencyHistogram, RateMeter, TimeSeries};
use albatross_workload::{PacketDesc, TrafficSource};

/// Inline batching of the pod loop (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstConfig {
    /// Most packets admitted (or returned) inline per event. `1` gives
    /// every packet its own events; the default (32) matches the
    /// conventional DPDK RX burst. The report is identical at any size.
    pub burst_size: usize,
}

impl Default for BurstConfig {
    fn default() -> Self {
        Self { burst_size: 32 }
    }
}

/// Full configuration of one simulated pod.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Data cores.
    pub data_cores: usize,
    /// Service pipeline the pod runs.
    pub service: ServiceKind,
    /// PLB or RSS.
    pub mode: LbMode,
    /// Order-preserving queues (ignored in RSS mode).
    pub ordqs: usize,
    /// Reorder FIFO/BUF/BITMAP depth.
    pub reorder_depth: usize,
    /// Reorder head timeout in ns.
    pub reorder_timeout_ns: u64,
    /// NIC-side tenant rate limiter, if enabled.
    pub rate_limiter: Option<RateLimiterConfig>,
    /// Tiered FPGA/DPU/CPU session co-offload, if enabled. Placement runs
    /// per packet before the service chain; hardware-resident flows skip
    /// the chain's session lookup, DPU-served packets pay the detour
    /// latency off-core, CPU-served packets pay the session-write cost
    /// on-core.
    pub session_tiers: Option<TierConfig>,
    /// Hardware flow-state install frontier (the CPS bottleneck), if
    /// enabled. Every packet is classified against a fixed-capacity flow
    /// table: residents skip the service chain's session step, first
    /// packets pay the install cost, and packets denied by the
    /// install-rate budget (or a full table) take the software slow path.
    /// Mutually exclusive with [`session_tiers`](Self::session_tiers),
    /// which models placement *across* tiers rather than the insertion
    /// rate *into* one; when both are set, `session_tiers` wins and this
    /// engine is ignored.
    pub flow_state: Option<FlowStateConfig>,
    /// Per-core RX descriptor-queue depth.
    pub rx_queue_depth: usize,
    /// Shared L3 size in bytes.
    pub cache_bytes: usize,
    /// L3 associativity.
    pub cache_ways: usize,
    /// DDR5 frequency in MHz.
    pub mem_freq_mhz: u32,
    /// Working-set scale (1.0 = production, several GB).
    pub table_scale: f64,
    /// CPU/memory placement.
    pub placement: Placement,
    /// Kernel automatic NUMA balancing on/off (Fig. 17).
    pub numa_balancing: bool,
    /// Nominal load (0–1) fed to the NUMA-balancing stall model.
    pub nominal_load: f64,
    /// Drop flows with `hash % m == 0` at the ACL (Fig. 12 loss source).
    pub acl_drop_modulus: Option<u64>,
    /// Whether ACL drops set the PLB drop flag (true in production;
    /// false = Fig. 12 baseline).
    pub use_drop_flag: bool,
    /// Extra software-stack latency per packet (driver batching, deferred
    /// TX, corner-case code paths). Delays the packet's return to the NIC
    /// without occupying the data core.
    pub extra_jitter: Option<LatencyModel>,
    /// Core-utilization sampling window.
    pub sample_window: SimTime,
    /// Window of the per-tenant delivered-rate meters (Fig. 13/14 use
    /// compressed time, so smaller windows than 1 s).
    pub tenant_rate_window: SimTime,
    /// Record a per-VNI latency histogram alongside the delivered-rate
    /// meters. Off by default (it costs a hash probe per egress); the AZ
    /// resilience harness turns it on so each failure drill — whose
    /// traffic carries a drill-specific VNI — can report its own p99.
    pub track_tenant_latency: bool,
    /// Delivery mode for data packets (appendix A: header-only delivery
    /// keeps payloads in the NIC buffer and saves PCIe bandwidth).
    pub delivery: DeliveryMode,
    /// NIC payload-buffer capacity in bytes (used in header-only mode).
    pub payload_buffer_bytes: u64,
    /// Statistics reset point (cache warm-up).
    pub warmup: SimTime,
    /// Inline batching. `burst_size = 1` gives every packet its own
    /// events; larger sizes produce the identical report (see the module
    /// docs) but amortize the event-heap traffic.
    pub burst: BurstConfig,
    /// Scenario seed.
    pub seed: u64,
}

impl SimConfig {
    /// Sensible defaults for a pod of `data_cores` running `service`:
    /// production reorder geometry, production L3/DRAM, PLB mode.
    pub fn new(data_cores: usize, service: ServiceKind) -> Self {
        Self {
            data_cores,
            service,
            mode: LbMode::Plb,
            ordqs: (data_cores / 6).clamp(1, 8),
            reorder_depth: 4096,
            reorder_timeout_ns: 100_000,
            rate_limiter: None,
            session_tiers: None,
            flow_state: None,
            rx_queue_depth: 1024,
            cache_bytes: 192 * 1024 * 1024,
            cache_ways: 16,
            mem_freq_mhz: 4800,
            table_scale: 1.0,
            placement: Placement::IntraNuma,
            numa_balancing: false,
            nominal_load: 0.5,
            acl_drop_modulus: None,
            use_drop_flag: true,
            extra_jitter: None,
            sample_window: SimTime::from_millis(10),
            tenant_rate_window: SimTime::from_secs(1),
            track_tenant_latency: false,
            delivery: DeliveryMode::FullPacket,
            payload_buffer_bytes: 64 * 1024 * 1024,
            warmup: SimTime::ZERO,
            burst: BurstConfig::default(),
            seed: 1,
        }
    }
}

/// Declares the report's integer counters once, each with its doc, then
/// the report's other fields. Expands to [`SimCounters`] (`add`, `since`,
/// `visit`), [`SimReport`] (the same counters as flat fields, then the
/// other fields), `SimReport::counters`, and the private [`ReportParts`]
/// that `SimReport::assemble` and `SimReport::into_parts` join and split.
macro_rules! sim_report {
    (
        $(#[$report_meta:meta])*
        counters { $( $(#[$counter_meta:meta])* $counter:ident, )* }
        other { $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )* }
    ) => {
        /// Every integer counter of a [`SimReport`], in declaration order.
        ///
        /// The pod keeps running totals; a report holds the totals
        /// [`since`](Self::since) the warm-up snapshot, and merged reports
        /// [`add`](Self::add) them.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SimCounters {
            $( $(#[$counter_meta])* pub $counter: u64, )*
        }

        impl SimCounters {
            /// Adds `other` counter by counter.
            pub fn add(&mut self, other: &SimCounters) {
                $( self.$counter += other.$counter; )*
            }

            /// The counts accumulated from `base` to `self`, two snapshots
            /// of the same running totals.
            ///
            /// # Panics
            /// Panics, naming the counter, if a total is below its snapshot.
            pub fn since(&self, base: &SimCounters) -> SimCounters {
                SimCounters {
                    $( $counter: self.$counter.checked_sub(base.$counter).expect(
                        concat!("counter `", stringify!($counter), "` went backwards"),
                    ), )*
                }
            }

            /// Calls `f(name, value)` for every counter, in declaration order.
            pub fn visit(&self, mut f: impl FnMut(&'static str, u64)) {
                $( f(stringify!($counter), self.$counter); )*
            }
        }

        $(#[$report_meta])*
        #[derive(Debug, Clone)]
        pub struct SimReport {
            $( $(#[$counter_meta])* pub $counter: u64, )*
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        /// A [`SimReport`]'s fields other than its counters.
        struct ReportParts {
            $( $field: $ty, )*
        }

        impl SimReport {
            /// The report's counters.
            pub fn counters(&self) -> SimCounters {
                SimCounters { $( $counter: self.$counter, )* }
            }

            fn assemble(counters: SimCounters, parts: ReportParts) -> SimReport {
                SimReport {
                    $( $counter: counters.$counter, )*
                    $( $field: parts.$field, )*
                }
            }

            fn into_parts(self) -> (SimCounters, ReportParts) {
                (self.counters(), ReportParts { $( $field: self.$field, )* })
            }
        }
    };
}

sim_report! {
    /// Everything measured during a run.
    ///
    /// Counters and histograms cover the measured interval, from the end of
    /// the warm-up ([`SimConfig::warmup`]) to the horizon: the pod snapshots
    /// every running total when the warm-up ends and reports the
    /// difference. The series (`core_util`, `hh_slot_occupancy` and the
    /// `tenant_delivered` meters) cover the whole run, every point with its
    /// timestamp.
    counters {
        /// Packets offered by the source.
        offered,
        /// Packets fully processed by data cores.
        processed,
        /// Packets transmitted (in order + best effort).
        transmitted,
        /// In-order transmissions.
        in_order,
        /// Out-of-order (best-effort) transmissions.
        out_of_order,
        /// Dropped by the NIC rate limiter.
        dropped_ratelimit,
        /// Dropped at ingress (reorder FIFO full).
        dropped_ingress_full,
        /// Dropped at per-core RX queues.
        dropped_rx_queue,
        /// Dropped by the ACL on the CPU.
        dropped_acl,
        /// Reorder head timeouts (HOL events).
        hol_timeouts,
        /// Reorder slots released via the drop flag.
        drop_flag_releases,
        /// Shared-L3 hits of the service chains' table lookups.
        cache_hits,
        /// Shared-L3 misses of the service chains' table lookups.
        cache_misses,
        /// Bytes moved NIC→CPU over PCIe (the header-only savings metric of
        /// appendix A).
        pcie_rx_bytes,
        /// Bytes moved CPU→NIC over PCIe.
        pcie_tx_bytes,
        /// Header-only packets whose payload was reaped before their late
        /// return (headers dropped at the legal check).
        headers_dropped,
        /// Payloads force-released by the timeout reaper.
        payloads_reaped,
        /// Heavy hitters promoted into pre_check/pre_meter.
        hh_promotions,
        /// Heavy hitters demoted (conforming-window expiry + explicit
        /// uninstalls).
        hh_demotions,
        /// Promotees evicted under pre_meter slot pressure.
        hh_evictions,
        /// Promotions refused with every slot taken — non-zero only with
        /// eviction disabled: the limiter's degraded mode.
        hh_promotion_refused,
        /// Packets whose session state the FPGA tier served (all `tier_*`
        /// counters are zero without [`SimConfig::session_tiers`]).
        tier_fpga_pkts,
        /// Packets the DPU tier served.
        tier_dpu_pkts,
        /// Packets whose session write stayed on the CPU.
        tier_cpu_pkts,
        /// CPU→hardware promotions.
        tier_promotions,
        /// DPU→FPGA upgrades.
        tier_upgrades,
        /// Hardware residents demoted back to the CPU.
        tier_demotions,
        /// Hardware residents evicted under slot pressure.
        tier_evictions,
        /// Hardware residents reclaimed by idle expiry.
        tier_expired,
        /// Promotions deferred for lack of install-budget tokens — the
        /// XenoFlow insertion-rate bottleneck made visible.
        tier_installs_deferred,
        /// Packets served by a hardware-resident flow-state entry (all
        /// `flow_*` counters are zero without [`SimConfig::flow_state`]).
        flow_hits,
        /// New flows installed into the hardware flow table.
        flow_installs,
        /// Packets pushed to the software slow path because the install
        /// budget was dry or the table full — the CPS ceiling made visible.
        flow_deferred,
        /// Flow-table entries reclaimed by idle expiry.
        flow_expired,
    }
    other {
        /// Measured interval (after warm-up) in seconds.
        measured_secs: f64,
        /// L3 hit rate over the measured interval:
        /// [`SimCounters::cache_hit_rate`] of the report's counters.
        cache_hit_rate: f64,
        /// End-to-end (NIC in → NIC out) latency.
        latency: LatencyHistogram,
        /// End-to-end latency per tenant VNI — populated only when
        /// [`SimConfig::track_tenant_latency`] is set (empty otherwise).
        tenant_latency: HashMap<u32, LatencyHistogram>,
        /// Packets processed per core.
        per_core_processed: Vec<u64>,
        /// Per-core utilization samples (whole run).
        core_util: CoreUtilization,
        /// Occupied pre_meter slots sampled once per `sample_window` (whole
        /// run; empty when no rate limiter is configured).
        hh_slot_occupancy: TimeSeries,
        /// Delivered packets per tenant, one count per
        /// [`SimConfig::tenant_rate_window`] (whole run).
        tenant_delivered: HashMap<u32, RateMeter>,
    }
}

impl SimCounters {
    /// Shared-L3 hits over accesses, or 0.0 with no access — the value of
    /// [`SharedCache::hit_rate`], so an interval that starts at t = 0 reads
    /// the cache's own rate bit for bit.
    pub fn cache_hit_rate(&self) -> f64 {
        let accesses = self.cache_hits + self.cache_misses;
        self.cache_hits as f64 / accesses.max(1) as f64
    }
}

impl SimReport {
    /// Merges per-pod reports — in the given, fixed order — into one
    /// server-level aggregate (e.g. the co-resident GW pods of one
    /// Albatross server, or the shards of a fleet sweep).
    ///
    /// The merge is the fleet's determinism anchor (DESIGN.md §4d): every
    /// rule depends only on the *input order*, never on thread scheduling —
    /// counters add, `measured_secs` takes the max, histograms merge
    /// bucket-wise, per-core vectors concatenate in order, time series
    /// interleave via the stable [`TimeSeries::merge_ordered`] rule, and
    /// tenant maps merge per VNI in VNI order. `cache_hit_rate` is taken
    /// from the summed counters: Σhits / Σaccesses.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn merge_ordered(reports: &[SimReport]) -> SimReport {
        let (first, rest) = reports.split_first().expect("nothing to merge");
        let (mut counters, mut out) = first.clone().into_parts();
        for r in rest {
            counters.add(&r.counters());
            out.measured_secs = out.measured_secs.max(r.measured_secs);
            out.latency.merge(&r.latency);
            merge_by_vni(
                &mut out.tenant_latency,
                &r.tenant_latency,
                LatencyHistogram::merge,
            );
            out.per_core_processed.extend(&r.per_core_processed);
            out.core_util.merge_pods(&r.core_util);
            out.hh_slot_occupancy.merge_ordered(&r.hh_slot_occupancy);
            merge_by_vni(
                &mut out.tenant_delivered,
                &r.tenant_delivered,
                RateMeter::merge,
            );
        }
        out.cache_hit_rate = counters.cache_hit_rate();
        SimReport::assemble(counters, out)
    }

    /// The whole report as text: one line per counter in declaration
    /// order, floats as raw bits, every non-empty histogram bucket, the
    /// per-core counts, every series point, and the tenant maps in VNI
    /// order. Equal dumps mean equal reports (DESIGN.md §6).
    pub fn canonical_dump(&self) -> String {
        let (
            counters,
            ReportParts {
                measured_secs,
                cache_hit_rate,
                latency,
                tenant_latency,
                per_core_processed,
                core_util,
                hh_slot_occupancy,
                tenant_delivered,
            },
        ) = self.clone().into_parts();
        let mut out = String::new();
        let mut line = |name: &str, value: String| {
            let _ = writeln!(out, "{name} {value}");
        };
        counters.visit(|name, value| line(name, value.to_string()));
        line("measured_secs", bits(measured_secs));
        line("cache_hit_rate", bits(cache_hit_rate));
        line("latency", histogram(&latency));
        for (vni, h) in by_vni(&tenant_latency) {
            line(&format!("tenant_latency[{vni}]"), histogram(h));
        }
        line("per_core_processed", format!("{per_core_processed:?}"));
        for core in 0..core_util.cores() {
            let points = series(core_util.core(core).points());
            line(&format!("core_util[{core}]"), points);
        }
        let dispersion = series(core_util.dispersion().points());
        line("core_util_dispersion", dispersion);
        line("hh_slot_occupancy", series(hh_slot_occupancy.points()));
        for (vni, meter) in by_vni(&tenant_delivered) {
            let value = format!("total={} {}", meter.total(), series(&meter.series()));
            line(&format!("tenant_delivered[{vni}]"), value);
        }
        out
    }

    /// Aggregate forwarding throughput in packets/second.
    pub fn throughput_pps(&self) -> f64 {
        self.processed as f64 / self.measured_secs
    }

    /// Per-core throughput in packets/second.
    pub fn per_core_pps(&self) -> f64 {
        self.throughput_pps() / self.per_core_processed.len() as f64
    }

    /// Fraction of transmitted packets that left out of order (Fig. 11's
    /// "disordering rate").
    pub fn disorder_rate(&self) -> f64 {
        if self.transmitted == 0 {
            0.0
        } else {
            self.out_of_order as f64 / self.transmitted as f64
        }
    }

    /// Fraction of session-engine packets served in hardware (FPGA + DPU)
    /// during the measured interval. Zero when no tiered engine ran.
    pub fn tier_offload_hit_rate(&self) -> f64 {
        let total = self.tier_fpga_pkts + self.tier_dpu_pkts + self.tier_cpu_pkts;
        if total == 0 {
            0.0
        } else {
            (self.tier_fpga_pkts + self.tier_dpu_pkts) as f64 / total as f64
        }
    }

    /// Fraction of flow-state packets that hit a hardware-resident entry
    /// during the measured interval. Zero when no flow-state engine ran.
    pub fn flow_hit_rate(&self) -> f64 {
        let total = self.flow_hits + self.flow_installs + self.flow_deferred;
        if total == 0 {
            0.0
        } else {
            self.flow_hits as f64 / total as f64
        }
    }
}

/// The entries of a per-tenant map in VNI order (`HashMap` iteration
/// order differs between runs).
fn by_vni<T>(map: &HashMap<u32, T>) -> Vec<(u32, &T)> {
    let mut entries: Vec<(u32, &T)> = map.iter().map(|(&vni, v)| (vni, v)).collect();
    entries.sort_unstable_by_key(|&(vni, _)| vni);
    entries
}

/// Merges `from`'s per-tenant entries into `into`, in VNI order.
fn merge_by_vni<T: Clone>(
    into: &mut HashMap<u32, T>,
    from: &HashMap<u32, T>,
    merge: fn(&mut T, &T),
) {
    for (vni, theirs) in by_vni(from) {
        into.entry(vni)
            .and_modify(|ours| merge(ours, theirs))
            .or_insert_with(|| theirs.clone());
    }
}

/// A float as its exact bit pattern.
fn bits(v: f64) -> String {
    format!("f64:{:#018x}", v.to_bits())
}

/// Series points as space-separated `time:bits` pairs.
fn series(points: &[(u64, f64)]) -> String {
    let points: Vec<String> = points
        .iter()
        .map(|&(t, v)| format!("{t}:{}", bits(v)))
        .collect();
    points.join(" ")
}

/// A histogram's summary, then every non-empty bucket as `low:count`.
fn histogram(h: &LatencyHistogram) -> String {
    let (count, min, max, mean) = (h.count(), h.min(), h.max(), bits(h.mean()));
    let buckets: Vec<String> = h
        .nonempty_buckets()
        .map(|(lo, n)| format!("{lo}:{n}"))
        .collect();
    format!(
        "count={count} min={min} max={max} mean={mean} buckets={}",
        buckets.join(" ")
    )
}

/// A pod event. No event carries a packet: an admitted packet waits in the
/// pod's [`PacketSlab`] and events name its `u32` slot, and the one source
/// packet not yet admitted waits in `PodSimulation::pending` (DESIGN.md
/// §4l).
enum Ev {
    /// The pending source packet arrives at the NIC port.
    Arrival,
    /// DMA delivered the packet in `slot` into a core's RX queue.
    Deliver { core: usize, slot: u32 },
    /// A core finished its current packet (core becomes free).
    CoreDone { core: usize },
    /// The processed packet in `slot` reaches the NIC's TX path. Separate
    /// from `CoreDone` because software-stack jitter (driver batching,
    /// deferred TX) delays the packet without occupying the data core.
    CpuReturn { slot: u32, action: PacketAction },
    /// Timeout-driven reorder check.
    ReorderPoll,
    /// Periodic core-utilization sample.
    Sample,
    /// Statistics reset after cache warm-up.
    WarmupReset,
}

// Every wheel entry carries an `Ev`; keep it two words.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// The packets between ingress and CPU return, each in a `u32` slot
/// (DESIGN.md §4l). A packet enters after dispatch sends it to a core and
/// leaves by value when it returns to the NIC, or when its RX queue
/// tail-drops it. Freed slots are reused last in, first out, so the few
/// hundred slots in flight stay in the host's near caches.
#[derive(Default)]
struct PacketSlab {
    packets: Vec<NicPacket>,
    /// Vacant slots, the most recently freed last.
    free: Vec<u32>,
}

impl PacketSlab {
    /// Stores `pkt` and returns its slot.
    fn insert(&mut self, pkt: NicPacket) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.packets[slot as usize] = pkt;
            return slot;
        }
        let slot = u32::try_from(self.packets.len()).expect("more than 2^32 packets in flight");
        self.packets.push(pkt);
        slot
    }

    fn get(&self, slot: u32) -> &NicPacket {
        &self.packets[slot as usize]
    }

    /// Frees `slot` and returns its packet.
    fn remove(&mut self, slot: u32) -> NicPacket {
        self.free.push(slot);
        self.packets[slot as usize].clone()
    }
}

/// The assembled simulation.
pub struct PodSimulation {
    cfg: SimConfig,
    engine: Engine<Ev>,
    lb: PlbEngine,
    limiter: Option<TwoStageRateLimiter>,
    /// Every admitted packet until its CPU return.
    slab: PacketSlab,
    /// The next source packet, due at its `Arrival` event; at most one is
    /// ever pending.
    pending: Option<PacketDesc>,
    /// Each core's RX queue of slab slots.
    cores: Vec<DataCore<u32>>,
    /// Per core, the slot, verdict and extra TX delay of the packet in
    /// service.
    in_flight: Vec<Option<(u32, PacketAction, u64)>>,
    service: ServicePipeline,
    /// Three-tier session placement engine (FPGA/DPU/CPU); `None` keeps the
    /// classic all-CPU session path byte-for-byte unchanged.
    tiers: Option<TieredSessionEngine>,
    /// Hardware flow-state install frontier; `None` (or a configured
    /// `tiers` engine, which takes precedence) keeps the classic session
    /// path byte-for-byte unchanged.
    flow_state: Option<FlowStateEngine>,
    /// Software-stack delay applied between core completion and the NIC TX
    /// path (does not occupy the core).
    stack_jitter: Option<LatencyModel>,
    tables: CloudGatewayTables,
    mem: MemorySystem,
    nb: NumaBalancing,
    rng: SimRng,
    /// NIC pipeline latency before the DMA stage, RX and TX.
    rx_pre_dma_ns: u64,
    tx_pre_dma_ns: u64,
    dma: DmaEngine,
    payload_buffer: PayloadBuffer,
    /// `(ordq, psn)` → packet id for in-flight header-only packets, so
    /// reorder timeouts can reap the retained payload.
    split_index: HashMap<(u8, u32), u64>,
    next_pkt_id: u64,
    // measurement
    offered: u64,
    dropped_ratelimit: u64,
    dropped_acl: u64,
    transmitted: u64,
    in_order: u64,
    out_of_order: u64,
    latency: LatencyHistogram,
    core_util: CoreUtilization,
    tenant_delivered: HashMap<u32, RateMeter>,
    tenant_latency: HashMap<u32, LatencyHistogram>,
    hh_slot_occupancy: TimeSeries,
    poll_at: Option<SimTime>,
    // egress/timeout scratch (preallocated; reused every cycle so steady
    // state never allocates)
    egress_buf: EgressBuf,
    timeout_buf: Vec<(usize, u32)>,
    util_buf: Vec<f64>,
    // warm-up snapshots
    warm_processed_base: Vec<u64>,
    warm_totals: SimCounters,
}

impl PodSimulation {
    /// Builds the simulation from `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let tables = CloudGatewayTables::scaled(cfg.table_scale);
        let mut service = ServicePipeline::new(cfg.service, &tables);
        if let Some(m) = cfg.acl_drop_modulus {
            service = service.with_acl_drop_modulus(m);
        }
        let topo = NumaTopology::albatross_server();
        // Pre-size per-core cache stats: every data core touches the L3 on
        // its first packet, and growing the stat vectors there would be a
        // steady-state allocation (tests/alloc_steady_state.rs).
        let mem = MemorySystem::new(
            SharedCache::with_cores(cfg.cache_bytes, cfg.cache_ways, cfg.data_cores),
            DramModel::new(cfg.mem_freq_mhz),
        )
        .with_placement(&topo, cfg.placement);
        let lb = PlbEngine::new(PlbEngineConfig {
            data_cores: cfg.data_cores,
            ordqs: cfg.ordqs,
            reorder: ReorderConfig {
                depth: cfg.reorder_depth,
                timeout_ns: cfg.reorder_timeout_ns,
            },
            mode: cfg.mode,
            auto_fallback_hol_timeouts: None,
        });
        let nic = NicPipelineLatency::production();
        let pre_dma_ns = |dir| nic.total_ns(dir) - nic.stage_ns(Stage::Dma, dir);
        Self {
            engine: Engine::new(),
            lb,
            limiter: cfg.rate_limiter.clone().map(TwoStageRateLimiter::new),
            slab: PacketSlab::default(),
            pending: None,
            cores: (0..cfg.data_cores)
                .map(|i| DataCore::new(i, cfg.rx_queue_depth))
                .collect(),
            in_flight: (0..cfg.data_cores).map(|_| None).collect(),
            service,
            tiers: cfg.session_tiers.clone().map(TieredSessionEngine::new),
            flow_state: cfg.flow_state.as_ref().map(FlowStateEngine::new),
            stack_jitter: cfg.extra_jitter.clone(),
            tables,
            mem,
            nb: NumaBalancing::new(cfg.data_cores, cfg.numa_balancing),
            rng: SimRng::seed_from(cfg.seed),
            rx_pre_dma_ns: pre_dma_ns(Direction::Rx),
            tx_pre_dma_ns: pre_dma_ns(Direction::Tx),
            dma: DmaEngine::production(),
            payload_buffer: PayloadBuffer::new(cfg.payload_buffer_bytes),
            split_index: HashMap::new(),
            next_pkt_id: 0,
            offered: 0,
            dropped_ratelimit: 0,
            dropped_acl: 0,
            transmitted: 0,
            in_order: 0,
            out_of_order: 0,
            latency: LatencyHistogram::new(),
            core_util: CoreUtilization::new(cfg.data_cores),
            tenant_delivered: HashMap::new(),
            tenant_latency: HashMap::new(),
            hh_slot_occupancy: TimeSeries::new(),
            poll_at: None,
            egress_buf: EgressBuf::with_capacity(cfg.burst.burst_size.max(1)),
            timeout_buf: Vec::with_capacity(cfg.burst.burst_size.max(1)),
            util_buf: Vec::with_capacity(cfg.data_cores),
            warm_processed_base: vec![0; cfg.data_cores],
            warm_totals: SimCounters::default(),
            cfg,
        }
    }

    /// Direct access to the rate limiter (to pre-configure bypass tenants).
    pub fn limiter_mut(&mut self) -> Option<&mut TwoStageRateLimiter> {
        self.limiter.as_mut()
    }

    /// CPU-assisted demotion from the pod layer: removes `vni` from the
    /// limiter's promoted set and reclaims its pre_meter slot. Returns
    /// `false` when no limiter is configured or `vni` is not promoted.
    pub fn uninstall_heavy_hitter(&mut self, vni: u32) -> bool {
        self.limiter
            .as_mut()
            .is_some_and(|l| l.uninstall_heavy_hitter(vni))
    }

    /// Runs `source` until `duration` of virtual time has elapsed, then
    /// returns the report for the post-warm-up interval.
    pub fn run(mut self, source: &mut dyn TrafficSource, duration: SimTime) -> SimReport {
        self.start(source, duration);
        self.step_until(source, duration, duration);
        self.finish(duration)
    }

    /// Schedules the preamble events (first arrival, warm-up reset, first
    /// utilization sample). Split out of [`run`](Self::run) so the sharded
    /// driver can interleave several pods epoch by epoch.
    fn start(&mut self, source: &mut dyn TrafficSource, _duration: SimTime) {
        if let Some(first) = source.next_packet() {
            self.schedule_arrival(first);
        }
        if self.cfg.warmup > SimTime::ZERO {
            self.engine.schedule(self.cfg.warmup, Ev::WarmupReset);
        }
        self.engine.schedule(self.cfg.sample_window, Ev::Sample);
    }

    /// Timestamp of the next pending event, if any — the quote the lockstep
    /// layer uses to pick epoch starts.
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.engine.peek_time()
    }

    /// Executes every event with `time <= min(deadline, duration)`. The
    /// whole-run case (`deadline == duration`) is the classic loop;
    /// the sharded driver calls this once per lockstep epoch with the
    /// epoch deadline. Slicing is *ordering-exact*: an arrival beyond the
    /// epoch cap is scheduled instead of inlined (exactly the scalar
    /// fallback the batching guard already has), which preserves the event
    /// handling order — and therefore every byte of the report — for any
    /// slicing of `[0, duration]` into deadlines.
    fn step_until(&mut self, source: &mut dyn TrafficSource, duration: SimTime, deadline: SimTime) {
        let burst_size = self.cfg.burst.burst_size.max(1);
        let cap = deadline.min(duration);
        while let Some((now, ev)) = self.engine.pop_until(cap) {
            match ev {
                Ev::Arrival => {
                    let desc = self
                        .pending
                        .take()
                        .expect("Arrival without a pending packet");
                    self.on_arrival(desc, now);
                    // Inline-arrival batching: at most one Arrival is ever
                    // in the heap, so after serving it the next source
                    // packets can be admitted directly — skipping the
                    // schedule/pop round-trip — as long as each is strictly
                    // earlier than every pending event (on a time tie the
                    // already-scheduled event pops first in the scalar
                    // loop, so inlining would reorder). Up to `burst_size`
                    // packets per batch; the first that cannot be inlined
                    // is scheduled exactly as before.
                    let mut batched = 1;
                    while let Some(next) = source.next_packet() {
                        if next.time > duration {
                            // Horizon reached: the scalar loop drops this
                            // packet and stops pulling.
                            break;
                        }
                        let inline_ok = batched < burst_size
                            && next.time <= cap
                            && match self.engine.peek_time() {
                                None => true,
                                Some(head) => next.time < head,
                            };
                        if inline_ok {
                            self.on_arrival(next, next.time);
                            batched += 1;
                        } else {
                            self.schedule_arrival(next);
                            break;
                        }
                    }
                }
                Ev::Deliver { core, slot } => {
                    if !self.cores[core].enqueue(slot).is_ok() {
                        // Tail-dropped: the packet leaves the pod here.
                        self.slab.remove(slot);
                    }
                    self.maybe_start_core(core, now);
                }
                Ev::CoreDone { core } => {
                    let (slot, action, extra_ns) = self.in_flight[core]
                        .take()
                        .expect("CoreDone without in-flight packet");
                    // Zero-jitter returns reach the TX path at `now`; if no
                    // pending event precedes them the scalar loop would pop
                    // the CpuReturn immediately after this handler, so the
                    // batching loop calls it directly. (`maybe_start_core`
                    // only schedules strictly-later CoreDones, so checking
                    // the heap first is exact.)
                    let inline_return = burst_size > 1
                        && extra_ns == 0
                        && match self.engine.peek_time() {
                            None => true,
                            Some(head) => head > now,
                        };
                    if inline_return {
                        self.maybe_start_core(core, now);
                        self.on_cpu_return(slot, action, now);
                    } else {
                        self.engine
                            .schedule(now + extra_ns, Ev::CpuReturn { slot, action });
                        self.maybe_start_core(core, now);
                    }
                }
                Ev::CpuReturn { slot, action } => {
                    self.on_cpu_return(slot, action, now);
                }
                Ev::ReorderPoll => {
                    self.poll_at = None;
                    self.poll_and_record(now);
                    self.reap_timed_out_payloads();
                    self.schedule_poll(now);
                }
                Ev::Sample => {
                    // Idle-session expiry shares the sampling cadence: the
                    // tick is part of the event order, so expiry timing is
                    // identical across shard geometries.
                    if let Some(t) = self.tiers.as_mut() {
                        t.expire(now);
                    }
                    if let Some(fs) = self.flow_state.as_mut() {
                        fs.expire(now);
                    }
                    let window = self.cfg.sample_window.as_nanos();
                    let mut utils = std::mem::take(&mut self.util_buf);
                    utils.clear();
                    utils.extend(self.cores.iter_mut().map(|c| c.sample_utilization(window)));
                    self.core_util.sample(now.as_nanos(), &utils);
                    self.util_buf = utils;
                    if let Some(l) = self.limiter.as_ref() {
                        self.hh_slot_occupancy
                            .push(now.as_nanos(), l.promoted_count() as f64);
                    }
                    if now + window <= duration {
                        self.engine.schedule(now + window, Ev::Sample);
                    }
                }
                Ev::WarmupReset => self.warm_reset(),
            }
        }
    }

    /// Final reorder drain at the horizon, then the report of the measured
    /// interval.
    fn finish(mut self, duration: SimTime) -> SimReport {
        self.poll_and_record(duration);
        let measured_ns = duration.saturating_since(self.cfg.warmup.min(duration));
        let counters = self.totals().since(&self.warm_totals);
        let per_core_processed = self
            .cores
            .iter()
            .zip(&self.warm_processed_base)
            .map(|(c, base)| c.processed() - base)
            .collect();
        SimReport::assemble(
            counters,
            ReportParts {
                measured_secs: measured_ns as f64 / 1e9,
                cache_hit_rate: counters.cache_hit_rate(),
                latency: self.latency,
                tenant_latency: self.tenant_latency,
                per_core_processed,
                core_util: self.core_util,
                hh_slot_occupancy: self.hh_slot_occupancy,
                tenant_delivered: self.tenant_delivered,
            },
        )
    }

    /// Makes `desc` the pending packet and schedules its `Arrival`.
    ///
    /// # Panics
    /// Panics if another packet is already pending: the inline-arrival
    /// batching keeps at most one `Arrival` queued (DESIGN.md §4b).
    fn schedule_arrival(&mut self, desc: PacketDesc) {
        let at = desc.time;
        let earlier = self.pending.replace(desc);
        assert!(earlier.is_none(), "a second Arrival was scheduled");
        self.engine.schedule(at, Ev::Arrival);
    }

    fn on_arrival(&mut self, desc: PacketDesc, now: SimTime) {
        self.offered += 1;
        // Gateway overload protection runs first, inside the NIC.
        if let (Some(limiter), Some(vni)) = (self.limiter.as_mut(), desc.vni) {
            if !limiter.process(vni, now, &mut self.rng).passed() {
                self.dropped_ratelimit += 1;
                return;
            }
        }
        let id = self.next_pkt_id;
        self.next_pkt_id += 1;
        let mut pkt = NicPacket::data(id, desc.tuple, desc.vni, desc.len_bytes, now);
        if self.cfg.delivery == DeliveryMode::HeaderOnly {
            // Appendix A: split the payload into the NIC buffer; fall back
            // to full delivery when the buffer is out of space.
            pkt.delivery = DeliveryMode::HeaderOnly;
            if !self.payload_buffer.store(id, pkt.retained_payload_bytes()) {
                pkt.delivery = DeliveryMode::FullPacket;
            }
        }
        // Dispatch decision happens after the pre-DMA RX stages; the DMA
        // stage's latency depends on how many bytes cross PCIe.
        let dispatch_at = now + self.rx_pre_dma_ns;
        match self.lb.ingress(&mut pkt, dispatch_at) {
            IngressDecision::Dropped => {
                self.payload_buffer.reap(id);
                self.schedule_poll(now);
            }
            IngressDecision::ToCore(core) => {
                if let Some(meta) = pkt.meta {
                    if pkt.delivery == DeliveryMode::HeaderOnly {
                        self.split_index.insert((meta.ordq, meta.psn), id);
                    }
                }
                let delivered_at = dispatch_at + self.dma.transfer_rx(&pkt);
                let slot = self.slab.insert(pkt);
                self.engine
                    .schedule(delivered_at, Ev::Deliver { core, slot });
                self.schedule_poll(now);
            }
        }
    }

    fn maybe_start_core(&mut self, core: usize, now: SimTime) {
        if !self.cores[core].idle_at(now) || self.in_flight[core].is_some() {
            return;
        }
        let Some(slot) = self.cores[core].take_next() else {
            return;
        };
        let pkt = self.slab.get(slot);
        let (tuple, len_bytes) = (pkt.tuple, pkt.len_bytes);
        let flow_hash = tuple.compact_hash();
        let (outcome, tier_ns) = match self.tiers.as_mut() {
            Some(t) => {
                // Placement decision per packet: hardware-resident flows skip
                // the session-table step and pay the serving tier's cost
                // instead (DPU detour rides the non-core-occupying TX delay,
                // like stack jitter).
                let tier = t.on_packet(&tuple, len_bytes, now);
                let mut o = self.service.process_offloaded(
                    core,
                    flow_hash,
                    tier != SessionTier::Cpu,
                    &self.tables,
                    &mut self.mem,
                    &mut self.rng,
                );
                o.latency_ns += t.cpu_cost_ns(tier);
                (o, t.added_latency_ns(tier))
            }
            None => match self.flow_state.as_mut() {
                Some(fs) => {
                    // Flow-state frontier: residents skip the session step;
                    // installs and slow-path packets pay their cost on the
                    // core (the install doorbell and the software fallback
                    // both burn CPU — that is exactly the CPS ceiling).
                    let verdict = fs.on_packet(&tuple, now);
                    let mut o = self.service.process_offloaded(
                        core,
                        flow_hash,
                        verdict == FlowVerdict::Resident,
                        &self.tables,
                        &mut self.mem,
                        &mut self.rng,
                    );
                    o.latency_ns += fs.verdict_ns(verdict);
                    (o, 0)
                }
                None => (
                    self.service.process(
                        core,
                        flow_hash,
                        &self.tables,
                        &mut self.mem,
                        &mut self.rng,
                    ),
                    0,
                ),
            },
        };
        let stall = self
            .nb
            .stall_before(core, now, self.cfg.nominal_load, &mut self.rng);
        let extra_ns = tier_ns
            + self
                .stack_jitter
                .as_ref()
                .map_or(0, |m| m.sample(&mut self.rng));
        let done = self.cores[core].begin(now, outcome.latency_ns + stall);
        self.in_flight[core] = Some((slot, outcome.action, extra_ns));
        self.engine.schedule(done, Ev::CoreDone { core });
    }

    fn on_cpu_return(&mut self, slot: u32, action: PacketAction, now: SimTime) {
        let mut pkt = self.slab.remove(slot);
        match action {
            PacketAction::Drop => {
                self.dropped_acl += 1;
                if let Some(meta) = pkt.meta.as_mut() {
                    if self.cfg.use_drop_flag {
                        // Return only the meta with the drop flag: the NIC
                        // frees the reorder slot immediately.
                        meta.set_drop();
                        let mut buf = std::mem::take(&mut self.egress_buf);
                        self.lb.cpu_return_into(pkt, true, now, &mut buf);
                        self.record_egresses(&mut buf, now);
                        self.egress_buf = buf;
                    }
                    // Without the flag the slot stays until head timeout.
                    self.schedule_poll(now);
                }
            }
            PacketAction::Forward => {
                let tx_total = self.tx_pre_dma_ns + self.dma.transfer_tx(&pkt);
                let payload_available = pkt.delivery == DeliveryMode::FullPacket
                    || self.payload_buffer.contains(pkt.id);
                let mut buf = std::mem::take(&mut self.egress_buf);
                self.lb
                    .cpu_return_into(pkt, payload_available, now + tx_total, &mut buf);
                self.record_egresses(&mut buf, now + tx_total);
                self.egress_buf = buf;
                self.schedule_poll(now);
            }
        }
        self.reap_timed_out_payloads();
    }

    /// Timeout-driven reorder drain into the reusable egress scratch.
    fn poll_and_record(&mut self, at: SimTime) {
        let mut buf = std::mem::take(&mut self.egress_buf);
        self.lb.poll_into(at, &mut buf);
        self.record_egresses(&mut buf, at);
        self.egress_buf = buf;
    }

    /// Releases NIC-retained payloads whose reorder info timed out — a
    /// late-returning header will then be dropped (§4.1 legal check).
    fn reap_timed_out_payloads(&mut self) {
        let mut buf = std::mem::take(&mut self.timeout_buf);
        self.lb.take_timeouts_into(&mut buf);
        for (ordq, psn) in buf.drain(..) {
            if let Some(id) = self.split_index.remove(&(ordq as u8, psn)) {
                self.payload_buffer.reap(id);
            }
        }
        self.timeout_buf = buf;
    }

    fn record_egresses(&mut self, egresses: &mut EgressBuf, at: SimTime) {
        for eg in egresses.drain() {
            let (pkt, ordered) = match eg {
                Egress::InOrder(p) => (p, true),
                Egress::OutOfOrder(p) => (p, false),
            };
            self.transmitted += 1;
            if ordered {
                self.in_order += 1;
            } else {
                self.out_of_order += 1;
            }
            if pkt.delivery == DeliveryMode::HeaderOnly {
                // Rejoin header and payload at the egress deparser.
                self.payload_buffer.take(pkt.id);
                if let Some(meta) = pkt.meta {
                    self.split_index.remove(&(meta.ordq, meta.psn));
                }
            }
            let latency_ns = at.saturating_since(pkt.arrival);
            self.latency.record(latency_ns);
            if let Some(vni) = pkt.vni {
                let window = self.cfg.tenant_rate_window.as_nanos();
                self.tenant_delivered
                    .entry(vni)
                    .or_insert_with(|| RateMeter::new(window))
                    .record(at.as_nanos(), 1);
                if self.cfg.track_tenant_latency {
                    self.tenant_latency
                        .entry(vni)
                        .or_default()
                        .record(latency_ns);
                }
            }
        }
    }

    fn schedule_poll(&mut self, now: SimTime) {
        let Some(deadline) = self.lb.next_timeout() else {
            return;
        };
        let at = deadline.max(now);
        match self.poll_at {
            Some(t) if t <= at => {}
            _ => {
                self.poll_at = Some(at);
                self.engine.schedule(at, Ev::ReorderPoll);
            }
        }
    }

    /// Every counter's running total: the one place that says where each
    /// [`SimReport`] counter comes from.
    fn totals(&self) -> SimCounters {
        let limiter = self.limiter.as_ref();
        let tiers = self.tiers.as_ref().map(|t| t.stats()).unwrap_or_default();
        let flow_state = self.flow_state.as_ref();
        let queues = self.lb.queue_stats();
        let cache = self.mem.cache();
        SimCounters {
            offered: self.offered,
            processed: self.cores.iter().map(DataCore::processed).sum(),
            transmitted: self.transmitted,
            in_order: self.in_order,
            out_of_order: self.out_of_order,
            dropped_ratelimit: self.dropped_ratelimit,
            dropped_ingress_full: self.lb.total_ingress_drops(),
            dropped_rx_queue: self.cores.iter().map(DataCore::rx_drops).sum(),
            dropped_acl: self.dropped_acl,
            hol_timeouts: self.lb.total_hol_timeouts(),
            drop_flag_releases: queues.iter().map(|q| q.drop_flag_releases).sum(),
            cache_hits: cache.total_hits(),
            cache_misses: cache.total_misses(),
            pcie_rx_bytes: self.dma.bytes_rx(),
            pcie_tx_bytes: self.dma.bytes_tx(),
            headers_dropped: queues.iter().map(|q| q.headers_dropped).sum(),
            payloads_reaped: self.payload_buffer.released_by_reaper(),
            hh_promotions: limiter.map_or(0, TwoStageRateLimiter::promotions),
            hh_demotions: limiter.map_or(0, TwoStageRateLimiter::demotions),
            hh_evictions: limiter.map_or(0, TwoStageRateLimiter::evictions),
            hh_promotion_refused: limiter.map_or(0, TwoStageRateLimiter::promotion_refused),
            tier_fpga_pkts: tiers.fpga_pkts,
            tier_dpu_pkts: tiers.dpu_pkts,
            tier_cpu_pkts: tiers.cpu_pkts,
            tier_promotions: tiers.promotions,
            tier_upgrades: tiers.upgrades,
            tier_demotions: tiers.fpga_demotions + tiers.dpu_demotions,
            tier_evictions: tiers.fpga_evictions + tiers.dpu_evictions,
            tier_expired: tiers.fpga_expired + tiers.dpu_expired,
            tier_installs_deferred: tiers.installs_deferred(),
            flow_hits: flow_state.map_or(0, FlowStateEngine::hits),
            flow_installs: flow_state.map_or(0, FlowStateEngine::installs),
            flow_deferred: flow_state.map_or(0, FlowStateEngine::deferred),
            flow_expired: flow_state.map_or(0, FlowStateEngine::expired),
        }
    }

    /// Ends the warm-up: counters restart from a snapshot of every total
    /// and the histograms start empty. The cache keeps its contents (warm
    /// contents are the point).
    fn warm_reset(&mut self) {
        self.warm_totals = self.totals();
        self.warm_processed_base = self.cores.iter().map(DataCore::processed).collect();
        self.latency.reset();
        self.tenant_latency.clear();
    }
}

impl Lookahead for Ev {
    /// No pod can affect another pod sooner than a packet can transit the
    /// NIC RX pipeline (wire + parser + DMA, 3.9 µs) — the natural
    /// conservative lookahead window for pod-granular sharding.
    fn lookahead_ns() -> u64 {
        NicPipelineLatency::production().total_ns(Direction::Rx)
    }
}

struct PodShard {
    sim: PodSimulation,
    source: Box<dyn TrafficSource + Send>,
    duration: SimTime,
}

/// One lockstep shard: a contiguous group of pods (pods-per-shard > 1 when
/// the run has more pods than shards).
struct PodGroup {
    pods: Vec<PodShard>,
}

impl EpochShard for PodGroup {
    type Event = Ev;

    fn next_time(&mut self) -> Option<SimTime> {
        // Events beyond a pod's horizon will never be popped (step_until
        // caps at `duration`), so they must not open epochs either or the
        // lockstep loop would spin forever.
        self.pods
            .iter_mut()
            .filter_map(|p| p.sim.next_event_time().filter(|t| *t <= p.duration))
            .min()
    }

    fn run_until(&mut self, deadline: SimTime) {
        for p in &mut self.pods {
            p.sim.step_until(p.source.as_mut(), p.duration, deadline);
        }
    }

    fn deliver(&mut self, msgs: Vec<ShardMsg<Ev>>) {
        // Pods are coupled through the pre-computed steering timeline, not
        // through runtime messages (yet) — nothing should arrive here.
        assert!(
            msgs.is_empty(),
            "pod shards do not exchange runtime messages"
        );
    }
}

/// Several pods executed as lockstep shards of **one** scenario.
///
/// This is the sharded driver of the coupled simulations: every pod keeps
/// its own [`PodSimulation`] (timing wheel included), pods are grouped into
/// `shards` contiguous groups, and the groups advance in conservative-
/// lookahead epochs on up to `threads` persistent workers (see
/// `albatross_sim::shard`). The reports come back in push order and are
/// byte-identical for every `shards × threads` combination — including
/// `1 × 1`, which is the plain serial loop.
pub struct ShardedPodSimulation {
    pods: Vec<PodShard>,
}

impl ShardedPodSimulation {
    /// Creates an empty run.
    pub fn new() -> Self {
        Self { pods: Vec::new() }
    }

    /// Adds a pod: built immediately (on the calling thread, so
    /// construction order is deterministic) and run until `duration`.
    pub fn push(
        &mut self,
        cfg: SimConfig,
        source: Box<dyn TrafficSource + Send>,
        duration: SimTime,
    ) {
        self.pods.push(PodShard {
            sim: PodSimulation::new(cfg),
            source,
            duration,
        });
    }

    /// Number of pods pushed so far.
    pub fn len(&self) -> usize {
        self.pods.len()
    }

    /// True when no pods were pushed.
    pub fn is_empty(&self) -> bool {
        self.pods.is_empty()
    }

    /// Runs every pod to its horizon over `shards` lockstep shards and up
    /// to `threads` worker threads, returning the per-pod reports in push
    /// order. Both knobs are clamped to the pod count; neither changes a
    /// byte of any report.
    pub fn run(self, shards: usize, threads: usize) -> Vec<SimReport> {
        let n = self.pods.len();
        if n == 0 {
            return Vec::new();
        }
        let shards = shards.clamp(1, n);
        let mut pods = self.pods;
        for p in &mut pods {
            p.sim.start(p.source.as_mut(), p.duration);
        }
        // Contiguous grouping: pods [g·chunk, (g+1)·chunk) form shard g.
        // Grouping affects wall clock only — reports are grouped back in
        // push order below and each pod's event sequence is private.
        let chunk = n.div_ceil(shards);
        let mut groups: Vec<PodGroup> = Vec::with_capacity(shards);
        let mut iter = pods.into_iter();
        for _ in 0..shards {
            let group: Vec<PodShard> = iter.by_ref().take(chunk).collect();
            if !group.is_empty() {
                groups.push(PodGroup { pods: group });
            }
        }
        LockstepRunner::new(Ev::lookahead_ns(), threads).run(&mut groups);
        groups
            .into_iter()
            .flat_map(|g| g.pods)
            .map(|p| p.sim.finish(p.duration))
            .collect()
    }
}

impl Default for ShardedPodSimulation {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_workload::{ConstantRateSource, FlowSet};

    fn small_cfg(mode: LbMode, cores: usize) -> SimConfig {
        let mut cfg = SimConfig::new(cores, ServiceKind::VpcVpc);
        cfg.mode = mode;
        cfg.table_scale = 0.001;
        cfg.cache_bytes = 4 * 1024 * 1024;
        cfg.ordqs = 2;
        cfg.reorder_depth = 1024;
        cfg
    }

    /// 100 flows of tenant 7 at `pps`, `bytes` each, for 50 ms, run to
    /// 60 ms. Every packet has left the pod by then, so the run also checks
    /// that every slab slot is free again.
    fn run_sized(cfg: SimConfig, pps: u64, bytes: u32) -> SimReport {
        let flows = FlowSet::generate(100, Some(7), 3);
        let horizon = SimTime::from_millis(60);
        let mut src =
            ConstantRateSource::new(flows, pps, bytes, SimTime::ZERO, SimTime::from_millis(50));
        let mut sim = PodSimulation::new(cfg);
        sim.start(&mut src, horizon);
        sim.step_until(&mut src, horizon, horizon);
        let slab = &sim.slab;
        assert!(!slab.packets.is_empty(), "no packet was admitted");
        assert_eq!(
            slab.free.len(),
            slab.packets.len(),
            "slots held at the horizon"
        );
        sim.finish(horizon)
    }

    fn run_cfg(cfg: SimConfig, pps: u64) -> SimReport {
        run_sized(cfg, pps, 256)
    }

    fn run_simple(mode: LbMode, pps: u64) -> SimReport {
        run_cfg(small_cfg(mode, 4), pps)
    }

    #[test]
    fn plb_underload_delivers_everything_in_order() {
        // 100 kpps on 4 cores (capacity ≫ offered): no drops, no HOL, all
        // in order.
        let r = run_simple(LbMode::Plb, 100_000);
        assert_eq!(r.offered, 5_000);
        assert_eq!(r.processed, 5_000);
        assert_eq!(r.transmitted, 5_000);
        assert_eq!(r.in_order, 5_000);
        assert_eq!(r.out_of_order, 0);
        assert_eq!(r.hol_timeouts, 0);
        assert_eq!(r.dropped_rx_queue + r.dropped_ingress_full, 0);
    }

    #[test]
    fn rss_underload_also_delivers_everything() {
        let r = run_simple(LbMode::Rss, 100_000);
        assert_eq!(r.transmitted, 5_000);
        assert_eq!(r.disorder_rate(), 0.0);
    }

    #[test]
    fn latency_includes_nic_pipeline_floor() {
        // RX (3.9 µs) + processing + TX (4.17 µs): min latency > 8 µs.
        let r = run_simple(LbMode::Plb, 10_000);
        assert!(
            r.latency.min() >= 8_000,
            "min latency {} below NIC floor",
            r.latency.min()
        );
        // And the mean stays in the tens of microseconds (paper: ~20 µs).
        assert!(r.latency.mean() < 100_000.0);
    }

    #[test]
    fn overload_saturates_at_core_capacity() {
        // Offer far beyond capacity: processed ≈ capacity < offered, drops
        // appear somewhere.
        let r = run_simple(LbMode::Plb, 20_000_000);
        assert!(r.processed < r.offered);
        assert!(
            r.dropped_rx_queue + r.dropped_ingress_full > 0,
            "overload must drop"
        );
        // Well below the offered 20 Mpps: the cores are the bottleneck.
        assert!(
            (r.processed as f64) < 0.95 * r.offered as f64,
            "processed {} vs offered {}",
            r.processed,
            r.offered
        );
    }

    #[test]
    fn acl_drops_with_flag_do_not_hol() {
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.acl_drop_modulus = Some(4);
        cfg.use_drop_flag = true;
        let r = run_cfg(cfg, 100_000);
        assert!(r.dropped_acl > 0);
        assert!(r.drop_flag_releases > 0);
        assert_eq!(r.hol_timeouts, 0, "drop flag prevents HOL");
        assert_eq!(r.out_of_order, 0);
    }

    #[test]
    fn acl_drops_without_flag_cause_hol_timeouts() {
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.acl_drop_modulus = Some(4);
        cfg.use_drop_flag = false;
        let r = run_cfg(cfg, 100_000);
        assert!(r.dropped_acl > 0);
        assert!(r.hol_timeouts > 0, "silent drops must strand FIFO heads");
    }

    /// A pod whose limiter allows tenant 9 50 kpps, and tenant 9 flooding
    /// it at 500 kpps (10× the allowance) for `millis`.
    fn flooded(cores: usize, millis: u64) -> (PodSimulation, ConstantRateSource) {
        let mut cfg = small_cfg(LbMode::Plb, cores);
        cfg.rate_limiter = Some(RateLimiterConfig {
            stage1_pps: 40_000.0,
            stage2_pps: 10_000.0,
            tenant_limit_pps: 50_000.0,
            ..RateLimiterConfig::production()
        });
        let flows = FlowSet::generate(10, Some(9), 6);
        let end = SimTime::from_millis(millis);
        let src = ConstantRateSource::new(flows, 500_000, 256, SimTime::ZERO, end);
        (PodSimulation::new(cfg), src)
    }

    #[test]
    fn rate_limiter_caps_a_flooding_tenant() {
        let (sim, mut src) = flooded(4, 100);
        let r = sim.run(&mut src, SimTime::from_millis(110));
        assert!(r.dropped_ratelimit > 0);
        let delivered_rate = r.transmitted as f64 / 0.1;
        assert!(
            delivered_rate < 80_000.0,
            "tenant must be capped near 50 kpps, got {delivered_rate}"
        );
    }

    #[test]
    fn heavy_hitter_lifecycle_counters_reach_the_report() {
        let (mut sim, mut src) = flooded(2, 50);
        // Pod-layer control surface: install, then CPU-assisted uninstall.
        assert!(sim
            .limiter_mut()
            .unwrap()
            .install_heavy_hitter(9, SimTime::ZERO));
        assert!(sim.uninstall_heavy_hitter(9));
        assert!(!sim.uninstall_heavy_hitter(9), "already demoted");
        // The tenant floods anyway and gets re-promoted by sampling.
        let r = sim.run(&mut src, SimTime::from_millis(60));
        assert!(r.hh_promotions >= 2, "promotions {}", r.hh_promotions);
        assert_eq!(r.hh_demotions, 1);
        assert_eq!(r.hh_promotion_refused, 0);
        assert!(!r.hh_slot_occupancy.is_empty());
        assert!(r.hh_slot_occupancy.max() >= 1.0, "promotee must be sampled");
    }

    /// A 2-core pod at 100 kpps whose statistics restart at `warmup_ms`.
    fn run_warm(warmup_ms: u64) -> SimReport {
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.warmup = SimTime::from_millis(warmup_ms);
        cfg.track_tenant_latency = true;
        run_cfg(cfg, 100_000)
    }

    #[test]
    fn warmup_excludes_cold_cache_interval() {
        let (warm, cold) = (run_warm(25), run_warm(0));
        // Only the second half is counted.
        assert!(warm.offered <= 2_600, "offered={}", warm.offered);
        assert!(warm.offered >= 2_400);
        // The compulsory misses and their PCIe traffic fall in the warm-up.
        assert!(warm.cache_hit_rate > cold.cache_hit_rate);
        assert!(warm.pcie_rx_bytes < cold.pcie_rx_bytes);
    }

    #[test]
    fn tenant_latency_covers_the_measured_interval() {
        let r = run_warm(25);
        assert_eq!(r.tenant_latency[&7].count(), r.latency.count());
    }

    #[test]
    fn merged_counters_are_sums_and_the_hit_rate_pools_accesses() {
        // VPC-Internet charges more lookups per packet than VPC-VPC, so the
        // pooled rate is not a processed-weighted mean of the two rates.
        let a = run_simple(LbMode::Plb, 100_000);
        let mut cfg = small_cfg(LbMode::Plb, 4);
        cfg.service = ServiceKind::VpcInternet;
        let b = run_cfg(cfg, 300_000);
        let merged = SimReport::merge_ordered(&[a.clone(), b.clone()]);
        let mut sum = a.counters();
        sum.add(&b.counters());
        assert_eq!(merged.counters(), sum);
        let hits = a.cache_hits + b.cache_hits;
        let accesses = hits + a.cache_misses + b.cache_misses;
        assert_eq!(merged.cache_hit_rate, hits as f64 / accesses as f64);
    }

    #[test]
    #[should_panic(expected = "counter `cache_misses` went backwards")]
    fn since_names_a_counter_that_went_backwards() {
        let base = SimCounters {
            cache_misses: 1,
            ..SimCounters::default()
        };
        SimCounters::default().since(&base);
    }

    #[test]
    fn per_tenant_rates_are_tracked() {
        let r = run_simple(LbMode::Plb, 100_000);
        let meter = r.tenant_delivered.get(&7).expect("tenant 7 tracked");
        assert_eq!(meter.total(), 5_000);
    }

    #[test]
    fn header_only_mode_saves_pcie_bytes_losslessly() {
        let run = |delivery| {
            let mut cfg = small_cfg(LbMode::Plb, 4);
            cfg.delivery = delivery;
            run_sized(cfg, 100_000, 8_542)
        };
        let full = run(DeliveryMode::FullPacket);
        let split = run(DeliveryMode::HeaderOnly);
        assert_eq!(full.transmitted, split.transmitted, "both lossless");
        assert_eq!(split.headers_dropped, 0);
        assert_eq!(split.payloads_reaped, 0);
        // Header-only moves ~64 B instead of 8,542 B per packet+direction.
        assert!(
            split.pcie_rx_bytes * 50 < full.pcie_rx_bytes,
            "split {} vs full {}",
            split.pcie_rx_bytes,
            full.pcie_rx_bytes
        );
    }

    #[test]
    fn header_only_timeout_reaps_payload_and_drops_late_header() {
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.delivery = DeliveryMode::HeaderOnly;
        // Stack latency far past the 100 µs reorder timeout: every packet
        // times out, its payload is reaped, and its late header dropped.
        cfg.extra_jitter = Some(LatencyModel::Fixed(300_000));
        let r = run_sized(cfg, 50_000, 4_000);
        assert!(r.hol_timeouts > 0);
        assert!(r.payloads_reaped > 0, "timeouts must reap payloads");
        assert!(r.headers_dropped > 0, "late headers must be dropped");
        assert_eq!(r.transmitted, 0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_simple(LbMode::Plb, 200_000);
        let b = run_simple(LbMode::Plb, 200_000);
        assert_eq!(a.canonical_dump(), b.canonical_dump());
    }

    /// Runs `pods` pods alone, then together over each `(shards, threads)`
    /// geometry, which must reproduce every lone run's dump. Returns the
    /// lone runs' reports.
    fn assert_geometry_invariant(
        pod: impl Fn(u64) -> (SimConfig, ConstantRateSource),
        pods: u64,
        geometries: &[(usize, usize)],
    ) -> Vec<SimReport> {
        let duration = SimTime::from_millis(10);
        let reference: Vec<SimReport> = (0..pods)
            .map(|s| {
                let (cfg, mut src) = pod(s);
                PodSimulation::new(cfg).run(&mut src, duration)
            })
            .collect();
        let dumps: Vec<String> = reference.iter().map(SimReport::canonical_dump).collect();
        for &(shards, threads) in geometries {
            let mut sharded = ShardedPodSimulation::new();
            for s in 0..pods {
                let (cfg, src) = pod(s);
                sharded.push(cfg, Box::new(src), duration);
            }
            let got: Vec<String> = sharded
                .run(shards, threads)
                .iter()
                .map(SimReport::canonical_dump)
                .collect();
            assert_eq!(got, dumps, "shards={shards} threads={threads}");
        }
        reference
    }

    #[test]
    fn sharded_pods_match_plain_runs_at_any_geometry() {
        let pod = |seed: u64| {
            let mut cfg = small_cfg(LbMode::Plb, 2);
            cfg.seed = seed;
            let flows = FlowSet::generate(50, Some(seed as u32), seed ^ 0x5a5a);
            let end = SimTime::from_millis(8);
            (
                cfg,
                ConstantRateSource::new(flows, 150_000, 256, SimTime::ZERO, end),
            )
        };
        assert_geometry_invariant(pod, 5, &[(1, 1), (3, 1), (5, 2), (5, 5), (8, 4)]);
    }

    fn tiered_cfg(seed: u64) -> SimConfig {
        use albatross_fpga::tier::InstallBudget;
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.service = ServiceKind::VpcInternet;
        cfg.seed = seed;
        // Tiny tables + tight budget so promotions, upgrades, demotions,
        // evictions, expiry, AND deferrals all occur within the run.
        cfg.session_tiers = Some(TierConfig {
            fpga_capacity: 6,
            dpu_capacity: 12,
            fpga_install_budget: Some(InstallBudget {
                installs_per_sec: 2_000.0,
                burst: 2.0,
            }),
            dpu_install_budget: Some(InstallBudget {
                installs_per_sec: 4_000.0,
                burst: 4.0,
            }),
            elephant_pkts_per_window: 4,
            window: SimTime::from_millis(1),
            demote_after_windows: Some(2),
            evict_on_pressure: true,
            candidate_slots: 16,
            idle_timeout: SimTime::from_millis(3),
            dpu_pkt_ns: 2_500,
            cpu_session_ns: 80,
        });
        cfg
    }

    #[test]
    fn tiered_session_engine_reports_placement_counters() {
        let flows = FlowSet::generate(60, Some(9), 11);
        let mut src =
            ConstantRateSource::new(flows, 200_000, 256, SimTime::ZERO, SimTime::from_millis(25));
        let r = PodSimulation::new(tiered_cfg(9)).run(&mut src, SimTime::from_millis(30));
        assert!(r.tier_promotions > 0, "elephants must be promoted");
        assert!(r.tier_fpga_pkts > 0, "FPGA tier must serve packets");
        assert!(r.tier_cpu_pkts > 0, "mice must stay on CPU");
        let hit = r.tier_offload_hit_rate();
        assert!(hit > 0.0 && hit < 1.0, "hit rate {hit} must be partial");
        assert_eq!(
            r.tier_fpga_pkts + r.tier_dpu_pkts + r.tier_cpu_pkts,
            r.processed,
            "every processed packet is attributed to exactly one tier"
        );
    }

    #[test]
    fn slab_slots_all_return_after_drops_and_deferred_returns() {
        // `run_sized` checks the slab; each case checks that its path ran.
        let mut cfg = small_cfg(LbMode::Rss, 2);
        cfg.rx_queue_depth = 4;
        assert!(run_cfg(cfg, 5_000_000).dropped_rx_queue > 0);
        for use_drop_flag in [true, false] {
            let mut cfg = small_cfg(LbMode::Plb, 2);
            cfg.acl_drop_modulus = Some(4);
            cfg.use_drop_flag = use_drop_flag;
            assert!(run_cfg(cfg, 100_000).dropped_acl > 0);
        }
        let mut cfg = small_cfg(LbMode::Plb, 2);
        cfg.delivery = DeliveryMode::HeaderOnly;
        assert!(run_sized(cfg, 100_000, 4_000).transmitted > 0);
        // DPU-served packets return through deferred `CpuReturn` events.
        assert!(run_cfg(tiered_cfg(9), 600_000).tier_dpu_pkts > 0);
    }

    #[test]
    fn tiered_pods_are_byte_identical_across_shard_geometries() {
        let pod = |seed: u64| {
            let flows = FlowSet::generate(60, Some(seed as u32), seed ^ 0x33);
            let end = SimTime::from_millis(8);
            let src = ConstantRateSource::new(flows, 180_000, 256, SimTime::ZERO, end);
            (tiered_cfg(seed), src)
        };
        let reference = assert_geometry_invariant(pod, 4, &[(1, 1), (2, 2), (4, 4)]);
        assert!(
            reference.iter().any(|r| r.tier_promotions > 0),
            "tier counters must be live in the reference runs"
        );
    }
}
