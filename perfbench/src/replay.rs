//! Outside-in layer replay: the workload's seeded stream driven through
//! each layer's public entry points in pod order, one span per layer per
//! burst of up to `burst_size` packets.
//!
//! Order per burst, as `PodSimulation` calls the layers: source → limiter
//! → ingress → DMA → event engine (Deliver) → RX queue → session engine →
//! service → core begin → event engine (CoreDone) → DMA → return/poll →
//! telemetry.
//!
//! The core model is simplified against `PodSimulation`:
//! * each core is a FIFO server: a delivered packet starts when it arrives
//!   or when the core's previous packet ends. The RX queue depth is kept by
//!   the replay's own bookkeeping (a packet is tail-dropped when
//!   `rx_queue_depth` packets wait to start), so the `DataCore` queue is
//!   only passed through: enqueue, then take at once;
//! * every packet costs one Deliver and one CoreDone event (the pod inlines
//!   most arrivals and zero-jitter returns);
//! * a CoreDone that falls inside the burst being replayed fires at the end
//!   of that burst, so the packet returns to the NIC up to one burst late;
//! * the session engine classifies a packet at its delivery time, not at
//!   the time its core starts it;
//! * NUMA-balancing stalls, stack jitter, header-only delivery, the
//!   utilization sampler and the heavy-hitter occupancy series are left out;
//! * reorder timeouts are polled once per burst instead of on their own
//!   events.
//!
//! Each layer's call sits in one adapter function below, so an API change
//! in a layer touches one function here.

use std::collections::{HashMap, VecDeque};

use albatross_container::simrun::SimConfig;
use albatross_core::engine::{Egress, EgressBuf, IngressDecision, PlbEngine, PlbEngineConfig};
use albatross_core::ratelimit::TwoStageRateLimiter;
use albatross_core::reorder::ReorderConfig;
use albatross_fpga::dma::DmaEngine;
use albatross_fpga::pipeline::{Direction, NicPipelineLatency, Stage};
use albatross_fpga::pkt::NicPacket;
use albatross_fpga::tier::{SessionTier, TieredSessionEngine};
use albatross_gateway::flowstate::{FlowStateEngine, FlowVerdict};
use albatross_gateway::services::{PacketAction, ProcessOutcome, ServicePipeline};
use albatross_gateway::worker::DataCore;
use albatross_mem::tables::CloudGatewayTables;
use albatross_mem::{DramModel, MemorySystem, NumaTopology, SharedCache};
use albatross_sim::{Engine, SimRng, SimTime};
use albatross_telemetry::{LatencyHistogram, RateMeter};
use albatross_workload::PacketDesc;

use crate::trace::{Layer, Tracer};
use crate::workloads::Scenario;

/// What the replay saw, for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    /// Packets pulled from the source.
    pub offered: u64,
    /// L3 model accesses (hits + misses).
    pub cache_accesses: u64,
}

/// Session-engine verdict for one packet.
#[derive(Debug, Clone, Copy, Default)]
struct Session {
    in_hw: bool,
    cpu_ns: u64,
}

enum Ev {
    Deliver {
        core: usize,
        pkt: NicPacket,
    },
    CoreDone {
        pkt: NicPacket,
        action: PacketAction,
    },
}

/// Packets assigned to one core that have not started yet, by start time:
/// the occupancy of its RX queue.
#[derive(Default)]
struct Backlog {
    starts: VecDeque<SimTime>,
    /// Admitted in the current burst, start time not yet known.
    admitted: usize,
}

impl Backlog {
    /// Admits a packet delivered at `t` unless `depth` packets wait.
    fn admit(&mut self, t: SimTime, depth: usize) -> bool {
        while self.starts.front().is_some_and(|&s| s <= t) {
            self.starts.pop_front();
        }
        let ok = self.starts.len() + self.admitted < depth;
        self.admitted += usize::from(ok);
        ok
    }

    /// Records the start time of an admitted packet.
    fn started(&mut self, start: SimTime) {
        self.admitted -= 1;
        self.starts.push_back(start);
    }
}

enum SessionEngine {
    None,
    Flow(Box<FlowStateEngine>),
    Tiers(Box<TieredSessionEngine>),
}

// ---------------------------------------------------------------------------
// Adapters: one per layer entry point.
// ---------------------------------------------------------------------------

/// `core.ratelimit`: true when the packet passes.
fn ratelimit(l: &mut TwoStageRateLimiter, d: &PacketDesc, rng: &mut SimRng) -> bool {
    d.vni.is_none_or(|vni| l.process(vni, d.time, rng).passed())
}

impl SessionEngine {
    fn layer(&self) -> Option<Layer> {
        match self {
            SessionEngine::None => None,
            SessionEngine::Flow(_) => Some(Layer::GatewayFlowstate),
            SessionEngine::Tiers(_) => Some(Layer::FpgaTier),
        }
    }

    /// `gateway.flowstate` / `fpga.tier`: per-packet placement.
    fn classify(&mut self, pkt: &NicPacket, now: SimTime) -> Session {
        match self {
            SessionEngine::None => Session::default(),
            SessionEngine::Flow(fs) => {
                let v = fs.on_packet(&pkt.tuple, now);
                Session {
                    in_hw: v == FlowVerdict::Resident,
                    cpu_ns: fs.verdict_ns(v),
                }
            }
            SessionEngine::Tiers(t) => {
                let tier = t.on_packet(&pkt.tuple, pkt.len_bytes, now);
                Session {
                    in_hw: tier != SessionTier::Cpu,
                    cpu_ns: t.cpu_cost_ns(tier),
                }
            }
        }
    }

    /// `gateway.flowstate` / `fpga.tier`: idle expiry on the sampling tick.
    fn expire(&mut self, now: SimTime) {
        match self {
            SessionEngine::None => {}
            SessionEngine::Flow(fs) => {
                fs.expire(now);
            }
            SessionEngine::Tiers(t) => {
                t.expire(now);
            }
        }
    }
}

/// `core.engine.ingress`: the dispatch decision.
fn ingress(lb: &mut PlbEngine, pkt: &mut NicPacket, at: SimTime) -> Option<usize> {
    match lb.ingress(pkt, at) {
        IngressDecision::ToCore(core) => Some(core),
        IngressDecision::Dropped => None,
    }
}

/// `fpga.dma`: NIC→CPU transfer time.
fn dma_rx(dma: &mut DmaEngine, pkt: &NicPacket) -> u64 {
    dma.transfer_rx(pkt)
}

/// `fpga.dma`: CPU→NIC transfer time.
fn dma_tx(dma: &mut DmaEngine, pkt: &NicPacket) -> u64 {
    dma.transfer_tx(pkt)
}

/// `gateway.worker`: RX queue enqueue and take.
fn rx_queue(core: &mut DataCore, pkt: NicPacket) -> Option<NicPacket> {
    let _ = core.enqueue(pkt);
    core.take_next()
}

/// `gateway.worker`: start the packet once the core is free; returns the
/// start and completion times.
fn begin(core: &mut DataCore, at: SimTime, cost_ns: u64) -> (SimTime, SimTime) {
    let start = at.max(core.busy_until());
    (start, core.begin(start, cost_ns))
}

/// `gateway.services`: the service chain over the memory model.
fn service(
    svc: &ServicePipeline,
    core: usize,
    pkt: &NicPacket,
    session: Session,
    tables: &CloudGatewayTables,
    mem: &mut MemorySystem,
    rng: &mut SimRng,
) -> ProcessOutcome {
    let hash = pkt.tuple.compact_hash();
    let mut o = svc.process_offloaded(core, hash, session.in_hw, tables, mem, rng);
    o.latency_ns += session.cpu_ns;
    o
}

/// `core.engine.return`: hand a processed packet back to the reorder
/// engine.
fn cpu_return(
    lb: &mut PlbEngine,
    mut pkt: NicPacket,
    action: PacketAction,
    at: SimTime,
    out: &mut EgressBuf,
) {
    if action == PacketAction::Drop {
        match pkt.meta.as_mut() {
            Some(meta) => meta.set_drop(),
            None => return,
        }
    }
    lb.cpu_return_into(pkt, true, at, out);
}

/// `core.engine.return`: release timed-out reorder heads.
fn poll(lb: &mut PlbEngine, at: SimTime, out: &mut EgressBuf) {
    lb.poll_into(at, out);
}

/// `telemetry`: per-egress latency and per-tenant delivered rate.
fn record(
    latency: &mut LatencyHistogram,
    meters: &mut HashMap<u32, RateMeter>,
    window_ns: u64,
    eg: &Egress,
    at: SimTime,
) {
    let pkt = eg.packet();
    latency.record(at.saturating_since(pkt.arrival));
    if let Some(vni) = pkt.vni {
        meters
            .entry(vni)
            .or_insert_with(|| RateMeter::new(window_ns))
            .record(at.as_nanos(), 1);
    }
}

// ---------------------------------------------------------------------------
// The replay loop.
// ---------------------------------------------------------------------------

/// Replays `s`'s stream through the adapters, recording spans into `tr`
/// under one `trace.replay` root.
pub fn replay(s: &Scenario, tr: &mut Tracer) -> Replayed {
    let cfg: SimConfig = s.config();
    let horizon = s.horizon();
    let mut src = s.source(&mut Tracer::off());

    // The layers, built the way the pod builds them.
    let tables = CloudGatewayTables::scaled(cfg.table_scale);
    let mut svc = ServicePipeline::new(cfg.service, &tables);
    if let Some(m) = cfg.acl_drop_modulus {
        svc = svc.with_acl_drop_modulus(m);
    }
    let mut mem = MemorySystem::new(
        SharedCache::with_cores(cfg.cache_bytes, cfg.cache_ways, cfg.data_cores),
        DramModel::new(cfg.mem_freq_mhz),
    )
    .with_placement(&NumaTopology::albatross_server(), cfg.placement);
    let mut lb = PlbEngine::new(PlbEngineConfig {
        data_cores: cfg.data_cores,
        ordqs: cfg.ordqs,
        reorder: ReorderConfig {
            depth: cfg.reorder_depth,
            timeout_ns: cfg.reorder_timeout_ns,
        },
        mode: cfg.mode,
        auto_fallback_hol_timeouts: None,
    });
    let mut limiter = cfg.rate_limiter.clone().map(TwoStageRateLimiter::new);
    let mut session = match (&cfg.session_tiers, &cfg.flow_state) {
        (Some(t), _) => SessionEngine::Tiers(Box::new(TieredSessionEngine::new(t.clone()))),
        (None, Some(f)) => SessionEngine::Flow(Box::new(FlowStateEngine::new(f))),
        (None, None) => SessionEngine::None,
    };
    let mut cores: Vec<DataCore> = (0..cfg.data_cores)
        .map(|i| DataCore::new(i, cfg.rx_queue_depth))
        .collect();
    let mut backlog: Vec<Backlog> = (0..cfg.data_cores).map(|_| Backlog::default()).collect();
    let mut dma = DmaEngine::production();
    let nic = NicPipelineLatency::production();
    let pre_dma_rx = nic.total_ns(Direction::Rx) - nic.stage_ns(Stage::Dma, Direction::Rx);
    let pre_dma_tx = nic.total_ns(Direction::Tx) - nic.stage_ns(Stage::Dma, Direction::Tx);
    let mut engine: Engine<Ev> = Engine::new();
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut latency = LatencyHistogram::new();
    let mut meters: HashMap<u32, RateMeter> = HashMap::new();
    let window_ns = cfg.tenant_rate_window.as_nanos();

    // Per-burst scratch.
    let burst = cfg.burst.burst_size.max(1);
    let mut descs: Vec<PacketDesc> = Vec::with_capacity(burst);
    let mut dispatched: Vec<(usize, NicPacket)> = Vec::with_capacity(burst);
    let mut dma_ns: Vec<u64> = Vec::with_capacity(burst);
    let mut popped: Vec<(SimTime, Ev)> = Vec::new();
    let mut delivered: Vec<(SimTime, usize, NicPacket)> = Vec::new();
    let mut queued: Vec<(SimTime, usize, NicPacket)> = Vec::new();
    let mut sessions: Vec<Session> = Vec::new();
    let mut outcomes: Vec<ProcessOutcome> = Vec::new();
    let mut done: Vec<SimTime> = Vec::new();
    let mut returns: Vec<(SimTime, NicPacket, PacketAction)> = Vec::new();
    let mut egress = EgressBuf::with_capacity(burst);
    let mut egress_at: Vec<SimTime> = Vec::new();

    let mut out = Replayed::default();
    let mut next_id = 0u64;
    let mut next_tick = cfg.sample_window;
    let mut source_done = false;
    let root = tr.open(Layer::Replay);
    loop {
        tr.next_burst();
        descs.clear();
        if !source_done {
            source_done = tr.span(Layer::WorkloadNextPacket, || {
                let mut calls = 0;
                while descs.len() < burst {
                    calls += 1;
                    match src.next_packet() {
                        Some(d) if d.time <= horizon => descs.push(d),
                        _ => return (true, calls),
                    }
                }
                (false, calls)
            });
        }
        out.offered += descs.len() as u64;
        let now = descs.last().map_or(horizon, |d| d.time);

        if let Some(layer) = session.layer() {
            while next_tick <= now {
                tr.call(layer, || session.expire(next_tick));
                next_tick += cfg.sample_window.as_nanos();
            }
        }
        if let Some(l) = limiter.as_mut() {
            let n = descs.len() as u64;
            tr.span(Layer::CoreRatelimit, || {
                descs.retain(|d| ratelimit(l, d, &mut rng));
                ((), n)
            });
        }
        tr.span(Layer::CoreEngineIngress, || {
            for d in &descs {
                let mut pkt = NicPacket::data(next_id, d.tuple, d.vni, d.len_bytes, d.time);
                next_id += 1;
                if let Some(core) = ingress(&mut lb, &mut pkt, d.time + pre_dma_rx) {
                    dispatched.push((core, pkt));
                }
            }
            ((), descs.len() as u64)
        });
        tr.span(Layer::FpgaDma, || {
            dma_ns.clear();
            dma_ns.extend(dispatched.iter().map(|(_, pkt)| dma_rx(&mut dma, pkt)));
            ((), dma_ns.len() as u64)
        });
        tr.span(Layer::SimEngine, || {
            let n = dispatched.len() as u64;
            for ((core, pkt), ns) in dispatched.drain(..).zip(&dma_ns) {
                let at = pkt.arrival + pre_dma_rx + *ns;
                engine.schedule(at, Ev::Deliver { core, pkt });
            }
            ((), n)
        });
        tr.span(Layer::SimEngine, || {
            popped.clear();
            while let Some(ev) = engine.pop_until(now) {
                popped.push(ev);
            }
            ((), popped.len() as u64)
        });
        // Past the source's end, only popped events create new ones; events
        // beyond the horizon never fire, as in the pod.
        if source_done && popped.is_empty() {
            break;
        }
        for (t, ev) in popped.drain(..) {
            match ev {
                Ev::Deliver { core, pkt } => {
                    if backlog[core].admit(t, cfg.rx_queue_depth) {
                        delivered.push((t, core, pkt));
                    }
                }
                Ev::CoreDone { pkt, action } => returns.push((t, pkt, action)),
            }
        }

        tr.span(Layer::GatewayWorker, || {
            let n = delivered.len() as u64;
            for (t, core, pkt) in delivered.drain(..) {
                if let Some(pkt) = rx_queue(&mut cores[core], pkt) {
                    queued.push((t, core, pkt));
                }
            }
            ((), n)
        });
        if let Some(layer) = session.layer() {
            tr.span(layer, || {
                sessions.clear();
                sessions.extend(queued.iter().map(|(t, _, pkt)| session.classify(pkt, *t)));
                ((), queued.len() as u64)
            });
        }
        tr.span(Layer::GatewayServices, || {
            outcomes.clear();
            for (i, (_, core, pkt)) in queued.iter().enumerate() {
                let sess = sessions.get(i).copied().unwrap_or_default();
                outcomes.push(service(&svc, *core, pkt, sess, &tables, &mut mem, &mut rng));
            }
            ((), outcomes.len() as u64)
        });
        tr.span(Layer::GatewayWorker, || {
            done.clear();
            for ((t, core, _), o) in queued.iter().zip(&outcomes) {
                let (start, end) = begin(&mut cores[*core], *t, o.latency_ns);
                backlog[*core].started(start);
                done.push(end);
            }
            ((), done.len() as u64)
        });
        tr.span(Layer::SimEngine, || {
            let n = done.len() as u64;
            let floor = engine.now();
            for (((_, _, pkt), o), &t) in queued.drain(..).zip(&outcomes).zip(&done) {
                engine.schedule(
                    t.max(floor),
                    Ev::CoreDone {
                        pkt,
                        action: o.action,
                    },
                );
            }
            ((), n)
        });

        tr.span(Layer::FpgaDma, || {
            for (t, pkt, action) in returns.iter_mut() {
                if *action == PacketAction::Forward {
                    *t = *t + pre_dma_tx + dma_tx(&mut dma, pkt);
                }
            }
            ((), returns.len() as u64)
        });
        tr.span(Layer::CoreEngineReturn, || {
            let n = returns.len() as u64 + 1;
            egress_at.clear();
            for (t, pkt, action) in returns.drain(..) {
                let before = egress.len();
                cpu_return(&mut lb, pkt, action, t, &mut egress);
                egress_at.resize(egress_at.len() + egress.len() - before, t);
            }
            let before = egress.len();
            poll(&mut lb, now, &mut egress);
            egress_at.resize(egress_at.len() + egress.len() - before, now);
            ((), n)
        });
        tr.span(Layer::Telemetry, || {
            let n = egress.len() as u64;
            for (eg, &at) in egress.drain().zip(&egress_at) {
                record(&mut latency, &mut meters, window_ns, &eg, at);
            }
            ((), n)
        });
    }
    tr.call(Layer::CoreEngineReturn, || {
        poll(&mut lb, horizon, &mut egress);
    });
    tr.close(root);
    out.cache_accesses = mem.cache().total_hits() + mem.cache().total_misses();
    out
}
