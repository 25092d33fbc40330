//! Coupled AZ-scale resilience simulation.
//!
//! Unlike the per-pod harnesses (one [`PodSimulation`](crate::PodSimulation) per sweep point,
//! nothing shared), this module wires a whole availability zone together
//! the way §5/§7 describe it: every server runs a real
//! [`BgpProxy`] whose upstream UPDATEs are
//! actually applied to one shared
//! [`SwitchControlPlane`]
//! RIB; every pod's liveness is a real
//! [`BfdSession`] driven by 50 ms control
//! packets (§4.3); placement goes through the
//! [`Orchestrator`] with its 10-second bring-up; and
//! VIP moves run the [`Migration`]
//! advertise-before-withdraw state machine (§7). Failure drills are a
//! deterministic [`EventScript`] interleaved with that control plane.
//!
//! # Two-phase design (determinism)
//!
//! The determinism contract (DESIGN.md §4d) says thread count never
//! changes a byte. A naively coupled simulation would break it — pods
//! would exchange state mid-flight. Instead the run splits in two:
//!
//! 1. **Control-plane phase** (single-threaded, event-driven): BGP, BFD,
//!    orchestration and the drill script execute on one engine. Every
//!    moment the switch RIB changes, the new VIP→pod steering is
//!    snapshotted at `event time + per-route processing delay` (20 µs per
//!    route touched). The output is a *steering timeline*.
//! 2. **Data-plane phase**: the timeline is compiled into per-pod
//!    [`SteerSegment`] trains — the uplink switch spreads the service's
//!    aggregate rate equally over routed VIPs — and every pod with traffic
//!    runs as its own [`Scenario`] of one [`ScenarioFleet`]: pods share no
//!    state at run time, so they need no coordination. Reports merge in
//!    pod order via [`SimReport::merge_ordered`], so any thread count
//!    reproduces the serial bytes.
//!
//! Packets steered at a VIP whose pod is dead or link-silenced — the
//! window between failure and the withdraw becoming effective upstream —
//! are **blackholed**: counted analytically, never delivered. A failed VF
//! eats a deterministic `1/vfs` share of its pod's packets at the edge
//! until failover completes. Everything else must come out the far end,
//! giving the conservation law the scenario suite pins:
//! `delivered == offered − blackholed − vf_lost`.
//!
//! Each drill window tags its traffic with a distinct VNI, so delivery
//! ratio and p99 latency are attributable per drill from the merged
//! report's per-tenant instruments ([`SimConfig::track_tenant_latency`]).

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

use albatross_bgp::bfd::{BfdSession, BfdState};
use albatross_bgp::msg::NlriPrefix;
use albatross_bgp::proxy::BgpProxy;
use albatross_bgp::switchcp::SwitchControlPlane;
use albatross_sim::{Engine, EventScript, SimTime};
use albatross_telemetry::TimeSeries;
use albatross_workload::{FlowSet, SteerSegment, SteeredSource, TrafficSource};

use crate::fleet::{FleetConfig, Scenario, ScenarioFleet};
use crate::migration::{Migration, VALIDATION_PERIOD};
use crate::orchestrator::Orchestrator;
use crate::pod::{GwPodSpec, GwRole};
use crate::simrun::{SimConfig, SimReport};

/// One scripted failure drill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrillSpec {
    /// When the drill fires.
    pub at: SimTime,
    /// Exclusive end of the drill's attribution window: traffic offered in
    /// `[at, window_end)` carries the drill's VNI. Windows of different
    /// drills must not overlap.
    pub window_end: SimTime,
    /// What happens.
    pub kind: DrillKind,
}

/// The failure injected by a drill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrillKind {
    /// The pod at (`server`, `slot`) crashes without withdrawing: BFD must
    /// detect it, the proxy flushes its VIP, the switch withdraws, and the
    /// orchestrator respawns a replacement (ready 10 s later) that
    /// re-advertises the same VIP.
    PodCrash {
        /// Hosting server.
        server: usize,
        /// Initial pod slot on that server.
        slot: usize,
    },
    /// Advertise-before-withdraw VIP migration (§7): a replacement pod is
    /// scheduled on the same server; once ready it advertises the VIP,
    /// validates for [`VALIDATION_PERIOD`], then the old pod withdraws.
    /// The switch never sees a route gap.
    VipMigration {
        /// Hosting server.
        server: usize,
        /// Initial pod slot whose VIP migrates.
        slot: usize,
    },
    /// Every live pod on `server` loses its BFD stream for `silence`
    /// (> detection time ⇒ all sessions go Down, the proxy flushes every
    /// pod, and upstream holds **zero** routes from that server until the
    /// storm ends and pods re-advertise).
    BfdFlapStorm {
        /// Target server.
        server: usize,
        /// How long BFD packets stop arriving.
        silence: SimTime,
    },
    /// One VF of the pod's NIC allotment fails: a `1/vfs` share of the
    /// pod's packets is lost at the edge until failover completes.
    VfFailure {
        /// Hosting server.
        server: usize,
        /// Initial pod slot on that server.
        slot: usize,
        /// Time until the failed VF's queues are rebalanced.
        failover: SimTime,
    },
    /// Elastic scale-out: a new pod (new VIP) is scheduled on `server`;
    /// after the 10 s bring-up it advertises and absorbs an equal share.
    ScaleOut {
        /// Target server.
        server: usize,
    },
}

impl DrillKind {
    /// Stable label used in reports and canonical RESULT lines.
    pub fn name(&self) -> &'static str {
        match self {
            DrillKind::PodCrash { .. } => "pod-crash",
            DrillKind::VipMigration { .. } => "vip-migration",
            DrillKind::BfdFlapStorm { .. } => "bfd-flap-storm",
            DrillKind::VfFailure { .. } => "vf-failure",
            DrillKind::ScaleOut { .. } => "scale-out",
        }
    }
}

/// Configuration of a coupled AZ run.
#[derive(Debug, Clone)]
pub struct AzConfig {
    /// Physical servers in the AZ slice.
    pub servers: usize,
    /// GW pods initially running per server (each with its own /32 VIP).
    pub pods_per_server: usize,
    /// Data cores per pod.
    pub data_cores: usize,
    /// Role every pod runs (fixes the service pipeline).
    pub role: GwRole,
    /// Aggregate offered rate across the whole AZ, packets per second.
    /// The switch divides it equally among routed VIPs.
    pub pps: u64,
    /// Frame length.
    pub len_bytes: u32,
    /// Concurrent flows per pod source.
    pub flows_per_pod: usize,
    /// Working-set scale for the pods.
    pub table_scale: f64,
    /// Total virtual duration of each pod's run.
    pub duration: SimTime,
    /// Drain margin: steering stops this long before `duration` so every
    /// in-flight packet egresses and the conservation law is exact.
    pub drain: SimTime,
    /// Base seed (per-pod seeds derive from it).
    pub seed: u64,
    /// The drill script.
    pub drills: Vec<DrillSpec>,
}

impl AzConfig {
    /// A small AZ slice with no drills: `servers × pods_per_server` pods,
    /// 76 s horizon, debug-friendly rates.
    pub fn new(servers: usize, pods_per_server: usize) -> Self {
        Self {
            servers,
            pods_per_server,
            data_cores: 4,
            role: GwRole::Igw,
            pps: 1_600,
            len_bytes: 256,
            flows_per_pod: 32,
            table_scale: 0.01,
            duration: SimTime::from_secs(76),
            drain: SimTime::from_millis(10),
            seed: 7,
            drills: Vec::new(),
        }
    }

    /// The canonical five-drill resilience suite (needs ≥ 2 servers and
    /// ≥ 2 pods per server): pod crash + respawn, VIP migration mid-flow,
    /// a BFD flap storm taking a whole server dark, a VF failure, and an
    /// elastic scale-out. Windows are disjoint by construction.
    pub fn with_drill_suite(mut self) -> Self {
        assert!(
            self.servers >= 2 && self.pods_per_server >= 2,
            "drill suite needs at least 2 servers x 2 pods"
        );
        let last = self.servers - 1;
        let s = SimTime::from_secs;
        self.drills = vec![
            DrillSpec {
                at: s(2),
                window_end: s(14),
                kind: DrillKind::PodCrash { server: 0, slot: 0 },
            },
            DrillSpec {
                at: s(15),
                window_end: s(56),
                kind: DrillKind::VipMigration {
                    server: last,
                    slot: 0,
                },
            },
            DrillSpec {
                at: s(56),
                window_end: s(60),
                kind: DrillKind::BfdFlapStorm {
                    server: 0,
                    silence: SimTime::from_millis(400),
                },
            },
            DrillSpec {
                at: s(60),
                window_end: s(62),
                kind: DrillKind::VfFailure {
                    server: last,
                    slot: 1,
                    failover: SimTime::from_secs(1),
                },
            },
            DrillSpec {
                at: s(62),
                window_end: s(75),
                kind: DrillKind::ScaleOut { server: last },
            },
        ];
        self
    }

    /// When steering (and offered traffic) stops.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_nanos(self.duration.saturating_since(self.drain))
    }

    fn validate(&self) {
        assert!(self.servers >= 1 && self.pods_per_server >= 1);
        assert!(self.pps > 0, "aggregate rate must be positive");
        assert!(self.drain < self.duration, "drain margin eats the run");
        let horizon = self.horizon();
        let mut prev_end = SimTime::ZERO;
        for d in &self.drills {
            assert!(d.at < d.window_end, "drill window must be non-empty");
            assert!(
                d.window_end <= horizon,
                "drill window must end before the steering horizon"
            );
            assert!(
                d.at >= prev_end,
                "drill windows must be disjoint and ordered"
            );
            prev_end = d.window_end;
            let (srv, slot) = match d.kind {
                DrillKind::PodCrash { server, slot }
                | DrillKind::VipMigration { server, slot }
                | DrillKind::VfFailure { server, slot, .. } => (server, Some(slot)),
                DrillKind::BfdFlapStorm { server, .. } | DrillKind::ScaleOut { server } => {
                    (server, None)
                }
            };
            assert!(srv < self.servers, "drill targets a missing server");
            if let Some(slot) = slot {
                assert!(slot < self.pods_per_server, "drill targets a missing slot");
            }
        }
    }

    fn spec(&self) -> GwPodSpec {
        GwPodSpec {
            role: self.role,
            data_cores: self.data_cores,
            ctrl_cores: 1,
        }
    }
}

/// Per-window outcome (the baseline window and one per drill).
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// Drill label (`baseline` for the ambient window).
    pub name: String,
    /// VNI carried by the window's traffic.
    pub vni: u32,
    /// Window start.
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Packets the clients offered during the window (steering-level).
    pub offered: u64,
    /// Packets steered at dead/silenced pods (stale upstream routes).
    pub blackholed: u64,
    /// Packets eaten by a failed VF before the NIC.
    pub vf_lost: u64,
    /// `offered − blackholed − vf_lost`: what the data plane must deliver
    /// when it introduces no loss of its own.
    pub expected_delivered: u64,
    /// Packets actually transmitted by the pods (per-VNI meters).
    pub delivered: u64,
    /// `delivered / offered`.
    pub delivery_ratio: f64,
    /// p99 end-to-end latency of the window's delivered packets, ns.
    pub p99_ns: u64,
    /// Time from drill trigger until its steering change became effective
    /// upstream (BFD detection + proxy flush + switch per-route work for
    /// failures; bring-up + advertise for migration/scale-out; failover
    /// time for a VF loss). Zero for the baseline window.
    pub convergence: SimTime,
    /// For the flap storm: routes the switch still holds from the target
    /// server's proxy once the withdraws converged (pinned to zero).
    pub routes_from_target: Option<usize>,
}

/// Everything an AZ run produced.
#[derive(Debug)]
pub struct AzReport {
    /// Every pod's report merged in pod order ([`SimReport::merge_ordered`]).
    pub merged: SimReport,
    /// The ambient (non-drill) window.
    pub baseline: DrillReport,
    /// One report per scripted drill, in script order.
    pub drills: Vec<DrillReport>,
    /// Routed VIP count after every control-plane change.
    pub route_series: TimeSeries,
    /// Pods that carried traffic.
    pub shards: usize,
}

impl AzReport {
    /// Total packets offered across every window.
    pub fn offered(&self) -> u64 {
        self.baseline.offered + self.drills.iter().map(|d| d.offered).sum::<u64>()
    }

    /// Total packets blackholed by stale routes.
    pub fn blackholed(&self) -> u64 {
        self.baseline.blackholed + self.drills.iter().map(|d| d.blackholed).sum::<u64>()
    }

    /// Total packets lost to failed VFs.
    pub fn vf_lost(&self) -> u64 {
        self.baseline.vf_lost + self.drills.iter().map(|d| d.vf_lost).sum::<u64>()
    }

    /// Canonical machine-readable rendering: one `RESULT az` summary line
    /// plus one `RESULT window` line per window, floats as bit patterns.
    /// Byte-identical across reruns and thread counts.
    pub fn render(&self, cfg: &AzConfig) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "RESULT az servers={} pods_per_server={} shards={} pps={} horizon_ns={} \
             offered={} delivered={} blackholed={} vf_lost={} p99_ns={}",
            cfg.servers,
            cfg.pods_per_server,
            self.shards,
            cfg.pps,
            cfg.horizon().as_nanos(),
            self.offered(),
            self.merged.transmitted,
            self.blackholed(),
            self.vf_lost(),
            self.merged.latency.percentile(0.99),
        )
        .expect("string write");
        for w in std::iter::once(&self.baseline).chain(&self.drills) {
            writeln!(
                s,
                "RESULT window name={} vni={} start_ns={} end_ns={} offered={} blackholed={} \
                 vf_lost={} expected={} delivered={} ratio_bits={:016x} p99_ns={} conv_ns={} \
                 routes_target={}",
                w.name,
                w.vni,
                w.start.as_nanos(),
                w.end.as_nanos(),
                w.offered,
                w.blackholed,
                w.vf_lost,
                w.expected_delivered,
                w.delivered,
                w.delivery_ratio.to_bits(),
                w.p99_ns,
                w.convergence.as_nanos(),
                w.routes_from_target.map_or(-1, |r| r as i64),
            )
            .expect("string write");
        }
        s
    }
}

/// The coupled AZ simulation driver.
#[derive(Debug)]
pub struct AzSimulation {
    cfg: AzConfig,
}

/// Control-plane events.
#[derive(Debug)]
enum CpEv {
    /// A pod's 50 ms BFD cadence: transmit (when the link works) + check.
    BfdTick(usize),
    /// A scripted drill fires.
    Drill(usize),
    /// A flap storm's silence window ends.
    StormEnd { drill: usize },
    /// A scheduled pod finished its 10 s bring-up.
    PodReady { pod: usize, drill: usize },
    /// Migration validation elapsed; the old pod may withdraw.
    WithdrawOld { drill: usize },
}

/// One pod's control-plane identity.
#[derive(Debug)]
struct AzPod {
    id: u32,
    server: usize,
    vip: usize,
    nh: Ipv4Addr,
    alive: bool,
    silenced: bool,
    retired: bool,
    vfs: u64,
}

/// Mutable per-drill bookkeeping.
#[derive(Debug, Default)]
struct DrillRt {
    converged_at: Option<SimTime>,
    routes_from_target: Option<usize>,
    migration: Option<Migration>,
    old_pod: Option<usize>,
}

/// Offered/lost accounting for one VNI window.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    offered: u64,
    blackholed: u64,
    vf_lost: u64,
}

/// The shared control plane (phase 1 state).
struct Cp<'a> {
    cfg: &'a AzConfig,
    switch: SwitchControlPlane,
    proxies: Vec<BgpProxy>,
    peers: Vec<u32>,
    orch: Orchestrator,
    pods: Vec<AzPod>,
    bfd: Vec<BfdSession>,
    vips: Vec<NlriPrefix>,
    nh_to_pod: HashMap<Ipv4Addr, usize>,
    /// (effective time, serving pod per VIP) after every RIB change.
    snapshots: Vec<(SimTime, Vec<Option<usize>>)>,
    /// Per pod: intervals where its data path is dark.
    outages: Vec<Vec<(SimTime, SimTime)>>,
    /// Per pod: (start, end, drop modulus) of VF-failure windows.
    vf_windows: Vec<Vec<(SimTime, SimTime, u64)>>,
    drill_rt: Vec<DrillRt>,
    /// Pods whose next BFD Down is attributable to a drill.
    drill_of_pod: HashMap<usize, usize>,
}

impl<'a> Cp<'a> {
    fn new(cfg: &'a AzConfig) -> Self {
        let mut cp = Self {
            cfg,
            switch: SwitchControlPlane::new(),
            proxies: Vec::new(),
            peers: Vec::new(),
            orch: Orchestrator::with_servers(cfg.servers),
            pods: Vec::new(),
            bfd: Vec::new(),
            vips: Vec::new(),
            nh_to_pod: HashMap::new(),
            snapshots: Vec::new(),
            outages: Vec::new(),
            vf_windows: Vec::new(),
            drill_rt: cfg.drills.iter().map(|_| DrillRt::default()).collect(),
            drill_of_pod: HashMap::new(),
        };
        for _ in 0..cfg.servers {
            cp.proxies.push(BgpProxy::new());
            let peer = cp.switch.add_peer(cfg.pods_per_server);
            cp.peers.push(peer as u32);
        }
        // The AZ starts pre-converged: initial pods were brought up before
        // t=0, their VIPs advertised and learned, BFD Up.
        for server in 0..cfg.servers {
            for _slot in 0..cfg.pods_per_server {
                let vip_idx = cp.new_vip();
                let (p, _ready) = cp.new_pod(server, vip_idx, SimTime::ZERO);
                cp.pods[p].alive = true;
                cp.bfd[p].on_packet(SimTime::ZERO);
                let pod = &cp.pods[p];
                cp.proxies[server].pod_advertise(pod.id, cp.vips[vip_idx], pod.nh);
            }
        }
        for server in 0..cfg.servers {
            for msg in cp.proxies[server].take_upstream_updates() {
                cp.switch.apply_update(cp.peers[server], &msg);
            }
        }
        cp.snapshot(SimTime::ZERO);
        cp
    }

    fn new_vip(&mut self) -> usize {
        let idx = self.vips.len();
        assert!(idx < 250, "VIP space exhausted");
        self.vips.push(NlriPrefix::new(
            Ipv4Addr::new(203, 0, 113, idx as u8 + 1),
            32,
        ));
        idx
    }

    /// Schedules a pod on `server` serving `vip_idx`. Returns its index
    /// and ready time; the caller decides when it starts advertising.
    fn new_pod(&mut self, server: usize, vip_idx: usize, now: SimTime) -> (usize, SimTime) {
        let sched = self
            .orch
            .schedule_on(server, &self.cfg.spec(), now)
            .expect("AZ drill placement must fit the server");
        let (id, ready) = (sched.id, sched.ready_at);
        let vfs = self.orch.servers()[server]
            .placements()
            .last()
            .expect("just placed")
            .vfs
            .len() as u64;
        let nh = Ipv4Addr::new(10, 0, (id >> 8) as u8, (id & 0xff) as u8);
        let idx = self.pods.len();
        self.pods.push(AzPod {
            id,
            server,
            vip: vip_idx,
            nh,
            alive: false,
            silenced: false,
            retired: false,
            vfs,
        });
        self.bfd.push(BfdSession::production());
        self.outages.push(Vec::new());
        self.vf_windows.push(Vec::new());
        self.nh_to_pod.insert(nh, idx);
        (idx, ready)
    }

    /// Initial pod index for (server, slot).
    fn slot_pod(&self, server: usize, slot: usize) -> usize {
        server * self.cfg.pods_per_server + slot
    }

    /// Drains a proxy's pending UPDATEs into the switch. Returns when the
    /// new routing became effective (event time + per-route processing).
    fn flush_proxy(&mut self, server: usize, now: SimTime) -> Option<SimTime> {
        let msgs = self.proxies[server].take_upstream_updates();
        if msgs.is_empty() {
            return None;
        }
        let mut delay = 0u64;
        for msg in &msgs {
            delay += self.switch.apply_update(self.peers[server], msg).as_nanos();
        }
        let eff = now + delay;
        self.snapshot(eff);
        Some(eff)
    }

    /// Records who serves each VIP according to the switch RIB.
    fn snapshot(&mut self, at: SimTime) {
        let serving: Vec<Option<usize>> = self
            .vips
            .iter()
            .map(|vip| {
                self.switch
                    .rib()
                    .best(*vip)
                    .map(|r| *self.nh_to_pod.get(&r.next_hop).expect("known next hop"))
            })
            .collect();
        self.snapshots.push((at, serving));
    }

    fn serving_at(&self, t: SimTime) -> &[Option<usize>] {
        self.snapshots
            .iter()
            .rev()
            .find(|(at, _)| *at <= t)
            .map(|(_, s)| s.as_slice())
            .expect("snapshot at t=0 always exists")
    }

    fn advertise(&mut self, p: usize, now: SimTime) -> Option<SimTime> {
        let (server, id, vip, nh) = {
            let pod = &self.pods[p];
            (pod.server, pod.id, self.vips[pod.vip], pod.nh)
        };
        self.proxies[server].pod_advertise(id, vip, nh);
        self.flush_proxy(server, now)
    }

    /// A BFD session transitioned to Down: the proxy flushes the pod, the
    /// switch withdraws, and drill bookkeeping runs.
    fn on_pod_down(&mut self, p: usize, now: SimTime, engine: &mut Engine<CpEv>) {
        let (server, id) = (self.pods[p].server, self.pods[p].id);
        self.proxies[server].pod_down(id);
        let eff = self.flush_proxy(server, now);
        if let Some(d) = self.drill_of_pod.remove(&p) {
            match self.cfg.drills[d].kind {
                DrillKind::PodCrash { server, .. } => {
                    self.drill_rt[d].converged_at = eff;
                    // The orchestrator reacts to the detection: respawn a
                    // replacement for the same VIP on the same server.
                    let vip_idx = self.pods[p].vip;
                    let (new_pod, ready) = self.new_pod(server, vip_idx, now);
                    engine.schedule(
                        ready,
                        CpEv::PodReady {
                            pod: new_pod,
                            drill: d,
                        },
                    );
                }
                DrillKind::BfdFlapStorm { server, .. } => {
                    let rt = &mut self.drill_rt[d];
                    rt.converged_at = match (rt.converged_at, eff) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                    rt.routes_from_target = Some(self.switch.routes_from(self.peers[server]));
                }
                _ => {}
            }
        }
        if !self.pods[p].alive {
            // Crashed (not merely silenced) pods never come back; their
            // replacement is a fresh pod.
            self.pods[p].retired = true;
        }
    }

    fn handle_drill(&mut self, d: usize, now: SimTime, engine: &mut Engine<CpEv>) {
        match self.cfg.drills[d].kind {
            DrillKind::PodCrash { server, slot } => {
                let p = self.slot_pod(server, slot);
                assert!(!self.pods[p].retired, "crash target already gone");
                self.pods[p].alive = false;
                self.outages[p].push((now, self.cfg.duration));
                self.drill_of_pod.insert(p, d);
            }
            DrillKind::VipMigration { server, slot } => {
                let old = self.slot_pod(server, slot);
                let vip_idx = self.pods[old].vip;
                let (new_pod, ready) = self.new_pod(server, vip_idx, now);
                self.drill_rt[d].migration = Some(Migration::new(
                    self.vips[vip_idx],
                    self.pods[old].id,
                    self.pods[new_pod].id,
                ));
                self.drill_rt[d].old_pod = Some(old);
                engine.schedule(
                    ready,
                    CpEv::PodReady {
                        pod: new_pod,
                        drill: d,
                    },
                );
            }
            DrillKind::BfdFlapStorm { server, silence } => {
                for p in 0..self.pods.len() {
                    let pod = &mut self.pods[p];
                    if pod.server == server && pod.alive && !pod.retired {
                        pod.silenced = true;
                        self.outages[p].push((now, now + silence.as_nanos()));
                        self.drill_of_pod.insert(p, d);
                    }
                }
                engine.schedule(now + silence.as_nanos(), CpEv::StormEnd { drill: d });
            }
            DrillKind::VfFailure {
                server,
                slot,
                failover,
            } => {
                let p = self.slot_pod(server, slot);
                let drop_mod = self.pods[p].vfs;
                assert!(drop_mod >= 2, "pod needs at least two VFs to lose one");
                self.vf_windows[p].push((now, now + failover.as_nanos(), drop_mod));
                self.drill_rt[d].converged_at = Some(now + failover.as_nanos());
            }
            DrillKind::ScaleOut { server } => {
                let vip_idx = self.new_vip();
                let (new_pod, ready) = self.new_pod(server, vip_idx, now);
                engine.schedule(
                    ready,
                    CpEv::PodReady {
                        pod: new_pod,
                        drill: d,
                    },
                );
            }
        }
    }

    fn handle_pod_ready(&mut self, pod: usize, d: usize, now: SimTime, engine: &mut Engine<CpEv>) {
        self.pods[pod].alive = true;
        match self.cfg.drills[d].kind {
            DrillKind::VipMigration { server, .. } => {
                let mut m = self.drill_rt[d]
                    .migration
                    .take()
                    .expect("migration planned");
                m.advertise_new(&mut self.proxies[server], self.pods[pod].nh, now)
                    .expect("fresh migration advertises once");
                self.drill_rt[d].migration = Some(m);
                let eff = self.flush_proxy(server, now);
                self.drill_rt[d].converged_at = eff;
                engine.schedule(
                    now + VALIDATION_PERIOD.as_nanos(),
                    CpEv::WithdrawOld { drill: d },
                );
            }
            DrillKind::ScaleOut { .. } => {
                let eff = self.advertise(pod, now);
                self.drill_rt[d].converged_at = eff;
            }
            _ => {
                // Crash respawn: convergence was pinned at the withdraw;
                // the replacement simply re-advertises.
                self.advertise(pod, now);
            }
        }
        engine.schedule(
            now + self.bfd[pod].rx_interval().as_nanos(),
            CpEv::BfdTick(pod),
        );
    }

    fn handle_withdraw_old(&mut self, d: usize, now: SimTime) {
        let DrillKind::VipMigration { server, .. } = self.cfg.drills[d].kind else {
            unreachable!("WithdrawOld only scheduled by migrations");
        };
        let mut m = self.drill_rt[d]
            .migration
            .take()
            .expect("migration running");
        m.withdraw_old(&mut self.proxies[server], now)
            .expect("validation period has elapsed");
        self.drill_rt[d].migration = Some(m);
        // The new pod still serves the VIP, so the proxy must not have
        // queued an upstream withdraw — §7's no-gap guarantee.
        let eff = self.flush_proxy(server, now);
        assert!(eff.is_none(), "migration must not disturb upstream routes");
        let old = self.drill_rt[d].old_pod.expect("recorded at drill time");
        self.pods[old].retired = true;
    }

    fn handle_bfd_tick(&mut self, p: usize, now: SimTime, engine: &mut Engine<CpEv>) {
        if self.pods[p].retired {
            return;
        }
        if self.pods[p].alive && !self.pods[p].silenced {
            let was_down = self.bfd[p].state() == BfdState::Down;
            self.bfd[p].on_packet(now);
            if was_down {
                // Link restored after a storm: the iBGP session re-forms
                // and the pod's VIP is re-advertised upstream.
                self.advertise(p, now);
            }
        }
        if self.bfd[p].check(now) {
            self.on_pod_down(p, now, engine);
        }
        if !self.pods[p].retired {
            engine.schedule(now + self.bfd[p].rx_interval().as_nanos(), CpEv::BfdTick(p));
        }
    }

    fn handle_storm_end(&mut self, d: usize) {
        let DrillKind::BfdFlapStorm { server, .. } = self.cfg.drills[d].kind else {
            unreachable!("StormEnd only scheduled by storms");
        };
        for pod in &mut self.pods {
            if pod.server == server {
                pod.silenced = false;
            }
        }
    }
}

impl AzSimulation {
    /// Creates the simulation. Panics when the config is inconsistent
    /// (overlapping drill windows, out-of-range targets, zero rate).
    pub fn new(cfg: AzConfig) -> Self {
        cfg.validate();
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &AzConfig {
        &self.cfg
    }

    /// Runs both phases and returns the merged report. `fleet_cfg` only
    /// affects wall-clock: any thread count produces identical bytes.
    pub fn run(&self, fleet_cfg: &FleetConfig) -> AzReport {
        let cfg = &self.cfg;
        let horizon = cfg.horizon();

        // ---- Phase 1: the shared control plane, single-threaded. ----
        let mut cp = Cp::new(cfg);
        let mut engine: Engine<CpEv> = Engine::new();
        let mut script = EventScript::new();
        for (i, d) in cfg.drills.iter().enumerate() {
            script.at(d.at, CpEv::Drill(i));
        }
        script.schedule_into(&mut engine);
        for p in 0..cp.pods.len() {
            engine.schedule(SimTime::from_nanos(cp.bfd[p].rx_interval().as_nanos()), {
                CpEv::BfdTick(p)
            });
        }
        while let Some((now, ev)) = engine.pop_until(horizon) {
            match ev {
                CpEv::BfdTick(p) => cp.handle_bfd_tick(p, now, &mut engine),
                CpEv::Drill(d) => cp.handle_drill(d, now, &mut engine),
                CpEv::StormEnd { drill } => cp.handle_storm_end(drill),
                CpEv::PodReady { pod, drill } => cp.handle_pod_ready(pod, drill, now, &mut engine),
                CpEv::WithdrawOld { drill } => cp.handle_withdraw_old(drill, now),
            }
        }

        // ---- Compile the steering timeline into per-pod segments. ----
        let mut bounds: BTreeSet<u64> = BTreeSet::new();
        bounds.insert(0);
        bounds.insert(horizon.as_nanos());
        for (t, _) in &cp.snapshots {
            if *t < horizon {
                bounds.insert(t.as_nanos());
            }
        }
        for (a, b) in cp.outages.iter().flatten() {
            for t in [a, b] {
                if *t < horizon {
                    bounds.insert(t.as_nanos());
                }
            }
        }
        for (a, b, _) in cp.vf_windows.iter().flatten() {
            for t in [a, b] {
                if *t < horizon {
                    bounds.insert(t.as_nanos());
                }
            }
        }
        for d in &cfg.drills {
            bounds.insert(d.at.as_nanos());
            bounds.insert(d.window_end.as_nanos());
        }
        let bounds: Vec<u64> = bounds.into_iter().collect();

        let vni_of = |t: SimTime| -> u32 {
            cfg.drills
                .iter()
                .position(|d| d.at <= t && t < d.window_end)
                .map_or(0, |i| i as u32 + 1)
        };

        let mut per_pod: Vec<Vec<SteerSegment>> = cp.pods.iter().map(|_| Vec::new()).collect();
        let mut ledgers: Vec<Ledger> = vec![Ledger::default(); cfg.drills.len() + 1];
        for pair in bounds.windows(2) {
            let (t0, t1) = (SimTime::from_nanos(pair[0]), SimTime::from_nanos(pair[1]));
            let span = t1.saturating_since(t0);
            if span == 0 {
                continue;
            }
            let vni = vni_of(t0);
            let ledger = &mut ledgers[vni as usize];
            let serving = cp.serving_at(t0);
            let routed: Vec<usize> = serving.iter().filter_map(|s| *s).collect();
            if routed.is_empty() {
                // Total outage: the whole aggregate goes nowhere.
                let gap = 1_000_000_000 / cfg.pps;
                let lost = span.div_ceil(gap.max(1));
                ledger.offered += lost;
                ledger.blackholed += lost;
                continue;
            }
            let gap = routed.len() as u64 * 1_000_000_000 / cfg.pps;
            assert!(gap > 0, "per-VIP share must have a positive gap");
            {
                let mut uniq = routed.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(
                    uniq.len(),
                    routed.len(),
                    "a pod serves at most one VIP at a time"
                );
            }
            for &p in &routed {
                let in_outage = cp.outages[p].iter().any(|(a, b)| *a <= t0 && t0 < *b);
                let drop_mod = cp.vf_windows[p]
                    .iter()
                    .find(|(a, b, _)| *a <= t0 && t0 < *b)
                    .map(|(_, _, m)| *m);
                let seg = SteerSegment {
                    start: t0,
                    end: t1,
                    gap_ns: gap,
                    vni,
                    drop_mod: if in_outage { None } else { drop_mod },
                };
                ledger.offered += seg.packets();
                if in_outage {
                    ledger.blackholed += seg.packets();
                } else {
                    ledger.vf_lost += seg.edge_lost();
                    per_pod[p].push(seg);
                }
            }
        }

        // ---- Phase 2: one fleet scenario per pod with traffic. ----
        // All coupling happened in phase 1, so the pods run independently
        // and merge in pod order: the merged report — and every RESULT
        // line derived from it — is the same at any thread count.
        let mut fleet = ScenarioFleet::new();
        for (p, segs) in per_pod.into_iter().enumerate() {
            if segs.is_empty() {
                continue;
            }
            let seed = cfg.seed.wrapping_add(7919 * (p as u64 + 1));
            let mut sc = SimConfig::new(cfg.data_cores, cfg.role.service());
            sc.table_scale = cfg.table_scale;
            sc.track_tenant_latency = true;
            sc.seed = seed;
            let (flows, len_bytes) = (cfg.flows_per_pod, cfg.len_bytes);
            fleet.push(Scenario::new(format!("pod{p}"), cfg.duration, move || {
                let flowset = FlowSet::generate(flows, None, seed ^ 0x5a5a);
                let src = SteeredSource::new(flowset, len_bytes, segs.clone());
                (sc.clone(), Box::new(src) as Box<dyn TrafficSource>)
            }));
        }
        let pods = fleet.len();
        let reports: Vec<SimReport> = fleet.run(fleet_cfg).into_iter().map(|r| r.report).collect();
        let merged = SimReport::merge_ordered(&reports);

        // ---- Attribute per-window outcomes. ----
        let window_report = |name: &str,
                             vni: u32,
                             start: SimTime,
                             end: SimTime,
                             ledger: &Ledger,
                             convergence: SimTime,
                             routes_from_target: Option<usize>|
         -> DrillReport {
            let delivered = merged.tenant_delivered.get(&vni).map_or(0, |m| m.total());
            let p99_ns = merged
                .tenant_latency
                .get(&vni)
                .map_or(0, |h| h.percentile(0.99));
            DrillReport {
                name: name.to_string(),
                vni,
                start,
                end,
                offered: ledger.offered,
                blackholed: ledger.blackholed,
                vf_lost: ledger.vf_lost,
                expected_delivered: ledger.offered - ledger.blackholed - ledger.vf_lost,
                delivered,
                delivery_ratio: if ledger.offered == 0 {
                    1.0
                } else {
                    delivered as f64 / ledger.offered as f64
                },
                p99_ns,
                convergence,
                routes_from_target,
            }
        };

        let baseline = window_report(
            "baseline",
            0,
            SimTime::ZERO,
            horizon,
            &ledgers[0],
            SimTime::ZERO,
            None,
        );
        let drills: Vec<DrillReport> = cfg
            .drills
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let rt = &cp.drill_rt[i];
                let convergence = rt.converged_at.map_or(SimTime::ZERO, |at| {
                    SimTime::from_nanos(at.saturating_since(d.at))
                });
                window_report(
                    d.kind.name(),
                    i as u32 + 1,
                    d.at,
                    d.window_end,
                    &ledgers[i + 1],
                    convergence,
                    rt.routes_from_target,
                )
            })
            .collect();

        let mut route_series = TimeSeries::new();
        for (t, serving) in &cp.snapshots {
            let routed = serving.iter().filter(|s| s.is_some()).count();
            route_series.push(t.as_nanos(), routed as f64);
        }

        AzReport {
            merged,
            baseline,
            drills,
            route_series,
            shards: pods,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_crash_cfg() -> AzConfig {
        let mut cfg = AzConfig::new(2, 2);
        cfg.pps = 800;
        cfg.duration = SimTime::from_secs(16);
        cfg.drills = vec![DrillSpec {
            at: SimTime::from_secs(1),
            window_end: SimTime::from_secs(13),
            kind: DrillKind::PodCrash { server: 0, slot: 0 },
        }];
        cfg
    }

    #[test]
    fn crash_blackholes_until_withdraw_then_respawn_restores_routes() {
        let sim = AzSimulation::new(mini_crash_cfg());
        let report = sim.run(&FleetConfig::serial());
        let drill = &report.drills[0];
        assert_eq!(drill.name, "pod-crash");
        assert!(drill.blackholed > 0, "stale-route window must lose packets");
        // Detection: last BFD packet lands at 0.95 s (the 1.0 s tick finds
        // the pod dead), Down declared at the 1.15 s tick, one /32
        // withdrawn at 20 us per route.
        assert_eq!(drill.convergence, SimTime::from_nanos(150_000_000 + 20_000));
        // Conservation: everything not blackholed is delivered.
        assert_eq!(drill.delivered, drill.expected_delivered);
        assert_eq!(
            report.baseline.delivered,
            report.baseline.expected_delivered
        );
        assert!(drill.delivery_ratio < 1.0 && drill.delivery_ratio > 0.9);
        // The respawned pod re-advertised: all 4 VIPs routed at the end.
        let (_, last_routes) = *report.route_series.points().last().expect("snapshots");
        assert_eq!(last_routes, 4.0);
        // Crashed pod is replaced, so one extra pod ran.
        assert_eq!(report.shards, 5);
    }

    #[test]
    fn thread_count_never_changes_a_byte() {
        let sim = AzSimulation::new(mini_crash_cfg());
        let serial = sim.run(&FleetConfig::serial()).render(sim.config());
        for threads in [2, 4] {
            let wide = sim.run(&FleetConfig { threads }).render(sim.config());
            assert_eq!(serial, wide, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_drill_windows_rejected() {
        let mut cfg = AzConfig::new(2, 2);
        cfg.drills = vec![
            DrillSpec {
                at: SimTime::from_secs(1),
                window_end: SimTime::from_secs(20),
                kind: DrillKind::PodCrash { server: 0, slot: 0 },
            },
            DrillSpec {
                at: SimTime::from_secs(15),
                window_end: SimTime::from_secs(30),
                kind: DrillKind::ScaleOut { server: 1 },
            },
        ];
        AzSimulation::new(cfg);
    }
}
