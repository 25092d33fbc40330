//! The four gateway services of Tab. 2 as lookup-chain cost models.
//!
//! "Even for a single workload gateway, multiple cascading table entries are
//! typically involved" (§4.2). Each service is a fixed chain of table
//! lookups over the [`albatross_mem`] working set plus a base compute cost;
//! per-packet latency *emerges* from the cache model: the same flow touches
//! the same entries (temporal locality), a 500K-flow mix against several GB
//! of tables yields the paper's 30–45% L3 hit rate, and VPC-Internet's
//! longer chain makes it the slowest service (Tab. 3's 81.6 Mpps vs
//! 120+ Mpps).
//!
//! The optional ACL-deny knob drops a configurable slice of flows mid-chain
//! — the packet-loss source for the Fig. 12 drop-flag experiment. The
//! optional extra-jitter model adds the §4.1 "corner case code branch"
//! excursions that stress the reorder timeout.

use albatross_mem::tables::CloudGatewayTables;
use albatross_mem::{MemorySystem, TableId};
use albatross_sim::{LatencyModel, SimRng};

/// The four production gateway services (Tab. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// VM ↔ VM in the same VPC.
    VpcVpc,
    /// VM → Internet (SNAT; the longest chain).
    VpcInternet,
    /// VM → customer IDC over hybrid cloud.
    VpcIdc,
    /// VM → vendor cloud services (log stores, databases, …).
    VpcCloudService,
}

impl ServiceKind {
    /// All four services, in Tab. 2 order.
    pub const ALL: [ServiceKind; 4] = [
        ServiceKind::VpcVpc,
        ServiceKind::VpcInternet,
        ServiceKind::VpcIdc,
        ServiceKind::VpcCloudService,
    ];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ServiceKind::VpcVpc => "VPC-VPC",
            ServiceKind::VpcInternet => "VPC-Internet",
            ServiceKind::VpcIdc => "VPC-IDC",
            ServiceKind::VpcCloudService => "VPC-CloudService",
        }
    }
}

/// What the service decided about a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketAction {
    /// Forward to the egress path.
    Forward,
    /// Drop (ACL denial); under PLB the pod sets the meta drop flag.
    Drop,
}

/// Result of processing one packet.
#[derive(Debug, Clone, Copy)]
pub struct ProcessOutcome {
    /// CPU time charged, in nanoseconds.
    pub latency_ns: u64,
    /// Forward or drop.
    pub action: PacketAction,
}

/// Longest lookup chain of any service: VPC-Internet's 7 steps.
const MAX_CHAIN: usize = 7;

#[derive(Debug, Clone, Copy)]
struct LookupStep {
    table: TableId,
    /// Distinguishes multiple lookups into the same table.
    salt: u64,
}

/// One service's processing pipeline.
#[derive(Debug, Clone)]
pub struct ServicePipeline {
    kind: ServiceKind,
    steps: Vec<LookupStep>,
    base_ns: u64,
    /// Entry size per step's table, cached to avoid re-deriving.
    entry_bytes: Vec<u32>,
    /// Drop flows whose hash is ≡ 0 (mod m) — ACL denial injection.
    acl_drop_modulus: Option<u64>,
    /// Optional software-stack jitter beyond the memory model.
    extra_jitter: Option<LatencyModel>,
}

impl ServicePipeline {
    /// Builds the production chain for `kind` over the given tables.
    pub fn new(kind: ServiceKind, tables: &CloudGatewayTables) -> Self {
        let step = |table: TableId, salt: u64| LookupStep { table, salt };
        // Chain lengths calibrated so that, at the paper's ~35% L3 hit
        // rate, per-packet cost reproduces the Tab. 3 rates on 88 cores.
        let (steps, base_ns) = match kind {
            ServiceKind::VpcVpc => (
                vec![
                    step(tables.tenant_cfg, 0),
                    step(tables.vm_nc, 1),
                    step(tables.vxlan_lpm, 2),
                    step(tables.acl, 3),
                ],
                251,
            ),
            ServiceKind::VpcInternet => (
                vec![
                    step(tables.tenant_cfg, 0),
                    step(tables.acl, 1),
                    step(tables.inet_route, 2),
                    step(tables.session, 3),
                    step(tables.vm_nc, 4),
                    step(tables.vxlan_lpm, 5),
                    step(tables.inet_route, 6),
                ],
                220,
            ),
            ServiceKind::VpcIdc => (
                vec![
                    step(tables.tenant_cfg, 0),
                    step(tables.acl, 1),
                    step(tables.vxlan_lpm, 2),
                    step(tables.vm_nc, 3),
                    step(tables.vxlan_lpm, 4),
                ],
                215,
            ),
            ServiceKind::VpcCloudService => (
                vec![
                    step(tables.tenant_cfg, 0),
                    step(tables.vm_nc, 1),
                    step(tables.vxlan_lpm, 2),
                    step(tables.acl, 3),
                ],
                265,
            ),
        };
        assert!(
            steps.len() <= MAX_CHAIN,
            "{} has {} lookup steps, more than MAX_CHAIN = {MAX_CHAIN}",
            kind.name(),
            steps.len()
        );
        let entry_bytes = steps
            .iter()
            .map(|s| tables.ws.entry_bytes(s.table))
            .collect();
        Self {
            kind,
            steps,
            base_ns,
            entry_bytes,
            acl_drop_modulus: None,
            extra_jitter: None,
        }
    }

    /// Service kind.
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }

    /// Number of table lookups in the chain.
    pub fn chain_len(&self) -> usize {
        self.steps.len()
    }

    /// Enables ACL denial for flows with `flow_hash % m == 0`.
    pub fn with_acl_drop_modulus(mut self, m: u64) -> Self {
        assert!(m > 0, "modulus must be positive");
        self.acl_drop_modulus = Some(m);
        self
    }

    /// Adds software-stack jitter on top of memory costs.
    pub fn with_extra_jitter(mut self, model: LatencyModel) -> Self {
        self.extra_jitter = Some(model);
        self
    }

    /// Processes one packet of the flow identified by `flow_hash` on
    /// `core`, charging every lookup through the memory system as one
    /// [`MemorySystem::read_chain`] call. The working-set accessor `ws`
    /// maps `(table, index)` to addresses.
    pub fn process(
        &self,
        core: usize,
        flow_hash: u64,
        tables: &CloudGatewayTables,
        mem: &mut MemorySystem,
        rng: &mut SimRng,
    ) -> ProcessOutcome {
        self.process_offloaded(core, flow_hash, false, tables, mem, rng)
    }

    /// [`process`](Self::process) for the tiered co-offload path: when
    /// `session_in_hw` is set the flow's session state lives in the
    /// FPGA/DPU tier, so session-table steps are skipped entirely — no
    /// memory charge, no cache touch. The per-tier CPU saving is emergent:
    /// chains without a session step (e.g. VPC→VPC) cost the same either
    /// way, VPC→Internet drops its session lookup.
    pub fn process_offloaded(
        &self,
        core: usize,
        flow_hash: u64,
        session_in_hw: bool,
        tables: &CloudGatewayTables,
        mem: &mut MemorySystem,
        rng: &mut SimRng,
    ) -> ProcessOutcome {
        let mut chain = [(0, 0); MAX_CHAIN];
        let mut len = 0;
        let mut action = PacketAction::Forward;
        for (i, step) in self.steps.iter().enumerate() {
            if session_in_hw && step.table == tables.session {
                continue;
            }
            // Per-flow, per-step deterministic entry index: the same flow
            // re-reads the same entries (that is what the cache can exploit).
            let idx = mix(flow_hash, step.salt);
            chain[len] = (tables.ws.entry_addr(step.table, idx), self.entry_bytes[i]);
            len += 1;
            if let Some(m) = self.acl_drop_modulus {
                // The ACL is evaluated where it sits in the chain; denial
                // aborts the remaining lookups. The decision depends only on
                // the flow hash, so the chain is cut before anything is
                // charged.
                if step.table == tables.acl && flow_hash.is_multiple_of(m) {
                    action = PacketAction::Drop;
                    break;
                }
            }
        }
        let mut latency = self.base_ns + mem.read_chain(core, &chain[..len]);
        if let Some(model) = &self.extra_jitter {
            latency += model.sample(rng);
        }
        ProcessOutcome {
            latency_ns: latency,
            action,
        }
    }
}

/// splitmix-style 64-bit mix of flow hash and step salt.
fn mix(h: u64, salt: u64) -> u64 {
    let mut z = h ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_mem::{DramModel, SharedCache};

    fn mem_small() -> MemorySystem {
        MemorySystem::new(SharedCache::new(1024 * 1024, 8), DramModel::new(4800))
    }

    fn tables_small() -> CloudGatewayTables {
        CloudGatewayTables::scaled(0.001)
    }

    #[test]
    fn vpc_internet_has_the_longest_chain() {
        let t = tables_small();
        let lens: Vec<usize> = ServiceKind::ALL
            .iter()
            .map(|&k| ServicePipeline::new(k, &t).chain_len())
            .collect();
        let inet = ServicePipeline::new(ServiceKind::VpcInternet, &t).chain_len();
        assert!(lens.iter().all(|&l| l <= inet));
        assert!(inet > ServicePipeline::new(ServiceKind::VpcVpc, &t).chain_len());
    }

    #[test]
    fn repeat_packets_of_a_flow_get_cheaper() {
        // Second packet of the same flow hits cache on all lookups.
        let t = tables_small();
        let p = ServicePipeline::new(ServiceKind::VpcVpc, &t);
        let mut mem = mem_small();
        let mut rng = SimRng::seed_from(1);
        let first = p.process(0, 42, &t, &mut mem, &mut rng);
        let second = p.process(0, 42, &t, &mut mem, &mut rng);
        assert!(second.latency_ns < first.latency_ns);
        assert_eq!(first.action, PacketAction::Forward);
    }

    #[test]
    fn hardware_resident_session_skips_the_session_lookup() {
        let t = tables_small();
        let p = ServicePipeline::new(ServiceKind::VpcInternet, &t);
        let mut rng = SimRng::seed_from(3);
        // Fresh memory each side: the offloaded chain issues one fewer
        // cold lookup, so it is strictly cheaper.
        let mut mem_cpu = mem_small();
        let cpu = p.process_offloaded(0, 42, false, &t, &mut mem_cpu, &mut rng);
        let mut mem_hw = mem_small();
        let hw = p.process_offloaded(0, 42, true, &t, &mut mem_hw, &mut rng);
        assert!(
            hw.latency_ns < cpu.latency_ns,
            "session step must be skipped"
        );
        // And the flag-off path is exactly `process`.
        let mut mem_a = mem_small();
        let mut mem_b = mem_small();
        let mut rng_a = SimRng::seed_from(4);
        let mut rng_b = SimRng::seed_from(4);
        let a = p.process(1, 7, &t, &mut mem_a, &mut rng_a);
        let b = p.process_offloaded(1, 7, false, &t, &mut mem_b, &mut rng_b);
        assert_eq!(a.latency_ns, b.latency_ns);
        // A chain without a session step is unaffected by the flag.
        let vpc = ServicePipeline::new(ServiceKind::VpcVpc, &t);
        let mut mem_c = mem_small();
        let mut mem_d = mem_small();
        let c = vpc.process_offloaded(0, 9, false, &t, &mut mem_c, &mut rng);
        let d = vpc.process_offloaded(0, 9, true, &t, &mut mem_d, &mut rng);
        assert_eq!(c.latency_ns, d.latency_ns);
    }

    #[test]
    fn vpc_internet_costs_more_than_vpc_vpc() {
        let t = tables_small();
        let vpc = ServicePipeline::new(ServiceKind::VpcVpc, &t);
        let inet = ServicePipeline::new(ServiceKind::VpcInternet, &t);
        let mut mem = mem_small();
        let mut rng = SimRng::seed_from(2);
        // Cold-cache comparison over many flows.
        let mut vpc_total = 0;
        let mut inet_total = 0;
        for f in 0..500u64 {
            vpc_total += vpc.process(0, f, &t, &mut mem, &mut rng).latency_ns;
            inet_total += inet
                .process(0, f + 1_000_000, &t, &mut mem, &mut rng)
                .latency_ns;
        }
        assert!(
            inet_total as f64 > vpc_total as f64 * 1.3,
            "inet {inet_total} vs vpc {vpc_total}"
        );
    }

    #[test]
    fn acl_modulus_drops_designated_flows() {
        let t = tables_small();
        let p = ServicePipeline::new(ServiceKind::VpcVpc, &t).with_acl_drop_modulus(4);
        let mut mem = mem_small();
        let mut rng = SimRng::seed_from(3);
        assert_eq!(
            p.process(0, 8, &t, &mut mem, &mut rng).action,
            PacketAction::Drop
        );
        assert_eq!(
            p.process(0, 9, &t, &mut mem, &mut rng).action,
            PacketAction::Forward
        );
    }

    #[test]
    fn drop_aborts_remaining_lookups() {
        // A dropped flow's latency must be below a forwarded flow's
        // cold-cache latency since the chain is cut at the ACL.
        let t = tables_small();
        let p = ServicePipeline::new(ServiceKind::VpcInternet, &t).with_acl_drop_modulus(1);
        let full = ServicePipeline::new(ServiceKind::VpcInternet, &t);
        let mut mem_a = mem_small();
        let mut mem_b = mem_small();
        let mut rng = SimRng::seed_from(4);
        let dropped = p.process(0, 77, &t, &mut mem_a, &mut rng);
        let forwarded = full.process(0, 77, &t, &mut mem_b, &mut rng);
        assert_eq!(dropped.action, PacketAction::Drop);
        assert!(dropped.latency_ns < forwarded.latency_ns);
    }

    #[test]
    fn extra_jitter_inflates_latency() {
        let t = tables_small();
        let base = ServicePipeline::new(ServiceKind::VpcVpc, &t);
        let jittered = ServicePipeline::new(ServiceKind::VpcVpc, &t)
            .with_extra_jitter(LatencyModel::Fixed(5_000));
        let mut mem_a = mem_small();
        let mut mem_b = mem_small();
        let mut rng = SimRng::seed_from(5);
        let a = base.process(0, 1, &t, &mut mem_a, &mut rng).latency_ns;
        let b = jittered.process(0, 1, &t, &mut mem_b, &mut rng).latency_ns;
        assert_eq!(b, a + 5_000);
    }

    #[test]
    fn service_names_match_paper() {
        assert_eq!(ServiceKind::VpcInternet.name(), "VPC-Internet");
        assert_eq!(ServiceKind::ALL.len(), 4);
    }
}
