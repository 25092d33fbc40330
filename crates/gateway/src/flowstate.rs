//! Hardware flow-state tracking with insertion as a first-class resource.
//!
//! XenoFlow's core finding (BlueField-3 DNS load balancing), transplanted
//! onto Albatross: under short flows the gateway's ceiling is not packets
//! per second but *flow insertions* per second — the hardware flow table
//! installs entries at a bounded rate, and a single-packet flow pays the
//! install on its only packet. This module models that resource exactly:
//!
//! * the resident-flow map is an [`albatross_mem::flowtab::FlowTable`]
//!   (capacity-bounded, deterministically hashed);
//! * insertion rate is a token bucket (the PR 9
//!   [`InstallBudget`] machinery):
//!   first-sight flows that win a token install and fast-path; flows that
//!   don't — budget drained by churn, or table full — stay on the CPU
//!   slow path for this packet;
//! * idle entries age out through an
//!   [`albatross_mem::flowtab::ExpiryWheel`] on the sampling tick,
//!   amortized `O(expired)`, with same-tick reuse of the reclaimed slots
//!   (expire-then-install, as everywhere else in the repo).
//!
//! The CPS ceiling this produces is `min(install_rate, capacity /
//! flow_lifetime)` — the two regimes the `cps_frontier` bench maps. The
//! budget also doubles as the churn-flood limiter: a SYN/DNS flood consumes
//! install tokens, not table slots, so resident (established) flows keep
//! their fast path — the table-churn-as-attack-vector exhibit.
//!
//! The pod simulation calls [`FlowStateEngine::on_packet`] once per packet,
//! in event order, when the packet's data core starts it, and
//! [`FlowStateEngine::expire`] on the sampling tick.

use albatross_fpga::tier::InstallBudget;
use albatross_mem::flowtab::{ExpiryWheel, FlowTable, InsertOutcome, WheelDecision};
use albatross_packet::FiveTuple;
use albatross_sim::{SimTime, TokenBucket};

/// How the flow table disposed of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowVerdict {
    /// The flow is resident in hardware: fast path.
    Resident,
    /// First sight; an entry was installed (consumed an install token).
    Installed,
    /// First sight but not installed — install budget exhausted or table
    /// full. The packet takes the CPU slow path; the flow may install on a
    /// later packet.
    SlowPath,
}

/// Configuration of the hardware flow-state resource model.
#[derive(Debug, Clone)]
pub struct FlowStateConfig {
    /// Hardware flow-table slots.
    pub capacity: usize,
    /// Inactivity timeout before an entry is reclaimed.
    pub idle_timeout: SimTime,
    /// Hardware insertion-rate budget; `None` = unmetered.
    pub install_budget: Option<InstallBudget>,
    /// Extra per-packet cost when the packet triggered an install.
    pub install_ns: u64,
    /// Extra per-packet cost on the CPU slow path (miss, not installed).
    pub slowpath_ns: u64,
}

impl FlowStateConfig {
    /// Production-plausible sizing: the 256K-entry BRAM table of the
    /// offload engine, a 150K/s insert budget (the measured BlueField-3
    /// class rate XenoFlow centers on), 1 s idle timeout. Ceiling:
    /// `min(150K, 256K / 1s) = 150K` CPS — budget-bound.
    pub fn production() -> Self {
        Self {
            capacity: 256 * 1024,
            idle_timeout: SimTime::from_secs(1),
            install_budget: Some(InstallBudget {
                installs_per_sec: 150_000.0,
                burst: 32.0,
            }),
            install_ns: 600,
            slowpath_ns: 1_800,
        }
    }
}

/// The per-pod hardware flow table plus its insertion budget and expiry
/// wheel. See the [module docs](self).
#[derive(Debug)]
pub struct FlowStateEngine {
    table: FlowTable<FiveTuple, SimTime>,
    wheel: ExpiryWheel,
    budget: Option<TokenBucket>,
    idle_timeout: SimTime,
    install_ns: u64,
    slowpath_ns: u64,
    hits: u64,
    installs: u64,
    deferred: u64,
    expired: u64,
}

impl FlowStateEngine {
    /// Builds an engine from `cfg`.
    pub fn new(cfg: &FlowStateConfig) -> Self {
        Self {
            table: FlowTable::with_capacity(cfg.capacity),
            wheel: ExpiryWheel::for_timeout(cfg.idle_timeout),
            budget: cfg
                .install_budget
                .map(|b| TokenBucket::new(b.installs_per_sec, b.burst)),
            idle_timeout: cfg.idle_timeout,
            install_ns: cfg.install_ns,
            slowpath_ns: cfg.slowpath_ns,
            hits: 0,
            installs: 0,
            deferred: 0,
            expired: 0,
        }
    }

    fn miss(&mut self, tuple: &FiveTuple, now: SimTime) -> FlowVerdict {
        // Budget first: a full window/table must still charge the flood to
        // the limiter, and a won token on a full table is the same loss a
        // real NIC pays when its insert queue beats the reclaim sweep.
        if let Some(b) = &mut self.budget {
            if !b.allow_packet(now) {
                self.deferred += 1;
                return FlowVerdict::SlowPath;
            }
        }
        match self.table.insert(*tuple, now) {
            InsertOutcome::Created(slot) => {
                self.wheel
                    .schedule(slot, now.saturating_add_ns(self.idle_timeout.as_nanos()));
                self.installs += 1;
                FlowVerdict::Installed
            }
            InsertOutcome::Updated(_) => unreachable!("miss path sees first-sight flows only"),
            InsertOutcome::Full => {
                self.deferred += 1;
                FlowVerdict::SlowPath
            }
        }
    }

    /// Scalar per-packet classification: refresh a resident flow, or try
    /// to install a first-sight one.
    pub fn on_packet(&mut self, tuple: &FiveTuple, now: SimTime) -> FlowVerdict {
        if let Some(last) = self.table.get_mut(tuple) {
            *last = now;
            self.hits += 1;
            return FlowVerdict::Resident;
        }
        self.miss(tuple, now)
    }

    /// Ages out idle entries (amortized `O(expired)` via the wheel);
    /// reclaimed slots are installable in the same tick. Returns how many
    /// entries were reclaimed.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let Self {
            table,
            wheel,
            idle_timeout,
            ..
        } = self;
        let timeout = idle_timeout.as_nanos();
        let mut freed = 0usize;
        wheel.advance(now, |slot| match table.at(slot) {
            None => WheelDecision::Expire,
            Some((_, last)) => {
                if now.saturating_since(*last) > timeout {
                    table.remove_slot(slot);
                    freed += 1;
                    WheelDecision::Expire
                } else {
                    WheelDecision::KeepUntil(last.saturating_add_ns(timeout))
                }
            }
        });
        self.expired += freed as u64;
        freed
    }

    /// Extra per-packet nanoseconds a verdict costs the data core.
    pub fn verdict_ns(&self, verdict: FlowVerdict) -> u64 {
        match verdict {
            FlowVerdict::Resident => 0,
            FlowVerdict::Installed => self.install_ns,
            FlowVerdict::SlowPath => self.slowpath_ns,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no flows are resident.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Packets that fast-pathed on a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries installed.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// First-sight packets that could not install (budget or capacity).
    pub fn deferred(&self) -> u64 {
        self.deferred
    }

    /// Entries reclaimed by the expiry wheel.
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albatross_packet::flow::IpProtocol;

    fn flow(i: u32) -> FiveTuple {
        FiveTuple {
            src_ip: std::net::Ipv4Addr::from(0x0a00_0000 | (i >> 12)),
            dst_ip: "172.16.0.53".parse().unwrap(),
            src_port: (i & 0xffff) as u16,
            dst_port: 53,
            protocol: IpProtocol::Udp,
        }
    }

    fn unmetered(capacity: usize) -> FlowStateConfig {
        FlowStateConfig {
            capacity,
            idle_timeout: SimTime::from_millis(10),
            install_budget: None,
            install_ns: 600,
            slowpath_ns: 1_800,
        }
    }

    #[test]
    fn first_packet_installs_second_fast_paths() {
        let mut e = FlowStateEngine::new(&unmetered(64));
        assert_eq!(e.on_packet(&flow(1), SimTime::ZERO), FlowVerdict::Installed);
        assert_eq!(
            e.on_packet(&flow(1), SimTime::from_micros(5)),
            FlowVerdict::Resident
        );
        assert_eq!((e.installs(), e.hits(), e.deferred()), (1, 1, 0));
    }

    #[test]
    fn install_budget_defers_to_slow_path() {
        let mut cfg = unmetered(1024);
        cfg.install_budget = Some(InstallBudget {
            installs_per_sec: 1_000.0,
            burst: 2.0,
        });
        let mut e = FlowStateEngine::new(&cfg);
        // Two tokens, then dry at t=0.
        assert_eq!(e.on_packet(&flow(1), SimTime::ZERO), FlowVerdict::Installed);
        assert_eq!(e.on_packet(&flow(2), SimTime::ZERO), FlowVerdict::Installed);
        assert_eq!(e.on_packet(&flow(3), SimTime::ZERO), FlowVerdict::SlowPath);
        // Resident flows are untouched by the flood — the limiter protects
        // the table, not the other way round.
        assert_eq!(e.on_packet(&flow(1), SimTime::ZERO), FlowVerdict::Resident);
        assert_eq!(e.deferred(), 1);
        // Tokens refill with time; the deferred flow installs on retry.
        assert_eq!(
            e.on_packet(&flow(3), SimTime::from_millis(2)),
            FlowVerdict::Installed
        );
    }

    #[test]
    fn expiry_reclaims_capacity_same_tick() {
        let mut e = FlowStateEngine::new(&unmetered(2));
        assert_eq!(e.on_packet(&flow(1), SimTime::ZERO), FlowVerdict::Installed);
        assert_eq!(e.on_packet(&flow(2), SimTime::ZERO), FlowVerdict::Installed);
        assert_eq!(e.on_packet(&flow(3), SimTime::ZERO), FlowVerdict::SlowPath);
        let t = SimTime::from_millis(50);
        assert_eq!(e.expire(t), 2);
        assert_eq!(e.on_packet(&flow(3), t), FlowVerdict::Installed);
        assert_eq!(e.len(), 1);
    }
}
