//! Correctness checks behind `check_pass_ratio`.
//!
//! None of them pins report bytes: they are conservation laws and the
//! paper's qualitative shapes, so a change that re-pins results on purpose
//! still passes while a broken simulator does not.

use std::fmt::Display;

use albatross_container::simrun::SimReport;

use crate::workloads::{Scenario, Workload, TENANT_MPPS, TENANT_VNIS};

/// Tenant-1 clamp band on `limiter_overload`, in Mpps.
const CLAMP_MPPS: std::ops::RangeInclusive<f64> = 9.0..=12.0;
/// Share of their offered rate the other tenants must still get.
const INNOCENT_SHARE: f64 = 0.95;
/// Floor for the offload hit ratio on `tiers_zipf`.
const MIN_OFFLOAD_HIT: f64 = 0.3;
/// Time after tenant 1's step before its rate is judged.
const SETTLE_NS: u64 = 3_000_000;

/// Running tally of checks; failures are reported on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub run: u64,
    /// Checks failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Display) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {name}: {detail}");
        }
    }

    /// Checks passed ÷ checks run (1 when nothing ran).
    pub fn pass_ratio(&self) -> f64 {
        if self.run == 0 {
            1.0
        } else {
            (self.run - self.failed) as f64 / self.run as f64
        }
    }
}

/// Exact packet conservation once the pod has drained: every offered packet
/// was dropped at exactly one stage or transmitted.
pub fn conservation(c: &mut Checks, r: &SimReport) {
    let accounted = r.dropped_ratelimit
        + r.dropped_ingress_full
        + r.dropped_rx_queue
        + r.dropped_acl
        + r.transmitted;
    c.check(
        "conservation",
        r.offered == accounted,
        format_args!("offered {} != drops + transmitted {accounted}", r.offered),
    );
}

/// The paper shape each workload was chosen to show.
pub fn paper_shape(c: &mut Checks, s: &Scenario, r: &SimReport) {
    match s.workload {
        Workload::Tab3Plb => {
            let drops =
                r.dropped_ratelimit + r.dropped_ingress_full + r.dropped_rx_queue + r.dropped_acl;
            c.check(
                "tab3_zero_drops_in_order",
                r.offered > 0 && drops == 0 && r.in_order == r.offered,
                format_args!(
                    "offered {} drops {drops} in order {}",
                    r.offered, r.in_order
                ),
            );
        }
        Workload::LimiterOverload => {
            let from = s.step_at().as_nanos() + SETTLE_NS;
            let until = s.traffic_end().as_nanos();
            let rates: Vec<f64> = TENANT_VNIS
                .iter()
                .map(|vni| {
                    r.tenant_delivered
                        .get(vni)
                        .map_or(0.0, |m| mean_rate(&m.series(), m.window_ns(), from, until))
                        / 1e6
                })
                .collect();
            let innocents_ok = (1..4).all(|i| rates[i] >= TENANT_MPPS[i] as f64 * INNOCENT_SHARE);
            c.check(
                "limiter_clamps_tenant1_spares_others",
                CLAMP_MPPS.contains(&rates[0]) && innocents_ok,
                format_args!("delivered Mpps after the step {rates:.3?}"),
            );
        }
        Workload::CpsChurn => {
            let cfg = s.config();
            let fs = cfg
                .flow_state
                .expect("cps_churn runs the flow-state engine");
            let budget = fs.install_budget.expect("cps_churn has an install budget");
            let secs = s.horizon().as_nanos() as f64 / 1e9;
            let max_installs = budget.installs_per_sec * secs + budget.burst;
            let classified = r.flow_hits + r.flow_installs + r.flow_deferred;
            c.check(
                "cps_verdicts_cover_every_packet",
                classified == r.processed,
                format_args!(
                    "hits+installs+deferred {classified} != processed {}",
                    r.processed
                ),
            );
            c.check(
                "cps_installs_within_budget",
                r.flow_installs > 0
                    && r.flow_installs as f64 <= max_installs
                    && r.flow_deferred > 0,
                format_args!(
                    "installs {} (budget allows {max_installs:.0}), deferred {}",
                    r.flow_installs, r.flow_deferred
                ),
            );
        }
        Workload::TiersZipf => {
            let served = r.tier_fpga_pkts + r.tier_dpu_pkts + r.tier_cpu_pkts;
            c.check(
                "tiers_serve_every_packet",
                served == r.processed,
                format_args!("fpga+dpu+cpu {served} != processed {}", r.processed),
            );
            let hit = r.tier_offload_hit_rate();
            c.check(
                "tiers_offload_hit",
                hit >= MIN_OFFLOAD_HIT,
                format_args!("offload hit ratio {hit:.3} < {MIN_OFFLOAD_HIT}"),
            );
        }
    }
}

/// Mean delivered rate over the meter windows lying wholly in
/// `[from, until)`.
fn mean_rate(series: &[(u64, f64)], window_ns: u64, from: u64, until: u64) -> f64 {
    let rates: Vec<f64> = series
        .iter()
        .filter(|(t, _)| *t >= from && *t + window_ns <= until)
        .map(|&(_, r)| r)
        .collect();
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}
