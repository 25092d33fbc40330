//! The two-stage tenant overload rate limiter (§4.3, Fig. 6).
//!
//! A naive per-tenant meter table for 1 M tenants would need >200 MB of
//! SRAM; this scheme fits in ~2 MB:
//!
//! * **pre_check / pre_meter** (128 entries each): promoted heavy hitters
//!   are rate-limited *early*, before they can pollute the shared stages;
//!   top-tier customers can instead be configured to *bypass* all limiting.
//! * **Stage 1 — color table** (4K entries, indexed `VNI % 4096`): coarse
//!   shared metering. Conforming traffic passes; the excess is *marked* and
//!   sent to stage 2. Because entries are shared, an innocent tenant that
//!   lands on a dominant tenant's color entry sees its packets marked too.
//! * **Stage 2 — meter table** (4K entries, indexed by a hash of the VNI):
//!   fine metering of marked traffic. Exceeding packets are dropped and
//!   *sampled*; a tenant accumulating enough samples within the detection
//!   window is promoted into pre_check/pre_meter (the collision rescue: once
//!   the dominant tenant is early-limited, innocents stop overflowing
//!   stage 1 and never reach the colliding stage-2 entry).

use std::collections::HashMap;

use albatross_sim::lifecycle::{LifecycleConfig, Promotion, SlotLifecycle};
use albatross_sim::{SimRng, SimTime, TokenBucket};

/// Which stage admitted or dropped a packet.
///
/// The discriminants are the counter-bank layout: passing verdicts occupy
/// 0..=3 and dropping verdicts 4..=5, so [`Verdict::index`] and
/// [`Verdict::passed`] are plain integer operations (no branch, no jump
/// table) — the per-verdict counters are a fixed register file indexed by
/// the discriminant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Verdict {
    /// Passed: top-tier bypass configured in pre_check.
    PassBypass = 0,
    /// Passed: conformed to the promoted tenant's pre_meter.
    PassPreMeter = 1,
    /// Passed: conformed to the stage-1 color meter.
    PassColor = 2,
    /// Passed: marked by stage 1 but conformed to the stage-2 meter.
    PassMeter = 3,
    /// Dropped by the promoted tenant's pre_meter.
    DropPreMeter = 4,
    /// Dropped by the stage-2 meter.
    DropMeter = 5,
}

impl Verdict {
    /// Number of verdict variants (size of the per-verdict counter bank).
    pub const COUNT: usize = 6;

    /// All verdicts, in counter-bank order.
    pub const ALL: [Verdict; Verdict::COUNT] = [
        Verdict::PassBypass,
        Verdict::PassPreMeter,
        Verdict::PassColor,
        Verdict::PassMeter,
        Verdict::DropPreMeter,
        Verdict::DropMeter,
    ];

    /// True when the packet may proceed to the CPU. Branchless: passing
    /// discriminants are 0..=3 by construction.
    pub fn passed(self) -> bool {
        (self as u8) < 4
    }

    /// Dense index into the per-verdict counter bank — what the hardware
    /// uses to bump a fixed register file instead of a hashed map. The
    /// discriminant *is* the index.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Configuration of the limiter.
#[derive(Debug, Clone)]
pub struct RateLimiterConfig {
    /// Stage-1 color table entries (production: 4096).
    pub color_entries: usize,
    /// Stage-2 meter table entries (production: 4096).
    pub meter_entries: usize,
    /// pre_check / pre_meter entries (production: 128).
    pub pre_entries: usize,
    /// Stage-1 per-entry rate in packets/second.
    pub stage1_pps: f64,
    /// Stage-2 per-entry rate in packets/second.
    pub stage2_pps: f64,
    /// Rate installed into pre_meter for a promoted heavy hitter — the
    /// tenant's total allowance (stage 1 + stage 2 in the Fig. 14 setup).
    pub tenant_limit_pps: f64,
    /// Meter burst tolerance in seconds of rate.
    pub burst_secs: f64,
    /// Probability of sampling a stage-2-exceeding packet.
    pub sample_prob: f64,
    /// Samples within one detection window that trigger promotion.
    pub promote_threshold: u32,
    /// Detection window (paper: promotion takes effect "in one second").
    pub window: SimTime,
    /// SRAM bytes per meter entry (for the Tab.-style resource ledger).
    pub entry_bytes: u32,
    /// Consecutive conforming detection windows after which a promoted
    /// tenant is demoted and its pre_meter slot reclaimed. `None` disables
    /// demotion (the append-only behaviour pinned by the golden tests).
    pub demote_after_windows: Option<u32>,
    /// When every pre_meter slot is taken and a new tenant crosses the
    /// promote threshold, evict the least-recently-exceeding promotee
    /// instead of refusing the promotion.
    pub evict_on_pressure: bool,
}

impl RateLimiterConfig {
    /// The production configuration scaled to the Fig. 13/14 experiment:
    /// stage 1 at 8 Mpps, stage 2 at 2 Mpps, promoted tenants capped at
    /// 10 Mpps.
    pub fn production() -> Self {
        Self {
            color_entries: 4096,
            meter_entries: 4096,
            pre_entries: 128,
            stage1_pps: 8_000_000.0,
            stage2_pps: 2_000_000.0,
            tenant_limit_pps: 10_000_000.0,
            burst_secs: 0.002,
            sample_prob: 1.0 / 64.0,
            promote_threshold: 64,
            window: SimTime::from_secs(1),
            entry_bytes: 200,
            demote_after_windows: Some(3),
            evict_on_pressure: true,
        }
    }
}

/// A pre_check entry's action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PreAction {
    /// Top-tier customer: skip all rate limiting.
    Bypass,
    /// Promoted heavy hitter: meter by this pre_meter slot.
    Meter(usize),
}

/// The assembled two-stage limiter.
#[derive(Debug)]
pub struct TwoStageRateLimiter {
    cfg: RateLimiterConfig,
    color: Vec<TokenBucket>,
    meter: Vec<TokenBucket>,
    pre_check: HashMap<u32, PreAction>,
    pre_meter: Vec<TokenBucket>,
    /// Slot ownership, candidate sketch, detection windows, demotion
    /// credit and pressure eviction — the shared heavy-hitter machinery
    /// (`albatross_sim::lifecycle`), keyed by VNI. `pre_check` mirrors its
    /// placement: every `Meter(slot)` entry corresponds to an occupied
    /// lifecycle slot.
    hh: SlotLifecycle<u32>,
    /// Per-verdict counter bank, indexed by [`Verdict::index`] — a fixed
    /// register file, not a hashed map, as in the hardware.
    counts: [u64; Verdict::COUNT],
}

impl TwoStageRateLimiter {
    /// Builds the limiter from `cfg`.
    ///
    /// # Panics
    /// Panics on zero-sized tables.
    pub fn new(cfg: RateLimiterConfig) -> Self {
        assert!(
            cfg.color_entries > 0 && cfg.meter_entries > 0 && cfg.pre_entries > 0,
            "tables must be non-empty"
        );
        let bucket = |pps: f64| TokenBucket::new(pps, (pps * cfg.burst_secs).max(32.0));
        Self {
            color: (0..cfg.color_entries)
                .map(|_| bucket(cfg.stage1_pps))
                .collect(),
            meter: (0..cfg.meter_entries)
                .map(|_| bucket(cfg.stage2_pps))
                .collect(),
            pre_check: HashMap::new(),
            pre_meter: (0..cfg.pre_entries)
                .map(|_| bucket(cfg.tenant_limit_pps))
                .collect(),
            hh: SlotLifecycle::new(LifecycleConfig {
                slots: cfg.pre_entries,
                candidate_slots: cfg.pre_entries,
                promote_threshold: cfg.promote_threshold,
                window: cfg.window,
                demote_after_windows: cfg.demote_after_windows,
                evict_on_pressure: cfg.evict_on_pressure,
            }),
            counts: [0; Verdict::COUNT],
            cfg,
        }
    }

    /// Stage-2 index for a tenant (a short avalanche hash of the VNI — the
    /// collision source the pre tables exist to mitigate).
    pub fn meter_idx(&self, vni: u32) -> usize {
        let mut h = vni.wrapping_mul(0x9E37_79B9);
        h ^= h >> 16;
        h = h.wrapping_mul(0x85EB_CA6B);
        h ^= h >> 13;
        (h as usize) % self.cfg.meter_entries
    }

    /// Configures a top-tier tenant to bypass all rate limiting.
    pub fn add_bypass(&mut self, vni: u32) {
        self.pre_check.insert(vni, PreAction::Bypass);
    }

    /// Installs `vni` as a known heavy hitter (the CPU-assisted path, and
    /// what sampling promotion calls internally). The slot's pre_meter is
    /// reset to a full bucket at `now` so the new occupant inherits neither
    /// the previous tenant's token debt nor a stale refill origin.
    ///
    /// When every slot is taken: with [`RateLimiterConfig::evict_on_pressure`]
    /// the least-recently-exceeding promotee is evicted to make room;
    /// otherwise the promotion is refused (counted in
    /// [`promotion_refused`](Self::promotion_refused)) and `false` returned.
    pub fn install_heavy_hitter(&mut self, vni: u32, now: SimTime) -> bool {
        if self.pre_check.contains_key(&vni) {
            return true;
        }
        match self.hh.promote(vni) {
            Promotion::Installed { slot, evicted } => {
                // Victim (least-recently-exceeding promotee, ties broken by
                // slot index): drop its pre_check entry with its slot.
                if let Some(victim_vni) = evicted {
                    self.pre_check.remove(&victim_vni);
                }
                self.pre_meter[slot].reset(now);
                self.pre_check.insert(vni, PreAction::Meter(slot));
                true
            }
            Promotion::Refused => false,
        }
    }

    /// Removes a promoted heavy hitter and reclaims its pre_meter slot —
    /// the explicit CPU-assisted demotion path the pod layer calls (e.g.
    /// when control-plane telemetry decides an entry is stale). Returns
    /// `true` if `vni` was promoted; bypass entries are left untouched.
    pub fn uninstall_heavy_hitter(&mut self, vni: u32) -> bool {
        match self.pre_check.get(&vni) {
            Some(&PreAction::Meter(slot)) => {
                self.pre_check.remove(&vni);
                self.hh.demote_slot(slot);
                true
            }
            _ => false,
        }
    }

    /// True if `vni` is currently early-limited (promoted).
    pub fn is_promoted(&self, vni: u32) -> bool {
        matches!(self.pre_check.get(&vni), Some(PreAction::Meter(_)))
    }

    fn roll_window(&mut self, now: SimTime) {
        // Drifting window semantics (`window_start = now`) and the idle-gap
        // credit rule live in the shared lifecycle; demoted VNIs lose their
        // pre_check entries in slot order, exactly as before the
        // extraction (pinned by the golden tests).
        let pre_check = &mut self.pre_check;
        self.hh.roll_window(now, |vni, _slot| {
            pre_check.remove(&vni);
        });
    }

    /// Runs one packet of tenant `vni` through the limiter at `now`.
    pub fn process(&mut self, vni: u32, now: SimTime, rng: &mut SimRng) -> Verdict {
        self.roll_window(now);
        let verdict = self.decide(vni, now, rng);
        self.counts[verdict.index()] += 1;
        verdict
    }

    fn decide(&mut self, vni: u32, now: SimTime, rng: &mut SimRng) -> Verdict {
        match self.pre_check.get(&vni) {
            Some(PreAction::Bypass) => return Verdict::PassBypass,
            Some(&PreAction::Meter(slot)) => {
                return if self.pre_meter[slot].allow_packet(now) {
                    Verdict::PassPreMeter
                } else {
                    self.hh.record_exceeded(slot);
                    Verdict::DropPreMeter
                };
            }
            None => {}
        }
        // Stage 1: shared color entry.
        if self.color[(vni as usize) % self.cfg.color_entries].allow_packet(now) {
            return Verdict::PassColor;
        }
        // Marked: stage 2.
        let m_idx = self.meter_idx(vni);
        if self.meter[m_idx].allow_packet(now) {
            return Verdict::PassMeter;
        }
        // Exceeding: sample towards promotion.
        if rng.chance(self.cfg.sample_prob) && self.hh.sample_candidate(vni) {
            self.install_heavy_hitter(vni, now);
        }
        Verdict::DropMeter
    }

    /// Count of packets with the given verdict.
    pub fn count(&self, v: Verdict) -> u64 {
        self.counts[v.index()]
    }

    /// Packets passed, all stages.
    pub fn total_passed(&self) -> u64 {
        Verdict::ALL
            .iter()
            .filter(|v| v.passed())
            .map(|&v| self.count(v))
            .sum()
    }

    /// Packets dropped, all stages.
    pub fn total_dropped(&self) -> u64 {
        self.count(Verdict::DropPreMeter) + self.count(Verdict::DropMeter)
    }

    /// Sampling-based promotions performed.
    pub fn promotions(&self) -> u64 {
        self.hh.promotions()
    }

    /// Demotions performed (conforming-window expiry plus explicit
    /// [`uninstall_heavy_hitter`](Self::uninstall_heavy_hitter) calls).
    pub fn demotions(&self) -> u64 {
        self.hh.demotions()
    }

    /// Promotees evicted under slot pressure to admit a new heavy hitter.
    pub fn evictions(&self) -> u64 {
        self.hh.evictions()
    }

    /// Promotions refused because every slot was taken (only possible with
    /// `evict_on_pressure` disabled) — the observable degraded mode.
    pub fn promotion_refused(&self) -> u64 {
        self.hh.refused()
    }

    /// Currently occupied pre_meter slots.
    pub fn promoted_count(&self) -> usize {
        self.hh.occupied()
    }

    /// Currently free pre_meter slots.
    pub fn free_slots(&self) -> usize {
        self.hh.free_slots()
    }

    /// SRAM footprint of this configuration in bytes (Tab.-style ledger):
    /// color + meter + pre_check + pre_meter entries.
    pub fn sram_bytes(&self) -> u64 {
        let entries = self.cfg.color_entries + self.cfg.meter_entries + 2 * self.cfg.pre_entries;
        entries as u64 * u64::from(self.cfg.entry_bytes)
    }

    /// SRAM a naive per-tenant meter table would need for `tenants`.
    pub fn naive_sram_bytes(&self, tenants: u64) -> u64 {
        tenants * u64::from(self.cfg.entry_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RateLimiterConfig {
        RateLimiterConfig {
            color_entries: 64,
            meter_entries: 64,
            pre_entries: 8,
            stage1_pps: 8_000.0,
            stage2_pps: 2_000.0,
            tenant_limit_pps: 10_000.0,
            burst_secs: 0.002,
            sample_prob: 0.25,
            promote_threshold: 16,
            window: SimTime::from_secs(1),
            entry_bytes: 200,
            demote_after_windows: None,
            evict_on_pressure: false,
        }
    }

    /// `small_cfg` with the full heavy-hitter lifecycle enabled.
    fn lifecycle_cfg(demote_after: u32) -> RateLimiterConfig {
        RateLimiterConfig {
            demote_after_windows: Some(demote_after),
            evict_on_pressure: true,
            ..small_cfg()
        }
    }

    /// Offers `pps` packets/s of tenant `vni` for `secs`, returning passed
    /// count.
    fn offer(
        rl: &mut TwoStageRateLimiter,
        rng: &mut SimRng,
        vni: u32,
        pps: u64,
        secs: u64,
        t0: SimTime,
    ) -> u64 {
        let mut passed = 0;
        let total = pps * secs;
        for i in 0..total {
            let now = t0 + i * 1_000_000_000 / pps;
            if rl.process(vni, now, rng).passed() {
                passed += 1;
            }
        }
        passed
    }

    #[test]
    fn under_limit_tenant_is_untouched() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        let mut rng = SimRng::seed_from(1);
        let passed = offer(&mut rl, &mut rng, 7, 4_000, 5, SimTime::ZERO);
        assert_eq!(passed, 20_000, "all under-limit packets must pass");
        assert_eq!(rl.total_dropped(), 0);
    }

    #[test]
    fn heavy_hitter_is_capped_near_stage1_plus_stage2() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        let mut rng = SimRng::seed_from(2);
        // 34 kpps against an 8k+2k limit for 10 s.
        let passed = offer(&mut rl, &mut rng, 7, 34_000, 10, SimTime::ZERO);
        let rate = passed as f64 / 10.0;
        assert!(
            (9_000.0..11_500.0).contains(&rate),
            "capped rate {rate} pps, expected ≈10k"
        );
        assert!(rl.total_dropped() > 0);
    }

    #[test]
    fn bypass_tenant_is_never_limited() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        rl.add_bypass(42);
        let mut rng = SimRng::seed_from(3);
        let passed = offer(&mut rl, &mut rng, 42, 100_000, 2, SimTime::ZERO);
        assert_eq!(passed, 200_000);
        assert_eq!(rl.count(Verdict::PassBypass), 200_000);
    }

    #[test]
    fn sustained_overload_promotes_to_pre_meter() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        let mut rng = SimRng::seed_from(4);
        assert!(!rl.is_promoted(9));
        offer(&mut rl, &mut rng, 9, 50_000, 2, SimTime::ZERO);
        assert!(rl.is_promoted(9), "heavy hitter must be promoted");
        assert!(rl.promotions() >= 1);
        // Once promoted, metering happens at the pre stage.
        let before = rl.count(Verdict::DropPreMeter);
        offer(&mut rl, &mut rng, 9, 50_000, 1, SimTime::from_secs(10));
        assert!(rl.count(Verdict::DropPreMeter) > before);
    }

    #[test]
    fn collision_rescue_restores_innocent_tenant() {
        // Find two tenants sharing BOTH the color entry and the meter entry
        // — the §4.3 false-limiting scenario.
        let cfg = small_cfg();
        let mut rl = TwoStageRateLimiter::new(cfg.clone());
        let dominant = 5u32;
        let m = rl.meter_idx(dominant);
        let innocent = (1..10_000u32)
            .map(|k| dominant + k * cfg.color_entries as u32)
            .find(|&v| rl.meter_idx(v) == m)
            .expect("some colliding VNI exists");
        let mut rng = SimRng::seed_from(5);

        // Phase 1: dominant floods; innocent sends 1 kpps. Interleave them.
        let mut innocent_passed_p1 = 0u64;
        for i in 0..200_000u64 {
            let now = SimTime::from_nanos(i * 25_000); // 40 kpps dominant
            rl.process(dominant, now, &mut rng);
            if i % 40 == 0 && rl.process(innocent, now, &mut rng).passed() {
                innocent_passed_p1 += 1;
            }
        }
        let p1_rate = innocent_passed_p1 as f64 / 5.0; // 5 s of traffic
                                                       // The innocent tenant is collateral damage at first…
        assert!(
            rl.is_promoted(dominant),
            "dominant tenant must get promoted"
        );
        // Phase 2: dominant is now early-limited; innocent recovers fully.
        let t2 = SimTime::from_secs(10);
        let mut innocent_passed_p2 = 0u64;
        for i in 0..200_000u64 {
            let now = t2 + i * 25_000;
            rl.process(dominant, now, &mut rng);
            if i % 40 == 0 && rl.process(innocent, now, &mut rng).passed() {
                innocent_passed_p2 += 1;
            }
        }
        assert!(
            innocent_passed_p2 >= 4_990, // 5 s × 1 kpps, minus rounding
            "innocent tenant must fully recover after promotion: {innocent_passed_p2} (phase1 {p1_rate})"
        );
    }

    #[test]
    fn two_dominant_tenants_colliding_is_harmless() {
        // §4.3: "If two dominant tenants collide, rate-limiting them does
        // not pose any issues."
        let cfg = small_cfg();
        let mut rl = TwoStageRateLimiter::new(cfg.clone());
        let a = 3u32;
        let m = rl.meter_idx(a);
        let b = (1..10_000u32)
            .map(|k| a + k * cfg.color_entries as u32)
            .find(|&v| rl.meter_idx(v) == m)
            .unwrap();
        let mut rng = SimRng::seed_from(6);
        let mut passed = [0u64; 2];
        for i in 0..400_000u64 {
            let now = SimTime::from_nanos(i * 12_500); // each at 40 kpps
            if rl.process(a, now, &mut rng).passed() {
                passed[0] += 1;
            }
            if rl.process(b, now, &mut rng).passed() {
                passed[1] += 1;
            }
        }
        // Both limited to roughly their allowance; neither starves.
        for (i, &p) in passed.iter().enumerate() {
            let rate = p as f64 / 5.0;
            assert!(
                (4_000.0..13_000.0).contains(&rate),
                "tenant {i} rate {rate}"
            );
        }
    }

    #[test]
    fn sram_budget_matches_paper() {
        let rl = TwoStageRateLimiter::new(RateLimiterConfig::production());
        let two_stage = rl.sram_bytes();
        let naive = rl.naive_sram_bytes(1_000_000);
        assert!(two_stage <= 2_000_000, "two-stage = {two_stage} B > 2 MB");
        assert!(naive >= 200_000_000, "naive = {naive} B < 200 MB");
        assert!(
            naive / two_stage >= 100,
            "reduction {}× < 100×",
            naive / two_stage
        );
    }

    #[test]
    fn pre_meter_slots_exhaust_gracefully() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        for vni in 0..8 {
            assert!(rl.install_heavy_hitter(vni, SimTime::ZERO));
        }
        assert!(
            !rl.install_heavy_hitter(99, SimTime::ZERO),
            "9th slot must be refused"
        );
        assert_eq!(rl.promotion_refused(), 1, "refusal must be observable");
        // Re-installing an existing heavy hitter is fine.
        assert!(rl.install_heavy_hitter(3, SimTime::ZERO));
        assert_eq!(rl.promoted_count(), 8);
        assert_eq!(rl.free_slots(), 0);
    }

    #[test]
    fn slot_pressure_evicts_least_recently_exceeding() {
        let cfg = lifecycle_cfg(1_000); // demotion effectively off
        let mut rl = TwoStageRateLimiter::new(cfg);
        let mut rng = SimRng::seed_from(7);
        for vni in 0..8 {
            assert!(rl.install_heavy_hitter(vni, SimTime::ZERO));
        }
        // Roll into a fresh detection window, then tenants 1..8 exceed
        // their pre_meters while tenant 0 stays idle (its last-exceeded
        // window remains the promotion window).
        let t = SimTime::from_millis(1_500);
        for vni in 1..8 {
            // Burst is 32 tokens at these rates: drain it, then some more.
            for i in 0..40 {
                rl.process(vni, t + i, &mut rng);
            }
        }
        // A 9th heavy hitter shows up: tenant 0 (never exceeded since its
        // promotion window) is the victim.
        assert!(rl.install_heavy_hitter(99, t));
        assert!(!rl.is_promoted(0), "idle promotee must be evicted");
        assert!(rl.is_promoted(99));
        assert_eq!(rl.evictions(), 1);
        assert_eq!(rl.promotion_refused(), 0);
        assert_eq!(rl.promoted_count(), 8);
    }

    #[test]
    fn conforming_promotee_is_demoted_and_slot_reclaimed() {
        let cfg = lifecycle_cfg(3);
        let mut rl = TwoStageRateLimiter::new(cfg);
        let mut rng = SimRng::seed_from(8);
        // Promote tenant 9 by sustained overload.
        offer(&mut rl, &mut rng, 9, 50_000, 2, SimTime::ZERO);
        assert!(rl.is_promoted(9));
        assert_eq!(rl.free_slots(), 7);
        // Tenant 9 goes quiet; an unrelated polite tenant keeps the clock
        // (and the windows) rolling. After 3 conforming windows tenant 9 is
        // demoted and its slot returns to the free list.
        offer(&mut rl, &mut rng, 55, 1_000, 6, SimTime::from_secs(10));
        assert!(!rl.is_promoted(9), "conforming promotee must be demoted");
        assert_eq!(rl.demotions(), 1);
        assert_eq!(rl.free_slots(), 8);
        assert_eq!(rl.promoted_count(), 0);
        // A returning tenant 9 is re-promoted into a reset (full) bucket.
        offer(&mut rl, &mut rng, 9, 50_000, 2, SimTime::from_secs(30));
        assert!(rl.is_promoted(9), "returning heavy hitter re-promoted");
        assert!(rl.promotions() >= 2);
    }

    #[test]
    fn uninstall_reclaims_slot_and_spares_bypass() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        rl.add_bypass(42);
        assert!(rl.install_heavy_hitter(7, SimTime::ZERO));
        assert_eq!(rl.free_slots(), 7);
        assert!(rl.uninstall_heavy_hitter(7));
        assert!(!rl.is_promoted(7));
        assert_eq!(rl.free_slots(), 8);
        assert_eq!(rl.demotions(), 1);
        // Not promoted / bypass entries: no-op.
        assert!(!rl.uninstall_heavy_hitter(7));
        assert!(!rl.uninstall_heavy_hitter(42));
        let mut rng = SimRng::seed_from(9);
        assert_eq!(rl.process(42, SimTime::ZERO, &mut rng), Verdict::PassBypass);
    }

    #[test]
    fn reused_slot_does_not_inherit_previous_tenant_debt() {
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        let mut rng = SimRng::seed_from(10);
        assert!(rl.install_heavy_hitter(1, SimTime::ZERO));
        // Tenant 1 drains its pre_meter burst (32 tokens) completely.
        let t0 = SimTime::from_secs(1);
        for i in 0..40u64 {
            rl.process(1, t0 + i, &mut rng);
        }
        assert!(rl.count(Verdict::DropPreMeter) > 0);
        // The slot is reclaimed and reused 1 ms later. Lazy refill alone
        // would have restored only ~10 of the 32 burst tokens — without the
        // reset the new occupant would inherit the old tenant's debt.
        rl.uninstall_heavy_hitter(1);
        let t1 = t0 + SimTime::from_millis(1).as_nanos();
        assert!(rl.install_heavy_hitter(2, t1));
        let drops_before = rl.count(Verdict::DropPreMeter);
        for i in 0..32u64 {
            assert!(
                rl.process(2, t1 + i, &mut rng).passed(),
                "packet {i} hit inherited debt"
            );
        }
        assert_eq!(rl.count(Verdict::DropPreMeter), drops_before);
    }

    #[test]
    fn returning_candidate_reuses_its_sketch_slot_after_roll() {
        // Regression: the old `c.samples > 0 && c.vni == vni` guard made a
        // VNI returning after `roll_window` zeroed the sketch claim a
        // *second* slot (slot 0, the min), diluting the sketch.
        let mut rl = TwoStageRateLimiter::new(small_cfg());
        for _ in 0..3 {
            rl.hh.sample_candidate(10);
        }
        for _ in 0..2 {
            rl.hh.sample_candidate(20);
        }
        assert_eq!(rl.hh.candidate(0), Some((10, 3)));
        assert_eq!(rl.hh.candidate(1), Some((20, 2)));
        rl.roll_window(SimTime::from_secs(2));
        assert_eq!(
            rl.hh.candidate(0),
            Some((10, 0)),
            "roll must zero the sketch"
        );
        rl.hh.sample_candidate(20);
        assert_eq!(
            rl.hh.candidate(0),
            Some((10, 0)),
            "returning VNI 20 must not steal slot 0"
        );
        assert_eq!(rl.hh.candidate(1), Some((20, 1)));
        let slots_with_20 = (0..rl.hh.candidate_slots())
            .filter(|&i| matches!(rl.hh.candidate(i), Some((20, _))))
            .count();
        assert_eq!(slots_with_20, 1, "sketch must hold one slot per VNI");
    }

    #[test]
    fn verdict_index_is_dense_and_matches_all_order() {
        for (i, v) in Verdict::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
        assert_eq!(Verdict::ALL.len(), Verdict::COUNT);
    }

    #[test]
    fn verdict_passed_predicate() {
        assert!(Verdict::PassColor.passed());
        assert!(Verdict::PassBypass.passed());
        assert!(!Verdict::DropMeter.passed());
        assert!(!Verdict::DropPreMeter.passed());
    }
}
