//! CPS-grade flow table: cache-line-bucketed open addressing with batched
//! inserts, plus an incremental expiry wheel.
//!
//! Production gateways die on connections-per-second, not packets-per-second:
//! the *insertion* path is the bottleneck under short flows (single-packet
//! DNS, TCP connect/close churn). `std::collections::HashMap` is the wrong
//! shape for that workload three times over — SipHash per key, a fresh random
//! seed per map (which breaks the repo's byte-identity contract the moment
//! iteration order can reach a report), and `O(n)` full-scan expiry in every
//! consumer that ages sessions out.
//!
//! [`FlowTable`] replaces it on the hot paths:
//!
//! * **8-way cache-line buckets.** Slots are grouped 8 per bucket with a
//!   parallel 1-byte tag array; a probe scans tags branchlessly (compare all
//!   8, accumulate a bitmask) and touches full entries only on a tag match.
//! * **Bounded linear bucket overflow.** A key lives within a fixed window
//!   of [`PROBE_BUCKETS`] consecutive buckets from its home bucket. Misses
//!   cost a flat, predictable number of tag lines; deletion restores slots
//!   to empty directly — no tombstones, ever — because probes never stop at
//!   an empty slot. Instead each bucket carries an *overflow marker* (set
//!   when an insert spills past it) and a probe stops at the first bucket
//!   that never overflowed, which is almost always the home bucket at the
//!   table's ≤50% fill.
//! * **Deterministic hashing.** Keys hash through the fixed-seed
//!   word-at-a-time [`DetFastHasher`](albatross_sim::det::DetFastHasher)
//!   (one multiply per integer field, avalanche finish): same inserts ⇒
//!   same layout ⇒ same iteration order, every run.
//! * **Generation-stamped slots.** Every slot carries a wrapping generation
//!   byte bumped on removal; a [`SlotRef`] handle is validated against it,
//!   so externally-held references (expiry wheel entries) can never act on a
//!   slot that was recycled under them.
//! * **Batched inserts.** [`FlowTable::insert_burst`] splits work into two
//!   passes: pass 1 computes every hash (pure, branch-free), pass 2 is a
//!   plain sequential loop that inserts each item at its precomputed hash,
//!   one probe after another; nothing in it is arranged for the host to
//!   overlap misses. Results are defined to be *identical* to N scalar
//!   [`FlowTable::insert`] calls in order — batch size is a performance
//!   knob, never a semantics knob.
//!
//! [`ExpiryWheel`] replaces full-map expiry scans: coarse timestamp buckets
//! advanced incrementally on the sampling tick, amortized `O(expired)` per
//! advance. Entries are `(slot, generation)` pairs validated lazily against
//! the live table — refreshing a flow never touches the wheel; the stale
//! deadline simply re-schedules itself forward when it comes due.

use std::hash::{BuildHasher, Hash};

use albatross_sim::det::BuildDetFastHasher;
use albatross_sim::SimTime;

/// Slots per bucket: one 8-byte tag line probed per bucket.
pub const WAYS: usize = 8;

/// Consecutive buckets a key may overflow into (its probe window). Probes
/// scan exactly this many buckets (clamped to the table size), so miss cost
/// is flat and deletion needs no tombstones.
pub const PROBE_BUCKETS: usize = 4;

/// Tag value marking a vacant slot. Occupied tags always have the high bit
/// set, so no live key can collide with it.
const TAG_EMPTY: u8 = 0;

#[inline]
fn tag_of(hash: u64) -> u8 {
    // Top hash bits (independent of the low bits selecting the bucket),
    // high bit forced so an occupied tag never equals TAG_EMPTY.
    ((hash >> 56) as u8) | 0x80
}

/// A validated handle to one occupied slot: index plus the generation the
/// slot had when the handle was issued. Stale handles (the slot was removed
/// or recycled since) are rejected by every accessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    /// Slot index within the table.
    pub slot: u32,
    /// Generation stamp at issue time.
    pub generation: u8,
}

/// Outcome of one insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was new and now occupies the referenced slot.
    Created(SlotRef),
    /// The key already existed; its value was replaced in place.
    Updated(SlotRef),
    /// No room: the table is at capacity, or every slot in the key's probe
    /// window is taken. The insert did nothing.
    Full,
}

impl InsertOutcome {
    /// The slot reference, unless the insert was rejected.
    pub fn slot(&self) -> Option<SlotRef> {
        match self {
            InsertOutcome::Created(s) | InsertOutcome::Updated(s) => Some(*s),
            InsertOutcome::Full => None,
        }
    }
}

/// Fixed-capacity, cache-line-bucketed open-addressing flow table.
///
/// See the [module docs](self) for the design. Keys must be small `Copy`
/// types (five-tuple-sized); values live inline.
#[derive(Debug, Clone)]
pub struct FlowTable<K, V> {
    /// 1-byte tag per slot, `WAYS` consecutive tags per bucket — the only
    /// memory a probe touches until a tag matches.
    tags: Vec<u8>,
    /// Wrapping generation stamp per slot, bumped on removal.
    gens: Vec<u8>,
    /// Slot payloads; `None` exactly where the tag is `TAG_EMPTY`.
    entries: Vec<Option<(K, V)>>,
    /// Per-bucket overflow marker: nonzero when some insert probing through
    /// this bucket placed its key in a *later* window bucket. A probe that
    /// reaches a bucket with a clear marker can stop — no key homed at or
    /// before it lives beyond it — which collapses the common-case probe to
    /// a single bucket. Markers are sticky (cleared only by
    /// [`FlowTable::clear`]); stale ones cost extra scanning, never
    /// correctness, and at the table's ≤50% fill spills are rare.
    overflow: Vec<u8>,
    /// `bucket_count - 1` (bucket count is a power of two).
    bucket_mask: usize,
    /// Probe window in buckets (`PROBE_BUCKETS` clamped to the table size).
    window: usize,
    len: usize,
    capacity: usize,
    hasher: BuildDetFastHasher,
    /// Scratch for `insert_burst` pass 1 (hashes), reused across calls.
    hash_scratch: Vec<u64>,
}

impl<K: Copy + Eq + Hash, V> FlowTable<K, V> {
    /// Builds a table that accepts up to `capacity` entries, sized at ~50%
    /// maximum fill so probe windows essentially never overflow first.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flow table needs capacity >= 1");
        let buckets = (capacity * 2).div_ceil(WAYS).next_power_of_two();
        let slots = buckets * WAYS;
        Self {
            tags: vec![TAG_EMPTY; slots],
            gens: vec![0; slots],
            entries: (0..slots).map(|_| None).collect(),
            overflow: vec![0; buckets],
            bucket_mask: buckets - 1,
            window: PROBE_BUCKETS.min(buckets),
            len: 0,
            capacity,
            hasher: BuildDetFastHasher,
            hash_scratch: Vec::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of entries accepted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Raw slot count (diagnostics; `capacity <= slots / 2`).
    pub fn slot_count(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn hash_key(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Scans the probe window for `key`, stopping at the first bucket whose
    /// overflow marker is clear (the key cannot live beyond it). In the
    /// common case this is one branchless 8-tag scan of the home bucket.
    #[inline]
    fn probe(&self, hash: u64, key: &K) -> Option<usize> {
        let home = (hash as usize) & self.bucket_mask;
        let tag = tag_of(hash);
        for step in 0..self.window {
            let bucket = (home + step) & self.bucket_mask;
            let base = bucket * WAYS;
            let lane = &self.tags[base..base + WAYS];
            // Branchless tag scan: compare all 8 tags, accumulate a bitmask.
            let mut hit = 0u32;
            for (i, &t) in lane.iter().enumerate() {
                hit |= u32::from(t == tag) << i;
            }
            while hit != 0 {
                let slot = base + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                if let Some((k, _)) = &self.entries[slot] {
                    if k == key {
                        return Some(slot);
                    }
                }
            }
            if self.overflow[bucket] == 0 {
                return None;
            }
        }
        None
    }

    /// First vacant slot in the window starting at `from_step`, scanning in
    /// window order (the insert placement rule: earliest vacancy wins).
    #[inline]
    fn first_vacancy(&self, home: usize, from_step: usize) -> Option<(usize, usize)> {
        for step in from_step..self.window {
            let base = ((home + step) & self.bucket_mask) * WAYS;
            let lane = &self.tags[base..base + WAYS];
            let mut empty = 0u32;
            for (i, &t) in lane.iter().enumerate() {
                empty |= u32::from(t == TAG_EMPTY) << i;
            }
            if empty != 0 {
                return Some((base + empty.trailing_zeros() as usize, step));
            }
        }
        None
    }

    /// Looks up `key`, returning its value.
    pub fn get(&self, key: &K) -> Option<&V> {
        let found = self.probe(self.hash_key(key), key);
        found.map(|s| &self.entries[s].as_ref().expect("occupied slot").1)
    }

    /// Looks up `key`, returning its value mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let found = self.probe(self.hash_key(key), key);
        found.map(|s| &mut self.entries[s].as_mut().expect("occupied slot").1)
    }

    /// Looks up `key`, returning a generation-stamped slot handle.
    pub fn slot_of(&self, key: &K) -> Option<SlotRef> {
        let found = self.probe(self.hash_key(key), key);
        found.map(|s| SlotRef {
            slot: s as u32,
            generation: self.gens[s],
        })
    }

    /// Dereferences a slot handle, rejecting stale generations.
    pub fn at(&self, slot: SlotRef) -> Option<(&K, &V)> {
        let s = slot.slot as usize;
        if s >= self.entries.len() || self.gens[s] != slot.generation {
            return None;
        }
        self.entries[s].as_ref().map(|(k, v)| (k, v))
    }

    #[inline]
    fn insert_hashed(&mut self, hash: u64, key: K, value: V) -> InsertOutcome {
        let home = (hash as usize) & self.bucket_mask;
        let tag = tag_of(hash);
        // Fused find + vacancy scan: one pass computes both the tag-hit and
        // the empty bitmask per bucket, stopping (like `probe`) at the
        // first never-overflowed bucket — in the common case one 8-tag
        // line resolves both questions.
        let mut vacant = None;
        let mut resolved_at = self.window;
        for step in 0..self.window {
            let bucket = (home + step) & self.bucket_mask;
            let base = bucket * WAYS;
            let lane = &self.tags[base..base + WAYS];
            let mut hit = 0u32;
            let mut empty = 0u32;
            for (i, &t) in lane.iter().enumerate() {
                hit |= u32::from(t == tag) << i;
                empty |= u32::from(t == TAG_EMPTY) << i;
            }
            while hit != 0 {
                let slot = base + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                if let Some((k, _)) = &mut self.entries[slot] {
                    if *k == key {
                        self.entries[slot] = Some((key, value));
                        return InsertOutcome::Updated(SlotRef {
                            slot: slot as u32,
                            generation: self.gens[slot],
                        });
                    }
                }
            }
            if vacant.is_none() && empty != 0 {
                vacant = Some((base + empty.trailing_zeros() as usize, step));
            }
            if self.overflow[bucket] == 0 {
                resolved_at = step;
                break;
            }
        }
        if self.len == self.capacity {
            return InsertOutcome::Full;
        }
        // The find-scan may have stopped before seeing a vacancy; the
        // placement rule (earliest window vacancy) continues where it left
        // off.
        if vacant.is_none() {
            vacant = self.first_vacancy(home, resolved_at + 1);
        }
        let Some((s, step)) = vacant else {
            return InsertOutcome::Full;
        };
        // Spilling past a bucket marks it: probes for any key homed at or
        // before it now know to keep scanning.
        for passed in 0..step {
            self.overflow[(home + passed) & self.bucket_mask] = 1;
        }
        self.tags[s] = tag_of(hash);
        self.entries[s] = Some((key, value));
        self.len += 1;
        InsertOutcome::Created(SlotRef {
            slot: s as u32,
            generation: self.gens[s],
        })
    }

    /// Inserts or replaces `key`. Rejected ([`InsertOutcome::Full`]) when
    /// the table is at capacity or the key's probe window has no vacancy;
    /// an existing key is always refreshable, even at capacity.
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        self.insert_hashed(self.hash_key(&key), key, value)
    }

    /// Removes `key`, returning its value. The slot's generation is bumped
    /// so outstanding [`SlotRef`]s to it go stale.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let s = self.probe(self.hash_key(key), key)?;
        self.free_slot(s)
    }

    /// Removes the entry a handle points at, rejecting stale generations.
    pub fn remove_slot(&mut self, slot: SlotRef) -> Option<(K, V)> {
        let s = slot.slot as usize;
        if s >= self.entries.len() || self.gens[s] != slot.generation {
            return None;
        }
        let key = self.entries[s].as_ref().map(|(k, _)| *k)?;
        self.free_slot(s).map(|v| (key, v))
    }

    fn free_slot(&mut self, s: usize) -> Option<V> {
        let (_, v) = self.entries[s].take()?;
        self.tags[s] = TAG_EMPTY;
        self.gens[s] = self.gens[s].wrapping_add(1);
        self.len -= 1;
        Some(v)
    }

    /// Drops every entry (generations are preserved, so pre-clear handles
    /// stay stale rather than aliasing new occupants).
    pub fn clear(&mut self) {
        for s in 0..self.entries.len() {
            if self.entries[s].is_some() {
                self.free_slot(s);
            }
        }
        self.overflow.fill(0);
    }

    /// Iterates occupied slots in slot order — deterministic for a given
    /// insert history, identical across runs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotRef, &K, &V)> {
        self.entries.iter().enumerate().filter_map(|(s, e)| {
            e.as_ref().map(|(k, v)| {
                (
                    SlotRef {
                        slot: s as u32,
                        generation: self.gens[s],
                    },
                    k,
                    v,
                )
            })
        })
    }

    /// Batched insert, two-pass: pass 1 hashes every key (pure, branch
    /// free), pass 2 is a sequential loop of `insert_hashed` calls, one per
    /// item at its precomputed hash. `out` is cleared and filled with one
    /// outcome per item; results are identical to calling
    /// [`FlowTable::insert`] per item in order (duplicates within the batch
    /// resolve sequentially).
    pub fn insert_burst(&mut self, items: &[(K, V)], out: &mut Vec<InsertOutcome>)
    where
        V: Copy,
    {
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        hashes.clear();
        hashes.extend(items.iter().map(|(k, _)| self.hash_key(k)));
        out.clear();
        for (&(key, value), &hash) in items.iter().zip(hashes.iter()) {
            out.push(self.insert_hashed(hash, key, value));
        }
        self.hash_scratch = hashes;
    }
}

/// What the expiry callback decided about one due entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WheelDecision {
    /// The entry is dead; drop it from the wheel. (The callback is expected
    /// to have removed it from the table.)
    Expire,
    /// The entry is still live; re-arm it to fire at the given deadline.
    KeepUntil(SimTime),
}

/// Incremental expiry wheel: coarse timestamp buckets advanced on the
/// sampling tick, amortized `O(expired)` per advance instead of a full-map
/// scan.
///
/// Entries are `(SlotRef, ...)` handles into a [`FlowTable`]; the wheel
/// stores them lazily — refreshing a flow's activity never touches the
/// wheel. When a stale deadline comes due, the callback inspects the *live*
/// entry and answers [`WheelDecision::KeepUntil`] with the true deadline,
/// and the wheel re-arms it. Bucket drain order is Vec push order, so a
/// given schedule history drains identically every run.
#[derive(Debug, Clone)]
pub struct ExpiryWheel {
    width_ns: u64,
    buckets: Vec<Vec<SlotRef>>,
    /// Every deadline below this absolute time has been drained.
    drained_until: u64,
    pending: usize,
    scratch: Vec<SlotRef>,
}

impl ExpiryWheel {
    /// Builds a wheel of `buckets` coarse slots of `width` each. Deadlines
    /// beyond the horizon (`buckets * width`) simply wrap and re-arm when
    /// they come due early — correctness never depends on the horizon.
    ///
    /// # Panics
    /// Panics when `buckets` is zero or `width` is zero.
    pub fn new(buckets: usize, width: SimTime) -> Self {
        assert!(buckets > 0, "expiry wheel needs at least one bucket");
        assert!(width.as_nanos() > 0, "expiry wheel needs a nonzero width");
        Self {
            width_ns: width.as_nanos(),
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            drained_until: 0,
            pending: 0,
            scratch: Vec::new(),
        }
    }

    /// A wheel sized for `timeout`-style inactivity deadlines: 32 buckets
    /// spanning the timeout, so one advance drains ~3% of the horizon.
    pub fn for_timeout(timeout: SimTime) -> Self {
        Self::new(32, SimTime::from_nanos((timeout.as_nanos() / 32).max(1)))
    }

    /// Entries currently armed (duplicates from re-arming count).
    pub fn pending(&self) -> usize {
        self.pending
    }

    #[inline]
    fn bucket_of(&self, deadline_ns: u64) -> usize {
        ((deadline_ns / self.width_ns) as usize) % self.buckets.len()
    }

    /// Arms `slot` to come due at `deadline`. Deadlines already in the
    /// drained past are clamped forward so they fire on the next advance.
    pub fn schedule(&mut self, slot: SlotRef, deadline: SimTime) {
        let d = deadline.as_nanos().max(self.drained_until);
        let b = self.bucket_of(d);
        self.buckets[b].push(slot);
        self.pending += 1;
    }

    /// Advances the wheel to `now`, invoking `decide` for every entry whose
    /// bucket has come due. Returns how many entries the callback expired.
    /// Cost is proportional to elapsed buckets plus entries touched —
    /// amortized `O(expired)` under steady churn.
    pub fn advance<F>(&mut self, now: SimTime, mut decide: F) -> usize
    where
        F: FnMut(SlotRef) -> WheelDecision,
    {
        let now_ns = now.as_nanos();
        let mut expired = 0;
        while self.drained_until.saturating_add(self.width_ns) <= now_ns {
            let b = self.bucket_of(self.drained_until);
            let mut due = std::mem::take(&mut self.scratch);
            std::mem::swap(&mut due, &mut self.buckets[b]);
            self.pending -= due.len();
            // The bucket being drained is complete: re-arms targeting the
            // current window land in it *after* the swap and survive there
            // until it next comes due.
            self.drained_until += self.width_ns;
            for slot in due.drain(..) {
                match decide(slot) {
                    WheelDecision::Expire => expired += 1,
                    WheelDecision::KeepUntil(t) => self.schedule(slot, t),
                }
            }
            self.scratch = due;
        }
        expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(cap: usize) -> FlowTable<u64, u64> {
        FlowTable::with_capacity(cap)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = table(16);
        assert!(matches!(t.insert(7, 70), InsertOutcome::Created(_)));
        assert_eq!(t.get(&7), Some(&70));
        assert!(matches!(t.insert(7, 71), InsertOutcome::Updated(_)));
        assert_eq!(t.get(&7), Some(&71));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&7), Some(71));
        assert_eq!(t.get(&7), None);
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_is_enforced_but_updates_pass() {
        let mut t = table(4);
        for k in 0..4 {
            assert!(matches!(t.insert(k, k), InsertOutcome::Created(_)));
        }
        assert_eq!(t.insert(99, 99), InsertOutcome::Full);
        // Existing keys stay refreshable at capacity.
        assert!(matches!(t.insert(2, 20), InsertOutcome::Updated(_)));
        assert_eq!(t.get(&2), Some(&20));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn removal_bumps_generation_and_stales_handles() {
        let mut t = table(16);
        let InsertOutcome::Created(h) = t.insert(5, 50) else {
            panic!("insert failed");
        };
        assert_eq!(t.at(h), Some((&5, &50)));
        t.remove(&5);
        assert_eq!(t.at(h), None, "stale handle after removal");
        // Even if a new key lands in the same slot, the old handle is dead.
        for k in 0..16u64 {
            t.insert(k, k);
        }
        assert_eq!(t.at(h), None);
        assert!(t.slot_of(&5).is_some());
    }

    #[test]
    fn deletion_leaves_no_tombstone_cost() {
        // Fill/clear cycles must not degrade: vacancy is restored in place.
        let mut t = table(64);
        for round in 0..50u64 {
            for k in 0..64u64 {
                assert!(
                    t.insert(round * 64 + k, k).slot().is_some(),
                    "round {round} key {k} rejected"
                );
            }
            for k in 0..64u64 {
                assert_eq!(t.remove(&(round * 64 + k)), Some(k));
            }
        }
        assert!(t.is_empty());
    }

    #[test]
    fn burst_insert_matches_scalar_including_batch_duplicates() {
        let items: Vec<(u64, u64)> = (0..60).map(|i| (i % 40, i)).collect();
        let mut a = table(32);
        let mut out = Vec::new();
        a.insert_burst(&items, &mut out);
        let mut b = table(32);
        let scalar: Vec<_> = items.iter().map(|&(k, v)| b.insert(k, v)).collect();
        assert_eq!(out, scalar);
        let av: Vec<_> = a.iter().map(|(_, k, v)| (*k, *v)).collect();
        let bv: Vec<_> = b.iter().map(|(_, k, v)| (*k, *v)).collect();
        assert_eq!(av, bv, "burst and scalar tables must be identical");
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let build = || {
            let mut t = table(256);
            for k in 0..200u64 {
                t.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
            }
            for k in 0..50u64 {
                t.remove(&(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            }
            t.iter().map(|(_, k, v)| (*k, *v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn wheel_expires_due_entries_and_rearms_fresh_ones() {
        let mut t = table(16);
        let idle = t.insert(1, 0).slot().unwrap();
        let fresh = t.insert(2, 0).slot().unwrap();
        let mut w = ExpiryWheel::for_timeout(SimTime::from_secs(60));
        w.schedule(idle, SimTime::from_secs(60));
        w.schedule(fresh, SimTime::from_secs(60));
        // `fresh` was refreshed at t=50 (tracked table-side, wheel untouched).
        let refreshed_until = SimTime::from_secs(110);
        let mut expired_slots = Vec::new();
        let n = w.advance(SimTime::from_secs(100), |s| {
            if s == idle {
                expired_slots.push(s);
                WheelDecision::Expire
            } else {
                WheelDecision::KeepUntil(refreshed_until)
            }
        });
        assert_eq!(n, 1);
        assert_eq!(expired_slots, vec![idle]);
        assert_eq!(w.pending(), 1, "fresh entry re-armed");
        // The re-armed entry fires once its true deadline passes.
        let n = w.advance(SimTime::from_secs(200), |_| WheelDecision::Expire);
        assert_eq!(n, 1);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn wheel_advance_is_incremental_not_full_scan() {
        let mut w = ExpiryWheel::new(16, SimTime::from_millis(100));
        let h = |i: u32| SlotRef {
            slot: i,
            generation: 0,
        };
        for i in 0..100 {
            w.schedule(h(i), SimTime::from_millis(1500)); // far bucket
        }
        let mut touched = 0;
        w.advance(SimTime::from_millis(300), |_| {
            touched += 1;
            WheelDecision::Expire
        });
        assert_eq!(touched, 0, "entries in undrained buckets stay untouched");
        assert_eq!(w.pending(), 100);
    }

    #[test]
    fn wheel_deadlines_beyond_horizon_still_fire_late_enough() {
        // Horizon is 16 * 100ms = 1.6s; deadline at 10s wraps and must
        // re-arm (via KeepUntil) rather than fire early.
        let mut w = ExpiryWheel::new(16, SimTime::from_millis(100));
        let slot = SlotRef {
            slot: 1,
            generation: 0,
        };
        w.schedule(slot, SimTime::from_secs(10));
        let deadline = SimTime::from_secs(10);
        let mut fired_at_ns = None;
        let mut now = SimTime::ZERO;
        while fired_at_ns.is_none() && now.as_nanos() < 20_000_000_000 {
            now = SimTime::from_nanos(now.as_nanos() + 250_000_000);
            w.advance(now, |_| {
                if now.as_nanos() >= deadline.as_nanos() {
                    fired_at_ns = Some(now.as_nanos());
                    WheelDecision::Expire
                } else {
                    WheelDecision::KeepUntil(deadline)
                }
            });
        }
        // Coarse buckets fire within one width (plus our 250ms step) after
        // the deadline, never before it.
        let fired = fired_at_ns.expect("entry must eventually fire");
        assert!((10_000_000_000..=10_500_000_000).contains(&fired));
        assert_eq!(w.pending(), 0);
    }
}
