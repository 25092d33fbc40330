//! The event queue: a hierarchical timing wheel.
//!
//! [`Engine`] is an intentionally minimal discrete-event core: callers
//! schedule typed events at absolute virtual times and pop them in time
//! order. Dispatch lives in the *caller's* loop (a `match` over the event
//! enum), not in stored callbacks — this sidesteps shared-mutability
//! gymnastics and keeps every experiment a plain readable loop:
//!
//! ```
//! use albatross_sim::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { PacketArrival(u32), Timer }
//!
//! let mut eng = Engine::new();
//! eng.schedule(SimTime::from_micros(5), Ev::Timer);
//! eng.schedule(SimTime::from_micros(1), Ev::PacketArrival(7));
//! let (t, ev) = eng.pop().unwrap();
//! assert_eq!(t, SimTime::from_micros(1));
//! assert_eq!(ev, Ev::PacketArrival(7));
//! ```
//!
//! Ties are broken by insertion order (FIFO), which matters for packet-level
//! determinism: two packets scheduled for the same nanosecond must dequeue in
//! arrival order or reorder statistics become seed-dependent noise.
//!
//! # Why a timing wheel
//!
//! The original implementation was a single `BinaryHeap`, which profiled as
//! the #1 hotspot of the pod simulation loop: every event pays `O(log n)` sifting
//! with cache-hostile strides. The engine now keeps a **near wheel** of
//! 4,096 slots, one wheel tick ([`TICK_NS`] ns) each, covering the next
//! ~262 µs of virtual time — which is where essentially all datapath events
//! (inter-arrival gaps, DMA completions, service times, reorder timeouts)
//! land — plus an **overflow heap** for far events (utilization samples,
//! multi-millisecond timers). Near events cost `O(1)` amortized: a `Vec`
//! push on schedule, a two-level occupancy-bitmap scan plus an in-slot
//! min-scan on pop. Far events fall back to the heap and migrate into the
//! wheel as the clock advances.
//!
//! **Ordering contract**: the wheel pops the *exact* `(time, seq)` sequence
//! the heap popped. Slots are visited in ascending tick order; within one
//! slot (one tick may hold several distinct nanosecond timestamps) the pop
//! scans for the `(time, seq)`-minimum; the overflow heap orders by the
//! same key and only ever holds events strictly beyond every wheel event.
//! Golden-sequence and telemetry-determinism tests pin this bit-for-bit.
//!
//! **Cancellation** is eager for wheel-resident events (the entry is removed
//! on the spot — [`EventId`] carries its tick, so the slot is found in
//! `O(1)`) and lazy for overflow-resident ones: the id goes into a dead set
//! that is purged when the entry surfaces and compacted outright when the
//! dead set outgrows half the live events, so memory stays bounded no
//! matter how many schedule/cancel cycles an experiment runs (the old heap
//! grew its `cancelled` set for the life of the engine).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// log2 of the wheel tick in nanoseconds.
const TICK_BITS: u32 = 6;
/// Width of one wheel tick: 64 ns. Several distinct timestamps can share a
/// tick; the in-slot min-scan keeps them in exact `(time, seq)` order.
pub const TICK_NS: u64 = 1 << TICK_BITS;
/// log2 of the near-wheel slot count.
const SLOT_BITS: u32 = 12;
/// Near-wheel slots, one tick each (horizon = `SLOTS * TICK_NS` ≈ 262 µs).
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const SLOT_MASK: usize = SLOTS - 1;
/// 64-bit occupancy words covering the slots (64 × 64 = 4096).
const WORDS: usize = SLOTS / 64;

/// Handle to a scheduled event, usable with [`Engine::cancel`].
///
/// An id is only meaningful to the engine that issued it: `seq` indexes
/// that engine's private sequence space, so handing a handle from shard A
/// to shard B would silently cancel whatever event happens to share the
/// number. The id therefore carries the issuing engine's shard id (see
/// [`Engine::with_shard`]) and [`Engine::cancel`] panics on a mismatch
/// with a clear message instead of corrupting the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    seq: u64,
    /// Wheel tick of the scheduled time — lets `cancel` find the slot
    /// without a lookup table.
    tick: u64,
    /// Shard id of the issuing engine.
    shard: u32,
}

impl EventId {
    /// Shard id of the engine that issued this handle.
    pub fn shard(self) -> u32 {
        self.shard
    }
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn tick(&self) -> u64 {
        self.time.as_nanos() >> TICK_BITS
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so earliest time (then lowest
        // sequence number) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event queue over event type `E`.
pub struct Engine<E> {
    /// Near wheel: one slot per tick of the `[base_tick, base_tick + SLOTS)`
    /// window. Every stored entry's tick lies in that window (the migration
    /// invariant), so slot index ↔ tick is a bijection.
    slots: Vec<Vec<Entry<E>>>,
    /// One bit per slot; word `i` covers slots `[64 i, 64 i + 64)`.
    occupancy: [u64; WORDS],
    /// One bit per occupancy word with any bit set.
    summary: u64,
    /// Tick of the current time (`now >> TICK_BITS`, except transiently
    /// inside `pop` when jumping to a far event).
    base_tick: u64,
    /// Far events (tick at or beyond `base_tick + SLOTS`), min-first.
    overflow: BinaryHeap<Entry<E>>,
    /// Seqs of live (non-cancelled) overflow entries.
    overflow_live: HashSet<u64>,
    /// Seqs of cancelled overflow entries still physically in the heap;
    /// purged lazily on pop/migration, compacted when it outgrows half the
    /// live events.
    cancelled: HashSet<u64>,
    /// Live (scheduled, not yet popped or cancelled) event count.
    live: usize,
    next_seq: u64,
    now: SimTime,
    /// Stamped into every issued [`EventId`] so cross-shard cancel misuse
    /// is caught instead of corrupting another engine's queue.
    shard: u32,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at time zero, on shard 0 (the only shard of
    /// a single-engine run).
    pub fn new() -> Self {
        Self::with_shard(0)
    }

    /// Creates an empty engine at time zero that stamps `shard` into every
    /// [`EventId`] it issues. Sharded runs give each engine a distinct id so
    /// a cancel handle that strays across shards panics loudly.
    pub fn with_shard(shard: u32) -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; WORDS],
            summary: 0,
            base_tick: 0,
            overflow: BinaryHeap::new(),
            overflow_live: HashSet::new(),
            cancelled: HashSet::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            shard,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The shard id stamped into this engine's [`EventId`]s.
    pub fn shard_id(&self) -> u32 {
        self.shard
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.occupancy[slot >> 6] |= 1 << (slot & 63);
        self.summary |= 1 << (slot >> 6);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        let w = slot >> 6;
        self.occupancy[w] &= !(1 << (slot & 63));
        if self.occupancy[w] == 0 {
            self.summary &= !(1 << w);
        }
    }

    /// First occupied slot in wrap order starting at `start` (the slot of
    /// `base_tick`). Wrap order equals ascending-tick order because the
    /// window is exactly `SLOTS` ticks wide.
    fn first_occupied(&self, start: usize) -> Option<usize> {
        let sw = start >> 6;
        let head_mask = !0u64 << (start & 63);
        // Bits of the start word at or after `start`.
        let w = self.occupancy[sw] & head_mask;
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        // Later words, via the summary.
        if sw + 1 < WORDS {
            let s = self.summary & (!0u64 << (sw + 1));
            if s != 0 {
                let wi = s.trailing_zeros() as usize;
                return Some((wi << 6) + self.occupancy[wi].trailing_zeros() as usize);
            }
        }
        // Wrapped: words strictly before the start word.
        let s = self.summary & !(!0u64 << sw);
        if s != 0 {
            let wi = s.trailing_zeros() as usize;
            return Some((wi << 6) + self.occupancy[wi].trailing_zeros() as usize);
        }
        // Wrapped bits of the start word before `start`.
        let w = self.occupancy[sw] & !head_mask;
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        None
    }

    /// Removes and returns the `(time, seq)`-minimum entry of `slot`.
    fn take_min(&mut self, slot: usize) -> Entry<E> {
        let v = &mut self.slots[slot];
        let mut best = 0;
        for i in 1..v.len() {
            if (v[i].time, v[i].seq) < (v[best].time, v[best].seq) {
                best = i;
            }
        }
        let entry = v.swap_remove(best);
        if self.slots[slot].is_empty() {
            self.clear_bit(slot);
        }
        entry
    }

    /// Moves every overflow entry whose tick now falls inside the wheel
    /// window into its slot, dropping cancelled ones on the way.
    fn migrate(&mut self) {
        let horizon = self.base_tick + SLOTS as u64;
        while let Some(top) = self.overflow.peek() {
            if top.tick() >= horizon {
                break;
            }
            let entry = self.overflow.pop().expect("peeked");
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.overflow_live.remove(&entry.seq);
            let slot = entry.tick() as usize & SLOT_MASK;
            self.slots[slot].push(entry);
            self.set_bit(slot);
        }
    }

    /// Drops cancelled entries sitting at the overflow head.
    fn purge_overflow_head(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if !self.cancelled.remove(&top.seq) {
                break;
            }
            self.overflow.pop();
        }
    }

    /// Rebuilds the overflow heap without the cancelled entries and empties
    /// the dead set — the compaction step that keeps memory bounded under
    /// heavy schedule/cancel churn.
    fn compact_overflow(&mut self) {
        let cancelled = std::mem::take(&mut self.cancelled);
        let heap = std::mem::take(&mut self.overflow);
        self.overflow = heap
            .into_iter()
            .filter(|e| !cancelled.contains(&e.seq))
            .collect();
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic bug in the caller and panics.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let tick = at.as_nanos() >> TICK_BITS;
        let entry = Entry {
            time: at,
            seq,
            event,
        };
        if tick < self.base_tick + SLOTS as u64 {
            let slot = tick as usize & SLOT_MASK;
            self.slots[slot].push(entry);
            self.set_bit(slot);
        } else {
            self.overflow.push(entry);
            self.overflow_live.insert(seq);
        }
        self.live += 1;
        EventId {
            seq,
            tick,
            shard: self.shard,
        }
    }

    /// Schedules `event` `delay_ns` after the current time, using the one
    /// shared forward-arithmetic policy
    /// ([`SimTime::saturating_add_ns`]) — no per-call checked add.
    pub fn schedule_after(&mut self, delay_ns: u64, event: E) -> EventId {
        self.schedule(self.now.saturating_add_ns(delay_ns), event)
    }

    /// Cancels a scheduled event. Cancelling an already-fired or unknown id
    /// is a no-op (the id space is never reused, so this is safe). The id
    /// must come from *this* engine: a handle issued by another shard's
    /// engine panics, because its sequence number would otherwise silently
    /// cancel an unrelated local event.
    pub fn cancel(&mut self, id: EventId) {
        assert!(
            id.shard == self.shard,
            "EventId issued by shard {} used on shard {}: cancel handles are \
             only valid within the engine that issued them",
            id.shard,
            self.shard
        );
        if id.tick < self.base_tick {
            // Strictly before the current tick: fired long ago.
            return;
        }
        if id.tick < self.base_tick + SLOTS as u64 {
            // Wheel-resident (by the migration invariant) or already fired:
            // remove eagerly if present.
            let slot = id.tick as usize & SLOT_MASK;
            if let Some(pos) = self.slots[slot].iter().position(|e| e.seq == id.seq) {
                self.slots[slot].swap_remove(pos);
                if self.slots[slot].is_empty() {
                    self.clear_bit(slot);
                }
                self.live -= 1;
            }
            return;
        }
        // Overflow-resident and necessarily pending (its time is beyond the
        // whole wheel window, so it cannot have fired). Mark it dead; purge
        // happens lazily, compaction when the dead set dominates.
        if self.overflow_live.remove(&id.seq) {
            self.cancelled.insert(id.seq);
            self.live -= 1;
            if self.cancelled.len() > self.live / 2 {
                self.compact_overflow();
            }
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    /// Returns `None` when the queue has drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if let Some(slot) = self.first_occupied(self.base_tick as usize & SLOT_MASK) {
                let entry = self.take_min(slot);
                self.now = entry.time;
                let tick = entry.tick();
                if tick != self.base_tick {
                    self.base_tick = tick;
                    if !self.overflow.is_empty() {
                        self.migrate();
                    }
                }
                self.live -= 1;
                return Some((entry.time, entry.event));
            }
            // Wheel drained: jump to the earliest far event and re-home the
            // overflow entries that now fit the window.
            self.purge_overflow_head();
            let top_tick = self.overflow.peek()?.tick();
            self.base_tick = top_tick;
            self.migrate();
        }
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? > deadline {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if let Some(slot) = self.first_occupied(self.base_tick as usize & SLOT_MASK) {
            // All wheel entries precede all overflow entries; the slot's
            // minimum time is the next pop.
            return self.slots[slot].iter().map(|e| e.time).min();
        }
        self.purge_overflow_head();
        self.overflow.peek().map(|e| e.time)
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of physically stored entries, live or dead — the engine's
    /// memory footprint in events. Lazy purge plus compaction bound this at
    /// `1.5 × len() + 1`; the cancel-leak regression test pins that bound.
    pub fn stored_entries(&self) -> usize {
        let wheel: usize = (0..WORDS)
            .filter(|&w| self.occupancy[w] != 0)
            .map(|w| {
                let mut bits = self.occupancy[w];
                let mut n = 0;
                while bits != 0 {
                    let slot = (w << 6) + bits.trailing_zeros() as usize;
                    n += self.slots[slot].len();
                    bits &= bits - 1;
                }
                n
            })
            .sum();
        wheel + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(30), "c");
        e.schedule(SimTime::from_nanos(10), "a");
        e.schedule(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, ev)| ev).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(e.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut e = Engine::new();
        let t = SimTime::from_micros(1);
        for i in 0..100 {
            e.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, ev)| ev).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut e = Engine::new();
        let id = e.schedule(SimTime::from_nanos(5), "dead");
        e.schedule(SimTime::from_nanos(6), "alive");
        e.cancel(id);
        assert_eq!(e.len(), 1);
        assert_eq!(e.pop().unwrap().1, "alive");
        assert!(e.pop().is_none());
    }

    #[test]
    fn cancel_unknown_is_noop() {
        let mut e = Engine::<u8>::new();
        let id = e.schedule(SimTime::from_nanos(1), 0);
        assert_eq!(e.pop().unwrap().1, 0);
        e.cancel(id); // already fired
        assert!(e.pop().is_none());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(100), ());
        e.pop();
        e.schedule_after(50, ());
        assert_eq!(e.pop().unwrap().0, SimTime::from_nanos(150));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(10), 1);
        e.schedule(SimTime::from_nanos(100), 2);
        assert_eq!(e.pop_until(SimTime::from_nanos(50)).unwrap().1, 1);
        assert!(e.pop_until(SimTime::from_nanos(50)).is_none());
        assert_eq!(e.len(), 1);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(10), ());
        e.pop();
        e.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut e = Engine::new();
        let id = e.schedule(SimTime::from_nanos(1), "x");
        e.schedule(SimTime::from_nanos(2), "y");
        e.cancel(id);
        assert_eq!(e.peek_time(), Some(SimTime::from_nanos(2)));
    }

    #[test]
    fn far_events_cross_the_overflow_boundary() {
        // Events far beyond the wheel horizon (~262 µs) take the overflow
        // path and must still pop in exact (time, seq) order.
        let mut e = Engine::new();
        e.schedule(SimTime::from_millis(50), 5);
        e.schedule(SimTime::from_nanos(10), 1);
        e.schedule(SimTime::from_millis(10), 3);
        e.schedule(SimTime::from_millis(10), 4); // duplicate far timestamp
        e.schedule(SimTime::from_micros(100), 2);
        let order: Vec<_> = std::iter::from_fn(|| e.pop()).map(|(_, ev)| ev).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
        assert_eq!(e.now(), SimTime::from_millis(50));
    }

    #[test]
    fn cancel_works_on_both_sides_of_the_boundary() {
        let mut e = Engine::new();
        let near = e.schedule(SimTime::from_nanos(100), "near");
        let far = e.schedule(SimTime::from_millis(20), "far");
        e.schedule(SimTime::from_micros(1), "keep");
        assert_eq!(e.len(), 3);
        e.cancel(near);
        e.cancel(far);
        assert_eq!(e.len(), 1);
        assert_eq!(e.pop().unwrap().1, "keep");
        assert!(e.pop().is_none());
    }

    #[test]
    fn cancelled_far_event_does_not_resurface_after_migration() {
        let mut e = Engine::new();
        let far = e.schedule(SimTime::from_millis(1), "dead");
        e.schedule(SimTime::from_millis(1), "alive");
        e.cancel(far);
        e.cancel(far); // double cancel is a no-op
        assert_eq!(e.len(), 1);
        // Popping forces the wheel to jump and migrate the far events.
        assert_eq!(e.pop().unwrap().1, "alive");
        assert!(e.pop().is_none());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn interleaved_near_and_far_scheduling_stays_ordered() {
        // Schedule-as-you-pop, crossing the horizon repeatedly: the pattern
        // the pod simulation's sample timer produces.
        let mut e = Engine::new();
        e.schedule(SimTime::ZERO, 0u64);
        let mut expect = 0u64;
        let mut scheduled = 1u64;
        while let Some((t, k)) = e.pop() {
            assert_eq!(k, expect, "out of order at t={t}");
            expect += 1;
            if scheduled < 200 {
                // Alternate tiny and huge deltas.
                let delta = if scheduled.is_multiple_of(2) {
                    7
                } else {
                    400_000
                };
                e.schedule(t + delta, scheduled);
                scheduled += 1;
            }
        }
        assert_eq!(expect, 200);
    }

    #[test]
    fn cancel_churn_keeps_memory_bounded() {
        // Regression test for the cancel leak: 1M schedule/cancel cycles
        // against a standing population of far events must not accumulate
        // dead entries (the old heap kept every cancelled id forever).
        let mut e = Engine::new();
        let far = SimTime::from_secs(3600);
        for i in 0..100u64 {
            e.schedule(far + i, i); // standing live population
        }
        for i in 0..1_000_000u64 {
            let id = e.schedule(far + 1_000_000 + i, i);
            e.cancel(id);
            if i % 10_000 == 0 {
                assert!(
                    e.stored_entries() <= e.len() + e.len() / 2 + 1,
                    "iteration {i}: {} stored entries for {} live events",
                    e.stored_entries(),
                    e.len()
                );
            }
        }
        assert_eq!(e.len(), 100);
        assert!(e.stored_entries() <= 151);
        // The standing population is still intact and ordered.
        for i in 0..100u64 {
            assert_eq!(e.pop().unwrap().1, i);
        }
        assert!(e.pop().is_none());
    }

    #[test]
    fn event_ids_carry_their_shard() {
        let mut a = Engine::with_shard(3);
        assert_eq!(a.shard_id(), 3);
        let id = a.schedule(SimTime::from_nanos(10), ());
        assert_eq!(id.shard(), 3);
        a.cancel(id); // same shard: fine
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "EventId issued by shard 0 used on shard 1")]
    fn foreign_shard_cancel_panics() {
        let mut a = Engine::with_shard(0);
        let mut b = Engine::<()>::with_shard(1);
        let id = a.schedule(SimTime::from_nanos(10), ());
        b.cancel(id);
    }

    #[test]
    fn schedule_after_saturates_instead_of_overflowing() {
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(u64::MAX - 5), ());
        e.pop();
        e.schedule_after(u64::MAX, ());
        assert_eq!(e.pop().unwrap().0, SimTime::from_nanos(u64::MAX));
    }

    #[test]
    fn near_cancel_churn_is_eager() {
        // Wheel-resident cancels remove the entry on the spot: stored
        // entries never exceed live entries.
        let mut e = Engine::new();
        e.schedule(SimTime::from_nanos(50), 0u64);
        for i in 0..100_000u64 {
            let id = e.schedule(SimTime::from_nanos(100 + (i % 1000)), i);
            e.cancel(id);
            e.cancel(id); // double cancel stays a no-op
        }
        assert_eq!(e.len(), 1);
        assert_eq!(e.stored_entries(), 1);
    }
}
