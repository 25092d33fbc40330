//! Property tests: `FlowTable` against a `std::collections::HashMap`
//! model-mirror under arbitrary churn, burst ≡ scalar equivalence, and the
//! `ExpiryWheel` contract.
//!
//! The mirror runs every operation through both structures. The flow table
//! is fixed-capacity, so the model mirrors rejections: when `insert`
//! answers `Full`, the model skips the insert too — every *other* outcome
//! (hit/miss, returned values, lengths, final contents) must be identical.
//! Keys are drawn from a domain a few times the capacity, so traces hit tag
//! collisions, full buckets/windows, and slot reuse (generation bumps)
//! constantly.

use std::collections::HashMap;

use albatross_mem::flowtab::{ExpiryWheel, FlowTable, InsertOutcome, SlotRef, WheelDecision};
use albatross_sim::SimTime;
use albatross_testkit::prelude::*;

/// One churn step: `op` selects insert/lookup/remove, `key` selects the
/// target from a small colliding domain, `val` is the payload.
type Step = (u8, u16, u64);

fn churn_against_model(cap: usize, key_domain: u64, trace: &[Step]) {
    let mut table: FlowTable<u64, u64> = FlowTable::with_capacity(cap);
    let mut model: HashMap<u64, u64> = HashMap::new();
    // Handles that must be stale forever (their slot generation was bumped).
    let mut dead_handles: Vec<SlotRef> = Vec::new();

    for (step, &(op, key, val)) in trace.iter().enumerate() {
        let key = u64::from(key) % key_domain;
        match op % 4 {
            0 | 3 => match table.insert(key, val) {
                InsertOutcome::Created(h) => {
                    assert!(
                        !model.contains_key(&key),
                        "step {step}: Created but model already had {key}"
                    );
                    model.insert(key, val);
                    assert_eq!(table.at(h), Some((&key, &val)), "step {step}");
                }
                InsertOutcome::Updated(h) => {
                    assert!(
                        model.contains_key(&key),
                        "step {step}: Updated but model lacked {key}"
                    );
                    model.insert(key, val);
                    assert_eq!(table.at(h), Some((&key, &val)), "step {step}");
                }
                InsertOutcome::Full => {
                    // Rejection is mirrored, and must only happen when the
                    // table is genuinely out of room for this key: at
                    // capacity, or the key's whole probe window is taken
                    // (only reachable when live entries crowd the window).
                    assert!(
                        !model.contains_key(&key),
                        "step {step}: existing key must always be refreshable"
                    );
                    assert!(
                        table.len() >= cap.min(8),
                        "step {step}: Full on a near-empty table"
                    );
                }
            },
            1 => {
                assert_eq!(
                    table.get(&key),
                    model.get(&key),
                    "step {step}: lookup({key}) diverged"
                );
            }
            _ => {
                let h = table.slot_of(&key);
                assert_eq!(table.remove(&key), model.remove(&key), "step {step}");
                if let Some(h) = h {
                    dead_handles.push(h);
                }
            }
        }
        assert_eq!(table.len(), model.len(), "step {step}: length diverged");
        for h in &dead_handles {
            assert_eq!(table.at(*h), None, "step {step}: stale handle resolved");
        }
    }

    // Final contents identical (table iterates in deterministic slot order).
    let mut got: Vec<(u64, u64)> = table.iter().map(|(_, k, v)| (*k, *v)).collect();
    let mut want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "final contents diverged");
}

props! {
    #![cases(48)]

    /// Exact HashMap equivalence (modulo mirrored `Full` rejections) under
    /// arbitrary insert/update/lookup/remove churn on a colliding key
    /// domain, with stale-handle checks at every step.
    fn table_matches_hashmap_model(
        trace in vec_of((any::<u8>(), any::<u16>(), any::<u64>()), 1..200),
    ) {
        // Domain ~1.5x capacity: full buckets and reuse are routine.
        churn_against_model(32, 48, &trace);
    }

    /// Same mirror on a tiny table, where every bucket is contended and
    /// `Full` fires often.
    fn tiny_table_matches_hashmap_model(
        trace in vec_of((any::<u8>(), any::<u16>(), any::<u64>()), 1..150),
    ) {
        churn_against_model(8, 12, &trace);
    }

    /// `insert_burst` equals N scalar `insert` calls — same outcomes in
    /// order (batch-internal duplicates resolve sequentially) and an
    /// identical table afterwards, at any fill level including Full.
    fn burst_insert_equals_scalar(
        prefill in vec_of((any::<u16>(), any::<u64>()), 0..40),
        batch in vec_of((any::<u16>(), any::<u64>()), 1..64),
    ) {
        let build = || {
            let mut t: FlowTable<u64, u64> = FlowTable::with_capacity(32);
            for &(k, v) in &prefill {
                let _ = t.insert(u64::from(k) % 48, v);
            }
            t
        };
        let items: Vec<(u64, u64)> = batch.iter().map(|&(k, v)| (u64::from(k) % 48, v)).collect();
        let mut a = build();
        let mut out = Vec::new();
        a.insert_burst(&items, &mut out);
        let mut b = build();
        let scalar: Vec<InsertOutcome> = items.iter().map(|&(k, v)| b.insert(k, v)).collect();
        assert_eq!(out, scalar);
        let av: Vec<_> = a.iter().map(|(_, k, v)| (*k, *v)).collect();
        let bv: Vec<_> = b.iter().map(|(_, k, v)| (*k, *v)).collect();
        assert_eq!(av, bv);
    }

    /// The expiry-wheel contract over arbitrary insert/touch/advance
    /// traces: (1) sound — only genuinely idle entries expire; (2) bounded
    /// lag — nothing overdue by more than one bucket width survives an
    /// advance; (3) conservation — created = live + expired + removed;
    /// (4) a final long advance drains everything.
    fn wheel_expires_exactly_the_idle_set(
        trace in vec_of((any::<u8>(), any::<u8>(), any::<u16>()), 1..150),
    ) {
        let timeout = SimTime::from_micros(500);
        let mut table: FlowTable<u64, u64> = FlowTable::with_capacity(64);
        let mut wheel = ExpiryWheel::for_timeout(timeout);
        let width = timeout.as_nanos().div_ceil(32);
        let mut now = 0u64;
        let mut created = 0u64;
        let mut expired = 0u64;
        for &(op, key, dt) in &trace {
            now += u64::from(dt); // up to ~65us between steps
            let key = u64::from(key) % 24;
            match op % 3 {
                0 => {
                    // Insert or touch: refresh last_active; arm on create.
                    match table.insert(key, now) {
                        InsertOutcome::Created(h) => {
                            created += 1;
                            wheel.schedule(h, SimTime::from_nanos(now + timeout.as_nanos()));
                        }
                        InsertOutcome::Updated(_) => {}
                        InsertOutcome::Full => unreachable!("domain < capacity"),
                    }
                }
                1 => {
                    if let Some(last) = table.get_mut(&key) {
                        *last = now; // touch without telling the wheel
                    }
                }
                _ => {
                    now += timeout.as_nanos() / 3; // let some entries idle out
                    let at = SimTime::from_nanos(now);
                    wheel.advance(at, |h| match table.at(h) {
                        None => WheelDecision::Expire, // stale handle: discard
                        Some((_, &last)) => {
                            if now - last > timeout.as_nanos() {
                                table.remove_slot(h).expect("validated live slot");
                                expired += 1;
                                WheelDecision::Expire
                            } else {
                                WheelDecision::KeepUntil(
                                    SimTime::from_nanos(last + timeout.as_nanos()),
                                )
                            }
                        }
                    });
                    // Bounded lag: anything overdue past the drained
                    // boundary by a full bucket is gone.
                    for (_, k, &last) in table.iter() {
                        assert!(
                            last + timeout.as_nanos() + 2 * width >= now.saturating_sub(width),
                            "key {k} overdue beyond wheel granularity"
                        );
                    }
                }
            }
            assert_eq!(created, table.len() as u64 + expired, "conservation");
        }
        // Final drain: advance far past every deadline; the table empties.
        let end = SimTime::from_nanos(now + 4 * timeout.as_nanos());
        wheel.advance(end, |h| {
            if table.remove_slot(h).is_some() {
                expired += 1;
            }
            WheelDecision::Expire
        });
        assert!(table.is_empty(), "entries survived the final drain");
        assert_eq!(created, expired);
        assert_eq!(wheel.pending(), 0);
    }
}
