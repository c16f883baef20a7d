//! Hierarchical timer wheel: thousands of session deadlines, one sleeper.
//!
//! A per-session driver sleeps once per step; a server running `M`
//! sessions cannot afford `M` sleeping threads, nor a `BinaryHeap` whose
//! every reschedule costs `log M` comparisons on the hot path. The classic
//! answer (Varghese & Lauck) is a hierarchy of wheels: level 0 holds the
//! next [`SLOTS`] ticks at tick resolution, level `l` holds the next
//! `SLOTS^(l+1)` ticks at `SLOTS^l`-tick resolution. Scheduling and
//! per-tick advance are O(1) amortized; entries cascade one level down
//! when their coarse slot comes due.
//!
//! The wheel is deliberately *not* wall-clock-aware: it counts abstract
//! ticks and the shard maps them through its `TickClock`, the same
//! separation the real-time driver uses. Deadline-miss accounting
//! therefore stays where it already lives — in the shard's step loop —
//! and the wheel only answers "whose deadline is ≤ now?".

/// Slots per level. 64 keeps the cascade shallow (4 levels cover
/// 64⁴ ≈ 16.7M ticks) and makes slot arithmetic a mask.
pub const SLOTS: usize = 64;

/// Number of levels. Level 3 spans ~16.7M ticks; a session further out
/// than that is parked in the overflow list and re-examined on cascade.
pub const LEVELS: usize = 4;

/// Span of one slot at `level`, in ticks.
const fn slot_span(level: usize) -> u64 {
    (SLOTS as u64).pow(level as u32)
}

/// Span of the whole wheel at `level`, in ticks.
const fn level_span(level: usize) -> u64 {
    slot_span(level) * SLOTS as u64
}

/// One scheduled entry: an opaque token due at an absolute tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry<T> {
    due_tick: u64,
    token: T,
}

/// A hierarchical timer wheel over abstract ticks.
///
/// Tokens are opaque to the wheel (shards use session-table indices).
/// `advance(now)` returns every token whose deadline is ≤ `now`, in
/// deadline order within a tick.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `levels[l][s]` holds entries due in that slot's span.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Bit `s` of `occupied[l]` is set exactly when `levels[l][s]` holds
    /// an entry, so [`next_due`](Self::next_due) scans slots, not entries.
    occupied: [u64; LEVELS],
    /// Entries beyond the top level's horizon.
    overflow: Vec<Entry<T>>,
    /// Entries scheduled at or before `now` — returned by the next
    /// `advance` without waiting a full lap.
    overdue: Vec<Entry<T>>,
    /// The last tick `advance` fully processed.
    now: u64,
    /// Live entry count.
    len: usize,
}

impl<T: Copy> TimerWheel<T> {
    /// An empty wheel positioned at tick 0.
    #[must_use]
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; LEVELS],
            overflow: Vec::new(),
            overdue: Vec::new(),
            now: 0,
            len: 0,
        }
    }

    /// Number of scheduled entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tick `advance` has processed up to.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `token` at absolute tick `due_tick`. A deadline at or
    /// before the current tick is delivered by the next [`advance`]
    /// (deadlines in the past are the server's miss-accounting problem,
    /// not a scheduling error).
    ///
    /// [`advance`]: Self::advance
    pub fn schedule(&mut self, due_tick: u64, token: T) {
        self.len += 1;
        let entry = Entry { due_tick, token };
        if due_tick <= self.now {
            self.overdue.push(entry);
            return;
        }
        self.place(entry);
    }

    /// Files an entry (strictly in the future) into the finest level
    /// whose horizon reaches it.
    fn place(&mut self, entry: Entry<T>) {
        let delta = entry.due_tick - self.now;
        for level in 0..LEVELS {
            if delta < level_span(level) {
                let slot = (entry.due_tick / slot_span(level)) as usize % SLOTS;
                if let Some(entries) = self.slot_mut(level, slot) {
                    entries.push(entry);
                    if let Some(bits) = self.occupied.get_mut(level) {
                        *bits |= 1 << slot;
                    }
                    return;
                }
            }
        }
        self.overflow.push(entry);
    }

    /// Advances the wheel to `to`, appending every token whose deadline
    /// is ≤ `to` onto `due` in deadline order. Ticks are processed one at
    /// a time so cascades land exactly on their boundaries; `advance` to
    /// a tick already processed is a no-op.
    pub fn advance(&mut self, to: u64, due: &mut Vec<(u64, T)>) {
        // Entries that were scheduled late: deliver first, oldest deadline
        // first, so miss accounting sees them in order.
        if !self.overdue.is_empty() {
            self.overdue.sort_by_key(|e| e.due_tick);
            for e in self.overdue.drain(..) {
                self.len -= 1;
                due.push((e.due_tick, e.token));
            }
        }
        while self.now < to {
            self.now += 1;
            let tick = self.now;
            // Cascade coarser levels whose slot boundary this tick crosses.
            for level in 1..LEVELS {
                if tick % slot_span(level) == 0 {
                    let slot = (tick / slot_span(level)) as usize % SLOTS;
                    let entries = self.take_slot(level, slot);
                    for e in entries {
                        if e.due_tick <= self.now {
                            self.len -= 1;
                            due.push((e.due_tick, e.token));
                        } else {
                            self.place(e);
                        }
                    }
                }
            }
            if tick % level_span(LEVELS - 1) == 0 {
                let entries = std::mem::take(&mut self.overflow);
                for e in entries {
                    if e.due_tick <= self.now {
                        self.len -= 1;
                        due.push((e.due_tick, e.token));
                    } else {
                        self.place(e);
                    }
                }
            }
            let entries = self.take_slot(0, tick as usize % SLOTS);
            for e in entries {
                // A level-0 slot only holds entries within one lap, and we
                // visit every tick, so everything here is due exactly now.
                debug_assert_eq!(e.due_tick, tick);
                self.len -= 1;
                due.push((e.due_tick, e.token));
            }
        }
    }

    /// Checked slot lookup. `level < LEVELS` and `slot < SLOTS` hold at
    /// every call site by construction (the slot index is taken `% SLOTS`),
    /// but the wheel sits on the shard's panic-free data path, so access
    /// is bounds-checked rather than trusted.
    fn slot_mut(&mut self, level: usize, slot: usize) -> Option<&mut Vec<Entry<T>>> {
        self.levels.get_mut(level)?.get_mut(slot)
    }

    /// Empties one slot, clearing its occupancy bit.
    fn take_slot(&mut self, level: usize, slot: usize) -> Vec<Entry<T>> {
        if let Some(bits) = self.occupied.get_mut(level) {
            *bits &= !(1 << slot);
        }
        self.slot_mut(level, slot)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// The earliest scheduled deadline, or `None` when empty.
    ///
    /// Each level contributes the earliest entry of its first occupied
    /// slot in due order, found from the occupancy bitmap: the slots
    /// after the level's current one come first, and the current one
    /// last (it can only hold entries a full lap ahead). The overdue and
    /// overflow lists are scanned whole; both are empty in steady state.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        let mut best = self
            .overdue
            .iter()
            .chain(&self.overflow)
            .map(|e| e.due_tick)
            .min();
        for (level, &bits) in self.occupied.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            let start = (self.now / slot_span(level) + 1) as usize % SLOTS;
            let slot = (start + bits.rotate_right(start as u32).trailing_zeros() as usize) % SLOTS;
            let first = self
                .levels
                .get(level)
                .and_then(|l| l.get(slot))
                .and_then(|entries| entries.iter().map(|e| e.due_tick).min());
            best = match (best, first) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        best
    }
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Drains the wheel up to `to` and returns `(due_tick, token)` pairs.
    fn drain_to(w: &mut TimerWheel<u32>, to: u64) -> Vec<(u64, u32)> {
        let mut due = Vec::new();
        w.advance(to, &mut due);
        due
    }

    #[test]
    fn single_entry_fires_at_its_tick() {
        let mut w = TimerWheel::new();
        w.schedule(5, 1u32);
        assert_eq!(w.len(), 1);
        assert!(drain_to(&mut w, 4).is_empty());
        assert_eq!(drain_to(&mut w, 5), vec![(5, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn overdue_entries_fire_immediately() {
        let mut w = TimerWheel::new();
        drain_to(&mut w, 100);
        w.schedule(50, 7u32); // already past
        w.schedule(100, 8u32); // exactly now
        assert_eq!(drain_to(&mut w, 100), vec![(50, 7), (100, 8)]);
    }

    #[test]
    fn entries_cascade_across_level_boundaries() {
        // Deadlines straddling the level-0 lap (64) and the level-1 lap
        // (4096) — the classic off-by-one territory of wheel cascades.
        let mut w = TimerWheel::new();
        for due in [63u64, 64, 65, 4095, 4096, 4097, 300_000] {
            w.schedule(due, due as u32);
        }
        let mut fired = Vec::new();
        w.advance(300_000, &mut fired);
        let ticks: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
        assert_eq!(ticks, vec![63, 64, 65, 4095, 4096, 4097, 300_000]);
        for (d, t) in fired {
            assert_eq!(d as u32, t, "token must fire at its own deadline");
        }
    }

    #[test]
    fn matches_a_reference_model_under_pseudorandom_load() {
        // Differential test against a BTreeMap priority queue: same
        // deadlines in, same (sorted-by-deadline) tokens out at every
        // advance, across cascade boundaries. A simple LCG provides
        // deterministic "randomness" without a dependency.
        let mut w = TimerWheel::new();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut lcg: u64 = 0x1234_5678;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut token = 0u32;
        let mut now = 0u64;
        for round in 0..200 {
            // Schedule a burst at mixed horizons: near, mid, far.
            for _ in 0..8 {
                let horizon = match next() % 3 {
                    0 => 1 + next() % 60,         // level 0
                    1 => 64 + next() % 4000,      // level 1
                    _ => 4096 + next() % 250_000, // level 2+
                };
                let due = now + horizon;
                w.schedule(due, token);
                model.entry(due).or_default().push(token);
                token += 1;
                assert_eq!(
                    w.next_due(),
                    model.keys().next().copied(),
                    "next_due diverged after schedule at now={now}"
                );
            }
            // Advance by an uneven stride, sometimes crossing boundaries.
            now += 1 + next() % (if round % 5 == 0 { 10_000 } else { 97 });
            let mut fired = Vec::new();
            w.advance(now, &mut fired);
            let mut expected = Vec::new();
            let still_due: BTreeMap<u64, Vec<u32>> = model.split_off(&(now + 1));
            for (d, toks) in std::mem::replace(&mut model, still_due) {
                for t in toks {
                    expected.push((d, t));
                }
            }
            // The wheel guarantees deadline order across ticks; entries
            // sharing a deadline may interleave differently than the
            // model (cascade timing), so compare as a multiset.
            assert!(
                fired.windows(2).all(|w| w[0].0 <= w[1].0),
                "deadline order violated at now={now}: {fired:?}"
            );
            let mut fired_sorted = fired.clone();
            fired_sorted.sort_unstable();
            expected.sort_unstable();
            assert_eq!(fired_sorted, expected, "divergence at now={now}");
            assert_eq!(
                w.next_due(),
                model.keys().next().copied(),
                "next_due diverged after advance to {now}"
            );
        }
        // Drain everything left and check emptiness agreement.
        let mut fired = Vec::new();
        w.advance(now + 400_000, &mut fired);
        let remaining: usize = model.values().map(Vec::len).sum();
        assert_eq!(fired.len(), remaining);
        assert!(w.is_empty());
    }

    #[test]
    fn occupancy_is_conserved_through_every_drain() {
        // The wheel-level half of the handover invariant: a scheduled
        // deadline is either returned by `advance` — where the shard
        // steps it or, for a paused mid-handover session, reports it
        // migrated — or still occupies the wheel. It is never silently
        // dropped. Conservation (`scheduled == fired + len()`) is
        // checked after every operation under pseudorandom load across
        // cascade boundaries, with a "paused" subset standing in for
        // sessions mid-handover so both accounting flavors are
        // exercised at drain time.
        let mut w = TimerWheel::new();
        let mut lcg: u64 = 0x000D_EFAC_EDFA_CADE;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut scheduled: u64 = 0;
        let mut stepped: u64 = 0;
        let mut migrated: u64 = 0;
        let mut fired_once = Vec::new();
        let mut token = 0u32;
        let mut now = 0u64;
        for round in 0..300 {
            for _ in 0..6 {
                let horizon = match next() % 4 {
                    0 => next() % 64,             // level 0, possibly overdue
                    1 => 64 + next() % 4000,      // level 1
                    2 => 4096 + next() % 250_000, // level 2+
                    _ => 0,                       // due exactly now
                };
                w.schedule(now + horizon, token);
                fired_once.push(0u32);
                scheduled += 1;
                token += 1;
                assert_eq!(
                    u64::try_from(w.len()).unwrap(),
                    scheduled - stepped - migrated,
                    "occupancy drifted after schedule at now={now}"
                );
            }
            now += 1 + next() % (if round % 7 == 0 { 300_000 } else { 61 });
            let mut due = Vec::new();
            w.advance(now, &mut due);
            for (d, t) in due {
                assert!(d <= now, "future deadline fired: {d} > {now}");
                fired_once[t as usize] += 1;
                // Every third session is "paused" mid-handover: its
                // deadline still fires here and is accounted as
                // migrated, mirroring the shard's sweep.
                if t % 3 == 0 {
                    migrated += 1;
                } else {
                    stepped += 1;
                }
            }
            assert_eq!(
                u64::try_from(w.len()).unwrap(),
                scheduled - stepped - migrated,
                "occupancy drifted after drain at now={now}"
            );
        }
        // Final drain: everything scheduled has fired exactly once.
        let mut due = Vec::new();
        w.advance(now + 20_000_000, &mut due);
        for (_, t) in due {
            fired_once[t as usize] += 1;
        }
        assert!(w.is_empty());
        assert!(
            fired_once.iter().all(|&n| n == 1),
            "a deadline fired zero or multiple times: {:?}",
            fired_once
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n != 1)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn next_due_tracks_the_earliest_deadline() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_due(), None);
        w.schedule(500, 1u32);
        w.schedule(20, 2u32);
        w.schedule(70_000, 3u32);
        assert_eq!(w.next_due(), Some(20));
        drain_to(&mut w, 20);
        assert_eq!(w.next_due(), Some(500));
        drain_to(&mut w, 500);
        assert_eq!(w.next_due(), Some(70_000));
    }

    #[test]
    fn next_due_visits_the_current_slot_last() {
        // At tick 50 a level-1 deadline one lap ahead (4110) shares the
        // current level-1 slot; an earlier level-1 deadline (200) sits in
        // a later slot and must win.
        let mut w = TimerWheel::new();
        drain_to(&mut w, 50);
        w.schedule(4110, 1u32);
        assert_eq!(w.next_due(), Some(4110));
        w.schedule(200, 2u32);
        assert_eq!(w.next_due(), Some(200));
        assert_eq!(drain_to(&mut w, 4110), vec![(200, 2), (4110, 1)]);
    }

    #[test]
    fn reschedule_pattern_of_a_paced_session() {
        // A session stepping every gap=2 ticks, rescheduled after each
        // firing — the shard's actual usage pattern.
        let mut w = TimerWheel::new();
        w.schedule(2, 0u32);
        let mut fires = Vec::new();
        let mut t = 0;
        while fires.len() < 50 {
            t += 1;
            let mut due = Vec::new();
            w.advance(t, &mut due);
            for (d, tok) in due {
                fires.push(d);
                w.schedule(d + 2, tok);
            }
        }
        let expected: Vec<u64> = (1..=50).map(|i| i * 2).collect();
        assert_eq!(fires, expected);
    }
}
