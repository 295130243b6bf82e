//! Deterministic event queue.
//!
//! The logical structure is a priority queue keyed by `(cycle, seq)` where
//! `seq` is a monotonically increasing insertion counter. Two events
//! scheduled for the same cycle are therefore delivered in the order they
//! were scheduled, independent of the payload type and of queue internals —
//! the property that makes whole-system runs bit-reproducible.
//!
//! Physically the queue is split in three, calendar-queue style, because
//! the simulator overwhelmingly schedules into the near future (small
//! wake-up and directory delays) and those schedules don't need heap
//! plumbing:
//!
//! - **Front buckets**: a ring of `BUCKETS` FIFO buckets covering cycles
//!   `[now, now + BUCKETS)`. Bucket `c % BUCKETS` holds events for exactly
//!   one cycle at a time (all queued cycles are `>= now`, and the window is
//!   exactly one period wide), so push and pop are O(1); a `u64` occupancy
//!   bitmask finds the earliest non-empty bucket without scanning.
//! - **Far heap**: a binary min-heap for events `>= now + BUCKETS` away.
//!   Entries are *not* migrated as `now` advances; instead every pop
//!   compares the earliest bucket entry with the heap front under the exact
//!   `(cycle, seq)` order, so an old far-future schedule and a fresh
//!   near-future one interleave precisely as a single heap would.
//! - **Token**: one retimable slot (see [`EventQueue::schedule_token`]),
//!   which the run loop uses for the network step. It competes with the
//!   two stores under the same order; when nothing else is due at or
//!   before its cycle, [`EventQueue::pop_lone_token`] pops it without
//!   building a batch.

use crate::clock::Cycle;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Width of the near-future calendar window, in cycles. Must stay at 64 so
/// the occupancy bitmask fits one machine word.
const BUCKETS: u64 = 64;

struct Entry<E> {
    cycle: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle && self.seq == other.seq
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
        // BinaryHeap is a max-heap; reverse to get the earliest event first.
        (other.cycle, other.seq).cmp(&(self.cycle, self.seq))
    }
}

/// Where the front event lives, so `pop` knows which store to drain.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrontSource {
    Bucket,
    Heap,
    Token,
}

/// Priority queue of simulation events with deterministic tie-breaking.
pub struct EventQueue<E> {
    /// Far-future events (cycle >= insertion-time `now + BUCKETS`).
    heap: BinaryHeap<Entry<E>>,
    /// Near-future ring: bucket `c % BUCKETS` holds `(seq, payload)` pairs
    /// for one cycle `c` in `[now, now + BUCKETS)`, in seq (FIFO) order.
    /// A drained bucket is cleared, which restarts it at its buffer front:
    /// `pop_front` alone never rewinds, so the head would walk the bucket's
    /// whole allocation and make all of it resident.
    buckets: Vec<VecDeque<(u64, E)>>,
    /// Bit `b` set iff `buckets[b]` is non-empty.
    bucket_mask: u64,
    /// Total events across all buckets.
    bucket_len: usize,
    /// Singleton retimable event (see [`EventQueue::schedule_token`]):
    /// `(cycle, seq, payload)`. Competes with the stores above under the
    /// same `(cycle, seq)` order; popped at most once per arming.
    token: Option<(Cycle, u64, E)>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the queue for about `capacity` concurrently scheduled
    /// events (e.g. the node count), `capacity` entries in all: half for the
    /// far heap, half spread over the front buckets. A store that needs more
    /// grows once and keeps it, so each bucket settles at its peak depth.
    pub fn with_capacity(capacity: usize) -> Self {
        let per_bucket = capacity.div_ceil(2 * BUCKETS as usize);
        Self {
            heap: BinaryHeap::with_capacity(capacity / 2),
            buckets: (0..BUCKETS as usize)
                .map(|_| VecDeque::with_capacity(per_bucket))
                .collect(),
            bucket_mask: 0,
            bucket_len: 0,
            token: None,
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulated time: the cycle of the most recently popped event.
    #[inline]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedule `payload` at absolute cycle `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the event is
    /// clamped to `now` so the simulation still makes forward progress, and
    /// debug builds assert.
    #[inline]
    pub fn schedule_at(&mut self, at: Cycle, payload: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.schedule_at_clamped(at, payload);
    }

    /// [`EventQueue::schedule_at`] without the debug assertion: a past `at`
    /// is silently clamped to `now`. The documented release-mode behaviour,
    /// callable directly where clamping is intended (and testable in debug
    /// builds).
    pub fn schedule_at_clamped(&mut self, at: Cycle, payload: E) {
        let cycle = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        if cycle - self.now < BUCKETS {
            let idx = (cycle % BUCKETS) as usize;
            self.buckets[idx].push_back((seq, payload));
            self.bucket_mask |= 1 << idx;
            self.bucket_len += 1;
        } else {
            self.heap.push(Entry {
                cycle,
                seq,
                payload,
            });
        }
    }

    /// Schedule `payload` `delay` cycles from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Cycle, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// Arm the queue's singleton *token* event at cycle `at`.
    ///
    /// The token is an ordinary event for ordering purposes — it takes a
    /// fresh seq number now and pops in exact `(cycle, seq)` order against
    /// everything else — but it lives in a dedicated slot so it can later be
    /// *retimed* ([`EventQueue::retime_token`]) without popping. The run
    /// loop uses it for the per-cycle network step: quiescent stretches are
    /// skipped by moving the token forward instead of popping a no-op per
    /// cycle. At most one token may be armed at a time.
    #[inline]
    pub fn schedule_token(&mut self, at: Cycle, payload: E) {
        debug_assert!(self.token.is_none(), "token already armed");
        debug_assert!(
            at >= self.now,
            "token scheduled in the past: {at} < {}",
            self.now
        );
        let cycle = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.token = Some((cycle, seq, payload));
    }

    /// Move the armed token to cycle `at`, keeping its payload but taking a
    /// fresh seq number — exactly as if it had been popped (as a no-op) and
    /// rescheduled at `at`. Panics in debug builds if no token is armed or
    /// `at` is in the past.
    #[inline]
    pub fn retime_token(&mut self, at: Cycle) {
        debug_assert!(
            at >= self.now,
            "token retimed into the past: {at} < {}",
            self.now
        );
        let slot = self.token.as_mut().expect("retime_token with no token");
        slot.0 = at.max(self.now);
        slot.1 = self.next_seq;
        self.next_seq += 1;
    }

    /// Cycle of the armed token, if any.
    #[inline]
    pub fn token_cycle(&self) -> Option<Cycle> {
        self.token.as_ref().map(|(c, _, _)| *c)
    }

    /// Cycle of the earliest pending *non-token* event, if any — what the
    /// queue front would be if the token were not armed. Used to pick the
    /// token's fast-forward target during network quiescence.
    #[inline]
    pub fn peek_cycle_ignoring_token(&self) -> Option<Cycle> {
        let bucket = self.front_bucket_cycle();
        let heap = self.heap.peek().map(|e| e.cycle);
        match (bucket, heap) {
            (Some(b), Some(h)) => Some(b.min(h)),
            (b, h) => b.or(h),
        }
    }

    /// Earliest bucket cycle `>= now`, if any bucket is occupied.
    #[inline]
    fn front_bucket_cycle(&self) -> Option<Cycle> {
        if self.bucket_mask == 0 {
            return None;
        }
        // Rotate the mask so bit 0 corresponds to `now`'s bucket; the first
        // set bit is then the distance to the earliest occupied cycle.
        let rot = self.bucket_mask.rotate_right((self.now % BUCKETS) as u32);
        Some(self.now + rot.trailing_zeros() as u64)
    }

    /// `(cycle, seq, source)` of the earliest pending event, if any.
    #[inline]
    fn front_key(&self) -> Option<(Cycle, u64, FrontSource)> {
        let bucket = self.front_bucket_cycle().map(|c| {
            let (seq, _) = self.buckets[(c % BUCKETS) as usize]
                .front()
                .expect("occupied bucket has a front");
            (c, *seq)
        });
        let heap = self.heap.peek().map(|e| (e.cycle, e.seq));
        let mut best = match (bucket, heap) {
            (Some((bc, bs)), Some((hc, hs))) => {
                if (bc, bs) < (hc, hs) {
                    Some((bc, bs, FrontSource::Bucket))
                } else {
                    Some((hc, hs, FrontSource::Heap))
                }
            }
            (Some((bc, bs)), None) => Some((bc, bs, FrontSource::Bucket)),
            (None, Some((hc, hs))) => Some((hc, hs, FrontSource::Heap)),
            (None, None) => None,
        };
        if let Some((tc, ts, _)) = &self.token {
            if best.is_none_or(|(c, s, _)| (*tc, *ts) < (c, s)) {
                best = Some((*tc, *ts, FrontSource::Token));
            }
        }
        best
    }

    /// Remove and return the front event from `source` (clock already
    /// advanced to its cycle by the caller).
    #[inline]
    fn take_front(&mut self, cycle: Cycle, source: FrontSource) -> E {
        match source {
            FrontSource::Bucket => {
                let idx = (cycle % BUCKETS) as usize;
                let bucket = &mut self.buckets[idx];
                let (_, payload) = bucket.pop_front().expect("front bucket entry");
                if bucket.is_empty() {
                    bucket.clear();
                    self.bucket_mask &= !(1 << idx);
                }
                self.bucket_len -= 1;
                payload
            }
            FrontSource::Heap => self.heap.pop().expect("front heap entry").payload,
            FrontSource::Token => self.token.take().expect("front token entry").2,
        }
    }

    /// Pop the earliest event, advancing the clock to its cycle.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (cycle, _, source) = self.front_key()?;
        debug_assert!(cycle >= self.now);
        self.now = cycle;
        let payload = self.take_front(cycle, source);
        Some((cycle, payload))
    }

    /// Pop *every* event scheduled for the earliest pending cycle into
    /// `out` (cleared first), in exact `(cycle, seq)` order, and advance the
    /// clock to that cycle. Returns the cycle, or `None` if the queue is
    /// empty. One call replaces a run of single [`EventQueue::pop`]s that a
    /// same-cycle batch would need — events scheduled *while the batch is
    /// being processed* land at later seq numbers and are picked up by the
    /// next call, exactly as they would be by one-at-a-time popping.
    ///
    /// The front is found once per batch. With the clock at `cycle`, bucket
    /// `cycle % BUCKETS` holds only that cycle's events, already in seq
    /// order; the far heap and the token can add events at the same cycle
    /// with seqs in between. So the bucket drains in runs, each bounded by
    /// the lower of two seqs: the heap front's (when it is at `cycle`) and
    /// the token's (when it is at `cycle`). The event holding that bound
    /// goes next, and the next run starts.
    pub fn pop_cycle_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        out.clear();
        let (cycle, _, _) = self.front_key()?;
        self.now = cycle;
        let idx = (cycle % BUCKETS) as usize;
        let bucket = &mut self.buckets[idx];
        let drained_before = bucket.len();
        loop {
            let heap_seq = self.heap.peek().filter(|e| e.cycle == cycle).map(|e| e.seq);
            let token_seq = self
                .token
                .as_ref()
                .filter(|(c, _, _)| *c == cycle)
                .map(|(_, s, _)| *s);
            let bound = heap_seq
                .unwrap_or(u64::MAX)
                .min(token_seq.unwrap_or(u64::MAX));
            while bucket.front().is_some_and(|(seq, _)| *seq < bound) {
                let (_, payload) = bucket.pop_front().expect("checked front");
                out.push(payload);
            }
            if heap_seq == Some(bound) {
                out.push(self.heap.pop().expect("peeked heap entry").payload);
            } else if token_seq == Some(bound) {
                out.push(self.token.take().expect("armed token").2);
            } else {
                break;
            }
        }
        debug_assert!(bucket.is_empty());
        bucket.clear();
        self.bucket_len -= drained_before;
        self.bucket_mask &= !(1 << idx);
        Some(cycle)
    }

    /// Pop the armed token if it is alone at the front: no bucket or heap
    /// event is due at or before its cycle. The clock advances to the
    /// token's cycle, exactly as [`EventQueue::pop_cycle_into`] would have
    /// left it after returning the one-event batch `[token]`; otherwise the
    /// queue is untouched and `None` comes back.
    #[inline]
    pub fn pop_lone_token(&mut self) -> Option<(Cycle, E)> {
        let cycle = self.token.as_ref()?.0;
        if self.peek_cycle_ignoring_token().is_some_and(|c| c <= cycle) {
            return None;
        }
        let (cycle, _, payload) = self.token.take()?;
        self.now = cycle;
        Some((cycle, payload))
    }

    /// Cycle of the earliest pending event, if any.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.front_key().map(|(c, _, _)| c)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bucket_len == 0 && self.heap.is_empty() && self.token.is_none()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.bucket_len + self.heap.len() + usize::from(self.token.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.schedule_in(3, ());
        assert_eq!(q.pop(), Some((10, ())));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(1, 1u32);
        q.schedule_at(5, 5);
        assert_eq!(q.pop(), Some((1, 1)));
        q.schedule_at(3, 3);
        q.schedule_at(2, 2);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 5)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_cross_into_the_bucket_window() {
        // Scheduled far (heap), popped after `now` has advanced to within
        // the bucket window — must interleave correctly with fresh
        // same-cycle bucket schedules by seq order.
        let mut q = EventQueue::new();
        q.schedule_at(1000, "far"); // heap (seq 0)
        q.schedule_at(1, "near");
        assert_eq!(q.pop(), Some((1, "near")));
        for c in 2..=999 {
            q.schedule_at(c, "tick");
            q.pop();
        }
        assert_eq!(q.now(), 999);
        q.schedule_at(1000, "bucketed"); // same cycle, later seq
        assert_eq!(q.pop(), Some((1000, "far")));
        assert_eq!(q.pop(), Some((1000, "bucketed")));
    }

    #[test]
    fn exact_bucket_window_boundary_goes_to_heap_and_still_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(63, "in-window");
        q.schedule_at(64, "boundary"); // exactly now + BUCKETS -> heap
        q.schedule_at(65, "beyond");
        assert_eq!(q.pop(), Some((63, "in-window")));
        assert_eq!(q.pop(), Some((64, "boundary")));
        assert_eq!(q.pop(), Some((65, "beyond")));
    }

    #[test]
    fn pop_cycle_into_batches_exactly_one_cycle() {
        let mut q = EventQueue::new();
        q.schedule_at(5, 1u32);
        q.schedule_at(5, 2);
        q.schedule_at(200, 9); // far heap entry, different cycle
        q.schedule_at(5, 3);
        let mut out = vec![99]; // stale content must be cleared
        assert_eq!(q.pop_cycle_into(&mut out), Some(5));
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(q.now(), 5);
        assert_eq!(q.pop_cycle_into(&mut out), Some(200));
        assert_eq!(out, vec![9]);
        assert_eq!(q.pop_cycle_into(&mut out), None);
        assert!(out.is_empty());
    }

    #[test]
    fn pop_cycle_into_merges_heap_and_bucket_entries_by_seq() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "heap-first"); // seq 0, far -> heap
                                          // Advance to 50 so cycle 100 is now inside the bucket window.
        q.schedule_at(50, "mid");
        q.pop();
        q.schedule_at(100, "bucket-second"); // seq 2 -> bucket
        let mut out = Vec::new();
        assert_eq!(q.pop_cycle_into(&mut out), Some(100));
        assert_eq!(out, vec!["heap-first", "bucket-second"]);
    }

    #[test]
    fn past_schedule_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "a");
        q.pop();
        q.schedule_at_clamped(3, "late"); // would assert via schedule_at
        assert_eq!(q.pop(), Some((10, "late")));
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn token_pops_in_cycle_seq_order_against_bucket_and_heap() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "bucket-before"); // seq 0
        q.schedule_token(5, "token"); // seq 1
        q.schedule_at(5, "bucket-after"); // seq 2
        q.schedule_at(500, "heap"); // seq 3, far -> heap
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((5, "bucket-before")));
        assert_eq!(q.pop(), Some((5, "token")));
        assert_eq!(q.token_cycle(), None, "popped token disarms the slot");
        assert_eq!(q.pop(), Some((5, "bucket-after")));
        assert_eq!(q.pop(), Some((500, "heap")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn token_alone_pops_and_can_be_rearmed() {
        let mut q = EventQueue::new();
        q.schedule_token(3, 30u32);
        assert!(!q.is_empty());
        assert_eq!(q.peek_cycle(), Some(3));
        assert_eq!(q.pop(), Some((3, 30)));
        assert!(q.is_empty());
        q.schedule_token(4, 40);
        assert_eq!(q.pop(), Some((4, 40)));
    }

    #[test]
    fn retimed_token_orders_like_a_fresh_schedule() {
        // Retiming must behave exactly as pop-and-reschedule: fresh seq, so
        // the token lands *after* events already queued for the new cycle
        // and *before* anything scheduled later.
        let mut q = EventQueue::new();
        q.schedule_token(1, "token");
        q.schedule_at(9, "early"); // seq 1, before the retime
        q.retime_token(9); // seq 2
        q.schedule_at(9, "late"); // seq 3
        assert_eq!(q.pop(), Some((9, "early")));
        assert_eq!(q.pop(), Some((9, "token")));
        assert_eq!(q.pop(), Some((9, "late")));
    }

    #[test]
    fn pop_cycle_into_includes_the_token() {
        let mut q = EventQueue::new();
        q.schedule_at(7, 1u32);
        q.schedule_token(7, 2);
        q.schedule_at(7, 3);
        q.schedule_at(8, 4);
        let mut out = Vec::new();
        assert_eq!(q.pop_cycle_into(&mut out), Some(7));
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(q.pop_cycle_into(&mut out), Some(8));
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn batch_pops_equal_one_at_a_time_pops_under_random_schedules() {
        use crate::rng::SimRng;

        // Pop `single` one event at a time for as long as its front is at
        // `cycle`: the sequence one `pop_cycle_into` must reproduce.
        fn pop_cycle_singly(single: &mut EventQueue<u64>, cycle: Cycle) -> Vec<u64> {
            let mut events = Vec::new();
            while single.peek_cycle() == Some(cycle) {
                events.push(single.pop().expect("peeked").1);
            }
            events
        }

        // Batches where bucket entries share their cycle with a far-heap
        // entry, with the token, and with both at once.
        let (mut with_heap, mut with_token, mut with_both) = (0, 0, 0);
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let mut batch = EventQueue::new();
            let mut single = EventQueue::new();
            let mut out = Vec::new();
            let mut next_id = 0u64;
            for round in 0..400 {
                let schedules = if round < 350 { rng.gen_range(6) } else { 0 };
                for _ in 0..schedules {
                    let now = batch.now();
                    // Near schedules land in the buckets and far ones in the
                    // heap; both windows are narrow, so a far entry's cycle
                    // later comes into reach of near schedules and the token.
                    let near = now + rng.gen_range(8);
                    let far = now + BUCKETS + rng.gen_range(16);
                    match rng.gen_range(5) {
                        0 | 1 => {
                            batch.schedule_at(near, next_id);
                            single.schedule_at(near, next_id);
                            next_id += 1;
                        }
                        2 => {
                            batch.schedule_at(far, next_id);
                            single.schedule_at(far, next_id);
                            next_id += 1;
                        }
                        3 if batch.token_cycle().is_none() => {
                            let at = now + rng.gen_range(BUCKETS + 16);
                            batch.schedule_token(at, next_id);
                            single.schedule_token(at, next_id);
                            next_id += 1;
                        }
                        _ if batch.token_cycle().is_some() => {
                            let at = now + rng.gen_range(BUCKETS + 16);
                            batch.retime_token(at);
                            single.retime_token(at);
                        }
                        _ => {}
                    }
                }
                let Some(cycle) = batch.peek_cycle() else {
                    continue;
                };
                if !batch.buckets[(cycle % BUCKETS) as usize].is_empty() {
                    let heap = batch.heap.peek().is_some_and(|e| e.cycle == cycle);
                    let token = batch.token_cycle() == Some(cycle);
                    with_heap += usize::from(heap);
                    with_token += usize::from(token);
                    with_both += usize::from(heap && token);
                }
                assert_eq!(batch.pop_cycle_into(&mut out), Some(cycle));
                assert_eq!(
                    out,
                    pop_cycle_singly(&mut single, cycle),
                    "seed {seed} cycle {cycle}"
                );
                assert_eq!((batch.now(), batch.len()), (single.now(), single.len()));
            }
            assert!(
                batch.is_empty() && single.is_empty(),
                "seed {seed}: drained"
            );
        }
        assert!(with_heap > 0, "no far-heap entry met a bucket's cycle");
        assert!(with_token > 0, "no token met a bucket's cycle");
        assert!(
            with_both > 0,
            "heap entry and token never met a bucket's cycle"
        );
    }

    /// A queue with `events` scheduled on top of the token armed at
    /// `token_at`, after the clock has moved to 10.
    fn queue_with_token(token_at: Cycle, events: &[Cycle]) -> EventQueue<u64> {
        let mut q = EventQueue::new();
        q.schedule_at(10, 0);
        q.pop();
        q.schedule_token(token_at, 1);
        for (i, &at) in events.iter().enumerate() {
            q.schedule_at(at, 2 + i as u64);
        }
        q
    }

    #[test]
    fn a_lone_token_pops_alone_and_anything_due_with_it_blocks_the_pop() {
        // Alone: later bucket and heap events stay queued.
        let mut q = queue_with_token(12, &[13, 12 + BUCKETS]);
        assert_eq!(q.pop_lone_token(), Some((12, 1)));
        assert_eq!((q.now(), q.len(), q.token_cycle()), (12, 2, None));
        // A bucket event, a heap event, or an earlier event at or before
        // the token's cycle: the token is not alone, and nothing moves.
        let heap_at_token = {
            // Scheduled far (heap), then reached by the clock.
            let mut q = EventQueue::new();
            q.schedule_at(100, 2);
            q.schedule_at(60, 0);
            q.pop();
            q.schedule_token(100, 1);
            q
        };
        for (case, mut q) in [
            (
                "bucket event at the token's cycle",
                queue_with_token(12, &[12]),
            ),
            ("heap event at the token's cycle", heap_at_token),
            ("earlier bucket event", queue_with_token(12, &[11])),
            ("earlier heap event", queue_with_token(200, &[10 + BUCKETS])),
        ] {
            let before = (q.now(), q.len(), q.token_cycle());
            assert_eq!(q.pop_lone_token(), None, "{case}");
            assert_eq!((q.now(), q.len(), q.token_cycle()), before, "{case}");
        }
        // No token armed.
        let mut q = queue_with_token(12, &[]);
        q.pop();
        q.schedule_at(20, 9);
        assert_eq!(q.pop_lone_token(), None);
        assert_eq!((q.now(), q.len()), (12, 1));
    }

    #[test]
    fn a_lone_token_pop_leaves_the_queue_as_a_batch_pop_would() {
        use crate::rng::SimRng;

        for seed in 0..16 {
            let mut rng = SimRng::new(seed);
            let (mut lone, mut batch) = (EventQueue::new(), EventQueue::new());
            let mut out = Vec::new();
            let mut popped_alone = 0;
            for round in 0..300u64 {
                for _ in 0..rng.gen_range(3) {
                    let at = lone.now() + rng.gen_range(2 * BUCKETS);
                    lone.schedule_at(at, round);
                    batch.schedule_at(at, round);
                }
                if lone.token_cycle().is_none() {
                    let at = lone.now() + rng.gen_range(4);
                    lone.schedule_token(at, u64::MAX);
                    batch.schedule_token(at, u64::MAX);
                }
                if let Some((cycle, payload)) = lone.pop_lone_token() {
                    popped_alone += 1;
                    assert_eq!(batch.pop_cycle_into(&mut out), Some(cycle));
                    assert_eq!(out, vec![payload], "seed {seed}");
                } else {
                    let cycle = batch.pop_cycle_into(&mut out);
                    let mut got = Vec::new();
                    assert_eq!(lone.pop_cycle_into(&mut got), cycle);
                    assert_eq!(got, out, "seed {seed}");
                }
                assert_eq!((lone.now(), lone.len()), (batch.now(), batch.len()));
                assert_eq!(lone.peek_cycle(), batch.peek_cycle());
            }
            assert!(popped_alone > 0, "seed {seed}: the token was never alone");
        }
    }

    #[test]
    fn peek_cycle_ignoring_token_skips_only_the_token() {
        let mut q = EventQueue::<u32>::new();
        q.schedule_token(2, 0);
        assert_eq!(q.peek_cycle(), Some(2));
        assert_eq!(q.peek_cycle_ignoring_token(), None);
        q.schedule_at(10, 1);
        q.schedule_at(300, 2); // far -> heap
        assert_eq!(q.peek_cycle_ignoring_token(), Some(10));
        assert_eq!(q.peek_cycle(), Some(2));
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for i in 0..200u64 {
            a.schedule_at(i / 3, i);
            b.schedule_at(i / 3, i);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    /// Entries reserved across the far heap and every front bucket.
    fn reserved<E>(q: &EventQueue<E>) -> usize {
        q.heap.capacity() + q.buckets.iter().map(VecDeque::capacity).sum::<usize>()
    }

    #[test]
    fn with_capacity_reserves_about_n_entries_in_total() {
        for n in [0, 16, 256, 1024, 4096] {
            let q = EventQueue::<u64>::with_capacity(n);
            let total = reserved(&q);
            assert!(
                (n..=n + BUCKETS as usize).contains(&total),
                "with_capacity({n}) reserved {total} entries"
            );
        }
    }

    #[test]
    fn a_drained_bucket_keeps_its_peak_capacity_and_restarts_at_its_front() {
        const PEAK: usize = 40;
        let mut q = EventQueue::<u64>::with_capacity(0);
        let idx = 0;
        let mut out = Vec::new();
        let mut settled = None;
        for round in 0..1_000 {
            // Cycle 0's bucket, drained and refilled at a depth that reaches
            // PEAK on the first round; alternate batch and single pops.
            let depth = if round == 0 { PEAK } else { 1 + round % PEAK };
            for i in 0..depth as u64 {
                q.schedule_at(0, i);
            }
            let front = q.buckets[idx].as_slices().0.as_ptr();
            let (cap, first) = *settled.get_or_insert((q.buckets[idx].capacity(), front));
            assert_eq!(q.buckets[idx].capacity(), cap, "round {round} regrew");
            assert_eq!(front, first, "round {round} did not restart at the front");
            if round % 2 == 0 {
                assert_eq!(q.pop_cycle_into(&mut out), Some(0));
                assert_eq!(out.len(), depth);
            } else {
                for i in 0..depth as u64 {
                    assert_eq!(q.pop(), Some((0, i)));
                }
            }
            assert!(q.is_empty());
        }
        let (cap, _) = settled.expect("at least one round");
        assert!(
            (PEAK..2 * PEAK).contains(&cap),
            "settled at {cap} for a peak of {PEAK}"
        );
    }
}
