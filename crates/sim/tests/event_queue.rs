//! Model test for the engine's two-tier [`EventQueue`].
//!
//! Every scenario runs the queue side by side with the obvious reference,
//! a `BinaryHeap<Reverse<(at, src, seq)>>`, and requires the two to agree
//! on every pop, every peek and every length, so the near-heap/far-bucket
//! split can never change the delivery order of a key that sorts by time
//! first. The model's key carries two tie-breakers; the engine's is
//! `(at, seq)`. Cancels are mirrored too: a cancel the queue accepts
//! removes the key from the reference, and one it refuses leaves the
//! entry to be delivered, so an accepted cancel that still delivered, or
//! a refused one that lost its entry, shows up as a diverging pop. The
//! queue must withdraw every entry after the last one popped, in
//! `(at, seq)` order, and refuse the rest, in either tier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lnic_sim::queue::{EventQueue, Timed};
use lnic_sim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Width of one far bucket in nanoseconds (the queue's slice).
const SLICE: u64 = 1 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    at: SimTime,
    src: u32,
    seq: u64,
}

impl Timed for Ev {
    fn at(&self) -> SimTime {
        self.at
    }
    fn seq(&self) -> u64 {
        self.seq
    }
}

type Key = (u64, u32, u64);

fn key(e: &Ev) -> Key {
    (e.at.as_nanos(), e.src, e.seq)
}

/// The queue under test and its reference, driven in lockstep.
struct Pair {
    queue: EventQueue<Ev>,
    reference: BinaryHeap<Reverse<Key>>,
    seq: u64,
    last_popped: Option<Key>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            reference: BinaryHeap::new(),
            seq: 0,
            last_popped: None,
        }
    }

    fn push(&mut self, at_ns: u64, src: u32) {
        let ev = Ev {
            at: SimTime::from_nanos(at_ns),
            src,
            seq: self.seq,
        };
        self.seq += 1;
        self.reference.push(Reverse(key(&ev)));
        self.queue.push(ev);
        self.check_head();
    }

    fn pop(&mut self) -> Option<u64> {
        let want = self.reference.pop().map(|Reverse(k)| k);
        let got = self.queue.pop().map(|e| key(&e));
        assert_eq!(got, want, "pop order diverged from the reference heap");
        self.last_popped = got.or(self.last_popped);
        self.check_head();
        got.map(|(at, _, _)| at)
    }

    /// Cancels `k` in the queue, and in the reference when the queue
    /// withdrew it. Returns whether it did.
    fn cancel(&mut self, k: Key) -> bool {
        let withdrawn = self.queue.cancel(SimTime::from_nanos(k.0), k.2);
        let delivered = self
            .last_popped
            .is_some_and(|(at, _, seq)| (k.0, k.2) <= (at, seq));
        assert_eq!(
            withdrawn, !delivered,
            "a cancel after the last pop must withdraw, one at or before it must not"
        );
        if withdrawn {
            let before = self.reference.len();
            self.reference.retain(|Reverse(r)| *r != k);
            assert_eq!(
                self.reference.len() + 1,
                before,
                "cancelled a key not pending"
            );
        }
        self.check_head();
        withdrawn
    }

    /// A pending key picked at random.
    fn pick(&self, rng: &mut SmallRng) -> Option<Key> {
        let n = self.reference.len();
        (n > 0).then(|| self.reference.iter().nth(rng.gen_range(0..n)).unwrap().0)
    }

    fn check_head(&self) {
        assert_eq!(self.queue.len(), self.reference.len(), "len across tiers");
        assert_eq!(self.queue.is_empty(), self.reference.is_empty());
        assert_eq!(
            self.queue.peek_at().map(SimTime::as_nanos),
            self.reference.peek().map(|Reverse(k)| k.0),
            "peek diverged from the reference heap"
        );
    }

    fn drain_all(&mut self) {
        while self.pop().is_some() {}
    }
}

/// A delivery time relative to `now` in the shapes the engine sees: same
/// instant (ties), a few microseconds out, exactly on or next to a slice
/// boundary, and timers tens to hundreds of milliseconds ahead.
fn draw_at(rng: &mut SmallRng, now: u64) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => now,
        1 | 2 => now + rng.gen_range(0..20_000u64),
        3 => {
            let boundary = (now / SLICE + rng.gen_range(0..4u64)) * SLICE;
            match rng.gen_range(0..3u32) {
                0 => boundary.saturating_sub(1).max(now),
                1 => boundary.max(now),
                _ => boundary + 1,
            }
        }
        4 | 5 => now + rng.gen_range(50_000_000..200_000_000u64),
        6 => now + rng.gen_range(0..3 * SLICE),
        // Rare out-of-order push below the current head: the queue must
        // cope even though the engine never does this.
        _ => now.saturating_sub(rng.gen_range(0..5 * SLICE)),
    }
}

#[test]
fn random_interleaved_push_and_pop_match_the_reference() {
    for seed in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        for _ in 0..3_000 {
            if rng.gen_bool(0.55) || pair.reference.is_empty() {
                let at = draw_at(&mut rng, now);
                pair.push(at, rng.gen_range(0..4u32));
            } else if let Some(at) = pair.pop() {
                now = now.max(at);
            }
        }
        pair.drain_all();
        assert!(pair.queue.is_empty());
    }
}

#[test]
fn many_ties_at_one_instant_pop_in_src_seq_order() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut pair = Pair::new();
    let at = 3 * SLICE + 12_345;
    // A far event first, so the ties split across the near heap and (once
    // the head is past) a far bucket.
    pair.push(10, 0);
    for _ in 0..500 {
        pair.push(at, rng.gen_range(0..3u32));
    }
    pair.pop();
    for _ in 0..500 {
        pair.push(at, rng.gen_range(0..3u32));
        if rng.gen_bool(0.3) {
            pair.pop();
        }
    }
    pair.drain_all();
}

#[test]
fn entries_on_a_slice_boundary_order_against_both_neighbours() {
    let mut pair = Pair::new();
    pair.push(0, 0);
    for k in 1..6u64 {
        for at in [k * SLICE - 1, k * SLICE, k * SLICE + 1] {
            pair.push(at, 1);
            pair.push(at, 0);
        }
    }
    // Pop into the first boundary slice, then push onto the boundary the
    // horizon now sits on and onto the one just below it.
    for _ in 0..4 {
        pair.pop();
    }
    pair.push(2 * SLICE, 0);
    pair.push(2 * SLICE - 1, 2);
    pair.push(SLICE, 3);
    pair.drain_all();
}

#[test]
fn far_pushes_while_near_is_empty_open_a_new_slice() {
    let mut pair = Pair::new();
    // Empty queue: every push lands past any horizon.
    pair.push(10_000_000_000, 0);
    pair.push(20_000_000_000, 0);
    pair.push(10_000_000_001, 0);
    pair.pop();
    pair.pop();
    // Near holds only the 20 s event now; drain it and jump further out.
    pair.pop();
    assert!(pair.queue.is_empty());
    pair.push(900_000_000_000, 1);
    pair.push(5, 1); // far below the last horizon
    pair.push(u64::MAX, 0);
    pair.push(u64::MAX - 1, 0);
    pair.push(u64::MAX, 0);
    pair.drain_all();
}

#[test]
fn drain_returns_every_entry_across_both_tiers() {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut pair = Pair::new();
    let mut now = 0;
    let mut withdrawn = 0;
    for _ in 0..2_000 {
        let at = draw_at(&mut rng, now);
        pair.push(at, rng.gen_range(0..2u32));
        if rng.gen_bool(0.2) {
            now = pair.pop().unwrap_or(now);
        }
        if rng.gen_bool(0.1) {
            let k = pair.pick(&mut rng).expect("just pushed");
            withdrawn += usize::from(pair.cancel(k));
        }
    }
    assert!(withdrawn > 50, "drain must also skip cancelled entries");
    let before = pair.queue.len();
    assert!(before > 500, "scenario should leave both tiers populated");
    let mut drained: Vec<Key> = pair.queue.drain().map(|e| key(&e)).collect();
    drained.sort_unstable();
    let mut want: Vec<Key> = pair.reference.drain().map(|Reverse(k)| k).collect();
    want.sort_unstable();
    assert_eq!(drained, want);
    assert_eq!(pair.queue.len(), 0);
    assert!(pair.queue.is_empty());
    assert_eq!(pair.queue.peek_at(), None);
    // The drained queue is reusable.
    for _ in 0..200 {
        let at = draw_at(&mut rng, now);
        pair.push(at, 0);
    }
    pair.drain_all();
}

#[test]
fn random_cancels_match_the_reference() {
    let (mut withdrawn, mut near, mut refused, mut passed) = (0, 0, 0, 0);
    for seed in 0..48u64 {
        let mut rng = SmallRng::seed_from_u64(1_000 + seed);
        let mut pair = Pair::new();
        let mut now = 0u64;
        let mut delivered: Option<Key> = None;
        for _ in 0..3_000 {
            let roll = rng.gen_range(0..20u32);
            if roll < 10 || pair.reference.is_empty() {
                let at = draw_at(&mut rng, now);
                pair.push(at, rng.gen_range(0..4u32));
            } else if roll < 15 {
                delivered = pair.reference.peek().map(|Reverse(k)| *k);
                if let Some(at) = pair.pop() {
                    now = now.max(at);
                }
            } else if roll < 19 {
                let k = pair.pick(&mut rng).expect("non-empty");
                // In the last popped entry's slice: below the horizon.
                let in_near = pair.last_popped.is_some_and(|l| l.0 / SLICE == k.0 / SLICE);
                if pair.cancel(k) {
                    withdrawn += 1;
                    near += usize::from(in_near);
                } else {
                    // Pushed below the last pop, which the engine never
                    // does: refused, and delivered next.
                    refused += 1;
                }
            } else if let Some(k) = delivered {
                // A timer that already fired: its instant has passed.
                assert!(!pair.cancel(k), "cancelled an entry already delivered");
                passed += 1;
            }
        }
        pair.drain_all();
        assert!(pair.queue.is_empty());
    }
    assert!(withdrawn > 10_000, "withdrawn {withdrawn}");
    assert!(near > 2_000, "withdrawn from the near tier {near}");
    assert!(refused > 100, "refused {refused}");
    assert!(passed > 1_000, "passed {passed}");
}

#[test]
fn a_cancel_in_the_near_tier_withdraws_the_entry() {
    let mut pair = Pair::new();
    pair.push(10, 0);
    pair.push(20, 0);
    pair.push(30, 0);
    pair.push(5 * SLICE, 0);
    // 20 ns shares the open slice with the head: withdrawn all the same.
    assert!(pair.cancel((20, 0, 1)));
    // 5 slices out is far: withdrawn.
    assert!(pair.cancel((5 * SLICE, 0, 3)));
    assert_eq!(pair.pop(), Some(10));
    // Delivered: refused.
    assert!(!pair.cancel((10, 0, 0)));
    // The head itself: withdrawn, which empties the queue.
    assert!(pair.cancel((30, 0, 2)));
    assert!(pair.queue.is_empty());
    assert_eq!(pair.queue.len(), 0);
    assert_eq!(pair.queue.peek_at(), None);
}

#[test]
fn a_timer_that_opens_its_own_slice_is_withdrawn() {
    let mut pair = Pair::new();
    // Armed into an empty queue, the timer opens its slice as the near
    // tier, and everything before it lands in the near heap too.
    pair.push(200_000_000, 0);
    for at in [5, 1_000, 199_999_999] {
        pair.push(at, 1);
    }
    assert!(pair.cancel((200_000_000, 0, 0)));
    assert_eq!(pair.pop(), Some(5));
    // A second one, armed behind a pending event, is withdrawn too.
    pair.push(200_000_005, 0);
    assert!(pair.cancel((200_000_005, 0, 4)));
    pair.drain_all();
    assert!(pair.queue.is_empty());
}

#[test]
fn withdrawing_every_near_entry_pours_the_next_bucket() {
    let mut pair = Pair::new();
    pair.push(0, 0);
    pair.push(100, 0);
    pair.push(200, 0);
    pair.push(3 * SLICE + 5, 0);
    pair.push(7 * SLICE, 0);
    assert_eq!(pair.pop(), Some(0));
    // The head goes first, then the last near entry: the pour opens
    // slice 3, and `peek_at` never sees a withdrawn entry.
    assert!(pair.cancel((100, 0, 1)));
    assert_eq!(pair.queue.peek_at(), Some(SimTime::from_nanos(200)));
    assert!(pair.cancel((200, 0, 2)));
    assert_eq!(
        pair.queue.peek_at(),
        Some(SimTime::from_nanos(3 * SLICE + 5))
    );
    // Now slice 3 is the near tier; withdraw its only entry as well.
    assert!(pair.cancel((3 * SLICE + 5, 0, 3)));
    assert_eq!(pair.queue.peek_at(), Some(SimTime::from_nanos(7 * SLICE)));
    assert_eq!(pair.pop(), Some(7 * SLICE));
    assert!(pair.queue.is_empty());
}

#[test]
fn a_bucket_cancelled_empty_is_skipped() {
    let mut pair = Pair::new();
    pair.push(0, 0);
    // Slice 3 holds three entries, all cancelled; slice 4 one, kept;
    // slice 6 one, cancelled, leaving nothing behind it.
    for at in [3 * SLICE, 3 * SLICE + 7, 4 * SLICE - 1] {
        pair.push(at, 0);
    }
    pair.push(4 * SLICE + 9, 1);
    pair.push(6 * SLICE, 0);
    for k in [
        (3 * SLICE, 0, 1),
        (3 * SLICE + 7, 0, 2),
        (4 * SLICE - 1, 0, 3),
    ] {
        assert!(pair.cancel(k));
    }
    assert!(pair.cancel((6 * SLICE, 0, 5)));
    assert_eq!(pair.queue.len(), 2);
    assert_eq!(pair.pop(), Some(0));
    // The pour skipped the empty slice 3 and opened slice 4.
    assert_eq!(
        pair.queue.peek_at(),
        Some(SimTime::from_nanos(4 * SLICE + 9))
    );
    // A push below the skipped slice still sorts first.
    pair.push(3 * SLICE + 1, 2);
    assert_eq!(pair.pop(), Some(3 * SLICE + 1));
    assert_eq!(pair.pop(), Some(4 * SLICE + 9));
    // The last bucket cancelled empty too: the queue is empty.
    assert!(pair.queue.is_empty());
    assert_eq!(pair.queue.peek_at(), None);
    pair.push(2, 0);
    pair.drain_all();
}
