//! Model test for the engine's two-tier [`EventQueue`].
//!
//! Every scenario runs the queue side by side with the obvious reference,
//! a `BinaryHeap<Reverse<(at, src, seq)>>`, and requires the two to agree
//! on every pop, every peek and every length, so the near-heap/far-bucket
//! split can never change the delivery order of a key that sorts by time
//! first. The model's key carries two tie-breakers; the engine's is
//! `(at, seq)`.

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
}

impl Pair {
    fn new() -> Self {
        Pair {
            queue: EventQueue::new(),
            reference: BinaryHeap::new(),
            seq: 0,
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
        self.check_head();
        got.map(|(at, _, _)| at)
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
    for _ in 0..2_000 {
        let at = draw_at(&mut rng, now);
        pair.push(at, rng.gen_range(0..2u32));
        if rng.gen_bool(0.2) {
            now = pair.pop().unwrap_or(now);
        }
    }
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
