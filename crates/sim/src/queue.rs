//! The engine's two-tier event queue.
//!
//! Most pending events in a busy simulation are timers far in the future:
//! every request arms a retransmission timer tens to hundreds of
//! milliseconds ahead, and raft elections and lease beats arm their own.
//! Most of them are settled before they are due, and their owners cancel
//! them. In a single binary heap every event pays a sift through all of
//! them, so [`EventQueue`] keeps them apart:
//!
//! * a small *near* binary heap holds every event with `at < horizon`;
//! * *far* events (`at >= horizon`) wait unsorted in per-time-slice
//!   buckets keyed by `at >> SLICE_SHIFT` (slices of 2^20 ns ≈ 1.05 ms).
//!
//! The near heap is empty only when the far buckets are too. When a pop
//! empties it, the earliest bucket is poured into it and the horizon moves
//! to that bucket's end. Every near event is earlier than the horizon and
//! every far event is at or past it, so the near heap's minimum is always
//! the global minimum and pop order is exactly the entries' [`Ord`] — for
//! the engine, `(at, seq)` — whatever the push interleaving.
//!
//! [`EventQueue::cancel`] withdraws any entry still pending without
//! searching for it: it records the entry's sequence number in one set.
//! A pour leaves the far entries the set names behind, and the queue
//! discards a near head it names, pouring the next bucket whenever the
//! heap empties, so the near heap's head is never a cancelled entry. The
//! queue remembers the last entry it popped and refuses a cancel at or
//! before it, since that entry has been delivered.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::hash::FastSet;
use crate::time::SimTime;

/// Width of one far bucket, as a power of two in nanoseconds. Fixed: the
/// pop order does not depend on it, only the cost does.
const SLICE_SHIFT: u32 = 20;

/// An entry an [`EventQueue`] can order: its [`Ord`] must sort by
/// [`Timed::at`] first (ties may break on anything).
pub trait Timed: Ord {
    /// Delivery time of the entry.
    fn at(&self) -> SimTime;
    /// A number no other entry of the same queue carries; it names the
    /// entry to [`EventQueue::cancel`].
    fn seq(&self) -> u64;
}

/// Exclusive end, in nanoseconds, of the slice holding `ns`.
fn slice_end(ns: u64) -> u64 {
    ((ns >> SLICE_SHIFT) + 1).saturating_mul(1 << SLICE_SHIFT)
}

/// A priority queue of [`Timed`] entries with a near heap and far
/// time-slice buckets (see the module docs).
///
/// # Examples
///
/// ```
/// use lnic_sim::queue::{EventQueue, Timed};
/// use lnic_sim::SimTime;
///
/// #[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
/// struct Ev(SimTime, u64);
/// impl Timed for Ev {
///     fn at(&self) -> SimTime {
///         self.0
///     }
///     fn seq(&self) -> u64 {
///         self.1
///     }
/// }
///
/// let mut q = EventQueue::new();
/// q.push(Ev(SimTime::from_nanos(200_000_000), 0)); // a far timer
/// q.push(Ev(SimTime::from_nanos(5), 1));
/// q.push(Ev(SimTime::from_nanos(5), 2));
/// q.push(Ev(SimTime::from_nanos(300_000_000), 3)); // settled early
/// assert!(q.cancel(SimTime::from_nanos(300_000_000), 3)); // far
/// assert!(q.cancel(SimTime::from_nanos(5), 2)); // near
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.peek_at(), Some(SimTime::from_nanos(5)));
/// assert_eq!(q.pop(), Some(Ev(SimTime::from_nanos(5), 1)));
/// assert!(!q.cancel(SimTime::from_nanos(5), 1)); // already delivered
/// assert_eq!(q.pop(), Some(Ev(SimTime::from_nanos(200_000_000), 0)));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    near: BinaryHeap<Reverse<T>>,
    /// Exclusive bound of the near tier, in nanoseconds.
    horizon: u64,
    far: BTreeMap<u64, Vec<T>>,
    /// Far entries, cancelled ones included.
    far_len: usize,
    /// Sequence numbers of the cancelled entries still in either tier.
    cancelled: FastSet<u64>,
    /// How many of them are in the near heap.
    near_cancelled: usize,
    /// `(at, seq)` of the last entry popped; a cancel at or before it is
    /// refused.
    last_popped: Option<(SimTime, u64)>,
    /// Emptied buckets kept for reuse. Without them every slice re-grows
    /// fresh vectors by doubling, and the churn costs several MiB of peak
    /// RSS through allocator fragmentation.
    spare: Vec<Vec<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            horizon: 0,
            far: BTreeMap::new(),
            far_len: 0,
            cancelled: FastSet::default(),
            near_cancelled: 0,
            last_popped: None,
            spare: Vec::new(),
        }
    }
}

impl<T: Timed> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending entries across both tiers, cancelled ones
    /// excluded.
    pub fn len(&self) -> usize {
        self.near.len() + self.far_len - self.cancelled.len()
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        // Near is empty only if far is empty, and its head is never a
        // cancelled entry.
        self.near.is_empty()
    }

    /// Adds an entry.
    pub fn push(&mut self, entry: T) {
        let ns = entry.at().as_nanos();
        if ns < self.horizon {
            self.near.push(Reverse(entry));
        } else if self.near.is_empty() {
            // Both tiers are empty: open the entry's slice as the new near
            // tier instead of parking it behind an empty heap.
            self.horizon = slice_end(ns);
            self.near.push(Reverse(entry));
        } else {
            let spare = &mut self.spare;
            self.far
                .entry(ns >> SLICE_SHIFT)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(entry);
            self.far_len += 1;
        }
    }

    /// Cancels the entry with sequence number `seq` due at `at`, and
    /// reports whether it did. An entry at or before the last one popped,
    /// in `(at, seq)` order, is refused: the engine's entries sort that
    /// way, so such an entry has been delivered. Every later one is
    /// withdrawn, whichever tier holds it.
    ///
    /// The pair must name an entry that was pushed and not already
    /// cancelled: the queue does not search for it, so a stray pair
    /// would make [`Self::len`] undercount. With an [`Ord`] that breaks
    /// ties on something before `seq`, a pending entry at the last
    /// popped instant may be refused; it is then delivered as usual.
    pub fn cancel(&mut self, at: SimTime, seq: u64) -> bool {
        if self.last_popped.is_some_and(|last| (at, seq) <= last) {
            return false;
        }
        let fresh = self.cancelled.insert(seq);
        debug_assert!(fresh, "cancelled twice");
        if at.as_nanos() < self.horizon {
            self.near_cancelled += 1;
            self.skip_cancelled();
        }
        true
    }

    /// Delivery time of the earliest entry.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.near.peek().map(|Reverse(e)| e.at())
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<T> {
        let Reverse(entry) = self.near.pop()?;
        self.last_popped = Some((entry.at(), entry.seq()));
        self.skip_cancelled();
        Some(entry)
    }

    /// Discards cancelled entries at the head of the near heap, pouring
    /// the next far bucket in whenever the heap empties.
    fn skip_cancelled(&mut self) {
        loop {
            match self.near.peek() {
                Some(Reverse(head))
                    if self.near_cancelled > 0 && self.cancelled.remove(&head.seq()) =>
                {
                    self.near.pop();
                    self.near_cancelled -= 1;
                }
                Some(_) => return,
                None if self.far.is_empty() => return,
                None => self.refill(),
            }
        }
    }

    /// Pours the earliest far bucket, less its cancelled entries, into
    /// the (empty) near heap.
    fn refill(&mut self) {
        if let Some((slice, mut bucket)) = self.far.pop_first() {
            self.horizon = slice_end(slice << SLICE_SHIFT);
            self.far_len -= bucket.len();
            // Heapify in one O(n) pass inside the near heap's own buffer,
            // and keep the bucket's buffer for a later slice.
            let cancelled = &mut self.cancelled;
            let live = bucket.drain(..).filter(|e| !cancelled.remove(&e.seq()));
            let mut heap = std::mem::take(&mut self.near).into_vec();
            heap.extend(live.map(Reverse));
            self.near = BinaryHeap::from(heap);
            self.spare.push(bucket);
        }
    }

    /// Removes every entry, in no particular order. Cancelled entries are
    /// not returned.
    pub fn drain(&mut self) -> impl Iterator<Item = T> {
        let near = std::mem::take(&mut self.near).into_vec();
        let far = std::mem::take(&mut self.far);
        let cancelled = std::mem::take(&mut self.cancelled);
        self.far_len = 0;
        self.near_cancelled = 0;
        near.into_iter()
            .map(|Reverse(e)| e)
            .chain(far.into_values().flatten())
            .filter(move |e| !cancelled.contains(&e.seq()))
    }
}
