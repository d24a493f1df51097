//! The engine's two-tier event queue.
//!
//! Most pending events in a busy simulation are timers far in the future:
//! every request arms a retransmission timer tens to hundreds of
//! milliseconds ahead, and raft elections and lease beats arm their own.
//! Nearly all of them fire as no-ops. In a single binary heap every event
//! pays a sift through all of them, so [`EventQueue`] keeps them apart:
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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::SimTime;

/// Width of one far bucket, as a power of two in nanoseconds. Fixed: the
/// pop order does not depend on it, only the cost does.
const SLICE_SHIFT: u32 = 20;

/// An entry an [`EventQueue`] can order: its [`Ord`] must sort by
/// [`Timed::at`] first (ties may break on anything).
pub trait Timed: Ord {
    /// Delivery time of the entry.
    fn at(&self) -> SimTime;
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
/// }
///
/// let mut q = EventQueue::new();
/// q.push(Ev(SimTime::from_nanos(200_000_000), 0)); // a far timer
/// q.push(Ev(SimTime::from_nanos(5), 1));
/// q.push(Ev(SimTime::from_nanos(5), 2));
/// assert_eq!(q.len(), 3);
/// assert_eq!(q.peek_at(), Some(SimTime::from_nanos(5)));
/// assert_eq!(q.pop(), Some(Ev(SimTime::from_nanos(5), 1)));
/// assert_eq!(q.pop(), Some(Ev(SimTime::from_nanos(5), 2)));
/// assert_eq!(q.pop(), Some(Ev(SimTime::from_nanos(200_000_000), 0)));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    near: BinaryHeap<Reverse<T>>,
    /// Exclusive bound of the near tier, in nanoseconds.
    horizon: u64,
    far: BTreeMap<u64, Vec<T>>,
    far_len: usize,
    /// Emptied bucket vectors kept for reuse. Without them every slice
    /// re-grows a fresh vector by doubling, and the churn costs several
    /// MiB of peak RSS through allocator fragmentation.
    spare: Vec<Vec<T>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            near: BinaryHeap::new(),
            horizon: 0,
            far: BTreeMap::new(),
            far_len: 0,
            spare: Vec::new(),
        }
    }
}

impl<T: Timed> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending entries across both tiers.
    pub fn len(&self) -> usize {
        self.near.len() + self.far_len
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        // Near is empty only if far is empty.
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

    /// Delivery time of the earliest entry.
    pub fn peek_at(&self) -> Option<SimTime> {
        self.near.peek().map(|Reverse(e)| e.at())
    }

    /// Removes and returns the earliest entry.
    pub fn pop(&mut self) -> Option<T> {
        let Reverse(entry) = self.near.pop()?;
        if self.near.is_empty() {
            self.refill();
        }
        Some(entry)
    }

    /// Pours the earliest far bucket into the (empty) near heap.
    fn refill(&mut self) {
        let Some((slice, mut bucket)) = self.far.pop_first() else {
            return;
        };
        self.horizon = slice_end(slice << SLICE_SHIFT);
        self.far_len -= bucket.len();
        // Heapify in one O(n) pass inside the near heap's own buffer, and
        // keep the bucket's buffer for a later slice.
        let mut heap = std::mem::take(&mut self.near).into_vec();
        heap.extend(bucket.drain(..).map(Reverse));
        self.near = BinaryHeap::from(heap);
        self.spare.push(bucket);
    }

    /// Removes every entry, in no particular order.
    pub fn drain(&mut self) -> impl Iterator<Item = T> {
        let near = std::mem::take(&mut self.near).into_vec();
        let far = std::mem::take(&mut self.far);
        self.far_len = 0;
        near.into_iter()
            .map(|Reverse(e)| e)
            .chain(far.into_values().flatten())
    }
}
