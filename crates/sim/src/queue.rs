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
//! [`EventQueue::cancel`] removes a far entry without searching for it: it
//! records the entry's sequence number against its bucket, and the pour
//! leaves the recorded entries behind. A near entry cannot be cancelled;
//! it is delivered as if the cancel had not happened.

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
    /// A number no other entry of the same queue carries; it names the
    /// entry to [`EventQueue::cancel`].
    fn seq(&self) -> u64;
}

/// The entries of one far time slice, and the sequence numbers of those
/// among them that were cancelled.
#[derive(Debug)]
struct Bucket<T> {
    entries: Vec<T>,
    cancelled: Vec<u64>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            entries: Vec::new(),
            cancelled: Vec::new(),
        }
    }
}

impl<T: Timed> Bucket<T> {
    /// Drops the cancelled entries and clears the cancel list.
    fn sweep(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        self.cancelled.sort_unstable();
        let cancelled = &self.cancelled;
        self.entries
            .retain(|e| cancelled.binary_search(&e.seq()).is_err());
        self.cancelled.clear();
    }
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
/// assert!(q.cancel(SimTime::from_nanos(300_000_000), 3));
/// assert!(!q.cancel(SimTime::from_nanos(5), 2)); // near: refused
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
    far: BTreeMap<u64, Bucket<T>>,
    /// Far entries not cancelled.
    far_len: usize,
    /// Emptied buckets kept for reuse. Without them every slice re-grows
    /// fresh vectors by doubling, and the churn costs several MiB of peak
    /// RSS through allocator fragmentation.
    spare: Vec<Bucket<T>>,
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

    /// Number of pending entries across both tiers, cancelled ones
    /// excluded.
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
                .entries
                .push(entry);
            self.far_len += 1;
        }
    }

    /// Cancels the pending entry with sequence number `seq` due at `at`,
    /// if it waits in the far tier, and reports whether it did. A near
    /// entry (`at` below the horizon, which covers every instant already
    /// delivered) is left in place and will be delivered.
    ///
    /// The pair must name an entry that is pending and not already
    /// cancelled: the queue does not search for it, so a stray pair
    /// would make [`Self::len`] undercount.
    pub fn cancel(&mut self, at: SimTime, seq: u64) -> bool {
        let ns = at.as_nanos();
        if ns < self.horizon {
            return false;
        }
        let Some(bucket) = self.far.get_mut(&(ns >> SLICE_SHIFT)) else {
            return false;
        };
        debug_assert!(!bucket.cancelled.contains(&seq), "cancelled twice");
        bucket.cancelled.push(seq);
        self.far_len -= 1;
        true
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

    /// Pours the earliest far bucket with an entry left after its cancels
    /// into the (empty) near heap.
    fn refill(&mut self) {
        while let Some((slice, mut bucket)) = self.far.pop_first() {
            self.horizon = slice_end(slice << SLICE_SHIFT);
            bucket.sweep();
            self.far_len -= bucket.entries.len();
            // Heapify in one O(n) pass inside the near heap's own buffer,
            // and keep the bucket's buffers for a later slice.
            let mut heap = std::mem::take(&mut self.near).into_vec();
            heap.extend(bucket.entries.drain(..).map(Reverse));
            self.near = BinaryHeap::from(heap);
            self.spare.push(bucket);
            if !self.near.is_empty() {
                return;
            }
        }
    }

    /// Removes every entry, in no particular order. Cancelled entries are
    /// not returned.
    pub fn drain(&mut self) -> impl Iterator<Item = T> {
        let near = std::mem::take(&mut self.near).into_vec();
        let far = std::mem::take(&mut self.far);
        self.far_len = 0;
        near.into_iter()
            .map(|Reverse(e)| e)
            .chain(far.into_values().flat_map(|mut bucket| {
                bucket.sweep();
                bucket.entries
            }))
    }
}
