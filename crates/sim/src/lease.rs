//! The member side of the lease protocol, shared by every leased
//! component: the SmartNIC and host worker backends (leased by the
//! failover controller) and the gateway shards (leased by the tier
//! controller). The controller side lives in `lnic::lease`.
//!
//! A member holds at most one [`Lease`] in a [`WorkerView`] and keeps
//! one [`CutTable`] of the peers a partition has cut it off from. It
//! follows three rules:
//!
//! 1. **An adopted grant replaces the held lease.** A grant at an epoch
//!    at least the member's own is adopted whole, `until` included, so
//!    a rejoin probe (which arrives already expired) stops serving
//!    until the regular grant that follows its ack.
//! 2. **A crash lapses the lease but keeps the epoch.** The fencing
//!    token is stable storage; the right to serve is not.
//! 3. **A cut peer is never answered.** Grants, pings and epoch queries
//!    from inside a partition cut never arrived.
//!
//! The messages themselves ([`GrantLease`], [`EpochQuery`],
//! [`NetCutFrom`]) are defined in [`crate::fault`].
//!
//! [`EpochQuery`]: crate::fault::EpochQuery

use crate::engine::ComponentId;
use crate::fault::{EpochReport, GrantLease, NetCutFrom};
use crate::hash::FastMap;
use crate::time::SimTime;

/// Whether a lease that runs out at `until` has provably expired at
/// `now` — the only condition under which fencing is safe.
#[inline]
pub fn provably_expired(now: SimTime, until: SimTime) -> bool {
    now >= until
}

/// A bounded lease: the right to serve requests at `epoch` until
/// `until`, and not a nanosecond longer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The fencing token this lease was granted under.
    pub epoch: u64,
    /// The instant the right to serve lapses.
    pub until: SimTime,
}

impl Lease {
    /// Whether the lease still authorizes serving at `now`.
    #[inline]
    pub fn live(&self, now: SimTime) -> bool {
        !provably_expired(now, self.until)
    }
}

/// A lease grant in flight from controller to member. Grants may be
/// lost (partition) but are never reordered with respect to other
/// grants to the same member (zero-delay direct delivery).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The epoch the grant carries (a rejoin grant bumps it).
    pub epoch: u64,
    /// The instant the granted lease runs out.
    pub until: SimTime,
    /// Whether this is a rejoin probe for a fenced member.
    pub rejoin: bool,
}

impl From<GrantLease> for Grant {
    fn from(g: GrantLease) -> Self {
        Grant {
            epoch: g.epoch,
            until: SimTime::from_nanos(g.until_ns),
            rejoin: g.rejoin,
        }
    }
}

/// The member's side of the protocol: the lease it currently holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerView {
    /// The lease the member last adopted, if any.
    pub lease: Option<Lease>,
}

impl WorkerView {
    /// A member that has never been granted a lease (serves unfenced,
    /// like a testbed without failover).
    pub fn new() -> Self {
        WorkerView { lease: None }
    }

    /// The member's current epoch (0 before any grant).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.lease.map_or(0, |l| l.epoch)
    }

    /// Whether the member believes it may serve at `now`. A member that
    /// has never held a lease serves unconditionally; one that has
    /// self-fences the moment its lease lapses.
    #[inline]
    pub fn live(&self, now: SimTime) -> bool {
        self.lease.is_none_or(|l| l.live(now))
    }

    /// Delivers a grant: adopted whole (rule 1) only when its token is
    /// at least as fresh as the member's own (tokens never regress).
    /// Returns the epoch to ack, or `None` when the grant was stale and
    /// dropped.
    pub fn deliver(&mut self, grant: Grant) -> Option<u64> {
        if grant.epoch < self.epoch() {
            return None;
        }
        self.lease = Some(Lease {
            epoch: grant.epoch,
            until: grant.until,
        });
        Some(grant.epoch)
    }

    /// A crash: the lease lapses and the epoch survives (rule 2), so the
    /// restarted member serves nothing until it is re-leased.
    pub fn lapse(&mut self) {
        if let Some(l) = &mut self.lease {
            l.until = SimTime::ZERO;
        }
    }

    /// The member's epoch when work stamped `epoch` must be refused at
    /// `now`, `None` when it may run. Work is refused once the lease has
    /// lapsed (self-fence until rejoin), or when it carries a token
    /// older than the held one. Epoch 0 marks unfenced work
    /// (worker-to-worker RPCs) and skips the staleness comparison; it is
    /// still refused once the lease lapses. A member that never held a
    /// lease refuses nothing.
    #[inline]
    pub fn fence_check(&self, now: SimTime, epoch: u64) -> Option<u64> {
        let l = self.lease?;
        (!l.live(now) || (epoch != 0 && epoch < l.epoch)).then_some(l.epoch)
    }

    /// The answer to an [`EpochQuery`](crate::fault::EpochQuery) from
    /// member `from`: the held epoch and when its lease runs out.
    pub fn report(&self, from: ComponentId) -> EpochReport {
        EpochReport {
            from,
            epoch: self.epoch(),
            lease_until_ns: self.lease.map_or(0, |l| l.until.as_nanos()),
        }
    }
}

/// The partition cuts a component is under: direct messages from a cut
/// peer never arrived until its cut ends.
#[derive(Clone, Debug, Default)]
pub struct CutTable {
    /// Peer component index → the instant its cut ends.
    until: FastMap<usize, SimTime>,
}

impl CutTable {
    /// Records `cut` as of `now`. Overlapping cuts of one peer keep the
    /// later end.
    pub fn apply(&mut self, now: SimTime, cut: &NetCutFrom) {
        let until = now + cut.duration;
        for peer in &cut.peers {
            let slot = self.until.entry(peer.index()).or_insert(until);
            *slot = (*slot).max(until);
        }
    }

    /// Whether a direct message from `peer` is inside an active cut.
    #[inline]
    pub fn is_cut(&self, now: SimTime, peer: ComponentId) -> bool {
        self.until
            .get(&peer.index())
            .is_some_and(|&until| now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    proptest! {
        /// Once lapsed, a lease never un-lapses as the clock advances.
        #[test]
        fn expiry_is_monotone_under_clock_advance(
            until_ns in 0u64..1_000_000,
            t0_ns in 0u64..1_000_000,
            dt_ns in 0u64..1_000_000,
        ) {
            let lease = Lease { epoch: 1, until: SimTime::from_nanos(until_ns) };
            let t0 = SimTime::from_nanos(t0_ns);
            let t1 = SimTime::from_nanos(t0_ns + dt_ns);
            if !lease.live(t0) {
                prop_assert!(!lease.live(t1), "lease un-lapsed between {t0:?} and {t1:?}");
            }
        }
    }

    #[test]
    fn stale_grant_is_dropped_by_worker() {
        let mut worker = WorkerView::new();
        assert_eq!(
            worker.deliver(Grant {
                epoch: 3,
                until: SimTime::from_nanos(100),
                rejoin: false
            }),
            Some(3)
        );
        assert_eq!(
            worker.deliver(Grant {
                epoch: 2,
                until: SimTime::from_nanos(200),
                rejoin: false
            }),
            None,
            "a stale token must not be adopted"
        );
        assert_eq!(worker.epoch(), 3);
    }

    #[test]
    fn rejoin_probe_replaces_a_live_lease_and_crash_keeps_the_epoch() {
        let now = SimTime::from_nanos(1_000);
        let mut worker = WorkerView::new();
        assert_eq!(worker.fence_check(now, 5), None, "never leased: serves");
        worker.deliver(Grant {
            epoch: 1,
            until: now + SimDuration::from_millis(100),
            rejoin: false,
        });
        assert_eq!(worker.fence_check(now, 1), None);
        assert_eq!(worker.fence_check(now, 0), None, "epoch 0 is unfenced");
        // The probe's until is `now`: the live lease is replaced, not
        // extended, and work at the new epoch waits for the next grant.
        worker.deliver(Grant {
            epoch: 2,
            until: now,
            rejoin: true,
        });
        assert_eq!(worker.fence_check(now, 2), Some(2));
        assert_eq!(worker.fence_check(now, 0), Some(2));
        worker.deliver(Grant {
            epoch: 2,
            until: now + SimDuration::from_millis(100),
            rejoin: false,
        });
        assert_eq!(worker.fence_check(now, 1), Some(2), "stale token");
        worker.lapse();
        assert!(!worker.live(now));
        let report = worker.report(ComponentId::from_index_for_tests(4));
        assert_eq!((report.epoch, report.lease_until_ns), (2, 0));
    }

    #[test]
    fn cut_table_keeps_the_later_end_and_passes_expired_and_unknown_peers() {
        let a = ComponentId::from_index_for_tests(1);
        let b = ComponentId::from_index_for_tests(2);
        let stranger = ComponentId::from_index_for_tests(3);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        let mut cuts = CutTable::default();
        cuts.apply(
            ms(0),
            &NetCutFrom {
                peers: vec![a, b],
                duration: SimDuration::from_millis(50),
            },
        );
        // Overlapping cut of `a` ending later, then one ending earlier:
        // the later end wins either way.
        cuts.apply(
            ms(10),
            &NetCutFrom {
                peers: vec![a],
                duration: SimDuration::from_millis(90),
            },
        );
        cuts.apply(
            ms(20),
            &NetCutFrom {
                peers: vec![a],
                duration: SimDuration::from_millis(5),
            },
        );
        assert!(cuts.is_cut(ms(99), a), "the later end is kept");
        assert!(!cuts.is_cut(ms(100), a), "the cut ends at its end");
        assert!(cuts.is_cut(ms(49), b));
        assert!(!cuts.is_cut(ms(50), b), "an expired cut passes");
        assert!(!cuts.is_cut(ms(0), stranger), "an unknown peer passes");
    }
}
