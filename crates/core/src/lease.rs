//! The lease-membership core shared by both membership controllers:
//! [`crate::failover::FailoverController`] (workers) and
//! [`crate::gwtier::TierController`] (gateway shards).
//!
//! Three layers, each used by both controllers:
//!
//! - **Lease/epoch algebra.** The controller side ([`ControllerView`]),
//!   with no simulation machinery, so the safety arguments can be
//!   property-tested directly against the member side ([`WorkerView`],
//!   re-exported from [`lnic_sim::lease`], which every leased NIC, host
//!   and gateway shard runs) over arbitrary interleavings of grants,
//!   message loss, clock advance, member crashes, fencing, and rejoin.
//! - **Member table and round.** One `Member` record per member and
//!   one per-round `Decision`: renew, rejoin probe, fence once the
//!   last lease has provably expired, or hold.
//! - **Control-plane lifecycle.** `ControlPlane` and the
//!   `Membership` trait: crash/restart with timer generations,
//!   partition cuts ([`NetCutFrom`], one [`CutTable`]), snapshot cadence with
//!   write-through, and restore reconciliation. Each controller is an
//!   adapter that says what a round, a snapshot and a restore mean for
//!   its members and which events it emits.
//!
//! The algebra's safety properties:
//!
//! - **Expiry is monotone under clock advance** — once a lease has
//!   lapsed it never un-lapses.
//! - **Fencing tokens never regress** — neither side ever adopts a
//!   smaller epoch, including across rejoin and controller restart.
//! - **At most one unfenced owner** — the controller fences only when
//!   the last lease it granted has *provably* expired, and grants are
//!   bounded promises, so there is no instant at which the controller
//!   considers a member fenced while that member still believes its
//!   lease is live.
//!
//! The invariants hold because of two structural facts mirrored from
//! the real protocol: the controller records `lease_until` *before*
//! the grant leaves (so its record upper-bounds the member's view even
//! if the grant is lost), and a member only adopts a grant whose epoch
//! is at least its own.

use lnic_sim::fault::{Crash, GrantLease, NetCutFrom, Restart};
use lnic_sim::lease::CutTable;
use lnic_sim::prelude::*;

pub use lnic_sim::lease::{provably_expired, Grant, Lease, WorkerView};

/// The controller's bookkeeping for one member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerView {
    /// The member's current fencing token, as the controller knows it.
    pub epoch: u64,
    /// Upper bound on when any lease the controller ever granted to
    /// this member runs out.
    pub lease_until: SimTime,
    /// Whether the member is fenced (work at its old epoch is dead).
    pub fenced: bool,
}

impl ControllerView {
    /// A fresh member at the initial epoch, holding no lease.
    pub fn new(epoch: u64) -> Self {
        ControllerView {
            epoch,
            lease_until: SimTime::ZERO,
            fenced: false,
        }
    }

    /// Rebuilds a member view from restored (snapshot) state, with the
    /// lease horizon conservatively re-bounded to `now + duration`.
    ///
    /// A snapshot's `lease_until` may be stale by the time the restore
    /// runs, but the restoring controller cannot know how much serving
    /// time it promised after the snapshot was taken; the only safe
    /// assumption is that a grant left the instant before the crash, so
    /// the restored horizon is the *maximum* of the recorded bound and
    /// `now + duration`. This keeps [`ControllerView::try_fence`]'s
    /// precondition sound across a restore: fencing stays blocked until
    /// every lease the pre-crash controller *could* have granted has
    /// provably expired.
    pub fn restore(
        epoch: u64,
        fenced: bool,
        recorded_until: SimTime,
        now: SimTime,
        duration: SimDuration,
    ) -> Self {
        ControllerView {
            epoch,
            lease_until: recorded_until.max(now + duration),
            fenced,
        }
    }

    /// Issues a lease grant (or, for a fenced member, a rejoin probe).
    /// The controller extends its own `lease_until` record first, so the
    /// record upper-bounds the member's view even if the grant is lost.
    ///
    /// A rejoin probe carries the bumped epoch but **zero serving
    /// time**: if it granted a lease, a member whose acks are being
    /// blackholed (asymmetric cut) would resume serving while the
    /// controller still considers it fenced — exactly the split brain
    /// fencing exists to prevent. The member earns a real lease only
    /// after its ack round-trips and the controller un-fences it.
    pub fn grant(&mut self, now: SimTime, duration: SimDuration) -> Grant {
        if self.fenced {
            Grant {
                epoch: self.epoch + 1,
                until: now,
                rejoin: true,
            }
        } else {
            let until = now + duration;
            self.lease_until = self.lease_until.max(until);
            Grant {
                epoch: self.epoch,
                until,
                rejoin: false,
            }
        }
    }

    /// Attempts to fence the member; succeeds only once the last lease
    /// the controller ever granted has provably expired.
    pub fn try_fence(&mut self, now: SimTime) -> bool {
        if self.fenced || !provably_expired(now, self.lease_until) {
            return false;
        }
        self.fenced = true;
        true
    }

    /// Processes a member's ack at `ack_epoch`: a fenced member acking
    /// a strictly fresher token completes the rejoin handshake.
    pub fn on_ack(&mut self, now: SimTime, ack_epoch: u64, duration: SimDuration) {
        if self.fenced && ack_epoch > self.epoch {
            self.epoch = ack_epoch;
            self.fenced = false;
            self.lease_until = self.lease_until.max(now + duration);
        } else if ack_epoch > self.epoch {
            self.epoch = ack_epoch;
        }
    }

    /// Adopts a member's answer to a restore-time epoch query: neither
    /// the epoch nor the lease bound ever moves backwards. Returns
    /// whether the reported epoch was ahead of the recorded one (the
    /// member completed a rejoin the restored snapshot missed).
    pub fn reconcile(&mut self, epoch: u64, until: SimTime) -> bool {
        let ahead = epoch > self.epoch;
        self.epoch = self.epoch.max(epoch);
        self.lease_until = self.lease_until.max(until);
        ahead
    }
}

/// One member of a lease-membership table, as its controller sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Member {
    /// The member's component: grants go to it, and acks and epoch
    /// reports are matched on it.
    pub component: ComponentId,
    /// The lease/epoch bookkeeping.
    pub view: ControllerView,
    /// Consecutive silent rounds.
    pub missed: u32,
    /// Heard from (ack or pong) during the current round.
    pub acked: bool,
}

/// What one lease round does with a member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Send this grant: a renewal or, with `rejoin` set, a probe for a
    /// fenced member.
    Grant(Grant),
    /// Silent past the miss threshold and its last lease provably
    /// expired: the member was fenced this round.
    Fence,
    /// Silent past the threshold while its last lease may still be
    /// live: neither renew nor fence yet.
    Hold,
}

impl Member {
    /// A member at `epoch`, holding no lease and not yet heard from.
    pub fn new(component: ComponentId, epoch: u64) -> Self {
        Member {
            component,
            view: ControllerView::new(epoch),
            missed: 0,
            acked: false,
        }
    }

    /// Records that the member answered during the current round.
    pub fn heard(&mut self) {
        self.acked = true;
        self.missed = 0;
    }

    /// Closes the current round's tally: a silent round adds a miss, an
    /// answered one clears them.
    pub fn tally(&mut self) {
        if self.acked {
            self.missed = 0;
        } else {
            self.missed = self.missed.saturating_add(1);
        }
        self.acked = false;
    }

    /// Forgets the tally (a restore trusts nothing heard before a crash).
    pub fn clear_tally(&mut self) {
        self.missed = 0;
        self.acked = false;
    }

    /// Decides this round, after [`Member::tally`]. A fenced member
    /// gets a rejoin probe. A member silent for fewer than
    /// `miss_threshold` rounds (one heard from last round always
    /// counts), or a `pinned` one, gets a renewal. A member silent past
    /// the threshold is fenced once its last lease has provably
    /// expired, and held until then.
    pub fn decide(
        &mut self,
        now: SimTime,
        lease: SimDuration,
        miss_threshold: u32,
        pinned: bool,
    ) -> Decision {
        if self.view.fenced || self.missed < miss_threshold.max(1) || pinned {
            Decision::Grant(self.view.grant(now, lease))
        } else if self.view.try_fence(now) {
            Decision::Fence
        } else {
            Decision::Hold
        }
    }

    /// Processes the member's lease ack at `epoch`: the member counts
    /// as heard. Returns whether the ack completed a rejoin.
    pub fn ack(&mut self, now: SimTime, epoch: u64, lease: SimDuration) -> bool {
        self.heard();
        let was_fenced = self.view.fenced;
        self.view.on_ack(now, epoch, lease);
        was_fenced && !self.view.fenced
    }
}

/// Timing of a lease-membership control plane.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timing {
    /// Period of the lease round.
    pub round: SimDuration,
    /// Validity of each granted lease.
    pub lease: SimDuration,
    /// Consecutive silent rounds before renewals stop.
    pub miss_threshold: u32,
    /// Snapshot cadence; `None` disables both the cadence and
    /// write-through.
    pub snapshot_interval: Option<SimDuration>,
}

/// Lease-round timer, stamped with the generation it was armed under:
/// a restart bumps the generation, so ticks armed before a crash die.
#[derive(Debug)]
struct RoundTick {
    gen: u64,
}

/// Snapshot-cadence timer, generation-stamped likewise.
#[derive(Debug)]
struct SnapTick {
    gen: u64,
}

/// The state both membership controllers share: the member table and
/// the lifecycle of a control plane that can crash and restart.
pub(crate) struct ControlPlane {
    /// The member table, indexed like the adapter's own per-member
    /// state.
    pub members: Vec<Member>,
    /// Round, lease and snapshot timing.
    pub timing: Timing,
    /// A restore ran and its trace event is owed at the next round,
    /// after the zero-delay reconcile replies have landed:
    /// `(snapshot seq restored, reports reconciled)`.
    pub restore_pending: Option<(u64, u64)>,
    started: bool,
    /// Crashed: silent until a [`Restart`].
    crashed: bool,
    /// Round-timer generation (see [`RoundTick`]).
    tick_gen: u64,
    /// Snapshot-timer generation.
    snap_gen: u64,
    /// Monotonic snapshot sequence (survives crashes, like the
    /// snapshot it numbers).
    snap_seq: u64,
    /// Peers currently cut: their direct messages are dropped.
    pub cuts: CutTable,
}

impl ControlPlane {
    /// A control plane over `members` that has not started yet.
    pub fn new(members: Vec<Member>, timing: Timing) -> Self {
        ControlPlane {
            members,
            timing,
            restore_pending: None,
            started: false,
            crashed: false,
            tick_gen: 0,
            snap_gen: 0,
            snap_seq: 0,
            cuts: CutTable::default(),
        }
    }

    /// Whether the control plane is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Sequence number of the last snapshot taken (0 = none).
    pub fn snapshot_seq(&self) -> u64 {
        self.snap_seq
    }

    /// Numbers the snapshot about to be written.
    pub fn next_snapshot_seq(&mut self) -> u64 {
        self.snap_seq += 1;
        self.snap_seq
    }

    /// The member a message from `from` speaks for: `None` for a
    /// stranger, or for a peer inside a partition cut (its message
    /// never arrived).
    pub fn member_of(&self, now: SimTime, from: ComponentId) -> Option<usize> {
        let i = self.members.iter().position(|m| m.component == from)?;
        (!self.cuts.is_cut(now, from)).then_some(i)
    }

    /// Decides member `i`'s round (see [`Member::decide`]).
    pub fn decide(&mut self, i: usize, now: SimTime, pinned: bool) -> Decision {
        let t = self.timing;
        self.members[i].decide(now, t.lease, t.miss_threshold, pinned)
    }

    /// Processes member `i`'s lease ack (see [`Member::ack`]).
    pub fn ack(&mut self, i: usize, now: SimTime, epoch: u64) -> bool {
        let lease = self.timing.lease;
        self.members[i].ack(now, epoch, lease)
    }

    /// Sends `grant` to member `i` as a zero-delay [`GrantLease`].
    pub fn send_grant(&self, ctx: &mut Ctx<'_>, i: usize, grant: Grant) {
        let reply_to = ctx.self_id();
        ctx.send(
            self.members[i].component,
            SimDuration::ZERO,
            GrantLease {
                epoch: grant.epoch,
                until_ns: grant.until.as_nanos(),
                rejoin: grant.rejoin,
                reply_to,
            },
        );
    }

    /// Counts one reconciled epoch report toward the pending restore.
    pub fn count_reconciled(&mut self) {
        if let Some((_, reconciled)) = self.restore_pending.as_mut() {
            *reconciled += 1;
        }
    }
}

/// A membership controller built on a [`ControlPlane`]. The adapter
/// says what a round, a snapshot and a restore mean for its members;
/// the provided methods run the lifecycle both controllers share.
pub(crate) trait Membership {
    /// The `Fault` trace kinds of a crash and a restart.
    const FAULT_KINDS: (&'static str, &'static str);

    /// The shared state.
    fn plane(&mut self) -> &mut ControlPlane;

    /// Opens the regime, before the first snapshot and round.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// One lease round (the next one is armed afterwards).
    fn on_round(&mut self, ctx: &mut Ctx<'_>);

    /// Writes the stable snapshot.
    fn on_snapshot(&mut self, ctx: &mut Ctx<'_>);

    /// Rebuilds from stable storage after a restart of a started
    /// control plane, before the timers are re-armed.
    fn on_restore(&mut self, ctx: &mut Ctx<'_>);

    /// Any message the lifecycle does not consume.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage);

    /// Starts the regime once: [`Membership::on_start`], the first
    /// snapshot when snapshots are on, then the first round.
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let plane = self.plane();
        if plane.started {
            return;
        }
        plane.started = true;
        self.on_start(ctx);
        if self.plane().timing.snapshot_interval.is_some() {
            self.on_snapshot(ctx);
            arm_snapshot(self.plane(), ctx);
        }
        run_round(self, ctx);
    }

    /// Snapshots at a membership transition; a no-op when snapshots
    /// are off.
    fn write_through(&mut self, ctx: &mut Ctx<'_>) {
        if self.plane().timing.snapshot_interval.is_some() {
            self.on_snapshot(ctx);
        }
    }

    /// Handles one message. Crash, restart and partition cuts model
    /// process and network state, so they act even while the control
    /// plane is down; anything else addressed to a crashed control
    /// plane dies with it. Stale timers are dropped by generation.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<Crash>() {
            Ok(_) => {
                let plane = self.plane();
                if !plane.crashed {
                    plane.crashed = true;
                    let kind = Self::FAULT_KINDS.0;
                    ctx.emit(|| TraceEvent::Fault { kind, detail: 0 });
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Restart>() {
            Ok(_) => {
                let plane = self.plane();
                if !plane.crashed {
                    return;
                }
                plane.crashed = false;
                let kind = Self::FAULT_KINDS.1;
                ctx.emit(|| TraceEvent::Fault { kind, detail: 0 });
                plane.tick_gen += 1;
                plane.snap_gen += 1;
                if !plane.started {
                    return;
                }
                self.on_restore(ctx);
                arm_round(self.plane(), ctx);
                arm_snapshot(self.plane(), ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<NetCutFrom>() {
            Ok(cut) => {
                self.plane().cuts.apply(ctx.now(), &cut);
                return;
            }
            Err(other) => other,
        };
        if self.plane().crashed {
            return;
        }
        let msg = match msg.downcast::<RoundTick>() {
            Ok(tick) => {
                if tick.gen == self.plane().tick_gen {
                    run_round(self, ctx);
                }
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<SnapTick>() {
            Ok(tick) => {
                if tick.gen == self.plane().snap_gen {
                    self.on_snapshot(ctx);
                    arm_snapshot(self.plane(), ctx);
                }
            }
            Err(other) => self.on_message(ctx, other),
        }
    }
}

fn run_round<M: Membership + ?Sized>(m: &mut M, ctx: &mut Ctx<'_>) {
    m.on_round(ctx);
    arm_round(m.plane(), ctx);
}

fn arm_round(plane: &ControlPlane, ctx: &mut Ctx<'_>) {
    ctx.send_self(
        plane.timing.round,
        RoundTick {
            gen: plane.tick_gen,
        },
    );
}

fn arm_snapshot(plane: &ControlPlane, ctx: &mut Ctx<'_>) {
    if let Some(interval) = plane.timing.snapshot_interval {
        ctx.send_self(
            interval,
            SnapTick {
                gen: plane.snap_gen,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TICK: SimDuration = SimDuration::from_micros(10);
    const LEASE: SimDuration = SimDuration::from_micros(35);

    /// Silent rounds before the shared round stops renewing.
    const THRESHOLD: u32 = 3;

    /// One step of an adversarial schedule.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Clock advances one tick.
        Advance,
        /// Controller grants; the grant is delivered iff `delivered`
        /// (a lost grant models a partition).
        Grant { delivered: bool },
        /// Controller grants and the worker's ack also comes back.
        GrantAcked,
        /// Controller attempts to fence.
        TryFence,
        /// The member crashes and restarts: its lease lapses, its
        /// epoch survives.
        Crash,
        /// One shared lease round: tally, then [`Member::decide`]. A
        /// grant it sends is delivered iff `delivered`, and acked iff
        /// `acked` as well; `pinned` is the tier's last-standing guard.
        Round {
            delivered: bool,
            acked: bool,
            pinned: bool,
        },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Advance),
            any::<bool>().prop_map(|delivered| Op::Grant { delivered }),
            Just(Op::GrantAcked),
            Just(Op::TryFence),
            Just(Op::Crash),
            (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(delivered, acked, pinned)| {
                Op::Round {
                    delivered,
                    acked,
                    pinned,
                }
            }),
        ]
    }

    /// The schedule's controller-side state: one member of a table.
    fn member() -> Member {
        Member::new(ComponentId::from_index_for_tests(0), 1)
    }

    /// Applies one op. Returns the epoch fenced by this op, if any, and
    /// whether an ack completed a rejoin.
    fn apply(
        op: Op,
        now: &mut SimTime,
        m: &mut Member,
        worker: &mut WorkerView,
    ) -> (Option<u64>, bool) {
        match op {
            Op::Advance => *now += TICK,
            Op::Grant { delivered } => {
                let grant = m.view.grant(*now, LEASE);
                if delivered {
                    // The ack may be lost on the way back; model the
                    // worst case for the controller (no ack) on plain
                    // grants — acks are exercised by GrantAcked/Round.
                    let _ = worker.deliver(grant);
                }
            }
            Op::GrantAcked => {
                let grant = m.view.grant(*now, LEASE);
                if let Some(ack) = worker.deliver(grant) {
                    return (None, m.ack(*now, ack, LEASE));
                }
            }
            Op::TryFence => {
                if m.view.try_fence(*now) {
                    return (Some(m.view.epoch), false);
                }
            }
            Op::Crash => worker.lapse(),
            Op::Round {
                delivered,
                acked,
                pinned,
            } => {
                m.tally();
                match m.decide(*now, LEASE, THRESHOLD, pinned) {
                    Decision::Grant(grant) => {
                        if let Some(ack) = delivered.then(|| worker.deliver(grant)).flatten() {
                            if acked {
                                return (None, m.ack(*now, ack, LEASE));
                            }
                        }
                    }
                    Decision::Fence => {
                        assert!(
                            m.missed >= THRESHOLD && !pinned,
                            "fenced a renewable member"
                        );
                        return (Some(m.view.epoch), false);
                    }
                    Decision::Hold => {}
                }
            }
        }
        (None, false)
    }

    proptest! {
        /// Over arbitrary schedules of grants, losses, clock advances,
        /// member crashes, fences, rejoins, and shared lease rounds:
        /// epochs never regress
        /// on either side, and there is never an instant at which the
        /// controller has fenced the worker while the worker still
        /// believes its lease is live (the "two unfenced owners"
        /// precondition — the controller re-places a fenced worker's
        /// lambdas, so a live stale owner would be a split brain).
        #[test]
        fn never_two_unfenced_owners(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut now = SimTime::ZERO;
            let mut m = member();
            let mut worker = WorkerView::new();
            let mut max_ctrl_epoch = m.view.epoch;
            let mut max_worker_epoch = worker.epoch();
            for op in ops {
                apply(op, &mut now, &mut m, &mut worker);
                let ctrl = m.view;
                // Tokens never regress.
                prop_assert!(ctrl.epoch >= max_ctrl_epoch, "controller epoch regressed");
                prop_assert!(worker.epoch() >= max_worker_epoch, "worker epoch regressed");
                max_ctrl_epoch = ctrl.epoch;
                max_worker_epoch = worker.epoch();
                // The split-brain precondition: fenced on the controller
                // while live on the worker.
                if worker.lease.is_some() {
                    prop_assert!(
                        !(ctrl.fenced && worker.live(now)),
                        "controller fenced worker at {now:?} while its lease was live \
                         (ctrl: {ctrl:?}, worker: {worker:?})"
                    );
                }
            }
        }

        /// A fence only ever succeeds after every granted lease has
        /// provably expired, and a successful rejoin strictly bumps the
        /// epoch past the fenced one.
        #[test]
        fn rejoin_strictly_bumps(ops in proptest::collection::vec(arb_op(), 1..200)) {
            let mut now = SimTime::ZERO;
            let mut m = member();
            let mut worker = WorkerView::new();
            let mut fenced_epoch = None;
            for op in ops {
                let (fenced, rejoined) = apply(op, &mut now, &mut m, &mut worker);
                if let Some(epoch) = fenced {
                    prop_assert!(provably_expired(now, m.view.lease_until));
                    fenced_epoch = Some(epoch);
                }
                if rejoined {
                    let fenced_at = fenced_epoch.take().expect("fence recorded");
                    prop_assert!(m.view.epoch > fenced_at, "rejoin did not bump past fenced epoch");
                }
            }
        }
    }

    #[test]
    fn fence_blocked_while_lease_outstanding() {
        let mut ctrl = ControllerView::new(1);
        let now = SimTime::from_nanos(1000);
        let _ = ctrl.grant(now, LEASE);
        assert!(!ctrl.try_fence(now), "fenced inside the granted window");
        assert!(ctrl.try_fence(now + LEASE), "lease provably expired");
    }

    #[test]
    fn restore_rebounds_lease_conservatively() {
        let now = SimTime::from_nanos(10_000);
        // Recorded bound already past: restore pushes it to now + lease,
        // so fencing is blocked for a full lease after the restore.
        let v = ControllerView::restore(7, false, SimTime::from_nanos(100), now, LEASE);
        assert_eq!(v.epoch, 7);
        assert!(!v.fenced);
        assert_eq!(v.lease_until, now + LEASE);
        let mut v2 = v;
        assert!(!v2.try_fence(now), "fenced inside the restored window");
        assert!(v2.try_fence(now + LEASE));
        // Recorded bound beyond now + lease: the larger bound wins.
        let far = now + LEASE + LEASE;
        let v3 = ControllerView::restore(7, true, far, now, LEASE);
        assert_eq!(v3.lease_until, far);
        assert!(v3.fenced);
    }
}
