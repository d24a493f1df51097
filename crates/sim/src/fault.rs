//! Fault injection: timed failure events and health-check messages.
//!
//! The λ-NIC paper leans on two recovery mechanisms — client
//! retransmission of lost requests (§4.2-D3) and controller-driven
//! re-deployment of lambdas from a failed SmartNIC onto survivors (§7) —
//! so the simulation needs a way to *make* components fail. A
//! [`FaultPlan`] is a declarative schedule of failures against logical
//! targets (worker and link indices); the harness that built the
//! topology resolves those indices to [`ComponentId`]s and delivers each
//! event through the ordinary event queue, so a faulty run is exactly as
//! deterministic as a healthy one.
//!
//! This module also defines the component-level control messages
//! ([`Crash`], [`Restart`], [`StallFor`], [`LinkDown`], [`LossBurst`],
//! [`HealthPing`]/[`HealthPong`], the lease messages) in the sim crate
//! so every backend (NIC, host, switch, controllers) can downcast them
//! without new inter-crate dependencies; [`crate::lease`] holds the
//! member side of the lease protocol they carry.

use crate::engine::ComponentId;
use crate::time::{SimDuration, SimTime};

/// Control message: the target component fails immediately.
///
/// Backends drop all in-flight work and blackhole arrivals until they
/// receive a [`Restart`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crash;

/// Control message: a crashed component begins recovery.
///
/// Workers pay their re-provisioning cost (the NIC re-enters through the
/// firmware-swap path) before serving again.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Restart;

/// Control message: the target stops making progress for the given
/// duration, then resumes with its state intact (e.g. an OS hiccup or
/// management-plane pause on a host backend).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallFor(pub SimDuration);

/// Control message to a switch: its port `port` drops every frame for
/// `duration` (a flap), then recovers by itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkDown {
    /// Index of the port on the switch.
    pub port: usize,
    /// How long the port stays dark.
    pub duration: SimDuration,
}

/// Control message to a switch: its port `port` drops frames with
/// probability `prob` for `duration` (a correlated loss burst), then
/// returns to its configured baseline loss rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossBurst {
    /// Index of the port on the switch.
    pub port: usize,
    /// How long the burst lasts.
    pub duration: SimDuration,
    /// Drop probability while the burst is active.
    pub prob: f64,
}

/// Control message: the target worker keeps serving but every unit of
/// work takes `factor`× as long for `duration` (a gray failure — e.g.
/// thermal throttling, a sick DIMM, or a noisy neighbour on the NPU
/// complex). The worker still answers health pings, so heartbeat-based
/// failure detectors cannot see it; only latency-based fail-slow
/// detection can.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slowdown {
    /// Multiplier applied to service/compute time (>= 1.0).
    pub factor: f64,
    /// How long the slowdown lasts.
    pub duration: SimDuration,
}

/// Control message to a switch: for `duration`, its port `port` delays
/// each frame by an extra uniform jitter up to `spread`, so later frames
/// can overtake earlier ones (reordering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reorder {
    /// Index of the port on the switch.
    pub port: usize,
    /// How long the reorder window lasts.
    pub duration: SimDuration,
    /// Maximum extra per-frame delay drawn uniformly at random.
    pub spread: SimDuration,
}

/// Control message to a switch: for `duration`, its port `port` delivers
/// each frame twice with probability `prob` (a misbehaving switch or a
/// retransmit race at the PHY).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Duplicate {
    /// Index of the port on the switch.
    pub port: usize,
    /// How long the duplication window lasts.
    pub duration: SimDuration,
    /// Probability that a frame is delivered twice.
    pub prob: f64,
}

/// Control message to a switch: for `duration`, its port `port` flips
/// one random bit per frame with probability `prob`. The receiving NIC's
/// checksum verification must detect (and drop) the mangled frame rather
/// than execute it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Corrupt {
    /// Index of the port on the switch.
    pub port: usize,
    /// How long the corruption window lasts.
    pub duration: SimDuration,
    /// Probability that a frame gets one bit flipped.
    pub prob: f64,
}

/// Health probe sent by a controller to a worker.
///
/// Live workers answer with a [`HealthPong`]; crashed workers stay
/// silent, which is the failure signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPing {
    /// Where to send the pong.
    pub reply_to: ComponentId,
}

/// A worker's answer to a [`HealthPing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthPong {
    /// The responding component.
    pub from: ComponentId,
}

/// Control message: a membership lease offered by the controller.
///
/// The lease replaces bare heartbeats: a worker that holds a current
/// lease may serve; once the absolute expiry `until_ns` passes without
/// a renewal the worker must *self-fence* (answer `RC_FENCED`, execute
/// nothing), and the controller may only re-place its lambdas after the
/// same bound has provably passed. The expiry is absolute rather than
/// relative so a grant whose processing is delayed (a stalled worker
/// draining its backlog) can never extend the lease beyond what the
/// controller recorded when it issued the grant. `epoch` is the
/// worker's fencing token; it only ever increases, and a grant with
/// `rejoin` set tells a healed worker to adopt the higher epoch and
/// drop its pre-partition placements. A member adopts a grant whole: it
/// *replaces* the held lease, `until_ns` included, rather than
/// extending it ([`crate::lease::WorkerView::deliver`]). A rejoin grant
/// carries an already-expired `until_ns`, so serving only resumes after
/// the ack round-trips and a regular grant follows. A grant from a peer
/// the member is cut from never arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantLease {
    /// Fencing token the worker serves under while the lease is live.
    pub epoch: u64,
    /// Absolute instant (ns) the lease runs out.
    pub until_ns: u64,
    /// Set on the first grant after a fence: the worker bumps its epoch
    /// and discards placements stamped with older epochs.
    pub rejoin: bool,
    /// Where to send the ack.
    pub reply_to: ComponentId,
}

/// Control message: a worker's acceptance of a [`GrantLease`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseAck {
    /// The acking component.
    pub from: ComponentId,
    /// The epoch the worker now holds.
    pub epoch: u64,
    /// The acker's restart count (0 if it never crashed). A controller
    /// that sees this jump between acks knows the member lost its
    /// volatile state even though the lease handshake looks healthy —
    /// the signal behind proactive client re-adoption after a fast
    /// crash/restart that never tripped the miss threshold.
    pub incarnation: u64,
}

/// Control message: a restarted controller asking a worker what epoch it
/// holds, to reconcile a restored snapshot against reality. A crashed
/// member, or one cut from `reply_to`, does not answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochQuery {
    /// Where to send the [`EpochReport`].
    pub reply_to: ComponentId,
}

/// A worker's answer to an [`EpochQuery`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochReport {
    /// The reporting component.
    pub from: ComponentId,
    /// The epoch the worker currently holds. It survives a crash of
    /// the worker, so a restarted member reports its last epoch.
    pub epoch: u64,
    /// When the worker's lease runs out (ns): 0 if it never held one or
    /// has crashed since its last grant.
    pub lease_until_ns: u64,
}

/// Control message: for `duration`, the target must treat direct control
/// messages *from* the listed components as blackholed (they never
/// arrived). This is how a [`FaultEvent::Partition`] severs the
/// control-plane channel (heartbeats, lease grants/acks) that does not
/// ride the simulated links; frames on the data path are cut by
/// [`LinkDown`] windows on the links crossing the partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetCutFrom {
    /// Peers whose direct messages are dropped.
    pub peers: Vec<ComponentId>,
    /// How long the cut lasts.
    pub duration: SimDuration,
}

/// One scheduled failure against a logical target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Worker `worker` crashes: in-flight jobs are lost and arrivals
    /// blackholed until a restart.
    NicCrash {
        /// Index of the worker in the testbed.
        worker: usize,
    },
    /// Worker `worker` begins recovery, paying its firmware-swap (or
    /// equivalent re-provisioning) downtime before serving again.
    NicRestart {
        /// Index of the worker in the testbed.
        worker: usize,
    },
    /// Link `link` goes dark for `duration`.
    LinkFlap {
        /// Index of the link: the testbed switch's port of that index.
        link: usize,
        /// How long the link stays down.
        duration: SimDuration,
    },
    /// Link `link` drops frames with probability `prob` for `duration`.
    LossBurst {
        /// Index of the link: the testbed switch's port of that index.
        link: usize,
        /// How long the burst lasts.
        duration: SimDuration,
        /// Drop probability during the burst.
        prob: f64,
    },
    /// Worker `worker` freezes for `duration` without losing state.
    BackendStall {
        /// Index of the worker in the testbed.
        worker: usize,
        /// How long the worker stalls.
        duration: SimDuration,
    },
    /// Worker `worker` runs `factor`× slower for `duration` (gray
    /// failure: alive, answering health pings, but sick).
    Slowdown {
        /// Index of the worker in the testbed.
        worker: usize,
        /// Service-time multiplier (>= 1.0).
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
    /// Link `link` reorders frames for `duration` by delaying each one
    /// an extra uniform amount up to `spread`.
    Reorder {
        /// Index of the link: the testbed switch's port of that index.
        link: usize,
        /// How long the reorder window lasts.
        duration: SimDuration,
        /// Maximum extra per-frame delay.
        spread: SimDuration,
    },
    /// Link `link` duplicates frames with probability `prob` for
    /// `duration`.
    Duplicate {
        /// Index of the link: the testbed switch's port of that index.
        link: usize,
        /// How long the duplication window lasts.
        duration: SimDuration,
        /// Probability a frame is delivered twice.
        prob: f64,
    },
    /// Link `link` flips one random bit per frame with probability
    /// `prob` for `duration`.
    Corrupt {
        /// Index of the link: the testbed switch's port of that index.
        link: usize,
        /// How long the corruption window lasts.
        duration: SimDuration,
        /// Probability a frame gets one bit flipped.
        prob: f64,
    },
    /// Network partition: the workers named by the `groups` bitmask
    /// (bit *i* = worker *i*) are cut off from everything on the other
    /// side — the control plane, the gateway, the shared services, and
    /// the workers whose bits are clear — for `duration`. Frames are
    /// blackholed in *both* directions, including heartbeats and lease
    /// traffic, and the cut composes with any other fault window active
    /// on the affected links.
    Partition {
        /// Bitmask of worker indices on the severed side.
        groups: u64,
        /// How long the partition lasts before healing.
        duration: SimDuration,
    },
    /// Asymmetric cut: frames from node `from` toward node `to` are
    /// blackholed for `duration`, while the reverse direction keeps
    /// working (a one-way fibre fault or a poisoned ARP entry). Node 0
    /// is the control plane (gateway + controller); node `1 + i` is
    /// worker `i`.
    AsymLink {
        /// Sending node whose frames are lost (0 = control plane).
        from: usize,
        /// Receiving node that never sees them (0 = control plane).
        to: usize,
        /// How long the asymmetry lasts.
        duration: SimDuration,
    },
    /// The control plane (failover controller) crashes: its in-memory
    /// membership and placement state is lost; only the last stable
    /// snapshot survives. Leases stop renewing, so workers self-fence
    /// when theirs expire.
    ControllerCrash,
    /// The control plane restarts from its last stable snapshot and
    /// reconciles against worker-reported epochs before serving.
    ControllerRestart,
    /// Gateway shard `gateway` crashes: its in-flight request state is
    /// lost and arrivals blackholed until a restart. With a gateway tier
    /// installed, the tier controller deposes it once its lease provably
    /// expires and the router re-routes its orphaned clients.
    GatewayCrash {
        /// Index of the gateway shard in the testbed's gateway table.
        gateway: usize,
    },
    /// Gateway shard `gateway` restarts empty. It rejoins the ring only
    /// after the tier controller's rejoin handshake at a higher epoch.
    GatewayRestart {
        /// Index of the gateway shard in the testbed's gateway table.
        gateway: usize,
    },
    /// Gateway shard `gateway` is cut off from everything — its data
    /// links are blackholed and the direct control channels (tier
    /// leases, routed submits) are severed in both directions — for
    /// `duration`, then heals. The shard stays alive the whole time: the
    /// partition tests that it self-fences when its lease lapses rather
    /// than serving stale clients.
    GatewayPartition {
        /// Index of the gateway shard in the testbed's gateway table.
        gateway: usize,
        /// How long the partition lasts before healing.
        duration: SimDuration,
    },
    /// A correlated restart storm across the gateway tier: `count`
    /// shards starting at index `first` crash one after another,
    /// `stagger` apart, and each restarts `down` after its own crash —
    /// the rolling-deploy-gone-wrong / cluster-power-event shape where
    /// each crash is individually too fast to trip the miss threshold
    /// but together they orphan work tier-wide.
    GatewayRestartStorm {
        /// First gateway shard index hit by the storm.
        first: usize,
        /// How many consecutive shards crash.
        count: usize,
        /// Gap between successive crashes.
        stagger: SimDuration,
        /// Downtime of each shard before its restart.
        down: SimDuration,
    },
    /// Rack power loss: gateway shard `gateway` and every worker named
    /// in the `workers` bitmask (bit *i* = worker *i*) crash at the
    /// same instant and restart together `down` later — the correlated
    /// failure domain a top-of-rack event produces, losing both the
    /// routing layer and the compute behind it at once.
    RackLoss {
        /// Index of the gateway shard in the failure domain.
        gateway: usize,
        /// Bitmask of worker indices sharing the rack.
        workers: u64,
        /// Downtime before the rack comes back.
        down: SimDuration,
    },
    /// The gateway-tier controller crashes: its shard map, lease table,
    /// and handoff ledger survive only as the last stable tier
    /// snapshot. Leases stop renewing, so shards self-fence if the
    /// outage outlives them.
    TierControllerCrash,
    /// The gateway-tier controller restarts, restores from its last
    /// stable snapshot (cold-rebuilding if it is missing or corrupt),
    /// and reconciles live shard epochs via query/report before acting.
    TierControllerRestart,
}

/// A [`FaultEvent`] with its injection time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFault {
    /// Absolute virtual time at which the fault fires.
    pub at: SimTime,
    /// What happens.
    pub event: FaultEvent,
}

/// A declarative, time-ordered schedule of failures.
///
/// Build one with the fluent constructors, then hand it to the harness
/// that owns the topology (e.g. `Testbed::inject_faults` in `lnic`),
/// which resolves worker/link indices to components and posts each event
/// into the simulation. Because delivery rides the ordinary event queue,
/// two runs with the same seed and the same plan are bit-identical.
///
/// # Examples
///
/// ```
/// use lnic_sim::fault::{FaultEvent, FaultPlan};
/// use lnic_sim::time::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .nic_crash(0, SimTime::ZERO + SimDuration::from_secs(2))
///     .nic_restart(0, SimTime::ZERO + SimDuration::from_secs(4))
///     .link_flap(1, SimTime::ZERO + SimDuration::from_secs(3), SimDuration::from_millis(50));
/// assert_eq!(plan.events().len(), 3);
/// assert!(matches!(plan.events()[0].event, FaultEvent::NicCrash { worker: 0 }));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<TimedFault>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an arbitrary timed event.
    pub fn push(mut self, at: SimTime, event: FaultEvent) -> FaultPlan {
        self.events.push(TimedFault { at, event });
        self
    }

    /// Schedules a worker crash.
    pub fn nic_crash(self, worker: usize, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::NicCrash { worker })
    }

    /// Schedules a worker restart.
    pub fn nic_restart(self, worker: usize, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::NicRestart { worker })
    }

    /// Schedules a link flap.
    pub fn link_flap(self, link: usize, at: SimTime, duration: SimDuration) -> FaultPlan {
        self.push(at, FaultEvent::LinkFlap { link, duration })
    }

    /// Schedules a loss burst on a link.
    pub fn loss_burst(
        self,
        link: usize,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
    ) -> FaultPlan {
        self.push(
            at,
            FaultEvent::LossBurst {
                link,
                duration,
                prob,
            },
        )
    }

    /// Schedules a backend stall.
    pub fn backend_stall(self, worker: usize, at: SimTime, duration: SimDuration) -> FaultPlan {
        self.push(at, FaultEvent::BackendStall { worker, duration })
    }

    /// Schedules a gray-failure slowdown on a worker.
    pub fn slowdown(
        self,
        worker: usize,
        at: SimTime,
        factor: f64,
        duration: SimDuration,
    ) -> FaultPlan {
        self.push(
            at,
            FaultEvent::Slowdown {
                worker,
                factor,
                duration,
            },
        )
    }

    /// Schedules a reorder window on a link.
    pub fn reorder(
        self,
        link: usize,
        at: SimTime,
        duration: SimDuration,
        spread: SimDuration,
    ) -> FaultPlan {
        self.push(
            at,
            FaultEvent::Reorder {
                link,
                duration,
                spread,
            },
        )
    }

    /// Schedules a duplication window on a link.
    pub fn duplicate(
        self,
        link: usize,
        at: SimTime,
        duration: SimDuration,
        prob: f64,
    ) -> FaultPlan {
        self.push(
            at,
            FaultEvent::Duplicate {
                link,
                duration,
                prob,
            },
        )
    }

    /// Schedules a corruption window on a link.
    pub fn corrupt(self, link: usize, at: SimTime, duration: SimDuration, prob: f64) -> FaultPlan {
        self.push(
            at,
            FaultEvent::Corrupt {
                link,
                duration,
                prob,
            },
        )
    }

    /// Schedules a network partition severing the given workers from the
    /// rest of the cluster (control plane included).
    pub fn partition(self, workers: &[usize], at: SimTime, duration: SimDuration) -> FaultPlan {
        let mut groups = 0u64;
        for &w in workers {
            assert!(w < 64, "partition bitmask holds worker indices < 64");
            groups |= 1 << w;
        }
        self.push(at, FaultEvent::Partition { groups, duration })
    }

    /// Schedules a one-way cut from node `from` to node `to`
    /// (0 = control plane, `1 + i` = worker `i`).
    pub fn asym_link(
        self,
        from: usize,
        to: usize,
        at: SimTime,
        duration: SimDuration,
    ) -> FaultPlan {
        self.push(at, FaultEvent::AsymLink { from, to, duration })
    }

    /// Schedules a control-plane crash.
    pub fn controller_crash(self, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::ControllerCrash)
    }

    /// Schedules a control-plane restart from the last stable snapshot.
    pub fn controller_restart(self, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::ControllerRestart)
    }

    /// Schedules a gateway-shard crash.
    pub fn gateway_crash(self, gateway: usize, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::GatewayCrash { gateway })
    }

    /// Schedules a gateway-shard restart.
    pub fn gateway_restart(self, gateway: usize, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::GatewayRestart { gateway })
    }

    /// Schedules a partition cutting one gateway shard off from the rest
    /// of the cluster (router, tier controller, and workers included).
    pub fn gateway_partition(
        self,
        gateway: usize,
        at: SimTime,
        duration: SimDuration,
    ) -> FaultPlan {
        self.push(at, FaultEvent::GatewayPartition { gateway, duration })
    }

    /// Schedules a staggered crash/restart storm over `count` gateway
    /// shards starting at `first`.
    pub fn restart_storm(
        self,
        first: usize,
        count: usize,
        at: SimTime,
        stagger: SimDuration,
        down: SimDuration,
    ) -> FaultPlan {
        assert!(count >= 1, "a storm needs at least one shard");
        self.push(
            at,
            FaultEvent::GatewayRestartStorm {
                first,
                count,
                stagger,
                down,
            },
        )
    }

    /// Schedules a rack loss: gateway shard `gateway` plus the listed
    /// workers crash simultaneously and restart `down` later.
    pub fn rack_loss(
        self,
        gateway: usize,
        workers: &[usize],
        at: SimTime,
        down: SimDuration,
    ) -> FaultPlan {
        let mut mask = 0u64;
        for &w in workers {
            assert!(w < 64, "rack-loss bitmask holds worker indices < 64");
            mask |= 1 << w;
        }
        self.push(
            at,
            FaultEvent::RackLoss {
                gateway,
                workers: mask,
                down,
            },
        )
    }

    /// Schedules a gateway-tier controller crash.
    pub fn tier_controller_crash(self, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::TierControllerCrash)
    }

    /// Schedules a gateway-tier controller restart from its last stable
    /// tier snapshot.
    pub fn tier_controller_restart(self, at: SimTime) -> FaultPlan {
        self.push(at, FaultEvent::TierControllerRestart)
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The latest event time in the plan, if any.
    pub fn horizon(&self) -> Option<SimTime> {
        self.events.iter().map(|e| e.at).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_record_events_in_order() {
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let plan = FaultPlan::new()
            .nic_crash(2, t(1))
            .backend_stall(1, t(2), SimDuration::from_millis(10))
            .loss_burst(0, t(3), SimDuration::from_millis(5), 0.5)
            .nic_restart(2, t(4));
        assert_eq!(plan.events().len(), 4);
        assert_eq!(plan.horizon(), Some(t(4)));
        assert_eq!(
            plan.events()[1].event,
            FaultEvent::BackendStall {
                worker: 1,
                duration: SimDuration::from_millis(10)
            }
        );
    }

    #[test]
    fn gateway_builders_record_events() {
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let plan = FaultPlan::new()
            .gateway_crash(1, t(1))
            .gateway_partition(2, t(2), SimDuration::from_millis(250))
            .gateway_restart(1, t(3));
        assert_eq!(plan.events().len(), 3);
        assert_eq!(
            plan.events()[1].event,
            FaultEvent::GatewayPartition {
                gateway: 2,
                duration: SimDuration::from_millis(250)
            }
        );
        assert_eq!(plan.horizon(), Some(t(3)));
    }

    #[test]
    fn disaster_builders_record_events() {
        let t = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let plan = FaultPlan::new()
            .restart_storm(
                1,
                2,
                t(100),
                SimDuration::from_millis(80),
                SimDuration::from_millis(60),
            )
            .rack_loss(1, &[0, 2], t(200), SimDuration::from_millis(120))
            .tier_controller_crash(t(300))
            .tier_controller_restart(t(400));
        assert_eq!(plan.events().len(), 4);
        assert_eq!(
            plan.events()[0].event,
            FaultEvent::GatewayRestartStorm {
                first: 1,
                count: 2,
                stagger: SimDuration::from_millis(80),
                down: SimDuration::from_millis(60),
            }
        );
        assert_eq!(
            plan.events()[1].event,
            FaultEvent::RackLoss {
                gateway: 1,
                workers: 0b101,
                down: SimDuration::from_millis(120),
            }
        );
        assert_eq!(plan.events()[2].event, FaultEvent::TierControllerCrash);
        assert_eq!(plan.horizon(), Some(t(400)));
    }

    #[test]
    fn empty_plan_has_no_horizon() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.horizon(), None);
    }
}
