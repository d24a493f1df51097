//! The sharded gateway tier: consistent-hash routing over multiple
//! gateway shards, with crash/partition-survivable handoff.
//!
//! A single [`crate::gateway::Gateway`] is both the paper's measurement
//! point and a single point of failure: crash it and every in-flight
//! request is lost, partition it and the whole fleet goes dark. This
//! module puts a *tier* of gateway shards in front of the worker fleet:
//!
//! - A [`ShardMap`] — an epoch-versioned consistent-hash ring — assigns
//!   every client to a gateway shard. Epochs are strictly increasing;
//!   the map never moves backwards (checker rule 14).
//! - A [`ShardRouter`] routes client submissions by the map, suppresses
//!   duplicate completions (the same uid may be executed by more than
//!   one shard during a handoff — PR 4's duplicate-suppression idea,
//!   reused one level up), and re-routes pending work when the map
//!   changes or a shard bounces it.
//! - A [`TierController`] runs the lease/fencing machinery of
//!   [`crate::lease`] over the gateway shards themselves: a shard that
//!   stops acking loses its lease, *provably* stops accepting (it
//!   self-fences on its own clock before the controller deposes it),
//!   and is cut from the map; on heal it rejoins under a bumped epoch.
//!
//! The delivery contract is **at-least-once execution, exactly-once
//! client-visible completion**: a crash or partition may cause a
//! request to be executed by two shards (the orphaned copy and the
//! re-routed one), but the router delivers exactly one completion per
//! client uid and the online checker (rule 14) asserts it on every run.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

use lnic_net::packet::RC_FENCED;
use lnic_sim::fault::{EpochQuery, EpochReport, LeaseAck, NetCutFrom};
use lnic_sim::hash::FastMap;
use lnic_sim::lease::CutTable;
use lnic_sim::prelude::*;
use lnic_workloads::planet::PlanetModel;
use rand::Rng;

use crate::driver::{CompletedRequest, JobSpec, StartDriver};
use crate::gateway::{DrainGateway, HandoffReport, RequestDone, SetAdmissionSlice, SubmitRequest};
use crate::lease::{ControlPlane, ControllerView, Decision, Member, Membership, Timing};

/// Identifier of one gateway shard in the tier: its index in the
/// testbed's gateway list, and the high 16 bits of every request id the
/// shard mints (so multi-gateway traces are attributable by id alone).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GatewayId(pub u32);

impl GatewayId {
    /// The request-id base of this shard's id space (`id << 48`).
    pub fn id_base(self) -> u64 {
        u64::from(self.0) << 48
    }

    /// The shard that minted `request_id`, recovered from its high bits.
    pub fn of_request(request_id: u64) -> GatewayId {
        GatewayId((request_id >> 48) as u32)
    }
}

impl fmt::Display for GatewayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gw{}", self.0)
    }
}

/// The ring hash: a splitmix64 finalizer — full avalanche even on the
/// structured keys the ring feeds it (small gateway ids, small vnode
/// indices, dense client ids). Stability matters: routing must be a
/// pure function of (map, client), identical across runs and
/// platforms, so this is written out rather than taken from a
/// hasher whose output could drift.
fn ring_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An epoch-versioned consistent-hash ring over gateway shards.
///
/// Each member contributes `vnodes` points on a `u64` ring; a client
/// key routes to the owner of the first point at or after its hash.
/// Membership changes move only the keys adjacent to the departed (or
/// arrived) member's points — the property that makes handoff cheap.
#[derive(Clone, Debug)]
pub struct ShardMap {
    epoch: u64,
    members: Vec<u32>,
    vnodes: u32,
    /// `(ring position, owner)`, sorted by position.
    points: Vec<(u64, u32)>,
}

impl ShardMap {
    /// Builds a map at `epoch` over `members` (deduplicated, sorted),
    /// each contributing `vnodes` ring points.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or `vnodes` is zero.
    pub fn new(epoch: u64, members: &[u32], vnodes: u32) -> Self {
        assert!(!members.is_empty(), "a shard map needs at least one member");
        assert!(vnodes > 0, "at least one vnode per member required");
        let mut ms: Vec<u32> = members.to_vec();
        ms.sort_unstable();
        ms.dedup();
        let mut points = Vec::with_capacity(ms.len() * vnodes as usize);
        for &g in &ms {
            for v in 0..vnodes {
                points.push((ring_hash(u64::from(g) << 32 | u64::from(v)), g));
            }
        }
        // Position ties (vanishingly rare) resolve to the lower gateway
        // id — determinism over elegance.
        points.sort_unstable();
        ShardMap {
            epoch,
            members: ms,
            vnodes,
            points,
        }
    }

    /// The map's epoch (strictly increases across installs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The member shards, sorted.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Whether `gateway` is a member.
    pub fn contains(&self, gateway: u32) -> bool {
        self.members.binary_search(&gateway).is_ok()
    }

    /// Routes a client key to its owning shard: the owner of the first
    /// ring point at or after the key's hash, wrapping at the top.
    pub fn route(&self, client_key: u64) -> u32 {
        let h = ring_hash(client_key);
        let idx = self.points.partition_point(|&(pos, _)| pos < h);
        let (_, owner) = self.points[idx % self.points.len()];
        owner
    }

    /// The map with `gateway` removed, at `epoch + 1`. Returns `None`
    /// when `gateway` is not a member or is the last one (the tier
    /// never deposes its final shard — no owner would remain).
    pub fn exclude(&self, gateway: u32) -> Option<ShardMap> {
        if !self.contains(gateway) || self.members.len() <= 1 {
            return None;
        }
        let members: Vec<u32> = self
            .members
            .iter()
            .copied()
            .filter(|&g| g != gateway)
            .collect();
        Some(ShardMap::new(self.epoch + 1, &members, self.vnodes))
    }

    /// The map with `gateway` added, at `epoch + 1`. Returns `None`
    /// when `gateway` is already a member.
    pub fn include(&self, gateway: u32) -> Option<ShardMap> {
        if self.contains(gateway) {
            return None;
        }
        let mut members = self.members.clone();
        members.push(gateway);
        Some(ShardMap::new(self.epoch + 1, &members, self.vnodes))
    }

    /// The successor of `gateway` in member order (cyclic), the default
    /// adopter for a planned drain. `None` when `gateway` is the only
    /// member or not a member.
    pub fn successor(&self, gateway: u32) -> Option<u32> {
        if self.members.len() <= 1 {
            return None;
        }
        let idx = self.members.binary_search(&gateway).ok()?;
        Some(self.members[(idx + 1) % self.members.len()])
    }

    /// Ring points contributed per member.
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }
}

/// Magic prefix of an encoded [`TierSnapshot`] (`"LNTS"`).
const TIER_SNAP_MAGIC: u32 = 0x4C4E_5453;
/// Snapshot wire-format version. Bumped on any layout change; a restore
/// refuses snapshots from any other version (cold rebuild instead).
const TIER_SNAP_VERSION: u16 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-shard state captured in a [`TierSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSnap {
    /// The shard's fencing token as the controller knew it.
    pub epoch: u64,
    /// Upper bound on any lease granted to the shard (ns).
    pub lease_until_ns: u64,
    /// The shard's restart count as last acked.
    pub incarnation: u64,
    /// Whether the shard was fenced.
    pub fenced: bool,
    /// Whether the shard was administratively retired.
    pub retired: bool,
}

/// A deterministic snapshot of the tier controller's durable state:
/// the shard map (epoch + membership — the ring itself is a pure
/// function of those), the lease table, and the handoff ledger.
///
/// The wire format is versioned (`magic, version` header) and
/// checksummed (FNV-1a over everything before the trailer), so a
/// corrupted, truncated, or foreign snapshot is *rejected* by
/// [`TierSnapshot::decode`] — the restore path then falls back to a
/// cold rebuild and reconciles from live state instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TierSnapshot {
    /// Monotonic snapshot sequence number.
    pub seq: u64,
    /// The map epoch at snapshot time.
    pub epoch: u64,
    /// The handoff-ledger total at snapshot time.
    pub handed_off: u64,
    /// Ring points per member (the map rebuild parameter).
    pub vnodes: u32,
    /// Member shards at snapshot time, sorted.
    pub members: Vec<u32>,
    /// Per-shard lease state, indexed by shard id.
    pub shards: Vec<ShardSnap>,
}

impl TierSnapshot {
    /// Encodes the snapshot: little-endian fields, FNV-1a checksum
    /// trailer. Byte-for-byte deterministic.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.members.len() * 4 + self.shards.len() * 25);
        out.extend_from_slice(&TIER_SNAP_MAGIC.to_le_bytes());
        out.extend_from_slice(&TIER_SNAP_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.handed_off.to_le_bytes());
        out.extend_from_slice(&self.vnodes.to_le_bytes());
        out.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for &m in &self.members {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for s in &self.shards {
            out.extend_from_slice(&s.epoch.to_le_bytes());
            out.extend_from_slice(&s.lease_until_ns.to_le_bytes());
            out.extend_from_slice(&s.incarnation.to_le_bytes());
            out.push(u8::from(s.fenced) | (u8::from(s.retired) << 1));
        }
        let sum = fnv1a64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decodes an encoded snapshot, rejecting anything malformed:
    /// short buffers, wrong magic or version, counts that overrun the
    /// buffer, checksum mismatches (any single bit flip), and trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<TierSnapshot, &'static str> {
        struct Cursor<'a> {
            buf: &'a [u8],
            at: usize,
        }
        impl<'a> Cursor<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
                let end = self.at.checked_add(n).ok_or("length overflow")?;
                if end > self.buf.len() {
                    return Err("truncated snapshot");
                }
                let s = &self.buf[self.at..end];
                self.at = end;
                Ok(s)
            }
            fn u8(&mut self) -> Result<u8, &'static str> {
                Ok(self.take(1)?[0])
            }
            fn u16(&mut self) -> Result<u16, &'static str> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
            }
            fn u32(&mut self) -> Result<u32, &'static str> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, &'static str> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }
        if bytes.len() < 8 {
            return Err("truncated snapshot");
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 8);
        let sum = u64::from_le_bytes(trailer.try_into().unwrap());
        if fnv1a64(payload) != sum {
            return Err("checksum mismatch");
        }
        let mut c = Cursor {
            buf: payload,
            at: 0,
        };
        if c.u32()? != TIER_SNAP_MAGIC {
            return Err("bad magic");
        }
        if c.u16()? != TIER_SNAP_VERSION {
            return Err("unsupported snapshot version");
        }
        let seq = c.u64()?;
        let epoch = c.u64()?;
        let handed_off = c.u64()?;
        let vnodes = c.u32()?;
        let n_members = c.u32()? as usize;
        // Bounds-check counts against the remaining bytes before
        // allocating, so a forged count cannot balloon memory.
        if n_members > (payload.len() - c.at) / 4 {
            return Err("member count overruns buffer");
        }
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            members.push(c.u32()?);
        }
        let n_shards = c.u32()? as usize;
        if n_shards > (payload.len() - c.at) / 25 {
            return Err("shard count overruns buffer");
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let epoch = c.u64()?;
            let lease_until_ns = c.u64()?;
            let incarnation = c.u64()?;
            let flags = c.u8()?;
            if flags > 0b11 {
                return Err("unknown shard flags");
            }
            shards.push(ShardSnap {
                epoch,
                lease_until_ns,
                incarnation,
                fenced: flags & 1 != 0,
                retired: flags & 2 != 0,
            });
        }
        if c.at != payload.len() {
            return Err("trailing bytes");
        }
        Ok(TierSnapshot {
            seq,
            epoch,
            handed_off,
            vnodes,
            members,
            shards,
        })
    }
}

/// Gateway-tier configuration: the lease regime over shards and the
/// router's recovery knobs.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Lease renewal / liveness-tally period.
    pub heartbeat: SimDuration,
    /// Lease duration granted per renewal. A deposed shard provably
    /// stops accepting at most this long after its last renewal.
    pub lease: SimDuration,
    /// Consecutive silent rounds before the controller stops renewing a
    /// shard's lease (fencing then follows once the last grant expires).
    pub miss_threshold: u32,
    /// Ring points per shard in the [`ShardMap`].
    pub vnodes: u32,
    /// Router watchdog: a pending client request silent this long is
    /// re-submitted to its current map owner (covers submits or
    /// completions swallowed by a partition, without any map change).
    pub resubmit_timeout: SimDuration,
    /// Delay before retrying a bounced (`RC_FENCED`) submission — long
    /// enough to let a map change land, short enough to not stall.
    pub bounce_retry: SimDuration,
    /// Re-route attempts per client request before the router gives up
    /// and delivers a failure.
    pub max_reroutes: u32,
    /// Cadence of controller snapshots to (modeled) stable storage.
    /// `None` disables both the cadence and transition write-through —
    /// a restarted controller then rebuilds cold and reconciles.
    pub snapshot_interval: Option<SimDuration>,
    /// Tier-wide admission budget (requests/s per workload), divided
    /// evenly across the live member shards on every membership change.
    /// `0.0` leaves each shard's locally configured admission alone.
    pub global_rate_per_sec: f64,
    /// Tier-wide burst budget, divided like the rate (each shard's
    /// slice is at least one request).
    pub global_burst: f64,
    /// Proactively re-adopt a restarted shard's affine clients the
    /// moment its ack reveals a new incarnation, instead of waiting out
    /// the resubmit watchdog. `false` is the baseline arm of the
    /// disaster bench: recovery then takes `resubmit_timeout`.
    pub readopt: bool,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            heartbeat: SimDuration::from_millis(50),
            lease: SimDuration::from_millis(150),
            miss_threshold: 3,
            vnodes: 16,
            resubmit_timeout: SimDuration::from_millis(250),
            bounce_retry: SimDuration::from_millis(5),
            max_reroutes: 200,
            snapshot_interval: Some(SimDuration::from_millis(100)),
            global_rate_per_sec: 0.0,
            global_burst: 32.0,
            readopt: true,
        }
    }
}

/// A client request entering the tier: like
/// [`crate::gateway::SubmitRequest`], plus the stable client identity
/// the consistent-hash ring routes by.
#[derive(Debug)]
pub struct ClientSubmit {
    /// Stable client identity (ring key).
    pub client_id: u64,
    /// Target workload.
    pub workload_id: u32,
    /// Request payload.
    pub payload: Bytes,
    /// Who receives the final [`RequestDone`].
    pub reply_to: ComponentId,
    /// Opaque token echoed back to `reply_to`.
    pub token: u64,
}

/// Control message installing a new shard map at the router. Maps with
/// a stale epoch are ignored — the ring never moves backwards.
#[derive(Clone, Debug)]
pub struct InstallShardMap {
    /// The new map.
    pub map: Arc<ShardMap>,
}

/// Control message: start the tier controller's lease loop (post at
/// time zero, like `StartFailover`).
#[derive(Debug)]
pub struct StartTier;

/// Control message: administratively drain a shard — its in-flight work
/// is handed to its ring successor and the map drops it at a bumped
/// epoch. With `rejoin_after`, the controller keeps probing the drained
/// shard and re-admits it (bumped epoch) once it acks.
#[derive(Clone, Copy, Debug)]
pub struct DrainShard {
    /// The shard to drain.
    pub gateway: u32,
    /// Re-admit the shard after the drain completes.
    pub rejoin_after: bool,
}

/// Control message: the tier controller asks the router for its current
/// map (restore-time reconciliation — the router's installed map never
/// trails the controller's stable snapshot, so adopting the fresher of
/// the two can only move the epoch forward).
#[derive(Clone, Copy, Debug)]
pub struct MapQuery {
    /// Where to send the [`InstallShardMap`] reply.
    pub reply_to: ComponentId,
}

/// Control message: the controller tells the router that `gateway` came
/// back with a new incarnation (it crashed and lost its in-flight
/// work); the router immediately re-submits every pending client
/// request whose current owner is `gateway` instead of waiting for the
/// resubmit watchdog. Duplicate suppression keeps this safe.
#[derive(Clone, Copy, Debug)]
pub struct ReadoptClients {
    /// The shard whose affine clients should be re-submitted.
    pub gateway: u32,
}

/// Router liveness watchdog for one pending client request.
#[derive(Debug)]
struct ResubmitCheck {
    uid: u64,
}

/// Delayed re-route of a bounced client request.
#[derive(Debug)]
struct Reroute {
    uid: u64,
}

/// Router statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Distinct client requests accepted and routed.
    pub routed: u64,
    /// Successful completions delivered to clients.
    pub delivered: u64,
    /// Failed completions delivered to clients.
    pub failed: u64,
    /// Re-submissions: map changes, watchdog timeouts, bounce retries.
    pub rerouted: u64,
    /// `RC_FENCED` bounces received from fenced/draining shards.
    pub bounced: u64,
    /// Suppressed duplicate completions (the exactly-once filter).
    pub duplicates: u64,
    /// Pending requests re-submitted by [`ReadoptClients`] (a shard
    /// came back under a new incarnation).
    pub readopted: u64,
}

/// One client request the router has routed but not yet delivered.
struct PendingClient {
    client_id: u64,
    workload_id: u32,
    payload: Bytes,
    reply_to: ComponentId,
    token: u64,
    /// The shard currently responsible (updated on re-route).
    owner: u32,
    /// Re-route attempts so far.
    reroutes: u32,
    /// The armed [`ResubmitCheck`], cancelled on delivery.
    watchdog: Option<TimerId>,
}

/// The tier's client-facing router: consistent-hash dispatch, duplicate
/// suppression, and re-routing across shard-map changes.
pub struct ShardRouter {
    /// Gateway components by shard id.
    gateways: Vec<ComponentId>,
    map: Arc<ShardMap>,
    cfg: TierConfig,
    /// The last uid issued. Uids only ever increase, so a uid has been
    /// delivered exactly when it is ≤ `next_uid` and no longer pending —
    /// the exactly-once filter needs no per-request record.
    next_uid: u64,
    pending: FastMap<u64, PendingClient>,
    counters: RouterCounters,
    /// Direct peers currently cut.
    cuts: CutTable,
}

impl ShardRouter {
    /// Creates a router over `gateways` (indexed by shard id) with the
    /// initial `map`.
    ///
    /// # Panics
    ///
    /// Panics when `gateways` is empty.
    pub fn new(gateways: Vec<ComponentId>, map: Arc<ShardMap>, cfg: TierConfig) -> Self {
        assert!(!gateways.is_empty(), "at least one gateway required");
        ShardRouter {
            gateways,
            map,
            cfg,
            next_uid: 0,
            pending: FastMap::default(),
            counters: RouterCounters::default(),
            cuts: CutTable::default(),
        }
    }

    /// Statistics.
    pub fn counters(&self) -> RouterCounters {
        self.counters
    }

    /// The epoch of the currently installed map.
    pub fn map_epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// Client requests routed but not yet delivered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending client uids currently owned by `gateway`, sorted —
    /// the orphan set a crash of that shard would strand.
    pub fn pending_owned_by(&self, gateway: u32) -> Vec<u64> {
        let mut uids: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.owner == gateway)
            .map(|(&uid, _)| uid)
            .collect();
        uids.sort_unstable();
        uids
    }

    /// Sends the pending request `uid` to its owner shard.
    fn dispatch(&mut self, ctx: &mut Ctx<'_>, uid: u64) {
        let self_id = ctx.self_id();
        let Some(p) = self.pending.get(&uid) else {
            return;
        };
        let gw = self.gateways[p.owner as usize];
        ctx.send(
            gw,
            SimDuration::ZERO,
            SubmitRequest {
                workload_id: p.workload_id,
                payload: p.payload.clone(),
                reply_to: self_id,
                token: uid,
            },
        );
    }

    fn on_client_submit(&mut self, ctx: &mut Ctx<'_>, req: ClientSubmit) {
        self.next_uid += 1;
        let uid = self.next_uid;
        let owner = self.map.route(req.client_id);
        let client_id = req.client_id;
        ctx.emit(|| TraceEvent::GwClientSubmit {
            uid,
            client_id,
            gateway: owner,
        });
        self.counters.routed += 1;
        self.pending.insert(
            uid,
            PendingClient {
                client_id: req.client_id,
                workload_id: req.workload_id,
                payload: req.payload,
                reply_to: req.reply_to,
                token: req.token,
                owner,
                reroutes: 0,
                watchdog: None,
            },
        );
        self.dispatch(ctx, uid);
        self.arm_watchdog(ctx, uid);
    }

    /// Arms the liveness watchdog of the pending request `uid`.
    fn arm_watchdog(&mut self, ctx: &mut Ctx<'_>, uid: u64) {
        let timer = ctx.send_timer(self.cfg.resubmit_timeout, ResubmitCheck { uid });
        if let Some(p) = self.pending.get_mut(&uid) {
            p.watchdog = Some(timer);
        }
    }

    /// Delivers the terminal completion for `uid` — the single point at
    /// which a client ever hears about its request.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, uid: u64, done: &RequestDone) {
        let Some(mut p) = self.pending.remove(&uid) else {
            return;
        };
        if let Some(watchdog) = p.watchdog.take() {
            ctx.cancel(watchdog);
        }
        let gateway = p.owner;
        let failed = done.failed;
        ctx.emit(|| TraceEvent::GwClientComplete {
            uid,
            gateway,
            failed,
        });
        if failed {
            self.counters.failed += 1;
        } else {
            self.counters.delivered += 1;
        }
        ctx.send(
            p.reply_to,
            SimDuration::ZERO,
            RequestDone {
                token: p.token,
                workload_id: done.workload_id,
                latency: done.latency,
                sojourn: done.sojourn,
                return_code: done.return_code,
                response: done.response.clone(),
                failed,
            },
        );
    }

    fn on_done(&mut self, ctx: &mut Ctx<'_>, done: RequestDone) {
        let uid = done.token;
        let Some(p) = self.pending.get(&uid) else {
            // Not pending, so already delivered (or never issued): the
            // orphaned copy of a handoff, or both sides of a partition
            // answering. Exactly-once means exactly this suppression.
            self.counters.duplicates += 1;
            return;
        };
        // A completion cannot arrive from a shard we are partitioned
        // from; the watchdog or a map change recovers the request.
        if self.cuts.is_cut(ctx.now(), self.gateways[p.owner as usize]) {
            return;
        }
        let bounced = done.failed && done.return_code == Some(RC_FENCED);
        if bounced {
            // The shard refused: fenced, draining, or deposed. Retry
            // after a short delay — by then the map has usually moved.
            self.counters.bounced += 1;
            if p.reroutes >= self.cfg.max_reroutes {
                self.deliver(ctx, uid, &done);
                return;
            }
            ctx.send_self(self.cfg.bounce_retry, Reroute { uid });
            return;
        }
        self.deliver(ctx, uid, &done);
    }

    /// Re-routes `uid` to its owner under the current map (used by the
    /// bounce path and the watchdog).
    fn reroute(&mut self, ctx: &mut Ctx<'_>, uid: u64) {
        let owner = {
            let Some(p) = self.pending.get(&uid) else {
                return;
            };
            self.map.route(p.client_id)
        };
        let p = self.pending.get_mut(&uid).expect("checked above");
        p.owner = owner;
        p.reroutes += 1;
        self.counters.rerouted += 1;
        self.dispatch(ctx, uid);
    }

    fn on_resubmit_check(&mut self, ctx: &mut Ctx<'_>, uid: u64) {
        if !self.pending.contains_key(&uid) {
            return; // delivered; watchdog retires
        }
        // Still pending after a full watchdog period: the submit or its
        // completion was swallowed (partition, crash without a map
        // change yet). Re-submit to the current owner; duplicate
        // suppression makes this safe.
        self.reroute(ctx, uid);
        self.arm_watchdog(ctx, uid);
    }

    fn on_install(&mut self, ctx: &mut Ctx<'_>, map: Arc<ShardMap>) {
        if map.epoch() <= self.map.epoch() {
            return; // the ring never moves backwards
        }
        self.map = map;
        // Re-home every pending request whose owner changed or left the
        // map: the fast path that makes a crash lose zero acked work.
        // Requests a draining shard handed off may be re-executed by
        // their new hash owner too — at-least-once execution, with the
        // pending-set filter guaranteeing exactly-once completion.
        let mut stale: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| {
                let new_owner = self.map.route(p.client_id);
                new_owner != p.owner || !self.map.contains(p.owner)
            })
            .map(|(&uid, _)| uid)
            .collect();
        stale.sort_unstable();
        for uid in stale {
            self.reroute(ctx, uid);
        }
    }

    /// Re-submits every pending request owned by `gateway` right now —
    /// the shard restarted with empty state, so anything it owned is
    /// orphaned until re-sent. This bounds recovery by the lease
    /// heartbeat that detected the new incarnation, not by the resubmit
    /// watchdog.
    fn on_readopt(&mut self, ctx: &mut Ctx<'_>, gateway: u32) {
        for uid in self.pending_owned_by(gateway) {
            self.counters.readopted += 1;
            self.reroute(ctx, uid);
        }
    }
}

impl Component for ShardRouter {
    fn name(&self) -> &str {
        "shard-router"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<ClientSubmit>() {
            Ok(req) => {
                self.on_client_submit(ctx, *req);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<SubmitRequest>() {
            Ok(req) => {
                // Plain submits (the existing drivers) enter the tier
                // with their token doubling as the client identity.
                let req = *req;
                self.on_client_submit(
                    ctx,
                    ClientSubmit {
                        client_id: req.token,
                        workload_id: req.workload_id,
                        payload: req.payload,
                        reply_to: req.reply_to,
                        token: req.token,
                    },
                );
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RequestDone>() {
            Ok(done) => {
                self.on_done(ctx, *done);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<InstallShardMap>() {
            Ok(i) => {
                self.on_install(ctx, i.map);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResubmitCheck>() {
            Ok(r) => {
                self.on_resubmit_check(ctx, r.uid);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<Reroute>() {
            Ok(r) => {
                self.reroute(ctx, r.uid);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ReadoptClients>() {
            Ok(r) => {
                self.on_readopt(ctx, r.gateway);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<MapQuery>() {
            Ok(q) => {
                ctx.send(
                    q.reply_to,
                    SimDuration::ZERO,
                    InstallShardMap {
                        map: Arc::clone(&self.map),
                    },
                );
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<NetCutFrom>() {
            Ok(c) => self.cuts.apply(ctx.now(), &c),
            Err(other) => panic!("shard router received unknown message {other:?}"),
        }
    }
}

/// Tier-controller statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Shards deposed (lease expiry or administrative drain).
    pub deposed: u64,
    /// Shards re-admitted after a depose.
    pub rejoined: u64,
    /// Administrative drains executed.
    pub drains: u64,
    /// Drain commands refused (double-drain, last live shard, unknown
    /// shard).
    pub drains_refused: u64,
    /// Shard maps installed (including the initial one).
    pub map_installs: u64,
    /// Snapshots written to (modeled) stable storage.
    pub snapshots: u64,
    /// Restores completed after a controller restart (warm or cold).
    pub restores: u64,
    /// Restores that fell back to a cold rebuild (missing, corrupted,
    /// truncated, or wrong-version snapshot).
    pub cold_restores: u64,
    /// [`ReadoptClients`] notifications sent to the router.
    pub readopts: u64,
    /// Global-admission rebalances pushed to the member shards.
    pub budget_rebalances: u64,
}

/// Shard-only controller state, indexed like the control plane's
/// member table (which holds the lease view and the liveness tally).
struct ShardState {
    /// Administratively retired: never probed for rejoin.
    retired: bool,
    /// The shard's restart count as last acked. A jump means the shard
    /// crashed and lost its in-flight work — trigger re-adoption.
    incarnation: u64,
}

/// The tier's membership controller: a gateway-shard adapter over the
/// shared lease-membership core ([`crate::lease`]). It deposes shards
/// whose lease provably expired, re-admits healed shards under bumped
/// epochs, and publishes every membership change as a new [`ShardMap`]
/// epoch.
pub struct TierController {
    cfg: TierConfig,
    router: ComponentId,
    shards: Vec<ShardState>,
    /// Member table, lease views, and the crash/restart lifecycle.
    plane: ControlPlane,
    map: Arc<ShardMap>,
    counters: TierCounters,
    /// Modeled stable storage: the last encoded snapshot. Kept as raw
    /// bytes so every restore exercises the real codec path.
    stable: Option<Vec<u8>>,
    /// Handoff ledger: total requests shards reported handing to their
    /// drain successors. Snapshot/restore must conserve it (rule 15).
    ledger_handed_off: u64,
}

impl TierController {
    /// Creates a controller over `gateways` (indexed by shard id, all
    /// initially members) with the initial `map` shared with the
    /// router.
    ///
    /// # Panics
    ///
    /// Panics when `gateways` is empty.
    pub fn new(
        cfg: TierConfig,
        gateways: Vec<ComponentId>,
        router: ComponentId,
        map: Arc<ShardMap>,
    ) -> Self {
        assert!(!gateways.is_empty(), "at least one gateway required");
        let shards = gateways
            .iter()
            .map(|_| ShardState {
                retired: false,
                incarnation: 0,
            })
            .collect();
        let members = gateways.into_iter().map(|g| Member::new(g, 1)).collect();
        let timing = Timing {
            round: cfg.heartbeat,
            lease: cfg.lease,
            miss_threshold: cfg.miss_threshold,
            snapshot_interval: cfg.snapshot_interval,
        };
        TierController {
            cfg,
            router,
            shards,
            plane: ControlPlane::new(members, timing),
            map,
            counters: TierCounters::default(),
            stable: None,
            ledger_handed_off: 0,
        }
    }

    /// Statistics.
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// The current map epoch.
    pub fn map_epoch(&self) -> u64 {
        self.map.epoch()
    }

    /// The current member shards.
    pub fn members(&self) -> &[u32] {
        self.map.members()
    }

    /// The handoff-ledger total.
    pub fn handed_off(&self) -> u64 {
        self.ledger_handed_off
    }

    /// The raw bytes on (modeled) stable storage, if any — test hook.
    pub fn stable_bytes(&self) -> Option<&[u8]> {
        self.stable.as_deref()
    }

    /// Overwrites (modeled) stable storage — the corruption test hook.
    pub fn clobber_stable(&mut self, bytes: Vec<u8>) {
        self.stable = Some(bytes);
    }

    /// Publishes the current map: one `GwShardMap` trace event (the
    /// checker's epoch-monotonicity subject), an install at the router,
    /// and — membership changed — a rebalance of the global admission
    /// budget over the new member set.
    fn install(&mut self, ctx: &mut Ctx<'_>) {
        self.counters.map_installs += 1;
        let epoch = self.map.epoch();
        let shards = self.map.members().len() as u64;
        ctx.emit(|| TraceEvent::GwShardMap { epoch, shards });
        ctx.send(
            self.router,
            SimDuration::ZERO,
            InstallShardMap {
                map: Arc::clone(&self.map),
            },
        );
        self.rebalance_budget(ctx);
    }

    /// Divides the tier-wide admission budget evenly over the live
    /// member shards and pushes each its slice. A shard partitioned
    /// from the controller keeps its last slice (local fallback), which
    /// cannot overshoot: survivors only get wider slices at a depose,
    /// and a depose requires the departed shard's lease to have
    /// provably expired — by then it bounces everything it receives.
    fn rebalance_budget(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.global_rate_per_sec <= 0.0 {
            return;
        }
        self.counters.budget_rebalances += 1;
        let n = self.map.members().len() as f64;
        let from = ctx.self_id();
        let slice = SetAdmissionSlice {
            from,
            rate_per_sec: self.cfg.global_rate_per_sec / n,
            burst: (self.cfg.global_burst / n).max(1.0),
        };
        for &g in self.map.members() {
            ctx.send(
                self.plane.members[g as usize].component,
                SimDuration::ZERO,
                slice,
            );
        }
    }

    /// A shard's answer to the restore-time [`EpochQuery`]: adopt the
    /// fresher of the recorded and reported views (epochs never move
    /// backwards on reconcile).
    fn on_epoch_report(&mut self, ctx: &mut Ctx<'_>, report: EpochReport) {
        let Some(g) = self.plane.member_of(ctx.now(), report.from) else {
            return;
        };
        let until = SimTime::from_nanos(report.lease_until_ns);
        self.plane.members[g].view.reconcile(report.epoch, until);
        self.plane.count_reconciled();
    }

    /// The router's reply to the restore-time [`MapQuery`]: adopt its
    /// map when fresher. No re-emit, no re-install — the router already
    /// holds it, and re-emitting `GwShardMap` at an already-published
    /// epoch would trip rule 14.
    fn on_map_reply(&mut self, map: Arc<ShardMap>) {
        if map.epoch() > self.map.epoch() {
            self.map = map;
        }
    }

    /// Deposes shard `g`: its epoch is recorded as dead, and the map
    /// drops it at a bumped epoch. The shard itself has *already*
    /// stopped accepting by lease expiry (or drain) — the depose makes
    /// it official and re-homes its clients.
    fn depose(&mut self, ctx: &mut Ctx<'_>, g: u32) {
        let Some(map) = self.map.exclude(g) else {
            return; // not a member, or the last shard standing
        };
        let epoch = self.plane.members[g as usize].view.epoch;
        ctx.emit(|| TraceEvent::GwDeposed { gateway: g, epoch });
        self.counters.deposed += 1;
        self.map = Arc::new(map);
        self.install(ctx);
        self.write_through(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, ack: LeaseAck) {
        let now = ctx.now();
        let Some(g) = self.plane.member_of(now, ack.from) else {
            return;
        };
        let was_fenced = self.plane.members[g].view.fenced;
        let rejoined = self.plane.ack(g, now, ack.epoch);
        if ack.incarnation > self.shards[g].incarnation {
            // The shard restarted since its last ack: whatever it held
            // in flight is gone. Re-adopt its affine clients right now
            // (fast crash/restart never changes the map, so on_install
            // would not re-home them — only the watchdog would).
            self.shards[g].incarnation = ack.incarnation;
            if self.cfg.readopt && !was_fenced {
                self.counters.readopts += 1;
                ctx.send(
                    self.router,
                    SimDuration::ZERO,
                    ReadoptClients { gateway: g as u32 },
                );
            }
        }
        if rejoined {
            // Rejoin handshake complete: re-admit under the bumped
            // epoch.
            let gateway = g as u32;
            let epoch = self.plane.members[g].view.epoch;
            ctx.emit(|| TraceEvent::GwRejoin { gateway, epoch });
            self.counters.rejoined += 1;
            if let Some(map) = self.map.include(gateway) {
                self.map = Arc::new(map);
                self.install(ctx);
            }
            self.write_through(ctx);
        }
    }

    fn on_drain(&mut self, ctx: &mut Ctx<'_>, drain: DrainShard) {
        let g = drain.gateway;
        // Refuse rather than wedge: unknown shards, shards already
        // fenced or draining (a concurrent double-drain would hand off
        // twice and depose an empty entry), and the last live shard
        // (mirror of the never-fence-the-last-shard guard — nothing
        // could adopt its work).
        let i = g as usize;
        if !self.map.contains(g)
            || i >= self.shards.len()
            || self.plane.members[i].view.fenced
            || self.shards[i].retired
        {
            self.counters.drains_refused += 1;
            return;
        }
        let Some(successor) = self.map.successor(g) else {
            self.counters.drains_refused += 1;
            return; // last shard standing: nothing can adopt its work
        };
        self.counters.drains += 1;
        // Order matters: the drain command first (the shard hands off
        // and starts bouncing), then the map change (the router
        // re-homes). Both are zero-delay; the engine delivers them in
        // post order.
        ctx.send(
            self.plane.members[i].component,
            SimDuration::ZERO,
            DrainGateway {
                successor: self.plane.members[successor as usize].component,
                successor_gateway: successor,
            },
        );
        // Administrative fence: the shard bounces on its own (draining
        // state), so safety does not rest on lease expiry here.
        self.plane.members[i].view.fenced = true;
        self.shards[i].retired = !drain.rejoin_after;
        self.depose(ctx, g);
    }
}

impl Membership for TierController {
    const FAULT_KINDS: (&'static str, &'static str) =
        ("tier-controller-crash", "tier-controller-restart");

    fn plane(&mut self) -> &mut ControlPlane {
        &mut self.plane
    }

    /// Publishes the initial map.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.install(ctx);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_>) {
        // A restore owes its `TierRestore` event: emit it on the first
        // tick after the zero-delay reconcile replies have landed. The
        // epoch is read *now* (not at restore time) so a rejoin racing
        // the restore can only push it forward.
        if let Some((seq, reconciled)) = self.plane.restore_pending.take() {
            let epoch = self.map.epoch();
            let handed_off = self.ledger_handed_off;
            ctx.emit(|| TraceEvent::TierRestore {
                seq,
                epoch,
                reconciled,
                handed_off,
            });
            self.counters.restores += 1;
        }
        let now = ctx.now();
        for g in 0..self.shards.len() {
            self.plane.members[g].tally();
            if self.shards[g].retired {
                continue;
            }
            // Never fence the last shard standing: there is no peer to
            // absorb its keys, so deposing it would only halt the tier
            // (and on recovery produce a rejoin with no matching
            // depose). Keep granting; a restarted shard re-enrolls off
            // the next ordinary grant.
            let last_standing = self.map.members().len() == 1 && self.map.contains(g as u32);
            match self.plane.decide(g, now, last_standing) {
                Decision::Grant(grant) => self.plane.send_grant(ctx, g, grant),
                // Silent past the threshold and the last grant has
                // provably expired: the shard has already self-fenced
                // on its own clock. Depose it.
                Decision::Fence => self.depose(ctx, g as u32),
                Decision::Hold => {}
            }
        }
    }

    /// Writes the controller's durable state to (modeled) stable
    /// storage as encoded bytes, and emits the `TierSnapshot` event
    /// rule 15 audits.
    fn on_snapshot(&mut self, ctx: &mut Ctx<'_>) {
        let snap = TierSnapshot {
            seq: self.plane.next_snapshot_seq(),
            epoch: self.map.epoch(),
            handed_off: self.ledger_handed_off,
            vnodes: self.map.vnodes(),
            members: self.map.members().to_vec(),
            shards: self
                .plane
                .members
                .iter()
                .zip(&self.shards)
                .map(|(m, s)| ShardSnap {
                    epoch: m.view.epoch,
                    lease_until_ns: m.view.lease_until.as_nanos(),
                    incarnation: s.incarnation,
                    fenced: m.view.fenced,
                    retired: s.retired,
                })
                .collect(),
        };
        self.stable = Some(snap.encode());
        self.counters.snapshots += 1;
        let (seq, epoch, shards, handed_off) = (
            snap.seq,
            snap.epoch,
            snap.members.len() as u64,
            snap.handed_off,
        );
        ctx.emit(|| TraceEvent::TierSnapshot {
            seq,
            epoch,
            shards,
            handed_off,
        });
    }

    /// Recovers the controller: decode the stable snapshot (warm) or
    /// keep reconciling from scratch (cold), conservatively re-bound
    /// every lease, then query the router's map and every live shard's
    /// epoch. The map epoch never regresses: the stable snapshot is
    /// written through on every membership change, so it can never
    /// trail the router's installed map, and the `MapQuery` reply only
    /// moves the controller forward.
    fn on_restore(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let lease = self.cfg.lease;
        let warm = self
            .stable
            .as_deref()
            .and_then(|bytes| TierSnapshot::decode(bytes).ok())
            // A snapshot for a different shard roster cannot be ours.
            .filter(|snap| snap.shards.len() == self.shards.len() && !snap.members.is_empty());
        let restored_seq = match warm {
            Some(snap) => {
                self.map = Arc::new(ShardMap::new(snap.epoch, &snap.members, snap.vnodes));
                self.ledger_handed_off = snap.handed_off;
                for ((m, s), ss) in self
                    .plane
                    .members
                    .iter_mut()
                    .zip(&mut self.shards)
                    .zip(&snap.shards)
                {
                    m.view = ControllerView::restore(
                        ss.epoch,
                        ss.fenced,
                        SimTime::from_nanos(ss.lease_until_ns),
                        now,
                        lease,
                    );
                    m.clear_tally();
                    s.retired = ss.retired;
                    s.incarnation = ss.incarnation;
                }
                snap.seq
            }
            None => {
                // Cold rebuild: the snapshot is missing or rejected by
                // the codec. Keep the in-memory state (equivalent to
                // what the reconcile queries below would hand back) but
                // trust none of its timing: re-bound every unfenced
                // lease as if a grant left the instant before the
                // crash.
                self.counters.cold_restores += 1;
                for m in &mut self.plane.members {
                    if !m.view.fenced {
                        m.view.lease_until = m.view.lease_until.max(now + lease);
                    }
                    m.clear_tally();
                }
                0
            }
        };
        // Reconcile: the router's map (never behind stable — every map
        // change writes through before the install leaves) and every
        // live shard's current epoch, all zero-delay so the reports
        // land before the first post-restore tick.
        let reply_to = ctx.self_id();
        ctx.send(self.router, SimDuration::ZERO, MapQuery { reply_to });
        for (m, s) in self.plane.members.iter().zip(&self.shards) {
            if !s.retired {
                ctx.send(m.component, SimDuration::ZERO, EpochQuery { reply_to });
            }
        }
        self.plane.restore_pending = Some((restored_seq, 0));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<StartTier>() {
            Ok(_) => {
                self.start(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<LeaseAck>() {
            Ok(a) => {
                self.on_ack(ctx, *a);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<DrainShard>() {
            Ok(d) => {
                self.on_drain(ctx, *d);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<EpochReport>() {
            Ok(r) => {
                self.on_epoch_report(ctx, *r);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<InstallShardMap>() {
            Ok(i) => {
                self.on_map_reply(i.map);
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<HandoffReport>() {
            Ok(r) => {
                if !self.plane.cuts.is_cut(ctx.now(), r.from) {
                    self.ledger_handed_off += r.count;
                    self.write_through(ctx);
                }
            }
            Err(other) => panic!("tier controller received unknown message {other:?}"),
        }
    }
}

impl Component for TierController {
    fn name(&self) -> &str {
        "tier-controller"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.dispatch(ctx, msg);
    }
}

/// An open-loop load generator driving the tier with the planetary
/// traffic model: arrivals follow the model's time-varying aggregate
/// rate (non-homogeneous Poisson, sampled by thinning), and each
/// arrival is attributed to a client drawn from the model's
/// heavy-tailed per-client distribution — the ring key the router
/// shards by.
pub struct PlanetDriver {
    router: ComponentId,
    model: PlanetModel,
    jobs: Vec<JobSpec>,
    /// Stop issuing after this much driven time (completions keep
    /// arriving afterwards).
    horizon: SimDuration,
    /// Thinning envelope (the model's analytic max rate).
    max_rate: f64,
    started_at: Option<SimTime>,
    issued: u64,
    completed: Vec<CompletedRequest>,
}

/// Candidate arrival of the thinning process.
#[derive(Debug)]
struct PlanetArrival;

impl PlanetDriver {
    /// Creates a driver issuing `model` traffic at `router` for
    /// `horizon`, rotating payloads over `jobs`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty or the model's rate is not positive.
    pub fn new(
        router: ComponentId,
        model: PlanetModel,
        jobs: Vec<JobSpec>,
        horizon: SimDuration,
    ) -> Self {
        assert!(!jobs.is_empty(), "at least one job required");
        let max_rate = model.max_rate();
        assert!(
            max_rate.is_finite() && max_rate > 0.0,
            "planet model rate must be positive"
        );
        PlanetDriver {
            router,
            model,
            jobs,
            horizon,
            max_rate,
            started_at: None,
            issued: 0,
            completed: Vec::new(),
        }
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Completed requests in completion order.
    pub fn completed(&self) -> &[CompletedRequest] {
        &self.completed
    }

    /// Latencies of successful requests, skipping `warmup` completions.
    pub fn latency_series(&self, warmup: usize) -> Series {
        let mut s = Series::new("planet_latency");
        for c in self.completed.iter().skip(warmup).filter(|c| !c.failed) {
            s.record(c.latency);
        }
        s
    }

    /// Successful completions per second inside `[from, to)` —
    /// the goodput probe the handoff benchmarks window around a fault.
    pub fn goodput_in(&self, from: SimTime, to: SimTime) -> f64 {
        let window = to.saturating_duration_since(from);
        if window.is_zero() {
            return 0.0;
        }
        let ok = self
            .completed
            .iter()
            .filter(|c| !c.failed && c.at >= from && c.at < to)
            .count();
        ok as f64 / window.as_secs_f64()
    }

    fn elapsed_s(&self, now: SimTime) -> f64 {
        self.started_at
            .map_or(0.0, |s| now.saturating_duration_since(s).as_secs_f64())
    }

    fn schedule_candidate(&self, ctx: &mut Ctx<'_>) {
        // Homogeneous candidates at the envelope rate; thinning keeps
        // each with probability rate(t)/max_rate.
        let u: f64 = ctx.rng().gen_range(f64::MIN_POSITIVE..1.0);
        let gap_s = -u.ln() / self.max_rate;
        ctx.send_self(SimDuration::from_secs_f64(gap_s), PlanetArrival);
    }

    fn on_arrival(&mut self, ctx: &mut Ctx<'_>) {
        let t = self.elapsed_s(ctx.now());
        if t >= self.horizon.as_secs_f64() {
            return; // horizon reached: stop the arrival process
        }
        let keep = self.model.rate_at(t) / self.max_rate;
        let roll: f64 = ctx.rng().gen();
        if roll < keep {
            let client_id = self.model.sample_client(ctx.rng());
            let job = &self.jobs[(self.issued % self.jobs.len() as u64) as usize];
            let workload_id = job.workload_id;
            let payload = job.payload.generate(ctx.rng());
            let token = self.issued;
            self.issued += 1;
            let self_id = ctx.self_id();
            ctx.send(
                self.router,
                SimDuration::ZERO,
                ClientSubmit {
                    client_id,
                    workload_id,
                    payload,
                    reply_to: self_id,
                    token,
                },
            );
        }
        self.schedule_candidate(ctx);
    }
}

impl Component for PlanetDriver {
    fn name(&self) -> &str {
        "planet-driver"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if msg.is::<StartDriver>() {
            self.started_at = Some(ctx.now());
            self.schedule_candidate(ctx);
            return;
        }
        if msg.is::<PlanetArrival>() {
            self.on_arrival(ctx);
            return;
        }
        match msg.downcast::<RequestDone>() {
            Ok(done) => {
                self.completed.push(CompletedRequest {
                    workload_id: done.workload_id,
                    latency: done.latency,
                    sojourn: done.sojourn,
                    at: ctx.now(),
                    failed: done.failed,
                    return_code: done.return_code,
                });
            }
            Err(other) => panic!("planet driver received unknown message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let map = ShardMap::new(1, &[0, 1, 2], 16);
        for key in 0..1000u64 {
            let a = map.route(key);
            let b = map.route(key);
            assert_eq!(a, b, "routing must be a pure function");
            assert!(map.contains(a), "owner must be a member");
        }
    }

    #[test]
    fn all_members_own_some_keys() {
        let map = ShardMap::new(1, &[0, 1, 2, 3], 16);
        let mut owned = [0usize; 4];
        for key in 0..4000u64 {
            owned[map.route(key) as usize] += 1;
        }
        for (g, &n) in owned.iter().enumerate() {
            assert!(n > 0, "gateway {g} owns no keys");
        }
    }

    #[test]
    fn exclude_moves_only_the_departed_members_keys() {
        let map = ShardMap::new(1, &[0, 1, 2], 16);
        let smaller = map.exclude(1).expect("members remain");
        assert_eq!(smaller.epoch(), 2);
        assert!(!smaller.contains(1));
        let mut moved = 0;
        let mut kept = 0;
        for key in 0..2000u64 {
            let before = map.route(key);
            let after = smaller.route(key);
            if before == 1 {
                assert_ne!(after, 1, "departed member still owns a key");
                moved += 1;
            } else {
                assert_eq!(
                    before, after,
                    "a surviving member's key moved on exclude (key {key})"
                );
                kept += 1;
            }
        }
        assert!(moved > 0, "departed member owned nothing");
        assert!(kept > 0, "survivors owned nothing");
    }

    #[test]
    fn include_then_exclude_round_trips_membership() {
        let map = ShardMap::new(5, &[0, 2], 8);
        let bigger = map.include(1).expect("not a member yet");
        assert_eq!(bigger.epoch(), 6);
        assert_eq!(bigger.members(), &[0, 1, 2]);
        assert!(bigger.include(1).is_none(), "double include");
        let back = bigger.exclude(1).expect("member");
        assert_eq!(back.members(), map.members());
        assert_eq!(back.epoch(), 7, "epochs only move forward");
    }

    #[test]
    fn exclude_refuses_to_empty_the_ring() {
        let map = ShardMap::new(1, &[7], 8);
        assert!(map.exclude(7).is_none(), "deposed the last shard");
        assert!(map.exclude(3).is_none(), "excluded a non-member");
    }

    #[test]
    fn successor_is_cyclic() {
        let map = ShardMap::new(1, &[0, 1, 2], 8);
        assert_eq!(map.successor(0), Some(1));
        assert_eq!(map.successor(2), Some(0));
        let solo = ShardMap::new(1, &[4], 8);
        assert_eq!(solo.successor(4), None);
    }

    /// Stands in for a gateway shard: answers every submit twice, the
    /// second copy 1 ms after the first (a handoff's orphaned copy
    /// answering late).
    struct AnswersTwice;

    impl Component for AnswersTwice {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
            let req = msg.downcast::<SubmitRequest>().expect("submit");
            for delay in [SimDuration::from_micros(10), SimDuration::from_millis(1)] {
                ctx.send(
                    req.reply_to,
                    delay,
                    RequestDone {
                        token: req.token,
                        workload_id: req.workload_id,
                        latency: delay,
                        sojourn: delay,
                        return_code: Some(0),
                        response: Bytes::new(),
                        failed: false,
                    },
                );
            }
        }
    }

    /// Records the token of every completion delivered to it.
    #[derive(Default)]
    struct Client {
        tokens: Vec<u64>,
    }

    impl Component for Client {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
            self.tokens
                .push(msg.downcast::<RequestDone>().expect("completion").token);
        }
    }

    #[test]
    fn late_duplicate_completion_is_counted_and_never_delivered() {
        let mut sim = Simulation::new(1);
        let shard = sim.add(AnswersTwice);
        let client = sim.add(Client::default());
        let cfg = TierConfig::default();
        let map = Arc::new(ShardMap::new(1, &[0], cfg.vnodes));
        let router = sim.add(ShardRouter::new(vec![shard], map, cfg));
        for token in 1..=3 {
            sim.post(
                router,
                SimDuration::from_micros(token),
                ClientSubmit {
                    client_id: token,
                    workload_id: 7,
                    payload: Bytes::new(),
                    reply_to: client,
                    token,
                },
            );
        }
        sim.run();
        assert_eq!(sim.get::<Client>(client).unwrap().tokens, vec![1, 2, 3]);
        let r = sim.get::<ShardRouter>(router).unwrap();
        let c = r.counters();
        assert_eq!((c.routed, c.delivered, c.duplicates), (3, 3, 3));
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn gateway_id_recovers_from_request_ids() {
        let g = GatewayId(3);
        let rid = g.id_base() + 12345;
        assert_eq!(GatewayId::of_request(rid), g);
        assert_eq!(GatewayId::of_request(42), GatewayId(0));
        assert_eq!(format!("{g}"), "gw3");
    }

    use proptest::prelude::*;

    fn arb_snapshot() -> impl Strategy<Value = TierSnapshot> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            1u32..64,
            proptest::collection::btree_set(0u32..32, 1..8),
            proptest::collection::vec(
                (
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<bool>(),
                    any::<bool>(),
                ),
                1..8,
            ),
        )
            .prop_map(
                |(seq, epoch, handed_off, vnodes, members, shards)| TierSnapshot {
                    seq,
                    epoch,
                    handed_off,
                    vnodes,
                    members: members.into_iter().collect(),
                    shards: shards
                        .into_iter()
                        .map(
                            |(epoch, lease_until_ns, incarnation, fenced, retired)| ShardSnap {
                                epoch,
                                lease_until_ns,
                                incarnation,
                                fenced,
                                retired,
                            },
                        )
                        .collect(),
                },
            )
    }

    proptest! {
        /// Encode/decode is the identity on every well-formed snapshot.
        #[test]
        fn snapshot_codec_round_trips(snap in arb_snapshot()) {
            let bytes = snap.encode();
            let back = TierSnapshot::decode(&bytes).expect("round trip");
            prop_assert_eq!(back, snap);
        }

        /// Any single bit flip anywhere in the encoding is rejected —
        /// the checksum covers header, payload, and itself.
        #[test]
        fn snapshot_codec_rejects_any_bit_flip(
            snap in arb_snapshot(),
            bit in any::<u64>(),
        ) {
            let mut bytes = snap.encode();
            let nbits = bytes.len() * 8;
            let b = bit as usize % nbits;
            bytes[b / 8] ^= 1 << (b % 8);
            prop_assert!(
                TierSnapshot::decode(&bytes).is_err(),
                "a corrupted snapshot decoded cleanly (bit {})",
                b
            );
        }

        /// Every strict prefix of a valid encoding is rejected.
        #[test]
        fn snapshot_codec_rejects_every_truncation(snap in arb_snapshot()) {
            let bytes = snap.encode();
            for len in 0..bytes.len() {
                prop_assert!(
                    TierSnapshot::decode(&bytes[..len]).is_err(),
                    "a truncated snapshot ({} of {} bytes) decoded cleanly",
                    len,
                    bytes.len()
                );
            }
        }

        /// Ring churn: excluding then re-including a member restores
        /// the ring byte-identically at a bumped epoch, and only the
        /// departed member's key range ever moves while it is out.
        #[test]
        fn churn_round_trips_ring_and_moves_only_departed_keys(
            members in proptest::collection::btree_set(0u32..32, 2..8),
            pick in any::<u64>(),
            vnodes in 1u32..24,
        ) {
            let members: Vec<u32> = members.into_iter().collect();
            let g = members[pick as usize % members.len()];
            let map = ShardMap::new(1, &members, vnodes);
            let smaller = map.exclude(g).expect("more than one member");
            prop_assert_eq!(smaller.epoch(), 2);
            for key in 0..512u64 {
                let before = map.route(key);
                let after = smaller.route(key);
                if before == g {
                    prop_assert!(after != g, "departed member still owns key {}", key);
                } else {
                    prop_assert_eq!(
                        before, after,
                        "a survivor's key moved on exclude (key {})", key
                    );
                }
            }
            let back = smaller.include(g).expect("not a member while out");
            prop_assert_eq!(back.epoch(), 3, "epochs only move forward");
            prop_assert_eq!(back.members(), map.members());
            prop_assert_eq!(&back.points, &map.points, "ring must rebuild byte-identically");
        }
    }

    #[test]
    fn snapshot_codec_rejects_wrong_version_and_trailing_bytes() {
        let snap = TierSnapshot {
            seq: 3,
            epoch: 9,
            handed_off: 7,
            vnodes: 16,
            members: vec![0, 2],
            shards: vec![ShardSnap {
                epoch: 9,
                lease_until_ns: 1_000_000,
                incarnation: 1,
                fenced: false,
                retired: false,
            }],
        };
        let good = snap.encode();
        assert_eq!(TierSnapshot::decode(&good).as_ref(), Ok(&snap));

        // Wrong version, checksum re-stamped so only the version trips.
        let mut wrong_ver = good.clone();
        wrong_ver[4] = wrong_ver[4].wrapping_add(1);
        let len = wrong_ver.len();
        let sum = fnv1a64(&wrong_ver[..len - 8]);
        wrong_ver[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            TierSnapshot::decode(&wrong_ver),
            Err("unsupported snapshot version")
        );

        // Trailing garbage after a valid payload.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 9]);
        assert!(TierSnapshot::decode(&padded).is_err());

        // Arbitrary garbage.
        assert!(TierSnapshot::decode(b"not a snapshot at all").is_err());
        assert!(TierSnapshot::decode(&[]).is_err());
    }
}
