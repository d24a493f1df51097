//! The Raft consensus node: leader election and log replication
//! following the Raft paper's Figure 2, plus log compaction with
//! snapshots (§7); no membership changes.
//!
//! ## Compaction
//!
//! Each node folds the applied prefix of its log into a [`Snapshot`]: a
//! second [`KvStore`] that moves forward one drained entry at a time, so
//! the log holds only entries some node may still need. A follower
//! compacts below its `last_applied`; a leader below the smaller of its
//! `last_applied` and every peer's `match_index`. Compaction waits until
//! the prefix is at least [`COMPACT_MIN_ENTRIES`] entries *and* at least
//! half the retained log, so draining costs amortised O(1) per entry. A
//! peer whose next entry the leader has compacted away (possible only
//! after a leader change, since a leader never compacts past any peer's
//! match index) is sent the snapshot itself as
//! [`Rpc::InstallSnapshot`].

use lnic_sim::hash::{FastMap, FastSet};
use lnic_sim::prelude::*;
use rand::Rng;

use crate::msg::{ClientOp, ClientReply, ClientRequest, NotLeader, RaftMsg, Rpc};
use crate::types::{
    chain_digest, Command, KvStore, LogEntry, LogIndex, NodeId, Role, Snapshot, Term,
};

/// Protocol timing configuration.
#[derive(Clone, Copy, Debug)]
pub struct RaftConfig {
    /// Minimum randomized election timeout.
    pub election_timeout_min: SimDuration,
    /// Maximum randomized election timeout.
    pub election_timeout_max: SimDuration,
    /// Leader heartbeat interval.
    pub heartbeat_interval: SimDuration,
    /// Leader read lease: when set, a leader only serves reads locally
    /// while it has heard append acks from a majority within this
    /// window, *and* has committed its term's no-op, *and* has applied
    /// everything committed — otherwise it answers
    /// [`crate::msg::NotLeader`] and the client retries elsewhere. The
    /// window must be shorter than `election_timeout_min` so a deposed
    /// leader's lease provably lapses before any successor can be
    /// elected (same clock in the simulation, so no skew term). `None`
    /// keeps the seed's lease-free behaviour (reads may be stale during
    /// leadership changes; fine for the control-plane use).
    pub read_lease: Option<SimDuration>,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: SimDuration::from_millis(150),
            election_timeout_max: SimDuration::from_millis(300),
            heartbeat_interval: SimDuration::from_millis(50),
            read_lease: None,
        }
    }
}

/// Cap on entries per AppendEntries. Without it a freshly-healed
/// follower is offered the whole missed suffix on every write *and*
/// every heartbeat while the first ack is still in flight — the send
/// rate outruns the ack round-trip and the offered load diverges.
/// Catch-up past the cap is ack-clocked (see the AppendEntriesReply
/// success path).
const MAX_APPEND_BATCH: usize = 64;

/// Fewest applied entries a node folds into its snapshot at once. A
/// compaction also waits until the prefix is at least half the retained
/// log, so the `drain` that shifts the suffix down costs amortised O(1)
/// per entry, and a fault-free node retains about twice this many
/// entries at most.
pub const COMPACT_MIN_ENTRIES: usize = 64;

#[derive(Debug)]
struct ElectionTimeout {
    epoch: u64,
}

#[derive(Debug)]
struct HeartbeatTick {
    term: Term,
}

/// One Raft node as a simulation component.
///
/// Wire all nodes through a [`crate::net::RaftNet`]; drive client traffic
/// with [`ClientRequest`] messages.
pub struct RaftNode {
    id: NodeId,
    peers: Vec<NodeId>,
    net: ComponentId,
    cfg: RaftConfig,

    // Persistent state.
    term: Term,
    voted_for: Option<NodeId>,
    /// Entries after the snapshot: `log[i]` is index `snap.index + 1 + i`.
    log: Vec<LogEntry>,
    /// The compacted prefix `1..=snap.index`.
    snap: Snapshot,

    // Volatile state.
    role: Role,
    commit_index: LogIndex,
    last_applied: LogIndex,
    leader_hint: Option<NodeId>,
    votes: FastSet<NodeId>,
    next_index: FastMap<NodeId, LogIndex>,
    match_index: FastMap<NodeId, LogIndex>,
    election_epoch: u64,
    /// The armed [`ElectionTimeout`], cancelled when a reset supersedes it.
    election_timer: Option<TimerId>,

    /// Whether the node is crashed (ignores traffic until restart).
    crashed: bool,
    kv: KvStore,
    /// [`chain_digest`] over entries `1..=last_applied`.
    applied_digest: u64,
    /// Client waiting on each proposed index.
    pending: FastMap<LogIndex, (u64, ComponentId)>,
    /// History of `(term, was_leader)` observations for election-safety
    /// checks.
    leader_terms: Vec<Term>,
    /// When each peer last acknowledged an append from this leader
    /// (read-lease freshness evidence; cleared on every role change).
    ack_times: FastMap<NodeId, SimTime>,
    /// Index of the no-op this leader proposed on election; local reads
    /// wait for it to commit (Raft §8's current-commit-index guard).
    term_start: LogIndex,
    /// Peers this leader has sent its snapshot to and not heard back
    /// from. A snapshot is resent at most once per heartbeat, however
    /// many appends or rejections ask for it meanwhile.
    snapshot_inflight: FastSet<NodeId>,
}

impl RaftNode {
    /// Creates node `id` of a cluster of `cluster_size` nodes, routed
    /// through the `net` fabric.
    ///
    /// Post a [`StartNode`] message to arm its first election timer.
    pub fn new(id: NodeId, cluster_size: u32, net: ComponentId, cfg: RaftConfig) -> Self {
        let peers = (0..cluster_size)
            .filter(|&i| i != id.0)
            .map(NodeId)
            .collect();
        RaftNode {
            id,
            peers,
            net,
            cfg,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            snap: Snapshot::default(),
            role: Role::Follower,
            commit_index: 0,
            last_applied: 0,
            leader_hint: None,
            votes: FastSet::default(),
            next_index: FastMap::default(),
            match_index: FastMap::default(),
            election_epoch: 0,
            election_timer: None,
            crashed: false,
            kv: KvStore::default(),
            applied_digest: 0,
            pending: FastMap::default(),
            leader_terms: Vec::new(),
            ack_times: FastMap::default(),
            term_start: 0,
            snapshot_inflight: FastSet::default(),
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// The retained log after the snapshot: entry `i` has index
    /// [`Self::snapshot_index`]` + 1 + i` (tests/invariant checks).
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Last index folded into the node's snapshot (0 before the first
    /// compaction).
    pub fn snapshot_index(&self) -> LogIndex {
        self.snap.index
    }

    /// Index of the last entry applied to the state machine.
    pub fn last_applied(&self) -> LogIndex {
        self.last_applied
    }

    /// [`chain_digest`] over every entry applied so far (`1..=`
    /// [`Self::last_applied`]): nodes at one index with equal digests
    /// applied the same sequence.
    pub fn applied_digest(&self) -> u64 {
        self.applied_digest
    }

    /// Terms in which this node became leader.
    pub fn leader_terms(&self) -> &[Term] {
        &self.leader_terms
    }

    /// Reads the node's key-value state (tests).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Whether the node is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Steps down immediately if leader (leadership fencing): called by
    /// the embedding component when its worker's lease epoch is bumped —
    /// a fenced worker must not keep acting as the group's leader, so
    /// PR-5 fencing tokens double as raft leadership fences. Pending
    /// proposals fail with [`NotLeader`] and clients retry against the
    /// successor.
    pub fn fence(&mut self, ctx: &mut Ctx<'_>) {
        if self.crashed {
            return;
        }
        if self.role != Role::Follower {
            let term = self.term;
            self.become_follower(ctx, term);
        }
    }

    /// Whether a local read is currently linearizable: leader, term
    /// no-op committed, state machine caught up, and (when a read lease
    /// is configured) majority ack evidence fresher than the lease.
    pub fn can_serve_read(&self, now: SimTime) -> bool {
        let Some(lease) = self.cfg.read_lease else {
            // Lease-free configs keep the seed's behaviour: any leader
            // serves reads from local state.
            return self.role == Role::Leader;
        };
        if self.role != Role::Leader
            || self.commit_index < self.term_start
            || self.last_applied < self.commit_index
        {
            return false;
        }
        let fresh = 1 + self
            .peers
            .iter()
            .filter(|p| {
                self.ack_times
                    .get(p)
                    .is_some_and(|&t| now.saturating_duration_since(t) <= lease)
            })
            .count();
        fresh >= self.majority()
    }

    fn last_log_index(&self) -> LogIndex {
        self.snap.index + self.log.len() as LogIndex
    }

    fn last_log_term(&self) -> Term {
        self.log.last().map_or(self.snap.term, |e| e.term)
    }

    /// Position in `log` of `index`, when it is after the snapshot.
    fn log_pos(&self, index: LogIndex) -> Option<usize> {
        index.checked_sub(self.snap.index + 1).map(|p| p as usize)
    }

    /// Term of the entry at `index`: known for the snapshot's last entry
    /// and the retained log, `None` inside the snapshot or past the end.
    fn entry_term(&self, index: LogIndex) -> Option<Term> {
        if index == self.snap.index {
            return Some(self.snap.term);
        }
        self.log.get(self.log_pos(index)?).map(|e| e.term)
    }

    fn majority(&self) -> usize {
        self.peers.len().div_ceil(2) + 1
    }

    fn send(&self, ctx: &mut Ctx<'_>, to: NodeId, rpc: Rpc) {
        ctx.send(
            self.net,
            SimDuration::ZERO,
            RaftMsg {
                from: self.id,
                to,
                rpc,
            },
        );
    }

    fn reset_election_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.election_epoch += 1;
        let min = self.cfg.election_timeout_min.as_nanos();
        let max = self.cfg.election_timeout_max.as_nanos();
        let delay = SimDuration::from_nanos(ctx.rng().gen_range(min..=max));
        let armed = ctx.send_timer(
            delay,
            ElectionTimeout {
                epoch: self.election_epoch,
            },
        );
        if let Some(superseded) = self.election_timer.replace(armed) {
            ctx.cancel(superseded);
        }
    }

    fn become_follower(&mut self, ctx: &mut Ctx<'_>, term: Term) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        // A deposed leader fails its un-committed proposals so clients
        // can retry against the new leader (writes are therefore
        // at-least-once; commands should be idempotent).
        if self.role == Role::Leader {
            for (_, (token, client)) in std::mem::take(&mut self.pending) {
                ctx.send(
                    client,
                    SimDuration::ZERO,
                    ClientReply {
                        token,
                        result: Err(NotLeader { hint: None }),
                    },
                );
            }
        }
        // Only a deposed leader needs a fresh election timer (leaders
        // run no timer). Followers and candidates keep the one already
        // armed: resetting here would let a partitioned node that
        // rejoined with a huge term — but an unelectable, stale log —
        // perpetually push back everyone else's timeouts and starve the
        // real election (the disruption the dissertation's §9.6
        // vote-grant-only reset rule exists to prevent).
        let stepped_down = self.role == Role::Leader;
        self.role = Role::Follower;
        self.votes.clear();
        self.ack_times.clear();
        if stepped_down {
            self.reset_election_timer(ctx);
        }
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes = FastSet::from_iter([self.id]);
        self.leader_hint = None;
        self.reset_election_timer(ctx);
        let (lli, llt) = (self.last_log_index(), self.last_log_term());
        for &peer in &self.peers.clone() {
            self.send(
                ctx,
                peer,
                Rpc::RequestVote {
                    term: self.term,
                    last_log_index: lli,
                    last_log_term: llt,
                },
            );
        }
        // Single-node cluster: win immediately.
        if self.votes.len() >= self.majority() {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.leader_terms.push(self.term);
        let next = self.last_log_index() + 1;
        for &p in &self.peers {
            self.next_index.insert(p, next);
            self.match_index.insert(p, 0);
        }
        self.snapshot_inflight.clear();
        // Commit a no-op from the new term (Raft §8) so the leader learns
        // the commit index promptly; local reads wait for it.
        self.log.push(LogEntry {
            term: self.term,
            command: Command::Noop,
        });
        self.term_start = self.last_log_index();
        self.ack_times.clear();
        self.broadcast_append(ctx);
        ctx.send_self(
            self.cfg.heartbeat_interval,
            HeartbeatTick { term: self.term },
        );
    }

    fn broadcast_append(&mut self, ctx: &mut Ctx<'_>) {
        for peer in self.peers.clone() {
            self.send_append(ctx, peer);
        }
        self.try_advance_commit(ctx);
    }

    fn send_append(&mut self, ctx: &mut Ctx<'_>, peer: NodeId) {
        let next = *self.next_index.get(&peer).unwrap_or(&1);
        if next <= self.snap.index {
            // The peer needs entries this node has compacted away.
            if self.snapshot_inflight.insert(peer) {
                let snapshot = Box::new(self.snap.clone());
                self.send(
                    ctx,
                    peer,
                    Rpc::InstallSnapshot {
                        term: self.term,
                        snapshot,
                    },
                );
            }
            return;
        }
        let prev_index = next - 1;
        let prev_term = self.entry_term(prev_index).unwrap_or(0);
        let suffix = self
            .log
            .get(prev_index as usize - self.snap.index as usize..)
            .unwrap_or(&[]);
        let entries: Vec<LogEntry> = suffix[..suffix.len().min(MAX_APPEND_BATCH)].to_vec();
        self.send(
            ctx,
            peer,
            Rpc::AppendEntries {
                term: self.term,
                prev_log_index: prev_index,
                prev_log_term: prev_term,
                entries,
                leader_commit: self.commit_index,
            },
        );
    }

    fn try_advance_commit(&mut self, ctx: &mut Ctx<'_>) {
        if self.role != Role::Leader {
            return;
        }
        for n in (self.commit_index + 1..=self.last_log_index()).rev() {
            if self.entry_term(n) != Some(self.term) {
                continue;
            }
            let replicas = 1 + self
                .peers
                .iter()
                .filter(|p| self.match_index.get(p).copied().unwrap_or(0) >= n)
                .count();
            if replicas >= self.majority() {
                self.commit_index = n;
                break;
            }
        }
        self.apply_committed(ctx);
    }

    fn apply_committed(&mut self, ctx: &mut Ctx<'_>) {
        while self.last_applied < self.commit_index {
            self.last_applied += 1;
            let entry = &self.log[(self.last_applied - self.snap.index - 1) as usize];
            let result = self.kv.apply(&entry.command);
            self.applied_digest = chain_digest(self.applied_digest, self.last_applied, entry);
            if let Some((token, client)) = self.pending.remove(&self.last_applied) {
                ctx.send(
                    client,
                    SimDuration::ZERO,
                    ClientReply {
                        token,
                        result: Ok(result),
                    },
                );
            }
        }
        self.compact();
    }

    /// Folds the prefix no node can need from this one into the
    /// snapshot: below `last_applied` on any node, and on a leader also
    /// below every peer's `match_index`.
    fn compact(&mut self) {
        let mut upto = self.last_applied;
        if self.role == Role::Leader {
            for p in &self.peers {
                upto = upto.min(self.match_index.get(p).copied().unwrap_or(0));
            }
        }
        let n = upto.saturating_sub(self.snap.index) as usize;
        if n < COMPACT_MIN_ENTRIES || 2 * n < self.log.len() {
            return;
        }
        for entry in self.log.drain(..n) {
            self.snap.fold(&entry);
        }
    }

    /// Installs a leader's snapshot (Raft Fig. 13). Entries after it are
    /// kept when the log holds the snapshot's last entry; the state
    /// machine is replaced only when it is behind the snapshot.
    fn install_snapshot(&mut self, snapshot: Snapshot) {
        if snapshot.index <= self.snap.index {
            return; // stale or duplicate: already covered
        }
        if self.entry_term(snapshot.index) == Some(snapshot.term) {
            let covered = (snapshot.index - self.snap.index) as usize;
            self.log.drain(..covered);
        } else {
            self.log.clear();
        }
        if self.last_applied < snapshot.index {
            self.kv = snapshot.kv.clone();
            self.last_applied = snapshot.index;
            self.applied_digest = snapshot.digest;
        }
        self.commit_index = self.commit_index.max(snapshot.index);
        self.snap = snapshot;
    }

    /// A peer acknowledged everything up to `match_index` (an append or
    /// a snapshot install): advance its pipe and the commit index.
    fn on_peer_match(&mut self, ctx: &mut Ctx<'_>, peer: NodeId, match_index: LogIndex) {
        // Monotonic: a late or duplicated ack must not rewind the pipe.
        let prev = self.match_index.get(&peer).copied().unwrap_or(0);
        if match_index > prev {
            self.match_index.insert(peer, match_index);
            self.next_index.insert(peer, match_index + 1);
            self.try_advance_commit(ctx);
            if match_index < self.last_log_index() {
                // Ack-clocked catch-up: the peer accepted a capped batch
                // and is still behind.
                self.send_append(ctx, peer);
            }
        }
    }

    fn on_rpc(&mut self, ctx: &mut Ctx<'_>, from: NodeId, rpc: Rpc) {
        match rpc {
            Rpc::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                }
                let log_ok = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let grant = term == self.term
                    && log_ok
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if grant {
                    self.voted_for = Some(from);
                    self.reset_election_timer(ctx);
                }
                self.send(
                    ctx,
                    from,
                    Rpc::RequestVoteReply {
                        term: self.term,
                        granted: grant,
                    },
                );
            }
            Rpc::RequestVoteReply { term, granted } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            Rpc::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.become_follower(ctx, term);
                }
                if term < self.term {
                    self.send(
                        ctx,
                        from,
                        Rpc::AppendEntriesReply {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                // Valid leader for this term.
                self.leader_hint = Some(from);
                self.reset_election_timer(ctx);
                // Entries at or below the snapshot are committed, so
                // they match whatever a valid leader sends for them.
                if prev_log_index >= self.snap.index
                    && self.entry_term(prev_log_index) != Some(prev_log_term)
                {
                    self.send(
                        ctx,
                        from,
                        Rpc::AppendEntriesReply {
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    );
                    return;
                }
                // Append, truncating conflicts.
                let mut index = prev_log_index;
                for entry in entries {
                    index += 1;
                    let Some(pos) = self.log_pos(index) else {
                        continue; // inside the snapshot
                    };
                    match self.log.get(pos).map(|e| e.term) {
                        Some(t) if t == entry.term => {}
                        Some(_) => {
                            self.log.truncate(pos);
                            self.log.push(entry);
                        }
                        None => self.log.push(entry),
                    }
                }
                if leader_commit > self.commit_index {
                    // Raft Fig. 2: min(leaderCommit, index of last new entry).
                    self.commit_index = leader_commit.min(index);
                    self.apply_committed(ctx);
                }
                self.send(
                    ctx,
                    from,
                    Rpc::AppendEntriesReply {
                        term: self.term,
                        success: true,
                        match_index: index,
                    },
                );
            }
            Rpc::AppendEntriesReply {
                term,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                // Any same-term reply is freshness evidence: the peer
                // processed an append from this leadership.
                self.ack_times.insert(from, ctx.now());
                if success {
                    self.on_peer_match(ctx, from, match_index);
                } else {
                    // Back off and retry.
                    let next = self.next_index.entry(from).or_insert(1);
                    *next = next.saturating_sub(1).max(1);
                    self.send_append(ctx, from);
                }
            }
            Rpc::InstallSnapshot { term, snapshot } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.become_follower(ctx, term);
                }
                let mut match_index = 0;
                if term == self.term {
                    self.leader_hint = Some(from);
                    self.reset_election_timer(ctx);
                    match_index = snapshot.index;
                    self.install_snapshot(*snapshot);
                }
                self.send(
                    ctx,
                    from,
                    Rpc::InstallSnapshotReply {
                        term: self.term,
                        match_index,
                    },
                );
            }
            Rpc::InstallSnapshotReply { term, match_index } => {
                if term > self.term {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                self.snapshot_inflight.remove(&from);
                self.ack_times.insert(from, ctx.now());
                self.on_peer_match(ctx, from, match_index);
            }
        }
    }

    fn on_client(&mut self, ctx: &mut Ctx<'_>, req: ClientRequest) {
        if self.role != Role::Leader {
            ctx.send(
                req.reply_to,
                SimDuration::ZERO,
                ClientReply {
                    token: req.token,
                    result: Err(NotLeader {
                        hint: self.leader_hint,
                    }),
                },
            );
            return;
        }
        match req.op {
            ClientOp::Read { key } => {
                // Serving from local state is only linearizable under
                // the read-lease conditions; otherwise bounce the client
                // (it retries, landing here again once the no-op commits
                // or at the new leader once one exists).
                if !self.can_serve_read(ctx.now()) {
                    ctx.send(
                        req.reply_to,
                        SimDuration::ZERO,
                        ClientReply {
                            token: req.token,
                            result: Err(NotLeader { hint: None }),
                        },
                    );
                    return;
                }
                let value = self.kv.get(&key).map(|v| v.to_vec());
                ctx.send(
                    req.reply_to,
                    SimDuration::ZERO,
                    ClientReply {
                        token: req.token,
                        result: Ok(value),
                    },
                );
            }
            ClientOp::Write(command) => {
                self.log.push(LogEntry {
                    term: self.term,
                    command,
                });
                let index = self.last_log_index();
                self.pending.insert(index, (req.token, req.reply_to));
                self.broadcast_append(ctx);
            }
        }
    }
}

/// Control message arming a node's first election timer.
#[derive(Debug)]
pub struct StartNode;

/// Control message: crash the node. Volatile state is lost; persistent
/// state (term, vote, snapshot, log) survives, per Raft's durability
/// contract. A crashed node ignores everything except [`Restart`].
#[derive(Debug)]
pub struct Crash;

/// Control message: restart a crashed node. The state machine restarts
/// from the snapshot, and the retained log replays as entries re-commit.
#[derive(Debug)]
pub struct Restart;

impl Component for RaftNode {
    fn name(&self) -> &str {
        "raft-node"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        // Crash/restart control cuts across every other message.
        if msg.is::<Crash>() {
            self.crashed = true;
            // Volatile state vanishes (Raft Fig. 2: commitIndex and
            // lastApplied are volatile; the state machine is rebuilt on
            // restart). Persistent term/vote/snapshot/log survive, and
            // the snapshot is committed, so the state machine restarts
            // from it.
            self.role = Role::Follower;
            self.votes.clear();
            self.leader_hint = None;
            self.next_index.clear();
            self.match_index.clear();
            self.commit_index = self.snap.index;
            self.last_applied = self.snap.index;
            self.kv = self.snap.kv.clone();
            self.applied_digest = self.snap.digest;
            self.pending.clear();
            self.ack_times.clear();
            self.term_start = 0;
            // Invalidate timers armed before the crash.
            self.election_epoch += 1;
            return;
        }
        if msg.is::<Restart>() {
            if self.crashed {
                self.crashed = false;
                self.reset_election_timer(ctx);
            }
            return;
        }
        if self.crashed {
            return; // a crashed node is deaf
        }
        let msg = match msg.downcast::<RaftMsg>() {
            Ok(m) => {
                debug_assert_eq!(m.to, self.id, "fabric misrouted a message");
                self.on_rpc(ctx, m.from, m.rpc);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ClientRequest>() {
            Ok(r) => {
                self.on_client(ctx, *r);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ElectionTimeout>() {
            Ok(t) => {
                if t.epoch == self.election_epoch && self.role != Role::Leader {
                    self.start_election(ctx);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<HeartbeatTick>() {
            Ok(t) => {
                if self.role == Role::Leader && t.term == self.term {
                    // Retry any snapshot whose reply has not come back.
                    self.snapshot_inflight.clear();
                    self.broadcast_append(ctx);
                    ctx.send_self(
                        self.cfg.heartbeat_interval,
                        HeartbeatTick { term: self.term },
                    );
                }
                return;
            }
            Err(other) => other,
        };
        match msg.downcast::<StartNode>() {
            Ok(_) => self.reset_election_timer(ctx),
            Err(other) => panic!("raft node received unknown message {other:?}"),
        }
    }
}
