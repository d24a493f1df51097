//! Raft safety and liveness tests under asynchrony, loss, partitions,
//! crashes, and log compaction.

use std::collections::BTreeMap;

use lnic_raft::msg::{ClientOp, ClientReply, ClientRequest};
use lnic_raft::net::{Heal, RaftNet, SetPartitions};
use lnic_raft::node::{RaftConfig, RaftNode, StartNode, COMPACT_MIN_ENTRIES};
use lnic_raft::types::{Command, LogIndex, NodeId, Role, Term};
use lnic_sim::prelude::*;

struct Client {
    replies: Vec<ClientReply>,
}

impl Component for Client {
    fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.replies.push(*msg.downcast::<ClientReply>().unwrap());
    }
}

/// A [`RaftNode`] plus the `(last_applied, applied_digest)` it showed
/// after each message it handled: the state-machine safety check reads
/// the applied sequence through these, since compaction drops applied
/// entries.
struct Observed {
    node: RaftNode,
    seen: Vec<(LogIndex, u64)>,
}

impl Component for Observed {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        self.node.handle(ctx, msg);
        let now = (self.node.last_applied(), self.node.applied_digest());
        if self.seen.last() != Some(&now) {
            self.seen.push(now);
        }
    }
}

struct Cluster {
    sim: Simulation,
    net: ComponentId,
    nodes: Vec<ComponentId>,
    client: ComponentId,
}

fn cluster(seed: u64, n: u32, drop_prob: f64) -> Cluster {
    let mut sim = Simulation::new(seed);
    let client = sim.add(Client { replies: vec![] });
    let net = sim.add(RaftNet::new(
        Vec::new(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(500),
        drop_prob,
    ));
    let nodes: Vec<ComponentId> = (0..n)
        .map(|i| {
            sim.add(Observed {
                node: RaftNode::new(NodeId(i), n, net, RaftConfig::default()),
                seen: Vec::new(),
            })
        })
        .collect();
    *sim.get_mut::<RaftNet>(net).unwrap() = RaftNet::new(
        nodes.clone(),
        SimDuration::from_micros(50),
        SimDuration::from_micros(500),
        drop_prob,
    );
    for &node in &nodes {
        sim.post(node, SimDuration::ZERO, StartNode);
    }
    Cluster {
        sim,
        net,
        nodes,
        client,
    }
}

impl Cluster {
    fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    fn leader(&self) -> Option<ComponentId> {
        self.nodes
            .iter()
            .copied()
            .find(|&n| self.node(n).role() == Role::Leader)
    }

    fn node(&self, id: ComponentId) -> &RaftNode {
        &self.sim.get::<Observed>(id).unwrap().node
    }

    fn put(&mut self, token: u64, key: &str, value: &[u8]) {
        let leader = self.leader().expect("a leader exists");
        let client = self.client;
        self.sim.post(
            leader,
            SimDuration::ZERO,
            ClientRequest {
                token,
                reply_to: client,
                op: ClientOp::Write(Command::Put {
                    key: key.into(),
                    value: value.to_vec(),
                }),
            },
        );
    }

    fn replies(&self) -> &[ClientReply] {
        &self.sim.get::<Client>(self.client).unwrap().replies
    }

    /// Proposes a [`Command::PutOnce`] to the current leader.
    fn put_once(&mut self, token: u64, key: &str, value: &[u8], uid: u64) {
        let leader = self.leader().expect("a leader exists");
        let client = self.client;
        self.sim.post(
            leader,
            SimDuration::ZERO,
            ClientRequest {
                token,
                reply_to: client,
                op: ClientOp::Write(Command::PutOnce {
                    key: key.into(),
                    value: value.to_vec(),
                    uid,
                }),
            },
        );
    }

    /// Proposes writes `first..first + count` (uid = token = write
    /// number, over 64 keys) in pipelined batches of 16 and lets each
    /// batch commit before the next.
    fn write_batches(&mut self, first: u64, count: u64) {
        for batch in (first..first + count).step_by(16) {
            for i in batch..(batch + 16).min(first + count) {
                self.put_once(i, &format!("key{}", i % 64), &i.to_be_bytes(), i);
            }
            self.run_for(SimDuration::from_millis(5));
        }
    }

    fn ok_writes(&self) -> usize {
        self.replies().iter().filter(|r| r.result.is_ok()).count()
    }

    /// Last log index a node holds (snapshot plus retained entries).
    fn last_index(&self, id: ComponentId) -> LogIndex {
        let node = self.node(id);
        node.snapshot_index() + node.log().len() as LogIndex
    }

    /// Election safety: no term has two leaders.
    fn check_election_safety(&self) {
        let mut terms_seen: Vec<(Term, ComponentId)> = Vec::new();
        for &n in &self.nodes {
            for &t in self.node(n).leader_terms() {
                if let Some((_, other)) = terms_seen.iter().find(|(seen, _)| *seen == t) {
                    assert_eq!(*other, n, "two leaders in term {t}");
                }
                terms_seen.push((t, n));
            }
        }
    }

    /// Log matching: same (index, term) implies identical prefixes, over
    /// the indices both nodes still retain (below a node's snapshot the
    /// state-machine check covers its entries).
    fn check_log_matching(&self) {
        for (i, &a) in self.nodes.iter().enumerate() {
            for &b in &self.nodes[i + 1..] {
                let (na, nb) = (self.node(a), self.node(b));
                let (la, lb) = (na.log(), nb.log());
                let base = na.snapshot_index().max(nb.snapshot_index());
                let end = (na.snapshot_index() + la.len() as LogIndex)
                    .min(nb.snapshot_index() + lb.len() as LogIndex);
                if end <= base {
                    continue; // no retained overlap
                }
                // Both retained windows as slices over (base, end].
                let wa = &la[(base - na.snapshot_index()) as usize..][..(end - base) as usize];
                let wb = &lb[(base - nb.snapshot_index()) as usize..][..(end - base) as usize];
                // Find the highest common index with equal term.
                if let Some(anchor) = (0..wa.len()).rev().find(|&p| wa[p].term == wb[p].term) {
                    assert_eq!(
                        &wa[..=anchor],
                        &wb[..=anchor],
                        "log matching violated below anchor {}",
                        base + 1 + anchor as LogIndex
                    );
                }
            }
        }
    }

    /// State-machine safety: applied sequences are prefix-consistent.
    /// Every node's `(last_applied, applied_digest)` is recorded after
    /// every message it handles, for the whole run and across crashes;
    /// any two records at one index, from any nodes at any times, must
    /// carry the same digest. The digest chains every applied `(index,
    /// term, command)`, so equal digests mean equal applied prefixes.
    fn check_state_machine_safety(&self) {
        let mut at: BTreeMap<LogIndex, (u64, ComponentId)> = BTreeMap::new();
        for &n in &self.nodes {
            for &(index, digest) in &self.sim.get::<Observed>(n).unwrap().seen {
                let (first, by) = *at.entry(index).or_insert((digest, n));
                assert_eq!(
                    digest, first,
                    "state machines diverged at index {index}: {n} vs {by}"
                );
            }
        }
    }

    fn check_all(&self) {
        self.check_election_safety();
        self.check_log_matching();
        self.check_state_machine_safety();
    }
}

#[test]
fn elects_exactly_one_leader() {
    for seed in [1, 7, 99, 12345] {
        let mut c = cluster(seed, 5, 0.0);
        c.run_for(SimDuration::from_secs(3));
        let leaders = c
            .nodes
            .iter()
            .filter(|&&n| c.node(n).role() == Role::Leader)
            .count();
        assert_eq!(leaders, 1, "seed {seed}");
        c.check_all();
    }
}

#[test]
fn commits_replicate_to_all_nodes() {
    let mut c = cluster(21, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    for i in 0..10u64 {
        c.put(i, &format!("key{i}"), format!("val{i}").as_bytes());
        c.run_for(SimDuration::from_millis(200));
    }
    c.run_for(SimDuration::from_secs(1));

    let ok = c.replies().iter().filter(|r| r.result.is_ok()).count();
    assert_eq!(ok, 10);
    for &n in &c.nodes {
        let kv = c.node(n).kv();
        for i in 0..10 {
            assert_eq!(
                kv.get(&format!("key{i}")),
                Some(format!("val{i}").as_bytes()),
                "node missing key{i}"
            );
        }
    }
    c.check_all();
}

#[test]
fn leader_reads_return_committed_values() {
    let mut c = cluster(3, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    c.put(1, "config", b"v1");
    c.run_for(SimDuration::from_millis(500));
    let leader = c.leader().unwrap();
    let client = c.client;
    c.sim.post(
        leader,
        SimDuration::ZERO,
        ClientRequest {
            token: 2,
            reply_to: client,
            op: ClientOp::Read {
                key: "config".into(),
            },
        },
    );
    c.run_for(SimDuration::from_millis(100));
    let read = c.replies().iter().find(|r| r.token == 2).unwrap();
    assert_eq!(read.result, Ok(Some(b"v1".to_vec())));
}

#[test]
fn follower_rejects_writes_with_leader_hint() {
    let mut c = cluster(5, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let leader = c.leader().unwrap();
    let follower = c.nodes.iter().copied().find(|&n| n != leader).unwrap();
    let client = c.client;
    c.sim.post(
        follower,
        SimDuration::ZERO,
        ClientRequest {
            token: 9,
            reply_to: client,
            op: ClientOp::Write(Command::Noop),
        },
    );
    c.run_for(SimDuration::from_millis(100));
    let reply = &c.replies()[0];
    let err = reply.result.clone().unwrap_err();
    let leader_id = c.node(leader).id();
    assert_eq!(err.hint, Some(leader_id));
}

#[test]
fn survives_leader_partition_and_reelects() {
    let mut c = cluster(8, 5, 0.0);
    c.run_for(SimDuration::from_secs(3));
    let old_leader = c.leader().expect("initial leader");
    let old_leader_id = c.node(old_leader).id();

    // Partition the leader away from the other four.
    let others: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|&&n| n != old_leader)
        .map(|&n| c.node(n).id())
        .collect();
    let net = c.net;
    c.sim.post(
        net,
        SimDuration::ZERO,
        SetPartitions {
            groups: vec![vec![old_leader_id], others.clone()],
        },
    );
    c.run_for(SimDuration::from_secs(3));

    // A new leader exists among the majority side.
    let new_leaders: Vec<ComponentId> = c
        .nodes
        .iter()
        .copied()
        .filter(|&n| n != old_leader && c.node(n).role() == Role::Leader)
        .collect();
    assert_eq!(new_leaders.len(), 1, "majority side re-elected");
    let new_leader = new_leaders[0];

    // Writes to the new leader commit despite the partition.
    let client = c.client;
    c.sim.post(
        new_leader,
        SimDuration::ZERO,
        ClientRequest {
            token: 50,
            reply_to: client,
            op: ClientOp::Write(Command::Put {
                key: "after-partition".into(),
                value: b"yes".to_vec(),
            }),
        },
    );
    c.run_for(SimDuration::from_secs(1));
    assert!(c
        .replies()
        .iter()
        .any(|r| r.token == 50 && r.result.is_ok()));

    // Heal: the old leader steps down and converges.
    c.sim.post(net, SimDuration::ZERO, Heal);
    c.run_for(SimDuration::from_secs(3));
    assert_ne!(c.node(old_leader).role(), Role::Leader);
    assert_eq!(
        c.node(old_leader).kv().get("after-partition"),
        Some(&b"yes"[..])
    );
    c.check_all();
}

#[test]
fn tolerates_message_loss() {
    let mut c = cluster(77, 3, 0.15);
    c.run_for(SimDuration::from_secs(5));
    assert!(c.leader().is_some(), "leader despite 15% loss");
    for i in 0..5u64 {
        if c.leader().is_some() {
            c.put(i, &format!("lossy{i}"), b"x");
        }
        c.run_for(SimDuration::from_millis(500));
    }
    c.run_for(SimDuration::from_secs(3));
    c.check_all();
    // At least some writes committed despite loss.
    let ok = c.replies().iter().filter(|r| r.result.is_ok()).count();
    assert!(ok >= 3, "only {ok} writes committed");
    let dropped = c.sim.get::<RaftNet>(c.net).unwrap().dropped();
    assert!(dropped > 0, "the lossy fabric actually dropped messages");
}

#[test]
fn minority_partition_cannot_commit() {
    let mut c = cluster(4, 5, 0.0);
    c.run_for(SimDuration::from_secs(3));
    let leader = c.leader().unwrap();
    let leader_id = c.node(leader).id();
    // Leader + one follower on the minority side.
    let minority_peer = c.nodes.iter().copied().find(|&n| n != leader).unwrap();
    let minority_peer_id = c.node(minority_peer).id();
    let majority: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|&&n| n != leader && n != minority_peer)
        .map(|&n| c.node(n).id())
        .collect();
    let net = c.net;
    c.sim.post(
        net,
        SimDuration::ZERO,
        SetPartitions {
            groups: vec![vec![leader_id, minority_peer_id], majority],
        },
    );
    c.run_for(SimDuration::from_millis(100));

    // Writes to the minority leader never commit.
    let client = c.client;
    c.sim.post(
        leader,
        SimDuration::ZERO,
        ClientRequest {
            token: 99,
            reply_to: client,
            op: ClientOp::Write(Command::Put {
                key: "minority".into(),
                value: b"no".to_vec(),
            }),
        },
    );
    c.run_for(SimDuration::from_secs(3));
    assert!(
        !c.replies()
            .iter()
            .any(|r| r.token == 99 && r.result.is_ok()),
        "minority write must not commit"
    );
    // The majority side may have elected a new leader with a higher term;
    // safety invariants must hold either way.
    c.check_all();
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed: u64| {
        let mut c = cluster(seed, 3, 0.05);
        c.run_for(SimDuration::from_secs(2));
        c.nodes
            .iter()
            .map(|&n| {
                let node = c.node(n);
                (node.term(), node.snapshot_index(), node.log().len())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(31), run(31));
}

#[test]
fn invariants_hold_across_many_seeds_with_churn() {
    for seed in 0..8u64 {
        let mut c = cluster(seed, 5, 0.10);
        c.run_for(SimDuration::from_secs(2));
        for i in 0..6u64 {
            if c.leader().is_some() {
                c.put(i, &format!("churn{i}"), b"v");
            }
            // Periodically partition a random-ish pair then heal.
            if i == 2 {
                let ids: Vec<NodeId> = (0..5)
                    .map(NodeId)
                    .filter(|n| n.0 != (seed % 5) as u32)
                    .collect();
                let net = c.net;
                c.sim.post(
                    net,
                    SimDuration::ZERO,
                    SetPartitions {
                        groups: vec![vec![NodeId((seed % 5) as u32)], ids],
                    },
                );
            }
            if i == 4 {
                let net = c.net;
                c.sim.post(net, SimDuration::ZERO, Heal);
            }
            c.run_for(SimDuration::from_millis(700));
        }
        c.run_for(SimDuration::from_secs(2));
        c.check_all();
    }
}

#[test]
fn crashed_leader_recovers_and_converges() {
    use lnic_raft::{Crash, Restart};

    let mut c = cluster(15, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    for i in 0..4u64 {
        c.put(i, &format!("pre{i}"), b"v");
        c.run_for(SimDuration::from_millis(300));
    }
    let old_leader = c.leader().expect("leader exists");

    // Crash the leader mid-cluster; a new leader takes over.
    c.sim.post(old_leader, SimDuration::ZERO, Crash);
    c.run_for(SimDuration::from_secs(2));
    assert!(c.node(old_leader).is_crashed());
    let new_leader = c.leader().expect("re-elected without the crashed node");
    assert_ne!(new_leader, old_leader);

    // Writes continue against the new leader.
    for i in 10..13u64 {
        c.put(i, &format!("post{i}"), b"w");
        c.run_for(SimDuration::from_millis(300));
    }

    // Restart: the node replays its log, catches up, and converges.
    c.sim.post(old_leader, SimDuration::ZERO, Restart);
    c.run_for(SimDuration::from_secs(3));
    assert!(!c.node(old_leader).is_crashed());
    for i in 0..4u64 {
        assert_eq!(
            c.node(old_leader).kv().get(&format!("pre{i}")),
            Some(&b"v"[..]),
            "pre-crash write pre{i} survives the restart"
        );
    }
    for i in 10..13u64 {
        assert_eq!(
            c.node(old_leader).kv().get(&format!("post{i}")),
            Some(&b"w"[..]),
            "crash-window write post{i} reaches the restarted node"
        );
    }
    c.check_all();
}

#[test]
fn follower_crash_during_writes_is_tolerated() {
    use lnic_raft::{Crash, Restart};

    let mut c = cluster(16, 5, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let leader = c.leader().unwrap();
    let follower = c.nodes.iter().copied().find(|&n| n != leader).unwrap();
    c.sim.post(follower, SimDuration::ZERO, Crash);

    for i in 0..6u64 {
        if c.leader().is_some() {
            c.put(i, &format!("k{i}"), b"x");
        }
        c.run_for(SimDuration::from_millis(300));
    }
    // Majority still commits with one node down.
    let ok = c.replies().iter().filter(|r| r.result.is_ok()).count();
    assert!(ok >= 5, "writes commit with a crashed follower: {ok}");

    c.sim.post(follower, SimDuration::ZERO, Restart);
    c.run_for(SimDuration::from_secs(2));
    for i in 0..6u64 {
        assert_eq!(
            c.node(follower).kv().get(&format!("k{i}")),
            Some(&b"x"[..]),
            "restarted follower replayed k{i}"
        );
    }
    c.check_all();
}

#[test]
fn stale_log_candidate_cannot_win() {
    // Isolate a follower, commit writes without it, then heal: the
    // returning node may have a higher term (it kept electioneering in
    // isolation) but its stale log must not win an election, and the
    // committed writes must survive.
    let mut c = cluster(19, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let leader = c.leader().unwrap();
    let isolated = c.nodes.iter().copied().find(|&n| n != leader).unwrap();
    let isolated_id = c.node(isolated).id();
    let others: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|&&n| n != isolated)
        .map(|&n| c.node(n).id())
        .collect();
    let net = c.net;
    c.sim.post(
        net,
        SimDuration::ZERO,
        SetPartitions {
            groups: vec![vec![isolated_id], others],
        },
    );
    // The isolated node churns through election timeouts (term grows)
    // while the majority commits real entries.
    for i in 0..5u64 {
        if c.leader().is_some() {
            c.put(i, &format!("committed{i}"), b"v");
        }
        c.run_for(SimDuration::from_millis(400));
    }
    let isolated_term_before_heal = c.node(isolated).term();
    assert!(
        isolated_term_before_heal > 1,
        "isolation should have driven elections"
    );

    c.sim.post(net, SimDuration::ZERO, Heal);
    c.run_for(SimDuration::from_secs(3));

    // A leader exists, it is log-complete, and every node holds the
    // committed writes — including the returning one.
    let final_leader = c.leader().expect("cluster recovers");
    for i in 0..5u64 {
        assert_eq!(
            c.node(final_leader).kv().get(&format!("committed{i}")),
            Some(&b"v"[..]),
            "leader kept committed{i}"
        );
        assert_eq!(
            c.node(isolated).kv().get(&format!("committed{i}")),
            Some(&b"v"[..]),
            "returning node converged on committed{i}"
        );
    }
    c.check_all();
}

#[test]
fn deposed_leader_fails_pending_client_writes() {
    // A leader partitioned away from the majority cannot commit; when it
    // learns of the new term it must fail its dangling proposals so the
    // client can retry (at-least-once semantics).
    let mut c = cluster(23, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let leader = c.leader().unwrap();
    let leader_id = c.node(leader).id();
    let others: Vec<NodeId> = c
        .nodes
        .iter()
        .filter(|&&n| n != leader)
        .map(|&n| c.node(n).id())
        .collect();
    let net = c.net;
    c.sim.post(
        net,
        SimDuration::ZERO,
        SetPartitions {
            groups: vec![vec![leader_id], others],
        },
    );
    c.run_for(SimDuration::from_millis(20));
    // Propose to the soon-to-be-deposed leader.
    let client = c.client;
    c.sim.post(
        leader,
        SimDuration::ZERO,
        ClientRequest {
            token: 777,
            reply_to: client,
            op: ClientOp::Write(Command::Put {
                key: "dangling".into(),
                value: b"?".to_vec(),
            }),
        },
    );
    // Let the majority elect a new leader, then heal so the old leader
    // steps down.
    c.run_for(SimDuration::from_secs(2));
    c.sim.post(net, SimDuration::ZERO, Heal);
    c.run_for(SimDuration::from_secs(2));

    let reply = c
        .replies()
        .iter()
        .find(|r| r.token == 777)
        .expect("the dangling proposal must be answered");
    assert!(reply.result.is_err(), "deposed leader fails the proposal");
    c.check_all();
}

#[test]
fn fault_free_writes_keep_the_log_bounded() {
    let mut c = cluster(41, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let mut most_retained = 0;
    for chunk in 0..20u64 {
        c.write_batches(chunk * 1_000, 1_000);
        for &n in &c.nodes {
            most_retained = most_retained.max(c.node(n).log().len());
        }
    }
    c.run_for(SimDuration::from_millis(200));
    assert_eq!(c.ok_writes(), 20_000, "every write commits");
    assert!(
        most_retained <= 2 * COMPACT_MIN_ENTRIES,
        "a node retained {most_retained} entries mid-run"
    );
    let leader = c.leader().expect("stable leader");
    for &n in &c.nodes {
        let node = c.node(n);
        assert!(
            node.log().len() <= 2 * COMPACT_MIN_ENTRIES,
            "{n} retains {} entries after 20 000 writes",
            node.log().len()
        );
        assert!(node.snapshot_index() > 20_000 - 2 * COMPACT_MIN_ENTRIES as LogIndex);
        assert_eq!(node.last_applied(), c.node(leader).last_applied());
        assert_eq!(
            node.kv(),
            c.node(leader).kv(),
            "{n} diverged from the leader"
        );
        assert!(node.kv().has_uid(0) && node.kv().has_uid(19_999));
    }
    c.check_all();
}

#[test]
fn restart_from_snapshot_and_suffix_reapplies_the_same_state() {
    use lnic_raft::{Crash, Restart};

    let mut c = cluster(42, 3, 0.0);
    c.run_for(SimDuration::from_secs(2));
    c.write_batches(0, 170);
    c.run_for(SimDuration::from_millis(200));
    assert_eq!(c.ok_writes(), 170);
    let leader = c.leader().expect("stable leader");
    let mut order: Vec<ComponentId> = c.nodes.iter().copied().filter(|&n| n != leader).collect();
    // Followers first (no leader change, so the state must come back
    // bit for bit), then the leader (its successor adds a no-op).
    order.push(leader);
    for n in order {
        let before = c.node(n);
        assert!(
            before.snapshot_index() > 0 && !before.log().is_empty(),
            "the restart replays a snapshot plus a non-empty suffix"
        );
        let (applied, digest, kv) = (
            before.last_applied(),
            before.applied_digest(),
            before.kv().clone(),
        );
        let snapshot_index = before.snapshot_index();
        c.sim.post(n, SimDuration::ZERO, Crash);
        c.run_for(SimDuration::from_millis(1));
        let crashed = c.node(n);
        assert_eq!(
            crashed.last_applied(),
            snapshot_index,
            "restored to the snapshot"
        );
        assert_eq!(crashed.commit_index(), snapshot_index);
        c.sim.post(n, SimDuration::ZERO, Restart);
        c.run_for(SimDuration::from_secs(2));
        let after = c.node(n);
        assert_eq!(after.kv(), &kv, "{n} re-applied to a different state");
        if n != leader {
            assert_eq!(after.last_applied(), applied);
            assert_eq!(
                after.applied_digest(),
                digest,
                "{n} replayed another sequence"
            );
        }
    }
    c.check_all();
}

#[test]
fn lagging_follower_catches_up_through_install_snapshot() {
    use lnic_raft::{Crash, Restart};

    let mut c = cluster(43, 5, 0.0);
    c.run_for(SimDuration::from_secs(2));
    let old_leader = c.leader().expect("initial leader");
    let lagging = c.nodes.iter().copied().find(|&n| n != old_leader).unwrap();
    c.sim.post(lagging, SimDuration::ZERO, Crash);
    c.run_for(SimDuration::from_millis(10));

    // The group commits well past the compaction point without the
    // lagging node. The leader keeps its log for it; the followers fold
    // theirs into snapshots.
    c.write_batches(0, 300);
    c.run_for(SimDuration::from_millis(200));
    assert_eq!(c.ok_writes(), 300);
    assert!(
        c.node(old_leader).log().len() > 300,
        "the leader kept its log"
    );

    // Leadership moves to a follower that has compacted away the entries
    // the lagging node lacks, so AppendEntries alone cannot catch it up.
    c.sim.post(old_leader, SimDuration::ZERO, Crash);
    c.run_for(SimDuration::from_secs(1));
    let leader = c.leader().expect("re-elected among three of five");
    assert!(leader != old_leader && leader != lagging);
    c.write_batches(300, 300);
    c.run_for(SimDuration::from_millis(200));
    assert_eq!(c.ok_writes(), 600);
    let behind = c.last_index(lagging);
    assert!(
        c.node(leader).snapshot_index() > behind,
        "the leader compacted past the lagging node's last index {behind}"
    );

    c.sim.post(lagging, SimDuration::ZERO, Restart);
    c.sim.post(old_leader, SimDuration::ZERO, Restart);
    c.run_for(SimDuration::from_secs(2));
    assert_eq!(
        c.leader(),
        Some(leader),
        "leadership held through the catch-up"
    );
    assert!(
        c.node(lagging).snapshot_index() > behind,
        "caught up by snapshot"
    );
    assert_eq!(
        c.node(lagging).last_applied(),
        c.node(leader).last_applied()
    );
    assert_eq!(
        c.node(lagging).kv(),
        c.node(leader).kv(),
        "the installed store, dedup set included, matches the leader's"
    );

    // The dedup set came with the snapshot: a retry of an early uid with
    // another value is a no-op on the restarted node too.
    let first_value = c.node(lagging).kv().get("key5").unwrap().to_vec();
    c.put_once(10_000, "key5", b"retry", 5 + 64 * 4);
    c.run_for(SimDuration::from_millis(500));
    assert_eq!(c.node(lagging).kv().get("key5"), Some(&first_value[..]));
    for &n in &c.nodes {
        assert_eq!(c.node(n).kv(), c.node(leader).kv(), "{n} converged");
    }
    c.check_all();
}
