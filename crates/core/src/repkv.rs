//! Replicated NIC-side KV: a raft group spanning NIC workers, wired
//! into the serving path.
//!
//! The paper keeps λ-NIC lambdas stateless and pushes shared state to a
//! host-side store; this module puts a *replicated* key-value service on
//! the NICs themselves. Each [`RepKvReplica`] is a NIC-resident service
//! (see [`lnic_nic::nic::ResidentCall`]) wrapping one raft node:
//!
//! - **Reads** are served at the leader NIC without a host hop, gated by
//!   [`lnic_raft::RaftNode::can_serve_read`] (leader lease + applied
//!   no-op of the current term).
//! - **Writes** replicate NIC-to-NIC: outgoing [`RaftMsg`]s are encoded
//!   with [`lnic_raft::codec`], fragmented through `net::frag`, and ride
//!   the same simulated links as data traffic (`RdmaWrite` frames
//!   addressed to the replicated workload id), so partitions, reorder,
//!   duplication, and corruption faults hit replication exactly as they
//!   hit requests.
//! - **Leadership fences** derive from the worker's membership epoch:
//!   the NIC forwards each epoch rise as [`ResidentEpoch`], and the
//!   replica steps its raft node down — PR-5 fencing tokens double as
//!   raft leadership fences.
//! - **Routing** follows leadership: on becoming leader a replica
//!   broadcasts [`UpdateService`] to the gateway, which prefers the
//!   leader's endpoint for the replicated workload; non-leaders answer
//!   `RC_REDIRECT` and the gateway retries elsewhere.

use bytes::Bytes;

use lnic_net::frag::{fragment, Reassembler};
use lnic_net::packet::{LambdaHdr, LambdaKind, Packet, RC_OK, RC_REDIRECT};
use lnic_net::transport::UpdateService;
use lnic_net::{MacAddr, SocketAddr};
use lnic_nic::nic::{ResidentCall, ResidentDone, ResidentEpoch, ResidentFrame, ResidentTx};
use lnic_raft::codec;
use lnic_raft::msg::{ClientOp, ClientReply, ClientRequest, RaftMsg};
use lnic_raft::node::{RaftConfig, RaftNode, StartNode};
use lnic_raft::types::{Command, NodeId, Role};
use lnic_sim::hash::FastMap;
use lnic_sim::prelude::*;
use lnic_workloads::kv::{
    decode_repkv_request, repkv_get_response, RepKvOp, REPKV_SERVICE, REPKV_WORKLOAD_ID,
};

/// MTU for replication traffic: AppendEntries bigger than this are
/// fragmented into multiple `RdmaWrite` frames.
const REPKV_MTU: usize = 1_400;

/// Starts a replica: builds its raft node (the component id must exist
/// by then) and arms the first election timer.
#[derive(Debug)]
pub struct StartReplica;

/// A client op proposed into raft, awaiting its [`ClientReply`].
#[derive(Debug)]
struct PendingClient {
    resident_token: u64,
    read: bool,
}

/// Per-replica counters exposed to benches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepKvCounters {
    /// Client reads answered at this replica (leader reads).
    pub reads_served: u64,
    /// Client writes acknowledged at this replica.
    pub writes_acked: u64,
    /// Client ops refused with `RC_REDIRECT` (not leader / lease not
    /// established).
    pub redirects: u64,
    /// Replication frames whose decoded bytes were not a valid
    /// [`RaftMsg`] (should stay zero: packet checksums drop corruption
    /// below this layer).
    pub codec_rejects: u64,
    /// Epoch fences applied (raft stepped down on a lease-epoch rise).
    pub fences: u64,
}

/// One member of the replicated NIC-side KV group; co-located with a
/// worker NIC and registered as its resident service for
/// [`REPKV_WORKLOAD_ID`].
pub struct RepKvReplica {
    node_id: u32,
    /// Replica identities by raft node id (`peers[node_id]` is us).
    peers: Vec<(MacAddr, SocketAddr)>,
    gateway: ComponentId,
    nic: ComponentId,
    cfg: RaftConfig,
    raft: Option<RaftNode>,
    crashed: bool,
    reassembler: Reassembler,
    pending: FastMap<u64, PendingClient>,
    next_token: u64,
    next_msg_seq: u64,
    next_ident: u16,
    last_epoch: u64,
    was_leader: bool,
    counters: RepKvCounters,
}

impl RepKvReplica {
    /// Creates the replica. `peers` lists all group members by node id;
    /// `nic` is the co-located NIC (resident transport), `gateway` the
    /// component leadership announcements go to.
    pub fn new(
        node_id: u32,
        peers: Vec<(MacAddr, SocketAddr)>,
        gateway: ComponentId,
        nic: ComponentId,
        cfg: RaftConfig,
    ) -> Self {
        assert!((node_id as usize) < peers.len(), "node id out of range");
        RepKvReplica {
            node_id,
            peers,
            gateway,
            nic,
            cfg,
            raft: None,
            crashed: false,
            reassembler: Reassembler::new(),
            pending: FastMap::default(),
            next_token: 0,
            next_msg_seq: 0,
            next_ident: 0,
            last_epoch: 0,
            was_leader: false,
            counters: RepKvCounters::default(),
        }
    }

    /// The wrapped raft node (None before [`StartReplica`]).
    pub fn raft(&self) -> Option<&RaftNode> {
        self.raft.as_ref()
    }

    /// Per-replica counters.
    pub fn counters(&self) -> RepKvCounters {
        self.counters
    }

    /// Injects a message into the owned raft node.
    fn raft_handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        if let Some(raft) = self.raft.as_mut() {
            raft.handle(ctx, msg);
        }
    }

    /// Post-step bookkeeping: announce leadership transitions so the
    /// gateway re-points the replicated workload at the new leader.
    fn after_raft(&mut self, ctx: &mut Ctx<'_>) {
        let Some(raft) = self.raft.as_ref() else {
            return;
        };
        let is_leader = raft.role() == Role::Leader && !raft.is_crashed();
        if is_leader && !self.was_leader {
            let (mac, addr) = self.peers[self.node_id as usize];
            let node = u64::from(self.node_id);
            let term = raft.term();
            ctx.emit(|| TraceEvent::Mark {
                label: "repkv_leader",
                a: node,
                b: term,
            });
            ctx.send(
                self.gateway,
                SimDuration::ZERO,
                UpdateService {
                    service: REPKV_SERVICE,
                    mac,
                    addr,
                },
            );
        }
        self.was_leader = is_leader;
    }

    /// Transmits one outgoing [`RaftMsg`] from our raft node: encode,
    /// fragment to the MTU, and ship each fragment as an `RdmaWrite`
    /// frame through the co-located NIC.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, msg: &RaftMsg) {
        debug_assert_eq!(msg.from, NodeId(self.node_id), "only our own traffic");
        let Some(&(dst_mac, dst_addr)) = self.peers.get(msg.to.0 as usize) else {
            return;
        };
        let (src_mac, src_addr) = self.peers[self.node_id as usize];
        let encoded = Bytes::from(codec::encode(msg));
        let frags = fragment(encoded, REPKV_MTU);
        let frag_count = frags.len() as u16;
        // Unique per (sender, message): the receiver's reassembler keys
        // partial state by request id.
        let request_id = (u64::from(self.node_id) << 56) | self.next_msg_seq;
        self.next_msg_seq += 1;
        for (i, frag) in frags.into_iter().enumerate() {
            let hdr = LambdaHdr {
                workload_id: REPKV_WORKLOAD_ID,
                request_id,
                frag_index: i as u16,
                frag_count,
                kind: LambdaKind::RdmaWrite,
                return_code: 0,
                ..Default::default()
            };
            self.next_ident = self.next_ident.wrapping_add(1);
            let packet = Packet::builder()
                .eth(src_mac, dst_mac)
                .udp(src_addr, dst_addr)
                .ident(self.next_ident)
                .lambda(hdr)
                .payload(frag)
                .build();
            ctx.send(self.nic, SimDuration::ZERO, ResidentTx { packet });
        }
    }

    /// A client op intercepted by the NIC: decode and propose into raft.
    fn on_call(&mut self, ctx: &mut Ctx<'_>, call: ResidentCall) {
        if self.crashed || self.raft.is_none() {
            return; // co-located NIC fate: the gateway's timer covers it
        }
        let Some(op) = decode_repkv_request(&call.payload) else {
            return;
        };
        let token = self.next_token;
        self.next_token += 1;
        let (client_op, read) = match op {
            RepKvOp::Get { key } => (
                ClientOp::Read {
                    key: key.to_string(),
                },
                true,
            ),
            RepKvOp::Put { key, value } => (
                ClientOp::Write(Command::PutOnce {
                    key: key.to_string(),
                    value: value.to_be_bytes().to_vec(),
                    // The write value doubles as the client-unique id:
                    // gateway retries after a leader change re-propose
                    // the same uid and apply at most once.
                    uid: value,
                }),
                false,
            ),
        };
        self.pending.insert(
            token,
            PendingClient {
                resident_token: call.token,
                read,
            },
        );
        let req = ClientRequest {
            token,
            reply_to: ctx.self_id(),
            op: client_op,
        };
        self.raft_handle(ctx, Box::new(req));
        self.after_raft(ctx);
    }

    /// A reply from our raft node: answer the intercepted request.
    fn on_client_reply(&mut self, ctx: &mut Ctx<'_>, reply: ClientReply) {
        let Some(pending) = self.pending.remove(&reply.token) else {
            return; // state lost to a crash
        };
        let (rc, payload) = match reply.result {
            Ok(value) => {
                if pending.read {
                    self.counters.reads_served += 1;
                    let found = value.is_some();
                    let v = value
                        .as_deref()
                        .and_then(|b| b.try_into().ok().map(u64::from_be_bytes))
                        .unwrap_or(0);
                    (RC_OK, repkv_get_response(found, v))
                } else {
                    self.counters.writes_acked += 1;
                    (RC_OK, Bytes::new())
                }
            }
            Err(_) => {
                self.counters.redirects += 1;
                (RC_REDIRECT, Bytes::new())
            }
        };
        ctx.send(
            self.nic,
            SimDuration::ZERO,
            ResidentDone {
                token: pending.resident_token,
                return_code: rc,
                payload,
            },
        );
    }

    /// A replication frame from a peer: reassemble, decode, inject.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, frame: ResidentFrame) {
        if self.crashed {
            return;
        }
        let Some(hdr) = frame.packet.lambda else {
            return;
        };
        if let Some(done) = self.reassembler.accept(hdr, frame.packet.payload) {
            match codec::decode(&done.payload) {
                Ok(msg) => {
                    if msg.to == NodeId(self.node_id) {
                        self.raft_handle(ctx, Box::new(msg));
                        self.after_raft(ctx);
                    }
                }
                Err(_) => self.counters.codec_rejects += 1,
            }
        }
    }
}

impl Component for RepKvReplica {
    fn name(&self) -> &str {
        "repkv"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: AnyMessage) {
        let msg = match msg.downcast::<lnic_sim::fault::Crash>() {
            Ok(_) => {
                // The replica shares its worker's fate: volatile state
                // (pending ops, partial reassemblies) dies with it; the
                // raft node keeps its durable log/term per its own model.
                self.crashed = true;
                self.pending.clear();
                self.reassembler = Reassembler::new();
                self.was_leader = false;
                self.raft_handle(ctx, Box::new(lnic_raft::Crash));
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<lnic_sim::fault::Restart>() {
            Ok(_) => {
                self.crashed = false;
                self.raft_handle(ctx, Box::new(lnic_raft::Restart));
                self.after_raft(ctx);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<StartReplica>() {
            Ok(_) => {
                debug_assert!(self.raft.is_none(), "started twice");
                self.raft = Some(RaftNode::new(
                    NodeId(self.node_id),
                    self.peers.len() as u32,
                    // Outgoing RPCs loop back to this wrapper, which
                    // encodes them onto the data network.
                    ctx.self_id(),
                    self.cfg,
                ));
                self.raft_handle(ctx, Box::new(StartNode));
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResidentCall>() {
            Ok(call) => {
                self.on_call(ctx, *call);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResidentFrame>() {
            Ok(frame) => {
                self.on_frame(ctx, *frame);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ResidentEpoch>() {
            Ok(ep) => {
                if ep.epoch > self.last_epoch {
                    self.last_epoch = ep.epoch;
                    self.counters.fences += 1;
                    if let Some(raft) = self.raft.as_mut() {
                        raft.fence(ctx);
                    }
                    self.after_raft(ctx);
                }
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<ClientReply>() {
            Ok(reply) => {
                self.on_client_reply(ctx, *reply);
                return;
            }
            Err(other) => other,
        };
        let msg = match msg.downcast::<RaftMsg>() {
            Ok(m) => {
                // Our raft node handed us an outgoing RPC.
                self.transmit(ctx, &m);
                return;
            }
            Err(other) => other,
        };
        // Everything else is the raft node's own machinery (election
        // timers, heartbeat ticks): forward blindly.
        self.raft_handle(ctx, msg);
        self.after_raft(ctx);
    }
}
