//! # lnic-raft: Raft consensus and a replicated key-value store
//!
//! The paper's serverless framework syncs lambda placement and
//! load-balancing state through etcd, "a Raft-based distributed key-value
//! store" (§6.1.1). This crate is that substrate, built from scratch:
//! leader election, log replication, and commitment per the Raft paper's
//! Figure 2, applied to a key-value state machine, all running
//! deterministically on the `lnic-sim` engine with a controllable
//! message fabric (delay, loss, partitions).
//!
//! Logs are compacted (Raft §7): each node folds its applied prefix into
//! an incremental [`Snapshot`], a leader never compacts past an entry a
//! peer has not acknowledged, and a peer that falls behind a new
//! leader's snapshot is caught up with [`Rpc::InstallSnapshot`]. A
//! node's memory is thus bounded by the writes in flight, apart from the
//! store's own per-write dedup set ([`KvStore::has_uid`]).
//!
//! ## Example: a three-node cluster commits a write
//!
//! ```
//! use lnic_raft::msg::{ClientOp, ClientRequest, ClientReply};
//! use lnic_raft::net::RaftNet;
//! use lnic_raft::node::{RaftConfig, RaftNode, StartNode};
//! use lnic_raft::types::{Command, NodeId, Role};
//! use lnic_sim::prelude::*;
//!
//! struct Client { reply: Option<ClientReply> }
//! impl Component for Client {
//!     fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: AnyMessage) {
//!         self.reply = Some(*msg.downcast::<ClientReply>().unwrap());
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let client = sim.add(Client { reply: None });
//! // Fabric placeholder ids are patched after nodes exist.
//! let net = sim.add(RaftNet::new(
//!     Vec::new(),
//!     SimDuration::from_micros(50),
//!     SimDuration::from_micros(200),
//!     0.0,
//! ));
//! let nodes: Vec<ComponentId> = (0..3)
//!     .map(|i| sim.add(RaftNode::new(NodeId(i), 3, net, RaftConfig::default())))
//!     .collect();
//! *sim.get_mut::<RaftNet>(net).unwrap() = RaftNet::new(
//!     nodes.clone(),
//!     SimDuration::from_micros(50),
//!     SimDuration::from_micros(200),
//!     0.0,
//! );
//! for &n in &nodes {
//!     sim.post(n, SimDuration::ZERO, StartNode);
//! }
//! sim.run_for(SimDuration::from_secs(2));
//!
//! let leader = nodes
//!     .iter()
//!     .copied()
//!     .find(|&n| sim.get::<RaftNode>(n).unwrap().role() == Role::Leader)
//!     .expect("a leader is elected");
//! sim.post(
//!     leader,
//!     SimDuration::ZERO,
//!     ClientRequest {
//!         token: 1,
//!         reply_to: client,
//!         op: ClientOp::Write(Command::Put { key: "k".into(), value: b"v".to_vec() }),
//!     },
//! );
//! sim.run_for(SimDuration::from_secs(1));
//! let reply = sim.get::<Client>(client).unwrap().reply.clone().unwrap();
//! assert_eq!(reply.result, Ok(None));
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod msg;
pub mod net;
pub mod node;
pub mod types;

pub use msg::{ClientOp, ClientReply, ClientRequest, NotLeader, RaftMsg, Rpc};
pub use net::{Heal, RaftNet, SetPartitions};
pub use node::{Crash, RaftConfig, RaftNode, Restart, StartNode};
pub use types::{Command, KvStore, LogEntry, LogIndex, NodeId, Role, Snapshot, Term};
