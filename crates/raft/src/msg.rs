//! Raft RPCs and client messages.

use lnic_sim::engine::ComponentId;

use crate::types::{Command, LogEntry, LogIndex, NodeId, Snapshot, Term};

/// A Raft RPC payload.
#[derive(Clone, Debug, PartialEq)]
pub enum Rpc {
    /// Candidate soliciting a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Vote response.
    RequestVoteReply {
        /// Voter's term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicating entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Index of the entry preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of that entry.
        prev_log_term: Term,
        /// Entries to append.
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: LogIndex,
    },
    /// Append response.
    AppendEntriesReply {
        /// Follower's term.
        term: Term,
        /// Whether the append succeeded.
        success: bool,
        /// Highest index known replicated on the follower (on success).
        match_index: LogIndex,
    },
    /// Leader shipping its snapshot to a peer whose next entry it has
    /// already compacted away (Raft §7).
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// The leader's snapshot (boxed: it carries a whole store, and
        /// every other RPC is a few words).
        snapshot: Box<Snapshot>,
    },
    /// Snapshot response.
    InstallSnapshotReply {
        /// Follower's term.
        term: Term,
        /// Highest index known replicated on the follower: the
        /// snapshot's index once installed (0 when refused).
        match_index: LogIndex,
    },
}

/// An addressed Raft message, routed through the [`crate::net::RaftNet`].
#[derive(Clone, Debug, PartialEq)]
pub struct RaftMsg {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub rpc: Rpc,
}

/// A client request to the replicated store.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientRequest {
    /// Correlation token echoed in the reply.
    pub token: u64,
    /// Where to deliver the reply.
    pub reply_to: ComponentId,
    /// The operation.
    pub op: ClientOp,
}

/// Client operations.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientOp {
    /// Replicate a command. Writes are **at-least-once**: a deposed
    /// leader fails its pending proposals with [`NotLeader`] even though
    /// an entry may still commit under the next leader, so retried
    /// commands should be idempotent.
    Write(Command),
    /// Leader-local read (linearizable under stable leadership).
    Read {
        /// Key to read.
        key: String,
    },
}

/// The reply to a [`ClientRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct ClientReply {
    /// The request's token.
    pub token: u64,
    /// Outcome.
    pub result: Result<Option<Vec<u8>>, NotLeader>,
}

/// Returned when a request reached a non-leader node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotLeader {
    /// The likely current leader, when known.
    pub hint: Option<NodeId>,
}
