//! Core Raft types: terms, log entries, commands, and the replicated
//! key-value state machine (the `etcd` the paper's framework uses to sync
//! lambda placement state, §6.1.1).

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use lnic_sim::hash::{FastSet, FxHasher};

/// A Raft term.
pub type Term = u64;

/// A one-based log index (0 = "before the first entry").
pub type LogIndex = u64;

/// Identifies a Raft node within its cluster (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A state-machine command.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Command {
    /// Insert or overwrite `key`.
    Put {
        /// The key.
        key: String,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Delete {
        /// The key.
        key: String,
    },
    /// Insert or overwrite `key`, applying at most once per `uid`: a
    /// client retry of an already-applied write (at-least-once delivery
    /// after a leader change) re-proposes the same uid, and the state
    /// machine deduplicates it on apply. The dedup set is part of the
    /// replicated state, so every replica resolves retries identically.
    PutOnce {
        /// The key.
        key: String,
        /// The value.
        value: Vec<u8>,
        /// Client-unique write id.
        uid: u64,
    },
    /// No-op (committed by new leaders to learn the commit index).
    Noop,
}

/// One replicated log entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogEntry {
    /// Term in which the entry was created.
    pub term: Term,
    /// The command to apply.
    pub command: Command,
}

/// The replicated key-value store.
///
/// # Examples
///
/// ```
/// use lnic_raft::types::{Command, KvStore};
///
/// let mut kv = KvStore::default();
/// kv.apply(&Command::Put { key: "a".into(), value: b"1".to_vec() });
/// assert_eq!(kv.get("a"), Some(&b"1"[..]));
/// kv.apply(&Command::Delete { key: "a".into() });
/// assert_eq!(kv.get("a"), None);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KvStore {
    pub(crate) data: BTreeMap<String, Vec<u8>>,
    /// Every [`Command::PutOnce`] uid ever applied. Uids are arbitrary
    /// client values, so no watermark can stand in for the set: it grows
    /// by one `u64` per distinct write for the life of the store.
    pub(crate) applied_uids: FastSet<u64>,
}

impl KvStore {
    /// Applies one command, returning the previous value for `Put` /
    /// `Delete`. A [`Command::PutOnce`] whose uid was already applied is
    /// a no-op returning the current value (the retry's acknowledgment).
    pub fn apply(&mut self, command: &Command) -> Option<Vec<u8>> {
        match command {
            Command::Put { key, value } => self.data.insert(key.clone(), value.clone()),
            Command::Delete { key } => self.data.remove(key),
            Command::PutOnce { key, value, uid } => {
                if self.applied_uids.insert(*uid) {
                    self.data.insert(key.clone(), value.clone())
                } else {
                    self.data.get(key).cloned()
                }
            }
            Command::Noop => None,
        }
    }

    /// Whether a [`Command::PutOnce`] with this uid has been applied
    /// (the bench's lost-acknowledged-write audit).
    pub fn has_uid(&self, uid: u64) -> bool {
        self.applied_uids.contains(&uid)
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.data.get(key).map(|v| v.as_slice())
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Chains one applied entry onto a state-machine digest: the digest at
/// index `i` covers every `(index, term, command)` in `1..=i`, so two
/// nodes with equal digests at one index applied the same sequence (up
/// to a 64-bit hash collision). The digest of the empty prefix is 0.
pub fn chain_digest(prev: u64, index: LogIndex, entry: &LogEntry) -> u64 {
    let mut h = FxHasher::default();
    (prev, index, entry.term, &entry.command).hash(&mut h);
    h.finish()
}

/// A compacted log prefix (Raft §7): the state machine after applying
/// entries `1..=index`, which replaces those entries on the node that
/// holds it and is what a leader ships to a peer that needs them.
///
/// # Examples
///
/// ```
/// use lnic_raft::types::{Command, LogEntry, Snapshot};
///
/// let mut snap = Snapshot::default();
/// snap.fold(&LogEntry { term: 2, command: Command::Put { key: "a".into(), value: b"1".to_vec() } });
/// assert_eq!((snap.index, snap.term), (1, 2));
/// assert_eq!(snap.kv.get("a"), Some(&b"1"[..]));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Last log index folded in (0 = nothing compacted yet).
    pub index: LogIndex,
    /// Term of the entry at `index` (0 when `index` is 0).
    pub term: Term,
    /// [`chain_digest`] over entries `1..=index`.
    pub digest: u64,
    /// The key-value state after applying entries `1..=index`.
    pub kv: KvStore,
}

impl Snapshot {
    /// Folds the entry at `index + 1` into the snapshot, applying its
    /// command to the snapshot's own store: compaction moves the
    /// snapshot forward one entry at a time and never copies the store.
    pub fn fold(&mut self, entry: &LogEntry) {
        self.index += 1;
        self.term = entry.term;
        self.digest = chain_digest(self.digest, self.index, entry);
        self.kv.apply(&entry.command);
    }
}

/// A node's role.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Role {
    /// Follower: passively replicating.
    #[default]
    Follower,
    /// Candidate: soliciting votes.
    Candidate,
    /// Leader: replicating client commands.
    Leader,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_apply_put_delete_noop() {
        let mut kv = KvStore::default();
        assert_eq!(
            kv.apply(&Command::Put {
                key: "k".into(),
                value: b"v1".to_vec()
            }),
            None
        );
        assert_eq!(
            kv.apply(&Command::Put {
                key: "k".into(),
                value: b"v2".to_vec()
            }),
            Some(b"v1".to_vec())
        );
        assert_eq!(kv.apply(&Command::Noop), None);
        assert_eq!(
            kv.apply(&Command::Delete { key: "k".into() }),
            Some(b"v2".to_vec())
        );
        assert!(kv.is_empty());
    }

    #[test]
    fn keys_sharing_a_prefix_are_stored_apart() {
        let mut kv = KvStore::default();
        for k in ["app/a", "app/b", "apq/c", "zap"] {
            kv.apply(&Command::Put {
                key: k.into(),
                value: k.as_bytes().to_vec(),
            });
        }
        assert_eq!(kv.len(), 4);
        for k in ["app/a", "app/b", "apq/c", "zap"] {
            assert_eq!(kv.get(k), Some(k.as_bytes()));
        }
        assert_eq!(kv.get("app/"), None);
    }
}
