//! Core Raft types: terms, log entries, commands, and the replicated
//! key-value state machine (the `etcd` the paper's framework uses to sync
//! lambda placement state, §6.1.1).

use std::collections::BTreeMap;
use std::fmt;

use lnic_sim::hash::FastSet;

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
    data: BTreeMap<String, Vec<u8>>,
    applied_uids: FastSet<u64>,
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

    /// Iterates keys with a given prefix.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a [u8])> + 'a {
        self.data
            .range(prefix.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), v.as_slice()))
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
    fn scan_prefix_selects_range() {
        let mut kv = KvStore::default();
        for k in ["app/a", "app/b", "apq/c", "zap"] {
            kv.apply(&Command::Put {
                key: k.into(),
                value: vec![],
            });
        }
        let keys: Vec<&str> = kv.scan_prefix("app/").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["app/a", "app/b"]);
        assert_eq!(kv.len(), 4);
    }
}
