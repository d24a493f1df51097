//! Byte codec for [`RaftMsg`]: the wire format replication traffic uses
//! when it rides the simulated data network between NIC-resident
//! replicas (multi-packet AppendEntries and InstallSnapshot are
//! fragmented by `net::frag` above this layer, and the IPv4/UDP checksums
//! below it drop corrupted frames before they reach the decoder).
//!
//! The format is a straightforward big-endian TLV: node ids, an RPC
//! tag, fixed fields, then length-prefixed entries/commands (or, for a
//! snapshot, its keys in ascending order and its applied write uids).
//! Decoding is total — any truncated or malformed buffer yields a typed
//! [`DecodeError`] rather than a panic, since link faults can deliver
//! arbitrary garbage.

use std::fmt;

use crate::msg::{RaftMsg, Rpc};
use crate::types::{Command, KvStore, LogEntry, NodeId, Snapshot};

const TAG_REQUEST_VOTE: u8 = 1;
const TAG_REQUEST_VOTE_REPLY: u8 = 2;
const TAG_APPEND_ENTRIES: u8 = 3;
const TAG_APPEND_ENTRIES_REPLY: u8 = 4;
const TAG_INSTALL_SNAPSHOT: u8 = 5;
const TAG_INSTALL_SNAPSHOT_REPLY: u8 = 6;

const CMD_NOOP: u8 = 0;
const CMD_PUT: u8 = 1;
const CMD_DELETE: u8 = 2;
const CMD_PUT_ONCE: u8 = 3;

/// Why a buffer did not decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended inside a field.
    Truncated,
    /// The RPC tag byte names no RPC.
    UnknownRpc(u8),
    /// A command tag byte names no command.
    UnknownCommand(u8),
    /// A key is not UTF-8.
    BadUtf8,
    /// A count claims more items than the rest of the buffer could hold.
    CountTooLarge {
        /// Which count.
        field: &'static str,
    },
    /// Snapshot keys are not strictly ascending (the encoder writes
    /// them sorted and unique).
    UnsortedKeys,
    /// A snapshot lists one write uid twice.
    DuplicateUid,
    /// Bytes remain after a complete message.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "raft codec: truncated"),
            DecodeError::UnknownRpc(tag) => write!(f, "raft codec: unknown rpc tag {tag}"),
            DecodeError::UnknownCommand(tag) => {
                write!(f, "raft codec: unknown command tag {tag}")
            }
            DecodeError::BadUtf8 => write!(f, "raft codec: bad utf-8 key"),
            DecodeError::CountTooLarge { field } => {
                write!(f, "raft codec: {field} count exceeds buffer")
            }
            DecodeError::UnsortedKeys => write!(f, "raft codec: snapshot keys not ascending"),
            DecodeError::DuplicateUid => write!(f, "raft codec: duplicate snapshot uid"),
            DecodeError::TrailingBytes => write!(f, "raft codec: trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

fn put_command(out: &mut Vec<u8>, cmd: &Command) {
    match cmd {
        Command::Noop => out.push(CMD_NOOP),
        Command::Put { key, value } => {
            out.push(CMD_PUT);
            put_str(out, key);
            put_bytes(out, value);
        }
        Command::Delete { key } => {
            out.push(CMD_DELETE);
            put_str(out, key);
        }
        Command::PutOnce { key, value, uid } => {
            out.push(CMD_PUT_ONCE);
            put_str(out, key);
            put_bytes(out, value);
            out.extend_from_slice(&uid.to_be_bytes());
        }
    }
}

/// Serializes a [`RaftMsg`] for the data network.
pub fn encode(msg: &RaftMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&msg.from.0.to_be_bytes());
    out.extend_from_slice(&msg.to.0.to_be_bytes());
    match &msg.rpc {
        Rpc::RequestVote {
            term,
            last_log_index,
            last_log_term,
        } => {
            out.push(TAG_REQUEST_VOTE);
            out.extend_from_slice(&term.to_be_bytes());
            out.extend_from_slice(&last_log_index.to_be_bytes());
            out.extend_from_slice(&last_log_term.to_be_bytes());
        }
        Rpc::RequestVoteReply { term, granted } => {
            out.push(TAG_REQUEST_VOTE_REPLY);
            out.extend_from_slice(&term.to_be_bytes());
            out.push(u8::from(*granted));
        }
        Rpc::AppendEntries {
            term,
            prev_log_index,
            prev_log_term,
            entries,
            leader_commit,
        } => {
            out.push(TAG_APPEND_ENTRIES);
            out.extend_from_slice(&term.to_be_bytes());
            out.extend_from_slice(&prev_log_index.to_be_bytes());
            out.extend_from_slice(&prev_log_term.to_be_bytes());
            out.extend_from_slice(&leader_commit.to_be_bytes());
            out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
            for entry in entries {
                out.extend_from_slice(&entry.term.to_be_bytes());
                put_command(&mut out, &entry.command);
            }
        }
        Rpc::AppendEntriesReply {
            term,
            success,
            match_index,
        } => {
            out.push(TAG_APPEND_ENTRIES_REPLY);
            out.extend_from_slice(&term.to_be_bytes());
            out.push(u8::from(*success));
            out.extend_from_slice(&match_index.to_be_bytes());
        }
        Rpc::InstallSnapshot { term, snapshot } => {
            out.push(TAG_INSTALL_SNAPSHOT);
            out.extend_from_slice(&term.to_be_bytes());
            out.extend_from_slice(&snapshot.index.to_be_bytes());
            out.extend_from_slice(&snapshot.term.to_be_bytes());
            out.extend_from_slice(&snapshot.digest.to_be_bytes());
            let kv = &snapshot.kv;
            out.extend_from_slice(&(kv.data.len() as u32).to_be_bytes());
            for (key, value) in &kv.data {
                put_str(&mut out, key);
                put_bytes(&mut out, value);
            }
            out.extend_from_slice(&(kv.applied_uids.len() as u32).to_be_bytes());
            for uid in &kv.applied_uids {
                out.extend_from_slice(&uid.to_be_bytes());
            }
        }
        Rpc::InstallSnapshotReply { term, match_index } => {
            out.push(TAG_INSTALL_SNAPSHOT_REPLY);
            out.extend_from_slice(&term.to_be_bytes());
            out.extend_from_slice(&match_index.to_be_bytes());
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(DecodeError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn command(&mut self) -> Result<Command, DecodeError> {
        match self.u8()? {
            CMD_NOOP => Ok(Command::Noop),
            CMD_PUT => Ok(Command::Put {
                key: self.string()?,
                value: self.bytes()?,
            }),
            CMD_DELETE => Ok(Command::Delete {
                key: self.string()?,
            }),
            CMD_PUT_ONCE => Ok(Command::PutOnce {
                key: self.string()?,
                value: self.bytes()?,
                uid: self.u64()?,
            }),
            tag => Err(DecodeError::UnknownCommand(tag)),
        }
    }

    /// Reads a count of items each at least `min_size` encoded bytes,
    /// refusing one the rest of the buffer cannot hold before anything
    /// is allocated for it.
    fn count(&mut self, min_size: usize, field: &'static str) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_size) > self.buf.len() - self.pos {
            return Err(DecodeError::CountTooLarge { field });
        }
        Ok(count)
    }

    fn snapshot(&mut self) -> Result<Snapshot, DecodeError> {
        let index = self.u64()?;
        let term = self.u64()?;
        let digest = self.u64()?;
        let mut kv = KvStore::default();
        // A key is at least its u16 length, a value its u32 length.
        for _ in 0..self.count(6, "snapshot key")? {
            let key = self.string()?;
            if kv
                .data
                .last_key_value()
                .is_some_and(|(last, _)| *last >= key)
            {
                return Err(DecodeError::UnsortedKeys);
            }
            let value = self.bytes()?;
            kv.data.insert(key, value);
        }
        let uids = self.count(8, "snapshot uid")?;
        kv.applied_uids.reserve(uids);
        for _ in 0..uids {
            if !kv.applied_uids.insert(self.u64()?) {
                return Err(DecodeError::DuplicateUid);
            }
        }
        Ok(Snapshot {
            index,
            term,
            digest,
            kv,
        })
    }
}

/// Deserializes a [`RaftMsg`] produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<RaftMsg, DecodeError> {
    let mut r = Reader { buf, pos: 0 };
    let from = NodeId(r.u32()?);
    let to = NodeId(r.u32()?);
    let rpc = match r.u8()? {
        TAG_REQUEST_VOTE => Rpc::RequestVote {
            term: r.u64()?,
            last_log_index: r.u64()?,
            last_log_term: r.u64()?,
        },
        TAG_REQUEST_VOTE_REPLY => Rpc::RequestVoteReply {
            term: r.u64()?,
            granted: r.u8()? != 0,
        },
        TAG_APPEND_ENTRIES => {
            let term = r.u64()?;
            let prev_log_index = r.u64()?;
            let prev_log_term = r.u64()?;
            let leader_commit = r.u64()?;
            // Each entry is at least its term and command tag.
            let count = r.count(9, "entry")?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                entries.push(LogEntry {
                    term: r.u64()?,
                    command: r.command()?,
                });
            }
            Rpc::AppendEntries {
                term,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            }
        }
        TAG_APPEND_ENTRIES_REPLY => Rpc::AppendEntriesReply {
            term: r.u64()?,
            success: r.u8()? != 0,
            match_index: r.u64()?,
        },
        TAG_INSTALL_SNAPSHOT => Rpc::InstallSnapshot {
            term: r.u64()?,
            snapshot: Box::new(r.snapshot()?),
        },
        TAG_INSTALL_SNAPSHOT_REPLY => Rpc::InstallSnapshotReply {
            term: r.u64()?,
            match_index: r.u64()?,
        },
        tag => return Err(DecodeError::UnknownRpc(tag)),
    };
    if r.pos != buf.len() {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(RaftMsg { from, to, rpc })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: RaftMsg) {
        let bytes = encode(&msg);
        assert_eq!(decode(&bytes).expect("decodes"), msg);
    }

    #[test]
    fn all_rpcs_roundtrip() {
        roundtrip(RaftMsg {
            from: NodeId(0),
            to: NodeId(2),
            rpc: Rpc::RequestVote {
                term: 7,
                last_log_index: 42,
                last_log_term: 6,
            },
        });
        roundtrip(RaftMsg {
            from: NodeId(2),
            to: NodeId(0),
            rpc: Rpc::RequestVoteReply {
                term: 7,
                granted: true,
            },
        });
        roundtrip(RaftMsg {
            from: NodeId(1),
            to: NodeId(0),
            rpc: Rpc::AppendEntriesReply {
                term: 9,
                success: false,
                match_index: 3,
            },
        });
    }

    #[test]
    fn append_entries_with_all_command_kinds_roundtrips() {
        roundtrip(RaftMsg {
            from: NodeId(0),
            to: NodeId(1),
            rpc: Rpc::AppendEntries {
                term: 3,
                prev_log_index: 10,
                prev_log_term: 2,
                leader_commit: 9,
                entries: vec![
                    LogEntry {
                        term: 3,
                        command: Command::Noop,
                    },
                    LogEntry {
                        term: 3,
                        command: Command::Put {
                            key: "k/1".into(),
                            value: vec![1, 2, 3],
                        },
                    },
                    LogEntry {
                        term: 3,
                        command: Command::Delete { key: "k/2".into() },
                    },
                    LogEntry {
                        term: 3,
                        command: Command::PutOnce {
                            key: "k/3".into(),
                            value: vec![0xAB; 2000],
                            uid: 0xDEAD_BEEF_CAFE_F00D,
                        },
                    },
                ],
            },
        });
    }

    #[test]
    fn empty_append_roundtrips() {
        roundtrip(RaftMsg {
            from: NodeId(1),
            to: NodeId(2),
            rpc: Rpc::AppendEntries {
                term: 1,
                prev_log_index: 0,
                prev_log_term: 0,
                leader_commit: 0,
                entries: vec![],
            },
        });
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let good = encode(&RaftMsg {
            from: NodeId(0),
            to: NodeId(1),
            rpc: Rpc::AppendEntries {
                term: 3,
                prev_log_index: 1,
                prev_log_term: 1,
                leader_commit: 1,
                entries: vec![LogEntry {
                    term: 3,
                    command: Command::Put {
                        key: "key".into(),
                        value: vec![9; 64],
                    },
                }],
            },
        });
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "prefix of {cut} decoded");
        }
        assert!(decode(&[]).is_err());
        assert!(decode(&[0xFF; 9]).is_err());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }
}
