//! Wire codec for the snapshot RPCs: round trips, and typed errors (never
//! a panic) on truncated or corrupt buffers.

use lnic_raft::codec::{decode, encode, DecodeError};
use lnic_raft::msg::{RaftMsg, Rpc};
use lnic_raft::types::{Command, LogEntry, NodeId, Snapshot};

/// A snapshot with two keys and two applied write uids.
fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (i, (key, uid)) in [("app/a", 7u64), ("app/b", 0xDEAD_BEEF)]
        .into_iter()
        .enumerate()
    {
        snap.fold(&LogEntry {
            term: 3,
            command: Command::PutOnce {
                key: key.into(),
                value: vec![i as u8; 8],
                uid,
            },
        });
    }
    snap.fold(&LogEntry {
        term: 4,
        command: Command::Noop,
    });
    snap
}

fn install(snapshot: Snapshot) -> RaftMsg {
    RaftMsg {
        from: NodeId(0),
        to: NodeId(2),
        rpc: Rpc::InstallSnapshot {
            term: 4,
            snapshot: Box::new(snapshot),
        },
    }
}

/// Offset of the snapshot's key count: ids (8), tag (1), term, index,
/// snapshot term and digest (8 each).
const KEY_COUNT_AT: usize = 9 + 4 * 8;

#[test]
fn snapshot_rpcs_roundtrip() {
    for msg in [
        install(snapshot()),
        install(Snapshot::default()),
        RaftMsg {
            from: NodeId(2),
            to: NodeId(0),
            rpc: Rpc::InstallSnapshotReply {
                term: 4,
                match_index: 3,
            },
        },
    ] {
        assert_eq!(decode(&encode(&msg)), Ok(msg));
    }
    let snap = snapshot();
    assert_eq!((snap.index, snap.term), (3, 4));
    assert!(snap.kv.has_uid(7) && snap.kv.has_uid(0xDEAD_BEEF));
}

#[test]
fn truncated_and_corrupt_snapshots_fail_typed() {
    let good = encode(&install(snapshot()));
    for cut in 0..good.len() {
        // A cut inside the items makes their count claim too much.
        let err = decode(&good[..cut]).expect_err("a prefix decoded");
        assert!(
            matches!(
                err,
                DecodeError::Truncated | DecodeError::CountTooLarge { .. }
            ),
            "prefix of {cut} bytes: {err}"
        );
    }
    let reply = encode(&RaftMsg {
        from: NodeId(1),
        to: NodeId(0),
        rpc: Rpc::InstallSnapshotReply {
            term: 1,
            match_index: 9,
        },
    });
    for cut in 0..reply.len() {
        assert_eq!(decode(&reply[..cut]), Err(DecodeError::Truncated));
    }
    let mut trailing = good.clone();
    trailing.push(0);
    assert_eq!(decode(&trailing), Err(DecodeError::TrailingBytes));

    let mut tag = good.clone();
    tag[8] = 0xEE;
    assert_eq!(decode(&tag), Err(DecodeError::UnknownRpc(0xEE)));

    let mut huge = good.clone();
    huge[KEY_COUNT_AT..KEY_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        decode(&huge),
        Err(DecodeError::CountTooLarge {
            field: "snapshot key"
        })
    );

    // Both keys are five bytes; make the second equal to the first.
    let first_key = KEY_COUNT_AT + 4 + 2;
    let second_key = first_key + 5 + 4 + 8 + 2;
    assert_eq!(&good[first_key..first_key + 5], b"app/a");
    assert_eq!(&good[second_key..second_key + 5], b"app/b");
    let mut unsorted = good.clone();
    unsorted[second_key + 4] = b'a';
    assert_eq!(decode(&unsorted), Err(DecodeError::UnsortedKeys));
    unsorted[first_key + 4] = 0xFF;
    assert_eq!(decode(&unsorted), Err(DecodeError::BadUtf8));

    // The two uids are the last 16 bytes: repeat the first.
    let mut duplicate = good.clone();
    let end = duplicate.len();
    let (head, last) = duplicate.split_at_mut(end - 8);
    last.copy_from_slice(&head[end - 16..]);
    assert_eq!(decode(&duplicate), Err(DecodeError::DuplicateUid));
}

#[test]
fn every_single_byte_corruption_decodes_or_fails_without_panicking() {
    let good = encode(&install(snapshot()));
    for at in 0..good.len() {
        for flip in [0x01, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[at] ^= flip;
            // Either outcome is fine; a panic fails the test.
            let _ = decode(&bad);
        }
    }
}
