//! Wire-level types: identifiers, log entries and RPC messages.

use serde::{Deserialize, Serialize};

/// Identifier of a Raft node. In Beehive this is the hive id.
pub type NodeId = u64;

/// A Raft term.
pub type Term = u64;

/// Index into the replicated log (1-based; 0 means "empty log").
pub type LogIndex = u64;

/// What a log entry carries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntryKind {
    /// A client proposal carrying opaque state-machine bytes.
    Normal,
    /// An empty entry a new leader appends to commit entries from prior terms
    /// (Raft §5.4.2 / §8).
    Noop,
    /// A cluster membership change ([`ConfChange`] encoded in the entry
    /// data). Applied when the entry commits; at most one may be in flight
    /// at a time — the single-server special case of joint consensus that
    /// keeps any two successive configurations' quorums overlapping
    /// (Raft §6 / etcd's one-at-a-time changes).
    ConfChange,
}

/// What a [`ConfChange`] does to the addressed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfChangeKind {
    /// Adds the node as a non-voting learner (replicated to, no quorum).
    AddLearner,
    /// Promotes a caught-up learner to a voting member.
    PromoteVoter,
    /// Demotes a voter back to a learner (drain step 1).
    DemoteLearner,
    /// Removes the node from the configuration entirely (drain step 2).
    RemoveNode,
}

/// A single-node membership change, carried in a log entry of kind
/// [`EntryKind::ConfChange`] and applied by every member when the entry
/// commits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfChange {
    /// The node being added / promoted / demoted / removed.
    pub node: NodeId,
    /// Transport address of the node (empty when not applicable, e.g.
    /// removals). Rides the log so every member — including ones that catch
    /// up later from a snapshot — learns how to reach a joiner.
    pub addr: String,
    /// What to do with `node`.
    pub kind: ConfChangeKind,
}

impl ConfChange {
    /// Serializes for embedding in a log entry.
    pub fn encode(&self) -> Vec<u8> {
        beehive_wire::to_vec(self).expect("conf change encodes")
    }

    /// Decodes from log-entry bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, beehive_wire::Error> {
        beehive_wire::from_slice(bytes)
    }
}

/// A single replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Term in which the entry was created.
    pub term: Term,
    /// Position in the log.
    pub index: LogIndex,
    /// Entry payload; empty for no-ops.
    pub data: Vec<u8>,
    /// Normal proposal or leader no-op.
    pub kind: EntryKind,
}

beehive_wire::wire_struct!(Entry {
    term,
    index,
    data: bytes,
    kind
});

/// Raft RPCs, exchanged as plain values; the embedder is the transport.
#[derive(Debug, Clone, PartialEq)]
pub enum RaftMessage {
    /// Candidate solicits a vote (Raft §5.2).
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// Index of candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to `RequestVote`.
    RequestVoteResp {
        /// Responder's current term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries / heartbeats (Raft §5.3).
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of the `prev_log_index` entry.
        prev_log_term: Term,
        /// Entries to append (empty for heartbeat).
        entries: Vec<Entry>,
        /// Leader's commit index.
        leader_commit: LogIndex,
    },
    /// Reply to `AppendEntries`.
    AppendEntriesResp {
        /// Responder's current term.
        term: Term,
        /// Whether the append matched.
        success: bool,
        /// Highest log index known to match the leader (valid when `success`).
        match_index: LogIndex,
        /// On failure, a hint for the leader to rewind `next_index` quickly.
        conflict_index: LogIndex,
    },
    /// Leader transfers a snapshot to a slow follower (Raft §7).
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// The snapshot replaces the log through this index.
        last_index: LogIndex,
        /// Term of `last_index`.
        last_term: Term,
        /// Serialized state machine.
        data: Vec<u8>,
    },
    /// Reply to `InstallSnapshot`.
    InstallSnapshotResp {
        /// Responder's current term.
        term: Term,
        /// The follower's new match index.
        match_index: LogIndex,
    },
    /// Pre-vote probe (Raft §9.6 / etcd PreVote): a would-be candidate asks
    /// whether it *could* win an election at `term` before disturbing the
    /// cluster by actually incrementing its term. Receivers answer without
    /// changing any persistent state.
    PreVote {
        /// The term the sender would campaign at (its current term + 1).
        term: Term,
        /// Index of the sender's last log entry.
        last_log_index: LogIndex,
        /// Term of the sender's last log entry.
        last_log_term: Term,
    },
    /// Reply to `PreVote`.
    PreVoteResp {
        /// The term the probe asked about (echoed).
        term: Term,
        /// Whether a real vote would be granted.
        granted: bool,
    },
    /// Leadership transfer (Raft §3.10 / etcd `MsgTimeoutNow`): the leader
    /// tells a caught-up voter to start an election *immediately*, skipping
    /// both its election timeout and the pre-vote probe, so a draining
    /// leader can hand off before demoting itself.
    TimeoutNow {
        /// The transferring leader's term.
        term: Term,
    },
}

beehive_wire::wire_enum!(RaftMessage {
    0 => RequestVote { term, last_log_index, last_log_term },
    1 => RequestVoteResp { term, granted },
    2 => AppendEntries { term, prev_log_index, prev_log_term, entries, leader_commit },
    3 => AppendEntriesResp { term, success, match_index, conflict_index },
    4 => InstallSnapshot { term, last_index, last_term, data: bytes },
    5 => InstallSnapshotResp { term, match_index },
    6 => PreVote { term, last_log_index, last_log_term },
    7 => PreVoteResp { term, granted },
    8 => TimeoutNow { term },
});

impl RaftMessage {
    /// The term carried by this message.
    pub fn term(&self) -> Term {
        match self {
            RaftMessage::RequestVote { term, .. }
            | RaftMessage::RequestVoteResp { term, .. }
            | RaftMessage::AppendEntries { term, .. }
            | RaftMessage::AppendEntriesResp { term, .. }
            | RaftMessage::InstallSnapshot { term, .. }
            | RaftMessage::InstallSnapshotResp { term, .. }
            | RaftMessage::PreVote { term, .. }
            | RaftMessage::PreVoteResp { term, .. }
            | RaftMessage::TimeoutNow { term } => *term,
        }
    }

    /// Rough wire size used by simulators for bandwidth accounting.
    pub fn encoded_len(&self) -> usize {
        beehive_wire::encoded_len(self).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip_through_wire() {
        let msgs = vec![
            RaftMessage::RequestVote {
                term: 3,
                last_log_index: 10,
                last_log_term: 2,
            },
            RaftMessage::RequestVoteResp {
                term: 3,
                granted: true,
            },
            RaftMessage::AppendEntries {
                term: 4,
                prev_log_index: 9,
                prev_log_term: 2,
                entries: vec![Entry {
                    term: 4,
                    index: 10,
                    data: vec![1, 2],
                    kind: EntryKind::Normal,
                }],
                leader_commit: 8,
            },
            RaftMessage::AppendEntriesResp {
                term: 4,
                success: false,
                match_index: 0,
                conflict_index: 5,
            },
            RaftMessage::InstallSnapshot {
                term: 5,
                last_index: 100,
                last_term: 4,
                data: vec![9; 16],
            },
            RaftMessage::InstallSnapshotResp {
                term: 5,
                match_index: 100,
            },
            RaftMessage::TimeoutNow { term: 6 },
        ];
        for m in msgs {
            let buf = beehive_wire::to_vec(&m).unwrap();
            let back: RaftMessage = beehive_wire::from_slice(&buf).unwrap();
            assert_eq!(back, m);
            assert_eq!(m.encoded_len(), buf.len());
        }
    }

    #[test]
    fn conf_change_roundtrips() {
        let cc = ConfChange {
            node: 4,
            addr: "127.0.0.1:9404".to_string(),
            kind: ConfChangeKind::AddLearner,
        };
        let back = ConfChange::decode(&cc.encode()).unwrap();
        assert_eq!(back, cc);
    }

    #[test]
    fn term_accessor_matches() {
        let m = RaftMessage::RequestVote {
            term: 9,
            last_log_index: 0,
            last_log_term: 0,
        };
        assert_eq!(m.term(), 9);
    }
}
