#![warn(missing_docs)]

//! `beehive-raft` — a deterministic, sans-IO implementation of the Raft
//! consensus algorithm (Ongaro & Ousterhout, 2014).
//!
//! Beehive's HotNets'14 paper relies on "a distributed locking mechanism
//! (e.g., Chubby)" to keep the cell→bee registry consistent across hives.
//! This crate is our substitute: the registry is a replicated state machine
//! driven by Raft, which is also what the published Go implementation of
//! Beehive converged on (etcd Raft).
//!
//! # Design
//!
//! The core type, [`RaftNode`], performs **no IO and owns no threads or
//! clocks**. Time advances only when the embedder calls [`RaftNode::tick`],
//! and messages move only when the embedder passes them to
//! [`RaftNode::step`]. Both return [`Outbound`] messages for the embedder to
//! deliver. This makes the algorithm fully deterministic and testable — the
//! [`harness`] module runs whole clusters in virtual time with seeded fault
//! injection, and `beehive-sim` drives registry Raft groups the same way.
//!
//! Implemented: leader election with randomized timeouts (a fresh group's
//! lowest voter campaigns on its first tick), pipelined log replication
//! through one send path ([`RaftNode::replicate`]) with monotone progress,
//! conflict-index backoff and commit notices, commitment (including the
//! current-term restriction, Raft §5.4.2), client proposal correlation,
//! log-compaction snapshots and `InstallSnapshot`, and pluggable
//! [`Storage`] (in-memory and file-backed via `beehive-wire`).
//!
//! # Example
//!
//! ```
//! use beehive_raft::{Config, RaftNode, KvCounter, harness::Cluster};
//!
//! // A three-node cluster that agrees on increments of a counter.
//! let mut cluster = Cluster::new(3, Config::default(), 42, KvCounter::default);
//! cluster.run_until_leader(1000).expect("a leader should emerge");
//! let leader = cluster.leader().unwrap();
//! cluster.propose(leader, vec![5]).unwrap();
//! cluster.run_ticks(100);
//! assert!(cluster.nodes().all(|n| n.state_machine().total == 5));
//! ```

mod config;
mod log;
mod node;
mod rng;
mod storage;
mod types;

pub mod harness;
pub mod prop;

pub use config::Config;
pub use log::RaftLog;
pub use node::{Applied, Outbound, ProposeError, RaftNode, Role};
pub use rng::{SeededRng, UniformInt};
pub use storage::{
    FileStorage, FsyncPolicy, HardState, PersistedState, SharedMemStorage, SnapshotRecord, Storage,
    StorageError,
};
pub use types::{
    ConfChange, ConfChangeKind, Entry, EntryKind, LogIndex, NodeId, RaftMessage, Term,
};

/// The replicated state machine interface.
///
/// `apply` must be **deterministic**: every replica applies the same entries
/// in the same order and must reach the same state.
pub trait StateMachine: Send + 'static {
    /// Result returned to the proposer when its entry commits.
    type Output: Clone + Send + 'static;

    /// Applies a committed log entry.
    fn apply(&mut self, index: LogIndex, data: &[u8]) -> Self::Output;

    /// Serializes the full state for log compaction.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state from a snapshot produced by [`StateMachine::snapshot`].
    fn restore(&mut self, snapshot: &[u8]);
}

/// A tiny state machine summing the bytes proposed to it — used by doc tests,
/// unit tests and benchmarks.
#[derive(Default, Debug, Clone)]
pub struct KvCounter {
    /// Sum of all applied bytes.
    pub total: u64,
    /// Number of applied entries.
    pub applied: u64,
}

impl StateMachine for KvCounter {
    type Output = u64;

    fn apply(&mut self, _index: LogIndex, data: &[u8]) -> u64 {
        self.total += data.iter().map(|&b| b as u64).sum::<u64>();
        self.applied += 1;
        self.total
    }

    fn snapshot(&self) -> Vec<u8> {
        beehive_wire::to_vec(&(self.total, self.applied)).expect("snapshot KvCounter")
    }

    fn restore(&mut self, snapshot: &[u8]) {
        let (total, applied) = beehive_wire::from_slice(snapshot).expect("restore KvCounter");
        self.total = total;
        self.applied = applied;
    }
}
