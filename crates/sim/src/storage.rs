//! Disk-fault injection for raft durable storage.
//!
//! [`FaultyStorage`] wraps any [`beehive_raft::Storage`] implementation and
//! fails chosen operations with an injected [`StorageError::Io`] — the
//! simulator's stand-in for a dying disk, a full volume, or a yanked power
//! cable mid-`fsync`. The accompanying [`FaultHandle`] stays with the test
//! harness so faults can be armed while the storage itself is owned (boxed)
//! by the node under test.
//!
//! The tests in this module pin down the two durability contracts the chaos
//! harness relies on:
//!
//! * **Fail-stop, not fail-silent**: the first failed persist latches the
//!   node inert ([`beehive_raft::RaftNode::storage_fault`]); it stops
//!   answering RPCs and refuses proposals rather than acting on state that
//!   never reached the platter.
//! * **Crash-during-compaction loses nothing**: a snapshot save that fails
//!   leaves the log untruncated, so a restart replays the full history and
//!   converges to the exact pre-crash state machine.

use std::sync::Arc;

use beehive_core::sync::Mutex;
use beehive_raft::{
    Entry, HardState, LogIndex, PersistedState, SnapshotRecord, Storage, StorageError, Term,
};

/// Which durable operation an armed fault should strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    /// The term/vote write (`save_hard_state`).
    HardState,
    /// The log-suffix rewrite (`save_log`).
    Log,
    /// The compaction snapshot write (`save_snapshot`).
    Snapshot,
    /// Any of the above — first write loses.
    Any,
}

impl DiskOp {
    fn matches(self, op: DiskOp) -> bool {
        self == DiskOp::Any || self == op
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// Armed fault, if any.
    armed: Option<DiskOp>,
    /// `true` keeps failing every matching op (a dead disk); `false` injects
    /// exactly one failure (a transient error the node must still fail-stop
    /// on — there is no retry that can un-lose an unpersisted vote).
    sticky: bool,
    /// Durable operations attempted through the shim.
    ops: u64,
    /// Failures injected.
    injected: u64,
}

/// Test-side controller for a [`FaultyStorage`] — arm and count faults while
/// the storage lives inside a `RaftNode`.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Arc<Mutex<FaultState>>,
}

impl FaultHandle {
    /// Disarms any pending fault.
    pub fn heal(&self) {
        self.state.lock().armed = None;
    }

    /// Durable operations attempted through the shim so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }
}

/// A [`Storage`] decorator that injects IO failures on command.
///
/// Reads (`load`) always pass through: boot-time corruption is the record
/// codec's department (see `beehive_raft::FileStorage`); this shim models
/// write-path faults on a disk that was readable at boot.
pub struct FaultyStorage<S: Storage> {
    inner: S,
    state: Arc<Mutex<FaultState>>,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner`, returning the storage (give it to the node) and the
    /// handle (keep it to inject faults).
    pub fn new(inner: S) -> (Self, FaultHandle) {
        let state = Arc::new(Mutex::new(FaultState::default()));
        (
            FaultyStorage {
                inner,
                state: state.clone(),
            },
            FaultHandle { state },
        )
    }

    fn intercept(&self, op: DiskOp, name: &'static str) -> Result<(), StorageError> {
        let mut st = self.state.lock();
        st.ops += 1;
        if let Some(armed) = st.armed {
            if armed.matches(op) {
                st.injected += 1;
                if !st.sticky {
                    st.armed = None;
                }
                return Err(StorageError::Io {
                    op: name,
                    detail: "injected disk fault".into(),
                });
            }
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn save_hard_state(&mut self, hs: &HardState) -> Result<(), StorageError> {
        self.intercept(DiskOp::HardState, "save hard state")?;
        self.inner.save_hard_state(hs)
    }

    fn save_log(
        &mut self,
        snapshot_index: LogIndex,
        snapshot_term: Term,
        entries: &[Entry],
    ) -> Result<(), StorageError> {
        self.intercept(DiskOp::Log, "save log")?;
        self.inner.save_log(snapshot_index, snapshot_term, entries)
    }

    fn save_snapshot(&mut self, snap: &SnapshotRecord) -> Result<(), StorageError> {
        self.intercept(DiskOp::Snapshot, "save snapshot")?;
        self.inner.save_snapshot(snap)
    }

    fn load(&mut self) -> Result<Option<PersistedState>, StorageError> {
        self.inner.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_raft::{Config, KvCounter, RaftNode, SharedMemStorage};

    fn config(threshold: u64) -> Config {
        Config {
            rng_seed: 1,
            snapshot_threshold: threshold,
            ..Config::default()
        }
    }

    /// Ticks a lone voter until it elects itself.
    fn run_until_leader(node: &mut RaftNode<KvCounter>) {
        for _ in 0..200 {
            node.tick();
            if node.is_leader() {
                return;
            }
        }
        panic!("single-node cluster never elected itself");
    }

    fn single_node(threshold: u64) -> (RaftNode<KvCounter>, FaultHandle, SharedMemStorage) {
        let shared = SharedMemStorage::new();
        let (faulty, handle) = FaultyStorage::new(shared.handle());
        let node = RaftNode::new(
            1,
            Vec::new(),
            config(threshold),
            KvCounter::default(),
            Box::new(faulty),
        );
        (node, handle, shared)
    }

    /// Fails the next matching durable operation, or every one from now on
    /// (a dead disk) when `sticky`.
    fn arm(handle: &FaultHandle, op: DiskOp, sticky: bool) {
        let mut st = handle.state.lock();
        st.armed = Some(op);
        st.sticky = sticky;
    }

    /// Restarts a node from the (now healed) shared storage and re-elects it.
    fn restart(threshold: u64, shared: &SharedMemStorage) -> RaftNode<KvCounter> {
        let mut node = RaftNode::new(
            1,
            Vec::new(),
            config(threshold),
            KvCounter::default(),
            Box::new(shared.handle()),
        );
        run_until_leader(&mut node);
        node
    }

    #[test]
    fn an_injected_persist_failure_latches_the_node_inert() {
        let (mut node, handle, shared) = single_node(0);
        run_until_leader(&mut node);
        node.propose(vec![5]).unwrap();
        assert_eq!(node.state_machine().total, 5);
        assert!(handle.ops() > 0, "writes flow through the shim");

        arm(&handle, DiskOp::Log, false);
        // The proposal itself may return a token (the append happened in
        // memory) but the persist fails — the node must latch the fault...
        let _ = node.propose(vec![7]);
        let fault = node.storage_fault().expect("fault must latch");
        assert!(matches!(fault, StorageError::Io { .. }), "{fault}");
        assert_eq!(handle.injected(), 1);

        // ...and go inert: no messages out of ticks, proposals refused.
        for _ in 0..50 {
            assert!(node.tick().is_empty(), "a latched node emits nothing");
        }
        assert!(
            node.propose(vec![9]).is_err(),
            "a latched node refuses work"
        );

        // Durable state predating the fault is intact: a restart replays it
        // and lands exactly where the last *successful* persist left off.
        let restored = restart(0, &shared);
        assert_eq!(restored.state_machine().total, 5);
        assert_eq!(
            restored.storage_fault(),
            None,
            "the healed disk restarts clean"
        );
    }

    #[test]
    fn a_dead_disk_fails_the_node_at_first_write() {
        let (mut node, handle, _shared) = single_node(0);
        arm(&handle, DiskOp::Any, true);
        // The self-vote of the first election is the first durable write —
        // the node must never become leader on an unpersisted vote.
        for _ in 0..200 {
            node.tick();
        }
        assert!(!node.is_leader());
        assert!(node.storage_fault().is_some());
        assert!(handle.injected() >= 1);
    }

    #[test]
    fn a_snapshot_save_failure_keeps_the_log_for_full_replay() {
        const THRESHOLD: u64 = 3;
        let (mut node, handle, shared) = single_node(THRESHOLD);
        run_until_leader(&mut node);

        // Arm the fault, then push past the compaction threshold: the
        // snapshot write fails mid-compaction.
        arm(&handle, DiskOp::Snapshot, false);
        let mut expected = 0u64;
        for b in 1..=(THRESHOLD as u8 + 2) {
            expected += b as u64;
            let _ = node.propose(vec![b]);
            if node.storage_fault().is_some() {
                break;
            }
        }
        assert!(
            node.storage_fault().is_some(),
            "the failed snapshot save must latch the node"
        );
        // The log was NOT truncated behind a snapshot that never landed.
        assert_eq!(node.snapshot_index(), 0);
        assert_eq!(node.snapshots_taken(), 0);

        // Restart from the durable log (every entry persisted fine): the
        // replayed state machine equals the pre-crash one, and compaction
        // now succeeds against the healed disk.
        let restored = restart(THRESHOLD, &shared);
        assert_eq!(
            restored.state_machine().total,
            expected,
            "full log replay reproduces the pre-crash state"
        );
        assert!(
            restored.snapshot_index() > 0,
            "compaction completes once the disk heals"
        );
        assert!(restored.snapshots_taken() > 0);
    }
}
