//! `RaftNode::campaign`: a lone voter leads without waiting out its election
//! timeout; a node with other members, a learner, or a node with a latched
//! storage fault is left as it was.

use beehive_raft::{
    Config, Entry, HardState, KvCounter, LogIndex, PersistedState, RaftNode, Role,
    SharedMemStorage, SnapshotRecord, Storage, StorageError, Term,
};

fn config(id: u64) -> Config {
    Config {
        rng_seed: id,
        ..Config::default()
    }
}

fn mem() -> Box<dyn Storage> {
    Box::new(SharedMemStorage::new())
}

/// Storage whose persisted bytes cannot be trusted: the node latches the
/// fault at construction.
struct CorruptDisk;

impl Storage for CorruptDisk {
    fn save_hard_state(&mut self, _: &HardState) -> Result<(), StorageError> {
        Ok(())
    }

    fn save_log(&mut self, _: LogIndex, _: Term, _: &[Entry]) -> Result<(), StorageError> {
        Ok(())
    }

    fn save_snapshot(&mut self, _: &SnapshotRecord) -> Result<(), StorageError> {
        Ok(())
    }

    fn load(&mut self) -> Result<Option<PersistedState>, StorageError> {
        Err(StorageError::Corrupt {
            detail: "bad checksum".into(),
        })
    }
}

#[test]
fn a_lone_voter_leads_before_any_tick_and_applies_inside_propose() {
    let mut node = RaftNode::new(1, Vec::new(), config(1), KvCounter::default(), mem());
    assert!(!node.is_leader(), "construction alone does not campaign");
    assert!(node.campaign().is_empty(), "nobody to ask for a vote");
    assert!(node.is_leader());
    assert_eq!(node.term(), 1);

    node.propose(vec![5]).unwrap();
    assert_eq!(node.state_machine().total, 5);
    let applied = node.take_applied();
    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].output, 5);
    assert_eq!(node.last_applied(), node.commit_index());
}

#[test]
fn a_voter_with_peers_is_not_leader_after_construction() {
    let node = RaftNode::new(1, vec![2, 3], config(1), KvCounter::default(), mem());
    assert!(!node.is_leader());
    assert_eq!(node.role(), Role::Follower);
}

#[test]
fn a_voter_with_only_learners_is_not_leader_after_construction() {
    let node = RaftNode::with_membership(
        1,
        Vec::new(),
        vec![2],
        false,
        config(1),
        KvCounter::default(),
        mem(),
    );
    assert!(!node.is_leader());
    assert_eq!(node.role(), Role::Follower);
}

#[test]
fn campaign_on_a_latched_node_does_nothing() {
    let mut node = RaftNode::new(
        1,
        Vec::new(),
        config(1),
        KvCounter::default(),
        Box::new(CorruptDisk),
    );
    assert!(node.storage_fault().is_some());
    assert!(node.campaign().is_empty());
    assert_eq!(node.role(), Role::Follower);
    assert_eq!(node.term(), 0);
    assert!(!node.is_leader());
}

#[test]
fn campaign_on_a_learner_does_nothing() {
    let mut node = RaftNode::new_learner(2, vec![1], config(2), KvCounter::default(), mem());
    assert!(node.campaign().is_empty());
    assert_eq!(node.role(), Role::Follower);
    assert_eq!(node.term(), 0);
    assert!(node.is_learner());
}
