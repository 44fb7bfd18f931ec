//! `RaftNode::campaign`: a lone voter leads without waiting out its election
//! timeout; a node with other members, a learner, or a node with a latched
//! storage fault is left as it was. And the eager campaign of a fresh
//! group: its lowest voter leads after one tick, while the same voter
//! rebooted on an empty disk cannot depose a leader its peers still hear.

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

/// Voters `1..=n` on empty storage.
fn fresh_group(n: u64) -> Vec<RaftNode<KvCounter>> {
    (1..=n)
        .map(|id| {
            let peers = (1..=n).filter(|&p| p != id).collect();
            RaftNode::new(id, peers, config(id), KvCounter::default(), mem())
        })
        .collect()
}

/// Ticks every node once, then delivers until no message is left.
fn tick_and_deliver(nodes: &mut [RaftNode<KvCounter>]) {
    let mut queue = std::collections::VecDeque::new();
    for node in nodes.iter_mut() {
        let from = node.id();
        queue.extend(node.tick().into_iter().map(|o| (from, o)));
    }
    while let Some((from, o)) = queue.pop_front() {
        let to = &mut nodes[(o.to - 1) as usize];
        let out = to.step(from, o.msg);
        queue.extend(out.into_iter().map(|o| (to.id(), o)));
    }
}

#[test]
fn a_fresh_groups_lowest_voter_leads_after_one_tick() {
    let mut nodes = fresh_group(3);
    tick_and_deliver(&mut nodes);
    assert!(nodes[0].is_leader(), "node 1 is {:?}", nodes[0].role());
    assert_eq!(nodes[0].term(), 1);
    for n in &nodes[1..] {
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.leader_hint(), Some(1));
    }
}

#[test]
fn a_lowest_voter_rebooted_on_an_empty_disk_does_not_depose_the_leader() {
    let mut nodes = fresh_group(3);
    let out = nodes[1].campaign();
    let mut queue: std::collections::VecDeque<_> = out.into_iter().map(|o| (2, o)).collect();
    while let Some((from, o)) = queue.pop_front() {
        let to = &mut nodes[(o.to - 1) as usize];
        let out = to.step(from, o.msg);
        queue.extend(out.into_iter().map(|o| (to.id(), o)));
    }
    assert!(nodes[1].is_leader());
    let term = nodes[1].term();

    // Node 1 comes back with nothing on disk: a fresh lowest voter.
    nodes[0] = RaftNode::new(1, vec![2, 3], config(1), KvCounter::default(), mem());
    for _ in 0..100 {
        tick_and_deliver(&mut nodes);
        assert!(nodes[1].is_leader(), "node 2 lost the lead");
        assert_eq!(nodes[1].term(), term, "node 2's term moved");
    }
    assert_eq!(nodes[0].leader_hint(), Some(2));
    assert_eq!(nodes[0].log().last_index(), nodes[1].log().last_index());
}
