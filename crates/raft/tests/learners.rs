//! Tests for non-voting learners: they follow the log and apply entries but
//! never vote, never campaign and never count toward the quorum.

use beehive_raft::{
    ConfChange, ConfChangeKind, Config, KvCounter, ProposeError, RaftMessage, RaftNode, Role,
    SharedMemStorage,
};

/// Builds a 3-voter + 1-learner group and hand-delivers messages, giving the
/// test full control over scheduling.
struct Net {
    nodes: Vec<RaftNode<KvCounter>>, // ids 1..=4; node 4 is the learner
    queue: Vec<(u64, u64, RaftMessage)>, // (from, to, msg)
}

impl Net {
    fn new() -> Self {
        let voters = vec![1u64, 2, 3];
        let mut nodes = Vec::new();
        for &id in &voters {
            let peers: Vec<u64> = voters.iter().copied().filter(|&p| p != id).collect();
            nodes.push(RaftNode::with_membership(
                id,
                peers,
                vec![4],
                false,
                Config {
                    rng_seed: id,
                    ..Config::default()
                },
                KvCounter::default(),
                Box::new(SharedMemStorage::new()),
            ));
        }
        nodes.push(RaftNode::new_learner(
            4,
            voters,
            Config {
                rng_seed: 4,
                ..Config::default()
            },
            KvCounter::default(),
            Box::new(SharedMemStorage::new()),
        ));
        Net {
            nodes,
            queue: Vec::new(),
        }
    }

    fn node(&self, id: u64) -> &RaftNode<KvCounter> {
        &self.nodes[(id - 1) as usize]
    }

    fn node_mut(&mut self, id: u64) -> &mut RaftNode<KvCounter> {
        &mut self.nodes[(id - 1) as usize]
    }

    fn tick_all(&mut self) {
        for id in 1..=4u64 {
            let out = self.node_mut(id).tick();
            for o in out {
                self.queue.push((id, o.to, o.msg));
            }
        }
        self.drain();
    }

    fn drain(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop() {
            let out = self.node_mut(to).step(from, msg);
            for o in out {
                self.queue.push((to, o.to, o.msg));
            }
        }
    }

    /// Like `tick_all`, but the partitioned node `down` neither ticks nor
    /// exchanges messages.
    fn tick_all_except(&mut self, down: u64) {
        for id in (1..=4u64).filter(|&id| id != down) {
            let out = self.node_mut(id).tick();
            for o in out {
                self.queue.push((id, o.to, o.msg));
            }
        }
        self.drain_except(down);
    }

    /// Drains the queue, dropping anything to or from the partitioned node.
    fn drain_except(&mut self, down: u64) {
        while let Some((from, to, msg)) = self.queue.pop() {
            if from == down || to == down {
                continue;
            }
            let out = self.node_mut(to).step(from, msg);
            for o in out {
                self.queue.push((to, o.to, o.msg));
            }
        }
    }

    fn run_until_leader(&mut self) -> u64 {
        for _ in 0..500 {
            self.tick_all();
            if let Some(l) = (1..=3u64).find(|&id| self.node(id).is_leader()) {
                return l;
            }
        }
        panic!("no leader");
    }

    fn propose_conf(&mut self, leader: u64, cc: ConfChange) {
        let (_, out) = self.node_mut(leader).propose_conf_change(&cc).unwrap();
        for o in out {
            self.queue.push((leader, o.to, o.msg));
        }
    }
}

#[test]
fn learner_replicates_and_applies() {
    let mut net = Net::new();
    let leader = net.run_until_leader();
    let (_, out) = net.node_mut(leader).propose_now(vec![10]).unwrap();
    for o in out {
        net.queue.push((leader, o.to, o.msg));
    }
    net.drain();
    for _ in 0..20 {
        net.tick_all();
    }
    assert_eq!(
        net.node(4).state_machine().total,
        10,
        "learner did not apply"
    );
    assert!(net.node(4).is_learner());
    assert_eq!(net.node(4).role(), Role::Follower);
}

#[test]
fn learner_never_campaigns() {
    let mut net = Net::new();
    // Tick only the learner far past any election timeout: it must stay a
    // term-0 follower and emit nothing.
    for _ in 0..200 {
        let out = net.node_mut(4).tick();
        assert!(out.is_empty(), "learner emitted {out:?}");
    }
    assert_eq!(net.node(4).term(), 0);
    assert_eq!(net.node(4).role(), Role::Follower);
}

#[test]
fn learner_vote_is_never_granted() {
    let mut net = Net::new();
    let out = net.node_mut(4).step(
        1,
        RaftMessage::RequestVote {
            term: 5,
            last_log_index: 0,
            last_log_term: 0,
        },
    );
    assert_eq!(out.len(), 1);
    match &out[0].msg {
        RaftMessage::RequestVoteResp { granted, .. } => assert!(!granted),
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn learner_does_not_count_toward_commit_quorum() {
    let mut net = Net::new();
    let leader = net.run_until_leader();
    // Cut the leader off from the other two voters; only the learner remains
    // reachable. Proposals must NOT commit.
    let voters: Vec<u64> = (1..=3).filter(|&v| v != leader).collect();
    let before = net.node(leader).commit_index();
    let (_, out) = net.node_mut(leader).propose_now(vec![1]).unwrap();
    // Deliver only to the learner.
    for o in out {
        if o.to == 4 {
            let replies = net.node_mut(4).step(leader, o.msg);
            for r in replies {
                let more = net.node_mut(leader).step(4, r.msg);
                // Discard further sends to the partitioned voters.
                drop(more);
            }
        }
    }
    // Learner acked, but the entry must remain uncommitted.
    assert_eq!(net.node(leader).commit_index(), before);
    let _ = voters;
}

#[test]
fn learner_promotes_to_voter_under_partitioned_voter() {
    let mut net = Net::new();
    let leader = net.run_until_leader();
    // Partition one of the NON-leader voters: the promotion must still
    // commit through the remaining {leader, other-voter} quorum.
    let down = (1..=3u64).find(|&v| v != leader).unwrap();
    net.propose_conf(
        leader,
        ConfChange {
            node: 4,
            addr: String::new(),
            kind: ConfChangeKind::PromoteVoter,
        },
    );
    for _ in 0..30 {
        net.tick_all_except(down);
    }
    assert!(!net.node(4).is_learner(), "learner was not promoted");
    assert_eq!(
        net.node(leader).voters(),
        vec![1, 2, 3, 4],
        "leader's voter set must now include the promoted node"
    );
    // The promoted voter counts toward the quorum: with `down` still
    // partitioned, {leader, other voter, node 4} is 3 of 4 — proposals
    // commit and node 4 applies them.
    let before = net.node(4).state_machine().total;
    let (_, out) = net.node_mut(leader).propose_now(vec![7]).unwrap();
    for o in out {
        net.queue.push((leader, o.to, o.msg));
    }
    net.drain_except(down);
    for _ in 0..30 {
        net.tick_all_except(down);
    }
    assert_eq!(net.node(4).state_machine().total, before + 7);
}

#[test]
fn only_one_conf_change_in_flight() {
    let mut net = Net::new();
    let leader = net.run_until_leader();
    let cc = ConfChange {
        node: 4,
        addr: String::new(),
        kind: ConfChangeKind::PromoteVoter,
    };
    // Propose without delivering: the change is appended but unapplied.
    net.node_mut(leader).propose_conf_change(&cc).unwrap();
    let second = net.node_mut(leader).propose_conf_change(&ConfChange {
        node: 5,
        addr: String::new(),
        kind: ConfChangeKind::AddLearner,
    });
    assert!(matches!(second, Err(ProposeError::ConfChangeInFlight)));
}

#[test]
fn leader_drains_itself_with_handoff() {
    let mut net = Net::new();
    let old = net.run_until_leader();
    let target = (1..=3u64).find(|&v| v != old).unwrap();

    // 1. Leadership hand-off: the draining leader tells a caught-up voter
    // to campaign immediately.
    let out = net.node_mut(old).transfer_leadership(target);
    assert!(!out.is_empty(), "transfer produced no messages");
    for o in out {
        net.queue.push((old, o.to, o.msg));
    }
    net.drain();
    for _ in 0..50 {
        if net.node(target).is_leader() {
            break;
        }
        net.tick_all();
    }
    assert!(net.node(target).is_leader(), "transfer target did not win");
    assert!(!net.node(old).is_leader(), "old leader did not step down");

    // 2. Voter → learner: the new leader demotes the drained node, which
    // observes its own demotion (learners keep receiving the log).
    net.propose_conf(
        target,
        ConfChange {
            node: old,
            addr: String::new(),
            kind: ConfChangeKind::DemoteLearner,
        },
    );
    for _ in 0..30 {
        net.tick_all();
    }
    assert!(net.node(old).is_learner(), "drained voter was not demoted");
    assert_eq!(net.node(target).voters().len(), 2);
    assert!(net.node(target).learners().contains(&old));

    // 3. Learner → removed: the surviving members drop it from the
    // configuration entirely and stop replicating to it.
    net.propose_conf(
        target,
        ConfChange {
            node: old,
            addr: String::new(),
            kind: ConfChangeKind::RemoveNode,
        },
    );
    for _ in 0..30 {
        net.tick_all();
    }
    assert!(
        !net.node(target).learners().contains(&old),
        "removed node still a learner"
    );
    assert!(!net.node(target).voters().contains(&old));
    // The survivors (2 voters + learner 4) still commit proposals.
    let (_, out) = net.node_mut(target).propose_now(vec![3]).unwrap();
    for o in out {
        net.queue.push((target, o.to, o.msg));
    }
    net.drain();
    for _ in 0..30 {
        net.tick_all();
    }
    assert_eq!(net.node(4).state_machine().total, 3);
}
