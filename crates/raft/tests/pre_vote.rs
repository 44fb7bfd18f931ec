//! Pre-vote tests: a rejoining partitioned node must not inflate terms and
//! depose a healthy leader; elections still complete when they should.

use beehive_raft::harness::Cluster;
use beehive_raft::{Config, KvCounter};

#[test]
fn partitioned_node_does_not_depose_leader_on_rejoin() {
    let mut c = Cluster::new(3, Config::default(), 21, KvCounter::default);
    let leader = c.run_until_leader(2_000).unwrap();
    let victim = c.nodes().map(|n| n.id()).find(|&id| id != leader).unwrap();
    c.propose(leader, vec![1]).unwrap();
    c.run_ticks(50);
    let stable_term = c.node(leader).unwrap().term();

    // Isolate the victim long enough for MANY election timeouts: with
    // pre-vote its term must not advance (its probes go unanswered).
    c.isolate(victim);
    c.run_ticks(500);
    assert_eq!(
        c.node(victim).unwrap().term(),
        stable_term,
        "pre-vote must prevent term inflation while partitioned"
    );

    // Rejoin: the healthy leader must remain leader at the same term.
    c.heal();
    c.run_ticks(200);
    assert_eq!(
        c.node(leader).unwrap().term(),
        stable_term,
        "leader not deposed"
    );
    assert!(c.node(leader).unwrap().is_leader());
    c.assert_at_most_one_leader_per_term();
}

#[test]
fn without_pre_vote_terms_inflate() {
    // Control experiment: the classic disruption pre-vote exists to prevent.
    let cfg = Config {
        pre_vote: false,
        ..Config::default()
    };
    let mut c = Cluster::new(3, cfg, 21, KvCounter::default);
    let leader = c.run_until_leader(2_000).unwrap();
    let victim = c.nodes().map(|n| n.id()).find(|&id| id != leader).unwrap();
    let stable_term = c.node(leader).unwrap().term();

    c.isolate(victim);
    c.run_ticks(500);
    assert!(
        c.node(victim).unwrap().term() > stable_term + 5,
        "without pre-vote the partitioned node churns terms"
    );
}

#[test]
fn elections_still_work_with_pre_vote() {
    let mut c = Cluster::new(5, Config::default(), 22, KvCounter::default);
    let leader = c.run_until_leader(2_000).unwrap();
    for i in 0..5u8 {
        c.propose(leader, vec![i]).unwrap();
    }
    c.run_ticks(100);
    // Kill the leader: a new one must emerge through pre-vote + election.
    c.crash(leader);
    let new_leader = c
        .run_until_leader(3_000)
        .expect("re-election with pre-vote");
    assert_ne!(new_leader, leader);
    c.propose(new_leader, vec![9]).unwrap();
    assert!(c.run_until(500, |c| c.nodes().all(|n| n.state_machine().applied == 6)));
    c.assert_committed_logs_agree();
}

#[test]
fn stale_log_cannot_win_pre_vote() {
    let mut c = Cluster::new(3, Config::default(), 23, KvCounter::default);
    let leader = c.run_until_leader(2_000).unwrap();
    let victim = c.nodes().map(|n| n.id()).find(|&id| id != leader).unwrap();
    c.isolate(victim);
    // Commit entries the victim misses.
    for i in 0..4u8 {
        c.propose(leader, vec![i]).unwrap();
        c.run_ticks(20);
    }
    c.heal();
    c.run_ticks(300);
    // The victim caught up instead of winning an election with a stale log.
    assert!(c.node(victim).unwrap().state_machine().applied >= 4);
    c.assert_committed_logs_agree();
    c.assert_at_most_one_leader_per_term();
}

#[test]
fn follower_cut_from_leader_alone_cannot_depose_it() {
    // Only the leader–follower link is down: the follower times out, but
    // the third voter still hears the leader, so it denies the pre-vote
    // (leader stickiness) and the leader keeps its term.
    let mut c = Cluster::new(3, Config::default(), 24, KvCounter::default);
    let leader = c.run_until_leader(2_000).unwrap();
    let follower = c.nodes().map(|n| n.id()).find(|&id| id != leader).unwrap();
    c.propose(leader, vec![1]).unwrap();
    c.run_ticks(50);
    let stable_term = c.node(leader).unwrap().term();

    c.partition(leader, follower);
    c.run_ticks(500);
    assert!(c.node(leader).unwrap().is_leader(), "leader deposed");
    assert_eq!(
        c.node(leader).unwrap().term(),
        stable_term,
        "leader's term moved"
    );
    c.assert_at_most_one_leader_per_term();
}
