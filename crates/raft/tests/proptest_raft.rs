//! Property tests for Raft safety under randomized schedules.
//!
//! Each case builds a cluster with a random size/seed, injects a random fault
//! script (drops, partitions, crashes, restarts) interleaved with proposals,
//! and asserts the two core safety properties afterwards:
//!
//! 1. **Election safety** — at most one leader per term;
//! 2. **State machine safety** — committed prefixes agree on all nodes.

use beehive_raft::harness::Cluster;
use beehive_raft::prop::{for_all, Gen};
use beehive_raft::{Config, KvCounter};

#[derive(Debug, Clone)]
enum Op {
    Ticks(u16),
    Propose(u8),
    Drop(u8), // set drop rate to n/200 (max 50%)
    Partition(u8, u8),
    Heal,
    Crash(u8),
    Restart(u8),
}

/// Ticks and proposals four times as often as each fault.
fn arb_op(g: &mut Gen, n: u8) -> Op {
    match g.range(0..13u8) {
        0..=3 => Op::Ticks(g.range(1..120)),
        4..=7 => Op::Propose(g.range(..)),
        8 => Op::Drop(g.range(0..80)),
        9 => Op::Partition(g.range(1..=n), g.range(1..=n)),
        10 => Op::Heal,
        11 => Op::Crash(g.range(1..=n)),
        _ => Op::Restart(g.range(1..=n)),
    }
}

fn run_script(n: usize, seed: u64, pre_vote: bool, ops: Vec<Op>) -> Cluster<KvCounter> {
    let cfg = Config {
        pre_vote,
        ..Config::default()
    };
    let mut c = Cluster::new(n, cfg, seed, KvCounter::default);
    let mut crashed: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Ticks(t) => c.run_ticks(t as u64),
            Op::Propose(v) => {
                if let Some(l) = c.leader() {
                    let _ = c.propose(l, vec![v]);
                }
            }
            Op::Drop(r) => c.faults.drop_rate = r as f64 / 200.0,
            Op::Partition(a, b) => {
                if a != b {
                    c.partition(a as u64, b as u64);
                }
            }
            Op::Heal => c.heal(),
            Op::Crash(id) => {
                let id = id as u64;
                // Keep a majority alive so liveness checks stay meaningful.
                if !crashed.contains(&id) && crashed.len() + 1 < n.div_ceil(2) {
                    c.crash(id);
                    crashed.push(id);
                }
            }
            Op::Restart(id) => {
                let id = id as u64;
                if let Some(pos) = crashed.iter().position(|&x| x == id) {
                    crashed.remove(pos);
                    c.restart(id);
                }
            }
        }
        // Safety must hold at every step, not just at the end.
        c.assert_at_most_one_leader_per_term();
    }
    // Recover: restart everyone, heal, stop drops, and give time to converge.
    for id in crashed {
        c.restart(id);
    }
    c.heal();
    c.faults.drop_rate = 0.0;
    c
}

#[test]
fn safety_holds_under_random_fault_scripts() {
    for_all(
        24,
        |g| {
            (
                g.range(3usize..=5),
                g.range::<u64>(..),
                g.bool(),
                g.vec(1..40, |g| arb_op(g, 5)),
            )
        },
        |(n, seed, pre_vote, ops)| {
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|op| match op {
                    // Clamp node ids to the actual cluster size.
                    Op::Partition(a, b) => Op::Partition(a.min(n as u8), b.min(n as u8)),
                    Op::Crash(id) => Op::Crash(id.min(n as u8)),
                    Op::Restart(id) => Op::Restart(id.min(n as u8)),
                    other => other,
                })
                .collect();
            let mut c = run_script(n, seed, pre_vote, ops);
            c.run_ticks(3000);
            c.assert_committed_logs_agree();
            c.assert_at_most_one_leader_per_term();

            // After recovery the cluster must be able to make progress.
            let leader = c.run_until_leader(5000).expect("liveness after heal");
            let before = c.node(leader).unwrap().state_machine().applied;
            c.propose(leader, vec![1]).unwrap();
            assert!(
                c.run_until(2000, |c| {
                    c.nodes().all(|nd| nd.state_machine().applied > before)
                }),
                "cluster failed to commit after recovery"
            );

            // And all applied state machines agree.
            let totals: Vec<u64> = c.nodes().map(|nd| nd.state_machine().total).collect();
            assert!(
                totals.windows(2).all(|w| w[0] == w[1]),
                "divergent totals {:?}",
                totals
            );
        },
    );
}

#[test]
fn logs_agree_under_pure_drop_noise() {
    for_all(
        24,
        |g| {
            (
                g.range::<u64>(..),
                g.range(0u8..45),
                g.vec(1..12, |g| g.range::<u8>(..)),
            )
        },
        |(seed, drop_pct, proposals)| {
            let mut c = Cluster::new(3, Config::default(), seed, KvCounter::default);
            c.faults.drop_rate = drop_pct as f64 / 100.0;
            for v in &proposals {
                if let Some(l) = c.leader() {
                    let _ = c.propose(l, vec![*v]);
                }
                c.run_ticks(40);
            }
            c.faults.drop_rate = 0.0;
            c.run_ticks(2000);
            c.assert_committed_logs_agree();
            let applied: Vec<u64> = c.nodes().map(|n| n.state_machine().applied).collect();
            assert!(
                applied.windows(2).all(|w| w[0] == w[1]),
                "applied counts diverge {:?}",
                applied
            );
        },
    );
}
