//! Registry writes at message speed, in virtual time on a 2-hive cluster
//! with 1 ms links: a fresh cluster elects its registry leader on the first
//! Raft tick, and a cell first claimed from the follower hive is routed and
//! handled a few link hops later, not on the leader's next heartbeat
//! (every `heartbeat_interval` = 3 ticks of `RAFT_TICK_MS`); one claimed
//! before there is a leader leaves as soon as one is known.

use beehive::core::hive::RAFT_TICK_MS;
use beehive::net::FabricFaults;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Claim {
    key: String,
}
impl_message!(Claim);

fn claimer() -> App {
    App::builder("claimer")
        .handle::<Claim>(
            |m| Mapped::cell("owned", &m.key),
            |m, ctx| ctx.put("owned", m.key.clone(), &1u8),
        )
        .build()
}

fn two_hives() -> SimCluster {
    let base = ClusterConfig::default();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            hive: HiveConfig {
                tick_interval_ms: 0,
                ..base.hive.clone()
            },
            ..base
        },
        |h| h.install(claimer()),
    );
    c.set_faults(FabricFaults {
        latency_ms: 1,
        ..Default::default()
    });
    c
}

/// Advances virtual time 1 ms at a time until `done` holds; returns the
/// milliseconds it took, or fails past `limit_ms`.
fn ms_until(c: &mut SimCluster, limit_ms: u64, done: impl Fn(&SimCluster) -> bool) -> u64 {
    let mut ms = 0;
    while !done(c) {
        assert!(ms < limit_ms, "not done after {limit_ms} virtual ms");
        c.advance(1, 1);
        ms += 1;
    }
    ms
}

fn leader(c: &SimCluster) -> Option<HiveId> {
    c.hives().find(|h| h.is_registry_leader()).map(|h| h.id())
}

#[test]
fn a_fresh_cluster_elects_its_registry_leader_within_two_raft_ticks() {
    let mut c = two_hives();
    let ms = ms_until(&mut c, 2 * RAFT_TICK_MS, |c| leader(c).is_some());
    // The first step, 1 ms in, starts the Raft clock. Its first tick, one
    // `RAFT_TICK_MS` later, pre-votes; pre-vote and vote are two round
    // trips of 1 ms hops.
    assert_eq!(ms, 1 + RAFT_TICK_MS + 4);
    assert_eq!(leader(&c), Some(HiveId(1)));
}

#[test]
fn a_cell_claimed_from_the_follower_is_handled_within_a_few_hops() {
    let mut c = two_hives();
    ms_until(&mut c, 60_000, |c| leader(c).is_some());
    // Let the new leader's no-op commit everywhere first.
    c.advance(RAFT_TICK_MS, 1);
    let follower = c
        .ids()
        .into_iter()
        .find(|&h| Some(h) != leader(&c))
        .unwrap();

    c.hive_mut(follower).emit(Claim { key: "k".into() });
    let ms = ms_until(&mut c, 10 * RAFT_TICK_MS, |c| {
        c.hive(follower).counters().handled_ok == 1
    });
    // The first step, 1 ms in, forwards the claim to the leader; then the
    // AppendEntries back, its ack and the commit notice: four 1 ms hops in
    // all. The leader's next heartbeat is not awaited.
    assert_eq!(ms, 5);
}

#[test]
fn a_cell_claimed_before_any_leader_is_handled_once_one_is_known() {
    let mut c = two_hives();
    // Hive 2 takes the claim before the group has a leader, so it can
    // neither propose nor forward it; its retry timer is far off.
    assert_eq!(leader(&c), None);
    let retry_ms = ClusterConfig::default().hive.pending_retry_ms;
    c.hive_mut(HiveId(2)).emit(Claim { key: "k".into() });
    let ms = ms_until(&mut c, retry_ms, |c| {
        c.hive(HiveId(2)).counters().handled_ok == 1
    });
    // The election takes `1 + RAFT_TICK_MS + 4` ms (see above). Then five
    // 1 ms hops: the leader's first AppendEntries tells hive 2 who leads,
    // and the step that learns it forwards the claim without waiting for
    // the retry timer; then AppendEntries, its ack and the commit notice.
    assert_eq!(ms, 1 + RAFT_TICK_MS + 4 + 5);
}
