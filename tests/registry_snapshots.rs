//! A hive that catches up with the registry by `InstallSnapshot` never sees
//! the entries the snapshot covers. Each test here makes the hive concerned
//! miss the entry that changes its bees, so that it learns of the change
//! only from a snapshot, and checks that it still does what the registry
//! mirror implies (DESIGN.md §3.6).
//!
//! With `registry_storage_dir` set the simulator's leader compacts behind
//! every commit, so a hive cut off from the leader while an entry commits
//! is served a snapshot once the partition heals.

use std::path::PathBuf;

use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

/// Adds one to a counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Inc {
    key: String,
}
beehive::core::impl_message!(Inc);

/// Adds one to each of two counters: its cells collocate them.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pair {
    a: String,
    b: String,
}
beehive::core::impl_message!(Pair);

/// Deletes a counter and retires its bee.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Forget {
    key: String,
}
beehive::core::impl_message!(Forget);

fn bump(ctx: &mut RcvCtx, key: &str) -> Result<(), String> {
    let n: u64 = ctx.get("c", key).map_err(|e| e.to_string())?.unwrap_or(0);
    ctx.put("c", key.to_string(), &(n + 1))
        .map_err(|e| e.to_string())
}

fn counters() -> App {
    App::builder("counter")
        .handle::<Inc>(|m| Mapped::cell("c", &m.key), |m, ctx| bump(ctx, &m.key))
        .handle::<Pair>(
            |m| Mapped::cells([Cell::new("c", &m.a), Cell::new("c", &m.b)]),
            |m, ctx| {
                bump(ctx, &m.a)?;
                bump(ctx, &m.b)
            },
        )
        .handle::<Forget>(
            |m| Mapped::cell("c", &m.key),
            |m, ctx| {
                ctx.del("c", &m.key);
                ctx.retire();
                Ok(())
            },
        )
        .build()
}

/// A cluster of `hives` whose first three vote, with colony replication
/// `factor`, compacting its registry behind every commit. Returns it with
/// its registry leader and the storage directory to remove.
fn compacting(name: &str, hives: usize, factor: usize) -> (SimCluster, HiveId, PathBuf) {
    let dir = std::env::temp_dir().join(format!("beehive-{name}-{}", std::process::id()));
    let base = ClusterConfig::default();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives,
            voters: 3,
            hive: HiveConfig {
                tick_interval_ms: 0,
                replication_factor: factor,
                registry_storage_dir: Some(dir.clone()),
                ..base.hive.clone()
            },
            ..base
        },
        |h| h.install(counters()),
    );
    let leader = c.elect_registry(60_000).unwrap();
    (c, leader, dir)
}

/// Runs `act`, then cuts `slow` off from `leader` for a few Raft ticks,
/// fewer than an election timeout, while what `act` proposed commits
/// without it; heals and lets `slow` catch up, which it does by snapshot.
/// `slow` steps once before the cut, so its own proposals reach the leader.
fn miss_commit(
    c: &mut SimCluster,
    leader: HiveId,
    slow: HiveId,
    act: impl FnOnce(&mut SimCluster),
) {
    let installs = c.hive(slow).registry_snapshot_installs();
    act(c);
    c.hive_mut(slow).step();
    c.fabric.partition(leader, slow);
    c.advance(200, 50);
    c.fabric.heal();
    c.advance(3_000, 50);
    assert!(
        c.hive(slow).registry_snapshot_installs() > installs,
        "hive-{} caught up without a snapshot",
        slow.0
    );
}

fn count(c: &SimCluster, key: &str) -> Option<u64> {
    let cell = Cell::new("c", key);
    let view = c.hives().next().unwrap().registry_view();
    let bee = view.owner("counter", &cell)?;
    let hive = view.hive_of(bee)?;
    c.hive(hive).peek_state("counter", bee, "c", key)
}

fn assert_drained(c: &SimCluster) {
    for h in c.hives() {
        for ty in ["Inc", "Pair"] {
            let q = h.queued_messages(ty);
            assert_eq!(q.total(), 0, "hive-{} still holds {ty}: {q}", h.id().0);
        }
    }
}

fn followers(c: &SimCluster, leader: HiveId) -> Vec<HiveId> {
    c.ids().into_iter().filter(|&h| h != leader).collect()
}

/// The loser's hive learns of the merge only from a snapshot: it still
/// ships the loser's state to the winner, which has been waiting for it
/// since it applied the merge, and forwards the loser's mail.
#[test]
fn a_loser_learning_its_merge_from_a_snapshot_ships_to_the_winner() {
    let (mut c, leader, dir) = compacting("snap-loser", 3, 1);
    let slow = followers(&c, leader)[0];
    // The winner's colony (two cells) on the leader, the loser's on `slow`.
    c.hive_mut(leader).emit(Pair {
        a: "w1".into(),
        b: "w2".into(),
    });
    c.hive_mut(slow).emit(Inc { key: "l".into() });
    c.advance(2_000, 50);
    miss_commit(&mut c, leader, slow, |c| {
        c.hive_mut(leader).emit(Pair {
            a: "w1".into(),
            b: "l".into(),
        });
    });
    assert_eq!(
        c.hive(slow).local_bee_count("counter"),
        0,
        "the loser stayed"
    );
    assert_drained(&c);
    assert_eq!(count(&c, "l"), Some(2), "the loser's state was merged");
    assert_eq!(count(&c, "w1"), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}

/// The winner's hive learns of the merge only from a snapshot: it absorbs
/// the loser's state, whether that arrived before the snapshot or after,
/// and runs the bridging message against the merged state.
#[test]
fn a_winner_learning_its_merge_from_a_snapshot_absorbs_the_loser() {
    let (mut c, leader, dir) = compacting("snap-winner", 3, 1);
    let slow = followers(&c, leader)[0];
    // The winner's colony (two cells) on `slow`, the loser's on the leader.
    c.hive_mut(slow).emit(Pair {
        a: "w1".into(),
        b: "w2".into(),
    });
    c.hive_mut(leader).emit(Inc { key: "l".into() });
    c.advance(2_000, 50);
    miss_commit(&mut c, leader, slow, |c| {
        c.hive_mut(leader).emit(Pair {
            a: "w1".into(),
            b: "l".into(),
        });
    });
    assert_eq!(c.hive(leader).local_bee_count("counter"), 0);
    assert_drained(&c);
    assert_eq!(count(&c, "l"), Some(2), "the loser's state was merged");
    assert_eq!(count(&c, "w1"), Some(2));
    let _ = std::fs::remove_dir_all(dir);
}

/// The owner's hive learns that its retired bee was removed only from a
/// snapshot: the bee goes, and the key starts a new bee.
#[test]
fn a_removal_seen_only_in_a_snapshot_drops_the_bee() {
    let (mut c, leader, dir) = compacting("snap-remove", 3, 1);
    let slow = followers(&c, leader)[0];
    c.hive_mut(slow).emit(Inc { key: "k".into() });
    c.advance(2_000, 50);
    assert_eq!(c.hive(slow).local_bee_count("counter"), 1);
    miss_commit(&mut c, leader, slow, |c| {
        c.hive_mut(slow).emit(Forget { key: "k".into() });
    });
    let view = c.hive(slow).registry_view();
    assert_eq!(view.owner("counter", &Cell::new("c", "k")), None);
    assert_eq!(
        c.hive(slow).local_bee_count("counter"),
        0,
        "a bee the mirror no longer has stayed"
    );
    c.hive_mut(slow).emit(Inc { key: "k".into() });
    c.advance(2_000, 50);
    assert_drained(&c);
    assert_eq!(count(&c, "k"), Some(1), "a new bee starts from nothing");
    let _ = std::fs::remove_dir_all(dir);
}

/// The replica learns that its failover `MoveBee` committed only from a
/// snapshot: it still promotes its shadow, so the bee keeps its state.
#[test]
fn a_failover_seen_only_in_a_snapshot_promotes_the_shadow() {
    // Hives 4 and 5 are registry learners: losing hive 4 and cutting hive
    // 5 off from the leader leaves the three voters their quorum. With
    // replication factor 2, hive 5 shadows hive 4's bees.
    let (mut c, leader, dir) = compacting("snap-failover", 5, 2);
    let (dead, replica) = (HiveId(4), HiveId(5));
    for _ in 0..3 {
        c.hive_mut(dead).emit(Inc { key: "k".into() });
    }
    c.advance(2_000, 50);
    assert_eq!(c.hive(replica).shadow_count(), 1);
    for id in c.ids() {
        if id != dead {
            c.fabric.partition(dead, id);
        }
    }
    c.advance(1_000, 50);
    // `heal` would reconnect the dead hive too: it stays cut off by being
    // crashed instead.
    let _ = c.crash(dead);
    miss_commit(&mut c, leader, replica, |c| {
        assert_eq!(c.hive_mut(replica).recover_from(dead), 1);
    });
    let bee = c
        .hive(replica)
        .registry_view()
        .owner("counter", &Cell::new("c", "k"))
        .unwrap();
    assert_eq!(c.hive(replica).registry_view().hive_of(bee), Some(replica));
    assert_eq!(c.hive(replica).counters().failovers, 1);
    c.hive_mut(replica).emit(Inc { key: "k".into() });
    c.advance(2_000, 50);
    assert_drained(&c);
    assert_eq!(count(&c, "k"), Some(4), "the bee restarted empty");
    let _ = std::fs::remove_dir_all(dir);
}
