//! Colony replication + failover: committed transactions flow to shadow
//! hives; when a hive dies, a replica promotes its shadows and the bees keep
//! serving with their state intact.

use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Append {
    key: String,
    item: u64,
}
beehive::core::impl_message!(Append);

fn log_app() -> App {
    App::builder("log")
        .handle::<Append>(
            |m| Mapped::cell("logs", &m.key),
            |m, ctx| {
                let mut items: Vec<u64> = ctx.get("logs", &m.key)?.unwrap_or_default();
                items.push(m.item);
                ctx.put("logs", m.key.clone(), &items)?;
                Ok(())
            },
        )
        .build()
}

fn replicated_cluster(n: usize, factor: usize) -> SimCluster {
    SimCluster::new(
        ClusterConfig {
            hives: n,
            voters: n.min(3),
            hive: HiveConfig {
                replication_factor: factor,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(log_app()),
    )
}

fn owner_of(c: &SimCluster, key: &str) -> (BeeId, HiveId) {
    let cell = Cell::new("logs", key);
    for id in c.ids() {
        let mirror = c.hive(id).registry_view();
        if let Some(bee) = mirror.owner("log", &cell) {
            if let Some(h) = mirror.hive_of(bee) {
                return (bee, h);
            }
        }
    }
    panic!("no owner for {key}");
}

#[test]
fn transactions_replicate_to_shadow_hives() {
    let mut c = replicated_cluster(3, 2);
    c.elect_registry(120_000).unwrap();
    for i in 0..5 {
        c.hive_mut(HiveId(1)).emit(Append {
            key: "k".into(),
            item: i,
        });
    }
    c.advance(5_000, 50);

    let (_bee, owner) = owner_of(&c, "k");
    assert_eq!(owner, HiveId(1));
    // With factor 2, hive 2 (next in the ring after 1) holds the shadow.
    assert_eq!(
        c.hive(HiveId(2)).shadow_count(),
        1,
        "hive 2 shadows the bee"
    );
    assert!(c.hive(HiveId(1)).counters().replicated_txs >= 5);
}

#[test]
fn failover_promotes_shadow_with_full_state() {
    let mut c = replicated_cluster(4, 2);
    c.elect_registry(120_000).unwrap();
    // Bee lives on hive 4 (message origin); its replica ring successor is
    // hive 1.
    for i in 0..7 {
        c.hive_mut(HiveId(4)).emit(Append {
            key: "k".into(),
            item: i * 10,
        });
    }
    c.advance(5_000, 50);
    let (bee, owner) = owner_of(&c, "k");
    assert_eq!(owner, HiveId(4));
    assert_eq!(c.hive(HiveId(1)).shadow_count(), 1);

    // Hive 4 "dies": cut it off from everyone (it is a learner, not a
    // registry voter, so the quorum survives).
    for id in c.ids() {
        if id != HiveId(4) {
            c.fabric.partition(HiveId(4), id);
        }
    }
    c.advance(2_000, 50);

    // The deployment's failure detector fires: hive 1 recovers.
    let recovered = c.hive_mut(HiveId(1)).recover_from(HiveId(4));
    assert_eq!(recovered, 1);
    c.advance(5_000, 50);

    let mirror = c.hive(HiveId(1)).registry_view();
    assert_eq!(
        mirror.hive_of(bee),
        Some(HiveId(1)),
        "registry moved the bee"
    );
    assert_eq!(c.hive(HiveId(1)).counters().failovers, 1);
    let items: Vec<u64> = c
        .hive(HiveId(1))
        .peek_state("log", bee, "logs", "k")
        .expect("state recovered");
    assert_eq!(
        items,
        vec![0, 10, 20, 30, 40, 50, 60],
        "no committed writes lost"
    );

    // The promoted bee keeps serving — from any hive.
    c.hive_mut(HiveId(2)).emit(Append {
        key: "k".into(),
        item: 999,
    });
    c.advance(5_000, 50);
    let items: Vec<u64> = c
        .hive(HiveId(1))
        .peek_state("log", bee, "logs", "k")
        .unwrap();
    assert_eq!(items.last(), Some(&999));
}

#[test]
fn migration_keeps_replication_going() {
    let mut c = replicated_cluster(3, 2);
    c.elect_registry(120_000).unwrap();
    c.hive_mut(HiveId(1)).emit(Append {
        key: "m".into(),
        item: 1,
    });
    c.advance(3_000, 50);
    let (bee, _) = owner_of(&c, "m");

    // Move the bee to hive 3; its replica ring successor becomes hive 1.
    c.hive_mut(HiveId(1))
        .request_migration("log", bee, HiveId(1), HiveId(3));
    c.advance(3_000, 50);
    assert_eq!(owner_of(&c, "m").1, HiveId(3));

    // New writes replicate from the new owner; the gap triggers a resync on
    // the new shadow hive, after which it is consistent.
    for i in 2..=4 {
        c.hive_mut(HiveId(2)).emit(Append {
            key: "m".into(),
            item: i,
        });
        c.advance(2_000, 50);
    }
    c.advance(3_000, 50);
    assert!(
        c.hive(HiveId(1)).shadow_count() >= 1,
        "hive 1 now shadows the moved bee"
    );
    // Kill hive 3; recover on hive 1; all four items must be there.
    for id in c.ids() {
        if id != HiveId(3) {
            c.fabric.partition(HiveId(3), id);
        }
    }
    c.advance(1_000, 50);
    c.hive_mut(HiveId(1)).recover_from(HiveId(3));
    c.advance(5_000, 50);
    let items: Vec<u64> = c
        .hive(HiveId(1))
        .peek_state("log", bee, "logs", "m")
        .unwrap();
    assert_eq!(items, vec![1, 2, 3, 4]);
}

/// Replication stays on the lossy control path because a lost
/// `ReplicateTx` repairs itself: the next transaction arrives with a gap,
/// the replica marks its shadow dirty and asks the owner for its whole
/// state (`ReplicaSyncRequest` → `ReplicaSyncState`). Here one
/// `ReplicateTx` is dropped on a cut link, and the promoted shadow still
/// holds every committed write.
#[test]
fn a_dropped_replicate_tx_is_repaired_by_a_resync() {
    use beehive::core::EventKind;

    let mut c = replicated_cluster(4, 2);
    c.elect_registry(120_000).unwrap();
    // Hive 4 (a learner) owns the bee; hive 1, next in the ring, shadows it.
    let (owner, replica) = (HiveId(4), HiveId(1));
    let append = |item| Append {
        key: "g".into(),
        item,
    };
    c.hive_mut(owner).emit(append(1));
    c.advance(3_000, 50);
    let (bee, at) = owner_of(&c, "g");
    assert_eq!(at, owner);
    assert_eq!(c.hive(replica).shadow_count(), 1);

    // The second transaction's ReplicateTx is lost.
    c.fabric.partition(owner, replica);
    let dropped = c.fabric.fault_stats().dropped_control;
    c.hive_mut(owner).emit(append(2));
    c.advance(200, 50);
    assert!(c.fabric.fault_stats().dropped_control > dropped);
    c.fabric.heal();

    // The third arrives with a gap, and the replica resyncs.
    c.hive_mut(owner).emit(append(3));
    c.advance(3_000, 50);
    let gaps = c
        .hive(replica)
        .events()
        .snapshot()
        .iter()
        .filter(|e| e.kind == EventKind::ReplicaGap && e.bee == Some(bee))
        .count();
    assert_eq!(gaps, 1, "the lost ReplicateTx shows as one gap");

    // Promote the shadow: it converged on the owner's state.
    for id in c.ids() {
        if id != owner {
            c.fabric.partition(owner, id);
        }
    }
    c.advance(2_000, 50);
    assert_eq!(c.hive_mut(replica).recover_from(owner), 1);
    c.advance(5_000, 50);
    let items: Vec<u64> = c
        .hive(replica)
        .peek_state("log", bee, "logs", "g")
        .expect("shadow promoted");
    assert_eq!(items, vec![1, 2, 3], "the resync carried the lost write");
}
