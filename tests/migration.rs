//! Live-migration integration tests: state travels intact, in-flight
//! messages are buffered and forwarded, identities are stable, and the bee
//! keeps serving afterwards — including migrating back.

use beehive::core::collector_app;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Add {
    key: String,
    value: u64,
}
beehive::core::impl_message!(Add);

fn adder() -> App {
    App::builder("adder")
        .handle::<Add>(
            |m| Mapped::cell("sums", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("sums", &m.key)?.unwrap_or(0);
                ctx.put("sums", m.key.clone(), &(n + m.value))?;
                Ok(())
            },
        )
        .build()
}

fn cluster(n: usize) -> SimCluster {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: n,
            voters: n.min(3),
            ..Default::default()
        },
        |h| h.install(adder()),
    );
    c.elect_registry(120_000).expect("leader");
    c
}

fn bee_location(c: &SimCluster, key: &str) -> (BeeId, HiveId) {
    let cell = beehive::core::Cell::new("sums", key);
    for id in c.ids() {
        let mirror = c.hive(id).registry_view();
        if let Some(bee) = mirror.owner("adder", &cell) {
            return (bee, mirror.hive_of(bee).unwrap());
        }
    }
    panic!("no bee for key {key}");
}

fn sum_of(c: &SimCluster, key: &str) -> u64 {
    let (bee, hive) = bee_location(c, key);
    c.hive(hive)
        .peek_state::<u64>("adder", bee, "sums", key)
        .unwrap_or(0)
}

#[test]
fn migration_preserves_state_and_identity() {
    let mut c = cluster(3);
    c.hive_mut(HiveId(1)).emit(Add {
        key: "k".into(),
        value: 10,
    });
    c.advance(3_000, 50);
    let (bee, from) = bee_location(&c, "k");
    assert_eq!(from, HiveId(1));
    assert_eq!(sum_of(&c, "k"), 10);

    // Order the migration to hive 3.
    c.hive_mut(HiveId(1))
        .request_migration("adder", bee, from, HiveId(3));
    c.advance(3_000, 50);

    let (bee_after, now) = bee_location(&c, "k");
    assert_eq!(now, HiveId(3), "bee should be on hive 3");
    assert_eq!(bee_after, bee, "identity is stable across migration");
    assert_eq!(sum_of(&c, "k"), 10, "state travelled with the bee");
    assert!(c.hive(HiveId(3)).counters().migrations_in >= 1);

    // It still processes messages, routed from any hive.
    c.hive_mut(HiveId(2)).emit(Add {
        key: "k".into(),
        value: 5,
    });
    c.advance(3_000, 50);
    assert_eq!(sum_of(&c, "k"), 15);
}

/// Per-bee instrumentation metadata (colony size, pinned flag) is written
/// with every message a bee handles and leaves with the collection window,
/// so a hive keeps — and clones on every tick — nothing for a bee it no
/// longer hosts.
#[test]
fn a_migrated_bee_leaves_no_instrumentation_behind() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            hive: HiveConfig {
                tick_interval_ms: 0, // the test ticks the collector itself
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| {
            h.install(adder());
            let instr = h.instrumentation();
            h.install(collector_app(instr));
        },
    );
    c.elect_registry(120_000).expect("leader");
    c.hive_mut(HiveId(1)).emit(Add {
        key: "k".into(),
        value: 10,
    });
    c.advance(3_000, 50);
    let (bee, from) = bee_location(&c, "k");
    assert_eq!(from, HiveId(1));
    let instr = c.hive(HiveId(1)).instrumentation();
    assert_eq!(instr.lock().bee_cells.get(&bee.0), Some(&1));

    c.hive_mut(HiveId(1))
        .request_migration("adder", bee, from, HiveId(2));
    c.advance(3_000, 50);
    assert_eq!(bee_location(&c, "k").1, HiveId(2));
    c.hive_mut(HiveId(1)).emit(Tick { seq: 1, now_ms: 0 });
    c.advance(100, 50);

    let instr = instr.lock();
    assert!(!instr.bee_cells.contains_key(&bee.0));
    assert!(!instr.pinned.contains(&bee.0));
    // Only the collector's own bee, which has just handled the tick, is on
    // record for the window that is now open.
    assert_eq!((instr.bee_cells.len(), instr.pinned.len()), (1, 1));
}

#[test]
fn messages_sent_during_migration_are_not_lost() {
    let mut c = cluster(3);
    for i in 0..5 {
        c.hive_mut(HiveId(1)).emit(Add {
            key: "k".into(),
            value: i,
        });
    }
    c.advance(3_000, 50);
    let (bee, from) = bee_location(&c, "k");

    // Kick off the migration and immediately blast messages from every hive
    // WITHOUT letting the cluster settle first.
    c.hive_mut(HiveId(1))
        .request_migration("adder", bee, from, HiveId(2));
    for i in 0..10u64 {
        let src = HiveId((i % 3 + 1) as u32);
        c.hive_mut(src).emit(Add {
            key: "k".into(),
            value: 100,
        });
    }
    c.advance(6_000, 50);

    let expect = (0..5).sum::<u64>() + 10 * 100;
    assert_eq!(
        sum_of(&c, "k"),
        expect,
        "every message must be applied exactly once"
    );
    assert_eq!(bee_location(&c, "k").1, HiveId(2));
}

#[test]
fn migrate_back_and_forth() {
    let mut c = cluster(3);
    c.hive_mut(HiveId(1)).emit(Add {
        key: "pp".into(),
        value: 1,
    });
    c.advance(3_000, 50);
    let (bee, h1) = bee_location(&c, "pp");

    c.hive_mut(h1)
        .request_migration("adder", bee, h1, HiveId(2));
    c.advance(3_000, 50);
    assert_eq!(bee_location(&c, "pp").1, HiveId(2));

    c.hive_mut(HiveId(2))
        .request_migration("adder", bee, HiveId(2), h1);
    c.advance(3_000, 50);
    assert_eq!(bee_location(&c, "pp").1, h1, "bee returned home");

    c.hive_mut(HiveId(3)).emit(Add {
        key: "pp".into(),
        value: 9,
    });
    c.advance(3_000, 50);
    assert_eq!(sum_of(&c, "pp"), 10);
}

#[test]
fn migration_to_current_hive_is_a_noop() {
    let mut c = cluster(2);
    c.hive_mut(HiveId(1)).emit(Add {
        key: "x".into(),
        value: 3,
    });
    c.advance(3_000, 50);
    let (bee, hive) = bee_location(&c, "x");
    c.hive_mut(hive).request_migration("adder", bee, hive, hive);
    c.advance(2_000, 50);
    assert_eq!(bee_location(&c, "x"), (bee, hive));
    assert_eq!(sum_of(&c, "x"), 3);
}

/// Crash the source hive mid-migration: the state snapshot has been shipped
/// and staged at the destination, but the source dies before its
/// `MoveBee` proposal reaches the registry leader. The destination's
/// `recover_from` must adopt the staged bee — the registry converges to
/// exactly one owner and the cell (with its state) is not lost.
#[test]
fn source_crash_between_migrate_state_and_commit_loses_nothing() {
    use beehive::sim::{check_ownership, gather, CrashLedger};

    let mut c = cluster(3);
    let leader = c
        .ids()
        .into_iter()
        .find(|&id| c.hive(id).is_registry_leader())
        .expect("a registry leader");
    // Three distinct roles: the bee's source (not the leader), the
    // migration destination (the remaining hive), and the leader.
    let src = c.ids().into_iter().find(|&id| id != leader).unwrap();
    let dest = c
        .ids()
        .into_iter()
        .find(|&id| id != leader && id != src)
        .unwrap();

    // Create the bee on `src` (cells are assigned to the emitting hive).
    c.hive_mut(src).emit(Add {
        key: "mm".into(),
        value: 42,
    });
    c.advance(3_000, 50);
    let (bee, owner) = bee_location(&c, "mm");
    assert_eq!(owner, src);

    // Cut src off from the leader only: the direct src→dest MigrateState
    // ships, but src's MoveBee proposal can never commit.
    c.fabric.partition(src, leader);
    c.hive_mut(src).request_migration("adder", bee, src, dest);
    c.advance(1_000, 50);
    assert_eq!(
        c.hive(dest).registry_view().hive_of(bee),
        Some(src),
        "MoveBee must not have committed while src is cut from the leader"
    );

    // The source dies with the move un-committed; heal the survivors.
    let _ = c.crash(src);
    c.fabric.heal();
    c.advance(1_000, 50);

    // The destination holds the staged snapshot and proposes the adoption.
    let adopted = c.hive_mut(dest).recover_from(src);
    assert_eq!(adopted, 1, "the staged mid-migration bee is recoverable");
    c.advance(5_000, 50);

    // Exactly one owner, on the destination, with the shipped state intact.
    let audit = gather(&c, "adder", "Add", 0, 0, &CrashLedger::default());
    assert!(
        check_ownership(&audit).is_empty(),
        "ownership must be exclusive after recovery: {:?}",
        check_ownership(&audit)
    );
    for id in [leader, dest] {
        assert_eq!(
            c.hive(id).registry_view().hive_of(bee),
            Some(dest),
            "survivors agree the bee moved to the destination"
        );
    }
    let sum: u64 = c
        .hive(dest)
        .peek_state("adder", bee, "sums", "mm")
        .expect("state adopted from the staged snapshot");
    assert_eq!(sum, 42, "no state lost in the crash");

    // And the bee keeps serving.
    c.hive_mut(leader).emit(Add {
        key: "mm".into(),
        value: 8,
    });
    c.advance(3_000, 50);
    assert_eq!(
        c.hive(dest)
            .peek_state::<u64>("adder", bee, "sums", "mm")
            .unwrap(),
        50
    );
}

#[test]
fn concurrent_migrations_of_different_bees() {
    let mut c = cluster(3);
    for k in ["a", "b", "c", "d"] {
        c.hive_mut(HiveId(1)).emit(Add {
            key: k.into(),
            value: 7,
        });
    }
    c.advance(3_000, 50);
    let moves: Vec<(BeeId, HiveId, HiveId)> = ["a", "b", "c", "d"]
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let (bee, from) = bee_location(&c, k);
            (bee, from, HiveId((i % 2 + 2) as u32))
        })
        .collect();
    for &(bee, from, to) in &moves {
        c.hive_mut(from).request_migration("adder", bee, from, to);
    }
    c.advance(6_000, 50);
    for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
        let (_, hive) = bee_location(&c, k);
        assert_eq!(hive, HiveId((i % 2 + 2) as u32), "bee for {k} moved");
        assert_eq!(sum_of(&c, k), 7);
    }
}

/// A hive removed from the cluster while a peer still owes it a migration's
/// state. The shipment rides the reliable channel, so retiring the peer
/// finds it unacked. It is not a message: the retiring hive records an
/// event naming the bee, dead-letters nothing, counts no decode error, and
/// message conservation still holds.
#[test]
fn retiring_a_peer_that_owes_a_shipment_records_the_bee() {
    use beehive::core::{ControlMsg, EventKind, Frame, MembershipOp, Transport};
    use beehive::sim::{check_conservation, gather, CrashLedger};

    // Three voters and a learner, hive 4: the shipment's destination.
    let mut c = cluster(4);
    let gone = HiveId(4);
    let leader = c
        .ids()
        .into_iter()
        .find(|&id| c.hive(id).is_registry_leader())
        .expect("a registry leader");
    let src = c
        .ids()
        .into_iter()
        .find(|&id| id != leader && id != gone)
        .unwrap();
    c.hive_mut(src).emit(Add {
        key: "owed".into(),
        value: 5,
    });
    c.advance(3_000, 50);
    let (bee, owner) = bee_location(&c, "owed");
    assert_eq!(owner, src);

    // The state cannot reach hive 4; the move itself commits.
    c.fabric.partition(src, gone);
    c.hive_mut(src).request_migration("adder", bee, src, gone);
    c.advance(1_000, 50);
    assert_eq!(c.hive(src).registry_view().hive_of(bee), Some(gone));
    assert_eq!(c.hive(src).channel_stats().outbox_depth, 1);

    // Hive 4 asks the leader to remove it, as a drained hive would.
    let remove = ControlMsg::MembershipChange {
        node: gone,
        addr: String::new(),
        op: MembershipOp::RemoveRequest,
    };
    c.fabric
        .endpoint(gone)
        .send(leader, Frame::control(remove.encode().unwrap()));
    c.advance(2_000, 50);

    let mut ledger = CrashLedger::default();
    let reaped = c.reap_departed();
    assert!(
        reaped.iter().any(|h| h.id() == gone),
        "hive 4 left the cluster"
    );
    for dead in reaped {
        ledger.absorb(&dead, "Add");
    }
    let hive = c.hive(src);
    let c_src = hive.counters();
    assert_eq!(c_src.shipments_expired, 1);
    assert_eq!(c_src.dead_letters, 0, "a shipment is not dead-lettered");
    assert_eq!(c_src.decode_errors, 0);
    assert_eq!(hive.channel_stats().outbox_depth, 0);
    let events = hive.events().snapshot();
    assert!(
        events.iter().any(|e| e.kind == EventKind::PeerDeparted
            && e.bee == Some(bee)
            && e.peer == Some(gone)
            && e.detail.contains("state shipment")),
        "no departure event names the shipped bee: {events:?}"
    );

    let audit = gather(&c, "adder", "Add", 0, 1, &ledger);
    assert_eq!(audit.in_transit(), 0);
    assert!(
        check_conservation(&audit).is_empty(),
        "{:?}",
        check_conservation(&audit)
    );
}
