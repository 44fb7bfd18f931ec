//! Failure injection on the fabric and in handlers: message drops,
//! partitions, registry leader loss, handler panics and injected handler
//! errors. The platform's retry layers (Raft, pending-route resubmission,
//! orphan retries, supervised redelivery) must mask all of it; what can't be
//! masked must land in the dead-letter queue, not crash the hive.

use std::sync::Arc;

use beehive::core::sync::Mutex;
use beehive::core::{
    collector_app, exporter_app, Analytics, EventKind, HiveMetrics, PlatformCounters,
};
use beehive::net::FabricFaults;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Inc {
    key: String,
}
beehive::core::impl_message!(Inc);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Poison {
    key: String,
}
beehive::core::impl_message!(Poison);

/// An app whose handler panics on every delivery.
fn poison_app() -> App {
    App::builder("poison")
        .handle::<Poison>(
            |m| Mapped::cell("p", &m.key),
            |_m, _ctx| -> HandlerResult { panic!("poison pill") },
        )
        .build()
}

fn counter() -> App {
    App::builder("counter")
        .handle::<Inc>(
            |m| Mapped::cell("c", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                ctx.put("c", m.key.clone(), &(n + 1))?;
                Ok(())
            },
        )
        .build()
}

fn count_of(c: &SimCluster, key: &str) -> Option<u64> {
    let cell = Cell::new("c", key);
    for id in c.ids() {
        let mirror = c.hive(id).registry_view();
        if let Some(bee) = mirror.owner("counter", &cell) {
            let hive = mirror.hive_of(bee)?;
            return c.hive(hive).peek_state::<u64>("counter", bee, "c", key);
        }
    }
    None
}

#[test]
fn routing_survives_partition_and_heal() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            hive: HiveConfig {
                pending_retry_ms: 500,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    c.elect_registry(120_000).unwrap();
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(3_000, 50);
    assert_eq!(count_of(&c, "k"), Some(1));

    // Partition hive 3 from hive 1 (where the bee lives). Messages from
    // hive 3 can't be relayed while the link is down.
    c.fabric.partition(HiveId(1), HiveId(3));
    c.hive_mut(HiveId(3)).emit(Inc { key: "k".into() });
    c.advance(2_000, 50);
    // Heal: the parked/lost relay must eventually be retried... Relays are
    // fire-and-forget, so this tests that *new* messages still work and the
    // platform did not wedge.
    c.fabric.heal();
    c.hive_mut(HiveId(3)).emit(Inc { key: "k".into() });
    c.advance(5_000, 50);
    let v = count_of(&c, "k").unwrap();
    assert!(v >= 2, "post-heal traffic must flow (got {v})");
}

#[test]
fn new_keys_route_even_with_heavy_drops() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            hive: HiveConfig {
                pending_retry_ms: 300,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    c.elect_registry(120_000).unwrap();
    // 20% of frames dropped: Raft retries, proposal retries and orphan
    // retries must still converge.
    c.fabric.set_faults(FabricFaults {
        drop_rate: 0.2,
        ..Default::default()
    });
    for i in 0..5 {
        c.hive_mut(HiveId((i % 3 + 1) as u32)).emit(Inc {
            key: format!("key{i}"),
        });
    }
    c.advance(30_000, 50);
    c.fabric.set_faults(FabricFaults::default());
    c.advance(10_000, 50);
    for i in 0..5 {
        assert_eq!(
            count_of(&c, &format!("key{i}")),
            Some(1),
            "key{i} must eventually route despite drops"
        );
    }
}

#[test]
fn registry_leader_partition_recovers() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            hive: HiveConfig {
                pending_retry_ms: 500,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    let leader = c.elect_registry(120_000).unwrap();
    // Cut the leader off from both followers: a new leader must emerge and
    // new keys must still become routable.
    for id in c.ids() {
        if id != leader {
            c.fabric.partition(leader, id);
        }
    }
    c.advance(10_000, 50);
    let new_leader = c
        .ids()
        .into_iter()
        .filter(|&id| id != leader)
        .find(|&id| c.hive(id).is_registry_leader());
    assert!(
        new_leader.is_some(),
        "a new registry leader must be elected"
    );

    let src = new_leader.unwrap();
    c.hive_mut(src).emit(Inc {
        key: "fresh".into(),
    });
    c.advance(10_000, 50);
    assert_eq!(
        count_of(&c, "fresh"),
        Some(1),
        "routing works under the new leader"
    );

    // Heal; the old leader rejoins as follower and sees the state.
    c.fabric.heal();
    c.advance(10_000, 50);
    let mirror = c.hive(leader).registry_view();
    assert!(
        mirror.owner("counter", &Cell::new("c", "fresh")).is_some(),
        "healed ex-leader catches up on the registry log"
    );
}

#[test]
fn latency_does_not_break_ordering() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    c.elect_registry(120_000).unwrap();
    c.fabric.set_faults(FabricFaults {
        latency_ms: 120,
        ..Default::default()
    });
    for _ in 0..10 {
        c.hive_mut(HiveId(2)).emit(Inc { key: "slow".into() });
        c.advance(500, 50);
    }
    c.advance(10_000, 50);
    assert_eq!(
        count_of(&c, "slow"),
        Some(10),
        "every delayed message applied exactly once"
    );
}

/// One app panics on every delivery while a second app keeps processing on
/// the same hive: the hive never dies, the healthy app is unaffected, every
/// poison message lands in the DLQ after exactly `max_redeliveries + 1`
/// attempts, and the exposed metrics report matching counts. Quarantine is
/// disabled so each message exhausts its full redelivery budget.
fn contained_panic_scenario() {
    let analytics = Arc::new(std::sync::Mutex::new(Analytics::new()));
    let sink = analytics.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                quarantine_threshold: 0,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        move |h| {
            h.install(counter());
            h.install(poison_app());
            let instr = h.instrumentation();
            h.install(collector_app(instr));
            h.install(exporter_app(sink.clone()));
        },
    );
    for i in 0..3 {
        c.hive_mut(HiveId(1)).emit(Poison {
            key: format!("p{i}"),
        });
    }
    for _ in 0..20 {
        c.hive_mut(HiveId(1)).emit(Inc {
            key: "healthy".into(),
        });
    }
    c.advance(10_000, 50);

    let hive = c.hive(HiveId(1));
    let (bee, _) = hive.local_bees("counter")[0];
    let count: u64 = hive
        .peek_state("counter", bee, "c", "healthy")
        .expect("healthy app state");
    assert_eq!(count, 20, "healthy app unaffected by the poison app");

    let letters = hive.dead_letters().snapshot();
    assert_eq!(letters.len(), 3, "one letter per poison message");
    for l in &letters {
        assert_eq!(l.app, "poison");
        assert_eq!(l.kind, FailureKind::Panic);
        assert_eq!(l.attempts, 4, "max_redeliveries(3) + 1 attempts");
        assert_eq!(l.detail, "poison pill");
    }
    let counters = hive.counters();
    assert_eq!(counters.handler_panics, 12, "3 messages x 4 attempts");
    assert_eq!(counters.redeliveries, 9, "3 messages x 3 redeliveries");
    assert_eq!(counters.dead_letters, 3);

    // The same numbers must flow through collector reports and the
    // exporter into the Prometheus exposition.
    let text = analytics.lock().unwrap().render_prometheus();
    assert!(
        text.contains("beehive_handler_failures_total{kind=\"panic\"} 12"),
        "{text}"
    );
    assert!(text.contains("beehive_redeliveries_total 9"), "{text}");
    assert!(text.contains("beehive_dead_letters_total 3"), "{text}");
    assert!(text.contains("beehive_quarantined_bees 0"), "{text}");
}

#[test]
fn panicking_handler_is_contained_sequentially() {
    contained_panic_scenario();
}

/// A handler that fails deterministically (injected) and then succeeds:
/// redelivery masks the failures entirely — state converges, nothing
/// dead-letters.
fn transient_failure_scenario() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    c.set_faults(FabricFaults::default().fail_handler("counter", "Inc", 2));
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(5_000, 50);

    let hive = c.hive(HiveId(1));
    let (bee, _) = hive.local_bees("counter")[0];
    let count: u64 = hive.peek_state("counter", bee, "c", "k").expect("state");
    assert_eq!(count, 1, "the message applied exactly once after retries");
    assert_eq!(hive.counters().redeliveries, 2, "one per injected failure");
    assert_eq!(hive.counters().dead_letters, 0);
    assert!(hive.dead_letters().is_empty());
    assert_eq!(hive.handler_faults().armed(), 0, "faults consumed");
}

#[test]
fn transient_handler_failures_converge_sequentially() {
    transient_failure_scenario();
}

/// Three consecutive failures open a bee's breaker; after the cooldown one
/// message runs as the half-open probe, its success closes the breaker, and
/// the backlog queued behind the probe is processed without waiting for
/// unrelated traffic.
fn quarantine_probe_scenario() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                max_redeliveries: 0, // every failure dead-letters immediately
                quarantine_threshold: 3,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    // Create the bee with one clean delivery.
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(1_000, 50);

    // Trip the breaker: three consecutive failures on the same bee.
    c.set_faults(FabricFaults::default().fail_handler("counter", "Inc", 3));
    for _ in 0..3 {
        c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    }
    c.advance(500, 50);
    assert_eq!(c.hive(HiveId(1)).counters().quarantines, 1, "breaker open");
    assert_eq!(c.hive(HiveId(1)).counters().dead_letters, 3);

    // While quarantined, new messages dead-letter fast without running.
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(500, 50);
    let letters = c.hive(HiveId(1)).dead_letters().snapshot();
    assert!(
        letters
            .iter()
            .any(|l| l.kind == FailureKind::Quarantined && l.handler.is_empty()),
        "quarantined messages are rejected at admission: {letters:?}"
    );
    let (bee, _) = c.hive(HiveId(1)).local_bees("counter")[0];
    let count: u64 = c
        .hive(HiveId(1))
        .peek_state("counter", bee, "c", "k")
        .unwrap();
    assert_eq!(count, 1, "no deliveries while quarantined");

    // After the cooldown the half-open probe admits one message; its
    // success closes the breaker and normal processing resumes.
    c.advance(10_000, 50);
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(2_000, 50);
    let count: u64 = c
        .hive(HiveId(1))
        .peek_state("counter", bee, "c", "k")
        .unwrap();
    assert_eq!(count, 3, "breaker closed after the successful probe");
    assert_eq!(c.hive(HiveId(1)).counters().quarantines, 1, "opened once");
}

#[test]
fn quarantine_opens_and_recovers_via_half_open_probe_sequentially() {
    quarantine_probe_scenario();
}

/// Adds one to `key` and copies the total to `copy`, a cell its map does
/// not name: its first run re-maps.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IncAndCopy {
    key: String,
    copy: String,
}
beehive::core::impl_message!(IncAndCopy);

fn inc_and_copy() -> App {
    App::builder("counter")
        .handle::<IncAndCopy>(
            |m| Mapped::cell("c", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                ctx.put("c", m.key.clone(), &(n + 1))?;
                ctx.put("c", m.copy.clone(), &(n + 1))
            },
        )
        .build()
}

/// A half-open probe whose message re-maps is neither a success nor a
/// failure: the breaker stays half-open instead of tripping again, and the
/// re-routed message runs.
#[test]
fn a_remapped_probe_does_not_trip_the_breaker_again() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                max_redeliveries: 0,
                quarantine_threshold: 1,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(inc_and_copy()),
    );
    let msg = || IncAndCopy {
        key: "k".into(),
        copy: "k2".into(),
    };
    // One failure trips the breaker.
    c.set_faults(FabricFaults::default().fail_handler("counter", "IncAndCopy", 1));
    c.hive_mut(HiveId(1)).emit(msg());
    c.advance(1_000, 50);
    assert_eq!(c.hive(HiveId(1)).counters().quarantines, 1, "breaker open");
    // After the cooldown the probe re-maps, then runs.
    c.advance(10_000, 50);
    c.hive_mut(HiveId(1)).emit(msg());
    c.advance(2_000, 50);
    let h = c.hive(HiveId(1));
    assert_eq!(h.counters().remaps, 1);
    assert_eq!(
        h.counters().quarantines,
        1,
        "the re-map tripped the breaker"
    );
    assert_eq!(h.counters().dead_letters, 1, "only the injected failure");
    assert_eq!(count_of(&c, "k2"), Some(1), "the re-routed probe ran");
}

/// Regression: `requeue_dead_letters` must reset each envelope's delivery
/// count. A requeued message carries `deliveries = max_redeliveries + 1`
/// from its first life; without the reset it would bounce straight back to
/// the DLQ instead of getting the fresh budget the API promises.
#[test]
fn requeued_dead_letters_get_a_fresh_redelivery_budget() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                quarantine_threshold: 0,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(counter()),
    );
    // Fail all 4 attempts (first + 3 redeliveries) so the message
    // dead-letters.
    c.set_faults(FabricFaults::default().fail_handler("counter", "Inc", 4));
    c.hive_mut(HiveId(1)).emit(Inc { key: "k".into() });
    c.advance(10_000, 50);
    assert_eq!(c.hive(HiveId(1)).dead_letters().snapshot().len(), 1);
    assert_eq!(c.hive(HiveId(1)).counters().dead_letters, 1);

    // The fault is gone; requeue must replay the message successfully.
    assert_eq!(c.hive_mut(HiveId(1)).requeue_dead_letters(), 1);
    c.advance(10_000, 50);
    let (bee, _) = c.hive(HiveId(1)).local_bees("counter")[0];
    let count: u64 = c
        .hive(HiveId(1))
        .peek_state("counter", bee, "c", "k")
        .expect("state after requeue");
    assert_eq!(count, 1, "requeued message applied");
    assert!(
        c.hive(HiveId(1)).dead_letters().is_empty(),
        "no second dead-lettering: the budget was reset"
    );
    assert_eq!(
        c.hive(HiveId(1)).counters().dead_letters,
        1,
        "counter unchanged by the successful requeue"
    );
}

/// The platform rows the collector reports and the hive's own counters are
/// two views of the same counts: summed over every window the collector
/// emitted, the failure rows equal `Hive::counters()`, and the last window's
/// `quarantined` gauge is the number of bees whose breaker is open
/// (`HiveCounters::handler_errors` counts panics too, the table's
/// `kind="error"` row does not).
fn platform_rows_match_counters_scenario() {
    let windows: Arc<Mutex<Vec<HiveMetrics>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = windows.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                max_redeliveries: 1,
                quarantine_threshold: 3,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        move |h| {
            h.install(counter());
            h.install(poison_app());
            h.install(collector_app(h.instrumentation()));
            let sink = sink.clone();
            h.install(
                App::builder("capture")
                    .handle::<HiveMetrics>(
                        |_m| Mapped::LocalSingleton,
                        move |m, _c| {
                            sink.lock().push(m.clone());
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    let id = HiveId(1);
    let inc = || Inc { key: "k".into() };
    c.hive_mut(id).emit(inc());
    c.advance(1_000, 50);
    // An `Err` that one redelivery masks.
    c.hive_mut(id).inject_handler_fault("counter", "Inc", 1);
    c.hive_mut(id).emit(inc());
    c.advance(1_000, 50);
    // An `Err` that is redelivered, fails again and is dead-lettered.
    c.hive_mut(id).inject_handler_fault("counter", "Inc", 2);
    c.hive_mut(id).emit(inc());
    c.advance(1_000, 50);
    // A panic, redelivered and dead-lettered; the next poison message is
    // the third failure in a row and trips the bee's breaker.
    for _ in 0..2 {
        c.hive_mut(id).emit(Poison { key: "p".into() });
        c.advance(500, 50);
    }

    let check = |c: &SimCluster, open: u64| {
        let hive = c.hive(id);
        let windows = windows.lock();
        let mut summed = PlatformCounters::default();
        for w in windows.iter() {
            summed.absorb(&w.platform);
        }
        let counters = hive.counters();
        assert!(counters.handler_panics > 0 && counters.dead_letters > 0);
        assert!(counters.handler_errors > counters.handler_panics);
        assert_eq!(
            summed.handler_errors + summed.handler_panics,
            counters.handler_errors
        );
        assert_eq!(summed.handler_panics, counters.handler_panics);
        assert_eq!(summed.redeliveries, counters.redeliveries);
        assert_eq!(summed.dead_letters, counters.dead_letters);
        let events = hive.events().snapshot();
        let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
        let quarantined = count(EventKind::QuarantineOpen) - count(EventKind::QuarantineHalfOpen);
        assert_eq!(quarantined, open);
        assert_eq!(windows.last().unwrap().platform.quarantined, quarantined);
    };
    // Two more collector ticks, still inside the cooldown.
    c.advance(2_500, 50);
    assert_eq!(c.hive(id).counters().quarantines, 1, "breaker open");
    check(&c, 1);
    // Past the cooldown: the breaker is half-open and the gauge drops.
    c.advance(10_000, 50);
    check(&c, 0);
}

#[test]
fn platform_rows_match_counters_sequentially() {
    platform_rows_match_counters_scenario();
}
