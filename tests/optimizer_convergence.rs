//! The full platform-app loop: collector → aggregator/optimizer →
//! migration orders → live migration. Verifies the paper's §5 claim that
//! the runtime "migrates the bees … next to the OpenFlow driver" without
//! manual intervention.

use beehive::core::optimizer::OptimizerConfig;
use beehive::core::{collector_app, optimizer_app};
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Work {
    key: String,
    n: u64,
}
beehive::core::impl_message!(Work);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Drive {
    key: String,
}
beehive::core::impl_message!(Drive);

/// `producer` is pinned per-hive (local singleton) and fans `Work` out to
/// `consumer`, whose per-key bees are what the optimizer should move.
fn producer() -> App {
    App::builder("producer")
        .handle_local::<Drive>("drive", |m, ctx| {
            ctx.emit(Work {
                key: m.key.clone(),
                n: 1,
            });
            Ok(())
        })
        .build()
}

fn consumer() -> App {
    App::builder("consumer")
        .handle::<Work>(
            |m| Mapped::cell("acc", &m.key),
            |m, ctx| {
                let v: u64 = ctx.get("acc", &m.key)?.unwrap_or(0);
                ctx.put("acc", m.key.clone(), &(v + m.n))?;
                Ok(())
            },
        )
        .build()
}

#[test]
fn optimizer_moves_consumers_next_to_their_producers() {
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        |hive| {
            hive.install(producer());
            hive.install(consumer());
            let instr = hive.instrumentation();
            hive.install(collector_app(instr));
            hive.install(optimizer_app(
                OptimizerConfig {
                    min_messages: 5,
                    ..Default::default()
                },
                3, // optimize every 3 ticks
            ));
        },
    );
    cluster.elect_registry(120_000).expect("leader");

    // Create the consumer bee for "hot" on hive 1 (first message origin).
    cluster.hive_mut(HiveId(1)).emit(Work {
        key: "hot".into(),
        n: 0,
    });
    cluster.advance(2_000, 50);
    let cell = beehive::core::Cell::new("acc", "hot");
    let bee = cluster
        .hive(HiveId(1))
        .registry_view()
        .owner("consumer", &cell)
        .unwrap();
    assert_eq!(
        cluster.hive(HiveId(1)).registry_view().hive_of(bee),
        Some(HiveId(1))
    );

    // Now hive 3's pinned producer hammers it: every tick, hive 3 emits
    // Drive, its local producer bee emits Work — so the consumer's inbound
    // traffic is bee-sourced from hive 3.
    for _ in 0..30 {
        cluster
            .hive_mut(HiveId(3))
            .emit(Drive { key: "hot".into() });
        cluster.advance(1_000, 100);
    }

    let now = cluster.hive(HiveId(1)).registry_view().hive_of(bee);
    assert_eq!(
        now,
        Some(HiveId(3)),
        "optimizer should migrate the consumer next to its producer"
    );
    // No messages were lost along the way.
    let total: u64 = cluster
        .ids()
        .iter()
        .filter_map(|&h| {
            cluster
                .hive(h)
                .peek_state::<u64>("consumer", bee, "acc", "hot")
        })
        .sum();
    assert_eq!(total, 30);
}

#[test]
fn optimizer_leaves_balanced_bees_alone() {
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        |hive| {
            hive.install(producer());
            hive.install(consumer());
            let instr = hive.instrumentation();
            hive.install(collector_app(instr));
            hive.install(optimizer_app(
                OptimizerConfig {
                    min_messages: 5,
                    ..Default::default()
                },
                3,
            ));
        },
    );
    cluster.elect_registry(120_000).expect("leader");
    cluster.hive_mut(HiveId(1)).emit(Work {
        key: "even".into(),
        n: 0,
    });
    cluster.advance(2_000, 50);
    let cell = beehive::core::Cell::new("acc", "even");
    let bee = cluster
        .hive(HiveId(1))
        .registry_view()
        .owner("consumer", &cell)
        .unwrap();

    // Both hives' producers send equally: no strict majority anywhere.
    for _ in 0..20 {
        cluster
            .hive_mut(HiveId(1))
            .emit(Drive { key: "even".into() });
        cluster
            .hive_mut(HiveId(2))
            .emit(Drive { key: "even".into() });
        cluster.advance(1_000, 100);
    }
    assert_eq!(
        cluster.hive(HiveId(1)).registry_view().hive_of(bee),
        Some(HiveId(1)),
        "a 50/50 split is not a majority; the bee must stay"
    );
}
