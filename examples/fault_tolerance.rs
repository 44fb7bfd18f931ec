//! Colony replication and failover (the paper's §7 fault-tolerance
//! direction): a bee's committed transactions replicate to shadow hives;
//! when its hive dies, a replica promotes the shadow and the application
//! keeps serving with zero committed-state loss.
//!
//! ```sh
//! cargo run --example fault_tolerance
//! ```

use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Record {
    device: String,
    reading: i64,
}
beehive::core::impl_message!(Record);

fn telemetry() -> App {
    App::builder("telemetry")
        .with::<Record>(
            "Append",
            "series",
            |m| m.device.clone(),
            |m, ctx| ctx.update_entry(|series: &mut Vec<i64>| series.push(m.reading)),
        )
        .build()
}

fn main() {
    // 4 hives, registry quorum of 3, replication factor 2: every bee's
    // transactions ship to one shadow hive.
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives: 4,
            voters: 3,
            hive: HiveConfig {
                replication_factor: 2,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(telemetry()),
    );
    cluster.elect_registry(120_000).expect("registry leader");
    println!("cluster up: 4 hives, replication factor 2");

    // Device data arrives at hive 4 → its bee lives there; hive 1 (ring
    // successor) shadows it.
    for reading in [10, 20, 30, 40, 50] {
        cluster.hive_mut(HiveId(4)).emit(Record {
            device: "sensor-7".into(),
            reading,
        });
    }
    cluster.advance(5_000, 50);

    let cell = Cell::new("series", "sensor-7");
    let mirror = cluster.hive(HiveId(1)).registry_view();
    let bee = mirror.owner("telemetry", &cell).expect("bee exists");
    println!(
        "sensor-7's bee {bee} lives on {}, shadowed by hive-1 ({} shadow(s) there)",
        mirror.hive_of(bee).unwrap(),
        cluster.hive(HiveId(1)).shadow_count()
    );
    assert_eq!(mirror.hive_of(bee), Some(HiveId(4)));
    assert_eq!(cluster.hive(HiveId(1)).shadow_count(), 1);

    // Disaster: hive 4 drops off the network.
    println!("\n*** hive-4 fails ***\n");
    for id in cluster.ids() {
        if id != HiveId(4) {
            cluster.fabric.partition(HiveId(4), id);
        }
    }
    cluster.advance(2_000, 50);

    // The deployment's failure detector triggers recovery on the replica.
    let recovered = cluster.hive_mut(HiveId(1)).recover_from(HiveId(4));
    cluster.advance(5_000, 50);
    println!("hive-1 recovered {recovered} bee(s) from its shadows");

    let series: Vec<i64> = cluster
        .hive(HiveId(1))
        .peek_state("telemetry", bee, "series", "sensor-7")
        .expect("state survived the failure");
    println!("sensor-7 series after failover: {series:?}");
    assert_eq!(series, vec![10, 20, 30, 40, 50], "no committed data lost");

    // And it keeps ingesting, reachable from any surviving hive.
    cluster.hive_mut(HiveId(2)).emit(Record {
        device: "sensor-7".into(),
        reading: 60,
    });
    cluster.advance(5_000, 50);
    let series: Vec<i64> = cluster
        .hive(HiveId(1))
        .peek_state("telemetry", bee, "series", "sensor-7")
        .unwrap();
    println!("after another reading: {series:?}");
    assert_eq!(series.last(), Some(&60));
    println!("\nfailover complete: same bee id, same state, new hive — apps never noticed");
}
