//! ONIX NIB emulation (paper §4): the network graph's nodes are Beehive
//! cells — every query/update for one node is handled by that node's bee,
//! distributed across a cluster with no extra code.
//!
//! ```sh
//! cargo run --example onix_nib
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use beehive::apps::nib::{nib_app, EdgeAdd, NodeKind, NodeQuery, NodeReply, NodeUpdate, NIB_APP};
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use beehive_core::sync::Mutex;

fn attrs(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn main() {
    let replies = Arc::new(Mutex::new(Vec::<NodeReply>::new()));
    let r2 = replies.clone();
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        move |hive| {
            hive.install(nib_app());
            let r3 = r2.clone();
            hive.install(
                App::builder("observer")
                    .with::<NodeReply>(
                        "Collect",
                        "x",
                        |m| m.id.clone(),
                        move |m, _| {
                            r3.lock().push(m.clone());
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    cluster.elect_registry(60_000).expect("leader");

    // Build a NIB: two switches with ports, linked. Updates arrive through
    // different hives — the registry routes each node's messages to its bee.
    println!("populating the NIB from three different hives…");
    cluster.hive_mut(HiveId(1)).emit(NodeUpdate {
        id: "sw1".into(),
        kind: NodeKind::Switch,
        attrs: attrs(&[("dpid", "0x1"), ("vendor", "beehive")]),
    });
    cluster.hive_mut(HiveId(2)).emit(NodeUpdate {
        id: "sw2".into(),
        kind: NodeKind::Switch,
        attrs: attrs(&[("dpid", "0x2")]),
    });
    cluster.hive_mut(HiveId(3)).emit(NodeUpdate {
        id: "sw1:p1".into(),
        kind: NodeKind::Port,
        attrs: attrs(&[("speed", "10G")]),
    });
    cluster.advance(2_000, 50);

    cluster.hive_mut(HiveId(2)).emit(EdgeAdd {
        from: "sw1".into(),
        to: "sw1:p1".into(),
    });
    cluster.hive_mut(HiveId(3)).emit(EdgeAdd {
        from: "sw1".into(),
        to: "sw2".into(),
    });
    // A second attribute update for sw1 from yet another hive: must merge.
    cluster.hive_mut(HiveId(2)).emit(NodeUpdate {
        id: "sw1".into(),
        kind: NodeKind::Switch,
        attrs: attrs(&[("name", "edge-1")]),
    });
    cluster.advance(2_000, 50);

    println!("querying sw1 from hive 3…");
    cluster
        .hive_mut(HiveId(3))
        .emit(NodeQuery { id: "sw1".into() });
    cluster.advance(2_000, 50);

    let got = replies.lock().clone();
    let node = got[0].node.clone().expect("sw1 exists");
    println!("sw1 attrs: {:?}", node.attrs);
    println!("sw1 out-edges: {:?}", node.out_edges);
    assert_eq!(node.attrs["vendor"], "beehive");
    assert_eq!(
        node.attrs["name"], "edge-1",
        "updates from different hives merged"
    );
    assert_eq!(
        node.out_edges,
        vec!["sw1:p1".to_string(), "sw2".to_string()]
    );

    let spread: Vec<usize> = cluster
        .ids()
        .into_iter()
        .map(|id| cluster.hive(id).local_bee_count(NIB_APP))
        .collect();
    println!(
        "NIB bees per hive: {spread:?} ({} nodes total)",
        spread.iter().sum::<usize>()
    );
    assert_eq!(spread.iter().sum::<usize>(), 3, "one bee per NIB node");
}
