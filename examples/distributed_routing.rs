//! Distributed routing (paper §4): per-prefix RIB cells spread across a
//! 3-hive cluster, with a centralized path-computation app announcing
//! shortest paths into the RIB.
//!
//! ```sh
//! cargo run --example distributed_routing
//! ```

use beehive::apps::discovery::LinkDiscovered;
use beehive::apps::routing::{path_app, rib_app, PathRequest, RouteQuery, RouteReply, RIB_APP};
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster, Topology};
use beehive_core::sync::Mutex;
use std::sync::Arc;

fn main() {
    let replies = Arc::new(Mutex::new(Vec::<RouteReply>::new()));

    let r2 = replies.clone();
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        move |hive| {
            hive.install(rib_app());
            hive.install(path_app());
            let r3 = r2.clone();
            hive.install(
                App::builder("observer")
                    .with::<RouteReply>(
                        "Print",
                        "x",
                        |m| m.prefix.clone(),
                        move |m, ctx| {
                            println!("  [{}] {} -> {:?}", ctx.hive(), m.prefix, m.best);
                            r3.lock().push(m.clone());
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    cluster.elect_registry(60_000).expect("leader");

    // Discover a small tree topology (both link directions).
    let topo = Topology::tree(3, 2);
    println!(
        "discovering {} switches, {} links…",
        topo.len(),
        topo.links.len()
    );
    for l in &topo.links {
        cluster.hive_mut(HiveId(1)).emit(LinkDiscovered {
            src: l.a.0,
            src_port: l.a.1,
            dst: l.b.0,
        });
        cluster.hive_mut(HiveId(1)).emit(LinkDiscovered {
            src: l.b.0,
            src_port: l.b.1,
            dst: l.a.0,
        });
    }
    cluster.advance(3_000, 50);

    // Ask for paths between the leaves — requests arrive on different hives.
    let edges = topo.edges();
    println!("computing paths between edge switches…");
    cluster.hive_mut(HiveId(1)).emit(PathRequest {
        src: edges[0],
        dst: edges[3],
        prefix: format!("to-{}", edges[3]),
    });
    cluster.hive_mut(HiveId(2)).emit(PathRequest {
        src: edges[1],
        dst: edges[2],
        prefix: format!("to-{}", edges[2]),
    });
    cluster.advance(3_000, 50);

    // Query the RIB from a *different* hive than the announcer.
    println!("querying the RIB:");
    cluster.hive_mut(HiveId(3)).emit(RouteQuery {
        prefix: format!("to-{}", edges[3]),
    });
    cluster.hive_mut(HiveId(3)).emit(RouteQuery {
        prefix: format!("to-{}", edges[2]),
    });
    cluster.advance(3_000, 50);

    let got = replies.lock().clone();
    assert_eq!(got.len(), 2);
    assert!(
        got.iter().all(|r| r.best.is_some()),
        "both prefixes resolved"
    );

    // The RIB's prefix cells are spread over the cluster.
    let spread: Vec<(HiveId, usize)> = cluster
        .ids()
        .into_iter()
        .map(|id| (id, cluster.hive(id).local_bee_count(RIB_APP)))
        .collect();
    println!("RIB bees per hive: {spread:?}");
    let total: usize = spread.iter().map(|&(_, n)| n).sum();
    assert_eq!(total, 2, "one bee per announced prefix");
}
