//! End-to-end integration: the decoupled TE application over the OpenFlow
//! driver, emulated switches and a Raft-registered multi-hive cluster —
//! verifying that elephant flows actually get re-routed *on the switches*.

use std::sync::Arc;

use beehive::apps::te::{decoupled_te_apps, TeConfig, TE_COLLECT_APP, TE_ROUTE_APP};
use beehive::openflow::driver::{driver_app, DRIVER_APP};
use beehive::sim::{
    generate_flows, ClusterConfig, SimCluster, SwitchFleet, Topology, WorkloadConfig,
};

/// A library app's handlers touch only the entries they declare, so no
/// message on any hive was ever re-mapped.
fn assert_no_remaps(c: &SimCluster) {
    for id in c.ids() {
        assert_eq!(c.hive(id).counters().remaps, 0, "{id} re-mapped a message");
    }
}

struct Setup {
    cluster: SimCluster,
    fleet: Arc<SwitchFleet>,
    topo: Topology,
}

fn setup(hives: usize) -> Setup {
    let topo = Topology::tree(3, 2); // 7 switches
    let mut cluster = SimCluster::new(
        ClusterConfig {
            hives,
            voters: hives.min(3),
            ..Default::default()
        },
        |_| {},
    );
    let masters = topo.assign_masters(&cluster.ids());
    let handles: Vec<_> = cluster
        .ids()
        .iter()
        .map(|&id| cluster.hive(id).handle())
        .collect();
    let fleet = Arc::new(SwitchFleet::new(
        topo.switches.iter().map(|s| (s.dpid, s.ports)),
        masters,
        handles,
    ));
    for id in cluster.ids() {
        let hive = cluster.hive_mut(id);
        hive.install(driver_app(fleet.clone()));
        let (collect, route) = decoupled_te_apps(TeConfig {
            delta_bytes_per_sec: 50_000,
        });
        hive.install(collect);
        hive.install(route);
    }
    cluster.elect_registry(120_000).expect("registry leader");
    fleet.connect_all();
    let f = fleet.clone();
    cluster.advance_with(3_000, 100, || f.pump());
    Setup {
        cluster,
        fleet,
        topo,
    }
}

#[test]
fn elephants_get_rerouted_on_the_switches() {
    let Setup {
        mut cluster,
        fleet,
        topo,
    } = setup(3);

    let flows = generate_flows(
        &topo.dpids(),
        &WorkloadConfig {
            flows_per_switch: 10,
            ..Default::default()
        },
    );
    fleet.install_default_routes(&flows);
    let base_flows: Vec<usize> = topo.dpids().iter().map(|&d| fleet.flow_count(d)).collect();

    // Run 8 virtual seconds of traffic + stats collection.
    for _ in 0..8 {
        fleet.advance_traffic(&flows, 1);
        let f = fleet.clone();
        cluster.advance_with(1_000, 100, || f.pump());
    }

    // Every switch has 1 elephant (10 flows, 10% elephants): TE must have
    // installed one re-route rule per switch (priority 10 > default 1).
    for (i, &dpid) in topo.dpids().iter().enumerate() {
        let now = fleet.flow_count(dpid);
        assert_eq!(
            now,
            base_flows[i] + 1,
            "switch {dpid} should have exactly one TE re-route rule added"
        );
    }
    assert_no_remaps(&cluster);
}

#[test]
fn collection_bees_live_next_to_their_switches() {
    let Setup {
        mut cluster,
        fleet,
        topo,
    } = setup(3);
    let flows = generate_flows(
        &topo.dpids(),
        &WorkloadConfig {
            flows_per_switch: 5,
            ..Default::default()
        },
    );
    fleet.install_default_routes(&flows);
    for _ in 0..4 {
        fleet.advance_traffic(&flows, 1);
        let f = fleet.clone();
        cluster.advance_with(1_000, 100, || f.pump());
    }

    // Each switch's collect bee must be on the switch's master hive — the
    // same hive as its driver bee.
    let masters = topo.assign_masters(&cluster.ids());
    for (&dpid, &master) in &masters {
        let mirror = cluster.hive(master).registry_view();
        let cell = beehive::core::Cell::new("S", dpid.to_string());
        let bee = mirror
            .owner(TE_COLLECT_APP, &cell)
            .expect("collect bee exists");
        assert_eq!(
            mirror.hive_of(bee),
            Some(master),
            "switch {dpid}'s collect bee should live on its master {master}"
        );
    }
    // And the drivers as well (they were created by upstream arrival there).
    let driver_total: usize = cluster
        .ids()
        .iter()
        .map(|&h| cluster.hive(h).local_bee_count(DRIVER_APP))
        .sum();
    assert_eq!(driver_total, topo.len());
    assert_no_remaps(&cluster);
}

#[test]
fn route_app_is_a_single_bee_cluster_wide() {
    let Setup {
        mut cluster,
        fleet,
        topo,
    } = setup(3);
    let flows = generate_flows(
        &topo.dpids(),
        &WorkloadConfig {
            flows_per_switch: 10,
            ..Default::default()
        },
    );
    fleet.install_default_routes(&flows);
    for _ in 0..6 {
        fleet.advance_traffic(&flows, 1);
        let f = fleet.clone();
        cluster.advance_with(1_000, 100, || f.pump());
    }
    let route_bees: usize = cluster
        .ids()
        .iter()
        .map(|&h| cluster.hive(h).local_bee_count(TE_ROUTE_APP))
        .sum();
    assert_eq!(
        route_bees, 1,
        "whole-dict Route must collocate on exactly one bee"
    );
    assert_no_remaps(&cluster);
}

#[test]
fn no_handler_errors_or_conflicts_in_steady_state() {
    let Setup {
        mut cluster,
        fleet,
        topo,
    } = setup(2);
    let flows = generate_flows(
        &topo.dpids(),
        &WorkloadConfig {
            flows_per_switch: 5,
            ..Default::default()
        },
    );
    fleet.install_default_routes(&flows);
    for _ in 0..5 {
        fleet.advance_traffic(&flows, 1);
        let f = fleet.clone();
        cluster.advance_with(1_000, 100, || f.pump());
    }
    for id in cluster.ids() {
        let c = cluster.hive(id).counters();
        assert_eq!(c.handler_errors, 0, "{id} had handler errors");
        assert_eq!(
            c.merge_collisions, 0,
            "{id} had colliding keys in a colony merge"
        );
        assert_eq!(c.decode_errors, 0, "{id} had decode errors");
        assert_eq!(c.dropped_orphans, 0, "{id} dropped orphaned messages");
    }
    assert_no_remaps(&cluster);
}
