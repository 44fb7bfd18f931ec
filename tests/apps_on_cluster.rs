//! The §4 use-case applications running on real multi-hive clusters (not
//! just standalone hives): Kandoo two-tier, network virtualization shards,
//! the centralized ACL, and the learning switch over an OpenFlow switch
//! fleet.

use std::sync::Arc;

use beehive::apps::acl::{acl_app, AclVerdict, AddRule, ACL_APP};
use beehive::apps::kandoo::{kandoo_local_app, kandoo_root_app, KANDOO_LOCAL_APP, KANDOO_ROOT_APP};
use beehive::apps::learning_switch::{learning_switch_app, LEARNING_SWITCH_APP};
use beehive::apps::vnet::{vnet_app, AttachPort, CreateVnet, TunnelSetup, VnetPacket, VNET_APP};
use beehive::core::feedback::{design_feedback, FeedbackItem};
use beehive::openflow::driver::{driver_app, FlowStat, InstallRule, PacketInEvent, StatReply};
use beehive::openflow::switch::encode_header_as_packet;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster, SwitchFleet, Topology};
use beehive_core::sync::Mutex;

#[test]
fn kandoo_two_tier_on_three_hives() {
    let rules = Arc::new(Mutex::new(Vec::new()));
    let r2 = rules.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        move |h| {
            h.install(kandoo_local_app(10_000));
            h.install(kandoo_root_app());
            let r3 = r2.clone();
            h.install(
                App::builder("sink")
                    .handle::<InstallRule>(
                        |m| Mapped::cell("x", m.switch.to_string()),
                        move |m, ctx| {
                            r3.lock().push((m.switch, ctx.hive()));
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    c.elect_registry(120_000).unwrap();

    // Stat replies arrive on each switch's own hive (as drivers would emit
    // them): local detection must stay local, escalation must centralize.
    for (i, switch) in (1..=6u64).enumerate() {
        let hive = HiveId((i % 3 + 1) as u32);
        c.hive_mut(hive).emit(StatReply {
            switch,
            flows: vec![FlowStat {
                nw_src: 1,
                nw_dst: 2,
                packets: 10,
                bytes: 50_000,
                duration_sec: 1,
            }],
        });
    }
    c.advance(8_000, 50);

    // Local detectors: one bee per switch, on the hive its reply arrived at.
    for (i, switch) in (1..=6u64).enumerate() {
        let hive = HiveId((i % 3 + 1) as u32);
        let cell = Cell::new("seen", switch.to_string());
        let mirror = c.hive(hive).registry_view();
        let bee = mirror
            .owner(KANDOO_LOCAL_APP, &cell)
            .expect("local detector exists");
        assert_eq!(
            mirror.hive_of(bee),
            Some(hive),
            "detector for {switch} stays local"
        );
    }
    // Root: exactly one bee cluster-wide, reached from all hives.
    let root_bees: usize = c
        .ids()
        .iter()
        .map(|&h| c.hive(h).local_bee_count(KANDOO_ROOT_APP))
        .sum();
    assert_eq!(root_bees, 1);
    assert_eq!(rules.lock().len(), 6, "every elephant rerouted once");
}

#[test]
fn vnet_shards_spread_and_stay_consistent_across_hives() {
    let tunnels = Arc::new(Mutex::new(Vec::new()));
    let t2 = tunnels.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        move |h| {
            h.install(vnet_app());
            let t3 = t2.clone();
            h.install(
                App::builder("sink")
                    .handle::<TunnelSetup>(
                        |m| Mapped::cell("x", m.vnet.to_string()),
                        move |m, _| {
                            t3.lock().push((m.vnet, m.src_switch, m.dst_switch));
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    c.elect_registry(120_000).unwrap();

    // Each tenant provisioned through a different hive; events for the same
    // vnet arrive via *different* hives and must serialize on one shard.
    for vnet in 1..=3u64 {
        c.hive_mut(HiveId(vnet as u32)).emit(CreateVnet {
            vnet,
            tenant: format!("t{vnet}"),
        });
    }
    c.advance(4_000, 50);
    for vnet in 1..=3u64 {
        let h1 = HiveId((vnet as u32 % 3) + 1);
        let h2 = HiveId(((vnet as u32 + 1) % 3) + 1);
        c.hive_mut(h1).emit(AttachPort {
            vnet,
            switch: 10,
            port: 1,
            mac: [vnet as u8; 6],
        });
        c.hive_mut(h2).emit(AttachPort {
            vnet,
            switch: 20,
            port: 2,
            mac: [vnet as u8 + 10; 6],
        });
    }
    c.advance(4_000, 50);
    for vnet in 1..=3u64 {
        c.hive_mut(HiveId(3)).emit(VnetPacket {
            vnet,
            switch: 10,
            src_mac: [vnet as u8; 6],
            dst_mac: [vnet as u8 + 10; 6],
        });
    }
    c.advance(6_000, 50);

    let t = tunnels.lock().clone();
    assert_eq!(t.len(), 3, "one tunnel per vnet: {t:?}");
    let shard_total: usize = c
        .ids()
        .iter()
        .map(|&h| c.hive(h).local_bee_count(VNET_APP))
        .sum();
    assert_eq!(shard_total, 3, "one shard per vnet");
    // No handler errors (attach raced create etc. would show up here).
    for id in c.ids() {
        assert_eq!(c.hive(id).counters().handler_errors, 0);
    }
}

#[test]
fn learning_switch_over_fleet_on_two_hives() {
    let topo = Topology::tree(2, 2); // 3 switches
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        |_| {},
    );
    let masters = topo.assign_masters(&c.ids());
    let handles: Vec<_> = c.ids().iter().map(|&id| c.hive(id).handle()).collect();
    let fleet = Arc::new(SwitchFleet::new(
        topo.switches.iter().map(|s| (s.dpid, s.ports)),
        masters.clone(),
        handles,
    ));
    for id in c.ids() {
        let h = c.hive_mut(id);
        h.install(driver_app(fleet.clone()));
        h.install(learning_switch_app());
    }
    c.elect_registry(120_000).unwrap();
    fleet.connect_all();
    let f = fleet.clone();
    c.advance_with(3_000, 100, || f.pump());

    let mac = |n: u8| -> [u8; 6] { [0, 0, 0, 0, 0, n] };
    let hdr = |in_port: u16, src: u8, dst: u8| beehive::openflow::Match {
        in_port,
        dl_src: mac(src),
        dl_dst: mac(dst),
        ..Default::default()
    };

    // Learn on switch 2 (whichever master hive owns it): A@3 then B@4.
    fleet.inject_packet(2, &hdr(3, 0xA, 0xB), 64);
    let f = fleet.clone();
    c.advance_with(2_000, 100, || f.pump());
    fleet.inject_packet(2, &hdr(4, 0xB, 0xA), 64);
    let f = fleet.clone();
    c.advance_with(2_000, 100, || f.pump());

    assert!(fleet.flow_count(2) >= 1, "reply must program the fast path");
    // The MAC table bee lives on switch 2's master hive.
    let cell = Cell::new("macs", "2");
    let mirror = c.hive(masters[&2]).registry_view();
    let bee = mirror
        .owner(LEARNING_SWITCH_APP, &cell)
        .expect("mac table exists");
    assert_eq!(mirror.hive_of(bee), Some(masters[&2]));
}

/// The paper's centralized application (§4): the ACL maps its `policy`
/// dictionary whole, so design feedback flags it before it runs, and on a
/// cluster every rule and every punted packet, whichever hive they enter
/// on, meet at one bee.
#[test]
fn acl_is_one_bee_on_three_hives_as_its_feedback_says() {
    let report = design_feedback(&acl_app());
    assert!(report.is_centralized());
    assert!(
        report.items.iter().any(|i| matches!(
            i,
            FeedbackItem::MonolithicDict { dict, handlers }
                if dict == "policy" && handlers.len() == 3
        )),
        "{report:?}"
    );

    let verdicts = Arc::new(Mutex::new(Vec::new()));
    let v2 = verdicts.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        move |h| {
            h.install(acl_app());
            let v3 = v2.clone();
            h.install(
                App::builder("sink")
                    .handle::<AclVerdict>(
                        |m| Mapped::cell("v", m.switch.to_string()),
                        move |m, _| {
                            v3.lock().push((m.switch, m.allow, m.rule.clone()));
                            Ok(())
                        },
                    )
                    .build(),
            );
        },
    );
    c.elect_registry(120_000).unwrap();
    let mac = |n: u8| [n; 6];
    c.hive_mut(HiveId(1)).emit(AddRule {
        name: "no-7".into(),
        priority: 1,
        src_mac: None,
        dst_mac: Some(mac(7)),
        allow: false,
    });
    c.advance(3_000, 50);
    for (switch, dst) in [(2u64, 7u8), (3, 8)] {
        let data = encode_header_as_packet(&beehive::openflow::Match {
            dl_src: mac(1),
            dl_dst: mac(dst),
            ..Default::default()
        });
        c.hive_mut(HiveId(switch as u32)).emit(PacketInEvent {
            switch,
            in_port: 1,
            data,
        });
    }
    c.advance(3_000, 50);

    let bees: usize = c.hives().map(|h| h.local_bee_count(ACL_APP)).sum();
    assert_eq!(bees, 1, "one ACL bee cluster-wide");
    let mut seen = verdicts.lock().clone();
    seen.sort();
    assert_eq!(
        seen,
        vec![(2, false, Some("no-7".into())), (3, true, None)],
        "each switch's packet was judged against the one policy"
    );
}
