//! NVP-style network virtualization: tenants' virtual networks are shards —
//! all state and events of one vnet are handled by one bee, and different
//! vnets scale out across the cluster (paper §4).
//!
//! ```sh
//! cargo run --example network_virtualization
//! ```

use std::sync::Arc;

use beehive::apps::vnet::{vnet_app, AttachPort, CreateVnet, TunnelSetup, VnetPacket, VNET_APP};
use beehive::prelude::*;
use beehive_core::sync::Mutex;

fn mac(n: u8) -> [u8; 6] {
    [0xEE, 0, 0, 0, 0, n]
}

fn main() {
    let mut hive = Hive::new(
        beehive::core::HiveConfig::standalone(HiveId(1)),
        Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(vnet_app());

    // Observe tunnel decisions.
    let tunnels = Arc::new(Mutex::new(Vec::new()));
    let t2 = tunnels.clone();
    hive.install(
        App::builder("observer")
            .with::<TunnelSetup>(
                "Print",
                "t",
                |m| m.vnet.to_string(),
                move |m, _| {
                    println!(
                        "  vnet {}: tunnel {} -> {}",
                        m.vnet, m.src_switch, m.dst_switch
                    );
                    t2.lock().push((m.vnet, m.src_switch, m.dst_switch));
                    Ok(())
                },
            )
            .build(),
    );

    println!("provisioning two tenants…");
    hive.emit(CreateVnet {
        vnet: 1,
        tenant: "acme".into(),
    });
    hive.emit(CreateVnet {
        vnet: 2,
        tenant: "globex".into(),
    });

    // Tenant acme: VMs on switches 10 and 20.
    hive.emit(AttachPort {
        vnet: 1,
        switch: 10,
        port: 1,
        mac: mac(1),
    });
    hive.emit(AttachPort {
        vnet: 1,
        switch: 20,
        port: 2,
        mac: mac(2),
    });
    // Tenant globex: VMs on switches 10 and 30. Same physical switch 10 —
    // but isolated state.
    hive.emit(AttachPort {
        vnet: 2,
        switch: 10,
        port: 3,
        mac: mac(3),
    });
    hive.emit(AttachPort {
        vnet: 2,
        switch: 30,
        port: 1,
        mac: mac(4),
    });
    hive.step_until_quiescent(1_000);

    println!("tenant traffic:");
    // acme VM1 -> VM2 (cross-switch): needs a tunnel 10->20.
    hive.emit(VnetPacket {
        vnet: 1,
        switch: 10,
        src_mac: mac(1),
        dst_mac: mac(2),
    });
    // globex VM3 -> VM4 (cross-switch): needs a tunnel 10->30.
    hive.emit(VnetPacket {
        vnet: 2,
        switch: 10,
        src_mac: mac(3),
        dst_mac: mac(4),
    });
    // acme VM1 -> globex VM4: crosses tenants — MUST be ignored (isolation).
    hive.emit(VnetPacket {
        vnet: 1,
        switch: 10,
        src_mac: mac(1),
        dst_mac: mac(4),
    });
    hive.step_until_quiescent(1_000);

    let t = tunnels.lock().clone();
    assert_eq!(t.len(), 2, "exactly the two intra-tenant tunnels");
    assert!(t.contains(&(1, 10, 20)));
    assert!(t.contains(&(2, 10, 30)));

    println!(
        "\n{} vnet shards (bees) — one per tenant network; tenant isolation held: \
         the cross-tenant packet resolved to nothing",
        hive.local_bee_count(VNET_APP)
    );
    assert_eq!(hive.local_bee_count(VNET_APP), 2);
}
