//! NVP-style network virtualization (paper §4): "network virtualization
//! applications … process messages of each virtual network independently …
//! basically sharding messages based on virtual networks, with minimal
//! shared state in between the shards. Each shard basically forms a set of
//! collocated cells in Beehive and the platform guarantees that messages of
//! the same virtual network are handled by the same bee."

use std::collections::BTreeMap;

use beehive_core::prelude::*;
use beehive_openflow::driver::InstallRule;
use serde::{Deserialize, Serialize};

/// Name of the virtualization app.
pub const VNET_APP: &str = "vnet";

/// Create a virtual network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CreateVnet {
    /// Virtual network id.
    pub vnet: u64,
    /// Tenant name.
    pub tenant: String,
}
impl_message!(CreateVnet);

/// Attach a (switch, port, MAC) endpoint to a virtual network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttachPort {
    /// Virtual network id.
    pub vnet: u64,
    /// Physical switch.
    pub switch: u64,
    /// Physical port.
    pub port: u16,
    /// Endpoint MAC.
    pub mac: [u8; 6],
}
impl_message!(AttachPort);

/// Detach an endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetachPort {
    /// Virtual network id.
    pub vnet: u64,
    /// Endpoint MAC.
    pub mac: [u8; 6],
}
impl_message!(DetachPort);

/// A packet event inside a virtual network (post-classification).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VnetPacket {
    /// Virtual network id.
    pub vnet: u64,
    /// Observing switch.
    pub switch: u64,
    /// Source MAC.
    pub src_mac: [u8; 6],
    /// Destination MAC.
    pub dst_mac: [u8; 6],
}
impl_message!(VnetPacket);

/// Emitted when the app resolves a cross-switch destination: the physical
/// fabric must tunnel `vnet` traffic from `src_switch` to `dst_switch`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TunnelSetup {
    /// Virtual network id.
    pub vnet: u64,
    /// Tunnel source switch.
    pub src_switch: u64,
    /// Tunnel destination switch.
    pub dst_switch: u64,
}
impl_message!(TunnelSetup);

const VNETS: &str = "vnets";

/// Stored per-vnet record.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VnetRecord {
    /// Tenant name.
    pub tenant: String,
    /// Whether the vnet exists.
    pub created: bool,
    /// MAC → (switch, port).
    pub endpoints: BTreeMap<[u8; 6], (u64, u16)>,
    /// Established tunnels (src, dst).
    pub tunnels: Vec<(u64, u64)>,
}

/// Builds the network virtualization app: all state of one virtual network
/// forms one shard (cell `vnets[vnet]`).
pub fn vnet_app() -> App {
    App::builder(VNET_APP)
        .with::<CreateVnet>(
            "Create",
            VNETS,
            |m| m.vnet.to_string(),
            |m, ctx| {
                let mut rec: VnetRecord = ctx.entry()?.unwrap_or_default();
                rec.created = true;
                rec.tenant = m.tenant.clone();
                ctx.put_entry(&rec)
            },
        )
        .with::<AttachPort>(
            "Attach",
            VNETS,
            |m| m.vnet.to_string(),
            |m, ctx| {
                let mut rec: VnetRecord = ctx.entry()?.unwrap_or_default();
                if !rec.created {
                    return Err(format!("vnet {} does not exist", m.vnet).into());
                }
                rec.endpoints.insert(m.mac, (m.switch, m.port));
                ctx.put_entry(&rec)
            },
        )
        .with::<DetachPort>(
            "Detach",
            VNETS,
            |m| m.vnet.to_string(),
            |m, ctx| {
                if let Some(mut rec) = ctx.entry::<VnetRecord>()? {
                    rec.endpoints.remove(&m.mac);
                    ctx.put_entry(&rec)?;
                }
                Ok(())
            },
        )
        .with::<Packet>(
            "Packet",
            VNETS,
            |m| m.vnet.to_string(),
            |m, ctx| {
                let mut rec: VnetRecord = ctx.entry()?.unwrap_or_default();
                if !rec.created {
                    return Err(format!("packet for unknown vnet {}", m.vnet).into());
                }
                let Some(&(dst_switch, dst_port)) = rec.endpoints.get(&m.dst_mac) else {
                    // Unknown destination inside the vnet: ignore (a real
                    // NVP would flood within the vnet).
                    return Ok(());
                };
                if dst_switch == m.switch {
                    // Same switch: program a local rule.
                    ctx.emit(InstallRule {
                        switch: m.switch,
                        match_: beehive_openflow::Match::dl_dst_exact(m.dst_mac),
                        priority: 20,
                        out_port: dst_port,
                    });
                } else if !rec.tunnels.contains(&(m.switch, dst_switch)) {
                    rec.tunnels.push((m.switch, dst_switch));
                    ctx.put_entry(&rec)?;
                    ctx.emit(TunnelSetup {
                        vnet: m.vnet,
                        src_switch: m.switch,
                        dst_switch,
                    });
                }
                Ok(())
            },
        )
        .build()
}

use VnetPacket as Packet;

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::sync::Mutex;
    use std::sync::Arc;

    const MAC_A: [u8; 6] = [0xA; 6];
    const MAC_B: [u8; 6] = [0xB; 6];

    fn standalone() -> Hive {
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        )
    }

    struct Sunk {
        rules: Vec<InstallRule>,
        tunnels: Vec<TunnelSetup>,
    }

    fn with_sinks() -> (Hive, Arc<Mutex<Sunk>>) {
        let mut hive = standalone();
        hive.install(vnet_app());
        let cap = Arc::new(Mutex::new(Sunk {
            rules: vec![],
            tunnels: vec![],
        }));
        let (c1, c2) = (cap.clone(), cap.clone());
        hive.install(
            App::builder("sink")
                .handle::<InstallRule>(
                    |m| Mapped::cell("x", m.switch.to_string()),
                    move |m, _| {
                        c1.lock().rules.push(m.clone());
                        Ok(())
                    },
                )
                .handle::<TunnelSetup>(
                    |m| Mapped::cell("x", m.vnet.to_string()),
                    move |m, _| {
                        c2.lock().tunnels.push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        (hive, cap)
    }

    #[test]
    fn same_switch_traffic_installs_local_rule() {
        let (mut hive, cap) = with_sinks();
        hive.emit(CreateVnet {
            vnet: 1,
            tenant: "acme".into(),
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 1,
            mac: MAC_A,
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 2,
            mac: MAC_B,
        });
        hive.emit(VnetPacket {
            vnet: 1,
            switch: 5,
            src_mac: MAC_A,
            dst_mac: MAC_B,
        });
        hive.step_until_quiescent(1000);
        let c = cap.lock();
        assert_eq!(c.rules.len(), 1);
        assert_eq!(c.rules[0].out_port, 2);
        assert!(c.tunnels.is_empty());
    }

    #[test]
    fn cross_switch_traffic_sets_up_tunnel_once() {
        let (mut hive, cap) = with_sinks();
        hive.emit(CreateVnet {
            vnet: 1,
            tenant: "acme".into(),
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 1,
            mac: MAC_A,
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 9,
            port: 2,
            mac: MAC_B,
        });
        let pkt = VnetPacket {
            vnet: 1,
            switch: 5,
            src_mac: MAC_A,
            dst_mac: MAC_B,
        };
        hive.emit(pkt.clone());
        hive.emit(pkt);
        hive.step_until_quiescent(1000);
        let c = cap.lock();
        assert_eq!(c.tunnels.len(), 1, "tunnel established once");
        assert_eq!(c.tunnels[0].dst_switch, 9);
    }

    #[test]
    fn vnets_are_isolated_shards() {
        let (mut hive, cap) = with_sinks();
        hive.emit(CreateVnet {
            vnet: 1,
            tenant: "a".into(),
        });
        hive.emit(CreateVnet {
            vnet: 2,
            tenant: "b".into(),
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 1,
            mac: MAC_A,
        });
        // MAC_A is attached in vnet 1 only: a vnet-2 packet to it is dropped.
        hive.emit(VnetPacket {
            vnet: 2,
            switch: 5,
            src_mac: MAC_B,
            dst_mac: MAC_A,
        });
        hive.step_until_quiescent(1000);
        assert!(cap.lock().rules.is_empty());
        assert_eq!(
            hive.local_bee_count(VNET_APP),
            2,
            "one shard (bee) per vnet"
        );
    }

    #[test]
    fn attach_to_missing_vnet_errors() {
        let (mut hive, _cap) = with_sinks();
        hive.emit(AttachPort {
            vnet: 9,
            switch: 1,
            port: 1,
            mac: MAC_A,
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.counters().handler_errors, 1);
    }

    #[test]
    fn detach_stops_resolution() {
        let (mut hive, cap) = with_sinks();
        hive.emit(CreateVnet {
            vnet: 1,
            tenant: "a".into(),
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 1,
            mac: MAC_A,
        });
        hive.emit(AttachPort {
            vnet: 1,
            switch: 5,
            port: 2,
            mac: MAC_B,
        });
        hive.emit(DetachPort {
            vnet: 1,
            mac: MAC_B,
        });
        hive.emit(VnetPacket {
            vnet: 1,
            switch: 5,
            src_mac: MAC_A,
            dst_mac: MAC_B,
        });
        hive.step_until_quiescent(1000);
        assert!(cap.lock().rules.is_empty());
    }
}
