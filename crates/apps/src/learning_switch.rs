//! L2 learning switch — the canonical **local control application** from
//! Kandoo (paper §4): every function accesses the state of a single switch,
//! so cells are per-switch and Beehive naturally replicates the function to
//! every hive, handling each switch next to its master controller.

use beehive_core::prelude::*;
use beehive_openflow::driver::{InstallRule, PacketInEvent, PacketOutCmd};
use beehive_openflow::switch::parse_macs;
use beehive_openflow::wire::OFPP_FLOOD;
use serde::{Deserialize, Serialize};

/// Name of the learning switch app.
pub const LEARNING_SWITCH_APP: &str = "learning-switch";

const MACS: &str = "macs";

#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct MacTable {
    /// MAC → port.
    entries: std::collections::BTreeMap<[u8; 6], u16>,
}

/// Builds the learning switch app: per-switch MAC tables.
///
/// * On `PacketIn`: learn `src → in_port`; if `dst` is known install a flow
///   and forward, otherwise flood.
pub fn learning_switch_app() -> App {
    App::builder(LEARNING_SWITCH_APP)
        .with::<PacketInEvent>(
            "PacketIn",
            MACS,
            |m| m.switch.to_string(),
            |m, ctx| {
                let Some((dst, src)) = parse_macs(&m.data) else {
                    return Err("packet too short for Ethernet".into());
                };
                let out = ctx.update_entry(|table: &mut MacTable| {
                    table.entries.insert(src, m.in_port);
                    table.entries.get(&dst).copied()
                })?;
                match out {
                    Some(port) => {
                        // Program the fast path and release the packet.
                        ctx.emit(InstallRule {
                            switch: m.switch,
                            match_: beehive_openflow::Match::dl_dst_exact(dst),
                            priority: 5,
                            out_port: port,
                        });
                        ctx.emit(PacketOutCmd {
                            switch: m.switch,
                            in_port: m.in_port,
                            out_port: port,
                            data: m.data.clone(),
                        });
                    }
                    None => {
                        ctx.emit(PacketOutCmd {
                            switch: m.switch,
                            in_port: m.in_port,
                            out_port: OFPP_FLOOD,
                            data: m.data.clone(),
                        });
                    }
                }
                Ok(())
            },
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::sync::Mutex;
    use beehive_openflow::switch::encode_header_as_packet;
    use std::sync::Arc;

    fn pkt(src: [u8; 6], dst: [u8; 6]) -> Vec<u8> {
        encode_header_as_packet(&beehive_openflow::Match {
            dl_src: src,
            dl_dst: dst,
            ..Default::default()
        })
    }

    struct Captured {
        rules: Vec<InstallRule>,
        outs: Vec<PacketOutCmd>,
    }

    fn hive_with_sinks() -> (Hive, Arc<Mutex<Captured>>) {
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        let mut hive = Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        );
        hive.install(learning_switch_app());
        let cap = Arc::new(Mutex::new(Captured {
            rules: Vec::new(),
            outs: Vec::new(),
        }));
        let c1 = cap.clone();
        let c2 = cap.clone();
        hive.install(
            App::builder("sink")
                .handle::<InstallRule>(
                    |m| Mapped::cell("r", m.switch.to_string()),
                    move |m, _| {
                        c1.lock().rules.push(m.clone());
                        Ok(())
                    },
                )
                .handle::<PacketOutCmd>(
                    |m| Mapped::cell("r", m.switch.to_string()),
                    move |m, _| {
                        c2.lock().outs.push(m.clone());
                        Ok(())
                    },
                )
                .build(),
        );
        (hive, cap)
    }

    const A: [u8; 6] = [0xA; 6];
    const B: [u8; 6] = [0xB; 6];

    #[test]
    fn unknown_destination_floods() {
        let (mut hive, cap) = hive_with_sinks();
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 3,
            data: pkt(A, B),
        });
        hive.step_until_quiescent(1000);
        let c = cap.lock();
        assert!(c.rules.is_empty());
        assert_eq!(c.outs.len(), 1);
        assert_eq!(c.outs[0].out_port, OFPP_FLOOD);
    }

    #[test]
    fn learned_destination_installs_flow_and_forwards() {
        let (mut hive, cap) = hive_with_sinks();
        // A talks (learning A@3), then B replies (learning B@5, A known).
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 3,
            data: pkt(A, B),
        });
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 5,
            data: pkt(B, A),
        });
        hive.step_until_quiescent(1000);
        let c = cap.lock();
        assert_eq!(c.rules.len(), 1);
        assert_eq!(c.rules[0].out_port, 3, "A was learned on port 3");
        assert_eq!(c.outs.len(), 2);
        assert_eq!(c.outs[1].out_port, 3);
    }

    #[test]
    fn tables_are_per_switch() {
        let (mut hive, cap) = hive_with_sinks();
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 3,
            data: pkt(A, B),
        });
        // Switch 2 never saw A: must flood even though switch 1 knows A.
        hive.emit(PacketInEvent {
            switch: 2,
            in_port: 5,
            data: pkt(B, A),
        });
        hive.step_until_quiescent(1000);
        let c = cap.lock();
        assert!(c.rules.is_empty());
        assert_eq!(c.outs.len(), 2);
        assert!(c.outs.iter().all(|o| o.out_port == OFPP_FLOOD));
        assert_eq!(hive.local_bee_count(LEARNING_SWITCH_APP), 2);
    }

    #[test]
    fn short_packet_is_an_error() {
        let (mut hive, _cap) = hive_with_sinks();
        hive.emit(PacketInEvent {
            switch: 1,
            in_port: 1,
            data: vec![1, 2, 3],
        });
        hive.step_until_quiescent(1000);
        assert_eq!(hive.counters().handler_errors, 1);
    }
}
