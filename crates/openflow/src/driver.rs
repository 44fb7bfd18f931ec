//! The Beehive OpenFlow driver application.
//!
//! The driver is an ordinary Beehive app whose cells are keyed by datapath
//! id: the bee for switch `SWi` is created on the hive where `SWi`'s control
//! channel terminates — which is exactly how the platform ends up "querying
//! a switch on its master controller" (paper §2).
//!
//! Upstream (`switch → controller`) wire bytes enter the platform as
//! [`SwitchUpstream`] messages; the driver decodes them and emits platform
//! events ([`SwitchJoined`], [`StatReply`], [`PacketInEvent`], …). Commands
//! from control apps ([`FlowStatQuery`], [`InstallRule`], [`PacketOutCmd`])
//! are encoded back into wire bytes and written to the switch through a
//! [`SwitchIo`] (the simulator's switch fabric, or a real TCP connection).

use std::sync::Arc;

use beehive_core::prelude::*;
use serde::{Deserialize, Serialize};

use crate::wire::{Action, FlowModCommand, Match, OfMessage};

/// Name of the driver application.
pub const DRIVER_APP: &str = "openflow.driver";

/// Writes controller-to-switch bytes to a switch's control channel.
pub trait SwitchIo: Send + Sync {
    /// Sends encoded OpenFlow bytes to switch `dpid`.
    fn send(&self, dpid: u64, bytes: Vec<u8>);
}

/// Raw upstream bytes from a switch's control channel.
#[derive(Debug, Clone)]
pub struct SwitchUpstream {
    /// Datapath id of the sending switch.
    pub dpid: u64,
    /// One encoded OpenFlow message.
    pub bytes: Vec<u8>,
}
beehive_wire::wire_struct!(SwitchUpstream { dpid, bytes: bytes });
impl_message!(SwitchUpstream);

/// A switch completed its handshake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SwitchJoined {
    /// Datapath id.
    pub dpid: u64,
    /// Number of ports it reported.
    pub n_ports: u16,
}
impl_message!(SwitchJoined);

/// One flow's statistics, in platform form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowStat {
    /// Source IPv4 of the flow's match.
    pub nw_src: u32,
    /// Destination IPv4 of the flow's match.
    pub nw_dst: u32,
    /// Packets matched.
    pub packets: u64,
    /// Bytes matched.
    pub bytes: u64,
    /// Seconds installed.
    pub duration_sec: u32,
}

/// Flow statistics for one switch (the paper's `StatReply`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatReply {
    /// The switch.
    pub switch: u64,
    /// Per-flow statistics.
    pub flows: Vec<FlowStat>,
}
impl_message!(StatReply);

/// A packet punted to the control plane.
#[derive(Debug, Clone)]
pub struct PacketInEvent {
    /// The switch.
    pub switch: u64,
    /// Ingress port.
    pub in_port: u16,
    /// Packet bytes.
    pub data: Vec<u8>,
}
beehive_wire::wire_struct!(PacketInEvent {
    switch,
    in_port,
    data: bytes
});
impl_message!(PacketInEvent);

/// A port went up/down.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortStatusEvent {
    /// The switch.
    pub switch: u64,
    /// The port.
    pub port: u16,
    /// 0 = add, 1 = delete, 2 = modify.
    pub reason: u8,
}
impl_message!(PortStatusEvent);

/// Command: query a switch's flow statistics (the paper's `FlowStatQuery`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowStatQuery {
    /// The switch to query.
    pub switch: u64,
}
impl_message!(FlowStatQuery);

/// Command: install (or replace) a unicast forwarding rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstallRule {
    /// Target switch.
    pub switch: u64,
    /// What to match.
    pub match_: Match,
    /// Priority.
    pub priority: u16,
    /// Egress port.
    pub out_port: u16,
}
impl_message!(InstallRule);

/// Command: inject a packet out of a switch.
#[derive(Debug, Clone)]
pub struct PacketOutCmd {
    /// Target switch.
    pub switch: u64,
    /// Nominal ingress port.
    pub in_port: u16,
    /// Egress port.
    pub out_port: u16,
    /// Raw packet.
    pub data: Vec<u8>,
}
beehive_wire::wire_struct!(PacketOutCmd {
    switch,
    in_port,
    out_port,
    data: bytes
});
impl_message!(PacketOutCmd);

#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct SwitchRecord {
    n_ports: u16,
    joined: bool,
    next_xid: u32,
}

const DICT: &str = "switches";

/// Steps the switch's transaction id, kept in its declared entry.
fn next_xid(ctx: &mut RcvCtx<'_>) -> beehive_core::Result<u32> {
    ctx.update_entry(|rec: &mut SwitchRecord| {
        rec.next_xid += 1;
        rec.next_xid
    })
}

/// Builds the OpenFlow driver app over the given switch IO.
pub fn driver_app(io: Arc<dyn SwitchIo>) -> App {
    let io_up = io.clone();
    let io_query = io.clone();
    let io_rule = io.clone();
    let io_pkt = io;

    App::builder(DRIVER_APP)
        .with::<SwitchUpstream>(
            "Upstream",
            DICT,
            |m| m.dpid.to_string(),
            move |m, ctx| {
                match OfMessage::decode(&m.bytes)? {
                    OfMessage::Hello { .. } => {
                        // Complete the handshake and ask who they are.
                        io_up.send(m.dpid, OfMessage::Hello { xid: 0 }.encode());
                        let xid = next_xid(ctx)?;
                        io_up.send(m.dpid, OfMessage::FeaturesRequest { xid }.encode());
                    }
                    OfMessage::EchoRequest { xid, data } => {
                        io_up.send(m.dpid, OfMessage::EchoReply { xid, data }.encode());
                    }
                    // Keyed by the channel's dpid, the cell the map names,
                    // not by the datapath id the switch reports.
                    OfMessage::FeaturesReply { ports, .. } => {
                        let n_ports = ports.len() as u16;
                        let newly = ctx.update_entry(|rec: &mut SwitchRecord| {
                            rec.n_ports = n_ports;
                            !std::mem::replace(&mut rec.joined, true)
                        })?;
                        if newly {
                            ctx.emit(SwitchJoined {
                                dpid: m.dpid,
                                n_ports,
                            });
                        }
                    }
                    OfMessage::FlowStatsReply { flows, .. } => {
                        let stats = flows
                            .iter()
                            .map(|f| FlowStat {
                                nw_src: f.match_.nw_src,
                                nw_dst: f.match_.nw_dst,
                                packets: f.packet_count,
                                bytes: f.byte_count,
                                duration_sec: f.duration_sec,
                            })
                            .collect();
                        ctx.emit(StatReply {
                            switch: m.dpid,
                            flows: stats,
                        });
                    }
                    OfMessage::PacketIn { in_port, data, .. } => {
                        ctx.emit(PacketInEvent {
                            switch: m.dpid,
                            in_port,
                            data,
                        });
                    }
                    OfMessage::PortStatus { reason, desc, .. } => {
                        ctx.emit(PortStatusEvent {
                            switch: m.dpid,
                            port: desc.port_no,
                            reason,
                        });
                    }
                    // Replies we don't act on.
                    OfMessage::EchoReply { .. } | OfMessage::Error { .. } => {}
                    // Controller-to-switch types arriving upstream are a
                    // protocol violation; surface as handler error so the tx
                    // rolls back and the error is counted.
                    other => return Err(format!("unexpected upstream message {other:?}").into()),
                }
                Ok(())
            },
        )
        .with::<FlowStatQuery>(
            "Query",
            DICT,
            |m| m.switch.to_string(),
            move |m, ctx| {
                let xid = next_xid(ctx)?;
                io_query.send(
                    m.switch,
                    OfMessage::FlowStatsRequest {
                        xid,
                        match_: Match::any(),
                        table_id: 0xFF,
                    }
                    .encode(),
                );
                Ok(())
            },
        )
        .with::<InstallRule>(
            "Install",
            DICT,
            |m| m.switch.to_string(),
            move |m, ctx| {
                let xid = next_xid(ctx)?;
                io_rule.send(
                    m.switch,
                    OfMessage::FlowMod {
                        xid,
                        match_: m.match_,
                        cookie: 0,
                        command: FlowModCommand::Add,
                        idle_timeout: 0,
                        hard_timeout: 0,
                        priority: m.priority,
                        actions: vec![Action::Output {
                            port: m.out_port,
                            max_len: 0,
                        }],
                    }
                    .encode(),
                );
                Ok(())
            },
        )
        .with::<PacketOutCmd>(
            "PacketOut",
            DICT,
            |m| m.switch.to_string(),
            move |m, ctx| {
                let xid = next_xid(ctx)?;
                io_pkt.send(
                    m.switch,
                    OfMessage::PacketOut {
                        xid,
                        buffer_id: u32::MAX,
                        in_port: m.in_port,
                        actions: vec![Action::Output {
                            port: m.out_port,
                            max_len: 0,
                        }],
                        data: m.data.clone(),
                    }
                    .encode(),
                );
                Ok(())
            },
        )
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::SwitchModel;
    use beehive_core::sync::Mutex;
    use std::sync::Arc;

    /// Captures controller-to-switch bytes for inspection.
    #[derive(Default)]
    struct MockIo {
        sent: Mutex<Vec<(u64, Vec<u8>)>>,
    }

    impl SwitchIo for MockIo {
        fn send(&self, dpid: u64, bytes: Vec<u8>) {
            self.sent.lock().push((dpid, bytes));
        }
    }

    fn hive_with_driver() -> (Hive, Arc<MockIo>) {
        let io = Arc::new(MockIo::default());
        let mut hive = Hive::new(
            HiveConfig::standalone(HiveId(1)),
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        );
        hive.install(driver_app(io.clone()));
        (hive, io)
    }

    #[test]
    fn handshake_flows_through_driver() {
        let (mut hive, io) = hive_with_driver();
        let mut sw = SwitchModel::new(7, 3);

        // Switch says hello.
        hive.emit(SwitchUpstream {
            dpid: 7,
            bytes: sw.hello(),
        });
        hive.step_until_quiescent(100);

        // Driver should have replied with Hello + FeaturesRequest.
        let sent = io.sent.lock().clone();
        assert_eq!(sent.len(), 2);
        assert!(matches!(
            OfMessage::decode(&sent[0].1).unwrap(),
            OfMessage::Hello { .. }
        ));
        let feat_req = OfMessage::decode(&sent[1].1).unwrap();
        assert!(matches!(feat_req, OfMessage::FeaturesRequest { .. }));

        // Feed the switch's replies back upstream.
        for reply in sw.handle_bytes(&sent[1].1).unwrap() {
            hive.emit(SwitchUpstream {
                dpid: 7,
                bytes: reply,
            });
        }
        hive.step_until_quiescent(100);

        // One driver bee, holding the switch's record.
        assert_eq!(hive.local_bee_count(DRIVER_APP), 1);
        let (bee, _) = hive.local_bees(DRIVER_APP)[0];
        let rec: SwitchRecord = hive.peek_state(DRIVER_APP, bee, DICT, "7").unwrap();
        assert!(rec.joined);
        assert_eq!(rec.n_ports, 3);
    }

    #[test]
    fn features_reply_is_kept_under_the_channel_dpid() {
        // The switch on channel 7 reports datapath id 42: the record goes
        // to the cell the map names, so the handler never re-maps.
        let (mut hive, io) = hive_with_driver();
        let mut sw = SwitchModel::new(42, 3);
        hive.emit(SwitchUpstream {
            dpid: 7,
            bytes: sw.hello(),
        });
        hive.step_until_quiescent(100);
        let feat_req = io.sent.lock()[1].1.clone();
        for reply in sw.handle_bytes(&feat_req).unwrap() {
            hive.emit(SwitchUpstream {
                dpid: 7,
                bytes: reply,
            });
        }
        hive.step_until_quiescent(100);

        assert_eq!(hive.counters().remaps, 0);
        assert_eq!(hive.local_bee_count(DRIVER_APP), 1);
        let (bee, _) = hive.local_bees(DRIVER_APP)[0];
        let rec: SwitchRecord = hive.peek_state(DRIVER_APP, bee, DICT, "7").unwrap();
        assert!(rec.joined);
        assert_eq!(rec.n_ports, 3);
        assert!(hive
            .peek_state::<SwitchRecord>(DRIVER_APP, bee, DICT, "42")
            .is_none());
    }

    #[test]
    fn query_command_becomes_stats_request() {
        let (mut hive, io) = hive_with_driver();
        hive.emit(FlowStatQuery { switch: 9 });
        hive.step_until_quiescent(100);
        let sent = io.sent.lock().clone();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, 9);
        assert!(matches!(
            OfMessage::decode(&sent[0].1).unwrap(),
            OfMessage::FlowStatsRequest { .. }
        ));
    }

    #[test]
    fn install_rule_becomes_flow_mod_and_programs_switch() {
        let (mut hive, io) = hive_with_driver();
        let mut sw = SwitchModel::new(3, 2);
        hive.emit(InstallRule {
            switch: 3,
            match_: Match::nw_pair(1, 2),
            priority: 7,
            out_port: 2,
        });
        hive.step_until_quiescent(100);
        let sent = io.sent.lock().clone();
        assert_eq!(sent.len(), 1);
        sw.handle_bytes(&sent[0].1).unwrap();
        assert_eq!(sw.flows().len(), 1);
        assert_eq!(sw.flows()[0].priority, 7);
    }

    #[test]
    fn stats_reply_emits_stat_reply_message() {
        let (mut hive, io) = hive_with_driver();
        let mut sw = SwitchModel::new(5, 2);
        // Program + account a flow, then ask for stats through the driver.
        hive.emit(InstallRule {
            switch: 5,
            match_: Match::nw_pair(1, 2),
            priority: 1,
            out_port: 1,
        });
        hive.step_until_quiescent(100);
        sw.handle_bytes(&io.sent.lock()[0].1).unwrap();
        sw.account_traffic(
            &Match {
                wildcards: 0,
                nw_src: 1,
                nw_dst: 2,
                ..Default::default()
            },
            4,
            400,
        );

        // A tiny consumer app that records the StatReply it sees.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let consumer = App::builder("consumer")
            .handle::<StatReply>(
                |m| Mapped::cell("s", m.switch.to_string()),
                move |m, _ctx| {
                    seen2.lock().push(m.clone());
                    Ok(())
                },
            )
            .build();
        hive.install(consumer);

        hive.emit(FlowStatQuery { switch: 5 });
        hive.step_until_quiescent(100);
        let query_bytes = io.sent.lock().last().unwrap().1.clone();
        for reply in sw.handle_bytes(&query_bytes).unwrap() {
            hive.emit(SwitchUpstream {
                dpid: 5,
                bytes: reply,
            });
        }
        hive.step_until_quiescent(100);

        let replies = seen.lock().clone();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].switch, 5);
        assert_eq!(replies[0].flows.len(), 1);
        assert_eq!(replies[0].flows[0].bytes, 400);
    }

    #[test]
    fn upstream_garbage_is_a_handler_error() {
        let (mut hive, _io) = hive_with_driver();
        hive.emit(SwitchUpstream {
            dpid: 1,
            bytes: vec![0xFF, 0xFF],
        });
        hive.step_until_quiescent(100);
        assert_eq!(hive.counters().handler_errors, 1);
    }

    #[test]
    fn per_switch_cells_create_per_switch_bees() {
        let (mut hive, _io) = hive_with_driver();
        for dpid in 1..=4u64 {
            hive.emit(FlowStatQuery { switch: dpid });
        }
        hive.step_until_quiescent(100);
        assert_eq!(hive.local_bee_count(DRIVER_APP), 4);
    }
}
