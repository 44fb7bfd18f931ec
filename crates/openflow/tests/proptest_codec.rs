//! Property tests for the OpenFlow 1.0 codec: arbitrary messages round-trip,
//! arbitrary bytes never panic the decoder, and the switch model preserves
//! its invariants under arbitrary FLOW_MOD streams.

use beehive_openflow::wire::OFPFW_ALL;
use beehive_openflow::{
    Action, FlowModCommand, FlowStatsEntry, Match, OfMessage, PacketInReason, PhyPort, SwitchModel,
};
use beehive_raft::prop::{for_all, Gen};

/// Cases per property.
const CASES: u64 = 256;

fn arb_match(g: &mut Gen) -> Match {
    let (dl_type, tp_dst, nw_proto): (u16, u16, u8) = (g.range(..), g.range(..), g.range(..));
    Match {
        wildcards: g.range(0..=OFPFW_ALL),
        in_port: g.range(..),
        dl_src: std::array::from_fn(|_| g.range(..)),
        dl_dst: std::array::from_fn(|_| g.range(..)),
        dl_vlan: g.range(..),
        dl_vlan_pcp: nw_proto & 0x7,
        dl_type,
        nw_tos: g.range(..),
        nw_proto,
        nw_src: g.range(..),
        nw_dst: g.range(..),
        tp_src: dl_type,
        tp_dst,
    }
}

fn arb_actions(g: &mut Gen) -> Vec<Action> {
    g.vec(0..4, |g| Action::Output {
        port: g.range(..),
        max_len: g.range(..),
    })
}

fn arb_message(g: &mut Gen) -> OfMessage {
    let xid = g.range(..);
    match g.range(0..8u8) {
        0 => OfMessage::Hello { xid },
        1 => OfMessage::EchoRequest {
            xid,
            data: g.vec(0..32, |g| g.range(..)),
        },
        2 => OfMessage::FeaturesRequest { xid },
        3 => OfMessage::FeaturesReply {
            xid,
            datapath_id: g.range(..),
            n_buffers: 256,
            n_tables: 1,
            capabilities: 1,
            ports: (0..g.range(0..4u8))
                .map(|i| PhyPort {
                    port_no: u16::from(i) + 1,
                    hw_addr: [i; 6],
                    name: format!("p{i}"),
                })
                .collect(),
        },
        4 => {
            let data: Vec<u8> = g.vec(0..64, |g| g.range(..));
            OfMessage::PacketIn {
                xid,
                buffer_id: u32::MAX,
                total_len: data.len() as u16,
                in_port: g.range(..),
                reason: PacketInReason::NoMatch,
                data,
            }
        }
        5 => OfMessage::FlowMod {
            xid,
            match_: arb_match(g),
            cookie: 7,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: g.range(..),
            actions: arb_actions(g),
        },
        6 => OfMessage::FlowStatsRequest {
            xid,
            match_: arb_match(g),
            table_id: 0xFF,
        },
        _ => OfMessage::FlowStatsReply {
            xid,
            flows: g.vec(0..4, |g| FlowStatsEntry {
                table_id: 0,
                match_: arb_match(g),
                duration_sec: 1,
                priority: 1,
                cookie: 0,
                packet_count: g.range(..),
                byte_count: g.range(..),
                actions: arb_actions(g),
            }),
        },
    }
}

#[test]
fn messages_roundtrip() {
    for_all(CASES, arb_message, |msg| {
        let bytes = msg.encode();
        let back = OfMessage::decode(&bytes).expect("decode what we encoded");
        assert_eq!(back, msg);
    });
}

#[test]
fn decoder_never_panics() {
    for_all(
        CASES,
        |g| g.vec(0..256, |g| g.range::<u8>(..)),
        |bytes| {
            let _ = OfMessage::decode(&bytes);
        },
    );
}

#[test]
fn decoder_never_panics_on_plausible_headers() {
    for_all(
        CASES,
        |g| {
            (
                g.range(0u8..24),
                g.range::<u32>(..),
                g.vec(0..128, |g| g.range::<u8>(..)),
            )
        },
        |(ty, xid, body)| {
            // A well-formed header with arbitrary body — the adversarial case.
            let mut bytes = Vec::with_capacity(8 + body.len());
            bytes.push(0x01);
            bytes.push(ty);
            bytes.extend_from_slice(&((8 + body.len()) as u16).to_be_bytes());
            bytes.extend_from_slice(&xid.to_be_bytes());
            bytes.extend_from_slice(&body);
            let _ = OfMessage::decode(&bytes);
        },
    );
}

#[test]
fn wildcard_match_covers_is_reflexive_for_exact() {
    for_all(CASES, arb_match, |m| {
        let mut exact = m;
        exact.wildcards = 0;
        assert!(Match::any().covers(&exact), "ANY must cover everything");
        assert!(exact.covers(&exact), "exact match covers itself");
    });
}

#[test]
fn switch_invariants_under_flow_mod_stream() {
    for_all(
        CASES,
        |g| {
            g.vec(1..32, |g| {
                (
                    g.range(0u8..3),
                    arb_match(g),
                    g.range::<u16>(..),
                    arb_actions(g),
                )
            })
        },
        |mods| {
            let mut sw = SwitchModel::new(1, 4);
            for (kind, match_, priority, actions) in mods {
                let command = match kind {
                    0 => FlowModCommand::Add,
                    1 => FlowModCommand::Modify,
                    _ => FlowModCommand::Delete,
                };
                sw.handle(OfMessage::FlowMod {
                    xid: 0,
                    match_,
                    cookie: 0,
                    command,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority,
                    actions,
                });
                // Invariant: the table stays sorted by descending priority.
                let prios: Vec<u16> = sw.flows().iter().map(|f| f.priority).collect();
                assert!(
                    prios.windows(2).all(|w| w[0] >= w[1]),
                    "flow table must stay priority-sorted: {:?}",
                    prios
                );
                // Invariant: no duplicate (match, priority) pairs.
                for (i, a) in sw.flows().iter().enumerate() {
                    for b in sw.flows().iter().skip(i + 1) {
                        assert!(
                            !(a.match_ == b.match_ && a.priority == b.priority),
                            "duplicate flow entries"
                        );
                    }
                }
            }
        },
    );
}

#[test]
fn stats_roundtrip_over_wire_after_mod_stream() {
    for_all(
        CASES,
        |g| g.vec(1..8, arb_match),
        |matches| {
            let mut sw = SwitchModel::new(9, 2);
            for (i, m) in matches.iter().enumerate() {
                sw.handle(OfMessage::FlowMod {
                    xid: 0,
                    match_: *m,
                    cookie: i as u64,
                    command: FlowModCommand::Add,
                    idle_timeout: 0,
                    hard_timeout: 0,
                    priority: i as u16,
                    actions: vec![Action::Output {
                        port: 1,
                        max_len: 0,
                    }],
                });
            }
            let req = OfMessage::FlowStatsRequest {
                xid: 5,
                match_: Match::any(),
                table_id: 0xFF,
            };
            let replies = sw.handle_bytes(&req.encode()).expect("well-formed request");
            assert_eq!(replies.len(), 1);
            match OfMessage::decode(&replies[0]).expect("well-formed reply") {
                OfMessage::FlowStatsReply { flows, .. } => {
                    assert_eq!(flows.len(), sw.flows().len());
                }
                other => panic!("unexpected {:?}", other),
            }
        },
    );
}
