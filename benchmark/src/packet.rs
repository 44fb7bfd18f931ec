//! The bytes on the emulated switch's control channel.
//!
//! Upstream, a real encoded `OfMessage::PacketIn` whose packet carries the
//! event id; downstream, the two replies the bench's `SwitchIo` must
//! recognise without decoding into owned structures (that is the measured
//! path). The offsets below are OpenFlow 1.0's; the unit tests hold them to
//! `beehive_openflow::OfMessage::{encode, decode}`.

use beehive_openflow::wire::{OfMessage, PacketInReason};

pub const OFPT_PACKET_OUT: u8 = 13;
pub const OFPT_FLOW_MOD: u8 = 14;
pub const OFPP_FLOOD: u16 = 0xFFFB;

/// PACKET_IN: 8 B header, buffer_id(4) total_len(2) in_port(2) reason(1) pad(1).
const PKTIN_IN_PORT: usize = 14;
const PKTIN_DATA: usize = 18;
/// Inside the packet: dst MAC, src MAC, ethertype, then the bench's fields.
const ETH_DST: usize = 0;
const ETH_SRC: usize = 6;
const PKT_ID: usize = 14;
const PKT_FLAGS: usize = 22;
/// Smallest packet that holds the Ethernet header, the id and the flags.
pub const MIN_PKT: usize = 23;

/// Set in the packet's flag byte when the destination is not yet learned, so
/// the reply must be a flood with no FLOW_MOD before it (MAC learning during
/// set-up).
pub const FLAG_EXPECT_FLOOD: u8 = 1;

/// PACKET_OUT: 8 B header, buffer_id(4) in_port(2) actions_len(2), actions, data.
const PKTOUT_ACTIONS_LEN: usize = 14;
const PKTOUT_ACTIONS: usize = 16;
/// FLOW_MOD: 8 B header, 40 B match (wildcards(4) in_port(2) dl_src(6)
/// dl_dst(6) …), cookie(8) command(2) idle(2) hard(2) priority(2)
/// buffer_id(4) out_port(2) flags(2), actions.
const FLOWMOD_DL_DST: usize = 8 + 12;
const FLOWMOD_ACTIONS: usize = 72;
/// An output action: type(2)=0 len(2)=8 port(2) max_len(2).
const ACTION_PORT: usize = 4;

/// MAC of host `host` on switch `dpid`: locally administered, and readable
/// back into `(dpid, host)`.
pub fn mac(dpid: u64, host: u8) -> [u8; 6] {
    [0x02, 0xBE, (dpid >> 8) as u8, dpid as u8, 0, host]
}

/// The port host `host` sits on; what the learning switch must answer.
pub fn port_of(host: u8) -> u16 {
    u16::from(host) + 1
}

pub fn mac_to_u64(mac: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b[2..8].copy_from_slice(&mac[..6]);
    u64::from_be_bytes(b)
}

/// A PACKET_IN encoded once by the codec under test; each event is a copy
/// with its few varying fields patched in.
pub struct PacketInTemplate {
    bytes: Vec<u8>,
}

impl PacketInTemplate {
    pub fn new(pkt_len: usize) -> Self {
        assert!(pkt_len >= MIN_PKT, "packet too short for the event id");
        let mut data = vec![0u8; pkt_len];
        data[12..14].copy_from_slice(&0x88B5u16.to_be_bytes()); // local experimental ethertype
        let bytes = OfMessage::PacketIn {
            xid: 0,
            buffer_id: u32::MAX, // NO_BUFFER: the whole packet is punted
            total_len: pkt_len as u16,
            in_port: 0,
            reason: PacketInReason::NoMatch,
            data,
        }
        .encode();
        PacketInTemplate { bytes }
    }

    /// The upstream bytes of one event: `src` on `dpid` sends to `dst`.
    pub fn event(&self, dpid: u64, src: u8, dst: u8, id: u64, flags: u8) -> Vec<u8> {
        let mut b = self.bytes.clone();
        b[PKTIN_IN_PORT..PKTIN_IN_PORT + 2].copy_from_slice(&port_of(src).to_be_bytes());
        let pkt = &mut b[PKTIN_DATA..];
        pkt[ETH_DST..ETH_DST + 6].copy_from_slice(&mac(dpid, dst));
        pkt[ETH_SRC..ETH_SRC + 6].copy_from_slice(&mac(dpid, src));
        pkt[PKT_ID..PKT_ID + 8].copy_from_slice(&id.to_be_bytes());
        pkt[PKT_FLAGS] = flags;
        b
    }
}

/// What a downstream message says, read in place.
#[derive(Debug, PartialEq, Eq)]
pub enum Reply {
    /// A rule for `dl_dst` forwarding to `out_port`.
    FlowMod { dl_dst: u64, out_port: u16 },
    /// The punted packet released to `out_port`, echoing the event.
    PacketOut {
        id: u64,
        flags: u8,
        dl_dst: u64,
        dst_host: u8,
        out_port: u16,
    },
    /// Anything else (handshake traffic during set-up).
    Other,
    /// Shorter than its own type requires.
    Malformed,
}

fn be16(b: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes(b.get(at..at + 2)?.try_into().ok()?))
}

pub fn parse_reply(b: &[u8]) -> Reply {
    match b.get(1) {
        Some(&OFPT_FLOW_MOD) => {
            let (Some(dst), Some(port)) = (
                b.get(FLOWMOD_DL_DST..FLOWMOD_DL_DST + 6),
                be16(b, FLOWMOD_ACTIONS + ACTION_PORT),
            ) else {
                return Reply::Malformed;
            };
            Reply::FlowMod {
                dl_dst: mac_to_u64(dst),
                out_port: port,
            }
        }
        Some(&OFPT_PACKET_OUT) => {
            let Some(actions_len) = be16(b, PKTOUT_ACTIONS_LEN) else {
                return Reply::Malformed;
            };
            let data = PKTOUT_ACTIONS + actions_len as usize;
            let (Some(port), Some(pkt)) = (be16(b, PKTOUT_ACTIONS + ACTION_PORT), b.get(data..))
            else {
                return Reply::Malformed;
            };
            if pkt.len() < MIN_PKT {
                return Reply::Malformed;
            }
            Reply::PacketOut {
                id: u64::from_be_bytes(pkt[PKT_ID..PKT_ID + 8].try_into().expect("8 bytes")),
                flags: pkt[PKT_FLAGS],
                dl_dst: mac_to_u64(&pkt[ETH_DST..ETH_DST + 6]),
                dst_host: pkt[ETH_DST + 5],
                out_port: port,
            }
        }
        Some(_) => Reply::Other,
        None => Reply::Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_openflow::wire::{Action, FlowModCommand, Match};

    /// The event id survives encode → decode → the learning switch's echo →
    /// encode → the sink's in-place read, at both packet sizes.
    #[test]
    fn event_id_round_trips_through_the_codec() {
        for pkt_len in [64usize, 1500] {
            let tpl = PacketInTemplate::new(pkt_len);
            let id = 0xA1B2_C3D4_0000_0000 | pkt_len as u64;
            let up = tpl.event(7, 3, 9, id, 0);
            let OfMessage::PacketIn {
                in_port,
                data,
                buffer_id,
                total_len,
                ..
            } = OfMessage::decode(&up).expect("template patches keep the message valid")
            else {
                panic!("not a PACKET_IN");
            };
            assert_eq!(in_port, port_of(3));
            assert_eq!(buffer_id, u32::MAX);
            assert_eq!(total_len as usize, pkt_len);
            assert_eq!(data.len(), pkt_len);
            assert_eq!(&data[0..6], &mac(7, 9));
            assert_eq!(&data[6..12], &mac(7, 3));

            let down = OfMessage::PacketOut {
                xid: 5,
                buffer_id: u32::MAX,
                in_port,
                actions: vec![Action::Output {
                    port: port_of(9),
                    max_len: 0,
                }],
                data,
            }
            .encode();
            assert_eq!(
                parse_reply(&down),
                Reply::PacketOut {
                    id,
                    flags: 0,
                    dl_dst: mac_to_u64(&mac(7, 9)),
                    dst_host: 9,
                    out_port: port_of(9),
                }
            );
        }
    }

    #[test]
    fn flow_mod_offsets_match_the_codec() {
        let down = OfMessage::FlowMod {
            xid: 9,
            match_: Match::dl_dst_exact(mac(300, 17)),
            cookie: 0,
            command: FlowModCommand::Add,
            idle_timeout: 0,
            hard_timeout: 0,
            priority: 5,
            actions: vec![Action::Output {
                port: port_of(17),
                max_len: 0,
            }],
        }
        .encode();
        assert_eq!(
            parse_reply(&down),
            Reply::FlowMod {
                dl_dst: mac_to_u64(&mac(300, 17)),
                out_port: 18,
            }
        );
    }

    #[test]
    fn handshake_and_garbage_are_told_apart() {
        assert_eq!(
            parse_reply(&OfMessage::Hello { xid: 0 }.encode()),
            Reply::Other
        );
        assert_eq!(parse_reply(&[]), Reply::Malformed);
        assert_eq!(parse_reply(&[1, OFPT_FLOW_MOD, 0, 8]), Reply::Malformed);
        assert_eq!(parse_reply(&[1, OFPT_PACKET_OUT, 0, 8]), Reply::Malformed);
    }
}
