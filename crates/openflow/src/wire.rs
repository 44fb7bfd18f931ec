//! OpenFlow 1.0 wire codec (subset).
//!
//! Every message is `[version u8][type u8][length u16][xid u32]` followed by
//! a type-specific body, all fields big-endian per the OpenFlow 1.0.0
//! specification. The subset implemented here covers what an SDN control
//! plane needs: handshake, liveness, packet punting/injection, flow
//! programming, flow statistics and port status.

/// The protocol version this codec speaks.
pub const OFP_VERSION: u8 = 0x01;

const OFPT_HELLO: u8 = 0;
const OFPT_ERROR: u8 = 1;
const OFPT_ECHO_REQUEST: u8 = 2;
const OFPT_ECHO_REPLY: u8 = 3;
const OFPT_FEATURES_REQUEST: u8 = 5;
const OFPT_FEATURES_REPLY: u8 = 6;
const OFPT_PACKET_IN: u8 = 10;
const OFPT_PORT_STATUS: u8 = 12;
const OFPT_PACKET_OUT: u8 = 13;
const OFPT_FLOW_MOD: u8 = 14;
const OFPT_STATS_REQUEST: u8 = 16;
const OFPT_STATS_REPLY: u8 = 17;

const OFPST_FLOW: u16 = 1;
const OFPAT_OUTPUT: u16 = 0;

/// Errors raised while encoding or decoding OpenFlow messages.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown or unsupported message type.
    BadType(u8),
    /// A length field is inconsistent.
    BadLength,
    /// An action or stats type we don't support.
    Unsupported(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated OpenFlow message"),
            WireError::BadVersion(v) => write!(f, "unsupported OpenFlow version {v:#x}"),
            WireError::BadType(t) => write!(f, "unsupported OpenFlow message type {t}"),
            WireError::BadLength => write!(f, "inconsistent OpenFlow length field"),
            WireError::Unsupported(what) => write!(f, "unsupported OpenFlow element: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A handler that fails on a malformed message fails with its text.
impl From<WireError> for beehive_core::Error {
    fn from(e: WireError) -> Self {
        beehive_core::Error::Other(e.to_string())
    }
}

/// Big-endian appends to the message being encoded.
trait PutBe {
    fn put_slice(&mut self, src: &[u8]);
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl PutBe for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read cursor over the message being decoded. Every read is checked
/// against what is left and fails with [`WireError::Truncated`] past the end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.0.len()
    }
    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.0.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }
    fn advance(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(drop)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }
    fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }
    fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.array()?))
    }
    fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.array()?))
    }
    fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.array()?))
    }
}

/// An OpenFlow 1.0 flow match (ofp_match, 40 bytes).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Default, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Match {
    /// Wildcard bits (1 = field is wildcarded), per spec.
    pub wildcards: u32,
    /// Ingress port.
    pub in_port: u16,
    /// Source MAC.
    pub dl_src: [u8; 6],
    /// Destination MAC.
    pub dl_dst: [u8; 6],
    /// VLAN id.
    pub dl_vlan: u16,
    /// VLAN priority.
    pub dl_vlan_pcp: u8,
    /// Ethertype.
    pub dl_type: u16,
    /// IP ToS.
    pub nw_tos: u8,
    /// IP protocol.
    pub nw_proto: u8,
    /// Source IPv4.
    pub nw_src: u32,
    /// Destination IPv4.
    pub nw_dst: u32,
    /// Source transport port.
    pub tp_src: u16,
    /// Destination transport port.
    pub tp_dst: u16,
}

/// Wildcard-all constant (every field ignored).
pub const OFPFW_ALL: u32 = 0x003F_FFFF;

impl Match {
    /// A match that matches everything.
    pub fn any() -> Self {
        Match {
            wildcards: OFPFW_ALL,
            ..Default::default()
        }
    }

    /// An exact match on destination MAC (other fields wildcarded).
    pub fn dl_dst_exact(mac: [u8; 6]) -> Self {
        // Bit 3 (OFPFW_DL_DST) cleared.
        Match {
            wildcards: OFPFW_ALL & !(1 << 3),
            dl_dst: mac,
            ..Default::default()
        }
    }

    /// An exact match on (source, destination) IPv4 (other fields wildcarded).
    pub fn nw_pair(nw_src: u32, nw_dst: u32) -> Self {
        // Clear all 6 bits of each nw_src/nw_dst mask field: 0 = exact.
        let wildcards = OFPFW_ALL & !(0x3F << 8) & !(0x3F << 14);
        Match {
            wildcards,
            nw_src,
            nw_dst,
            ..Default::default()
        }
    }

    /// Whether a concrete packet header (expressed as an exact `Match`)
    /// satisfies this (possibly wildcarded) match.
    pub fn covers(&self, pkt: &Match) -> bool {
        let w = self.wildcards;
        let nw_src_bits = ((w >> 8) & 0x3F).min(32);
        let nw_dst_bits = ((w >> 14) & 0x3F).min(32);
        let src_mask = if nw_src_bits >= 32 {
            0
        } else {
            u32::MAX << nw_src_bits
        };
        let dst_mask = if nw_dst_bits >= 32 {
            0
        } else {
            u32::MAX << nw_dst_bits
        };
        (w & 1 != 0 || self.in_port == pkt.in_port)
            && (w & (1 << 1) != 0 || self.dl_vlan == pkt.dl_vlan)
            && (w & (1 << 2) != 0 || self.dl_src == pkt.dl_src)
            && (w & (1 << 3) != 0 || self.dl_dst == pkt.dl_dst)
            && (w & (1 << 4) != 0 || self.dl_type == pkt.dl_type)
            && (w & (1 << 5) != 0 || self.nw_proto == pkt.nw_proto)
            && (w & (1 << 6) != 0 || self.tp_src == pkt.tp_src)
            && (w & (1 << 7) != 0 || self.tp_dst == pkt.tp_dst)
            && (self.nw_src & src_mask) == (pkt.nw_src & src_mask)
            && (self.nw_dst & dst_mask) == (pkt.nw_dst & dst_mask)
            && (w & (1 << 20) != 0 || self.dl_vlan_pcp == pkt.dl_vlan_pcp)
            && (w & (1 << 21) != 0 || self.nw_tos == pkt.nw_tos)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u32(self.wildcards);
        buf.put_u16(self.in_port);
        buf.put_slice(&self.dl_src);
        buf.put_slice(&self.dl_dst);
        buf.put_u16(self.dl_vlan);
        buf.put_u8(self.dl_vlan_pcp);
        buf.put_u8(0); // pad
        buf.put_u16(self.dl_type);
        buf.put_u8(self.nw_tos);
        buf.put_u8(self.nw_proto);
        buf.put_slice(&[0, 0]); // pad
        buf.put_u32(self.nw_src);
        buf.put_u32(self.nw_dst);
        buf.put_u16(self.tp_src);
        buf.put_u16(self.tp_dst);
    }

    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        if buf.remaining() < 40 {
            return Err(WireError::Truncated);
        }
        let wildcards = buf.get_u32()?;
        let in_port = buf.get_u16()?;
        let dl_src: [u8; 6] = buf.array()?;
        let dl_dst: [u8; 6] = buf.array()?;
        let dl_vlan = buf.get_u16()?;
        let dl_vlan_pcp = buf.get_u8()?;
        buf.advance(1)?;
        let dl_type = buf.get_u16()?;
        let nw_tos = buf.get_u8()?;
        let nw_proto = buf.get_u8()?;
        buf.advance(2)?;
        let nw_src = buf.get_u32()?;
        let nw_dst = buf.get_u32()?;
        let tp_src = buf.get_u16()?;
        let tp_dst = buf.get_u16()?;
        Ok(Match {
            wildcards,
            in_port,
            dl_src,
            dl_dst,
            dl_vlan,
            dl_vlan_pcp,
            dl_type,
            nw_tos,
            nw_proto,
            nw_src,
            nw_dst,
            tp_src,
            tp_dst,
        })
    }
}

/// Flow actions (subset: output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Action {
    /// Forward to a port (`OFPAT_OUTPUT`).
    Output {
        /// Egress port (or a reserved port like `OFPP_CONTROLLER` 0xFFFD).
        port: u16,
        /// Max bytes to send to the controller when port is CONTROLLER.
        max_len: u16,
    },
}

/// The reserved CONTROLLER port.
pub const OFPP_CONTROLLER: u16 = 0xFFFD;
/// The reserved FLOOD port.
pub const OFPP_FLOOD: u16 = 0xFFFB;

impl Action {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Action::Output { port, max_len } => {
                buf.put_u16(OFPAT_OUTPUT);
                buf.put_u16(8);
                buf.put_u16(*port);
                buf.put_u16(*max_len);
            }
        }
    }

    fn decode_list(buf: &[u8]) -> Result<Vec<Action>, WireError> {
        let mut buf = Reader(buf);
        let mut actions = Vec::new();
        while buf.remaining() >= 4 {
            let ty = buf.get_u16()?;
            let len = buf.get_u16()? as usize;
            if len < 4 || buf.remaining() < len - 4 {
                return Err(WireError::BadLength);
            }
            match ty {
                OFPAT_OUTPUT => {
                    if len != 8 {
                        return Err(WireError::BadLength);
                    }
                    let port = buf.get_u16()?;
                    let max_len = buf.get_u16()?;
                    actions.push(Action::Output { port, max_len });
                }
                _ => {
                    // Skip unknown action types (forward compatible).
                    buf.advance(len - 4)?;
                }
            }
        }
        Ok(actions)
    }

    fn encoded_list_len(actions: &[Action]) -> usize {
        actions.len() * 8
    }
}

/// FLOW_MOD commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FlowModCommand {
    /// Add a new flow.
    Add,
    /// Modify matching flows.
    Modify,
    /// Delete matching flows.
    Delete,
}

impl FlowModCommand {
    fn to_u16(self) -> u16 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::Delete => 3,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        match v {
            0 => Ok(FlowModCommand::Add),
            1 | 2 => Ok(FlowModCommand::Modify),
            3 | 4 => Ok(FlowModCommand::Delete),
            _ => Err(WireError::Unsupported("flow_mod command")),
        }
    }
}

/// Why a packet was punted to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PacketInReason {
    /// No matching flow entry.
    NoMatch,
    /// An action explicitly sent it.
    Action,
}

/// A physical port description (subset of ofp_phy_port; 48 bytes on wire).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PhyPort {
    /// Port number.
    pub port_no: u16,
    /// MAC address.
    pub hw_addr: [u8; 6],
    /// Port name (up to 16 bytes).
    pub name: String,
}

impl PhyPort {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.put_u16(self.port_no);
        buf.put_slice(&self.hw_addr);
        let mut name = [0u8; 16];
        let bytes = self.name.as_bytes();
        let n = bytes.len().min(15);
        name[..n].copy_from_slice(&bytes[..n]);
        buf.put_slice(&name);
        // config, state, curr, advertised, supported, peer
        buf.put_slice(&[0u8; 24]);
    }

    fn decode(buf: &mut Reader<'_>) -> Result<Self, WireError> {
        if buf.remaining() < 48 {
            return Err(WireError::Truncated);
        }
        let port_no = buf.get_u16()?;
        let hw_addr: [u8; 6] = buf.array()?;
        let name: [u8; 16] = buf.array()?;
        buf.advance(24)?;
        let end = name.iter().position(|&b| b == 0).unwrap_or(16);
        let name = String::from_utf8_lossy(&name[..end]).into_owned();
        Ok(PhyPort {
            port_no,
            hw_addr,
            name,
        })
    }
}

/// One flow's statistics in a flow-stats reply (subset of ofp_flow_stats).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlowStatsEntry {
    /// Table the flow lives in.
    pub table_id: u8,
    /// The flow's match.
    pub match_: Match,
    /// Seconds the flow has been installed.
    pub duration_sec: u32,
    /// Flow priority.
    pub priority: u16,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Packets matched.
    pub packet_count: u64,
    /// Bytes matched.
    pub byte_count: u64,
    /// The flow's actions.
    pub actions: Vec<Action>,
}

const FLOW_STATS_FIXED: usize = 88; // per spec: length..actions offset

/// The OpenFlow messages this codec understands.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum OfMessage {
    /// Version negotiation.
    Hello {
        /// Transaction id.
        xid: u32,
    },
    /// Liveness probe.
    EchoRequest {
        /// Transaction id.
        xid: u32,
        /// Opaque payload, echoed back.
        data: Vec<u8>,
    },
    /// Liveness response.
    EchoReply {
        /// Transaction id.
        xid: u32,
        /// Echoed payload.
        data: Vec<u8>,
    },
    /// Asks the switch to describe itself.
    FeaturesRequest {
        /// Transaction id.
        xid: u32,
    },
    /// The switch's self-description.
    FeaturesReply {
        /// Transaction id.
        xid: u32,
        /// Datapath id.
        datapath_id: u64,
        /// Packet buffer count.
        n_buffers: u32,
        /// Number of flow tables.
        n_tables: u8,
        /// Capability bits.
        capabilities: u32,
        /// Physical ports.
        ports: Vec<PhyPort>,
    },
    /// A packet punted to the controller.
    PacketIn {
        /// Transaction id.
        xid: u32,
        /// Buffer id on the switch (0xFFFFFFFF = unbuffered).
        buffer_id: u32,
        /// Full length of the original frame.
        total_len: u16,
        /// Ingress port.
        in_port: u16,
        /// Why it was punted.
        reason: PacketInReason,
        /// (Truncated) packet bytes.
        data: Vec<u8>,
    },
    /// A packet injected by the controller.
    PacketOut {
        /// Transaction id.
        xid: u32,
        /// Buffer to release (0xFFFFFFFF = use `data`).
        buffer_id: u32,
        /// Nominal ingress port.
        in_port: u16,
        /// Actions to apply.
        actions: Vec<Action>,
        /// Raw packet when unbuffered.
        data: Vec<u8>,
    },
    /// Flow table modification.
    FlowMod {
        /// Transaction id.
        xid: u32,
        /// Which flows to touch.
        match_: Match,
        /// Controller cookie.
        cookie: u64,
        /// Add/modify/delete.
        command: FlowModCommand,
        /// Idle timeout (s).
        idle_timeout: u16,
        /// Hard timeout (s).
        hard_timeout: u16,
        /// Priority.
        priority: u16,
        /// New actions.
        actions: Vec<Action>,
    },
    /// Flow statistics request (OFPST_FLOW).
    FlowStatsRequest {
        /// Transaction id.
        xid: u32,
        /// Flows to report.
        match_: Match,
        /// Table filter (0xFF = all).
        table_id: u8,
    },
    /// Flow statistics reply.
    FlowStatsReply {
        /// Transaction id.
        xid: u32,
        /// One entry per flow.
        flows: Vec<FlowStatsEntry>,
    },
    /// Port up/down notification.
    PortStatus {
        /// Transaction id.
        xid: u32,
        /// 0 = add, 1 = delete, 2 = modify.
        reason: u8,
        /// The port.
        desc: PhyPort,
    },
    /// An error report.
    Error {
        /// Transaction id.
        xid: u32,
        /// Error type.
        err_type: u16,
        /// Error code.
        code: u16,
        /// Offending data.
        data: Vec<u8>,
    },
}

impl OfMessage {
    /// The message's transaction id.
    pub fn xid(&self) -> u32 {
        match self {
            OfMessage::Hello { xid }
            | OfMessage::EchoRequest { xid, .. }
            | OfMessage::EchoReply { xid, .. }
            | OfMessage::FeaturesRequest { xid }
            | OfMessage::FeaturesReply { xid, .. }
            | OfMessage::PacketIn { xid, .. }
            | OfMessage::PacketOut { xid, .. }
            | OfMessage::FlowMod { xid, .. }
            | OfMessage::FlowStatsRequest { xid, .. }
            | OfMessage::FlowStatsReply { xid, .. }
            | OfMessage::PortStatus { xid, .. }
            | OfMessage::Error { xid, .. } => *xid,
        }
    }

    /// Encodes into OpenFlow 1.0 wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        // Header placeholder; length patched at the end.
        let (ty, xid) = match self {
            OfMessage::Hello { xid } => (OFPT_HELLO, *xid),
            OfMessage::EchoRequest { xid, .. } => (OFPT_ECHO_REQUEST, *xid),
            OfMessage::EchoReply { xid, .. } => (OFPT_ECHO_REPLY, *xid),
            OfMessage::FeaturesRequest { xid } => (OFPT_FEATURES_REQUEST, *xid),
            OfMessage::FeaturesReply { xid, .. } => (OFPT_FEATURES_REPLY, *xid),
            OfMessage::PacketIn { xid, .. } => (OFPT_PACKET_IN, *xid),
            OfMessage::PacketOut { xid, .. } => (OFPT_PACKET_OUT, *xid),
            OfMessage::FlowMod { xid, .. } => (OFPT_FLOW_MOD, *xid),
            OfMessage::FlowStatsRequest { xid, .. } => (OFPT_STATS_REQUEST, *xid),
            OfMessage::FlowStatsReply { xid, .. } => (OFPT_STATS_REPLY, *xid),
            OfMessage::PortStatus { xid, .. } => (OFPT_PORT_STATUS, *xid),
            OfMessage::Error { xid, .. } => (OFPT_ERROR, *xid),
        };
        buf.put_u8(OFP_VERSION);
        buf.put_u8(ty);
        buf.put_u16(0); // length patched below
        buf.put_u32(xid);

        match self {
            OfMessage::Hello { .. } | OfMessage::FeaturesRequest { .. } => {}
            OfMessage::EchoRequest { data, .. } | OfMessage::EchoReply { data, .. } => {
                buf.put_slice(data);
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_buffers,
                n_tables,
                capabilities,
                ports,
                ..
            } => {
                buf.put_u64(*datapath_id);
                buf.put_u32(*n_buffers);
                buf.put_u8(*n_tables);
                buf.put_slice(&[0u8; 3]);
                buf.put_u32(*capabilities);
                buf.put_u32(0); // actions bitmap
                for p in ports {
                    p.encode(&mut buf);
                }
            }
            OfMessage::PacketIn {
                buffer_id,
                total_len,
                in_port,
                reason,
                data,
                ..
            } => {
                buf.put_u32(*buffer_id);
                buf.put_u16(*total_len);
                buf.put_u16(*in_port);
                buf.put_u8(match reason {
                    PacketInReason::NoMatch => 0,
                    PacketInReason::Action => 1,
                });
                buf.put_u8(0);
                buf.put_slice(data);
            }
            OfMessage::PacketOut {
                buffer_id,
                in_port,
                actions,
                data,
                ..
            } => {
                buf.put_u32(*buffer_id);
                buf.put_u16(*in_port);
                buf.put_u16(Action::encoded_list_len(actions) as u16);
                for a in actions {
                    a.encode(&mut buf);
                }
                buf.put_slice(data);
            }
            OfMessage::FlowMod {
                match_,
                cookie,
                command,
                idle_timeout,
                hard_timeout,
                priority,
                actions,
                ..
            } => {
                match_.encode(&mut buf);
                buf.put_u64(*cookie);
                buf.put_u16(command.to_u16());
                buf.put_u16(*idle_timeout);
                buf.put_u16(*hard_timeout);
                buf.put_u16(*priority);
                buf.put_u32(u32::MAX); // buffer_id: none
                buf.put_u16(0xFFFF); // out_port: any
                buf.put_u16(0); // flags
                for a in actions {
                    a.encode(&mut buf);
                }
            }
            OfMessage::FlowStatsRequest {
                match_, table_id, ..
            } => {
                buf.put_u16(OFPST_FLOW);
                buf.put_u16(0); // flags
                match_.encode(&mut buf);
                buf.put_u8(*table_id);
                buf.put_u8(0);
                buf.put_u16(0xFFFF); // out_port
            }
            OfMessage::FlowStatsReply { flows, .. } => {
                buf.put_u16(OFPST_FLOW);
                buf.put_u16(0); // flags
                for f in flows {
                    let len = FLOW_STATS_FIXED + Action::encoded_list_len(&f.actions);
                    buf.put_u16(len as u16);
                    buf.put_u8(f.table_id);
                    buf.put_u8(0);
                    f.match_.encode(&mut buf);
                    buf.put_u32(f.duration_sec);
                    buf.put_u32(0); // duration_nsec
                    buf.put_u16(f.priority);
                    buf.put_u16(0); // idle_timeout
                    buf.put_u16(0); // hard_timeout
                    buf.put_slice(&[0u8; 6]);
                    buf.put_u64(f.cookie);
                    buf.put_u64(f.packet_count);
                    buf.put_u64(f.byte_count);
                    for a in &f.actions {
                        a.encode(&mut buf);
                    }
                }
            }
            OfMessage::PortStatus { reason, desc, .. } => {
                buf.put_u8(*reason);
                buf.put_slice(&[0u8; 7]);
                desc.encode(&mut buf);
            }
            OfMessage::Error {
                err_type,
                code,
                data,
                ..
            } => {
                buf.put_u16(*err_type);
                buf.put_u16(*code);
                buf.put_slice(data);
            }
        }

        let len = buf.len() as u16;
        buf[2..4].copy_from_slice(&len.to_be_bytes());
        buf
    }

    /// Decodes one OpenFlow 1.0 message. The slice must contain exactly one
    /// message (as framed by the header's length field).
    pub fn decode(bytes: &[u8]) -> Result<OfMessage, WireError> {
        let mut buf = Reader(bytes);
        if buf.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let version = buf.get_u8()?;
        if version != OFP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let ty = buf.get_u8()?;
        let length = buf.get_u16()? as usize;
        let xid = buf.get_u32()?;
        if length != bytes.len() {
            return Err(WireError::BadLength);
        }

        match ty {
            OFPT_HELLO => Ok(OfMessage::Hello { xid }),
            OFPT_ECHO_REQUEST => Ok(OfMessage::EchoRequest {
                xid,
                data: buf.0.to_vec(),
            }),
            OFPT_ECHO_REPLY => Ok(OfMessage::EchoReply {
                xid,
                data: buf.0.to_vec(),
            }),
            OFPT_FEATURES_REQUEST => Ok(OfMessage::FeaturesRequest { xid }),
            OFPT_FEATURES_REPLY => {
                if buf.remaining() < 24 {
                    return Err(WireError::Truncated);
                }
                let datapath_id = buf.get_u64()?;
                let n_buffers = buf.get_u32()?;
                let n_tables = buf.get_u8()?;
                buf.advance(3)?;
                let capabilities = buf.get_u32()?;
                buf.advance(4)?;
                let mut ports = Vec::new();
                while buf.remaining() >= 48 {
                    ports.push(PhyPort::decode(&mut buf)?);
                }
                Ok(OfMessage::FeaturesReply {
                    xid,
                    datapath_id,
                    n_buffers,
                    n_tables,
                    capabilities,
                    ports,
                })
            }
            OFPT_PACKET_IN => {
                if buf.remaining() < 10 {
                    return Err(WireError::Truncated);
                }
                let buffer_id = buf.get_u32()?;
                let total_len = buf.get_u16()?;
                let in_port = buf.get_u16()?;
                let reason = match buf.get_u8()? {
                    0 => PacketInReason::NoMatch,
                    _ => PacketInReason::Action,
                };
                buf.advance(1)?;
                Ok(OfMessage::PacketIn {
                    xid,
                    buffer_id,
                    total_len,
                    in_port,
                    reason,
                    data: buf.0.to_vec(),
                })
            }
            OFPT_PACKET_OUT => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let buffer_id = buf.get_u32()?;
                let in_port = buf.get_u16()?;
                let actions_len = buf.get_u16()? as usize;
                if buf.remaining() < actions_len {
                    return Err(WireError::Truncated);
                }
                let actions = Action::decode_list(buf.take(actions_len)?)?;
                Ok(OfMessage::PacketOut {
                    xid,
                    buffer_id,
                    in_port,
                    actions,
                    data: buf.0.to_vec(),
                })
            }
            OFPT_FLOW_MOD => {
                let match_ = Match::decode(&mut buf)?;
                if buf.remaining() < 24 {
                    return Err(WireError::Truncated);
                }
                let cookie = buf.get_u64()?;
                let command = FlowModCommand::from_u16(buf.get_u16()?)?;
                let idle_timeout = buf.get_u16()?;
                let hard_timeout = buf.get_u16()?;
                let priority = buf.get_u16()?;
                buf.advance(8)?; // buffer_id + out_port + flags
                let actions = Action::decode_list(buf.0)?;
                Ok(OfMessage::FlowMod {
                    xid,
                    match_,
                    cookie,
                    command,
                    idle_timeout,
                    hard_timeout,
                    priority,
                    actions,
                })
            }
            OFPT_STATS_REQUEST => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let stats_type = buf.get_u16()?;
                buf.advance(2)?;
                if stats_type != OFPST_FLOW {
                    return Err(WireError::Unsupported("stats type"));
                }
                let match_ = Match::decode(&mut buf)?;
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let table_id = buf.get_u8()?;
                buf.advance(3)?;
                Ok(OfMessage::FlowStatsRequest {
                    xid,
                    match_,
                    table_id,
                })
            }
            OFPT_STATS_REPLY => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let stats_type = buf.get_u16()?;
                buf.advance(2)?;
                if stats_type != OFPST_FLOW {
                    return Err(WireError::Unsupported("stats type"));
                }
                let mut flows = Vec::new();
                while buf.remaining() >= FLOW_STATS_FIXED {
                    let entry_len = buf.get_u16()? as usize;
                    if entry_len < FLOW_STATS_FIXED || buf.remaining() < entry_len - 2 {
                        return Err(WireError::BadLength);
                    }
                    let table_id = buf.get_u8()?;
                    buf.advance(1)?;
                    let match_ = Match::decode(&mut buf)?;
                    let duration_sec = buf.get_u32()?;
                    buf.advance(4)?; // nsec
                    let priority = buf.get_u16()?;
                    buf.advance(4)?; // idle + hard
                    buf.advance(6)?; // pad
                    let cookie = buf.get_u64()?;
                    let packet_count = buf.get_u64()?;
                    let byte_count = buf.get_u64()?;
                    let actions_len = entry_len - FLOW_STATS_FIXED;
                    if buf.remaining() < actions_len {
                        return Err(WireError::Truncated);
                    }
                    let actions = Action::decode_list(buf.take(actions_len)?)?;
                    flows.push(FlowStatsEntry {
                        table_id,
                        match_,
                        duration_sec,
                        priority,
                        cookie,
                        packet_count,
                        byte_count,
                        actions,
                    });
                }
                Ok(OfMessage::FlowStatsReply { xid, flows })
            }
            OFPT_PORT_STATUS => {
                if buf.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let reason = buf.get_u8()?;
                buf.advance(7)?;
                let desc = PhyPort::decode(&mut buf)?;
                Ok(OfMessage::PortStatus { xid, reason, desc })
            }
            OFPT_ERROR => {
                if buf.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let err_type = buf.get_u16()?;
                let code = buf.get_u16()?;
                Ok(OfMessage::Error {
                    xid,
                    err_type,
                    code,
                    data: buf.0.to_vec(),
                })
            }
            other => Err(WireError::BadType(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: OfMessage) {
        let bytes = msg.encode();
        assert_eq!(&bytes[0..1], &[OFP_VERSION]);
        let got_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        assert_eq!(got_len, bytes.len(), "length field must match");
        let back = OfMessage::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn hello_and_echo_roundtrip() {
        roundtrip(OfMessage::Hello { xid: 1 });
        roundtrip(OfMessage::EchoRequest {
            xid: 2,
            data: vec![1, 2, 3],
        });
        roundtrip(OfMessage::EchoReply {
            xid: 3,
            data: vec![],
        });
    }

    #[test]
    fn features_roundtrip() {
        roundtrip(OfMessage::FeaturesRequest { xid: 4 });
        roundtrip(OfMessage::FeaturesReply {
            xid: 5,
            datapath_id: 0xAABB,
            n_buffers: 256,
            n_tables: 2,
            capabilities: 0x1,
            ports: vec![
                PhyPort {
                    port_no: 1,
                    hw_addr: [1, 2, 3, 4, 5, 6],
                    name: "eth1".into(),
                },
                PhyPort {
                    port_no: 2,
                    hw_addr: [6, 5, 4, 3, 2, 1],
                    name: "eth2".into(),
                },
            ],
        });
    }

    #[test]
    fn packet_in_out_roundtrip() {
        roundtrip(OfMessage::PacketIn {
            xid: 6,
            buffer_id: u32::MAX,
            total_len: 64,
            in_port: 3,
            reason: PacketInReason::NoMatch,
            data: vec![0xDE, 0xAD],
        });
        roundtrip(OfMessage::PacketOut {
            xid: 7,
            buffer_id: u32::MAX,
            in_port: 0xFFF8,
            actions: vec![Action::Output {
                port: OFPP_FLOOD,
                max_len: 0,
            }],
            data: vec![0xBE, 0xEF],
        });
    }

    #[test]
    fn flow_mod_roundtrip() {
        roundtrip(OfMessage::FlowMod {
            xid: 8,
            match_: Match::dl_dst_exact([1, 2, 3, 4, 5, 6]),
            cookie: 42,
            command: FlowModCommand::Add,
            idle_timeout: 60,
            hard_timeout: 0,
            priority: 100,
            actions: vec![Action::Output {
                port: 2,
                max_len: 0,
            }],
        });
    }

    #[test]
    fn flow_stats_roundtrip() {
        roundtrip(OfMessage::FlowStatsRequest {
            xid: 9,
            match_: Match::any(),
            table_id: 0xFF,
        });
        roundtrip(OfMessage::FlowStatsReply {
            xid: 10,
            flows: vec![
                FlowStatsEntry {
                    table_id: 0,
                    match_: Match::nw_pair(0x0A000001, 0x0A000002),
                    duration_sec: 12,
                    priority: 10,
                    cookie: 7,
                    packet_count: 1000,
                    byte_count: 64_000,
                    actions: vec![Action::Output {
                        port: 1,
                        max_len: 0,
                    }],
                },
                FlowStatsEntry {
                    table_id: 0,
                    match_: Match::any(),
                    duration_sec: 99,
                    priority: 0,
                    cookie: 0,
                    packet_count: 5,
                    byte_count: 300,
                    actions: vec![],
                },
            ],
        });
    }

    #[test]
    fn port_status_and_error_roundtrip() {
        roundtrip(OfMessage::PortStatus {
            xid: 11,
            reason: 1,
            desc: PhyPort {
                port_no: 7,
                hw_addr: [0; 6],
                name: "down0".into(),
            },
        });
        roundtrip(OfMessage::Error {
            xid: 12,
            err_type: 1,
            code: 2,
            data: vec![9, 9],
        });
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = OfMessage::Hello { xid: 1 }.encode();
        bytes[0] = 0x04;
        assert_eq!(OfMessage::decode(&bytes), Err(WireError::BadVersion(0x04)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = OfMessage::Hello { xid: 1 }.encode();
        bytes[3] += 1;
        assert_eq!(OfMessage::decode(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = OfMessage::FeaturesReply {
            xid: 1,
            datapath_id: 1,
            n_buffers: 0,
            n_tables: 1,
            capabilities: 0,
            ports: vec![],
        }
        .encode();
        assert!(OfMessage::decode(&bytes[..10]).is_err());
    }

    #[test]
    fn match_covers_semantics() {
        let any = Match::any();
        let pkt = Match {
            wildcards: 0,
            in_port: 1,
            dl_dst: [1, 2, 3, 4, 5, 6],
            nw_src: 0x0A000001,
            nw_dst: 0x0A000002,
            ..Default::default()
        };
        assert!(any.covers(&pkt));
        assert!(Match::dl_dst_exact([1, 2, 3, 4, 5, 6]).covers(&pkt));
        assert!(!Match::dl_dst_exact([9, 9, 9, 9, 9, 9]).covers(&pkt));
        assert!(Match::nw_pair(0x0A000001, 0x0A000002).covers(&pkt));
        assert!(!Match::nw_pair(0x0A000001, 0x0A000003).covers(&pkt));
    }

    #[test]
    fn unknown_actions_are_skipped() {
        // A 8-byte action of unknown type 0x7 followed by a valid output.
        let mut raw = Vec::new();
        raw.extend_from_slice(&0x0007u16.to_be_bytes());
        raw.extend_from_slice(&8u16.to_be_bytes());
        raw.extend_from_slice(&[0; 4]);
        raw.extend_from_slice(&OFPAT_OUTPUT.to_be_bytes());
        raw.extend_from_slice(&8u16.to_be_bytes());
        raw.extend_from_slice(&3u16.to_be_bytes());
        raw.extend_from_slice(&0u16.to_be_bytes());
        let actions = Action::decode_list(&raw).unwrap();
        assert_eq!(
            actions,
            vec![Action::Output {
                port: 3,
                max_len: 0
            }]
        );
    }
}
