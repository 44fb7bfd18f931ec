//! Platform-internal control messages exchanged between hives (migration
//! protocol, registry forwarding, colony merges).

use serde::{Deserialize, Serialize};

use crate::cell::Cell;
use crate::id::{AppName, BeeId, HiveId};
use crate::message::{Dst, Source, WireEnvelope};
use crate::registry::RegistryCommand;
use crate::trace::TraceContext;

/// The reserved [`WireEnvelope::type_name`] of a state shipment: a
/// [`ControlMsg::MigrateState`] or [`ControlMsg::MergeState`] carried on the
/// reliable channel, its payload the `ControlMsg` encoding. No application
/// message has this name: theirs are Rust type paths.
const SHIPMENT: &str = "#shipment";

/// Hive-to-hive platform traffic. Not visible to applications.
#[derive(Debug, Clone)]
pub enum ControlMsg {
    /// A registry command forwarded toward the current registry leader.
    RegistryForward(RegistryCommand),
    /// Asks the hive currently hosting `bee` to migrate it to `to`.
    RequestMigration {
        /// Owning application.
        app: AppName,
        /// The bee to move.
        bee: BeeId,
        /// Destination hive.
        to: HiveId,
    },
    /// Ships a migrating bee's cells to the destination hive.
    MigrateState {
        /// Owning application.
        app: AppName,
        /// The migrating bee.
        bee: BeeId,
        /// Serialized [`crate::state::BeeState`].
        state: Vec<u8>,
        /// The bee's colony.
        colony: Vec<Cell>,
        /// The bee's replication sequence (continues on the new owner).
        repl_seq: u64,
    },
    /// Ships a merged-away (loser) bee's cells to the winner's hive.
    MergeState {
        /// Owning application.
        app: AppName,
        /// The surviving bee.
        winner: BeeId,
        /// The absorbed bee.
        loser: BeeId,
        /// Serialized [`crate::state::BeeState`] of the loser.
        state: Vec<u8>,
    },
    /// Replicates a committed transaction journal to colony replicas
    /// (fault-tolerance extension).
    ReplicateTx {
        /// Owning application.
        app: AppName,
        /// The bee whose state changed.
        bee: BeeId,
        /// Monotonic per-bee sequence for gap detection.
        seq: u64,
        /// Serialized [`crate::state::TxJournal`].
        journal: Vec<u8>,
    },
    /// A replica detected a sequence gap and asks the owner for full state.
    ReplicaSyncRequest {
        /// Owning application.
        app: AppName,
        /// The bee.
        bee: BeeId,
    },
    /// The owner's full-state answer to [`ControlMsg::ReplicaSyncRequest`].
    ReplicaSyncState {
        /// Owning application.
        app: AppName,
        /// The bee.
        bee: BeeId,
        /// The owner's current replication sequence.
        seq: u64,
        /// Serialized [`crate::state::BeeState`].
        state: Vec<u8>,
    },
    /// Asks a hive for every retained trace span of `trace_id` (cross-hive
    /// trace assembly, [`crate::trace::TraceHub`]). Best-effort: a hive
    /// whose span ring already overwrote the trace returns an empty reply.
    TraceQuery {
        /// Correlates replies with the originating query.
        query_id: u64,
        /// The causal trace to collect.
        trace_id: u64,
    },
    /// A hive's answer to [`ControlMsg::TraceQuery`].
    TraceReply {
        /// Echoed from the query.
        query_id: u64,
        /// Echoed from the query.
        trace_id: u64,
        /// All spans of the trace retained by the replying hive.
        spans: Vec<crate::trace::TraceSpan>,
    },
    /// Standalone cumulative ack for the reliable channel layer
    /// ([`crate::channel`]): every application frame of `ack_epoch` with
    /// sequence `<= upto` was delivered by the sending hive. Emitted only
    /// when no return data traffic piggybacks the ack in time.
    ChannelAck {
        /// The receiver-tracked sender epoch the ack refers to.
        ack_epoch: u64,
        /// Highest contiguous delivered sequence.
        upto: u64,
    },
    /// Cluster membership lifecycle traffic (elastic scale-out/scale-in):
    /// join/promote/demote/remove requests routed toward the registry
    /// leader, the draining announcement, and the leader's final departure
    /// ack. The authoritative transitions travel through the registry Raft
    /// log as conf-change entries; these messages only request them or
    /// announce side states the log does not carry.
    MembershipChange {
        /// The hive whose membership is changing.
        node: HiveId,
        /// The hive's transport address (joins only; empty otherwise).
        addr: String,
        /// The lifecycle operation.
        op: MembershipOp,
    },
}

beehive_wire::wire_enum!(ControlMsg {
    0 => RegistryForward(_),
    1 => RequestMigration { app, bee, to },
    2 => MigrateState { app, bee, state: bytes, colony, repl_seq },
    3 => MergeState { app, winner, loser, state: bytes },
    4 => ReplicateTx { app, bee, seq, journal: bytes },
    5 => ReplicaSyncRequest { app, bee },
    6 => ReplicaSyncState { app, bee, seq, state: bytes },
    7 => TraceQuery { query_id, trace_id },
    8 => TraceReply { query_id, trace_id, spans },
    9 => ChannelAck { ack_epoch, upto },
    10 => MembershipChange { node, addr, op },
});

/// What a [`ControlMsg::MembershipChange`] asks for or announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MembershipOp {
    /// `node` asks to be added to the registry group as a learner
    /// (routed toward the leader; `addr` tells peers how to reach it).
    JoinRequest,
    /// A caught-up learner asks to be promoted to voter.
    PromoteRequest,
    /// A draining voter asks to be demoted back to learner.
    DemoteRequest,
    /// A drained learner asks to be removed from the configuration.
    RemoveRequest,
    /// `node` announces it is draining: stop placing bees on it.
    Draining,
    /// The leader's final ack to a removed hive: its `RemoveNode` conf
    /// change committed and it may exit. Re-sent for stale
    /// [`MembershipOp::RemoveRequest`]s, so a lost ack is recovered by the
    /// drained hive's own retry.
    Departed,
}

impl ControlMsg {
    /// Encodes for a transport frame.
    pub fn encode(&self) -> crate::error::Result<Vec<u8>> {
        beehive_wire::to_vec(self).map_err(crate::error::Error::from)
    }

    /// Decodes from a transport frame.
    pub fn decode(bytes: &[u8]) -> crate::error::Result<Self> {
        beehive_wire::from_slice(bytes).map_err(crate::error::Error::from)
    }

    /// Encodes a state shipment from hive `sender` as the [`WireEnvelope`]
    /// the reliable channel carries: named [`SHIPMENT`], with no trace.
    pub fn encode_shipment(&self, sender: HiveId) -> crate::error::Result<Vec<u8>> {
        let we = WireEnvelope {
            src: Source::External(sender),
            dst: Dst::Broadcast,
            type_name: SHIPMENT.to_string(),
            payload: self.encode()?,
            trace: TraceContext {
                trace_id: 0,
                span_id: 0,
                parent_span: 0,
                enqueued_ms: 0,
            },
            deliveries: 0,
        };
        beehive_wire::to_vec(&we).map_err(crate::error::Error::from)
    }

    /// The state shipment a delivered wire envelope carries, decoded; `None`
    /// when the envelope is an application message.
    pub fn from_shipment(we: &WireEnvelope) -> Option<crate::error::Result<Self>> {
        (we.type_name == SHIPMENT).then(|| Self::decode(&we.payload))
    }

    /// The app and the bee whose state a shipment carries: the migrating
    /// bee, or a merge's loser. `None` for every other message.
    pub fn shipped_bee(&self) -> Option<(&str, BeeId)> {
        match self {
            ControlMsg::MigrateState { app, bee, .. } => Some((app, *bee)),
            ControlMsg::MergeState { app, loser, .. } => Some((app, *loser)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_roundtrip() {
        let m = ControlMsg::MigrateState {
            app: "te".into(),
            bee: BeeId::new(HiveId(1), 7),
            state: vec![1, 2, 3],
            colony: vec![Cell::new("S", "sw1")],
            repl_seq: 5,
        };
        let bytes = m.encode().unwrap();
        let back = ControlMsg::decode(&bytes).unwrap();
        match back {
            ControlMsg::MigrateState {
                app,
                bee,
                state,
                colony,
                repl_seq,
            } => {
                assert_eq!(app, "te");
                assert_eq!(bee, BeeId::new(HiveId(1), 7));
                assert_eq!(state, vec![1, 2, 3]);
                assert_eq!(colony, vec![Cell::new("S", "sw1")]);
                assert_eq!(repl_seq, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_shipment_is_a_wire_envelope_named_shipment() {
        let m = ControlMsg::MergeState {
            app: "te".into(),
            winner: BeeId::new(HiveId(1), 2),
            loser: BeeId::new(HiveId(3), 4),
            state: vec![9; 5],
        };
        let bytes = m.encode_shipment(HiveId(3)).unwrap();
        let we: WireEnvelope = beehive_wire::from_slice(&bytes).unwrap();
        assert_eq!(we.type_name, SHIPMENT);
        assert_eq!(we.src, Source::External(HiveId(3)));
        let back = ControlMsg::from_shipment(&we).unwrap().unwrap();
        assert_eq!(back.shipped_bee(), Some(("te", BeeId::new(HiveId(3), 4))));

        let app = WireEnvelope {
            type_name: "beehive_apps::te::Collect".into(),
            ..we
        };
        assert!(ControlMsg::from_shipment(&app).is_none());
    }
}
