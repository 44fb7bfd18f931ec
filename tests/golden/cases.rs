//! The values whose wire bytes `tests/wire_golden.rs` pins. Built from
//! public types only, so the same file compiled against an older commit's
//! crates regenerates `vectors.rs` (see the header of that file) — all but
//! `hive_metrics`, whose platform scalars were fourteen flat fields, in the
//! same order, before `PlatformCounters` existed.

use std::collections::BTreeMap;

use beehive_core::channel::ChannelFrame;
use beehive_core::message::WireEnvelope;
use beehive_core::metrics::ProvenanceKey;
use beehive_core::outbox::JournalEntry;
use beehive_core::trace::TraceContext;
use beehive_core::{
    BeeId, BeeStats, BeeStatsSnapshot, Cell, ControlMsg, Dst, HiveId, HiveMetrics, JournalOp,
    MsgLatency, PlatformCounters, SharedBytes, Source, TxJournal, COLLECTOR_APP,
};
use beehive_openflow::{PacketInEvent, PacketOutCmd, SwitchUpstream};
use beehive_raft::{Entry, EntryKind, RaftMessage, SnapshotRecord};
use serde::Serialize;

/// Payload lengths: both sides of the one- and two-byte varint boundaries,
/// the benchmark's MTU punt, and the first three-byte length.
pub const LENGTHS: [usize; 6] = [0, 1, 127, 128, 1_500, 16_384];

/// The opaque payload of length `n`; never contains a run that could be
/// mistaken for a header field.
pub fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + 7) as u8).collect()
}

fn enc<T: Serialize>(v: &T) -> Vec<u8> {
    beehive_wire::to_vec(v).expect("golden value encodes")
}

fn bee() -> BeeId {
    BeeId::new(HiveId(2), 9)
}

/// Every journal entry variant; `Send` carries the payload.
pub fn journal_entries(n: usize) -> Vec<(&'static str, JournalEntry)> {
    vec![
        (
            "JournalEntry::Epoch",
            JournalEntry::Epoch {
                epoch: 0x0102_0304_0506_0708,
            },
        ),
        (
            "JournalEntry::Send",
            JournalEntry::Send {
                to: 2,
                seq: 300,
                env: pattern(n),
            },
        ),
        (
            "JournalEntry::Acked",
            JournalEntry::Acked { to: 2, upto: 299 },
        ),
        (
            "JournalEntry::Delivered",
            JournalEntry::Delivered {
                from: 3,
                epoch: 77,
                seq: 12,
            },
        ),
        (
            "JournalEntry::RecvReset",
            JournalEntry::RecvReset {
                from: 3,
                epoch: 78,
                retired: 12,
            },
        ),
        (
            "JournalEntry::SendState",
            JournalEntry::SendState {
                to: 2,
                next_seq: 301,
                acked: 299,
            },
        ),
        (
            "JournalEntry::RecvState",
            JournalEntry::RecvState {
                from: 3,
                epoch: 78,
                last_delivered: 5,
                seen_ahead: vec![7, 9, 200],
                retired: 12,
            },
        ),
        (
            "JournalEntry::PeerRetired",
            JournalEntry::PeerRetired {
                peer: 4,
                sent: 10,
                delivered: 11,
                expired: 1,
            },
        ),
    ]
}

/// `(name, wire bytes)` of every pinned value at payload length `n`.
pub fn cases(n: usize) -> Vec<(&'static str, Vec<u8>)> {
    let p = pattern(n);
    let mut out = vec![
        (
            "WireEnvelope",
            enc(&WireEnvelope {
                src: Source::Bee {
                    bee: bee(),
                    hive: HiveId(2),
                },
                dst: Dst::Bee {
                    app: "learning_switch".into(),
                    bee: BeeId::new(HiveId(1), 3),
                    handler: Some(1),
                    fence: 640,
                },
                type_name: "beehive_openflow::driver::PacketInEvent".into(),
                payload: p.clone(),
                trace: TraceContext {
                    trace_id: 0x1111_2222_3333_4444,
                    span_id: 0x5555_6666_7777_8888,
                    parent_span: 9,
                    enqueued_ms: 0,
                },
                deliveries: 1,
            }),
        ),
        (
            "ChannelFrame",
            enc(&ChannelFrame {
                epoch: 0x0102_0304_0506_0708,
                seq: 300,
                ack_epoch: 77,
                ack: 299,
                env: p.clone(),
            }),
        ),
        (
            "PacketInEvent",
            enc(&PacketInEvent {
                switch: 0xAB_CDEF,
                in_port: 33,
                data: p.clone(),
            }),
        ),
        (
            "PacketOutCmd",
            enc(&PacketOutCmd {
                switch: 0xAB_CDEF,
                in_port: 33,
                out_port: 0xFFFB,
                data: p.clone(),
            }),
        ),
        (
            "SwitchUpstream",
            enc(&SwitchUpstream {
                dpid: 16,
                bytes: p.clone(),
            }),
        ),
        ("SharedBytes", enc(&SharedBytes::from(p.clone()))),
        (
            "TxJournal",
            enc(&TxJournal {
                ops: vec![
                    JournalOp::Put {
                        dict: "macs".into(),
                        key: "16".into(),
                        value: SharedBytes::from(p.clone()),
                    },
                    JournalOp::Del {
                        dict: "macs".into(),
                        key: "17".into(),
                    },
                ],
            }),
        ),
        (
            "ControlMsg::MigrateState",
            enc(&ControlMsg::MigrateState {
                app: "te".into(),
                bee: bee(),
                state: p.clone(),
                colony: vec![Cell::new("S", "sw1"), Cell::new("S", "sw2")],
                repl_seq: 5,
            }),
        ),
        (
            "ControlMsg::MergeState",
            enc(&ControlMsg::MergeState {
                app: "te".into(),
                winner: bee(),
                loser: BeeId::new(HiveId(1), 4),
                state: p.clone(),
            }),
        ),
        (
            "ControlMsg::ReplicateTx",
            enc(&ControlMsg::ReplicateTx {
                app: "te".into(),
                bee: bee(),
                seq: 41,
                journal: p.clone(),
            }),
        ),
        (
            "ControlMsg::ReplicaSyncState",
            enc(&ControlMsg::ReplicaSyncState {
                app: "te".into(),
                bee: bee(),
                seq: 42,
                state: p.clone(),
            }),
        ),
        (
            "ControlMsg::ChannelAck",
            enc(&ControlMsg::ChannelAck {
                ack_epoch: 77,
                upto: 299,
            }),
        ),
        (
            "raft::Entry",
            enc(&Entry {
                term: 3,
                index: 1_000,
                data: p.clone(),
                kind: EntryKind::Normal,
            }),
        ),
        (
            "raft::SnapshotRecord",
            enc(&SnapshotRecord {
                index: 1_000,
                term: 3,
                data: p.clone(),
            }),
        ),
        (
            "raft::InstallSnapshot",
            enc(&RaftMessage::InstallSnapshot {
                term: 3,
                last_index: 1_000,
                last_term: 2,
                data: p.clone(),
            }),
        ),
        (
            "raft::AppendEntries",
            enc(&RaftMessage::AppendEntries {
                term: 3,
                prev_log_index: 999,
                prev_log_term: 2,
                entries: vec![
                    Entry {
                        term: 3,
                        index: 1_000,
                        data: p.clone(),
                        kind: EntryKind::Normal,
                    },
                    Entry {
                        term: 3,
                        index: 1_001,
                        data: Vec::new(),
                        kind: EntryKind::Noop,
                    },
                ],
                leader_commit: 998,
            }),
        ),
    ];
    out.extend(
        journal_entries(n)
            .into_iter()
            .map(|(name, entry)| (name, enc(&entry))),
    );
    out
}

/// The entries of the committed old-format outbox journal, in file order:
/// live appends, then the shape a compaction snapshot leaves behind.
pub fn journal_file_entries() -> Vec<JournalEntry> {
    let mut out = vec![JournalEntry::Epoch { epoch: 41 }];
    for (seq, n) in [0usize, 1, 127, 128, 300].into_iter().enumerate() {
        out.push(JournalEntry::Send {
            to: 2,
            seq: seq as u64 + 1,
            env: pattern(n),
        });
    }
    out.extend([
        JournalEntry::Acked { to: 2, upto: 2 },
        JournalEntry::Delivered {
            from: 2,
            epoch: 9,
            seq: 1,
        },
        JournalEntry::Delivered {
            from: 2,
            epoch: 9,
            seq: 3,
        },
        JournalEntry::Send {
            to: 3,
            seq: 1,
            env: pattern(5),
        },
        JournalEntry::PeerRetired {
            peer: 3,
            sent: 1,
            delivered: 0,
            expired: 1,
        },
        JournalEntry::RecvReset {
            from: 2,
            epoch: 10,
            retired: 2,
        },
        JournalEntry::SendState {
            to: 2,
            next_seq: 9,
            acked: 3,
        },
        JournalEntry::RecvState {
            from: 4,
            epoch: 6,
            last_delivered: 5,
            seen_ahead: vec![7, 9],
            retired: 1,
        },
    ]);
    out
}

/// A collector report with every field populated. The numbers vary with
/// `hive` and `seq`, so what a reader sums, keeps the last of or maximises
/// over reports shows in its result; every fifth platform scalar is zero.
pub fn hive_metrics(hive: u32, seq: u64) -> HiveMetrics {
    let h = hive as u64;
    let mut latency = MsgLatency::default();
    for us in [40, 900, 9_000 * seq, 10_000_000] {
        latency.queue_wait.observe(us);
    }
    for us in [400, 400 * h, 70_000] {
        latency.runtime.observe(us);
    }
    let mut platform = PlatformCounters::default();
    for (i, (_, value)) in platform.rows_mut().enumerate() {
        let i = i as u64;
        *value = if i % 5 == 4 {
            0
        } else {
            100 * h + 10 * seq + i
        };
    }
    HiveMetrics {
        hive: HiveId(hive),
        seq,
        now_ms: 1_000 * seq,
        bees: vec![
            BeeStatsSnapshot {
                app: "te".into(),
                bee: BeeId::new(HiveId(hive), 1),
                hive: HiveId(hive),
                pinned: false,
                cells: 3,
                stats: BeeStats {
                    msgs_in: 10 * seq + h,
                    msgs_out: 4,
                    bytes_in: 1_500 * seq,
                    bytes_out: 256,
                    handler_nanos: 1_500_000 * h,
                    errors: seq,
                    in_by_hive: BTreeMap::from([(1, 4), (2, 6 * seq)]),
                    in_by_bee: BTreeMap::from([(bee().0, 10)]),
                    external_in: h,
                },
            },
            BeeStatsSnapshot {
                app: COLLECTOR_APP.into(),
                bee: BeeId::new(HiveId(hive), 2),
                hive: HiveId(hive),
                pinned: true,
                cells: 0,
                stats: BeeStats {
                    msgs_in: 1,
                    external_in: 1,
                    ..Default::default()
                },
            },
        ],
        provenance: vec![(
            ProvenanceKey {
                app: "te".into(),
                in_type: "beehive_apps::te::StatReply".into(),
                out_type: "beehive_apps::te::FlowMod".into(),
            },
            8 * seq,
        )],
        latency: vec![("te".into(), "beehive_apps::te::StatReply".into(), latency)],
        platform,
    }
}
