//! Layer probes (source B of the per-layer metrics): single-thread timed
//! loops over one layer's public functions, fed the message shapes the
//! workloads produce (`.64` / `.1500` is the punted packet's size). Each
//! number is the median ns per operation over [`BATCHES`] batches, after one
//! unmeasured batch. They run after the cluster is shut down, so nothing
//! else competes for the cores.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use beehive_core::channel::{ChannelDelivery, ChannelTuning, ReliableChannels};
use beehive_core::message::WireEnvelope;
use beehive_core::outbox::{JournalEntry, Outbox};
use beehive_core::prelude::*;
use beehive_core::transport::{Frame, Transport};
use beehive_core::{
    BeeState, Envelope, MessageRegistry, RegistryCommand, RegistryOp, RegistryState, TxState,
};
use beehive_net::frame::{encode_frame, FrameDecoder, KIND_APP};
use beehive_openflow::wire::{Action, FlowModCommand, Match, OfMessage};
use beehive_openflow::PacketInEvent;
use beehive_raft::harness::Cluster as RaftCluster;
use beehive_raft::{Entry, EntryKind, FileStorage, FsyncPolicy, Storage};
use serde::{Deserialize, Serialize};

use crate::cluster::{connect_pair, HIVES};
use crate::packet::{mac, port_of, PacketInTemplate};
use crate::stats::quantile_f64;

const BATCHES: usize = 31;

/// Median ns per operation. `batch` runs some operations and returns how
/// many; set-up it does before starting its own clock is not counted.
fn per_op(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, ops) = batch();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    quantile_f64(&mut samples, 0.5)
}

/// Times `ops` back-to-back calls of `f`.
fn timed(ops: u64, mut f: impl FnMut()) -> (u64, u64) {
    let t = Instant::now();
    for _ in 0..ops {
        f();
    }
    (t.elapsed().as_nanos() as u64, ops)
}

fn packet_in(pkt_len: usize) -> PacketInEvent {
    let up = PacketInTemplate::new(pkt_len).event(3, 1, 9, 77, 0);
    let OfMessage::PacketIn { in_port, data, .. } = OfMessage::decode(&up).expect("own template")
    else {
        unreachable!("the template is a PACKET_IN");
    };
    PacketInEvent {
        switch: 3,
        in_port,
        data,
    }
}

/// The bytes of one relayed `PacketInEvent`, as `WireEnvelope` encodes it.
fn envelope_bytes(pkt_len: usize) -> Vec<u8> {
    let env = Envelope::external(HIVES[0], Arc::new(packet_in(pkt_len)));
    WireEnvelope::from_envelope(&env).expect("PacketInEvent encodes")
}

fn channel(id: HiveId) -> ReliableChannels {
    let tuning = ChannelTuning {
        resend_ms: 200,
        window: 1024,
        ack_flush_ms: 5,
    };
    ReliableChannels::new(id, tuning, None, 1)
}

/// What the learning switch keeps per switch: 32 MACs → ports.
#[derive(Serialize, Deserialize, Default)]
struct MacTable {
    entries: std::collections::BTreeMap<[u8; 6], u16>,
}

fn new_cell(n: u64) -> RegistryCommand {
    RegistryCommand {
        origin: HIVES[0],
        seq: n,
        op: RegistryOp::LookupOrCreate {
            app: "bench.flows".into(),
            cells: vec![Cell::new("flows", n.to_string())],
            new_bee: BeeId::new(HIVES[0], n as u32),
        },
    }
}

fn registry_with(cells: u64) -> RegistryState {
    let mut reg = RegistryState::new();
    for n in 0..cells {
        reg.apply_command(&new_cell(n));
    }
    reg
}

pub fn run_all(scratch: &Path, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    sized(64, scratch, out, SIZED_64)?;
    sized(1500, scratch, out, SIZED_1500)?;
    unsized_layers(scratch, out)?;
    reactor(out)?;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(())
}

/// Names of the size-dependent probes, in the order `sized` pushes them.
type SizedNames = [&'static str; 9];
const SIZED_64: SizedNames = [
    "wire.encode_ns.64",
    "wire.decode_ns.64",
    "core.channel.wrap_ns.64",
    "core.channel.on_frame_ns.64",
    "core.outbox.append_ns.64",
    "openflow.decode_pktin_ns.64",
    "openflow.encode_pktout_ns.64",
    "net.frame_encode_ns.64",
    "net.frame_decode_ns.64",
];
const SIZED_1500: SizedNames = [
    "wire.encode_ns.1500",
    "wire.decode_ns.1500",
    "core.channel.wrap_ns.1500",
    "core.channel.on_frame_ns.1500",
    "core.outbox.append_ns.1500",
    "openflow.decode_pktin_ns.1500",
    "openflow.encode_pktout_ns.1500",
    "net.frame_encode_ns.1500",
    "net.frame_decode_ns.1500",
];

fn sized(
    pkt_len: usize,
    scratch: &Path,
    out: &mut Vec<(&'static str, f64)>,
    names: SizedNames,
) -> Result<(), String> {
    const OPS: u64 = 200;
    let mut values = Vec::with_capacity(names.len());

    // wire: Envelope <-> bytes.
    let env = Envelope::external(HIVES[0], Arc::new(packet_in(pkt_len)));
    let env_bytes = envelope_bytes(pkt_len);
    let mut registry = MessageRegistry::new();
    registry.register::<PacketInEvent>();
    values.push(per_op(|| {
        timed(OPS, || {
            black_box(WireEnvelope::from_envelope(black_box(&env)).expect("encodes"));
        })
    }));
    values.push(per_op(|| {
        timed(OPS, || {
            black_box(
                WireEnvelope::to_envelope(black_box(&env_bytes), &registry).expect("decodes"),
            );
        })
    }));

    // core.channel: sequence + buffer on the way out; ack + dedup on the way
    // in. The sender is acked after every batch so its resend buffer stays
    // as short as it does in a healthy run.
    let mut tx = channel(HIVES[0]);
    let mut rx = channel(HIVES[1]);
    let mut acked = 0u64;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    values.push(per_op(|| {
        frames.clear();
        let t = Instant::now();
        for _ in 0..OPS {
            frames.push(tx.wrap(HIVES[1], black_box(env_bytes.clone()), 1));
        }
        let ns = t.elapsed().as_nanos() as u64;
        acked += OPS;
        tx.on_ack(HIVES[1], tx.epoch(), acked);
        (ns, OPS)
    }));
    values.push(per_op(|| {
        let fresh: Vec<Vec<u8>> = (0..OPS)
            .map(|_| tx.wrap(HIVES[1], env_bytes.clone(), 1))
            .collect();
        acked += OPS;
        tx.on_ack(HIVES[1], tx.epoch(), acked);
        let t = Instant::now();
        for f in &fresh {
            let delivery = rx.on_frame(HIVES[0], black_box(f), 1);
            assert!(matches!(delivery, ChannelDelivery::Deliver(_)));
            black_box(delivery);
        }
        (t.elapsed().as_nanos() as u64, OPS)
    }));

    // core.outbox: one journal record appended (a write(2), no sync).
    let path = scratch.join(format!("probe-{pkt_len}.outbox"));
    let (mut outbox, _) =
        Outbox::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut seq = 0u64;
    values.push(per_op(|| {
        timed(OPS, || {
            seq += 1;
            outbox
                .append(&JournalEntry::Send {
                    to: 2,
                    seq,
                    env: env_bytes.clone(),
                })
                .expect("append to the probe's journal");
        })
    }));

    // openflow: the driver's decode of the punt and encode of the release.
    let pkt = packet_in(pkt_len);
    let up = PacketInTemplate::new(pkt_len).event(3, 1, 9, 77, 0);
    values.push(per_op(|| {
        timed(OPS, || {
            black_box(OfMessage::decode(black_box(&up)).expect("decodes"));
        })
    }));
    values.push(per_op(|| {
        timed(OPS, || {
            black_box(
                OfMessage::PacketOut {
                    xid: 1,
                    buffer_id: u32::MAX,
                    in_port: pkt.in_port,
                    actions: vec![Action::Output {
                        port: port_of(9),
                        max_len: 0,
                    }],
                    data: black_box(pkt.data.clone()),
                }
                .encode(),
            );
        })
    }));

    // net: the TCP framing around one channel frame.
    let payload = frames.last().expect("wrap ran").clone();
    let framed = encode_frame(HIVES[0], KIND_APP, &payload);
    values.push(per_op(|| {
        timed(OPS, || {
            black_box(encode_frame(HIVES[0], KIND_APP, black_box(&payload)));
        })
    }));
    let mut decoder = FrameDecoder::new();
    values.push(per_op(|| {
        timed(OPS, || {
            decoder.extend(black_box(&framed));
            black_box(
                decoder
                    .next_frame()
                    .expect("well formed")
                    .expect("complete"),
            );
        })
    }));

    out.extend(names.into_iter().zip(values));
    Ok(())
}

fn unsized_layers(scratch: &Path, out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    // core.hive: a standalone hive on a `Loopback`, one message emitted and
    // handled by a one-cell app — the platform's floor per message.
    let mut cfg = HiveConfig::standalone(HIVES[0]);
    cfg.tick_interval_ms = 0;
    let mut hive = Hive::new(
        cfg,
        Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HIVES[0])),
    );
    hive.install(
        App::builder("probe")
            .handle::<PacketInEvent>(
                |m| Mapped::cell("p", m.switch.to_string()),
                |m, _ctx| {
                    black_box(m.in_port);
                    Ok(())
                },
            )
            .build(),
    );
    let msg = packet_in(64);
    out.push((
        "core.hive.local_msg_ns",
        per_op(|| {
            const OPS: u64 = 200;
            let t = Instant::now();
            for _ in 0..OPS {
                hive.emit(msg.clone());
            }
            hive.step_until_quiescent(1_000);
            (t.elapsed().as_nanos() as u64, OPS)
        }),
    ));
    if hive.counters().handled_ok == 0 {
        return Err("the standalone probe hive handled nothing".into());
    }

    // core.state: what a handler's transaction costs on a MAC-table-sized
    // value. tx_rw: begin, typed get, typed put, commit (the learning
    // switch's own sequence). commit / rollback: begin, raw put, then that.
    let mut table = MacTable::default();
    for h in 0..crate::spec::HOSTS as u8 {
        table.entries.insert(mac(3, h), port_of(h));
    }
    let raw = beehive_wire::to_vec(&table).expect("MAC table encodes");
    let mut state = BeeState::new();
    {
        let mut tx = TxState::begin(&mut state);
        tx.put("macs", "3", &table).expect("put");
        tx.commit();
    }
    out.push((
        "core.state.tx_rw_ns",
        per_op(|| {
            timed(500, || {
                let mut tx = TxState::begin(&mut state);
                let mut t: MacTable = tx.get("macs", "3").expect("decodes").expect("present");
                t.entries.insert(mac(3, 1), 2);
                tx.put("macs", "3", &t).expect("put");
                black_box(tx.commit());
            })
        }),
    ));
    out.push((
        "core.state.commit_ns",
        per_op(|| {
            timed(1_000, || {
                let mut tx = TxState::begin(&mut state);
                tx.put_raw("macs", "3", black_box(raw.clone()));
                black_box(tx.commit());
            })
        }),
    ));
    out.push((
        "core.state.rollback_ns",
        per_op(|| {
            timed(1_000, || {
                let mut tx = TxState::begin(&mut state);
                tx.put_raw("macs", "3", black_box(raw.clone()));
                black_box(tx.rollback());
            })
        }),
    ));

    // core.registry: the dispatcher's read (who owns this cell?) at two
    // registry sizes, and the state machine's write (create a cell's bee).
    for (name, cells) in [
        ("core.registry.lookup_ns.1k", 1_000u64),
        ("core.registry.lookup_ns.100k", 100_000),
    ] {
        let reg = registry_with(cells);
        let mut n = 0u64;
        out.push((
            name,
            per_op(|| {
                timed(1_000, || {
                    n = (n + 7_919) % cells;
                    let cell = [Cell::new("flows", n.to_string())];
                    black_box(reg.lookup_exact("bench.flows", &cell).expect("owned"));
                })
            }),
        ));
    }
    let mut reg = registry_with(1_000);
    let mut n = 1_000u64;
    out.push((
        "core.registry.apply_ns",
        per_op(|| {
            timed(500, || {
                n += 1;
                black_box(reg.apply_command(black_box(&new_cell(n))));
            })
        }),
    ));

    // raft: CPU per committed registry command in the sans-IO three-node
    // harness (virtual ticks, in-memory storage): propose, then tick until
    // every node has applied it.
    let mut raft = RaftCluster::new(3, beehive_raft::Config::default(), 7, RegistryState::new);
    let leader = raft.run_until_leader(500)?;
    let mut n = 0u64;
    out.push((
        "raft.cpu_ns_per_commit",
        per_op(|| {
            const OPS: u64 = 20;
            let t = Instant::now();
            for _ in 0..OPS {
                n += 1;
                raft.propose(leader, new_cell(n).encode())
                    .expect("leader accepts");
                let want = raft.node(leader).expect("leader").log().last_index();
                assert!(
                    raft.run_until(200, |c| c.nodes().all(|node| node.last_applied() >= want)),
                    "the raft harness did not commit"
                );
            }
            (t.elapsed().as_nanos() as u64, OPS)
        }),
    ));

    // raft storage: what one append costs once the log holds 1024 registry
    // commands — `FileStorage` rewrites the whole log on every save.
    let path = scratch.join("probe.raft");
    let mut storage = FileStorage::open_with(&path, FsyncPolicy::Never)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let entries: Vec<Entry> = (1..=1024u64)
        .map(|index| Entry {
            term: 1,
            index,
            data: new_cell(index).encode(),
            kind: EntryKind::Normal,
        })
        .collect();
    out.push((
        "raft.storage_append_ns",
        per_op(|| {
            timed(10, || {
                storage
                    .save_log(0, 0, black_box(&entries))
                    .expect("save_log");
            })
        }),
    ));

    // openflow: the rule the learning switch installs.
    out.push((
        "openflow.encode_flowmod_ns",
        per_op(|| {
            timed(500, || {
                black_box(
                    OfMessage::FlowMod {
                        xid: 1,
                        match_: Match::dl_dst_exact(black_box(mac(3, 9))),
                        cookie: 0,
                        command: FlowModCommand::Add,
                        idle_timeout: 0,
                        hard_timeout: 0,
                        priority: 5,
                        actions: vec![Action::Output {
                            port: port_of(9),
                            max_len: 0,
                        }],
                    }
                    .encode(),
                );
            })
        }),
    ));
    Ok(())
}

/// net: two reactors joined over loopback, driven from this one thread.
/// One-way streaming rate at both payload sizes, and a one-frame ping-pong.
fn reactor(out: &mut Vec<(&'static str, f64)>) -> Result<(), String> {
    let (a, _, b, _) = connect_pair()?;
    let recv = |t: &dyn Transport| loop {
        if let Some(got) = t.try_recv() {
            return got;
        }
        std::hint::spin_loop();
    };
    for (name, pkt_len) in [
        ("net.reactor_frames_per_s.64", 64usize),
        ("net.reactor_frames_per_s.1500", 1500),
    ] {
        let payload = channel(HIVES[0]).wrap(HIVES[1], envelope_bytes(pkt_len), 1);
        let ns_per_frame = per_op(|| {
            const OPS: u64 = 2_000;
            let t = Instant::now();
            for _ in 0..OPS {
                a.send(HIVES[1], Frame::app(payload.clone()));
            }
            for _ in 0..OPS {
                black_box(recv(b.as_ref()));
            }
            (t.elapsed().as_nanos() as u64, OPS)
        });
        out.push((name, 1e9 / ns_per_frame));
    }
    let ping = channel(HIVES[0]).wrap(HIVES[1], envelope_bytes(64), 1);
    let rtt_ns = per_op(|| {
        timed(50, || {
            a.send(HIVES[1], Frame::app(ping.clone()));
            let (_, there) = recv(b.as_ref());
            b.send(HIVES[0], there);
            black_box(recv(a.as_ref()));
        })
    });
    out.push(("net.reactor_rtt_us", rtt_ns / 1e3));
    Ok(())
}
