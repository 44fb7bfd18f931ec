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
use proptest::prelude::*;
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
                    let v: u64 = ctx.get("t", k).map_err(|e| e.to_string())?.unwrap_or(0);
                    ctx.put("t", k.clone(), &(v + m.add))
                        .map_err(|e| e.to_string())?;
                }
                trace.lock().push((m.keys.clone(), ctx.bee()));
                Ok(())
            },
        )
        .build()
}

fn arb_msg() -> impl Strategy<Value = Touch> {
    (proptest::collection::btree_set(0u8..8, 1..4), 1u64..10).prop_map(|(keys, add)| Touch {
        keys: keys.into_iter().map(|k| format!("k{k}")).collect(),
        add,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn collocation_and_serializability(msgs in proptest::collection::vec(arb_msg(), 1..40)) {
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
            prop_assert!(bee.is_some(), "key {k} has no owner");
            let got: Option<u64> = hive.peek_state("touch", bee.unwrap(), "t", k);
            prop_assert_eq!(got, Some(*v), "key {} diverged from sequential reference", k);
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
            prop_assert_eq!(owners.len(), 1, "message keys {:?} span colonies", keys);
        }

        // 3. No errors, conflicts or drops along the way.
        prop_assert_eq!(hive.counters().handler_errors, 0);
        prop_assert_eq!(hive.counters().assign_conflicts, 0);
        prop_assert_eq!(hive.counters().dropped_orphans, 0);
    }

    #[test]
    fn registry_applies_deterministically(
        ops in proptest::collection::vec((0u8..4, 0u8..6, 0u8..6, 1u8..4), 1..60)
    ) {
        // Build a command stream from the tuple soup.
        let mut cmds = Vec::new();
        for (i, (kind, a, b, n)) in ops.into_iter().enumerate() {
            let bee = BeeId::new(HiveId((a % 3 + 1) as u32), b as u32);
            let op = match kind {
                0 => RegistryOp::LookupOrCreate {
                    app: format!("app{}", a % 2),
                    cells: (0..n).map(|j| Cell::new("d", format!("k{}", (b + j) % 8))).collect(),
                    new_bee: BeeId::new(HiveId(1), i as u32 + 100),
                },
                1 => RegistryOp::MoveBee { bee, to: HiveId((b % 3 + 1) as u32) },
                2 => RegistryOp::AssignCells {
                    bee,
                    cells: vec![Cell::new("d", format!("x{a}"))],
                },
                _ => RegistryOp::RemoveBee { bee },
            };
            cmds.push(RegistryCommand { origin: HiveId((a % 3 + 1) as u32), seq: i as u64, op });
        }
        let mut r1 = RegistryState::new();
        let mut r2 = RegistryState::new();
        for c in &cmds {
            let e1 = r1.apply_command(c);
            let e2 = r2.apply_command(c);
            prop_assert_eq!(e1, e2, "events diverged");
        }
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn registry_snapshot_roundtrip_mid_stream(
        ops in proptest::collection::vec((0u8..6, 1u8..4), 1..40),
        cut in 0usize..40,
    ) {
        use beehive_raft::StateMachine;
        let mut live = RegistryState::new();
        let mut restored = RegistryState::new();
        let mut snapshotted = false;
        for (i, (a, n)) in ops.iter().enumerate() {
            let cmd = RegistryCommand {
                origin: HiveId(1),
                seq: i as u64,
                op: RegistryOp::LookupOrCreate {
                    app: "a".into(),
                    cells: (0..*n).map(|j| Cell::new("d", format!("k{}", (a + j) % 10))).collect(),
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
        prop_assert_eq!(live, restored, "snapshot+replay must equal live application");
    }
}

/// Non-proptest sanity: the trace-based collocation check actually fires on
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
