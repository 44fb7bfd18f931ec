//! A handler that touches a cell its map does not name re-maps before it
//! commits: the attempt is rolled back, the registry settles who owns the
//! cell (lookup, extend or merge), and the message runs again on that
//! owner. So two bees never keep diverging copies of one cell, a re-map is
//! not a failure, and the bee's mail keeps its order behind the message.

use std::sync::{Arc, Mutex};

use beehive::core::EventKind;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

/// Bumps `shared/x` on the bee that owns `own/<owner>`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Bump {
    owner: String,
}
impl_message!(Bump);

/// Appends `seq` to the log in `own/a`. Every third one first writes
/// `extra/<seq>`, which no map names.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Step {
    seq: u32,
}
impl_message!(Step);

/// Each `Bump` reads and writes `shared/x` under a map that names only
/// `own/<owner>`. Every attempt's `deliveries()` lands in `seen`.
fn racer(seen: Arc<Mutex<Vec<u32>>>) -> App {
    App::builder("race")
        .handle::<Bump>(
            |m| Mapped::cell("own", &m.owner),
            move |_m, ctx| {
                seen.lock().unwrap().push(ctx.deliveries());
                let x: u64 = ctx.get("shared", "x")?.unwrap_or(0);
                ctx.put("shared", "x", &(x + 1))
            },
        )
        .build()
}

fn logger() -> App {
    App::builder("log")
        .handle::<Step>(
            |_m| Mapped::cell("own", "a"),
            |m, ctx| {
                if m.seq % 3 == 0 {
                    ctx.put("extra", m.seq.to_string(), &m.seq)?;
                }
                let mut log: Vec<u32> = ctx.get("own", "a")?.unwrap_or_default();
                log.push(m.seq);
                ctx.put("own", "a", &log)
            },
        )
        .build()
}

fn standalone() -> Hive {
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0;
    Hive::new(
        cfg,
        Arc::new(SimClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    )
}

/// Every bee of `app` that holds `dict/key`, with its value.
fn holders(hive: &Hive, app: &str, dict: &str, key: &str) -> Vec<(BeeId, u64)> {
    hive.local_bees(app)
        .into_iter()
        .filter_map(|(bee, _)| {
            hive.peek_state::<u64>(app, bee, dict, key)
                .map(|v| (bee, v))
        })
        .collect()
}

#[test]
fn two_bees_bumping_a_cell_neither_maps_leave_one_copy() {
    let mut hive = standalone();
    hive.install(racer(Arc::default()));
    for owner in ["a", "b", "a", "b"] {
        hive.emit(Bump {
            owner: owner.into(),
        });
        hive.step_until_quiescent(1_000);
    }
    let holders = holders(&hive, "race", "shared", "x");
    assert_eq!(holders.len(), 1, "one bee holds shared/x, not {holders:?}");
    assert_eq!(holders[0].1, 4, "every bump landed on the one copy");
}

#[test]
fn bees_on_two_hives_bumping_a_cell_neither_maps_leave_one_copy() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        |h| h.install(racer(Arc::default())),
    );
    c.elect_registry(120_000).unwrap();
    // `own/a` is born on hive 1 and `own/b` on hive 2; the second bee's
    // re-map merges the two colonies across the wire.
    for (hive, owner) in [(1, "a"), (2, "b"), (1, "a"), (2, "b")] {
        c.hive_mut(HiveId(hive)).emit(Bump {
            owner: owner.into(),
        });
        c.advance(3_000, 50);
    }
    let holders: Vec<(BeeId, u64)> = c
        .ids()
        .into_iter()
        .flat_map(|id| holders(c.hive(id), "race", "shared", "x"))
        .collect();
    assert_eq!(holders.len(), 1, "one bee holds shared/x, not {holders:?}");
    assert_eq!(holders[0].1, 4, "every bump landed on the one copy");
    for id in c.ids() {
        let counters = c.hive(id).counters();
        assert_eq!(counters.handler_errors, 0, "{id}");
        assert_eq!(counters.merge_collisions, 0, "{id}");
    }
}

#[test]
fn a_remap_is_not_a_failure() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut hive = standalone();
    hive.install(racer(seen.clone()));
    for owner in ["a", "b", "a", "b"] {
        hive.emit(Bump {
            owner: owner.into(),
        });
        hive.step_until_quiescent(1_000);
    }
    let c = hive.counters();
    assert_eq!(c.remaps, 2, "the first bump of each bee re-maps");
    assert_eq!(c.handler_errors, 0);
    assert_eq!(c.redeliveries, 0);
    assert_eq!(c.dead_letters, 0);
    assert_eq!(c.handled_ok, 4);
    assert_eq!(c.merge_collisions, 0);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 6, "four runs plus two rolled-back attempts");
    assert!(seen.iter().all(|&d| d == 0), "deliveries stay 0: {seen:?}");

    let remaps: Vec<_> = hive
        .events()
        .snapshot()
        .into_iter()
        .filter(|e| e.kind == EventKind::Remap)
        .collect();
    assert_eq!(remaps.len(), 2);
    for e in &remaps {
        assert_eq!(e.app, "race");
        assert!(e.bee.is_some());
        assert!(
            e.detail.contains("Bump") && e.detail.contains("(shared, x)"),
            "the event names the message type and the cell: {}",
            e.detail
        );
    }
}

fn queued_mail_runs_behind_its_remapped_message() {
    let mut hive = standalone();
    hive.install(logger());
    for seq in 0..12 {
        hive.emit(Step { seq });
    }
    hive.step_until_quiescent(1_000);
    let bees = hive.local_bees("log");
    assert_eq!(bees.len(), 1);
    let log: Vec<u32> = hive
        .peek_state("log", bees[0].0, "own", "a")
        .expect("the log was written");
    assert_eq!(log, (0..12).collect::<Vec<_>>());
    let c = hive.counters();
    assert_eq!(c.remaps, 4, "seq 0, 3, 6 and 9 each re-map once");
    assert_eq!(c.handled_ok, 12);
    assert_eq!(c.handler_errors, 0);
}

#[test]
fn queued_mail_runs_behind_its_remapped_message_sequentially() {
    queued_mail_runs_behind_its_remapped_message();
}
