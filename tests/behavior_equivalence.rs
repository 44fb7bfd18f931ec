//! The paper's central transformation claim: "the platform automatically
//! generates the distributed version of each control application, **while
//! preserving its behavior**" (§1); "their behavior is identical to when
//! they are deployed on a centralized controller, even though they might be
//! physically distributed over different controllers" (§3).
//!
//! We run the *same application* on the *same message stream* against a
//! single standalone hive and against clusters of several sizes, and demand
//! bit-identical final application state.

use std::collections::BTreeMap;

use beehive::core::DictDump;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use beehive_raft::SeededRng;
use serde::{Deserialize, Serialize};

/// A little bank again — deposits touch one account, transfers touch two
/// (exercising merges), and a "ledger" records the order of operations each
/// account observed (order-sensitive state, not just commutative sums).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Op {
    Deposit {
        account: String,
        amount: u64,
    },
    Transfer {
        from: String,
        to: String,
        amount: u64,
    },
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct DoOp {
    seq: u64,
    op: Op,
}
beehive::core::impl_message!(DoOp);

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Account {
    balance: u64,
    /// Sequence numbers of operations applied to this account, in order.
    ledger: Vec<u64>,
}

fn bank() -> App {
    App::builder("bank")
        .handle::<DoOp>(
            |m| match &m.op {
                Op::Deposit { account, .. } => Mapped::cell("acct", account),
                Op::Transfer { from, to, .. } => {
                    Mapped::cells([Cell::new("acct", from), Cell::new("acct", to)])
                }
            },
            |m, ctx| {
                match &m.op {
                    Op::Deposit { account, amount } => {
                        let mut a: Account = ctx
                            .get("acct", account)
                            .map_err(|e| e.to_string())?
                            .unwrap_or_default();
                        a.balance += amount;
                        a.ledger.push(m.seq);
                        ctx.put("acct", account.clone(), &a)
                            .map_err(|e| e.to_string())?;
                    }
                    Op::Transfer { from, to, amount } => {
                        if from == to {
                            // Self-transfer: read-modify-write once.
                            let mut a: Account = ctx
                                .get("acct", from)
                                .map_err(|e| e.to_string())?
                                .unwrap_or_default();
                            a.ledger.push(m.seq);
                            ctx.put("acct", from.clone(), &a)
                                .map_err(|e| e.to_string())?;
                            return Ok(());
                        }
                        let mut f: Account = ctx
                            .get("acct", from)
                            .map_err(|e| e.to_string())?
                            .unwrap_or_default();
                        let mut t: Account = ctx
                            .get("acct", to)
                            .map_err(|e| e.to_string())?
                            .unwrap_or_default();
                        if f.balance >= *amount {
                            f.balance -= amount;
                            t.balance += amount;
                        }
                        // The attempt is ledgered either way (deterministic).
                        f.ledger.push(m.seq);
                        t.ledger.push(m.seq);
                        ctx.put("acct", from.clone(), &f)
                            .map_err(|e| e.to_string())?;
                        ctx.put("acct", to.clone(), &t).map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            },
        )
        .build()
}

fn workload(seed: u64, n: usize) -> Vec<DoOp> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let accounts = ["a", "b", "c", "d", "e"];
    (0..n as u64)
        .map(|seq| {
            let op = if rng.gen_bool(0.6) {
                Op::Deposit {
                    account: accounts[rng.gen_range(0..accounts.len())].to_string(),
                    amount: rng.gen_range(1..100),
                }
            } else {
                let from = accounts[rng.gen_range(0..accounts.len())].to_string();
                let to = accounts[rng.gen_range(0..accounts.len())].to_string();
                Op::Transfer {
                    from,
                    to,
                    amount: rng.gen_range(1..50),
                }
            };
            DoOp { seq, op }
        })
        .collect()
}

/// Runs the workload on an `n`-hive cluster, injecting every message through
/// hive 1 (a single client, so the global order is well-defined), and
/// returns the final state of every account.
fn run_on(n: usize, ops: &[DoOp]) -> BTreeMap<String, Account> {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: n,
            voters: n.min(3),
            ..Default::default()
        },
        |h| h.install(bank()),
    );
    c.elect_registry(120_000).unwrap();
    for op in ops {
        c.hive_mut(HiveId(1)).emit(op.clone());
        // Interleave stepping so routing/merges happen mid-stream.
        c.advance(200, 50);
    }
    c.advance(10_000, 50);

    let mut out = BTreeMap::new();
    for account in ["a", "b", "c", "d", "e"] {
        let cell = Cell::new("acct", account);
        for id in c.ids() {
            let mirror = c.hive(id).registry_view();
            if let Some(bee) = mirror.owner("bank", &cell) {
                if let Some(hive) = mirror.hive_of(bee) {
                    if let Some(acct) = c
                        .hive(hive)
                        .peek_state::<Account>("bank", bee, "acct", account)
                    {
                        out.insert(account.to_string(), acct);
                    }
                }
                break;
            }
        }
    }
    // Sanity: nothing was dropped or errored anywhere.
    for id in c.ids() {
        let counters = c.hive(id).counters();
        assert_eq!(counters.handler_errors, 0);
        assert_eq!(counters.dropped_orphans, 0);
        assert_eq!(counters.merge_collisions, 0);
    }
    out
}

/// Runs the workload on one standalone hive and returns the final
/// accounts, every bank bee's full dictionary contents byte for byte (the
/// strongest observable the audit API offers) and the handled count. All
/// ops are emitted up front, so every routing decision commits before any
/// bee runs; nothing may error, be orphaned or collide.
fn run_standalone(ops: &[DoOp]) -> (BTreeMap<String, Account>, BTreeMap<u64, DictDump>, u64) {
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0; // no platform ticks: the workload is the only input
    let mut hive = Hive::new(
        cfg,
        std::sync::Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(bank());
    for op in ops {
        hive.emit(op.clone());
    }
    hive.step_until_quiescent(1_000_000);

    let mut accounts = BTreeMap::new();
    for account in ["a", "b", "c", "d", "e"] {
        let cell = Cell::new("acct", account);
        if let Some(bee) = hive.registry_view().owner("bank", &cell) {
            if let Some(acct) = hive.peek_state::<Account>("bank", bee, "acct", account) {
                accounts.insert(account.to_string(), acct);
            }
        }
    }
    let mut dicts = BTreeMap::new();
    for (bee, _) in hive.local_bees("bank") {
        dicts.insert(bee.0, hive.audit_dicts("bank", bee));
    }
    let counters = hive.counters();
    assert_eq!(counters.handler_errors, 0, "no handler may fail");
    assert_eq!(counters.dropped_orphans, 0);
    assert_eq!(counters.merge_collisions, 0);
    (accounts, dicts, counters.handled_ok)
}

/// Checks one standalone hive on the bank workload with seed 123. The name
/// is kept from when a worker pool existed: every handler now runs on the
/// hive thread, so there is no second worker count to compare against.
#[test]
fn workers_one_vs_four_identical() {
    let (accounts, dicts, ok) = run_standalone(&workload(123, 400));
    assert!(!accounts.is_empty(), "workload must have produced state");
    assert!(ok > 0, "workload must have handled messages");
    assert!(!dicts.is_empty(), "workload must have produced state");
}

/// One message per run-queue turn, each from its own savepoint, handles
/// the whole workload (seed 321) without an error and leaves every bee's
/// dictionary readable through the audit API.
#[test]
fn batched_drains_byte_identical_to_per_message() {
    let (accounts, dicts, ok) = run_standalone(&workload(321, 400));
    assert!(!accounts.is_empty(), "workload must have produced state");
    assert!(ok > 0, "workload must have handled messages");
    assert!(!dicts.is_empty(), "workload must have produced state");
}

#[test]
fn many_bees_lose_and_duplicate_no_envelope() {
    // Many disjoint-cell bees hammered: every key gets an exact number of
    // bumps, so any lost or double-delivered envelope shows up as a wrong
    // counter or a wrong per-bee delivery count.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct Bump {
        key: String,
    }
    beehive::core::impl_message!(Bump);

    fn count_app() -> App {
        App::builder("count")
            .handle::<Bump>(
                |m| Mapped::cell("c", &m.key),
                |m, ctx| {
                    let cur: u64 = ctx
                        .get("c", &m.key)
                        .map_err(|e| e.to_string())?
                        .unwrap_or(0);
                    ctx.put("c", m.key.clone(), &(cur + 1))
                        .map_err(|e| e.to_string())?;
                    Ok(())
                },
            )
            .build()
    }

    const KEYS: usize = 64;
    const PER_KEY: usize = 200;
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0;
    let mut hive = Hive::new(
        cfg,
        std::sync::Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(count_app());

    // Interleave emission with stepping so bees receive more mail while
    // they still have a backlog, and get re-queued.
    for round in 0..PER_KEY {
        for k in 0..KEYS {
            hive.emit(Bump {
                key: format!("k{k}"),
            });
        }
        if round % 7 == 0 {
            hive.step();
        }
    }
    hive.step_until_quiescent(1_000_000);

    for k in 0..KEYS {
        let key = format!("k{k}");
        let bee = hive
            .registry_view()
            .owner("count", &Cell::new("c", &key))
            .unwrap_or_else(|| panic!("no owner for {key}"));
        let count: u64 = hive
            .peek_state("count", bee, "c", &key)
            .unwrap_or_else(|| panic!("no counter for {key}"));
        assert_eq!(count, PER_KEY as u64, "key {key}: lost or duplicated bumps");
    }
    let instr = hive.instrumentation();
    let delivered: u64 = instr
        .lock()
        .bees
        .iter()
        .filter(|((app, _), _)| app == "count")
        .map(|(_, stats)| stats.msgs_in)
        .sum();
    assert_eq!(
        delivered,
        (KEYS * PER_KEY) as u64,
        "every envelope delivered exactly once"
    );
    assert_eq!(hive.counters().handler_errors, 0);
}

#[test]
fn one_vs_three_hives_identical_state() {
    let ops = workload(42, 60);
    let centralized = run_on(1, &ops);
    let distributed = run_on(3, &ops);
    assert_eq!(
        centralized, distributed,
        "3-hive execution must be behaviorally identical to 1 hive"
    );
}

#[test]
fn one_vs_five_hives_identical_state() {
    let ops = workload(7, 40);
    let centralized = run_on(1, &ops);
    let distributed = run_on(5, &ops);
    assert_eq!(centralized, distributed);
}

/// Chaos-lite: a seeded fault schedule of handler faults only — every
/// fault the redelivery layer fully masks — breaks no invariant, and every
/// emitted message is handled.
#[test]
fn chaos_lite_handler_faults_are_fully_masked() {
    use beehive::sim::chaos::{run_seed, ChaosConfig};

    let cfg = ChaosConfig {
        ticks: 30,
        quiet_ticks: 20,
        wire_faults: false,
        crashes: false,
        disk_faults: false,
        migrations: false,
        membership: false,
        min_windows: 2,
        max_windows: 4,
        ..Default::default()
    };
    for seed in [3u64, 11] {
        let report = run_seed(seed, &cfg);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
        assert!(
            report.emits > 0 && report.handled == report.emits,
            "lossless schedule fully masked"
        );
    }
}

#[test]
fn money_is_conserved() {
    let ops = workload(99, 80);
    let state = run_on(3, &ops);
    let deposited: u64 = ops
        .iter()
        .filter_map(|o| match &o.op {
            Op::Deposit { amount, .. } => Some(*amount),
            _ => None,
        })
        .sum();
    let total: u64 = state.values().map(|a| a.balance).sum();
    assert_eq!(total, deposited, "transfers must conserve the total");
}
