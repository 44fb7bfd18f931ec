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

/// Runs the workload on one standalone hive with `workers` executor threads
/// and returns (final accounts, per-bee delivered-message counts). All ops
/// are emitted up front, so every routing decision commits before any bee
/// runs — `workers = 1` then runs one message per run-queue turn and
/// `workers = 4` whole mailboxes per round, and both must produce
/// bit-identical state and identical per-bee delivery counts.
fn run_standalone(workers: usize, ops: &[DoOp]) -> (BTreeMap<String, Account>, BTreeMap<u64, u64>) {
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0; // no platform ticks: the workload is the only input
    cfg.workers = workers;
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
    let instr = hive.instrumentation();
    let per_bee: BTreeMap<u64, u64> = instr
        .lock()
        .bees
        .iter()
        .filter(|((app, _), _)| app == "bank")
        .map(|((_, bee), stats)| (*bee, stats.msgs_in))
        .collect();
    let counters = hive.counters();
    assert_eq!(counters.handler_errors, 0);
    assert_eq!(counters.dropped_orphans, 0);
    assert_eq!(counters.merge_collisions, 0);
    (accounts, per_bee)
}

#[test]
fn workers_one_vs_four_identical() {
    let ops = workload(123, 400);
    let (seq_accounts, seq_per_bee) = run_standalone(1, &ops);
    let (par_accounts, par_per_bee) = run_standalone(4, &ops);
    assert_eq!(
        seq_accounts, par_accounts,
        "workers=4 must produce bit-identical final dictionary state"
    );
    assert_eq!(
        seq_per_bee, par_per_bee,
        "workers=4 must deliver the same messages to the same bees"
    );
    assert!(
        !par_accounts.is_empty(),
        "workload must have produced state"
    );
}

/// Every bank bee's full dictionary contents, byte for byte, plus the
/// hive-level handled/error counters — the strongest observable equality
/// the audit API offers.
fn audit_bank(workers: usize, ops: &[DoOp]) -> (BTreeMap<u64, DictDump>, u64, u64) {
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0;
    cfg.workers = workers;
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

    let mut dicts = BTreeMap::new();
    for (bee, _) in hive.local_bees("bank") {
        dicts.insert(bee.0, hive.audit_dicts("bank", bee));
    }
    let counters = hive.counters();
    (dicts, counters.handled_ok, counters.handler_errors)
}

/// Draining a whole mailbox inside one open transaction with per-message
/// savepoints (workers=4) must be observationally identical to running one
/// message per turn (workers=1): byte-identical final dictionaries and
/// identical platform counters.
#[test]
fn batched_drains_byte_identical_to_per_message() {
    let ops = workload(321, 400);
    let (per_msg, ok_1, err_1) = audit_bank(1, &ops);
    let (batched, ok_b, err_b) = audit_bank(4, &ops);
    assert_eq!(
        per_msg, batched,
        "whole-mailbox drains must produce byte-identical dictionaries"
    );
    assert_eq!((ok_1, err_1), (ok_b, err_b), "counters must match");
    assert!(ok_1 > 0, "workload must have handled messages");
}

#[test]
fn parallel_stress_no_envelope_lost_or_duplicated() {
    // Many disjoint-cell bees hammered under workers=4: every key gets an
    // exact number of bumps, so any lost or double-delivered envelope shows
    // up as a wrong counter or a wrong per-bee delivery count.
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
    cfg.workers = 4;
    let mut hive = Hive::new(
        cfg,
        std::sync::Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(count_app());

    // Interleave emission with stepping so rounds run on partial batches
    // (checked-out bees receive more mail mid-round and get re-queued).
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

/// Chaos-lite equivalence: the same seeded fault schedule (handler faults
/// only — every fault the redelivery layer fully masks) run with 1 and with
/// 4 executor workers must land on the identical final dictionary state and
/// the identical conservation counters. Parallelism may reorder work inside
/// a round, but it must not change what the application computed or what
/// the platform accounted.
#[test]
fn chaos_lite_workers_one_vs_four_equivalent() {
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
        let seq = run_seed(
            seed,
            &ChaosConfig {
                workers: 1,
                ..cfg.clone()
            },
        );
        let par = run_seed(
            seed,
            &ChaosConfig {
                workers: 4,
                ..cfg.clone()
            },
        );
        assert!(
            seq.violations.is_empty(),
            "seed {seed}: {:?}",
            seq.violations
        );
        assert!(
            par.violations.is_empty(),
            "seed {seed}: {:?}",
            par.violations
        );
        assert_eq!(
            seq.final_left, par.final_left,
            "seed {seed}: workers=4 must produce the identical final dictionary"
        );
        assert_eq!(
            (
                seq.emits,
                seq.handled,
                seq.dead_lettered,
                seq.dropped_app,
                seq.lost
            ),
            (
                par.emits,
                par.handled,
                par.dead_lettered,
                par.dropped_app,
                par.lost
            ),
            "seed {seed}: conservation counters must match across worker counts"
        );
        assert!(
            seq.emits > 0 && seq.handled == seq.emits,
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
