//! Colony merges: when a message's mapped cells bridge two existing
//! colonies — possibly on different hives — the platform must merge them
//! into one bee (paper §3: "the keys in K1 ∪ K2 are always accessed by only
//! one instance") and combine their state.

use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

/// Touches one account.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Deposit {
    account: String,
    amount: u64,
}
beehive::core::impl_message!(Deposit);

/// Touches TWO accounts — its mapped cells are both, forcing collocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Transfer {
    from: String,
    to: String,
    amount: u64,
}
beehive::core::impl_message!(Transfer);

fn bank() -> App {
    App::builder("bank")
        .handle::<Deposit>(
            |m| Mapped::cell("accounts", &m.account),
            |m, ctx| {
                let v: u64 = ctx.get("accounts", &m.account)?.unwrap_or(0);
                ctx.put("accounts", m.account.clone(), &(v + m.amount))
            },
        )
        .handle::<Transfer>(
            |m| Mapped::cells([Cell::new("accounts", &m.from), Cell::new("accounts", &m.to)]),
            |m, ctx| {
                let from: u64 = ctx.get("accounts", &m.from)?.unwrap_or(0);
                if from < m.amount {
                    return Err(format!("insufficient funds in {}", m.from).into());
                }
                let to: u64 = ctx.get("accounts", &m.to)?.unwrap_or(0);
                ctx.put("accounts", m.from.clone(), &(from - m.amount))?;
                ctx.put("accounts", m.to.clone(), &(to + m.amount))?;
                Ok(())
            },
        )
        .build()
}

fn balance(c: &SimCluster, account: &str) -> Option<u64> {
    let cell = Cell::new("accounts", account);
    for id in c.ids() {
        let mirror = c.hive(id).registry_view();
        if let Some(bee) = mirror.owner("bank", &cell) {
            let hive = mirror.hive_of(bee)?;
            return c
                .hive(hive)
                .peek_state::<u64>("bank", bee, "accounts", account);
        }
    }
    None
}

fn owner_of(c: &SimCluster, account: &str) -> (BeeId, HiveId) {
    let cell = Cell::new("accounts", account);
    let mirror = c.hive(HiveId(1)).registry_view();
    let bee = mirror.owner("bank", &cell).expect("owner exists");
    (bee, mirror.hive_of(bee).expect("hive known"))
}

#[test]
fn transfer_merges_colonies_on_one_hive() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            ..Default::default()
        },
        |h| h.install(bank()),
    );
    c.elect_registry(60_000).unwrap();
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "alice".into(),
        amount: 100,
    });
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "bob".into(),
        amount: 50,
    });
    c.advance(2_000, 50);
    assert_eq!(
        c.hive(HiveId(1)).local_bee_count("bank"),
        2,
        "separate colonies at first"
    );

    c.hive_mut(HiveId(1)).emit(Transfer {
        from: "alice".into(),
        to: "bob".into(),
        amount: 30,
    });
    c.advance(2_000, 50);

    assert_eq!(
        c.hive(HiveId(1)).local_bee_count("bank"),
        1,
        "colonies merged"
    );
    assert_eq!(balance(&c, "alice"), Some(70));
    assert_eq!(balance(&c, "bob"), Some(80));
    assert_eq!(
        owner_of(&c, "alice").0,
        owner_of(&c, "bob").0,
        "single owner bee"
    );
}

#[test]
fn transfer_merges_colonies_across_hives() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            ..Default::default()
        },
        |h| h.install(bank()),
    );
    c.elect_registry(120_000).unwrap();
    // Colonies born on different hives.
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "alice".into(),
        amount: 100,
    });
    c.hive_mut(HiveId(2)).emit(Deposit {
        account: "bob".into(),
        amount: 50,
    });
    c.advance(3_000, 50);
    let (alice_bee, alice_hive) = owner_of(&c, "alice");
    let (bob_bee, bob_hive) = owner_of(&c, "bob");
    assert_ne!(alice_bee, bob_bee);
    assert_ne!(alice_hive, bob_hive);

    // The bridging message arrives on yet another hive.
    c.hive_mut(HiveId(3)).emit(Transfer {
        from: "alice".into(),
        to: "bob".into(),
        amount: 30,
    });
    c.advance(4_000, 50);

    let (a_bee, _) = owner_of(&c, "alice");
    let (b_bee, _) = owner_of(&c, "bob");
    assert_eq!(a_bee, b_bee, "one bee owns both accounts after the merge");
    assert_eq!(
        balance(&c, "alice"),
        Some(70),
        "loser state was shipped and merged"
    );
    assert_eq!(balance(&c, "bob"), Some(80));

    // Follow-up traffic for both accounts still works.
    c.hive_mut(HiveId(2)).emit(Deposit {
        account: "alice".into(),
        amount: 1,
    });
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "bob".into(),
        amount: 1,
    });
    c.advance(3_000, 50);
    assert_eq!(balance(&c, "alice"), Some(71));
    assert_eq!(balance(&c, "bob"), Some(81));
}

#[test]
fn failed_transfer_rolls_back_atomically() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 1,
            voters: 1,
            hive: HiveConfig {
                max_redeliveries: 0, // count exactly one failed attempt
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(bank()),
    );
    c.elect_registry(60_000).unwrap();
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "alice".into(),
        amount: 10,
    });
    c.hive_mut(HiveId(1)).emit(Deposit {
        account: "bob".into(),
        amount: 0,
    });
    c.advance(2_000, 50);
    // Overdraft: the handler errors; the tx must roll back both writes.
    c.hive_mut(HiveId(1)).emit(Transfer {
        from: "alice".into(),
        to: "bob".into(),
        amount: 999,
    });
    c.advance(2_000, 50);
    assert_eq!(balance(&c, "alice"), Some(10));
    assert_eq!(balance(&c, "bob"), Some(0));
    assert_eq!(c.hive(HiveId(1)).counters().handler_errors, 1);
}

#[test]
fn chained_transfers_merge_transitively() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        |h| h.install(bank()),
    );
    c.elect_registry(120_000).unwrap();
    for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
        c.hive_mut(HiveId((i % 2 + 1) as u32)).emit(Deposit {
            account: name.to_string(),
            amount: 100,
        });
    }
    c.advance(3_000, 50);
    // a-b, then c-d, then b-c: everything ends in one colony.
    c.hive_mut(HiveId(1)).emit(Transfer {
        from: "a".into(),
        to: "b".into(),
        amount: 1,
    });
    c.advance(3_000, 50);
    c.hive_mut(HiveId(2)).emit(Transfer {
        from: "c".into(),
        to: "d".into(),
        amount: 2,
    });
    c.advance(3_000, 50);
    c.hive_mut(HiveId(1)).emit(Transfer {
        from: "b".into(),
        to: "c".into(),
        amount: 3,
    });
    c.advance(4_000, 50);

    let owners: Vec<BeeId> = ["a", "b", "c", "d"]
        .iter()
        .map(|k| owner_of(&c, k).0)
        .collect();
    assert!(
        owners.windows(2).all(|w| w[0] == w[1]),
        "all accounts share one bee: {owners:?}"
    );
    assert_eq!(balance(&c, "a"), Some(99)); // 100 - 1
    assert_eq!(balance(&c, "b"), Some(98)); // 100 + 1 - 3
    assert_eq!(balance(&c, "c"), Some(101)); // 100 - 2 + 3
    assert_eq!(balance(&c, "d"), Some(102)); // 100 + 2
}
