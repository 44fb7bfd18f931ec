//! Durable registry state: a hive that restarts with `registry_storage_dir`
//! set comes back with its Raft term, vote and registry mirror intact, and
//! the cluster keeps routing to the right colonies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beehive::core::{Hive, HiveConfig};
use beehive::net::ReactorTransport;
use beehive::prelude::*;
use serde::{Deserialize, Serialize};

mod common;
use common::HiveThread;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Put {
    key: String,
    value: u64,
}
beehive::core::impl_message!(Put);

fn kv() -> App {
    App::builder("kv")
        .handle::<Put>(
            |m| Mapped::cell("d", &m.key),
            |m, ctx| ctx.put("d", m.key.clone(), &m.value),
        )
        .build()
}

/// Builds a hive bound to a fresh TCP port with durable registry storage.
fn build_hive(
    id: HiveId,
    addr: std::net::SocketAddr,
    peers: std::collections::HashMap<HiveId, std::net::SocketAddr>,
    all: Vec<HiveId>,
    dir: &std::path::Path,
) -> Hive {
    let transport = ReactorTransport::bind(id, addr, peers).unwrap();
    let mut cfg = HiveConfig::clustered(id, all, 3);
    cfg.tick_interval_ms = 0;
    cfg.pending_retry_ms = 200;
    cfg.registry_storage_dir = Some(dir.to_path_buf());
    // Snapshot after every applied entry so the durable state machine is
    // always current (commit index is volatile in Raft; a lone restarted
    // voter can only restore its mirror from a snapshot).
    cfg.registry_snapshot_threshold = 1;
    let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), Box::new(transport));
    hive.install(kv());
    hive
}

#[test]
fn restarted_hive_recovers_registry_from_disk() {
    let dir = std::env::temp_dir().join(format!("bh-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Fixed ports for this test (restart must rebind the same address).
    let base = 39120u16;
    let addr = |i: u32| -> std::net::SocketAddr {
        format!("127.0.0.1:{}", base + i as u16).parse().unwrap()
    };
    let all: Vec<HiveId> = (1..=3).map(HiveId).collect();
    let peers_of = |me: u32| {
        (1..=3u32)
            .filter(|&i| i != me)
            .map(|i| (HiveId(i), addr(i)))
            .collect::<std::collections::HashMap<_, _>>()
    };

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    let mut threads = Vec::new();
    for i in 1..=3u32 {
        let hive = build_hive(HiveId(i), addr(i), peers_of(i), all.clone(), &dir);
        handles.push(hive.handle());
        let s = stop.clone();
        threads.push(HiveThread::spawn(hive, move |hive| hive.run(&s)));
    }
    std::thread::sleep(std::time::Duration::from_millis(600));

    // Populate some keys from various hives.
    for (i, h) in handles.iter().enumerate() {
        h.emit(Put {
            key: format!("key{i}"),
            value: i as u64 * 10,
        });
    }
    std::thread::sleep(std::time::Duration::from_millis(1500));

    // Stop the whole cluster (simulating a full restart) …
    stop.store(true, Ordering::Relaxed);
    let hives: Vec<Hive> = threads.into_iter().map(HiveThread::join).collect();
    let bees_before: usize = hives
        .iter()
        .map(|h| h.registry_view().bee_count())
        .max()
        .unwrap();
    assert!(bees_before >= 3, "three colonies existed before restart");
    drop(hives);
    std::thread::sleep(std::time::Duration::from_millis(300));

    // … and bring one hive back alone from its durable state.
    let transport =
        ReactorTransport::bind(HiveId(1), addr(1), peers_of(1)).expect("rebind after drop");
    let mut cfg = HiveConfig::clustered(HiveId(1), all, 3);
    cfg.tick_interval_ms = 0;
    cfg.registry_storage_dir = Some(dir.clone());
    cfg.registry_snapshot_threshold = 1;
    let mut revived = Hive::new(cfg, Arc::new(SystemClock::new()), Box::new(transport));
    revived.install(kv());
    revived.step_until_quiescent(1000);

    // Its registry mirror was restored from the on-disk snapshot (no quorum
    // needed): the colonies created before the restart are still known.
    let view = revived.registry_view();
    assert!(
        view.bee_count() >= 3,
        "registry mirror restored from durable log: {} bees",
        view.bee_count()
    );
    for i in 0..3 {
        assert!(
            view.owner("kv", &Cell::new("d", format!("key{i}")))
                .is_some(),
            "key{i} ownership survived the restart"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A standalone hive is a one-voter registry group, so with a storage dir it
/// journals its registry like any voter: rebuilt on the same directory, it
/// comes back with every colony it created.
#[test]
fn restarted_standalone_hive_keeps_its_registry() {
    let dir = std::env::temp_dir().join(format!("bh-durable-standalone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot = || {
        let mut cfg = HiveConfig::standalone(HiveId(1));
        cfg.tick_interval_ms = 0;
        cfg.registry_storage_dir = Some(dir.clone());
        let mut hive = Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(1))),
        );
        hive.install(kv());
        hive
    };

    let mut hive = boot();
    for i in 0..3u64 {
        hive.emit(Put {
            key: format!("key{i}"),
            value: i,
        });
    }
    hive.step_until_quiescent(1000);
    let bees = hive.registry_view().bees().count();
    assert_eq!(bees, 3, "one colony per key");
    let digest = hive.registry_digest();
    drop(hive);

    let mut revived = boot();
    revived.step_until_quiescent(1000);
    assert_eq!(
        revived.registry_view().bees().count(),
        bees,
        "colonies survive the restart"
    );
    assert_eq!(
        revived.registry_digest(),
        digest,
        "registry digest survives the restart"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
