//! Elastic membership end to end over real TCP — the production code path,
//! no simulator: a three-voter cluster absorbs a fourth hive live (learner →
//! voter, with every peer adding it at runtime), then a seed voter drains
//! out under load. The drained hive must exit with zero owned cells and a
//! fully-acked outbox, `/healthz` must report `draining` while it leaves,
//! and the survivors must account for every increment — nothing lost to the
//! scale-in — with exactly one owner per cell afterwards.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beehive::core::{
    Analytics, Hive, HiveConfig, HiveHandle, LifecycleStage, StatusContext, StatusServer, Transport,
};
use beehive::net::ReactorTransport;
use beehive::prelude::*;
use beehive_core::sync::Mutex;
use serde::{Deserialize, Serialize};

mod common;
use common::HiveThread;
#[path = "common/http.rs"]
mod http;
use http::http_get;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Count {
    key: String,
}
beehive::core::impl_message!(Count);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ReadBack {
    key: String,
}
beehive::core::impl_message!(ReadBack);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Answer {
    key: String,
    value: u64,
}
beehive::core::impl_message!(Answer);

fn counter(answers: Arc<Mutex<HashMap<String, u64>>>) -> App {
    App::builder("counter")
        .handle::<Count>(
            |m| Mapped::cell("c", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                ctx.put("c", m.key.clone(), &(n + 1))?;
                Ok(())
            },
        )
        .handle::<ReadBack>(
            |m| Mapped::cell("c", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                ctx.emit(Answer {
                    key: m.key.clone(),
                    value: n,
                });
                Ok(())
            },
        )
        .handle::<Answer>(|_m| Mapped::LocalSingleton, {
            move |m, _ctx| {
                answers.lock().insert(m.key.clone(), m.value);
                Ok(())
            }
        })
        .build()
}

fn key(i: usize) -> String {
    format!("k{i}")
}

const KEYS: usize = 8;

#[test]
fn hive_joins_live_then_a_voter_drains_out_over_tcp() {
    // --- seed cluster: three voters over TCP, port 0 + address exchange ---
    let mut transports: Vec<ReactorTransport> = (1..=3u32)
        .map(|i| {
            ReactorTransport::bind(HiveId(i), "127.0.0.1:0".parse().unwrap(), HashMap::new())
                .unwrap()
        })
        .collect();
    let addrs: Vec<SocketAddr> = transports.iter().map(|t| t.local_addr()).collect();
    for (i, t) in transports.iter_mut().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                t.add_peer(HiveId(j as u32 + 1), addr);
            }
        }
    }

    let all: Vec<HiveId> = (1..=3).map(HiveId).collect();
    let answers: Arc<Mutex<HashMap<String, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<HiveHandle> = Vec::new();
    let mut drains: Vec<Arc<AtomicBool>> = Vec::new();
    let mut lifecycles = Vec::new();
    let mut threads = Vec::new();
    let mut status_server = None;

    for transport in transports {
        let id = transport.local();
        let counters = transport.counters();
        let mut cfg = HiveConfig::clustered(id, all.clone(), 3);
        cfg.tick_interval_ms = 0;
        cfg.pending_retry_ms = 200;
        let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), Box::new(transport));
        hive.install(counter(answers.clone()));
        handles.push(hive.handle());
        lifecycles.push(hive.lifecycle());
        if id == HiveId(1) {
            // The hive we will drain serves /healthz, so the test can watch
            // it report `draining` (with a 200) on its way out.
            let handle = hive.handle();
            let ctx = StatusContext {
                analytics: Arc::new(std::sync::Mutex::new(Analytics::new())),
                transport: Some(counters),
                dead_letters: hive.dead_letters(),
                events: hive.events(),
                tracer: hive.tracer(),
                trace_hub: hive.trace_hub(),
                nudge: Some(Arc::new(move || handle.nudge())),
                lifecycle: Some(hive.lifecycle()),
            };
            status_server =
                Some(StatusServer::bind("127.0.0.1:0".parse().unwrap(), ctx).expect("bind status"));
        }
        let drain = Arc::new(AtomicBool::new(false));
        drains.push(drain.clone());
        let stop2 = stop.clone();
        threads.push(HiveThread::spawn(hive, move |hive| {
            hive.run_elastic(&stop2, &drain)
        }));
    }
    let server = status_server.expect("hive 1 serves status");

    // Let the registry group elect, then spread some load: every seed hive
    // increments every key once (3 per key).
    std::thread::sleep(std::time::Duration::from_millis(500));
    for i in 0..KEYS {
        for h in &handles {
            h.emit(Count { key: key(i) });
        }
    }

    // --- live join: hive 4 boots as a learner against the running cluster.
    // Only the joiner knows the seed addresses; the seeds learn hive 4's
    // address at runtime from its join announcement.
    let peers: HashMap<HiveId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(j, &a)| (HiveId(j as u32 + 1), a))
        .collect();
    let t4 = ReactorTransport::bind(HiveId(4), "127.0.0.1:0".parse().unwrap(), peers).unwrap();
    let addr4 = t4.local_addr();
    let joined: Vec<HiveId> = (1..=4).map(HiveId).collect();
    let mut cfg4 = HiveConfig::clustered(HiveId(4), joined, 3);
    cfg4.tick_interval_ms = 0;
    cfg4.pending_retry_ms = 200;
    let mut hive4 = Hive::new(cfg4, Arc::new(SystemClock::new()), Box::new(t4));
    hive4.install(counter(answers.clone()));
    handles.push(hive4.handle());
    lifecycles.push(hive4.lifecycle());
    hive4.begin_join(&addr4.to_string());
    let drain4 = Arc::new(AtomicBool::new(false));
    drains.push(drain4.clone());
    let stop2 = stop.clone();
    threads.push(HiveThread::spawn(hive4, move |hive| {
        hive.run_elastic(&stop2, &drain4)
    }));

    // The staircase: learner added, log caught up, promoted to voter.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while lifecycles[3].stage() != LifecycleStage::Active {
        assert!(
            std::time::Instant::now() < deadline,
            "hive 4 never finished joining (stage {:?})",
            lifecycles[3].stage()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Load through the new member too (4 per key now).
    for i in 0..KEYS {
        handles[3].emit(Count { key: key(i) });
    }

    // --- drain hive 1, a seed voter, mid-workload ---
    drains[0].store(true, Ordering::Relaxed);
    handles[0].nudge();
    // Survivors keep writing while the evacuation runs (7 per key total).
    for i in 0..KEYS {
        for h in &handles[1..] {
            h.emit(Count { key: key(i) });
        }
    }

    // /healthz must report the deliberate transition — still a 200, so
    // orchestration can watch the drain rather than kill the pod.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut saw_draining = false;
    while std::time::Instant::now() < deadline {
        let body = http_get(server.local_addr(), "/healthz").expect("status server answers");
        if body.contains("\"lifecycle\":\"draining\"") {
            saw_draining = true;
            break;
        }
        if lifecycles[0].stage() == LifecycleStage::Departed {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(saw_draining, "/healthz never reported the drain");

    // The drained hive exits on its own: zero owned cells, outbox acked,
    // configuration entry removed.
    let hive1: Hive = threads.remove(0).join();
    assert_eq!(hive1.lifecycle().stage(), LifecycleStage::Departed);
    assert!(
        hive1
            .local_bees("counter")
            .iter()
            .all(|&(_, cells)| cells == 0),
        "a drained hive owns no cells: {:?}",
        hive1.local_bees("counter")
    );
    assert_eq!(
        hive1.channel_stats().outbox_depth,
        0,
        "a drained hive leaves no unacked envelopes behind"
    );

    // Every increment must be accounted for on the survivors: read each key
    // back until it reports all 7 writes (3 seed + 1 post-join + 3 in-drain).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        for i in 0..KEYS {
            handles[2].emit(ReadBack { key: key(i) });
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
        let snap = answers.lock().clone();
        if (0..KEYS).all(|i| snap.get(&key(i)) == Some(&7)) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "increments lost to the drain: {snap:?}"
        );
    }

    stop.store(true, Ordering::Relaxed);
    for h in &handles[1..] {
        h.nudge();
    }
    let survivors: Vec<Hive> = threads.into_iter().map(HiveThread::join).collect();

    // Ownership exclusivity after churn: every key-cell owned exactly once
    // across the survivors, and nothing rendered malformed anywhere.
    let owners: usize = survivors
        .iter()
        .flat_map(|h| h.local_bees("counter"))
        .filter(|&(_, cells)| cells > 0)
        .count();
    assert_eq!(owners, KEYS, "one owner per key across the survivors");
    for hive in survivors.iter().chain(std::iter::once(&hive1)) {
        assert_eq!(hive.events().malformed(), 0);
    }
    drop(server);
}
