//! A real multi-threaded deployment: three hives over TCP on localhost,
//! each on its own thread with the system clock — the production code path
//! (no simulator involved).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beehive::core::{Hive, HiveConfig, HiveHandle, TransportPreference};
use beehive::net::bind_tcp;
use beehive::prelude::*;
use beehive_core::sync::Mutex;
use serde::{Deserialize, Serialize};

mod common;
use common::HiveThread;

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
    hive: u32,
}
beehive::core::impl_message!(Answer);

fn counter(answers: Arc<Mutex<Vec<Answer>>>) -> App {
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
            move |m, ctx| {
                let n: u64 = ctx.get("c", &m.key)?.unwrap_or(0);
                ctx.emit(Answer {
                    key: m.key.clone(),
                    value: n,
                    hive: ctx.hive().0,
                });
                Ok(())
            },
        )
        .handle::<Answer>(|_m| Mapped::LocalSingleton, {
            move |m, _ctx| {
                answers.lock().push(m.clone());
                Ok(())
            }
        })
        .build()
}

#[test]
fn three_hives_over_tcp_route_consistently() {
    let n = 3u32;
    // Bind everyone on port 0 first, then exchange addresses.
    let mut transports = Vec::new();
    for i in 1..=n {
        let (t, addr, _counters) = bind_tcp(
            TransportPreference::Reactor,
            HiveId(i),
            "127.0.0.1:0".parse().unwrap(),
            HashMap::new(),
        )
        .unwrap();
        transports.push((HiveId(i), t, addr));
    }
    let addrs: Vec<_> = transports
        .iter()
        .map(|(id, _, addr)| (*id, *addr))
        .collect();
    for (id, t, _) in transports.iter_mut() {
        for (peer, addr) in &addrs {
            if *peer != *id {
                t.connect_peer(*peer, &addr.to_string());
            }
        }
    }

    let all: Vec<HiveId> = (1..=n).map(HiveId).collect();
    let answers = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<HiveHandle> = Vec::new();
    let mut threads = Vec::new();

    for (id, transport, _) in transports {
        let mut cfg = HiveConfig::clustered(id, all.clone(), 3);
        cfg.tick_interval_ms = 0;
        cfg.pending_retry_ms = 200;
        let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), transport);
        hive.install(counter(answers.clone()));
        handles.push(hive.handle());
        let stop2 = stop.clone();
        threads.push(HiveThread::spawn(hive, move |hive| hive.run(&stop2)));
    }

    // Give the registry group a moment to elect.
    std::thread::sleep(std::time::Duration::from_millis(500));

    // The same key from every hive must land on one bee.
    for h in &handles {
        h.emit(Count { key: "k".into() });
        h.emit(Count { key: "k".into() });
    }
    // Wait, then read back through a different hive than the writer.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let mut value = 0;
    while std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(200));
        handles[2].emit(ReadBack { key: "k".into() });
        std::thread::sleep(std::time::Duration::from_millis(200));
        if let Some(a) = answers.lock().last() {
            value = a.value;
            if value == 6 {
                break;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let hives: Vec<Hive> = threads.into_iter().map(HiveThread::join).collect();

    assert_eq!(value, 6, "all six increments must reach the single bee");
    let total_bees: usize = hives.iter().map(|h| h.local_bee_count("counter")).sum();
    // One cell bee for "k" plus up to one LocalSingleton Answer bee per hive.
    let cell_bees: usize = hives
        .iter()
        .flat_map(|h| h.local_bees("counter"))
        .filter(|&(_, cells)| cells > 0)
        .count();
    assert_eq!(
        cell_bees, 1,
        "exactly one colony for key k (got {total_bees} bees total)"
    );
}
