//! The introspection plane end to end: two hives over real TCP, a
//! cross-hive message chain, and a [`beehive::core::StatusServer`] on hive 1
//! answering `GET /trace/<id>` by assembling spans from *both* hives into
//! one merged chrome-trace document.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beehive::core::{
    Analytics, Hive, HiveConfig, HiveHandle, StatusContext, StatusServer, TraceCollector, Transport,
};
use beehive::net::ReactorTransport;
use beehive::prelude::*;
use serde::{Deserialize, Serialize};

mod common;
use common::HiveThread;
#[path = "common/http.rs"]
mod http;
use http::http_get;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Hop {
    stage: u8,
    key: String,
}
beehive::core::impl_message!(Hop);

/// Stage 0 → 1 → 2, each stage its own cell so the chain can span hives.
fn chain_app() -> App {
    App::builder("chain")
        .handle::<Hop>(
            |m| {
                let dict = match m.stage {
                    0 => "s0",
                    1 => "s1",
                    _ => "s2",
                };
                Mapped::cell(dict, &m.key)
            },
            |m, ctx| {
                if m.stage < 2 {
                    ctx.emit(Hop {
                        stage: m.stage + 1,
                        key: m.key.clone(),
                    });
                }
                Ok(())
            },
        )
        .build()
}

#[test]
fn status_server_assembles_a_cross_hive_trace_over_tcp() {
    // Two hives over TCP on localhost, port 0 then address exchange.
    let mut transports: Vec<ReactorTransport> = (1..=2u32)
        .map(|i| {
            ReactorTransport::bind(HiveId(i), "127.0.0.1:0".parse().unwrap(), HashMap::new())
                .unwrap()
        })
        .collect();
    let addrs: Vec<_> = transports.iter().map(|t| t.local_addr()).collect();
    for (i, t) in transports.iter_mut().enumerate() {
        for (j, &addr) in addrs.iter().enumerate() {
            if i != j {
                t.add_peer(HiveId(j as u32 + 1), addr);
            }
        }
    }

    let all = vec![HiveId(1), HiveId(2)];
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles: Vec<HiveHandle> = Vec::new();
    let mut tracers: Vec<Arc<TraceCollector>> = Vec::new();
    let mut status_ctx: Option<StatusContext> = None;
    let mut threads = Vec::new();

    for transport in transports {
        let id = transport.local();
        let counters = transport.counters();
        let mut cfg = HiveConfig::clustered(id, all.clone(), 2);
        cfg.tick_interval_ms = 0;
        cfg.pending_retry_ms = 200;
        let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), Box::new(transport));
        hive.install(chain_app());
        handles.push(hive.handle());
        tracers.push(hive.tracer());
        if id == HiveId(1) {
            let handle = hive.handle();
            status_ctx = Some(StatusContext {
                analytics: Arc::new(std::sync::Mutex::new(Analytics::new())),
                transport: Some(counters),
                dead_letters: hive.dead_letters(),
                events: hive.events(),
                tracer: hive.tracer(),
                trace_hub: hive.trace_hub(),
                nudge: Some(Arc::new(move || handle.nudge())),
                lifecycle: Some(hive.lifecycle()),
            });
        }
        let stop2 = stop.clone();
        threads.push(HiveThread::spawn(hive, move |hive| hive.run(&stop2)));
    }
    let server = StatusServer::bind("127.0.0.1:0".parse().unwrap(), status_ctx.unwrap())
        .expect("bind status server");

    std::thread::sleep(std::time::Duration::from_millis(500));

    // Warm-up: claim stages 1 and 2 on hive 2, so hive 1's traced run below
    // has to cross the wire to finish the chain.
    handles[1].emit(Hop {
        stage: 1,
        key: "k".into(),
    });
    std::thread::sleep(std::time::Duration::from_millis(500));

    // The traced run starts at stage 0 on hive 1.
    handles[0].emit(Hop {
        stage: 0,
        key: "k".into(),
    });

    // Wait until the root ran on hive 1 and both remote stages ran on hive 2.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let root = loop {
        let h1 = tracers[0].snapshot();
        if let Some(root) = h1
            .iter()
            .find(|s| s.app == "chain" && s.parent_span == 0)
            .cloned()
        {
            let remote = tracers[1]
                .snapshot()
                .iter()
                .filter(|s| s.trace_id == root.trace_id)
                .count();
            if remote >= 2 {
                break root;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "chain never completed across both hives"
        );
        std::thread::sleep(std::time::Duration::from_millis(100));
    };

    // GET /trace/<id> triggers the cluster-wide assembly: hive 1 broadcasts
    // a TraceQuery, hive 2 replies, and the server merges the spans.
    let body = http_get(server.local_addr(), &format!("/trace/{}", root.trace_id))
        .expect("status server answers");
    assert!(body.contains("\"traceEvents\""), "body: {body}");
    assert!(
        body.contains("\"pid\":1") && body.contains("\"pid\":2"),
        "merged trace must carry spans from both hives: {body}"
    );
    assert!(
        body.contains("\"name\":\"hive-1\"") && body.contains("\"name\":\"hive-2\""),
        "one process lane per hive: {body}"
    );
    assert!(
        body.matches("\"ph\":\"X\"").count() >= 3,
        "all three chain stages in the merge: {body}"
    );
    assert!(
        body.contains(&format!("\"parent\":{}", root.span_id)),
        "remote spans link back to the root via parent_span: {body}"
    );

    // The flight recorder on hive 1 saw real lifecycle traffic and none of
    // it rendered malformed.
    let events = http_get(server.local_addr(), "/events?n=500").expect("status server answers");
    assert!(events.contains("\"kind\":\"peer_connect\""), "{events}");
    assert!(events.contains("\"kind\":\"bee_spawned\""), "{events}");

    stop.store(true, Ordering::Relaxed);
    for h in &handles {
        h.nudge();
    }
    let hives: Vec<Hive> = threads.into_iter().map(HiveThread::join).collect();
    for hive in &hives {
        assert_eq!(hive.events().malformed(), 0);
    }
    drop(server);
}
