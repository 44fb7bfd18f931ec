//! Quickstart: define a stateful control application, run a hive, send it
//! messages, inspect its state and the platform's design feedback.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use beehive::prelude::*;
use serde::{Deserialize, Serialize};

// 1. Messages are plain serde structs wired up with `impl_message!`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HostSeen {
    host: String,
    switch: u64,
}
beehive::core::impl_message!(HostSeen);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct WhereIs {
    host: String,
}
beehive::core::impl_message!(WhereIs);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Located {
    host: String,
    switch: Option<u64>,
    sightings: u64,
}
beehive::core::impl_message!(Located);

/// The cells a host's messages touch: its count and its location.
fn host_cells(host: &str) -> Mapped {
    Mapped::cells([Cell::new("hosts", host), Cell::new("locations", host)])
}

fn host_tracker() -> App {
    App::builder("host-tracker")
        // `map` declares which state entries the function needs — a host's
        // sighting count and location. The platform guarantees all messages
        // for the same host reach the same bee, wherever it lives in the
        // cluster.
        .handle::<HostSeen>(
            |m| host_cells(&m.host),
            |m, ctx| {
                let n: u64 = ctx.get("hosts", &m.host)?.unwrap_or(0);
                ctx.put("hosts", m.host.clone(), &(n + 1))?;
                ctx.put("locations", m.host.clone(), &m.switch)?;
                Ok(())
            },
        )
        .handle::<WhereIs>(
            |m| host_cells(&m.host),
            |m, ctx| {
                let sightings: u64 = ctx.get("hosts", &m.host)?.unwrap_or(0);
                let switch: Option<u64> = ctx.get("locations", &m.host)?;
                ctx.emit(Located {
                    host: m.host.clone(),
                    switch,
                    sightings,
                });
                Ok(())
            },
        )
        .build()
}

fn main() {
    // 2. A standalone hive: a one-voter registry group, loopback transport,
    //    real clock.
    let mut hive = Hive::new(
        beehive::core::HiveConfig::standalone(HiveId(1)),
        Arc::new(SystemClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    );
    hive.install(host_tracker());

    // A tiny observer that prints every `Located` answer.
    hive.install(
        App::builder("observer")
            .with::<Located>(
                "Print",
                "seen",
                |m| m.host.clone(),
                |m, _ctx| {
                    println!(
                        "  {} -> switch {:?} (seen {} times)",
                        m.host, m.switch, m.sightings
                    );
                    Ok(())
                },
            )
            .build(),
    );

    // 3. Feed it events and a query.
    println!("emitting sightings…");
    hive.emit(HostSeen {
        host: "10.0.0.1".into(),
        switch: 4,
    });
    hive.emit(HostSeen {
        host: "10.0.0.1".into(),
        switch: 4,
    });
    hive.emit(HostSeen {
        host: "10.0.0.2".into(),
        switch: 9,
    });
    hive.emit(HostSeen {
        host: "10.0.0.1".into(),
        switch: 7,
    }); // host moved
    hive.emit(WhereIs {
        host: "10.0.0.1".into(),
    });
    hive.emit(WhereIs {
        host: "10.0.0.3".into(),
    }); // never seen
    hive.step_until_quiescent(1_000);

    // 4. Inspect: one bee per host key.
    println!(
        "host-tracker is running {} bees (one per host)",
        hive.local_bee_count("host-tracker")
    );

    // 5. Design feedback: this app has no whole-dictionary access, so the
    // platform reports no centralization bottleneck.
    let report = beehive::core::feedback::design_feedback(&host_tracker());
    print!("{report}");
    assert!(!report.is_centralized());
}
