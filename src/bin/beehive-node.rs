//! `beehive-node` — run one Beehive hive over TCP.
//!
//! A minimal production entry point: start N of these (one per machine or
//! port), point them at each other, and they form a cluster with a
//! Raft-replicated cell registry, running the bundled SDN applications.
//!
//! ```sh
//! # A three-hive cluster on localhost:
//! beehive-node --id 1 --listen 127.0.0.1:7001 \
//!     --peer 2=127.0.0.1:7002 --peer 3=127.0.0.1:7003 --voters 3 &
//! beehive-node --id 2 --listen 127.0.0.1:7002 \
//!     --peer 1=127.0.0.1:7001 --peer 3=127.0.0.1:7003 --voters 3 &
//! beehive-node --id 3 --listen 127.0.0.1:7003 \
//!     --peer 1=127.0.0.1:7001 --peer 2=127.0.0.1:7002 --voters 3 &
//! ```
//!
//! Options:
//!
//! * `--id N` — this hive's id (1-based; required)
//! * `--listen ADDR` — TCP listen address (required)
//! * `--peer ID=ADDR` — repeatable; every other hive in the cluster
//! * `--join ID=ADDR` — join a *running* cluster through the named member:
//!   the hive boots as a non-voting learner, catches up on the registry
//!   log, then asks for promotion to voter; every peer adds it at runtime.
//!   List further members with `--peer` as usual. `--voters` should name
//!   the existing cluster's voter count (default: all listed peers)
//! * `--drain` — start draining immediately after boot (testing); in normal
//!   operation send the process SIGTERM instead: the hive evacuates its
//!   bees, flushes its outbox, steps down voter → learner → removed and
//!   exits cleanly (a standalone hive has nowhere to evacuate to: it keeps
//!   its cells in its `--storage-dir` registry and exits)
//! * `--voters K` — registry Raft voters (the first K ids; default: all)
//! * `--replication R` — colony replication factor (default 1 = off)
//! * `--apps LIST` — comma-separated: `nib,rib,paths,vnet,learning-switch,discovery` (default: all)
//! * `--stats-every SECS` — print instrumentation analytics every N seconds (default 10; 0 = off)
//! * `--status-addr ADDR` — serve the live introspection plane over HTTP:
//!   `GET /metrics` (Prometheus), `/healthz`, `/events?n=K` (flight-recorder
//!   journal), `/trace/<id>` (merged cluster chrome-trace), `/dlq` (the
//!   messages that exhausted their redelivery budget or were rejected by
//!   quarantine / mailbox overflow)
//! * `--storage-dir PATH` — durable state directory: registry Raft log +
//!   snapshots and the reliable-channel outbox journal live here, so a
//!   SIGKILLed node restarts with its registry mirror, unacked sends and
//!   dedup state intact
//! * `--snapshot-interval N` — take a registry snapshot and compact the
//!   Raft log every N applied entries (default with `--storage-dir`: 1, so
//!   a lone restarted voter always restores from a snapshot)
//! * `--fsync always|never` — fsync policy for durable registry state
//!   (default `always`; `never` trades crash durability for throughput,
//!   e.g. in CI storms that only SIGKILL the process, not the machine)
//! * `--max-redeliveries N` — retries per failed handler delivery before a
//!   message dead-letters (default 3)
//! * `--mailbox-capacity N` — per-bee mailbox bound; 0 = unbounded (default)
//! * `--inject-fault APP:MSG:TIMES` — repeatable, testing only: fail the
//!   next TIMES deliveries of MSG (wire-name suffix match) to APP, to
//!   exercise supervised redelivery in smoke tests

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use beehive::apps::{
    discovery::discovery_app,
    learning_switch::learning_switch_app,
    nib::nib_app,
    routing::{path_app, rib_app},
    vnet::vnet_app,
};
use beehive::core::optimizer::OptimizerConfig;
use beehive::core::SystemClock;
use beehive::core::{
    collector_app, exporter_app, optimizer_app, Analytics, Hive, HiveConfig, HiveId, StatusContext,
    StatusServer, TransportPreference,
};
use beehive::net::bind_tcp;

struct Args {
    id: u32,
    listen: SocketAddr,
    peers: HashMap<HiveId, SocketAddr>,
    join: bool,
    drain: bool,
    voters: Option<usize>,
    replication: usize,
    apps: Vec<String>,
    stats_every: u64,
    status_addr: Option<SocketAddr>,
    storage_dir: Option<std::path::PathBuf>,
    snapshot_interval: Option<u64>,
    fsync: beehive::core::FsyncPolicy,
    max_redeliveries: Option<u32>,
    mailbox_capacity: Option<usize>,
    inject_faults: Vec<(String, String, u32)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: beehive-node --id N --listen ADDR [--peer ID=ADDR]... [--join ID=ADDR] \
         [--drain] [--voters K] \
         [--replication R] [--apps a,b,c] [--stats-every SECS] \
         [--status-addr ADDR] \
         [--storage-dir PATH] [--snapshot-interval N] [--fsync always|never] \
         [--max-redeliveries N] [--mailbox-capacity N] \
         [--inject-fault APP:MSG:TIMES]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut id = None;
    let mut listen = None;
    let mut peers = HashMap::new();
    let mut join = false;
    let mut drain = false;
    let mut voters = None;
    let mut replication = 1;
    let mut apps: Vec<String> = [
        "nib",
        "rib",
        "paths",
        "vnet",
        "learning-switch",
        "discovery",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut stats_every = 10;
    let mut status_addr = None;
    let mut storage_dir = None;
    let mut snapshot_interval = None;
    let mut fsync = beehive::core::FsyncPolicy::Always;
    let mut max_redeliveries = None;
    let mut mailbox_capacity = None;
    let mut inject_faults = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--id" => id = Some(val().parse().unwrap_or_else(|_| usage())),
            "--listen" => listen = Some(val().parse().unwrap_or_else(|_| usage())),
            "--peer" => {
                let v = val();
                let (pid, addr) = v.split_once('=').unwrap_or_else(|| usage());
                peers.insert(
                    HiveId(pid.parse().unwrap_or_else(|_| usage())),
                    addr.parse().unwrap_or_else(|_| usage()),
                );
            }
            "--join" => {
                // The join target is just a peer we also bootstrap through.
                let v = val();
                let (pid, addr) = v.split_once('=').unwrap_or_else(|| usage());
                peers.insert(
                    HiveId(pid.parse().unwrap_or_else(|_| usage())),
                    addr.parse().unwrap_or_else(|_| usage()),
                );
                join = true;
            }
            "--drain" => drain = true,
            "--voters" => voters = Some(val().parse().unwrap_or_else(|_| usage())),
            "--replication" => replication = val().parse().unwrap_or_else(|_| usage()),
            "--apps" => apps = val().split(',').map(|s| s.trim().to_string()).collect(),
            "--stats-every" => stats_every = val().parse().unwrap_or_else(|_| usage()),
            "--status-addr" => status_addr = Some(val().parse().unwrap_or_else(|_| usage())),
            "--storage-dir" => storage_dir = Some(std::path::PathBuf::from(val())),
            "--snapshot-interval" => {
                snapshot_interval = Some(val().parse::<u64>().unwrap_or_else(|_| usage()).max(1))
            }
            "--fsync" => {
                fsync = match val().as_str() {
                    "always" => beehive::core::FsyncPolicy::Always,
                    "never" => beehive::core::FsyncPolicy::Never,
                    _ => usage(),
                }
            }
            "--max-redeliveries" => {
                max_redeliveries = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--mailbox-capacity" => {
                mailbox_capacity = Some(val().parse().unwrap_or_else(|_| usage()))
            }
            "--inject-fault" => {
                let v = val();
                let parts: Vec<&str> = v.splitn(3, ':').collect();
                if parts.len() != 3 {
                    usage();
                }
                inject_faults.push((
                    parts[0].to_string(),
                    parts[1].to_string(),
                    parts[2].parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        id: id.unwrap_or_else(|| usage()),
        listen: listen.unwrap_or_else(|| usage()),
        peers,
        join,
        drain,
        voters,
        replication,
        apps,
        stats_every,
        status_addr,
        storage_dir,
        snapshot_interval,
        fsync,
        max_redeliveries,
        mailbox_capacity,
        inject_faults,
    }
}

/// Set by `--drain` at boot or by SIGTERM at runtime; `run_elastic` notices
/// the flip and walks the hive through evacuation → demotion → removal.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Routes SIGTERM to the drain flag, so `kill <pid>` asks the hive to leave
/// the cluster cleanly instead of dying with its bees. Raw `signal(2)`
/// through the C ABI keeps the binary dependency-free; flipping a relaxed
/// atomic is async-signal-safe.
#[cfg(unix)]
fn install_sigterm_drain() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_signum: i32) {
        DRAIN.store(true, Ordering::Relaxed);
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

fn main() {
    let args = parse_args();
    let me = HiveId(args.id);

    let (transport, advertise, tcp_counters) = bind_tcp(
        TransportPreference::Reactor,
        me,
        args.listen,
        args.peers.clone(),
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to bind {}: {e}", args.listen);
        std::process::exit(1);
    });
    eprintln!("hive {me} listening on {advertise}");

    let mut all: Vec<HiveId> = args
        .peers
        .keys()
        .copied()
        .chain(std::iter::once(me))
        .collect();
    all.sort();
    // A joiner must boot outside the voter set (a learner): by default the
    // existing members — everyone but us — are the voters.
    let default_voters = if args.join { all.len() - 1 } else { all.len() };
    let voters = args.voters.unwrap_or(default_voters).min(all.len());
    // Without `--peer` this is a standalone hive: a registry group of one.
    let mut cfg = HiveConfig::clustered(me, all, voters);
    cfg.replication_factor = args.replication;
    if let Some(dir) = &args.storage_dir {
        cfg.registry_storage_dir = Some(dir.clone());
        // A lone restarted voter can only restore its registry mirror from a
        // snapshot (the commit index is volatile), so snapshot every event
        // unless the operator asked for a wider interval.
        cfg.registry_snapshot_threshold = args.snapshot_interval.unwrap_or(1);
        cfg.fsync = args.fsync;
        eprintln!(
            "durable state (registry + outbox) -> {} (snapshot every {} applied, fsync {})",
            dir.display(),
            cfg.registry_snapshot_threshold,
            match cfg.fsync {
                beehive::core::FsyncPolicy::Always => "always",
                beehive::core::FsyncPolicy::Never => "never",
            }
        );
    }
    if let Some(n) = args.max_redeliveries {
        cfg.max_redeliveries = n;
    }
    if let Some(n) = args.mailbox_capacity {
        cfg.mailbox_capacity = n;
    }

    let mut hive = Hive::new(cfg, Arc::new(SystemClock::new()), transport);

    for app in &args.apps {
        match app.as_str() {
            "nib" => hive.install(nib_app()),
            "rib" => hive.install(rib_app()),
            "paths" => hive.install(path_app()),
            "vnet" => hive.install(vnet_app()),
            "learning-switch" => hive.install(learning_switch_app()),
            "discovery" => hive.install(discovery_app()),
            other => {
                eprintln!("unknown app {other:?}");
                std::process::exit(2);
            }
        }
    }
    for (app, msg, times) in &args.inject_faults {
        hive.inject_handler_fault(app, msg, *times);
        eprintln!("[fault] armed: next {times} deliveries of {msg} to {app} fail");
    }

    // Platform apps: metrics collection + placement optimization.
    let instr = hive.instrumentation();
    hive.install(collector_app(instr.clone()));
    hive.install(optimizer_app(OptimizerConfig::default(), 10));
    eprintln!(
        "installed apps: {:?} + beehive.collector + beehive.optimizer; voters={voters} \
         replication={}",
        args.apps, args.replication
    );

    // SIGTERM → drain; the stop flag remains for embedders and the stats
    // thread (Ctrl-C still kills the process the blunt way).
    #[cfg(unix)]
    install_sigterm_drain();
    let stop = Arc::new(AtomicBool::new(false));

    if args.join {
        // Boot as a learner and announce ourselves to the running cluster;
        // peers learn our address from the announcement and add us live.
        hive.begin_join(&advertise.to_string());
        eprintln!("hive {me} joining the cluster as a learner (advertising {advertise})");
    }
    if args.drain {
        DRAIN.store(true, Ordering::Relaxed);
        eprintln!("hive {me} will drain immediately after boot (--drain)");
    }

    // Live introspection plane: /metrics, /healthz, /events, /trace/<id>,
    // /dlq over plain HTTP/1.0. The exporter app folds the collector's
    // per-window reports into the store /metrics renders.
    let _status_server = args.status_addr.map(|addr| {
        let analytics = Arc::new(std::sync::Mutex::new(Analytics::new()));
        hive.install(exporter_app(analytics.clone()));
        let handle = hive.handle();
        let ctx = StatusContext {
            analytics,
            transport: Some(tcp_counters.clone()),
            dead_letters: hive.dead_letters(),
            events: hive.events(),
            tracer: hive.tracer(),
            trace_hub: hive.trace_hub(),
            nudge: Some(Arc::new(move || handle.nudge())),
            lifecycle: Some(hive.lifecycle()),
        };
        let server = StatusServer::bind(addr, ctx).unwrap_or_else(|e| {
            eprintln!("failed to bind status server on {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("status endpoint on http://{}", server.local_addr());
        server
    });

    // Periodic analytics printer.
    if args.stats_every > 0 {
        let stop2 = stop.clone();
        let every = args.stats_every;
        std::thread::Builder::new()
            .name("bh-stats".into())
            .spawn(move || {
                // Windows come from the collector app in-process; here we
                // simply snapshot the local instrumentation store.
                while !stop2.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_secs(every));
                    let snapshot = instr.lock().clone();
                    let total_msgs: u64 = snapshot.bees.values().map(|b| b.msgs_in).sum();
                    eprintln!(
                        "[stats] {} local bees instrumented, {} msgs this window",
                        snapshot.bees.len(),
                        total_msgs
                    );
                }
            })
            .expect("spawn stats thread");
    }

    eprintln!("hive {me} running; SIGTERM to drain, Ctrl-C to stop");
    hive.run_elastic(&stop, &DRAIN);
    stop.store(true, Ordering::Relaxed);
    // What the registry places here, not what live bees hold: a restarted
    // node re-creates its bees lazily, on the first message routed to them.
    let owned_cells: usize = hive
        .registry_view()
        .bees()
        .filter(|(_, record)| record.hive == me)
        .map(|(_, record)| record.colony.len())
        .sum();
    eprintln!(
        "hive {me} exited as {} with {owned_cells} owned cell(s)",
        hive.lifecycle().stage().label()
    );
}
