//! Deterministic chaos harness: seeded fault schedules driven against a
//! [`SimCluster`] in virtual time, with the cluster audited by the
//! [`crate::invariants`] checkers after every tick.
//!
//! One `u64` seed derives everything: the fault timeline
//! ([`FaultSchedule::generate`]) — partitions and heals, drop / duplicate /
//! reorder / delay windows on the fabric, hive crashes and restarts through
//! the durable-registry path, disk-fault restart storms that tear the
//! outbox journal's tail before every revival, injected handler faults,
//! forced migrations — and the interleaved workload. Every run folds its per-tick audits into a
//! [`Digest`]; two runs of the same seed must produce byte-identical
//! digests, which is both the determinism proof and the property
//! `tests/chaos_smoke.rs` pins against a golden file.
//!
//! On a violation, [`minimize`] greedily drops schedule windows while the
//! failure persists, leaving a minimal replayable repro
//! (`beehive-chaos --seed N`).

use std::collections::BTreeMap;

use beehive_core::prelude::*;
use beehive_net::FabricFaults;
use beehive_raft::SeededRng;
use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterConfig, SimCluster};
use crate::invariants::{check_all, gather, CrashLedger, Digest, Violation};

/// The chaos workload message: adds `amount` to one key's pair of
/// dictionary entries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosOp {
    /// Workload key (maps to cell `("left", key)`).
    pub key: String,
    /// Amount added to both dictionaries.
    pub amount: u64,
}
beehive_core::impl_message!(ChaosOp);

/// Name of the chaos workload application.
pub const CHAOS_APP: &str = "chaos";

/// The chaos workload app: every [`ChaosOp`] increments `left[key]` **and**
/// `right[key]` inside one transaction. The paired write is what the
/// atomicity checker audits (the two values must never diverge — not even
/// across a crash-restart). `right` lies outside the mapped cell, so the
/// first op on each key re-maps: its bee's colony grows to cover
/// `right[key]` before anything commits.
pub fn chaos_app() -> App {
    App::builder(CHAOS_APP)
        .handle::<ChaosOp>(
            |m| Mapped::cell("left", &m.key),
            |m, ctx| {
                let l: u64 = ctx.get("left", &m.key)?.unwrap_or(0);
                ctx.put("left", m.key.clone(), &(l + m.amount))?;
                let r: u64 = ctx.get("right", &m.key)?.unwrap_or(0);
                ctx.put("right", m.key.clone(), &(r + m.amount))?;
                Ok(())
            },
        )
        .build()
}

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Sever the link between two hives for the window, then heal.
    Partition {
        /// One side of the cut.
        a: u32,
        /// The other side.
        b: u32,
    },
    /// Drop frames with probability `permille`/1000 during the window.
    Drop {
        /// Drop probability in permille.
        permille: u32,
    },
    /// Deliver frames twice with probability `permille`/1000.
    Duplicate {
        /// Duplication probability in permille.
        permille: u32,
    },
    /// Reorder frames with probability `permille`/1000.
    Reorder {
        /// Reorder probability in permille.
        permille: u32,
    },
    /// Add fixed latency plus jitter during the window.
    Delay {
        /// Latency in ms (jitter is half of it).
        ms: u64,
    },
    /// Crash the hive at the window start, restart it at the window end
    /// (through the durable-registry restart path).
    Crash {
        /// The hive to kill.
        hive: u32,
    },
    /// A restart storm with a sick disk: bounce the hive down and up on
    /// alternating ticks of the window, and before every restart append a
    /// half-written record to its durable outbox journal — exactly the torn
    /// tail a crash mid-append leaves behind. Every revival must truncate
    /// the torn tail, replay the journal, and rejoin the registry via the
    /// snapshot/restore path without diverging from its peers.
    DiskFault {
        /// The hive whose disk misbehaves.
        hive: u32,
    },
    /// Arm an injected handler fault on every live hive: the next `times`
    /// workload deliveries fail as if the handler returned `Err`.
    HandlerFault {
        /// Failure budget (kept ≤ the redelivery budget so nothing
        /// dead-letters on a lossless schedule).
        times: u32,
    },
    /// Force-migrate one workload bee to the next live hive.
    ForceMigration,
    /// Elastic-membership churn: a brand-new hive joins the cluster at the
    /// window start (learner → caught up → voter) and is drained back out
    /// once the window elapses and the join completed — evacuation,
    /// outbox flush, demotion, removal. At most one churn is in flight at a
    /// time; extra windows while one is active do nothing.
    MembershipChurn,
    /// TEST-ONLY deliberate bug: force a second hive to claim a cell it
    /// does not own, bypassing the registry. Exists to prove the ownership
    /// checker catches real violations.
    OwnershipBug,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Partition { a, b } => write!(f, "partition({a}<->{b})"),
            FaultKind::Drop { permille } => write!(f, "drop({permille}‰)"),
            FaultKind::Duplicate { permille } => write!(f, "duplicate({permille}‰)"),
            FaultKind::Reorder { permille } => write!(f, "reorder({permille}‰)"),
            FaultKind::Delay { ms } => write!(f, "delay({ms}ms)"),
            FaultKind::Crash { hive } => write!(f, "crash(hive {hive})"),
            FaultKind::DiskFault { hive } => write!(f, "disk-fault(hive {hive})"),
            FaultKind::HandlerFault { times } => write!(f, "handler-fault(×{times})"),
            FaultKind::ForceMigration => write!(f, "force-migration"),
            FaultKind::MembershipChurn => write!(f, "membership-churn"),
            FaultKind::OwnershipBug => write!(f, "ownership-bug"),
        }
    }
}

/// One fault active during ticks `[at, at + for_ticks)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// First tick the fault is active.
    pub at: u64,
    /// Window length in ticks (instantaneous faults fire at `at` only).
    pub for_ticks: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A reproducible fault timeline, fully derived from `seed`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// The seed everything was derived from (also reseeds the fabric RNG
    /// and the workload generator).
    pub seed: u64,
    /// Number of active workload ticks (a quiet drain phase follows).
    pub ticks: u64,
    /// The fault windows, sorted by start tick.
    pub windows: Vec<FaultWindow>,
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "schedule seed={} ticks={} ({} windows):",
            self.seed,
            self.ticks,
            self.windows.len()
        )?;
        for w in &self.windows {
            writeln!(f, "  tick {:>3} +{:<2} {}", w.at, w.for_ticks, w.kind)?;
        }
        write!(f, "replay: beehive-chaos --seed {}", self.seed)
    }
}

impl FaultSchedule {
    /// Derives a schedule from one seed. The same `(seed, cfg)` pair always
    /// yields the same schedule.
    pub fn generate(seed: u64, cfg: &ChaosConfig) -> Self {
        let mut rng = SeededRng::seed_from_u64(seed ^ 0xA24B_AED4_963E_E407);
        let n = rng.gen_range(cfg.min_windows..=cfg.max_windows.max(cfg.min_windows));
        let last_start = cfg.ticks.saturating_sub(1).max(4);
        let mut windows = Vec::new();
        let mut crash_busy: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let at = rng.gen_range(3..last_start);
            let for_ticks = rng.gen_range(1..=8u64);
            // Candidate kinds, gated by the config. The draw happens
            // unconditionally so schedules with different gates still share
            // the RNG stream prefix.
            let kind = match rng.gen_range(0..10u32) {
                0 if cfg.wire_faults => FaultKind::Drop {
                    permille: rng.gen_range(50..=300),
                },
                1 if cfg.wire_faults => FaultKind::Duplicate {
                    permille: rng.gen_range(50..=300),
                },
                2 if cfg.wire_faults => FaultKind::Reorder {
                    permille: rng.gen_range(100..=500),
                },
                3 if cfg.wire_faults => FaultKind::Delay {
                    ms: rng.gen_range(10..=200),
                },
                4 if cfg.wire_faults && cfg.hives >= 2 => {
                    let a = rng.gen_range(1..=cfg.hives as u32);
                    let mut b = rng.gen_range(1..=cfg.hives as u32);
                    if b == a {
                        b = a % cfg.hives as u32 + 1;
                    }
                    FaultKind::Partition { a, b }
                }
                5 if cfg.crashes => {
                    // At most one hive down at a time: overlapping crash
                    // windows degrade to handler faults.
                    let end = at + for_ticks;
                    let overlaps = crash_busy.iter().any(|&(s, e)| at < e && s < end);
                    let hive = rng.gen_range(1..=cfg.hives as u32);
                    if overlaps {
                        FaultKind::HandlerFault {
                            times: rng.gen_range(1..=3),
                        }
                    } else {
                        crash_busy.push((at, end));
                        FaultKind::Crash { hive }
                    }
                }
                6 if cfg.migrations => FaultKind::ForceMigration,
                7 if cfg.membership && cfg.hives >= 2 => FaultKind::MembershipChurn,
                8 if cfg.disk_faults => {
                    // Disk faults bounce a hive repeatedly; like crashes, at
                    // most one hive may be down at a time or the registry
                    // loses quorum for the whole window.
                    let end = at + for_ticks;
                    let overlaps = crash_busy.iter().any(|&(s, e)| at < e && s < end);
                    let hive = rng.gen_range(1..=cfg.hives as u32);
                    if overlaps {
                        FaultKind::HandlerFault {
                            times: rng.gen_range(1..=3),
                        }
                    } else {
                        crash_busy.push((at, end));
                        FaultKind::DiskFault { hive }
                    }
                }
                _ => FaultKind::HandlerFault {
                    times: rng.gen_range(1..=3),
                },
            };
            windows.push(FaultWindow {
                at,
                for_ticks,
                kind,
            });
        }
        if cfg.inject_ownership_bug {
            windows.push(FaultWindow {
                at: cfg.ticks / 2,
                for_ticks: 1,
                kind: FaultKind::OwnershipBug,
            });
        }
        windows.sort_by_key(|w| (w.at, w.for_ticks));
        FaultSchedule {
            seed,
            ticks: cfg.ticks,
            windows,
        }
    }

    /// Whether this schedule cannot legitimately lose messages. The
    /// reliable channel layer masks every link fault — drop, duplicate,
    /// reorder, delay and partition windows are retransmitted through or
    /// deduplicated — so only crashes (and the deliberate ownership bug)
    /// may still destroy messages. Membership churn is lossless too: a
    /// drained hive evacuates its bees and flushes its outbox before
    /// leaving, and whatever its peers still held unacked for it is
    /// dead-lettered with full accounting, not silently lost. Lossless runs
    /// get extra final assertions: everything drains, nothing stays queued
    /// or in transit.
    pub fn is_lossless(&self) -> bool {
        self.windows.iter().all(|w| {
            !matches!(
                w.kind,
                FaultKind::Crash { .. } | FaultKind::DiskFault { .. } | FaultKind::OwnershipBug
            )
        })
    }
}

/// Parameters of a chaos run (the schedule is derived separately, from the
/// seed — see [`FaultSchedule::generate`]).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Cluster size.
    pub hives: usize,
    /// Registry Raft voters.
    pub voters: usize,
    /// Active workload ticks.
    pub ticks: u64,
    /// Virtual milliseconds per tick.
    pub tick_ms: u64,
    /// Fault-free drain ticks appended after the active phase.
    pub quiet_ticks: u64,
    /// Distinct workload keys (→ bees).
    pub keys: usize,
    /// Workload messages emitted per active tick.
    pub ops_per_tick: usize,
    /// Minimum fault windows per schedule.
    pub min_windows: usize,
    /// Maximum fault windows per schedule.
    pub max_windows: usize,
    /// Allow wire faults (drop/duplicate/reorder/delay/partition).
    pub wire_faults: bool,
    /// Allow hive crash + restart windows.
    pub crashes: bool,
    /// Allow disk-fault windows (restart storms with torn outbox tails).
    pub disk_faults: bool,
    /// Allow forced migrations.
    pub migrations: bool,
    /// Allow elastic-membership churn (live hive join + drain windows).
    pub membership: bool,
    /// Append the TEST-ONLY ownership bug to the schedule.
    pub inject_ownership_bug: bool,
    /// Stop the run at the first violating tick (what the minimizer wants);
    /// `false` keeps going and collects every violation.
    pub stop_on_violation: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            hives: 3,
            voters: 3,
            ticks: 80,
            tick_ms: 250,
            quiet_ticks: 30,
            keys: 8,
            ops_per_tick: 2,
            min_windows: 3,
            max_windows: 8,
            wire_faults: true,
            crashes: true,
            disk_faults: true,
            migrations: true,
            membership: true,
            inject_ownership_bug: false,
            stop_on_violation: true,
        }
    }
}

/// What one chaos run observed.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The seed.
    pub seed: u64,
    /// The schedule that ran.
    pub schedule: FaultSchedule,
    /// Fold of every per-tick audit — byte-identical across runs of the
    /// same seed.
    pub digest: u64,
    /// All invariant violations observed (empty on a clean run).
    pub violations: Vec<Violation>,
    /// External workload messages emitted.
    pub emits: u64,
    /// Handler invocations that committed (live hives + crash ledger).
    pub handled: u64,
    /// Messages dead-lettered.
    pub dead_lettered: u64,
    /// App frames the fabric dropped (coin, partition, down hive).
    pub dropped_app: u64,
    /// App frames the fabric delivered twice.
    pub duplicated_app: u64,
    /// Orphaned + no-bee losses on live hives plus the crash ledger.
    pub lost: u64,
    /// Channel frames retransmitted by live hives.
    pub retransmits: u64,
    /// Duplicate channel frames suppressed by live hives' receiver dedup.
    pub dups_suppressed: u64,
    /// Torn outbox-journal tails truncated across every durable restart —
    /// nonzero proves the disk-fault windows actually bit.
    pub torn_truncations: u64,
    /// Registry snapshots installed from peers across the run (summed over
    /// every hive incarnation) — nonzero proves catch-up went through the
    /// snapshot-shipping path rather than full log replay.
    pub snapshot_installs: u64,
    /// Workload messages still queued at the end.
    pub queued: u64,
    /// App frames still on the fabric at the end.
    pub in_flight_app: u64,
    /// Final `left` dictionary, aggregated across live hives.
    pub final_left: BTreeMap<String, u64>,
}

fn unique_storage_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let n = NONCE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("beehive-chaos-{}-{n}", std::process::id()))
}

/// Appends a half-written record to a hive's durable outbox journal: a
/// header promising more payload bytes than follow, which is exactly what a
/// crash between `write` and `fsync` leaves behind. The next boot must
/// truncate it (torn tail) and replay the intact prefix. The bytes are fixed
/// so mutilation never perturbs run determinism. (Interior bit flips are
/// deliberately NOT injected into randomized schedules: they are fail-stop
/// by contract — a hive that detects one halts — and are covered by the
/// dedicated codec and storage tests instead.)
fn tear_outbox_tail(dir: &std::path::Path, id: HiveId) {
    use std::io::Write;
    let path = dir.join(format!("hive-{}.outbox", id.0));
    let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) else {
        return; // no journal yet — nothing to tear
    };
    let mut torn = Vec::new();
    torn.extend_from_slice(&64u32.to_le_bytes()); // length: 64 bytes promised...
    torn.extend_from_slice(&0xDEAD_BEEF_DEAD_BEEFu64.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 5]); // ...5 delivered
    let _ = f.write_all(&torn);
}

/// Runs one chaos schedule to completion and reports what happened.
pub fn run(schedule: &FaultSchedule, cfg: &ChaosConfig) -> RunReport {
    let storage = (cfg.crashes || cfg.disk_faults).then(unique_storage_dir);
    let ccfg = ClusterConfig {
        hives: cfg.hives,
        voters: cfg.voters,
        hive: HiveConfig {
            tick_interval_ms: 0, // no platform ticks: ChaosOp is the only app traffic
            pending_retry_ms: 500,
            redelivery_backoff_ms: 50,
            quarantine_threshold: 0, // chaos handler faults must not trip breakers
            channel_resend_ms: 100,  // retransmit within a 250 ms tick
            rng_seed: schedule.seed,
            registry_storage_dir: storage.clone(),
            // A simulated crash drops the `Hive`, not the page cache, so a
            // sync changes nothing the simulator can observe.
            fsync: beehive_core::FsyncPolicy::Never,
            ..ClusterConfig::default().hive
        },
        ..ClusterConfig::default()
    };
    let mut cluster = SimCluster::new(ccfg, |h| h.install(chaos_app()));
    cluster.fabric.reseed(schedule.seed ^ 0x5851_F42D_4C95_7F2D);
    cluster
        .elect_registry(120_000)
        .expect("chaos cluster failed to elect a registry leader");

    let mut wl = SeededRng::seed_from_u64(schedule.seed ^ 0xD6E8_FEB8_6659_FD93);
    let mut emits = 0u64;
    let mut ledger = CrashLedger::default();
    // Membership-churn runtime state: the hive a churn window booted, and
    // the tick at which it starts draining (the window end). Hives that
    // completed their drain are remembered so the crash-reconcile loop never
    // tries to "restart" a slot that left the cluster for good.
    let mut churn: Option<(HiveId, u64)> = None;
    let mut departed: std::collections::BTreeSet<HiveId> = std::collections::BTreeSet::new();
    // Hives whose next restart must find a torn outbox tail on disk.
    let mut torn_pending: std::collections::BTreeSet<HiveId> = std::collections::BTreeSet::new();
    let mut digest = Digest::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut torn_truncations = 0u64;
    // Per-hive watermark of the install counter (which resets with each
    // incarnation), so the run total sums increments across restarts.
    let mut installs_seen: BTreeMap<u32, u64> = BTreeMap::new();
    let mut snapshot_installs = 0u64;
    let total_ticks = schedule.ticks + cfg.quiet_ticks;
    let mut last_audit = None;

    for t in 0..total_ticks {
        let quiet = t >= schedule.ticks;
        let active: Vec<&FaultWindow> = if quiet {
            Vec::new()
        } else {
            schedule
                .windows
                .iter()
                .filter(|w| w.at <= t && t < w.at + w.for_ticks)
                .collect()
        };

        // Crash / restart: reconcile each hive against the active windows
        // (quiet phase restarts everything), in deterministic id order.
        // Crash windows keep the hive down for the whole window; disk-fault
        // windows bounce it on alternating ticks (a restart storm), tearing
        // its outbox journal's tail before every revival.
        for id in cluster.ids() {
            if departed.contains(&id) {
                continue; // drained out of the cluster, never restarted
            }
            let crash_down = active
                .iter()
                .any(|w| matches!(w.kind, FaultKind::Crash { hive } if hive == id.0));
            let disk_down = active.iter().any(|w| {
                matches!(w.kind, FaultKind::DiskFault { hive }
                    if hive == id.0 && (t - w.at) % 2 == 0)
            });
            if (crash_down || disk_down) && cluster.is_up(id) {
                // The cleared fabric frames are not folded in: their senders'
                // reliable channels retransmit them after the restart.
                let (dead, _cleared) = cluster.crash(id);
                ledger.absorb(&dead, "ChaosOp");
                if disk_down {
                    torn_pending.insert(id);
                }
            } else if !(crash_down || disk_down || cluster.is_up(id)) {
                if torn_pending.remove(&id) {
                    if let Some(dir) = &storage {
                        tear_outbox_tail(dir, id);
                    }
                }
                cluster.restart(id);
                // The revived hive replayed its outbox journal (truncating
                // any torn tail); its restored channel accounting comes back
                // out of the ledger.
                torn_truncations += cluster.hive(id).journal_torn_truncations();
                ledger.restore(cluster.hive(id));
            }
        }

        // Partitions: recompute the full set each tick (windows heal by
        // falling out of the active set).
        cluster.fabric.heal();
        for w in &active {
            if let FaultKind::Partition { a, b } = w.kind {
                cluster.fabric.partition(HiveId(a), HiveId(b));
            }
        }

        // Wire faults: the max of every active window.
        let mut wire = FabricFaults::default();
        for w in &active {
            match w.kind {
                FaultKind::Drop { permille } => {
                    wire.drop_rate = wire.drop_rate.max(f64::from(permille) / 1000.0)
                }
                FaultKind::Duplicate { permille } => {
                    wire.duplicate_rate = wire.duplicate_rate.max(f64::from(permille) / 1000.0)
                }
                FaultKind::Reorder { permille } => {
                    wire.reorder_rate = wire.reorder_rate.max(f64::from(permille) / 1000.0)
                }
                FaultKind::Delay { ms } => {
                    wire.latency_ms = wire.latency_ms.max(ms);
                    wire.jitter_ms = wire.jitter_ms.max(ms / 2);
                }
                _ => {}
            }
        }
        cluster.fabric.set_faults(wire);

        // Instantaneous faults fire at their window's first tick.
        for w in &active {
            if w.at != t {
                continue;
            }
            match w.kind {
                FaultKind::HandlerFault { times } => {
                    for id in cluster.live_ids() {
                        cluster
                            .hive_mut(id)
                            .inject_handler_fault(CHAOS_APP, "ChaosOp", times);
                    }
                }
                FaultKind::ForceMigration => {
                    let live = cluster.live_ids();
                    let pick = live
                        .iter()
                        .copied()
                        .find(|&id| !cluster.hive(id).active_colonies(CHAOS_APP).is_empty());
                    if let (Some(src), true) = (pick, live.len() >= 2) {
                        let bee = cluster.hive(src).active_colonies(CHAOS_APP)[0].0;
                        let pos = live.iter().position(|&x| x == src).unwrap();
                        let dst = live[(pos + 1) % live.len()];
                        cluster
                            .hive_mut(src)
                            .request_migration(CHAOS_APP, bee, src, dst);
                    }
                }
                // One churn at a time: extra windows while a join/drain
                // cycle is in flight do nothing.
                FaultKind::MembershipChurn if churn.is_none() => {
                    let id = cluster.join();
                    churn = Some((id, w.at + w.for_ticks));
                }
                FaultKind::OwnershipBug => {
                    let live = cluster.live_ids();
                    let found = live.first().and_then(|&first| {
                        cluster
                            .hive(first)
                            .registry_view()
                            .bees()
                            .find(|(_, rec)| rec.app == CHAOS_APP && !rec.colony.is_empty())
                            .map(|(_, rec)| (rec.colony.iter().next().unwrap().clone(), rec.hive))
                    });
                    if let Some((cell, owner)) = found {
                        if let Some(&victim) = live.iter().find(|&&h| h != owner) {
                            cluster
                                .hive_mut(victim)
                                .debug_force_own(CHAOS_APP, vec![cell]);
                        }
                    }
                }
                _ => {}
            }
        }

        // Membership churn: the joined hive drains once its window elapsed
        // AND its join completed (drain-while-joining is legal but would
        // make schedules race the promotion; waiting keeps runs exercising
        // the full staircase). Hives that finished draining are folded into
        // the ledger like crashed ones — minus the losses: a clean drain
        // leaves nothing queued — and leave the cluster for good.
        if let Some((id, drain_at)) = churn {
            if t >= drain_at
                && cluster.is_up(id)
                && cluster.hive(id).lifecycle().stage() == beehive_core::LifecycleStage::Active
            {
                cluster.drain(id);
            }
        }
        for dead in cluster.reap_departed() {
            if churn.is_some_and(|(id, _)| id == dead.id()) {
                churn = None;
            }
            departed.insert(dead.id());
            ledger.absorb(&dead, "ChaosOp");
        }

        // Workload: a few ops per active tick, to a random live hive.
        if !quiet {
            for _ in 0..cfg.ops_per_tick {
                let key = format!("k{}", wl.gen_range(0..cfg.keys));
                let amount = wl.gen_range(1..=5u64);
                let live = cluster.live_ids();
                let target = live[wl.gen_range(0..live.len())];
                cluster.hive_mut(target).emit(ChaosOp { key, amount });
                emits += 1;
            }
        }

        // Advance one tick of virtual time in small increments, stepping to
        // quiescence after each. (Not `settle_with`: delayed frames keep
        // `in_flight > 0` without producing work, which would spin it.)
        let mut advanced = 0;
        while advanced < cfg.tick_ms {
            let dt = 50.min(cfg.tick_ms - advanced);
            cluster.clock.advance(dt);
            advanced += dt;
            for _ in 0..100_000 {
                if cluster.step_all() == 0 {
                    break;
                }
            }
        }

        // Audit the whole cluster and fold it into the digest.
        let audit = gather(&cluster, CHAOS_APP, "ChaosOp", t, emits, &ledger);
        audit.fold_into(&mut digest);
        // Sum install-counter increments per hive; the counter restarts at
        // zero with each incarnation, so decreases are new baselines.
        for h in &audit.live {
            let prev = installs_seen
                .insert(h.id.0, h.snapshot_installs)
                .unwrap_or(0);
            snapshot_installs += h.snapshot_installs.saturating_sub(prev);
        }
        let v = check_all(&audit, "left", "right");
        let stop = !v.is_empty() && cfg.stop_on_violation;
        violations.extend(v);
        last_audit = Some(audit);
        if stop {
            break;
        }
    }

    let audit = last_audit.expect("at least one tick ran");
    let queued: u64 = audit.live.iter().map(|h| h.queued).sum();
    if schedule.is_lossless()
        && violations.is_empty()
        && (queued > 0 || audit.in_flight_app > 0 || audit.in_transit() != 0)
    {
        // Per hive: where its workload mail waits, then each bee holding
        // mail with its status and where the registry mirror places it.
        let stuck: Vec<String> = cluster
            .hives()
            .map(|h| (h, h.queued_messages("ChaosOp")))
            .filter(|(_, q)| q.total() > 0)
            .map(|(h, q)| {
                let bees: Vec<String> = h
                    .mail_holders(CHAOS_APP)
                    .into_iter()
                    .map(|(bee, status, mail)| {
                        let mirror = match h.registry_view().hive_of(bee) {
                            Some(at) if at == h.id() => "here".to_string(),
                            Some(at) => at.to_string(),
                            None => "unknown".to_string(),
                        };
                        format!("{bee} {status} mail={mail} mirror={mirror}")
                    })
                    .collect();
                format!("hive-{}: {q} {{{}}}", h.id().0, bees.join(", "))
            })
            .collect();
        violations.push(Violation {
            checker: "drain",
            tick: audit.tick,
            detail: format!(
                "lossless schedule did not drain: {queued} queued [{}], {} in flight, {} in transit",
                stuck.join("; "),
                audit.in_flight_app,
                audit.in_transit()
            ),
        });
    }

    let mut final_left = BTreeMap::new();
    for h in &audit.live {
        for (_bee, dicts) in &h.dicts {
            for (name, entries) in dicts {
                if name == "left" {
                    for (k, v) in entries {
                        let n: u64 = beehive_wire::from_slice(v).unwrap_or(0);
                        *final_left.entry(k.clone()).or_insert(0) += n;
                    }
                }
            }
        }
    }
    let report = RunReport {
        seed: schedule.seed,
        schedule: schedule.clone(),
        digest: digest.finish(),
        violations,
        emits,
        handled: audit.live.iter().map(|h| h.handled).sum::<u64>() + ledger.handled,
        dead_lettered: audit.live.iter().map(|h| h.dead).sum::<u64>() + ledger.dead,
        dropped_app: audit.fabric.dropped_app,
        duplicated_app: audit.fabric.duplicated_app,
        lost: audit.live.iter().map(|h| h.orphans + h.nobee).sum::<u64>()
            + ledger.orphans
            + ledger.nobee,
        retransmits: audit.live.iter().map(|h| h.retransmits).sum(),
        dups_suppressed: audit.live.iter().map(|h| h.dups_suppressed).sum(),
        torn_truncations,
        snapshot_installs,
        queued,
        in_flight_app: audit.in_flight_app,
        final_left,
    };
    drop(cluster);
    if let Some(dir) = storage {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

/// Generates the schedule for `seed` and runs it.
pub fn run_seed(seed: u64, cfg: &ChaosConfig) -> RunReport {
    run(&FaultSchedule::generate(seed, cfg), cfg)
}

/// Greedy schedule minimization: [`beehive_raft::prop::minimize`] over the
/// fault windows, dropping any window whose removal keeps the run
/// violating until no single removal does. Returns the original schedule if
/// it does not violate at all.
pub fn minimize(schedule: &FaultSchedule, cfg: &ChaosConfig) -> FaultSchedule {
    let with = |windows: &[FaultWindow]| FaultSchedule {
        windows: windows.to_vec(),
        ..*schedule
    };
    let violates = |windows: &[FaultWindow]| !run(&with(windows), cfg).violations.is_empty();
    if !violates(&schedule.windows) {
        return schedule.clone();
    }
    with(&beehive_raft::prop::minimize(
        schedule.windows.clone(),
        violates,
    ))
}

/// A failing seed with its minimized repro.
#[derive(Debug, Clone)]
pub struct FailureRepro {
    /// The failing seed.
    pub seed: u64,
    /// The violations the full schedule produced.
    pub violations: Vec<Violation>,
    /// The minimized schedule that still violates.
    pub minimized: FaultSchedule,
}

/// Outcome of a seed sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One report per seed, in seed order.
    pub reports: Vec<RunReport>,
    /// Failing seeds with minimized repros (empty on a clean sweep).
    pub failures: Vec<FailureRepro>,
}

/// Sweeps a seed range, minimizing the schedule of every failing seed.
pub fn sweep(seeds: std::ops::Range<u64>, cfg: &ChaosConfig) -> SweepOutcome {
    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for seed in seeds {
        let report = run_seed(seed, cfg);
        if !report.violations.is_empty() {
            failures.push(FailureRepro {
                seed,
                violations: report.violations.clone(),
                minimized: minimize(&report.schedule, cfg),
            });
        }
        reports.push(report);
    }
    SweepOutcome { reports, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        assert_eq!(
            FaultSchedule::generate(7, &cfg),
            FaultSchedule::generate(7, &cfg)
        );
        assert_ne!(
            FaultSchedule::generate(7, &cfg),
            FaultSchedule::generate(8, &cfg)
        );
    }

    #[test]
    fn generate_respects_gates() {
        let cfg = ChaosConfig {
            wire_faults: false,
            crashes: false,
            disk_faults: false,
            migrations: false,
            membership: false,
            ..Default::default()
        };
        for seed in 0..16 {
            let s = FaultSchedule::generate(seed, &cfg);
            assert!(
                s.windows
                    .iter()
                    .all(|w| matches!(w.kind, FaultKind::HandlerFault { .. })),
                "gated-off kinds must fall back to handler faults: {s}"
            );
            assert!(s.is_lossless());
        }
    }

    #[test]
    fn ownership_bug_window_is_appended_when_asked() {
        let cfg = ChaosConfig {
            inject_ownership_bug: true,
            ..Default::default()
        };
        let s = FaultSchedule::generate(1, &cfg);
        assert_eq!(
            s.windows
                .iter()
                .filter(|w| w.kind == FaultKind::OwnershipBug)
                .count(),
            1
        );
    }

    #[test]
    fn membership_gate_controls_churn_windows() {
        let on = ChaosConfig::default();
        assert!(
            (0..64).any(|seed| {
                FaultSchedule::generate(seed, &on)
                    .windows
                    .iter()
                    .any(|w| w.kind == FaultKind::MembershipChurn)
            }),
            "no churn window across 64 seeds with the gate on"
        );
        let off = ChaosConfig {
            membership: false,
            ..Default::default()
        };
        for seed in 0..64 {
            assert!(FaultSchedule::generate(seed, &off)
                .windows
                .iter()
                .all(|w| w.kind != FaultKind::MembershipChurn));
        }
    }

    #[test]
    fn churn_windows_are_lossless() {
        let s = FaultSchedule {
            seed: 0,
            ticks: 20,
            windows: vec![FaultWindow {
                at: 3,
                for_ticks: 6,
                kind: FaultKind::MembershipChurn,
            }],
        };
        assert!(s.is_lossless(), "a clean drain is not message loss");
    }

    #[test]
    fn crash_windows_never_overlap() {
        // Crash AND disk-fault windows share the busy list: two hives down
        // at once would cost the 3-voter registry its quorum.
        let cfg = ChaosConfig::default();
        for seed in 0..32 {
            let s = FaultSchedule::generate(seed, &cfg);
            let crashes: Vec<(u64, u64)> = s
                .windows
                .iter()
                .filter(|w| {
                    matches!(
                        w.kind,
                        FaultKind::Crash { .. } | FaultKind::DiskFault { .. }
                    )
                })
                .map(|w| (w.at, w.at + w.for_ticks))
                .collect();
            for (i, &(s1, e1)) in crashes.iter().enumerate() {
                for &(s2, e2) in &crashes[i + 1..] {
                    assert!(e1 <= s2 || e2 <= s1, "seed {seed}: overlapping crashes");
                }
            }
        }
    }

    #[test]
    fn disk_fault_gate_controls_disk_windows_and_losslessness() {
        let on = ChaosConfig::default();
        assert!(
            (0..64).any(|seed| {
                FaultSchedule::generate(seed, &on)
                    .windows
                    .iter()
                    .any(|w| matches!(w.kind, FaultKind::DiskFault { .. }))
            }),
            "no disk-fault window across 64 seeds with the gate on"
        );
        let off = ChaosConfig {
            disk_faults: false,
            ..Default::default()
        };
        for seed in 0..64 {
            assert!(FaultSchedule::generate(seed, &off)
                .windows
                .iter()
                .all(|w| !matches!(w.kind, FaultKind::DiskFault { .. })));
        }
        let storm = FaultSchedule {
            seed: 0,
            ticks: 20,
            windows: vec![FaultWindow {
                at: 3,
                for_ticks: 6,
                kind: FaultKind::DiskFault { hive: 2 },
            }],
        };
        assert!(
            !storm.is_lossless(),
            "a restart storm may legitimately lose in-memory messages"
        );
    }
}
