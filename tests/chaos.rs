//! Chaos harness integration tests: the determinism proof (same seed →
//! byte-identical digest), a clean multi-seed sweep with every invariant
//! checker armed, conservation accounting under a crafted crash + drop
//! schedule, disk-fault restart storms with torn-tail recovery, snapshot
//! shipping to joining hives, and the negative control — a deliberately
//! injected ownership bug must be caught and minimized to a strictly
//! shorter schedule.

use beehive::sim::chaos::{
    minimize, run, run_seed, sweep, ChaosConfig, FaultKind, FaultSchedule, FaultWindow,
};

/// A scaled-down config so every test stays fast: fewer ticks, smaller
/// schedules, full fault surface.
fn small() -> ChaosConfig {
    ChaosConfig {
        ticks: 24,
        // Enough fault-free drain for a worst-case channel retransmit: the
        // backoff clamps at ~6.4 s virtual, and 28 ticks cover 7 s.
        quiet_ticks: 28,
        min_windows: 2,
        max_windows: 5,
        ..Default::default()
    }
}

/// THE determinism proof: running the same seed twice must fold to the
/// byte-identical digest — same schedule, same workload, same fabric coin
/// flips, same per-tick audits. CI's `chaos-smoke` job asserts the same
/// property across two whole process invocations.
#[test]
fn same_seed_twice_is_byte_identical() {
    let cfg = small();
    let a = run_seed(5, &cfg);
    let b = run_seed(5, &cfg);
    assert_eq!(a.schedule, b.schedule, "schedule derivation is pure");
    assert_eq!(a.digest, b.digest, "per-tick audit fold is reproducible");
    assert_eq!(a.final_left, b.final_left);
    assert_eq!(a.emits, b.emits);
    assert!(a.violations.is_empty(), "{:?}", a.violations);

    let c = run_seed(6, &cfg);
    assert_ne!(a.digest, c.digest, "different seeds diverge");
}

/// A small sweep with every fault kind enabled: all seven checkers must
/// stay green on every seed, and sweeping twice must reproduce every digest.
#[test]
fn clean_sweep_over_small_seed_range() {
    let cfg = small();
    let once = sweep(0..4, &cfg);
    assert!(
        once.failures.is_empty(),
        "clean seeds must not violate: {:?}",
        once.failures
            .iter()
            .map(|f| (f.seed, &f.violations))
            .collect::<Vec<_>>()
    );
    let twice = sweep(0..4, &cfg);
    for (a, b) in once.reports.iter().zip(&twice.reports) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.digest, b.digest, "seed {}: sweep is reproducible", a.seed);
    }
    assert!(once.reports.iter().all(|r| r.emits > 0));
}

/// Conservation under a crafted schedule: a heavy drop window overlapping a
/// hive crash + durable restart. Every emitted message must be accounted
/// for — handled, dead-lettered, dropped by the fabric, absorbed by the
/// crash ledger, or still queued — with nothing silently lost.
#[test]
fn conservation_holds_under_crash_and_drops() {
    let cfg = ChaosConfig {
        ticks: 30,
        quiet_ticks: 20,
        ..Default::default()
    };
    let schedule = FaultSchedule {
        seed: 42,
        ticks: cfg.ticks,
        windows: vec![
            FaultWindow {
                at: 5,
                for_ticks: 10,
                kind: FaultKind::Drop { permille: 400 },
            },
            FaultWindow {
                at: 10,
                for_ticks: 5,
                kind: FaultKind::Crash { hive: 2 },
            },
        ],
    };
    let report = run(&schedule, &cfg);
    assert!(
        report.violations.is_empty(),
        "conservation (and the other checkers) must hold: {:?}",
        report.violations
    );
    assert!(report.emits >= 60, "workload ran");
    assert!(
        report.dropped_app > 0,
        "the drop window must actually have bitten app frames"
    );
}

/// The reliable-channel guarantee: a drop/duplicate/reorder-only schedule
/// must end exactly where the fault-free run of the same seed ends — same
/// workload, same handled count, identical final dictionaries, zero losses.
/// The faults must actually bite (nonzero fabric drops and duplicates) and
/// be repaired (nonzero retransmits and suppressed duplicates).
#[test]
fn link_faults_only_matches_the_fault_free_run() {
    let cfg = ChaosConfig {
        ticks: 24,
        quiet_ticks: 32,
        ..Default::default()
    };
    let faulty = FaultSchedule {
        seed: 77,
        ticks: cfg.ticks,
        windows: vec![
            FaultWindow {
                at: 3,
                for_ticks: 8,
                kind: FaultKind::Drop { permille: 300 },
            },
            FaultWindow {
                at: 6,
                for_ticks: 8,
                kind: FaultKind::Duplicate { permille: 300 },
            },
            FaultWindow {
                at: 10,
                for_ticks: 10,
                kind: FaultKind::Reorder { permille: 500 },
            },
        ],
    };
    let baseline = FaultSchedule {
        seed: 77,
        ticks: cfg.ticks,
        windows: Vec::new(),
    };
    assert!(
        faulty.is_lossless(),
        "link faults are masked by the channel"
    );
    let a = run(&faulty, &cfg);
    let b = run(&baseline, &cfg);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert!(b.violations.is_empty(), "{:?}", b.violations);
    assert_eq!(a.lost, 0, "no message may be lost to link faults");
    assert_eq!(a.emits, b.emits, "same seed, same workload");
    assert_eq!(a.handled, b.handled, "every message handled exactly once");
    assert_eq!(a.final_left, b.final_left, "identical final dictionaries");
    assert!(a.dropped_app > 0, "the drop window must actually bite");
    assert!(
        a.duplicated_app > 0,
        "the duplicate window must actually bite"
    );
    assert!(a.retransmits > 0, "drops are repaired by retransmission");
    assert!(a.dups_suppressed > 0, "duplicates are absorbed by dedup");
}

/// Elastic membership under audit: a crafted churn window boots a fourth
/// hive into the running cluster (learner → voter) and drains it back out
/// mid-workload, with every invariant checker armed through scale-out and
/// scale-in. Nothing may be lost to a clean drain, and two runs of the
/// same schedule must fold to byte-identical digests.
#[test]
fn membership_churn_is_clean_and_deterministic() {
    let cfg = ChaosConfig {
        ticks: 30,
        quiet_ticks: 30,
        wire_faults: false,
        crashes: false,
        migrations: false,
        ..Default::default()
    };
    let schedule = FaultSchedule {
        seed: 21,
        ticks: cfg.ticks,
        windows: vec![FaultWindow {
            at: 4,
            for_ticks: 8,
            kind: FaultKind::MembershipChurn,
        }],
    };
    assert!(schedule.is_lossless(), "churn is not message loss");
    let a = run(&schedule, &cfg);
    assert!(
        a.violations.is_empty(),
        "checkers must stay green through join and drain: {:?}",
        a.violations
    );
    assert_eq!(a.lost, 0, "a clean drain loses nothing");
    let b = run(&schedule, &cfg);
    assert_eq!(a.digest, b.digest, "churn digests are byte-identical");
    assert_eq!(a.final_left, b.final_left);
}

/// Disk-fault chaos: a restart storm bounces one hive through repeated
/// kill/recover cycles, tearing its outbox journal's tail (a half-written
/// record, as a crash mid-append leaves) before every revival. Recovery must
/// truncate the torn tail and replay the intact prefix; all seven invariant
/// checkers must stay green through every bounce; and two runs of the same
/// schedule must fold to byte-identical digests — torn-tail recovery is
/// deterministic, not best-effort.
#[test]
fn disk_fault_storm_recovers_torn_tails_deterministically() {
    let cfg = ChaosConfig {
        ticks: 30,
        quiet_ticks: 24,
        ..Default::default()
    };
    let schedule = FaultSchedule {
        seed: 33,
        ticks: cfg.ticks,
        windows: vec![FaultWindow {
            at: 5,
            for_ticks: 8,
            kind: FaultKind::DiskFault { hive: 2 },
        }],
    };
    assert!(!schedule.is_lossless(), "a restart storm is not lossless");
    let a = run(&schedule, &cfg);
    assert!(
        a.violations.is_empty(),
        "checkers must stay green through the storm: {:?}",
        a.violations
    );
    assert!(
        a.torn_truncations > 0,
        "the torn-tail injection must actually bite (journal recovered {} times)",
        a.torn_truncations
    );
    let b = run(&schedule, &cfg);
    assert_eq!(a.digest, b.digest, "torn-tail recovery is deterministic");
    assert_eq!(a.final_left, b.final_left);
    assert_eq!(a.torn_truncations, b.torn_truncations);
}

/// Snapshot shipping under chaos: the durable cluster compacts its registry
/// log aggressively (snapshot interval 1), so a hive joining mid-run starts
/// below every peer's compaction horizon — AppendEntries cannot reach it,
/// and the only way to registry agreement is `InstallSnapshot`. The
/// registry-agreement checker then proves the snapshot-restored mirror is
/// byte-identical to its full-replay peers at every equal applied fence.
#[test]
fn compacted_cluster_ships_snapshots_to_joining_hives() {
    let cfg = ChaosConfig {
        ticks: 30,
        quiet_ticks: 30,
        wire_faults: false,
        migrations: false,
        ..Default::default()
    };
    let schedule = FaultSchedule {
        seed: 58,
        ticks: cfg.ticks,
        windows: vec![FaultWindow {
            at: 4,
            for_ticks: 10,
            kind: FaultKind::MembershipChurn,
        }],
    };
    let report = run(&schedule, &cfg);
    assert!(
        report.violations.is_empty(),
        "snapshot-restored hives must agree with full-replay peers: {:?}",
        report.violations
    );
    assert!(
        report.snapshot_installs > 0,
        "catch-up must have gone through the snapshot-shipping path"
    );
}

/// Runs `windows` as seed `seed`'s schedule under the default config and
/// asserts that every audit passes and nothing is lost.
fn assert_schedule_drains(seed: u64, windows: Vec<FaultWindow>) {
    let cfg = ChaosConfig::default();
    let schedule = FaultSchedule {
        seed,
        ticks: cfg.ticks,
        windows,
    };
    assert!(
        schedule.is_lossless(),
        "seed {seed}: no crash in the schedule"
    );
    let report = run(&schedule, &cfg);
    assert!(
        report.violations.is_empty(),
        "seed {seed}: {:?}",
        report.violations
    );
    assert_eq!(report.lost, 0, "seed {seed}");
    assert_eq!(report.handled, report.emits, "seed {seed}");
}

/// Seed 900, minimized: a partition between the two hives drops the
/// `MigrateState` of a forced migration. While state shipped as a lossy
/// control frame, the destination bee waited `Awaiting` its own state
/// forever, with no shipment parked, holding its mail. On the reliable
/// channel the shipment is retransmitted once the partition heals.
#[test]
fn a_migration_shipped_across_a_partition_arrives() {
    assert_schedule_drains(
        900,
        vec![
            FaultWindow {
                at: 7,
                for_ticks: 6,
                kind: FaultKind::Partition { a: 2, b: 1 },
            },
            FaultWindow {
                at: 11,
                for_ticks: 3,
                kind: FaultKind::ForceMigration,
            },
        ],
    );
}

/// Seed 1799, minimized to one window and no link fault: the source hive
/// of a forced migration catches up on the registry by `InstallSnapshot`,
/// so it never applies the migration's `Moved` event. It must still finish
/// its side from the snapshot: hand the bee off and forward its mail.
#[test]
fn a_migration_source_finishes_from_a_registry_snapshot() {
    assert_schedule_drains(
        1799,
        vec![FaultWindow {
            at: 6,
            for_ticks: 8,
            kind: FaultKind::ForceMigration,
        }],
    );
}

/// The negative control the harness is judged by: plant a deliberate
/// double-ownership bug (test-only `debug_force_own`) mid-run. The
/// ownership checker must flag it, and the minimizer must shrink the
/// schedule to a strictly shorter one that still reproduces it.
#[test]
fn injected_ownership_bug_is_caught_and_minimized() {
    let cfg = ChaosConfig {
        ticks: 20,
        quiet_ticks: 10,
        min_windows: 3,
        max_windows: 5,
        // Pure schedule around the bug: no wire faults, crashes or disk
        // faults, so the run is fast and the only possible violation is the
        // planted one.
        wire_faults: false,
        crashes: false,
        disk_faults: false,
        migrations: false,
        membership: false,
        inject_ownership_bug: true,
        ..Default::default()
    };
    let report = run_seed(9, &cfg);
    assert!(
        !report.violations.is_empty(),
        "the planted bug must be caught"
    );
    assert!(
        report.violations.iter().any(|v| v.checker == "ownership"),
        "the ownership checker specifically must flag it: {:?}",
        report.violations
    );

    let minimized = minimize(&report.schedule, &cfg);
    assert!(
        minimized.windows.len() < report.schedule.windows.len(),
        "minimization must strictly shrink the schedule ({} -> {})",
        report.schedule.windows.len(),
        minimized.windows.len()
    );
    assert!(
        minimized
            .windows
            .iter()
            .any(|w| w.kind == FaultKind::OwnershipBug),
        "the culprit window must survive minimization"
    );
    let replay = run(&minimized, &cfg);
    assert!(
        replay.violations.iter().any(|v| v.checker == "ownership"),
        "the minimized schedule still reproduces the violation"
    );
}
