//! `beehive-chaos` — deterministic chaos-test driver.
//!
//! Derives a fault schedule from each seed (partitions, drops, duplicates,
//! reorders, delays, hive crash+restarts, disk-fault restart storms with
//! torn journal tails, handler faults, forced migrations), runs it against a
//! simulated cluster in virtual time, and audits seven invariants after
//! every tick: cell-ownership exclusivity, registry agreement, message
//! conservation, transaction atomicity, trace-tree well-formedness,
//! event-journal well-formedness and snapshot/compaction sanity.
//!
//! Every run prints one stable line `seed N digest 0x…` — the fold of every
//! per-tick audit. The same seed always produces the same digest, so CI can
//! run a sweep twice and `diff` the outputs as a determinism proof.
//!
//! ```sh
//! beehive-chaos --seeds 0..64            # nightly sweep
//! beehive-chaos --seed 17                # replay one seed
//! beehive-chaos --seeds 0..8 --ticks 40  # a quick smoke
//! ```
//!
//! Options:
//!
//! * `--seeds A..B` — sweep seeds A (inclusive) to B (exclusive)
//! * `--seed N` — run exactly one seed (equivalent to `--seeds N..N+1`)
//! * `--hives N` — cluster size (default 3)
//! * `--ticks N` — active workload ticks per run (default 80)
//! * `--link-faults-only` — deterministically rewrite every generated window
//!   into a heavy drop/duplicate/reorder window; with the reliable channel
//!   layer such schedules must report `lost=0`
//! * `--inject-ownership-bug` — testing only: plant a deliberate double-owner
//!   bug mid-run to prove the ownership checker catches it
//! * `--out DIR` — write `seed-N.txt` repro files (violations + minimized
//!   schedule) for every failing seed
//!
//! Exit status: 0 on a clean sweep, 1 if any seed violated an invariant.

use std::ops::Range;

use beehive::sim::chaos::{self, ChaosConfig};

struct Args {
    seeds: Range<u64>,
    hives: usize,
    ticks: u64,
    link_faults_only: bool,
    inject_ownership_bug: bool,
    out: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: beehive-chaos (--seeds A..B | --seed N) [--hives N] [--ticks N] \
         [--link-faults-only] [--inject-ownership-bug] [--out DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut seeds: Option<Range<u64>> = None;
    let mut hives = 3usize;
    let mut ticks = 80u64;
    let mut link_faults_only = false;
    let mut inject_ownership_bug = false;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--seeds" => {
                let v = val();
                let (lo, hi) = v.split_once("..").unwrap_or_else(|| usage());
                let lo: u64 = lo.parse().unwrap_or_else(|_| usage());
                let hi: u64 = hi.parse().unwrap_or_else(|_| usage());
                if hi <= lo {
                    usage();
                }
                seeds = Some(lo..hi);
            }
            "--seed" => {
                let n: u64 = val().parse().unwrap_or_else(|_| usage());
                seeds = Some(n..n + 1);
            }
            "--hives" => hives = val().parse::<usize>().unwrap_or_else(|_| usage()).max(1),
            "--ticks" => ticks = val().parse::<u64>().unwrap_or_else(|_| usage()).max(8),
            "--link-faults-only" => link_faults_only = true,
            "--inject-ownership-bug" => inject_ownership_bug = true,
            "--out" => out = Some(std::path::PathBuf::from(val())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args {
        seeds: seeds.unwrap_or_else(|| usage()),
        hives,
        ticks,
        link_faults_only,
        inject_ownership_bug,
        out,
    }
}

/// Rewrites every window of a generated schedule into a heavy link fault —
/// drop, duplicate or reorder, cycling deterministically by window index.
/// The result is lossless by construction (the reliable channel masks all
/// three), so every seed must report `lost=0`.
fn to_link_faults_only(mut schedule: chaos::FaultSchedule) -> chaos::FaultSchedule {
    use beehive::sim::chaos::FaultKind;
    for (i, w) in schedule.windows.iter_mut().enumerate() {
        w.kind = match i % 3 {
            0 => FaultKind::Drop { permille: 300 },
            1 => FaultKind::Duplicate { permille: 300 },
            _ => FaultKind::Reorder { permille: 500 },
        };
    }
    schedule
}

fn main() {
    let args = parse_args();
    let cfg = ChaosConfig {
        hives: args.hives,
        voters: args.hives.min(3),
        ticks: args.ticks,
        inject_ownership_bug: args.inject_ownership_bug,
        ..Default::default()
    };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    let total = args.seeds.end - args.seeds.start;
    let mut failures = 0u64;
    for seed in args.seeds.clone() {
        let report = if args.link_faults_only {
            let schedule = to_link_faults_only(chaos::FaultSchedule::generate(seed, &cfg));
            chaos::run(&schedule, &cfg)
        } else {
            chaos::run_seed(seed, &cfg)
        };
        // One stable line per seed: CI diffs two sweeps of this output as
        // the determinism proof. Keep it free of anything time-dependent.
        println!(
            "seed {seed} digest {:#018x} emits={} handled={} dead={} dropped={} dup={} lost={} \
             retransmits={} dups_suppressed={} windows={}",
            report.digest,
            report.emits,
            report.handled,
            report.dead_lettered,
            report.dropped_app,
            report.duplicated_app,
            report.lost,
            report.retransmits,
            report.dups_suppressed,
            report.schedule.windows.len(),
        );
        if report.violations.is_empty() {
            continue;
        }
        failures += 1;
        eprintln!("seed {seed}: {} violation(s)", report.violations.len());
        for v in &report.violations {
            eprintln!("  {v}");
        }
        eprintln!("minimizing seed {seed}…");
        let minimized = chaos::minimize(&report.schedule, &cfg);
        eprintln!(
            "minimized {} -> {} windows:\n{minimized}",
            report.schedule.windows.len(),
            minimized.windows.len()
        );
        if let Some(dir) = &args.out {
            let mut body = format!("seed {seed}\n\nviolations:\n");
            for v in &report.violations {
                body.push_str(&format!("  {v}\n"));
            }
            body.push_str(&format!(
                "\nfull schedule:\n{}\n\nminimized:\n{minimized}\n",
                report.schedule
            ));
            let path = dir.join(format!("seed-{seed}.txt"));
            std::fs::write(&path, body).expect("write repro file");
            eprintln!("repro written to {}", path.display());
        }
    }

    eprintln!("swept {total} seed(s), {failures} failing");
    if failures > 0 {
        std::process::exit(1);
    }
}
