//! The chaos sweep as the command line runs it: `beehive-chaos` in a fresh
//! process, so the process-global id and epoch counters start where they
//! start for an operator, and its output is compared byte for byte.
//!
//! `tests/golden/chaos_0_12.txt` is the behaviour pin: a change that moves
//! any of those twelve digests must say why, seed by seed, and re-record
//! the file with `beehive-chaos --seeds 0..12 > tests/golden/chaos_0_12.txt`.

use std::process::{Command, Output};

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_beehive-chaos"))
        .args(args)
        .output()
        .expect("run beehive-chaos")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// The value of `key=N` on a digest line.
fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
}

#[test]
fn seeds_0_to_12_print_the_golden_digests() {
    let out = chaos(&["--seeds", "0..12"]);
    assert!(out.status.success(), "sweep failed:\n{}", text(&out.stderr));
    assert_eq!(
        text(&out.stdout),
        include_str!("golden/chaos_0_12.txt"),
        "chaos digests moved"
    );
}

/// The wider sweep: 64 seeds pass every invariant audit (exit 0), and each
/// emits its whole workload and loses none of it. What a seed does not
/// handle is dead-lettered or absorbed by a crash, which the conservation
/// audit already accounts for.
#[test]
fn seeds_0_to_64_pass_every_audit_and_lose_nothing() {
    let out = chaos(&["--seeds", "0..64"]);
    assert!(out.status.success(), "sweep failed:\n{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert_eq!(stdout.lines().count(), 64, "one line per seed:\n{stdout}");
    for line in stdout.lines() {
        assert_eq!(field(line, "emits"), 160, "{line}");
        assert_eq!(field(line, "lost"), 0, "{line}");
    }
}

/// Seeds that once stranded mail: a shipment of bee state lost on the
/// lossy control path (900, 1013, 1348, 1473), or a migration source that
/// learned of the move only from a registry snapshot (1799, 1888).
#[test]
fn seeds_that_stranded_migrations_drain() {
    for seed in ["900", "1013", "1348", "1473", "1799", "1888"] {
        let out = chaos(&["--seed", seed]);
        assert!(out.status.success(), "seed {seed}:\n{}", text(&out.stderr));
        let stdout = text(&out.stdout);
        let line = stdout.lines().next().expect("one digest line");
        assert_eq!(field(line, "lost"), 0, "seed {seed}: {line}");
    }
}

#[test]
fn link_faults_alone_lose_nothing_and_exercise_the_channel() {
    for seed in ["11", "29"] {
        let out = chaos(&["--seed", seed, "--link-faults-only"]);
        assert!(out.status.success(), "seed {seed}:\n{}", text(&out.stderr));
        let stdout = text(&out.stdout);
        let line = stdout.lines().next().expect("one digest line");
        assert_eq!(field(line, "lost"), 0, "seed {seed} lost messages: {line}");
        assert!(
            field(line, "retransmits") > 0,
            "seed {seed} never retransmitted: {line}"
        );
        assert!(
            field(line, "dups_suppressed") > 0,
            "seed {seed}: dedup never fired: {line}"
        );
    }
}

#[test]
fn a_planted_ownership_bug_fails_the_sweep_with_a_minimized_repro() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos-smoke-negative");
    let _ = std::fs::remove_dir_all(&dir);
    let out = chaos(&[
        "--seed",
        "3",
        "--inject-ownership-bug",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        !out.status.success(),
        "planted ownership bug was not caught"
    );
    let repro = std::fs::read_to_string(dir.join("seed-3.txt")).expect("repro file written");
    assert!(
        repro.contains("minimized") && repro.contains("ownership-bug"),
        "repro lacks a minimized schedule:\n{repro}"
    );
}
