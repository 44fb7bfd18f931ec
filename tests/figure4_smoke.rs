//! The paper's evaluation binary runs and its self-check holds: the naive TE
//! design collapses onto one bee (Figure 4a's premise). Its `--small`
//! stdout and CSVs are pinned byte for byte against `tests/golden/`, with
//! the `(csv: PATH)` lines masked; the `done in X.Xs wall` lines go to
//! stderr, which is not compared. A change that moves a figure must say why
//! and re-record the goldens:
//!
//! ```sh
//! figure4 --small --panel all --out tests/golden/figure4_small \
//!     | sed -E 's/^\(csv: .*\)$/(csv: PATH)/' > tests/golden/figure4_small.txt
//! figure4 --check voters-ablation --small > tests/golden/figure4_voters_ablation_small.txt
//! ```

use std::path::Path;
use std::process::{Command, Output};

fn figure4(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_figure4"))
        .args(args)
        .output()
        .expect("run figure4");
    assert!(
        out.status.success(),
        "figure4 {args:?} exited {:?}\nstdout: {}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Stdout with the CSV paths masked.
fn masked(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .map(|line| {
            if line.starts_with("(csv: ") {
                "(csv: PATH)\n".to_string()
            } else {
                format!("{line}\n")
            }
        })
        .collect()
}

#[test]
fn naive_collocation_check_passes() {
    let out = figure4(&["--check", "naive-collocation", "--small", "--seconds", "8"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CHECK PASSED"), "stdout: {stdout}");
}

#[test]
fn small_panels_match_the_golden_output_and_csvs() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figure4-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let out = figure4(&[
        "--small",
        "--panel",
        "all",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        masked(&out.stdout),
        include_str!("golden/figure4_small.txt"),
        "figure4 --small stdout moved"
    );
    macro_rules! golden_csv {
        ($name:literal) => {
            ($name, include_str!(concat!("golden/figure4_small/", $name)))
        };
    }
    let goldens = [
        golden_csv!("fig4a_matrix.csv"),
        golden_csv!("fig4b_matrix.csv"),
        golden_csv!("fig4c_matrix.csv"),
        golden_csv!("fig4d_bw.csv"),
        golden_csv!("fig4e_bw.csv"),
        golden_csv!("fig4f_bw.csv"),
    ];
    for (name, golden) in goldens {
        let csv = std::fs::read_to_string(dir.join(name)).expect("csv written");
        assert_eq!(csv, golden, "{name} moved");
    }
}

#[test]
fn small_voters_ablation_matches_the_golden_table() {
    let out = figure4(&["--check", "voters-ablation", "--small"]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/figure4_voters_ablation_small.txt"),
        "figure4 --check voters-ablation --small moved"
    );
}
