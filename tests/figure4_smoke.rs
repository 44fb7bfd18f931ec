//! The paper's evaluation binary runs and its self-check holds: the naive TE
//! design collapses onto one bee (Figure 4a's premise).

use std::process::Command;

#[test]
fn naive_collocation_check_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_figure4"))
        .args(["--check", "naive-collocation", "--small", "--seconds", "8"])
        .output()
        .expect("run figure4");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "figure4 exited {:?}\nstdout: {stdout}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("CHECK PASSED"), "stdout: {stdout}");
}
