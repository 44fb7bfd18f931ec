//! Spawned `beehive-node` processes and the loopback addresses they bind,
//! shared by the test binaries that drive real nodes. Include it with
//! `#[path = "common/nodes.rs"] mod nodes;`.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant};

/// How often [`wait_until`] polls.
const POLL: Duration = Duration::from_millis(100);

/// The node processes; dropping the guard kills them, pass or fail.
pub struct Nodes(pub Vec<Child>);

impl Drop for Nodes {
    fn drop(&mut self) {
        // A kill, not a drain: SIGTERM would start a graceful scale-in.
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `n` loopback addresses nothing listened on a moment ago.
pub fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// Asks a node to drain and leave, the way an operator would.
pub fn sigterm(child: &Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    // SAFETY: `kill(2)` only reads its two integer arguments.
    let rc = unsafe { kill(pid, SIGTERM) };
    assert_eq!(rc, 0, "kill -TERM {pid} failed");
}

/// The value of the sample line `series value` in a `/metrics` body.
pub fn sample(metrics: &str, series: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
}

/// Polls `done` until it holds; past `deadline`, fails with `what` and the
/// tail of every node log.
pub fn wait_until(
    deadline: Duration,
    what: &str,
    logs: &[PathBuf],
    mut done: impl FnMut() -> bool,
) {
    let until = Instant::now() + deadline;
    while !done() {
        if Instant::now() >= until {
            let tails: String = logs
                .iter()
                .map(|p| {
                    let text = std::fs::read_to_string(p).unwrap_or_default();
                    let lines: Vec<&str> = text.lines().collect();
                    let tail = lines[lines.len().saturating_sub(20)..].join("\n");
                    format!("--- {}\n{tail}\n", p.display())
                })
                .collect();
            panic!("{what} within {deadline:?}\n{tails}");
        }
        std::thread::sleep(POLL);
    }
}
