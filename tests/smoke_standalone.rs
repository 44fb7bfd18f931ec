//! A standalone `beehive-node` (no `--peer`: a registry group of one)
//! leaves on SIGTERM. With no survivor to take its bees, its drain flushes
//! the outbox and departs, and the process exits 0; its cells stay in its
//! durable registry, so a restart on the same `--storage-dir` owns as many,
//! even one SIGTERMed before it re-created a single bee.
//! Node logs are kept under the test's target tmp dir (`smoke-standalone/`).

use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

#[path = "common/http.rs"]
mod http;
#[path = "common/nodes.rs"]
mod nodes;
use http::http_get;
use nodes::{free_addrs, sigterm, wait_until, Nodes};

/// How long the node gets to become ready.
const READY_DEADLINE: Duration = Duration::from_secs(30);
/// How long the node gets to exit once SIGTERM'd.
const EXIT_DEADLINE: Duration = Duration::from_secs(30);

/// Whether the node's status server answers.
fn answers(status: SocketAddr) -> bool {
    http_get(status, "/healthz").is_ok()
}

/// Whether the node placed its optimizer bee, which owns a cell.
fn placed_optimizer(status: SocketAddr) -> bool {
    http_get(status, "/events?n=100").is_ok_and(|events| {
        events.contains("\"kind\":\"bee_spawned\",\"app\":\"beehive.optimizer\"")
    })
}

/// Runs a standalone node on `storage` until `ready` holds of its status
/// address, SIGTERMs it, and returns the owned-cell count its exit line
/// reports.
fn run_until_sigterm(storage: &Path, log: &Path, ready: fn(SocketAddr) -> bool) -> usize {
    let addrs = free_addrs(2);
    let out = File::create(log).expect("create node log");
    let child = Command::new(env!("CARGO_BIN_EXE_beehive-node"))
        .args(["--id", "1", "--listen", &addrs[0].to_string()])
        .args(["--storage-dir", &storage.display().to_string()])
        .args(["--stats-every", "0", "--status-addr", &addrs[1].to_string()])
        .stdout(out.try_clone().expect("clone log handle"))
        .stderr(out)
        .spawn()
        .expect("spawn beehive-node");
    let mut nodes = Nodes(vec![child]);
    let logs = [log.to_path_buf()];
    wait_until(READY_DEADLINE, "the node was not ready", &logs, || {
        ready(addrs[1])
    });

    sigterm(&nodes.0[0]);
    let mut status = None;
    wait_until(
        EXIT_DEADLINE,
        "the node did not exit after SIGTERM",
        &logs,
        || {
            status = nodes.0[0].try_wait().expect("poll node");
            status.is_some()
        },
    );
    let text = std::fs::read_to_string(log).expect("read node log");
    assert!(status.unwrap().success(), "exit {status:?}:\n{text}");
    text.lines()
        .find_map(|l| {
            l.split_once("exited as departed with ")?
                .1
                .strip_suffix(" owned cell(s)")?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no departure line:\n{text}"))
}

#[test]
fn a_standalone_node_departs_on_sigterm_and_keeps_its_cells() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-standalone");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    let storage = dir.join("state");
    let first = run_until_sigterm(&storage, &dir.join("run1.log"), placed_optimizer);
    assert!(first > 0, "the optimizer bee owns a cell");
    let again = run_until_sigterm(&storage, &dir.join("run2.log"), placed_optimizer);
    assert_eq!(again, first, "the restart owns a different number of cells");
    // A restart re-creates its bees on the first message routed to them;
    // its cells are its own from boot on.
    let early = run_until_sigterm(&storage, &dir.join("run3.log"), answers);
    assert_eq!(
        early, first,
        "a restart SIGTERMed at once reports a different number of cells"
    );
}
