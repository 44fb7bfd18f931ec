//! A durable restart storm on real `beehive-node` processes over loopback
//! TCP. Three voters persist registry and outbox state and compact at every
//! applied entry (`--snapshot-interval 1 --fsync always`), so a node that
//! falls behind can only catch up through `InstallSnapshot`. Hive 3 is
//! SIGKILLed three times. Before each restart its outbox journal gets a
//! torn tail, what a crash mid-append leaves; the last cycle also deletes
//! its Raft state file, a cold disk only a shipped snapshot can refill. No
//! hive may panic or fail-stop, all three must end healthy, and hive 3's
//! flight recorder and metrics must show the torn-tail truncation and the
//! snapshot install. Node logs are kept under the test's target tmp dir
//! (`smoke-storm/`).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

#[path = "common/http.rs"]
mod http;
#[path = "common/nodes.rs"]
mod nodes;
use http::http_get;
use nodes::{free_addrs, sample, wait_until, Nodes};

/// How long the voters get to come up, connect and compact once.
const READY_DEADLINE: Duration = Duration::from_secs(60);
/// How long a restarted hive 3 gets to report healthy.
const RESTART_DEADLINE: Duration = Duration::from_secs(60);
/// How long the cluster gets to show every recovery after the last cycle.
const SETTLE_DEADLINE: Duration = Duration::from_secs(60);

/// A record header promising 64 payload bytes, its checksum, and only 5 of
/// the bytes: a crash mid-append. Recovery must truncate it, not halt.
const TORN_TAIL: [u8; 17] = [
    0x40, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0xef, 0xbe, 0xad, 0xde, 0xab, 0xab, 0xab, 0xab,
    0xab,
];

/// Starts hive `id` as one of three durable voters, its output appended to
/// `log` (hive 3's log spans every restart).
fn spawn_node(
    id: usize,
    listen: &[SocketAddr],
    status: &[SocketAddr],
    state: &Path,
    log: &Path,
) -> Child {
    let out = OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .expect("open node log");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_beehive-node"));
    cmd.args(["--id", &id.to_string()])
        .args(["--listen", &listen[id - 1].to_string()]);
    for peer in (1..=3).filter(|&p| p != id) {
        cmd.args(["--peer", &format!("{peer}={}", listen[peer - 1])]);
    }
    cmd.args(["--voters", "3", "--stats-every", "0"])
        .args(["--storage-dir", &state.display().to_string()])
        .args(["--snapshot-interval", "1", "--fsync", "always"])
        .args(["--status-addr", &status[id - 1].to_string()])
        .stdout(out.try_clone().expect("clone log handle"))
        .stderr(out)
        .spawn()
        .expect("spawn beehive-node")
}

#[test]
fn a_voter_killed_three_times_with_torn_journals_and_a_cold_disk_recovers() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-storm");
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.join("state");
    std::fs::create_dir_all(&state).expect("create state dir");
    let logs: Vec<PathBuf> = (1..=3).map(|i| dir.join(format!("hive{i}.log"))).collect();
    let addrs = free_addrs(6);
    let (listen, status) = addrs.split_at(3);
    let get = |id: usize, path: &str| http_get(status[id - 1], path).unwrap_or_default();
    let metric = |id: usize, series: &str| sample(&get(id, "/metrics"), series).unwrap_or(0);
    let healthy = |id: usize| get(id, "/healthz").contains("\"status\":\"ok\"");

    let mut nodes = Nodes(Vec::new());
    for id in 1..=3 {
        nodes
            .0
            .push(spawn_node(id, listen, status, &state, &logs[id - 1]));
    }
    // Hive 3 has registry state to lose: it compacted at least once.
    wait_until(
        READY_DEADLINE,
        "the voters did not come up healthy, connected and compacted",
        &logs,
        || {
            (1..=3).all(|id| {
                healthy(id) && get(id, "/events?n=500").contains("\"kind\":\"peer_connect\"")
            }) && metric(3, "beehive_snapshot_index") > 0
        },
    );

    for cycle in 1..=3 {
        let hive3 = &mut nodes.0[2];
        hive3.kill().expect("SIGKILL hive 3");
        hive3.wait().expect("reap hive 3");
        File::options()
            .append(true)
            .open(state.join("hive-3.outbox"))
            .and_then(|mut f| f.write_all(&TORN_TAIL))
            .expect("tear hive 3's outbox journal");
        if cycle == 3 {
            std::fs::remove_file(state.join("hive-3.raft")).expect("wipe hive 3's raft state");
        }
        nodes.0[2] = spawn_node(3, listen, status, &state, &logs[2]);
        // Each restart truncates one more torn tail, counted from boot.
        wait_until(
            RESTART_DEADLINE,
            &format!("hive 3 not healthy after storm cycle {cycle}"),
            &logs,
            || healthy(3) && metric(3, "beehive_journal_torn_truncations_total") > 0,
        );
    }

    wait_until(
        SETTLE_DEADLINE,
        "the cluster did not show every recovery",
        &logs,
        || {
            let events3 = get(3, "/events?n=1000");
            (1..=3).all(|id| healthy(id) && get(id, "/healthz").contains("\"snapshot_lag\":"))
                && events3.contains("\"kind\":\"journal_torn_tail\"")
                && events3.contains("\"kind\":\"snapshot_install\"")
                && metric(3, "beehive_snapshot_installs_total") > 0
        },
    );
    let torn = metric(3, "beehive_journal_torn_truncations_total");
    let installs = metric(3, "beehive_snapshot_installs_total");
    let snapshot_index = (1..=3)
        .map(|id| metric(id, "beehive_snapshot_index"))
        .max()
        .unwrap_or(0);
    assert!(torn > 0, "no torn-tail truncation recorded on hive 3");
    assert!(installs > 0, "cold-disk hive 3 never installed a snapshot");
    assert!(snapshot_index > 0, "no hive ever took a snapshot");
    for id in 1..=3 {
        let events = get(id, "/events?n=1000");
        assert!(
            !events.contains("\"kind\":\"storage_fault\""),
            "hive {id} fail-stopped during the storm:\n{events}"
        );
    }
    for (i, child) in nodes.0.iter_mut().enumerate() {
        let exited = child.try_wait().expect("poll node");
        assert!(exited.is_none(), "hive {} exited: {exited:?}", i + 1);
    }
    drop(nodes);
    for log in &logs {
        let text = std::fs::read_to_string(log).expect("read node log");
        assert!(
            !text.to_lowercase().contains("panicked"),
            "a hive panicked during the restart storm: {}\n{text}",
            log.display()
        );
    }
}
