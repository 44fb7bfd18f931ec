//! Fault containment on real `beehive-node` processes over loopback TCP.
//!
//! * Three voters, hives 1 and 2 with an injected transient fault on the
//!   collector's `Tick`, and hive 3 SIGKILLed mid-run. The survivors
//!   redeliver the failed ticks without a panic or a dead letter, and back
//!   off their connects to the dead hive.
//! * Hive 1 is the registry's only voter, persists its state, and hosts
//!   the optimizer bee that every hive's metrics report goes to. It is
//!   SIGKILLed and restarted from its `--storage-dir`: the survivors
//!   retransmit the reports it missed until their outboxes drain.
//!
//! Node logs are kept under the test's target tmp dir (`smoke-fault/`).

use std::fs::OpenOptions;
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

/// How long a phase of either scenario may take.
const DEADLINE: Duration = Duration::from_secs(60);

/// Starts hive `id` of three with `extra` flags, its output appended to
/// `log` (a restarted hive's log spans both runs).
fn spawn_node(
    id: usize,
    listen: &[SocketAddr],
    status: &[SocketAddr],
    extra: &[&str],
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
    cmd.args(["--stats-every", "0"])
        .args(["--status-addr", &status[id - 1].to_string()])
        .args(extra)
        .stdout(out.try_clone().expect("clone log handle"))
        .stderr(out)
        .spawn()
        .expect("spawn beehive-node")
}

/// A fresh log directory for one scenario.
fn log_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("smoke-fault")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    dir
}

/// The body of `GET path` on `addr`, empty while nothing answers there.
fn get(addr: SocketAddr, path: &str) -> String {
    http_get(addr, path).unwrap_or_default()
}

/// The value of `series` in `addr`'s `/metrics`, 0 while it is absent.
fn metric(addr: SocketAddr, series: &str) -> u64 {
    sample(&get(addr, "/metrics"), series).unwrap_or(0)
}

fn healthy(addr: SocketAddr) -> bool {
    get(addr, "/healthz").contains("\"status\":\"ok\"")
}

/// Fails if any node log reports a panic.
fn assert_no_panic(logs: &[PathBuf]) {
    for log in logs {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        assert!(
            !text.to_lowercase().contains("panicked"),
            "{} panicked:\n{text}",
            log.display()
        );
    }
}

#[test]
fn survivors_of_a_sigkilled_node_redeliver_and_back_off_without_dead_letters() {
    let dir = log_dir("kill");
    let logs: Vec<PathBuf> = (1..=3).map(|i| dir.join(format!("hive{i}.log"))).collect();
    let addrs = free_addrs(6);
    let (listen, status) = addrs.split_at(3);
    let survivors = [status[0], status[1]];
    // The survivors' collectors fail their first two ticks, so supervised
    // redelivery demonstrably fires.
    let faulty = [
        "--voters",
        "3",
        "--inject-fault",
        "beehive.collector:Tick:2",
    ];
    let mut nodes = Nodes(vec![
        spawn_node(1, listen, status, &faulty, &logs[0]),
        spawn_node(2, listen, status, &faulty, &logs[1]),
        spawn_node(3, listen, status, &["--voters", "3"], &logs[2]),
    ]);
    wait_until(
        DEADLINE,
        "the cluster did not come up connected, with redelivered ticks",
        &logs,
        || {
            status.iter().all(|&s| {
                healthy(s) && get(s, "/events?n=500").contains("\"kind\":\"peer_connect\"")
            }) && survivors
                .iter()
                .all(|&s| metric(s, "beehive_redeliveries_total") > 0)
        },
    );

    let hive3 = &mut nodes.0[2];
    hive3.kill().expect("SIGKILL hive 3");
    hive3.wait().expect("reap hive 3");
    // At least one survivor (the registry leader) keeps heartbeating the
    // dead hive and must enter connect backoff.
    wait_until(
        DEADLINE,
        "no survivor recorded a connect failure after the SIGKILL",
        &logs,
        || {
            survivors
                .iter()
                .map(|&s| metric(s, "beehive_transport_connect_failures_total"))
                .sum::<u64>()
                > 0
        },
    );
    for (i, &s) in survivors.iter().enumerate() {
        let metrics = get(s, "/metrics");
        assert_eq!(
            sample(&metrics, "beehive_handler_failures_total{kind=\"panic\"}"),
            Some(0),
            "hive {} recorded panics:\n{metrics}",
            i + 1
        );
        assert!(
            sample(&metrics, "beehive_redeliveries_total").unwrap_or(0) > 0,
            "hive {} recorded no redelivery:\n{metrics}",
            i + 1
        );
        // Nothing exhausted its budget.
        assert_eq!(get(s, "/dlq").trim(), "[]", "hive {} dead-lettered", i + 1);
    }
    drop(nodes);
    assert_no_panic(&logs);
}

#[test]
fn a_restarted_registry_node_receives_every_envelope_the_survivors_held() {
    let dir = log_dir("restart");
    let state = dir.join("state");
    let logs: Vec<PathBuf> = (1..=3).map(|i| dir.join(format!("hive{i}.log"))).collect();
    let addrs = free_addrs(6);
    let (listen, status) = addrs.split_at(3);
    let survivors = [status[1], status[2]];
    let durable = [
        "--voters",
        "1",
        "--storage-dir",
        state.to_str().expect("utf-8 path"),
    ];
    let start_hive1 = || spawn_node(1, listen, status, &durable, &logs[0]);

    // Hive 1 starts alone, so the optimizer bee, which every hive's metrics
    // report goes to, is created on it: the survivors' reports are
    // cross-hive channel traffic toward the hive that is killed.
    let mut nodes = Nodes(vec![start_hive1()]);
    wait_until(
        DEADLINE,
        "hive 1 did not place the optimizer bee",
        &logs,
        || {
            get(status[0], "/events?n=100")
                .contains("\"kind\":\"bee_spawned\",\"app\":\"beehive.optimizer\"")
        },
    );
    for id in 2..=3 {
        nodes.0.push(spawn_node(
            id,
            listen,
            status,
            &["--voters", "1"],
            &logs[id - 1],
        ));
    }
    wait_until(
        DEADLINE,
        "the survivors' reports did not reach hive 1",
        &logs,
        || {
            survivors.iter().all(|&s| {
                healthy(s)
                    && metric(
                        s,
                        "beehive_transport_frames_total{kind=\"app\",direction=\"out\"}",
                    ) > 0
            })
        },
    );

    let hive1 = &mut nodes.0[0];
    hive1.kill().expect("SIGKILL hive 1");
    hive1.wait().expect("reap hive 1");
    wait_until(
        DEADLINE,
        "the survivors did not retransmit during the outage",
        &logs,
        || {
            survivors
                .iter()
                .all(|&s| metric(s, "beehive_retransmits_total") > 0)
        },
    );

    nodes.0[0] = start_hive1();
    // Once hive 1 is back, every unacked envelope is delivered and acked.
    wait_until(
        DEADLINE,
        "the survivors' outboxes did not drain after the restart",
        &logs,
        || {
            healthy(status[0])
                && survivors
                    .iter()
                    .all(|&s| sample(&get(s, "/metrics"), "beehive_outbox_depth") == Some(0))
        },
    );
    for (i, &s) in survivors.iter().enumerate() {
        assert!(
            metric(s, "beehive_retransmits_total") > 0,
            "hive {} recorded no retransmit",
            i + 2
        );
    }
    drop(nodes);
    assert_no_panic(&logs);
}
