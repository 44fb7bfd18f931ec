//! Elastic membership on real `beehive-node` processes over loopback TCP:
//! three seed voters come up, a fourth hive joins the running cluster and is
//! promoted to voter, then a seed voter is SIGTERM'd mid-workload and drains
//! out. The drained hive must depart owning nothing, no node may panic, and
//! the survivors must end healthy, fully acked and with both transitions in
//! their flight recorders. Node logs are kept under the test's target tmp
//! dir (`smoke-membership/`).

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::Duration;

#[path = "common/http.rs"]
mod http;
#[path = "common/nodes.rs"]
mod nodes;
use http::http_get;
use nodes::{free_addrs, sample, sigterm, wait_until, Nodes};

/// How long the seed voters get to report healthy and connected.
const READY_DEADLINE: Duration = Duration::from_secs(30);
/// How long the joiner gets to become an active voter.
const JOIN_DEADLINE: Duration = Duration::from_secs(120);
/// How long the drained voter gets to exit once SIGTERM'd.
const DRAIN_DEADLINE: Duration = Duration::from_secs(90);
/// How long the survivors get to settle after the drained voter exited.
const SETTLE_DEADLINE: Duration = Duration::from_secs(30);

/// Starts hive `id` listening on `listen[id - 1]`, with `flags` naming its
/// peers, its output (stdout and stderr) appended to `log`.
fn spawn_node(
    id: usize,
    listen: &[SocketAddr],
    status: &[SocketAddr],
    flags: &[String],
    log: &Path,
) -> Child {
    let out = File::create(log).expect("create node log");
    Command::new(env!("CARGO_BIN_EXE_beehive-node"))
        .args(["--id", &id.to_string()])
        .args(["--listen", &listen[id - 1].to_string()])
        .args(flags)
        .args(["--voters", "3", "--stats-every", "0"])
        .args(["--status-addr", &status[id - 1].to_string()])
        .stdout(out.try_clone().expect("clone log handle"))
        .stderr(out)
        .spawn()
        .expect("spawn beehive-node")
}

/// `--peer`/`--join` flags naming the listen address of each hive in `ids`.
fn peer_flags(flag: &str, ids: &[usize], listen: &[SocketAddr]) -> Vec<String> {
    ids.iter()
        .flat_map(|&id| [flag.to_string(), format!("{id}={}", listen[id - 1])])
        .collect()
}

#[test]
fn a_node_joins_live_then_a_seed_voter_drains_out() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-membership");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log dir");
    let logs: Vec<PathBuf> = (1..=4).map(|i| dir.join(format!("hive{i}.log"))).collect();
    let addrs = free_addrs(8);
    let (listen, status) = addrs.split_at(4);
    let get = |id: usize, path: &str| http_get(status[id - 1], path).unwrap_or_default();

    // Three seed voters.
    let mut nodes = Nodes(Vec::new());
    for id in 1..=3 {
        let others: Vec<usize> = (1..=3).filter(|&j| j != id).collect();
        let flags = peer_flags("--peer", &others, listen);
        nodes
            .0
            .push(spawn_node(id, listen, status, &flags, &logs[id - 1]));
    }
    wait_until(
        READY_DEADLINE,
        "seed voters not healthy and connected",
        &logs,
        || {
            (1..=3).all(|id| {
                get(id, "/healthz").contains("\"status\":\"ok\"")
                    && get(id, "/events?n=500").contains("\"kind\":\"peer_connect\"")
            })
        },
    );

    // Hive 4 joins the running cluster: learner, then voter.
    let mut flags = peer_flags("--join", &[1], listen);
    flags.extend(peer_flags("--peer", &[2, 3], listen));
    nodes
        .0
        .push(spawn_node(4, listen, status, &flags, &logs[3]));
    wait_until(
        JOIN_DEADLINE,
        "hive 4 never finished joining",
        &logs,
        || get(4, "/healthz").contains("\"lifecycle\":\"active\""),
    );

    // The metrics-report workload flows through the four-hive cluster: hive
    // 4's collector reports reach the cluster-wide aggregator.
    wait_until(READY_DEADLINE, "hive 4 sent no app frames", &logs, || {
        let series = "beehive_transport_frames_total{kind=\"app\",direction=\"out\"}";
        sample(&get(4, "/metrics"), series).is_some_and(|n| n > 0)
    });

    // SIGTERM drains hive 2, a seed voter, mid-workload; it exits on its own
    // once its removal commits.
    sigterm(&nodes.0[1]);
    wait_until(
        DRAIN_DEADLINE,
        "hive 2 never exited after SIGTERM",
        &logs,
        || nodes.0[1].try_wait().expect("poll hive 2").is_some(),
    );
    let log2 = std::fs::read_to_string(&logs[1]).expect("read hive 2 log");
    assert!(
        log2.contains("exited as departed with 0 owned cell(s)"),
        "hive 2 did not depart cleanly:\n{log2}"
    );

    // The survivors settle: healthy, both transitions recorded, and every
    // envelope hives 1 and 4 sent acknowledged.
    let survivors = [1, 3, 4];
    wait_until(SETTLE_DEADLINE, "survivors did not settle", &logs, || {
        survivors.iter().all(|&id| {
            get(id, "/healthz").contains("\"status\":\"ok\"")
                && get(id, "/events?n=1000").contains("\"kind\":\"membership_change\"")
        }) && get(4, "/events?n=1000").contains("promoted to voter")
            && survivors
                .iter()
                .any(|&id| get(id, "/events?n=1000").contains("is draining"))
            && [1, 4]
                .iter()
                .all(|&id| sample(&get(id, "/metrics"), "beehive_outbox_depth") == Some(0))
    });
    for (id, child) in nodes.0.iter_mut().enumerate() {
        if id != 1 {
            let exited = child.try_wait().expect("poll node");
            assert!(
                exited.is_none(),
                "survivor hive {} exited: {exited:?}",
                id + 1
            );
        }
    }
    drop(nodes);
    for log in &logs {
        let text = std::fs::read_to_string(log).expect("read node log");
        assert!(
            !text.to_lowercase().contains("panicked"),
            "a hive panicked during membership churn: {}\n{text}",
            log.display()
        );
    }
}
