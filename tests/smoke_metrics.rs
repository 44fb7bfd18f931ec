//! A three-node `beehive-node` cluster on loopback TCP, scraped through its
//! status servers: every node must come up healthy, serve a well-formed
//! `/metrics` exposition with each family declared once, and record its
//! peer connections in the `/events` flight recorder.

use std::collections::BTreeSet;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[path = "common/http.rs"]
mod http;
#[path = "common/nodes.rs"]
mod nodes;
use http::http_get;
use nodes::{free_addrs, Nodes};

/// How long the cluster gets to report healthy and connected.
const READY_DEADLINE: Duration = Duration::from_secs(30);

/// Whether `line` reads `name{labels} value` or `name value`.
fn well_formed_sample(line: &str) -> bool {
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let name = match series.split_once('{') {
        Some((name, labels)) => match labels.strip_suffix('}') {
            Some(inner) if !inner.contains('}') => name,
            _ => return false,
        },
        None => series,
    };
    let name_ok = name.chars().enumerate().all(|(i, c)| {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
    });
    let value_ok = value
        .chars()
        .all(|c| c.is_ascii_digit() || "eE.+-".contains(c));
    !name.is_empty() && name_ok && !value.is_empty() && value_ok
}

#[test]
fn three_nodes_serve_metrics_healthz_and_events() {
    let addrs = free_addrs(6);
    let (listen, status) = addrs.split_at(3);
    let mut nodes = Nodes(Vec::new());
    for i in 0..3 {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_beehive-node"));
        cmd.args(["--id", &(i + 1).to_string()])
            .args(["--listen", &listen[i].to_string()]);
        for j in (0..3).filter(|&j| j != i) {
            cmd.args(["--peer", &format!("{}={}", j + 1, listen[j])]);
        }
        cmd.args(["--voters", "3", "--stats-every", "0"])
            .args(["--status-addr", &status[i].to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        nodes.0.push(cmd.spawn().expect("spawn beehive-node"));
    }

    // Ready: every node answers healthy and has seen a peer connect.
    let deadline = Instant::now() + READY_DEADLINE;
    let mut pending: BTreeSet<usize> = (0..3).collect();
    while !pending.is_empty() {
        pending.retain(|&i| {
            let ok = http_get(status[i], "/healthz").is_ok_and(|b| b.contains("\"status\":\"ok\""));
            let connected = http_get(status[i], "/events?n=500")
                .is_ok_and(|b| b.contains("\"kind\":\"peer_connect\""));
            !(ok && connected)
        });
        for (i, child) in nodes.0.iter_mut().enumerate() {
            let exited = child.try_wait().expect("poll node");
            assert!(exited.is_none(), "node {} exited: {exited:?}", i + 1);
        }
        assert!(
            Instant::now() < deadline,
            "nodes {pending:?} (0-based) not healthy and connected within {READY_DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    for (i, &addr) in status.iter().enumerate() {
        let text = http_get(addr, "/metrics").expect("scrape /metrics");
        let node = i + 1;
        assert!(
            text.lines().any(|l| l.starts_with("beehive_build_info{")),
            "node {node}: no beehive_build_info\n{text}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("beehive_uptime_seconds ")),
            "node {node}: no beehive_uptime_seconds\n{text}"
        );
        let mut families = BTreeSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            assert!(
                families.insert(line),
                "node {node}: family declared twice: {line}"
            );
        }
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            assert!(
                well_formed_sample(line),
                "node {node}: malformed sample line: {line}"
            );
        }
    }
}

#[test]
fn the_sample_check_rejects_what_the_exposition_must_not_contain() {
    for good in [
        "beehive_uptime_seconds 1.25",
        "beehive_build_info{version=\"0.1.0\",git_sha=\"unknown\"} 1",
        "beehive_queue_wait_seconds_bucket{app=\"a\",msg=\"M\",le=\"5e-5\"} 3",
    ] {
        assert!(well_formed_sample(good), "{good}");
    }
    for bad in [
        "beehive_uptime_seconds",
        "9lives 1",
        "beehive_x{a=\"b\" 1",
        "beehive_x{a=\"}\"} 1",
        "beehive_x NaN",
        "beehive_x 1 2",
    ] {
        assert!(!well_formed_sample(bad), "{bad}");
    }
}
