//! Dropping a transport releases every thread and socket it created — no
//! leaked reactor loops or fds. The counts are process-wide, so this file
//! holds exactly one test: libtest then runs it with no sibling test threads
//! starting or parking while it counts.

#![cfg(target_os = "linux")]

mod common;

use beehive_core::transport::{Frame, Transport};
use beehive_core::HiveId;

use common::{recv_blocking, tcp_pair, wait_until};

fn count_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

fn count_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

#[test]
fn clean_shutdown_leaks_nothing() {
    let threads_before = count_threads();
    let fds_before = count_fds();
    {
        let (a, b) = tcp_pair();
        // Real traffic so both directions have live connections.
        a.send(HiveId(2), Frame::app(vec![1]));
        recv_blocking(&b, 5000).expect("frame arrives");
        b.send(HiveId(1), Frame::raft(vec![2]));
        recv_blocking(&a, 5000).expect("reply arrives");
    }
    assert!(
        wait_until(5000, || count_threads() <= threads_before),
        "leaked threads: {} before, {} after",
        threads_before,
        count_threads()
    );
    assert!(
        wait_until(5000, || count_fds() <= fds_before),
        "leaked fds: {} before, {} after",
        fds_before,
        count_fds()
    );
}
