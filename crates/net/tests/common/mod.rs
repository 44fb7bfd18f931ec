//! Helpers shared by the test binaries of this directory.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use beehive_core::transport::{Frame, Transport};
use beehive_core::HiveId;
use beehive_net::ReactorTransport;

pub fn bind(id: HiveId) -> ReactorTransport {
    ReactorTransport::bind(id, "127.0.0.1:0".parse().unwrap(), HashMap::new()).unwrap()
}

pub fn tcp_pair() -> (ReactorTransport, ReactorTransport) {
    let (mut a, mut b) = (bind(HiveId(1)), bind(HiveId(2)));
    a.add_peer(HiveId(2), b.local_addr());
    b.add_peer(HiveId(1), a.local_addr());
    (a, b)
}

pub fn recv_blocking(t: &dyn Transport, timeout_ms: u64) -> Option<(HiveId, Frame)> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while Instant::now() < deadline {
        if let Some(x) = t.try_recv() {
            return Some(x);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// Polls `cond` until it holds or `timeout_ms` elapses.
pub fn wait_until(timeout_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}
