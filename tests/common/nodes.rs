//! Spawned `beehive-node` processes and the loopback addresses they bind,
//! shared by the test binaries that drive real nodes. Include it with
//! `#[path = "common/nodes.rs"] mod nodes;`.

use std::net::{SocketAddr, TcpListener};
use std::process::Child;

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
