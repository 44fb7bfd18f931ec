#![warn(missing_docs)]

//! `beehive-net` — inter-hive transports.
//!
//! * [`MemFabric`] / [`MemEndpoint`]: an in-process fabric connecting many
//!   hives with **byte-accurate control-channel accounting** (per source,
//!   destination, traffic category and time bucket), optional latency, drops
//!   and partitions. This is what the simulator and the Figure-4 evaluation
//!   run on.
//! * [`ReactorTransport`]: the TCP transport for real deployments — the
//!   sender writes what a non-blocking socket takes with vectored batched
//!   writes, and one event loop per hive owns connects, reads and the
//!   backlog. It is
//!   built from the framing codec in [`frame`] and the outbound
//!   ring/backoff machinery in [`buffer`].
//!
//! `tests/conformance.rs` runs the reactor and the fabric through one
//! harness to keep their [`Transport`] semantics identical.

pub mod buffer;
mod fabric;
pub mod frame;
mod matrix;
#[cfg(target_os = "linux")]
mod reactor;
#[cfg(target_os = "linux")]
mod sys;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use beehive_core::transport::{Transport, TransportCounters, TransportPreference};
use beehive_core::HiveId;

pub use fabric::{ClearedFrames, FabricFaults, FaultStats, MemEndpoint, MemFabric};
pub use matrix::{MatrixCell, TrafficMatrix};
#[cfg(target_os = "linux")]
pub use reactor::ReactorTransport;

/// Binds the reactor and returns it type-erased, together with the bound
/// address (useful with port 0) and its counters — everything
/// `beehive-node` needs before handing the transport to the hive.
#[cfg(target_os = "linux")]
pub fn bind_tcp(
    _engine: TransportPreference,
    id: HiveId,
    listen: SocketAddr,
    peers: HashMap<HiveId, SocketAddr>,
) -> std::io::Result<(Box<dyn Transport>, SocketAddr, Arc<TransportCounters>)> {
    let t = ReactorTransport::bind(id, listen, peers)?;
    let addr = t.local_addr();
    let counters = t.counters();
    Ok((Box::new(t), addr, counters))
}
