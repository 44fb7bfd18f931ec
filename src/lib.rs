#![warn(missing_docs)]

//! **Beehive** — a distributed SDN control platform with a programming
//! abstraction that is almost identical to a centralized controller.
//!
//! This is the facade crate: it re-exports the whole workspace so examples
//! and downstream users can depend on a single crate.
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`core`] | `beehive-core` | The platform: apps, bees, hives, registry, migration, instrumentation, optimizer, feedback |
//! | [`wire`] | `beehive-wire` | The binary serde format used on the wire and in snapshots |
//! | [`raft`] | `beehive-raft` | Raft consensus (registry replication) |
//! | [`net`] | `beehive-net` | Transports: accounted in-memory fabric + TCP |
//! | [`openflow`] | `beehive-openflow` | OpenFlow 1.0 codec, switch model, driver app |
//! | [`sim`] | `beehive-sim` | Virtual-time cluster/network simulator |
//! | [`apps`] | `beehive-apps` | TE, discovery, learning switch, routing, NIB, vnet, Kandoo |
//!
//! [`figure4`] is the evaluation harness regenerating the paper's Figure 4
//! (driven by the `figure4` binary).
//!
//! See the repository README for a quick start, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-reproduction results.

pub use beehive_apps as apps;
pub use beehive_core as core;
pub use beehive_net as net;
pub use beehive_openflow as openflow;
pub use beehive_raft as raft;
pub use beehive_sim as sim;
pub use beehive_wire as wire;

pub mod figure4;

/// Convenient prelude: everything an application author typically needs.
pub mod prelude {
    pub use beehive_core::prelude::*;
}
