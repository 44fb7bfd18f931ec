#![warn(missing_docs)]

//! `beehive-sim` — a discrete-virtual-time simulator for Beehive clusters.
//!
//! Reproduces the paper's evaluation environment: a cluster of hives on an
//! accounted in-memory fabric ([`beehive_net::MemFabric`]), emulated
//! OpenFlow switches attached to their master hives, tree topologies and
//! fixed-rate flow workloads. Everything runs deterministically against a
//! shared [`beehive_core::SimClock`].

pub mod chaos;
pub mod cluster;
pub mod fleet;
pub mod invariants;
pub mod topology;
pub mod workload;

pub use chaos::{
    chaos_app, minimize, run, run_seed, sweep, ChaosConfig, ChaosOp, FailureRepro, FaultKind,
    FaultSchedule, FaultWindow, RunReport, SweepOutcome, CHAOS_APP,
};
pub use cluster::{ClusterConfig, SimCluster};
pub use fleet::SwitchFleet;
pub use invariants::{
    check_all, check_atomicity, check_conservation, check_ownership, check_registry_agreement,
    check_snapshots, check_traces, gather, ClusterAudit, CrashLedger, Digest, HiveAudit, Shipments,
    Violation,
};
pub use topology::{Level, Link, SwitchNode, Topology};
pub use workload::{generate_flows, FlowSpec, WorkloadConfig};
