#![warn(missing_docs)]

//! `beehive-core` — a distributed SDN control platform with a programming
//! abstraction that is almost identical to a centralized controller.
//!
//! This crate implements the system described in *"Beehive: Towards a Simple
//! Abstraction for Scalable Software-Defined Networking"* (HotNets-XIII,
//! 2014):
//!
//! * **Applications** ([`App`]) are sets of functions triggered by
//!   asynchronous [`Message`]s. Functions declare the state entries they
//!   need; state lives in transactional dictionaries.
//! * The platform infers each message's **mapped cells** and guarantees that
//!   messages with intersecting cells are processed by the same **bee** — an
//!   exclusive owner of those cells — wherever in the cluster it lives.
//! * **Hives** ([`Hive`]) are controller instances; the cell→bee registry is
//!   replicated across hives with Raft ([`beehive_raft`]).
//! * Bees **migrate** live between hives; the platform **instruments**
//!   applications at runtime, **optimizes placement** with a greedy
//!   heuristic ([`optimizer`]), and produces **design feedback**
//!   ([`feedback`]).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use beehive_core::prelude::*;
//! use serde::{Serialize, Deserialize};
//!
//! // 1. Define messages.
//! #[derive(Debug, Clone, Serialize, Deserialize)]
//! struct Seen { host: String }
//! beehive_core::impl_message!(Seen);
//!
//! // 2. Define an app: count sightings per host, one cell per host. `with`
//! //    declares the entry a message needs: `counts[m.host]`.
//! let counter = App::builder("counter")
//!     .with::<Seen>("Count", "counts", |m| m.host.clone(), |_m, ctx| {
//!         let n: u64 = ctx.entry()?.unwrap_or(0);
//!         ctx.put_entry(&(n + 1))?;
//!         Ok(())
//!     })
//!     .build();
//!
//! // 3. Run a standalone hive.
//! let mut hive = Hive::new(
//!     HiveConfig::standalone(HiveId(1)),
//!     Arc::new(SystemClock::new()),
//!     Box::new(Loopback::new(HiveId(1))),
//! );
//! hive.install(counter);
//! hive.emit(Seen { host: "h1".into() });
//! hive.emit(Seen { host: "h1".into() });
//! hive.step_until_quiescent(100);
//!
//! let (bee, _) = hive.local_bees("counter")[0];
//! assert_eq!(hive.peek_state::<u64>("counter", bee, "counts", "h1"), Some(2));
//! ```

pub mod analytics;
pub mod app;
pub mod cell;
pub mod channel;
pub mod clock;
pub mod control;
pub mod error;
pub mod events;
mod executor;
pub mod feedback;
pub mod hive;
pub mod id;
pub mod introspect;
pub mod lifecycle;
pub mod message;
pub mod metrics;
pub mod optimizer;
pub mod outbox;
pub mod platform;
pub mod queen;
pub mod registry;
pub mod replication;
pub mod state;
pub mod supervision;
pub mod sync;
mod tally;
pub mod trace;
pub mod transport;

pub use analytics::{Analytics, AppLoad, ProvenanceRow};
pub use app::{App, AppBuilder, HandlerResult, MapSpec, RcvCtx};
pub use beehive_raft::{FsyncPolicy, StorageError};
pub use cell::{Cell, Mapped};
pub use channel::{
    ChannelDelivery, ChannelFrame, ChannelStats, ChannelTuning, ChannelWork, ReliableChannels,
};
pub use clock::{Clock, SimClock, SystemClock};
pub use control::{ControlMsg, MembershipOp};
pub use error::{Error, Result};
pub use events::{Event, EventJournal, EventKind};
pub use hive::{DictDump, Hive, HiveConfig, HiveCounters, HiveHandle, QueuedMessages};
pub use id::{AppName, BeeId, HiveId, Name};
pub use introspect::{render_metrics, StatusContext, StatusServer};
pub use lifecycle::{Lifecycle, LifecycleStage};
pub use message::{cast, Dst, Envelope, Message, MessageRegistry, Source, TypedMessage};
pub use metrics::{
    BeeStats, BeeStatsSnapshot, HiveMetrics, Instrumentation, LatencyHistogram, MsgLatency,
    PlatformCounters, PlatformKind, PlatformRow, LATENCY_BUCKETS_US, PLATFORM_TABLE,
};
pub use outbox::{JournalEntry, Outbox, OutboxState};
pub use platform::{
    collector_app, exporter_app, optimizer_app, Tick, COLLECTOR_APP, EXPORTER_APP, OPTIMIZER_APP,
};
pub use queen::Delivery;
pub use registry::{RegistryCommand, RegistryEvent, RegistryOp, RegistryState};
pub use replication::{replicas_of, ShadowStore};
pub use state::{BeeState, Dict, JournalOp, Savepoint, SharedBytes, TxJournal, TxState};
pub use supervision::{backoff_delay_ms, DeadLetter, DeadLetterStore, FailureKind, HandlerFaults};
pub use trace::{chrome_trace, SpanRecord, TraceCollector, TraceContext, TraceHub, TraceSpan};
pub use transport::{
    Frame, FrameKind, Loopback, Transport, TransportCounters, TransportPreference,
    TransportSnapshot,
};

/// Common imports for application authors.
pub mod prelude {
    pub use crate::app::{App, HandlerResult, RcvCtx};
    pub use crate::cell::{Cell, Mapped};
    pub use crate::clock::{Clock, SimClock, SystemClock};
    pub use crate::hive::{Hive, HiveConfig, HiveHandle};
    pub use crate::id::{AppName, BeeId, HiveId};
    pub use crate::impl_message;
    pub use crate::message::{cast, Message, TypedMessage};
    pub use crate::platform::Tick;
    pub use crate::supervision::{DeadLetter, DeadLetterStore, FailureKind};
    pub use crate::transport::Loopback;
}
