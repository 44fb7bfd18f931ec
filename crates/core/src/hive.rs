//! The hive: one Beehive controller instance.
//!
//! A hive hosts installed applications' bees, routes messages by mapped
//! cells through the replicated registry, relays messages to remote hives,
//! executes the live-migration and colony-merge protocols, and drives the
//! registry Raft group.
//!
//! The hive is **sans-IO by construction**: all work happens inside
//! [`Hive::step`], time comes from a [`Clock`], and frames move through a
//! [`Transport`]. The simulator calls `step` in virtual time; production
//! deployments call [`Hive::run`] on a thread.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use crate::app::App;
use crate::cell::{Cell, Mapped};
use crate::channel::{ChannelDelivery, ChannelTuning, ReliableChannels};
use crate::clock::Clock;
use crate::control::{ControlMsg, MembershipOp};
use crate::events::{EventJournal, EventKind, EVENT_CAPACITY};
use crate::executor::{run_message, Effects, Parker, Remap, RunEnv};
use crate::id::{AppName, BeeId, HiveId};
use crate::lifecycle::{Lifecycle, LifecycleStage};
use crate::message::{Dst, Envelope, Message, MessageRegistry, WireEnvelope};
use crate::metrics::{Instrumentation, PlatformCounters};
use crate::optimizer::{plan_migrations, BeeLoad, OptimizerConfig};
use crate::platform::Tick;
use crate::queen::{Applied, BeeStatus, Delivery, Outcome, Queen, Shipment};
use crate::registry::{RegistryCommand, RegistryEvent, RegistryOp, RegistryState};
use crate::replication::{replicas_of, ApplyOutcome, ShadowStore};
use crate::state::BeeState;
use crate::supervision::{
    DeadLetter, DeadLetterStore, FailureKind, HandlerFaults, DEAD_LETTER_CAPACITY,
    QUARANTINE_COOLDOWN_MS,
};
use crate::sync::Mutex;
use crate::trace::{TraceCollector, TraceHub, TRACE_CAPACITY};
use crate::transport::{Frame, FrameKind, Transport};
use beehive_raft::{ConfChange, ConfChangeKind};

/// How long a cross-hive trace query waits for stragglers before the hub
/// delivers whatever arrived (assembly is best-effort: an unreachable hive
/// must not wedge introspection).
const TRACE_QUERY_TIMEOUT_MS: u64 = 2_000;

/// How many unanswered `RemoveRequest` retries a drained hive tolerates
/// before assuming its removal committed and departing anyway. A removed
/// node stops being replicated to, so the final ack is the only signal it
/// gets — and that ack can be lost (the classic removed-server blind spot).
const MAX_REMOVE_ATTEMPTS: u32 = 8;

/// Maximum units of work per [`Hive::step`] call. A step that reaches it
/// returns and leaves the rest queued for the next call, so one flood of
/// messages cannot starve the timers and I/O the step loop also serves.
pub const STEP_BUDGET: usize = 100_000;

/// How many milliseconds one registry Raft tick lasts.
pub const RAFT_TICK_MS: u64 = 50;

/// How long a message for a bee the registry doesn't know yet is retried
/// before it is dropped.
pub const ORPHAN_TTL_MS: u64 = 10_000;

/// Configuration of a hive.
#[derive(Clone)]
pub struct HiveConfig {
    /// This hive's id. Must be unique in the cluster.
    pub id: HiveId,
    /// All hives in the cluster (including this one). Leave it at just `id`
    /// for a standalone hive.
    pub all_hives: Vec<HiveId>,
    /// The subset of hives that vote in the registry Raft group at boot; the
    /// rest follow as learners, and committed membership changes move them
    /// from there. Never empty: a standalone hive is a group of one.
    pub registry_voters: Vec<HiveId>,
    /// The registry snapshot interval: how many applied entries may
    /// accumulate past the last snapshot before the registry state machine
    /// is serialized and the Raft log compacted behind it; peers and joining
    /// learners below the compaction horizon catch up via `InstallSnapshot`.
    /// The group's other Raft tunables are [`beehive_raft::Config`]'s
    /// defaults, counted in ticks of [`RAFT_TICK_MS`].
    pub registry_snapshot_threshold: u64,
    /// Period of the platform [`Tick`] message (the paper's `TimeOut`),
    /// 0 disables ticks.
    pub tick_interval_ms: u64,
    /// Registry proposals unanswered for this long are resubmitted.
    pub pending_retry_ms: u64,
    /// Colony replication factor: 1 disables replication; `r > 1` ships
    /// every committed transaction to `r - 1` shadow hives (see
    /// [`crate::replication`]).
    pub replication_factor: usize,
    /// Directory for durable registry-Raft state (term, vote, log,
    /// snapshots). `None` keeps it in memory — fine for simulations; set it
    /// in production so a restarted hive rejoins with its Raft state intact.
    pub registry_storage_dir: Option<std::path::PathBuf>,
    /// Fsync policy for the durable files under `registry_storage_dir`:
    /// the registry storage and the channel's outbox journal.
    /// [`FsyncPolicy::Always`] (the default) syncs before every atomic
    /// rename — the Raft correctness requirement. [`FsyncPolicy::Never`]
    /// skips the sync for benches and tests: crash-atomic, but a power loss
    /// can lose acknowledged writes.
    ///
    /// [`FsyncPolicy::Always`]: beehive_raft::FsyncPolicy::Always
    /// [`FsyncPolicy::Never`]: beehive_raft::FsyncPolicy::Never
    pub fsync: beehive_raft::FsyncPolicy,
    /// Must be 1: every handler runs on the hive thread, one message per
    /// run-queue turn (see `DESIGN.md`, "Execution model"). [`Hive::new`]
    /// asserts it. The field stays only because the frozen benchmark
    /// harness assigns it; the benchmark change that re-freezes the harness
    /// (ROADMAP 16) deletes the field together with that line.
    pub workers: usize,
    /// How many times a message whose handler failed (`Err` or panic) is
    /// redelivered before it is dead-lettered. 0 dead-letters on the first
    /// failure; the total attempts for a poisoned message is
    /// `max_redeliveries + 1`.
    pub max_redeliveries: u32,
    /// Base delay of the redelivery exponential backoff: attempt `n` waits
    /// [`crate::supervision::backoff_delay_ms`]`(base, n, bee)` — exponential
    /// in the attempt (capped at 64×base) plus a deterministic jitter derived
    /// from the bee id, so the schedule is reproducible across runs.
    pub redelivery_backoff_ms: u64,
    /// Consecutive handler failures on one bee that trip its quarantine
    /// circuit breaker. 0 disables quarantine.
    pub quarantine_threshold: u32,
    /// Per-bee mailbox bound. 0 (the default) is unbounded; otherwise a full
    /// mailbox rejects the incoming message to the dead-letter queue and
    /// keeps its backlog.
    pub mailbox_capacity: usize,
    /// Seed mixed into this hive's internal randomness (today: the registry
    /// Raft election jitter). Two clusters built with the same ids and the
    /// same seeds make identical random choices — the hook deterministic
    /// simulation ([`beehive-sim`'s chaos harness]) relies on.
    pub rng_seed: u64,
    /// Base retransmission timeout of the reliable channel layer
    /// ([`crate::channel`]): an unacked application frame is re-sent after
    /// this delay, backed off exponentially per attempt with deterministic
    /// jitter (same shape as [`HiveConfig::redelivery_backoff_ms`]).
    pub channel_resend_ms: u64,
}

impl HiveConfig {
    /// A standalone hive: the only voter of its registry group.
    pub fn standalone(id: HiveId) -> Self {
        HiveConfig {
            id,
            all_hives: vec![id],
            registry_voters: vec![id],
            registry_snapshot_threshold: beehive_raft::Config::default().snapshot_threshold,
            tick_interval_ms: 1000,
            pending_retry_ms: 2_000,
            replication_factor: 1,
            registry_storage_dir: None,
            fsync: beehive_raft::FsyncPolicy::Always,
            workers: 1,
            max_redeliveries: 3,
            redelivery_backoff_ms: 100,
            quarantine_threshold: 10,
            mailbox_capacity: 0,
            rng_seed: 0,
            channel_resend_ms: 200,
        }
    }

    /// A clustered configuration: `id` among `all_hives`, with the first
    /// `voters` hives forming the registry quorum.
    pub fn clustered(id: HiveId, all_hives: Vec<HiveId>, voters: usize) -> Self {
        let mut voters_list: Vec<HiveId> = all_hives.iter().copied().take(voters.max(1)).collect();
        voters_list.sort();
        HiveConfig {
            registry_voters: voters_list,
            all_hives,
            ..HiveConfig::standalone(id)
        }
    }
}

/// Diagnostic counters exposed for tests, feedback and operations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HiveCounters {
    /// Frames whose payload failed to decode.
    pub decode_errors: u64,
    /// Direct-addressed messages dropped because the bee is unknown and the
    /// orphan TTL expired.
    pub dropped_orphans: u64,
    /// Direct-addressed messages dropped because the handler was ambiguous.
    pub dropped_ambiguous: u64,
    /// Keys a colony merge found in both the winner's and a loser's state:
    /// 0 unless a bee touched cells outside its colony (a broken invariant).
    pub merge_collisions: u64,
    /// Messages re-mapped, each also an [`EventKind::Remap`] event, because
    /// their handler touched a cell outside its bee's colony. Not failures.
    pub remaps: u64,
    /// Migrations whose state arrived and activated here.
    pub migrations_in: u64,
    /// Colony merges this hive participated in.
    pub merges: u64,
    /// Handler invocations that returned an error.
    pub handler_errors: u64,
    /// Handler invocations that panicked (contained at the bee boundary;
    /// also counted in `handler_errors`).
    pub handler_panics: u64,
    /// Failed messages re-queued for a supervised redelivery attempt.
    pub redeliveries: u64,
    /// Messages recorded in the dead-letter queue (all failure kinds).
    pub dead_letters: u64,
    /// Times a bee's quarantine circuit breaker opened (or re-armed after a
    /// failed half-open probe).
    pub quarantines: u64,
    /// Transactions replicated to shadow hives.
    pub replicated_txs: u64,
    /// Bees recovered from local shadows after a hive failure.
    pub failovers: u64,
    /// Handler invocations that completed successfully (committed their
    /// transaction). Together with `dead_letters`, `dropped_orphans` and the
    /// in-flight queues this makes external emits conserved — the chaos
    /// harness audits exactly that.
    pub handled_ok: u64,
    /// Direct-addressed messages silently lost because the addressed bee no
    /// longer exists on this hive ([`Delivery::NoBee`]).
    pub lost_no_bee: u64,
    /// State shipments sequenced on the reliable channel. The channel's
    /// `sent`/`delivered`/`expired` count these too; the chaos conservation
    /// audit takes them out, since a shipment is not a message.
    pub shipments_sent: u64,
    /// State shipments the reliable channel delivered here.
    pub shipments_delivered: u64,
    /// Unacked state shipments abandoned because their peer departed.
    pub shipments_expired: u64,
}

/// A bee's dictionaries as [`Hive::audit_dicts`] dumps them: dict name →
/// `(key, encoded value)` pairs, both in sorted order.
pub type DictDump = Vec<(String, Vec<(String, Vec<u8>)>)>;

/// A handle for injecting messages into a hive from other threads (drivers,
/// IO loops, tests).
#[derive(Clone)]
pub struct HiveHandle {
    id: HiveId,
    tx: Sender<Envelope>,
    parker: Arc<Parker>,
}

impl HiveHandle {
    /// The hive this handle feeds.
    pub fn hive(&self) -> HiveId {
        self.id
    }

    /// Emits a message into the hive as external input.
    pub fn emit<M: Message>(&self, msg: M) {
        let _ = self.tx.send(Envelope::external(self.id, Arc::new(msg)));
        self.parker.unpark();
    }

    /// Injects a fully formed envelope.
    pub fn send(&self, env: Envelope) {
        let _ = self.tx.send(env);
        self.parker.unpark();
    }

    /// Wakes the hive's run loop without sending a message. Used by the
    /// status server after queueing work on a side channel the hive polls
    /// in its step (e.g. a [`crate::trace::TraceHub`] query).
    pub fn nudge(&self) {
        self.parker.unpark();
    }
}

/// Where a hive's queued messages sit ([`Hive::queued_messages`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueuedMessages {
    /// Accepted, not yet routed.
    pub dispatch: u64,
    /// Addressed to a bee this hive does not (yet) host.
    pub orphans: u64,
    /// Failed once, waiting for redelivery.
    pub retry: u64,
    /// Waiting for a registry proposal to name their owner.
    pub pending_routes: u64,
    /// In a bee's mailbox.
    pub mailboxes: u64,
}

impl QueuedMessages {
    /// All of them.
    pub fn total(&self) -> u64 {
        self.dispatch + self.orphans + self.retry + self.pending_routes + self.mailboxes
    }
}

impl std::fmt::Display for QueuedMessages {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dispatch={} orphans={} retry={} pending_routes={} mailboxes={}",
            self.dispatch, self.orphans, self.retry, self.pending_routes, self.mailboxes
        )
    }
}

/// A registry command this hive proposed and has not yet seen applied;
/// resubmitted on the retry timer so a leaderless window can't strand it.
struct Pending {
    cmd: RegistryCommand,
    submitted_ms: u64,
    /// The mail a `LookupOrCreate` holds until it names the owning bee.
    waiting: Vec<(u16, Envelope)>,
}

impl Pending {
    /// The app and cells of a `LookupOrCreate`; `None` for other ops.
    fn route(&self) -> Option<(&str, &[Cell])> {
        match &self.cmd.op {
            RegistryOp::LookupOrCreate { app, cells, .. } => Some((app, cells)),
            _ => None,
        }
    }
}

/// What an apply says about one bee beyond where the mirror now places
/// it, for [`Hive::reconcile`].
#[derive(Default)]
struct Touch {
    /// An entry routed a message to the bee: hosted here, it is
    /// materialized at once.
    routed: bool,
    /// Bees whose state the apply sent toward this hive from another one:
    /// the bee itself when it moved here, losers when it absorbed them.
    /// Hosted here, the bee waits for each that has not arrived.
    inbound: Vec<BeeId>,
}

/// One Beehive controller.
pub struct Hive {
    cfg: HiveConfig,
    clock: Arc<dyn Clock>,
    transport: Box<dyn Transport>,
    apps: Vec<App>,
    app_idx: HashMap<AppName, usize>,
    msg_registry: MessageRegistry,
    queens: Vec<Queen>,
    registry: Box<beehive_raft::RaftNode<RegistryState>>,
    instr: Arc<Mutex<Instrumentation>>,
    tracer: Arc<TraceCollector>,
    counters: HiveCounters,
    next_bee_seq: u32,
    next_cmd_seq: u64,
    /// This hive's unapplied registry commands by seq: proposal order, so
    /// also the order they are retried in and their mail is released in.
    pending: BTreeMap<u64, Pending>,
    orphans: VecDeque<(Envelope, u64)>,
    dispatch_queue: VecDeque<Envelope>,
    run_queue: VecDeque<(usize, BeeId)>,
    handle_tx: Sender<Envelope>,
    handle_rx: Receiver<Envelope>,
    last_raft_tick_ms: u64,
    last_app_tick_ms: u64,
    tick_seq: u64,
    /// Number of registry events applied locally (identical across hives
    /// for the same committed prefix — the relay fence).
    applied_seq: u64,
    /// Shadow copies of remote bees this hive replicates (colony replication).
    shadows: ShadowStore,
    /// Bees being recovered from local shadows (failover in progress).
    recovering: BTreeSet<(AppName, BeeId)>,
    /// Dead-letter queue: messages that exhausted their redelivery budget
    /// or were rejected by quarantine / mailbox bounds.
    dead_letters: Arc<DeadLetterStore>,
    /// Shared handler-fault injection table (tests / chaos runs), consulted
    /// before each handler invocation.
    faults: Arc<HandlerFaults>,
    /// Failed messages awaiting their backoff-delayed redelivery:
    /// `(envelope, due ms)`. The envelope's `dst` is already re-aimed at the
    /// exact bee + handler that failed.
    retry_queue: VecDeque<(Envelope, u64)>,
    /// Quarantined bees and when their cooldown expires; expired entries are
    /// pushed back to the run queue for the half-open probe.
    quarantine_timers: Vec<(usize, BeeId, u64)>,
    /// Last ms an undecodable-payload warning was logged per peer
    /// (rate-limits the log, not the counter).
    decode_error_logged: HashMap<HiveId, u64>,
    /// Reliable channel layer toward peers: per-peer sequencing, cumulative
    /// acks, retransmission and receiver dedup, journaled to the storage dir
    /// when one is configured (see [`crate::channel`]).
    channels: ReliableChannels,
    /// The platform reading last published into `instr` (see
    /// [`Hive::platform_reading`]): the store is locked only when it moved.
    published: PlatformCounters,
    /// Frames of every kind sent since the last [`Hive::flush_io`], in send
    /// order; the transport receives them in one [`Transport::send_all`].
    frames_out: Vec<(HiveId, Frame)>,
    /// What the last run asked for, emptied by `apply_effects`: its
    /// buffers serve the next run, so a run allocates none of its own.
    effects: Effects,
    /// Parker for [`Hive::run`]'s idle wait, shared with every
    /// [`HiveHandle`] and handed to the transport as its waker.
    parker: Arc<Parker>,
    /// Flight-recorder journal of lifecycle events, shared with the queens,
    /// channels, shadows and the transport (see [`crate::events`]).
    events: Arc<EventJournal>,
    /// Cross-hive trace assembly hub: outside callers submit trace ids, the
    /// step loop broadcasts [`ControlMsg::TraceQuery`] and feeds replies
    /// back (see [`crate::trace::TraceHub`]).
    trace_hub: Arc<TraceHub>,
    /// In-flight trace queries and their expiry deadlines `(query_id, due)`.
    trace_query_deadlines: Vec<(u64, u64)>,
    /// Last observed registry Raft term/leader, for change events.
    last_raft_term: u64,
    last_raft_leader: Option<u64>,
    /// Registry snapshots installed as of the last apply: one more means
    /// the mirror was replaced wholesale (see [`Hive::reconcile_snapshot`]).
    last_snapshot_installs: u64,
    /// The mirror as it stood before an `InstallSnapshot` replaced it, kept
    /// until the next apply compares the two.
    before_install: Option<RegistryState>,
    /// Shared membership-lifecycle cell: written by the step loop, read by
    /// the status server (`/healthz`) and signal handlers (see
    /// [`crate::lifecycle`]).
    lifecycle: Arc<Lifecycle>,
    /// The membership request currently pushed toward the registry leader:
    /// `(op, last sent ms, attempts)`. Re-sent on the pending-retry timer
    /// until the matching conf change (or the leader's `Departed` ack) is
    /// observed.
    pending_membership: Option<(MembershipOp, u64, u32)>,
    /// Peers that announced they are draining: never a migration target.
    draining_peers: HashSet<HiveId>,
    /// This hive's advertised transport address, carried on join requests
    /// so peers learn how to reach it (empty for simulated fabrics).
    advertise_addr: String,
    /// Last ms a draining leader (re-)issued its leadership transfer.
    last_transfer_ms: u64,
}

/// Whether `node` is the only member of its registry group: its sole voter,
/// with no learners to replicate to.
fn is_lone_voter(node: &beehive_raft::RaftNode<RegistryState>) -> bool {
    node.voters() == [node.id()] && node.learners().is_empty()
}

impl Hive {
    /// Creates a hive. Install applications with [`Hive::install`] before
    /// stepping.
    pub fn new(cfg: HiveConfig, clock: Arc<dyn Clock>, mut transport: Box<dyn Transport>) -> Self {
        assert_eq!(
            cfg.id,
            transport.local(),
            "transport endpoint must match hive id"
        );
        assert!(
            !cfg.registry_voters.is_empty(),
            "registry_voters must name at least one hive"
        );
        assert_eq!(
            cfg.workers, 1,
            "workers must be 1: handlers run on the hive thread"
        );
        // The flight recorder comes up first so durable-storage faults found
        // while restoring state land in the journal before the hive halts.
        let events = Arc::new(EventJournal::new(cfg.id, EVENT_CAPACITY, clock.clone()));
        let storage_fatal = |events: &EventJournal, detail: String| -> ! {
            events.record(EventKind::StorageFault, detail.clone());
            panic!("hive {}: fatal storage fault: {detail}", cfg.id.0);
        };
        let me = cfg.id.as_raft();
        let voters: Vec<u64> = cfg.registry_voters.iter().map(|h| h.as_raft()).collect();
        let learners: Vec<u64> = cfg
            .all_hives
            .iter()
            .map(|h| h.as_raft())
            .filter(|id| !voters.contains(id))
            .collect();
        let defaults = beehive_raft::Config::default();
        let raft_cfg = beehive_raft::Config {
            rng_seed: defaults.rng_seed
                ^ me.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ cfg.rng_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            snapshot_threshold: cfg.registry_snapshot_threshold,
            ..defaults
        };
        let storage: Box<dyn beehive_raft::Storage> = match &cfg.registry_storage_dir {
            Some(dir) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    storage_fatal(
                        &events,
                        format!("create registry storage dir {}: {e}", dir.display()),
                    );
                }
                let path = dir.join(format!("hive-{}.raft", cfg.id.0));
                match beehive_raft::FileStorage::open_with(&path, cfg.fsync) {
                    Ok(s) => Box::new(s),
                    Err(e) => storage_fatal(
                        &events,
                        format!("open registry storage {}: {e}", path.display()),
                    ),
                }
            }
            None => Box::new(beehive_raft::SharedMemStorage::new()),
        };
        let mut registry = Box::new(if voters.contains(&me) {
            let peers: Vec<u64> = voters.iter().copied().filter(|&v| v != me).collect();
            beehive_raft::RaftNode::with_membership(
                me,
                peers,
                learners,
                false,
                raft_cfg,
                RegistryState::new(),
                storage,
            )
        } else {
            beehive_raft::RaftNode::new_learner(me, voters, raft_cfg, RegistryState::new(), storage)
        });
        // A group of one elects itself at once: every proposal then commits
        // and applies inside `propose`, and a restarted node replays its log.
        if is_lone_voter(&registry) {
            registry.campaign();
        }
        if let Some(e) = registry.storage_fault() {
            storage_fatal(&events, format!("registry state unusable at boot: {e}"));
        }
        let tracer = Arc::new(TraceCollector::new(TRACE_CAPACITY));
        let dead_letters = Arc::new(DeadLetterStore::new(DEAD_LETTER_CAPACITY));
        transport.set_events(events.clone());
        let mut channels = ReliableChannels::with_fsync(
            cfg.id,
            ChannelTuning {
                resend_ms: cfg.channel_resend_ms,
                ..ChannelTuning::default()
            },
            cfg.registry_storage_dir.as_deref(),
            clock.now_ms(),
            cfg.fsync,
        );
        channels.set_events(events.clone());
        if let Some(detail) = channels.storage_fault() {
            storage_fatal(
                &events,
                format!("outbox journal unusable at boot: {detail}"),
            );
        }
        let mut shadows = ShadowStore::new();
        shadows.set_events(events.clone());
        let (handle_tx, handle_rx) = channel();
        let mut msg_registry = MessageRegistry::new();
        msg_registry.register::<Tick>();
        msg_registry.register::<crate::metrics::HiveMetrics>();
        let mut hive = Hive {
            cfg,
            clock,
            transport,
            apps: Vec::new(),
            app_idx: HashMap::new(),
            msg_registry,
            queens: Vec::new(),
            registry,
            tracer,
            instr: Arc::new(Mutex::new(Instrumentation::default())),
            counters: HiveCounters::default(),
            next_bee_seq: 1,
            next_cmd_seq: 1,
            pending: BTreeMap::new(),
            orphans: VecDeque::new(),
            dispatch_queue: VecDeque::new(),
            run_queue: VecDeque::new(),
            handle_tx,
            handle_rx,
            last_raft_tick_ms: 0,
            last_app_tick_ms: 0,
            tick_seq: 0,
            applied_seq: 0,
            shadows,
            recovering: BTreeSet::new(),
            dead_letters,
            faults: Arc::new(HandlerFaults::new()),
            retry_queue: VecDeque::new(),
            quarantine_timers: Vec::new(),
            decode_error_logged: HashMap::new(),
            channels,
            published: PlatformCounters::default(),
            frames_out: Vec::new(),
            effects: Effects::default(),
            parker: Arc::new(Parker::new()),
            events,
            trace_hub: Arc::new(TraceHub::new()),
            trace_query_deadlines: Vec::new(),
            last_raft_term: 0,
            last_raft_leader: None,
            last_snapshot_installs: 0,
            before_install: None,
            lifecycle: Arc::new(Lifecycle::default()),
            pending_membership: None,
            draining_peers: HashSet::new(),
            advertise_addr: String::new(),
            last_transfer_ms: 0,
        };
        // Trace-hub waits measure against the hive's own clock (virtual in
        // simulation), with the wall clock only as a safety net.
        hive.trace_hub.set_clock(hive.clock.clone());
        // Restored durable state: start the fence at the applied point, and
        // the term/leader watermarks at the booted values so the journal only
        // records genuine changes from here on.
        let node = &hive.registry;
        hive.applied_seq = node.last_applied();
        hive.last_raft_term = node.term();
        hive.last_raft_leader = node.leader_hint();
        hive.last_snapshot_installs = node.snapshots_installed();
        hive
    }

    /// This hive's id.
    pub fn id(&self) -> HiveId {
        self.cfg.id
    }

    /// Installs an application. All hives in a cluster must install the same
    /// applications (the platform replicates *functions* everywhere; only
    /// state placement differs).
    pub fn install(&mut self, app: App) {
        assert!(
            !self.app_idx.contains_key(app.name().as_str()),
            "app {:?} installed twice",
            app.name()
        );
        app.register_messages(&mut self.msg_registry);
        self.app_idx.insert(app.name().to_string(), self.apps.len());
        let mut queen = Queen::new(app.name().to_string());
        queen.set_events(self.events.clone());
        self.queens.push(queen);
        self.apps.push(app);
    }

    /// A cloneable handle for injecting external messages.
    pub fn handle(&self) -> HiveHandle {
        HiveHandle {
            id: self.cfg.id,
            tx: self.handle_tx.clone(),
            parker: self.parker.clone(),
        }
    }

    /// Emits a message as external input (convenience for tests/drivers).
    pub fn emit<M: Message>(&mut self, msg: M) {
        self.dispatch_queue
            .push_back(Envelope::external(self.cfg.id, Arc::new(msg)));
    }

    /// Shared instrumentation store (used by the collector platform app).
    pub fn instrumentation(&self) -> Arc<Mutex<Instrumentation>> {
        self.instr.clone()
    }

    /// This hive's causal-trace span collector.
    pub fn tracer(&self) -> Arc<TraceCollector> {
        self.tracer.clone()
    }

    /// This hive's flight-recorder event journal.
    pub fn events(&self) -> Arc<EventJournal> {
        self.events.clone()
    }

    /// The cross-hive trace assembly hub. Submit a trace id, wake the hive
    /// ([`HiveHandle::nudge`]), and wait: the step loop pulls the trace's
    /// spans from every reachable hive and completes the query.
    pub fn trace_hub(&self) -> Arc<TraceHub> {
        self.trace_hub.clone()
    }

    /// The shared membership-lifecycle cell (also handed to
    /// [`crate::introspect::StatusContext`] so `/healthz` reports the stage,
    /// and polled by signal handlers driving a drain).
    pub fn lifecycle(&self) -> Arc<Lifecycle> {
        self.lifecycle.clone()
    }

    /// Peers that announced they are draining (sorted; never a migration
    /// target until their removal commits).
    pub fn draining_peers(&self) -> Vec<HiveId> {
        let mut v: Vec<HiveId> = self.draining_peers.iter().copied().collect();
        v.sort();
        v
    }

    /// Starts the elastic-join lifecycle. Call once after construction on a
    /// hive booted with `--join` into an existing cluster: its registry node
    /// runs as a learner, and the step loop pushes a
    /// [`MembershipOp::JoinRequest`] toward the leader until the
    /// `AddLearner` conf change commits, then requests promotion to voter
    /// once the learner has applied the whole committed log.
    /// `advertise_addr` is this hive's transport address, carried on the
    /// join request so every peer can connect back (empty for simulated
    /// fabrics).
    pub fn begin_join(&mut self, advertise_addr: &str) {
        self.advertise_addr = advertise_addr.to_string();
        self.lifecycle.set(LifecycleStage::Joining);
        self.pending_membership = Some((MembershipOp::JoinRequest, 0, 0));
        self.events.record(
            EventKind::MembershipChange,
            "join requested: booting as a registry learner".to_string(),
        );
    }

    /// Starts the graceful scale-in lifecycle: marks the hive draining (so
    /// `/healthz` reports it and peers stop placing bees here), then the
    /// step loop evacuates every registry-owned bee onto survivors over the
    /// live-migration path, waits for the channel outbox to be fully acked,
    /// hands off registry leadership if held, demotes voter → learner →
    /// removed, and finally moves the lifecycle to
    /// [`LifecycleStage::Departed`] ([`Hive::run_elastic`] then returns).
    /// A lone voter with no learner has no survivor: it keeps its bees, and
    /// their cells stay in its durable registry.
    pub fn begin_drain(&mut self) {
        if self.lifecycle.is_leaving() {
            return;
        }
        self.lifecycle.set(LifecycleStage::Draining);
        self.events.record(
            EventKind::MembershipChange,
            "drain requested: evacuating bees and flushing channels".to_string(),
        );
        let peers: Vec<HiveId> = self
            .cfg
            .all_hives
            .iter()
            .copied()
            .filter(|&h| h != self.cfg.id)
            .collect();
        for peer in peers {
            self.send_control(
                peer,
                &ControlMsg::MembershipChange {
                    node: self.cfg.id,
                    addr: String::new(),
                    op: MembershipOp::Draining,
                },
            );
        }
        // Unpin registry-owned bees so the evacuation migrations are not
        // refused (per-hive singletons own no cells and die with the
        // process).
        for queen in &mut self.queens {
            for id in queen.bee_ids() {
                if queen.bee(id).is_some_and(|b| !b.colony.is_empty()) {
                    queen.unpin(id);
                }
            }
        }
        self.flush_io();
    }

    /// This hive's dead-letter queue.
    pub fn dead_letters(&self) -> Arc<DeadLetterStore> {
        self.dead_letters.clone()
    }

    /// Drains the dead-letter queue back into dispatch with a fresh
    /// redelivery budget (operator "requeue" after fixing the fault).
    /// Returns the number of messages requeued.
    pub fn requeue_dead_letters(&mut self) -> usize {
        let letters = self.dead_letters.drain();
        let n = letters.len();
        for letter in letters {
            let mut env = letter.envelope;
            env.deliveries = 0;
            self.dispatch_queue.push_back(env);
        }
        n
    }

    /// Arms an injected handler fault: the next `times` deliveries of
    /// `msg_type` (wire-name suffix match) to `app` fail as if the handler
    /// returned `Err`. Test/chaos API — exercises the whole supervision
    /// path (redelivery, dead-lettering, quarantine) without a special app.
    pub fn inject_handler_fault(&mut self, app: &str, msg_type: &str, times: u32) {
        self.faults.fail(app, msg_type, times);
    }

    /// The shared handler-fault table (drivers can arm faults from other
    /// threads; every handler run consults it).
    pub fn handler_faults(&self) -> Arc<HandlerFaults> {
        self.faults.clone()
    }

    /// Diagnostic counters.
    pub fn counters(&self) -> &HiveCounters {
        &self.counters
    }

    /// Read-only view of the registry mirror: the local applied state (on a
    /// follower it may lag the leader slightly).
    pub fn registry_view(&self) -> &RegistryState {
        self.registry.state_machine()
    }

    /// Whether this hive currently leads the registry group (a standalone
    /// hive, the group's only voter, leads from construction on).
    pub fn is_registry_leader(&self) -> bool {
        self.registry.is_leader()
    }

    /// Index the registry log has been compacted through (0 before the first
    /// snapshot).
    pub fn registry_snapshot_index(&self) -> u64 {
        self.registry.snapshot_index()
    }

    /// Number of snapshots this hive has had installed by a peer (catch-up
    /// below the compaction horizon).
    pub fn registry_snapshot_installs(&self) -> u64 {
        self.registry.snapshots_installed()
    }

    /// Torn tail records truncated off the outbox journal when this
    /// incarnation booted — nonzero means the previous process died
    /// mid-append and recovery discarded the half-written record.
    pub fn journal_torn_truncations(&self) -> u64 {
        self.channels.torn_truncations()
    }

    /// The installed applications.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// Number of local bees of `app`.
    pub fn local_bee_count(&self, app: &str) -> usize {
        self.app_idx
            .get(app)
            .map(|&i| self.queens[i].len())
            .unwrap_or(0)
    }

    /// All local bees of `app` with their colony sizes.
    pub fn local_bees(&self, app: &str) -> Vec<(BeeId, usize)> {
        let Some(&i) = self.app_idx.get(app) else {
            return Vec::new();
        };
        let bees = self.queens[i].bees();
        bees.map(|b| (b.id, b.colony.len())).collect()
    }

    /// Local bees of `app` holding mail, with their status and mailbox
    /// length, in id order (what a stalled drain is waiting on).
    pub fn mail_holders(&self, app: &str) -> Vec<(BeeId, BeeStatus, usize)> {
        let Some(&i) = self.app_idx.get(app) else {
            return Vec::new();
        };
        let holders = self.queens[i].bees().filter(|b| !b.mailbox.is_empty());
        holders
            .map(|b| (b.id, b.status.clone(), b.mailbox.len()))
            .collect()
    }

    /// Reads a value from a local bee's state (test/inspection API).
    pub fn peek_state<T: serde::de::DeserializeOwned>(
        &self,
        app: &str,
        bee: BeeId,
        dict: &str,
        key: &str,
    ) -> Option<T> {
        let &i = self.app_idx.get(app)?;
        let lb = self.queens[i].bee(bee)?;
        lb.state.dict(dict)?.get(key).ok().flatten()
    }

    /// Pre-claims cells for `app` on this hive (used by evaluations to
    /// reproduce the paper's "artificially assign the cells of all switches
    /// to the bees on the first hive").
    pub fn preclaim(&mut self, app: &str, cells: Vec<Cell>) {
        let Some(&app_idx) = self.app_idx.get(app) else {
            return;
        };
        let canonical = Mapped::Cells(cells).canonicalize(|d| self.apps[app_idx].is_monolithic(d));
        let Mapped::Cells(cells) = canonical else {
            return;
        };
        self.route_cells(app_idx, None, cells, None);
        self.flush_io();
    }

    /// Requests a live migration of `bee` (of `app`, currently on `from`)
    /// to hive `to`.
    pub fn request_migration(&mut self, app: &str, bee: BeeId, from: HiveId, to: HiveId) {
        let msg = ControlMsg::RequestMigration {
            app: app.to_string(),
            bee,
            to,
        };
        if from == self.cfg.id {
            self.handle_control(self.cfg.id, msg);
        } else {
            self.send_control(from, &msg);
        }
        self.flush_io();
    }

    /// Fails over every bee this hive shadows whose registry record still
    /// points at `dead`: proposes `MoveBee(bee → self)` and, once the move
    /// commits, promotes the local shadow to the live bee. Failure detection
    /// is the deployment's job; call this once the registry group has a live
    /// leader again. Returns the number of recoveries initiated.
    pub fn recover_from(&mut self, dead: HiveId) -> usize {
        let mut candidates: Vec<(AppName, BeeId, bool)> = self
            .shadows
            .keys()
            .filter(|(_, bee)| self.registry_view().hive_of(*bee) == Some(dead))
            .map(|(a, b)| (a.clone(), b, true))
            .collect();
        // A migration parked here whose source died before the MoveBee
        // committed is also recoverable: we hold a full state snapshot, and
        // adopting it is exactly the move the dead source was proposing.
        for queen in &self.queens {
            for bee in queen.parked_migrations() {
                if self.registry_view().hive_of(bee) == Some(dead)
                    && !candidates.iter().any(|(_, b, _)| *b == bee)
                {
                    candidates.push((queen.app.clone(), bee, false));
                }
            }
        }
        candidates.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        let n = candidates.len();
        for (app, bee, shadow) in candidates {
            if shadow {
                self.recovering.insert((app, bee));
            }
            let op = RegistryOp::MoveBee {
                bee,
                to: self.cfg.id,
            };
            self.submit_tracked(op, Vec::new());
        }
        self.flush_io();
        n
    }

    /// Number of shadow bees this hive currently holds (colony replication).
    pub fn shadow_count(&self) -> usize {
        self.shadows.len()
    }

    // ------------------------------------------------------------------
    // Audit accessors (invariant checkers / chaos harness)
    // ------------------------------------------------------------------

    /// Number of registry events applied locally — the relay fence. Two
    /// hives with equal `applied_seq` have applied the same committed prefix
    /// and must agree on the registry ([`Hive::registry_digest`]).
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// FNV-1a digest of the serialized registry mirror. Hives with equal
    /// [`Hive::applied_seq`] must produce equal digests — the
    /// registry-agreement invariant the chaos harness audits.
    pub fn registry_digest(&self) -> u64 {
        match beehive_wire::to_vec(self.registry_view()) {
            Ok(bytes) => beehive_wire::record::fnv1a(&bytes),
            Err(_) => 0,
        }
    }

    /// Counts messages queued anywhere inside this hive whose wire type name
    /// ends with `type_suffix`, by the queue holding them. Excludes the
    /// cross-thread handle channel ([`HiveHandle::emit`]) — conservation
    /// audits must emit via [`Hive::emit`] or run a `step` first (which
    /// drains the channel).
    pub fn queued_messages(&self, type_suffix: &str) -> QueuedMessages {
        let hit = |env: &Envelope| u64::from(env.msg.type_name().ends_with(type_suffix));
        let mut q = QueuedMessages {
            dispatch: self.dispatch_queue.iter().map(hit).sum(),
            orphans: self.orphans.iter().map(|(env, _)| hit(env)).sum(),
            retry: self.retry_queue.iter().map(|(env, _)| hit(env)).sum(),
            ..QueuedMessages::default()
        };
        for p in self.pending.values() {
            q.pending_routes += p.waiting.iter().map(|(_, env)| hit(env)).sum::<u64>();
        }
        for b in self.queens.iter().flat_map(Queen::bees) {
            q.mailboxes += b.mailbox.iter().map(|(_, env)| hit(env)).sum::<u64>();
        }
        q
    }

    /// Active bees of `app` with their colonies, sorted by bee id — the
    /// ownership-exclusivity checker's raw material.
    pub fn active_colonies(&self, app: &str) -> Vec<(BeeId, Vec<Cell>)> {
        let Some(&i) = self.app_idx.get(app) else {
            return Vec::new();
        };
        let active = self.queens[i]
            .bees()
            .filter(|b| b.status == BeeStatus::Active);
        active
            .map(|b| (b.id, b.colony.iter().cloned().collect()))
            .collect()
    }

    /// A bee's full dictionary contents in deterministic order: dict name →
    /// `(key, encoded value)` pairs (both BTreeMap-backed, so already
    /// sorted). Audit API for the equivalence and atomicity checkers.
    pub fn audit_dicts(&self, app: &str, bee: BeeId) -> DictDump {
        let Some(&i) = self.app_idx.get(app) else {
            return Vec::new();
        };
        let Some(lb) = self.queens[i].bee(bee) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for name in lb.state.dict_names() {
            let Some(d) = lb.state.dict(name) else {
                continue;
            };
            let entries: Vec<(String, Vec<u8>)> =
                d.iter().map(|(k, v)| (k.to_string(), v.to_vec())).collect();
            out.push((name.to_string(), entries));
        }
        out
    }

    /// Reliable-channel statistics: per-peer sequencing, dedup and
    /// retransmission counters. The chaos conservation checker derives its
    /// in-transit term from `sent`/`delivered`.
    pub fn channel_stats(&self) -> crate::channel::ChannelStats {
        self.channels.stats()
    }

    /// Forces a local bee to own `cells` for `app` WITHOUT consulting the
    /// registry — a deliberately broken path that violates ownership
    /// exclusivity. Exists only so chaos tests can prove the invariant
    /// checkers catch real bugs; never call it outside tests.
    #[doc(hidden)]
    pub fn debug_force_own(&mut self, app: &str, cells: Vec<Cell>) -> Option<BeeId> {
        let &ai = self.app_idx.get(app)?;
        let id = BeeId::new(self.cfg.id, self.next_bee_seq);
        self.next_bee_seq += 1;
        self.queens[ai].ensure_bee(id, cells);
        Some(id)
    }

    // ------------------------------------------------------------------
    // The step loop
    // ------------------------------------------------------------------

    /// Performs one scheduling round: ingests external input and transport
    /// frames, drives the registry, fires timers, dispatches messages and
    /// runs bees — up to [`STEP_BUDGET`]. Returns the number of work
    /// units performed (0 = fully quiescent).
    pub fn step(&mut self) -> usize {
        let now = self.clock.now_ms();
        let mut work = 0usize;

        // 1. External input.
        while let Ok(env) = self.handle_rx.try_recv() {
            self.dispatch_queue.push_back(env);
            work += 1;
        }

        // 2. Transport frames.
        while let Some((from, frame)) = self.transport.try_recv() {
            work += 1;
            match frame.kind {
                FrameKind::App => match self.channels.on_frame(from, &frame.bytes, now) {
                    ChannelDelivery::Deliver(env_bytes) => {
                        match beehive_wire::from_slice::<WireEnvelope>(&env_bytes) {
                            Ok(we) => match ControlMsg::from_shipment(&we) {
                                Some(shipment) => {
                                    self.counters.shipments_delivered += 1;
                                    match shipment {
                                        Ok(msg) => self.handle_control(from, msg),
                                        Err(_) => self.note_decode_error(Some(from)),
                                    }
                                }
                                None => match we.into_envelope(&self.msg_registry) {
                                    Ok(env) => self.dispatch_queue.push_back(env),
                                    Err(_) => self.note_decode_error(Some(from)),
                                },
                            },
                            Err(_) => self.note_decode_error(Some(from)),
                        }
                    }
                    // A retransmission or fabric duplicate of a frame
                    // already delivered: absorbed (and re-acked) by dedup.
                    ChannelDelivery::Duplicate => {}
                    ChannelDelivery::Malformed => self.note_decode_error(Some(from)),
                },
                FrameKind::Raft => {
                    match beehive_wire::from_slice::<beehive_raft::RaftMessage>(&frame.bytes) {
                        Ok(msg) => {
                            let install =
                                matches!(msg, beehive_raft::RaftMessage::InstallSnapshot { .. });
                            if install && self.before_install.is_none() {
                                self.before_install = Some(self.registry_view().clone());
                            }
                            let outs = self.registry.step(from.as_raft(), msg);
                            self.send_raft(outs);
                        }
                        Err(_) => self.note_decode_error(Some(from)),
                    }
                }
                FrameKind::Control => match ControlMsg::decode(&frame.bytes) {
                    Ok(msg) => self.handle_control(from, msg),
                    Err(_) => self.note_decode_error(Some(from)),
                },
            }
        }

        // 3. Registry Raft ticks.
        if self.last_raft_tick_ms == 0 {
            self.last_raft_tick_ms = now;
        }
        while now.saturating_sub(self.last_raft_tick_ms) >= RAFT_TICK_MS {
            self.last_raft_tick_ms += RAFT_TICK_MS;
            let outs = self.registry.tick();
            self.send_raft(outs);
            work += 1;
        }

        // 3b. Registry Raft term/leader watch: frames (phase 2) and ticks
        // (phase 3) may have moved the group; record genuine changes.
        self.poll_raft_events();

        // 4. Applied registry events.
        work += self.drain_applied();

        // 4b. Committed membership (conf-change) entries, then this hive's
        // own join/drain lifecycle machine.
        work += self.drain_conf_changes();
        self.poll_membership(now);

        // 5. Platform tick.
        if self.cfg.tick_interval_ms > 0
            && now.saturating_sub(self.last_app_tick_ms) >= self.cfg.tick_interval_ms
        {
            self.last_app_tick_ms = now;
            self.tick_seq += 1;
            let tick = Tick {
                seq: self.tick_seq,
                now_ms: now,
            };
            self.dispatch_queue
                .push_back(Envelope::external(self.cfg.id, Arc::new(tick)));
            work += 1;
        }

        // 6. Pending-proposal retries.
        self.retry_pending(now);

        // 6b. Supervised redeliveries whose backoff elapsed re-enter
        // dispatch (keeping their original enqueued stamp and bumped
        // `deliveries` count).
        if !self.retry_queue.is_empty() {
            let pending = self.retry_queue.len();
            for _ in 0..pending {
                if let Some((env, due)) = self.retry_queue.pop_front() {
                    if now >= due {
                        self.dispatch_queue.push_back(env);
                        work += 1;
                    } else {
                        self.retry_queue.push_back((env, due));
                    }
                }
            }
        }

        // 6c. Quarantine cooldowns: a bee whose cooldown expired goes back
        // on the run queue so its next dequeue is the half-open probe.
        if !self.quarantine_timers.is_empty() {
            let mut still: Vec<(usize, BeeId, u64)> = Vec::new();
            for (app_idx, bee, until) in std::mem::take(&mut self.quarantine_timers) {
                if now >= until {
                    self.events.record_full(
                        EventKind::QuarantineHalfOpen,
                        0,
                        self.apps[app_idx].name(),
                        Some(bee),
                        None,
                        "cooldown expired; next message is the half-open probe",
                    );
                    if self.queens[app_idx]
                        .bee(bee)
                        .is_some_and(|b| !b.mailbox.is_empty())
                    {
                        self.run_queue.push_back((app_idx, bee));
                    }
                    work += 1;
                } else {
                    still.push((app_idx, bee, until));
                }
            }
            self.quarantine_timers = still;
        }

        // 6d. Reliable-channel maintenance: re-send unacked application
        // frames whose backoff elapsed and flush coalesced standalone acks
        // for peers we owe one and sent no return traffic to.
        if self.channels.has_pending() {
            let chan_work = self.channels.poll(now);
            for (to, bytes) in chan_work.retransmits {
                self.frames_out.push((to, Frame::app(bytes)));
                work += 1;
            }
            for (to, ack_epoch, upto) in chan_work.acks {
                self.send_control(to, &ControlMsg::ChannelAck { ack_epoch, upto });
                work += 1;
            }
        }

        // 6e. Cross-hive trace assembly: broadcast freshly submitted trace
        // queries to every peer and expire overdue ones with whatever
        // replies arrived.
        self.poll_trace_queries(now);

        // 7. Orphan retries. Retried orphans re-enter dispatch with their
        // ORIGINAL park time, so a message that keeps failing to route is
        // re-parked with that time and genuinely expires after the TTL
        // (pushing through dispatch_queue would reset the clock each cycle).
        let orphan_count = self.orphans.len();
        for _ in 0..orphan_count {
            if let Some((env, since)) = self.orphans.pop_front() {
                if now.saturating_sub(since) > ORPHAN_TTL_MS {
                    self.counters.dropped_orphans += 1;
                } else {
                    self.dispatch(env, since);
                }
            }
        }

        // The journal records staged so far (the `Delivered` records of this
        // step's frames among them) reach the disk before any handler runs.
        self.flush_io();

        // 8. Main dispatch/run loop. Applied registry events are drained
        // inside the loop so locally applied (or freshly committed) routing
        // decisions release their buffered messages within the same step.
        while work < STEP_BUDGET {
            work += self.drain_applied();
            if let Some(env) = self.dispatch_queue.pop_front() {
                self.dispatch(env, now);
                work += 1;
                continue;
            }
            if let Some((app_idx, bee)) = self.run_queue.pop_front() {
                work += self.run_inline(app_idx, bee, now);
                continue;
            }
            if self.drain_applied() == 0 {
                break;
            }
        }

        // 9. The step's platform reading → instrumentation (locked only
        // when it moved).
        let reading = self.platform_reading();
        if reading != self.published {
            self.instr.lock().platform = reading;
            self.published = reading;
        }
        self.flush_io();
        work
    }

    /// The platform scalars as the components that count them see them now:
    /// one line per [`PLATFORM_TABLE`](crate::metrics::PLATFORM_TABLE) row.
    fn platform_reading(&self) -> PlatformCounters {
        let channel = self.channels.stats();
        let node = &self.registry;
        PlatformCounters {
            // `HiveCounters::handler_errors` counts panics too.
            handler_errors: self.counters.handler_errors - self.counters.handler_panics,
            handler_panics: self.counters.handler_panics,
            redeliveries: self.counters.redeliveries,
            dead_letters: self.counters.dead_letters,
            decode_errors: self.counters.decode_errors,
            quarantined: self.quarantine_timers.len() as u64,
            retransmits: channel.retransmits,
            dups_suppressed: channel.dups_suppressed,
            channel_acks: channel.acks_sent,
            outbox_depth: channel.outbox_depth,
            snapshot_index: node.snapshot_index(),
            snapshot_lag: node.snapshot_lag(),
            snapshot_installs: node.snapshots_installed(),
            journal_torn_truncations: self.channels.torn_truncations(),
        }
    }

    /// Hands the I/O staged since the last call over at once: the registry
    /// entries proposed since then, as one AppendEntries per peer; the
    /// channel's journal records in one write; then every queued frame in
    /// one [`Transport::send_all`]. Records are written first, so a `Send`
    /// is on disk before its frame is on the wire. Runs before a step's
    /// first handler, at the end of the step, before the transport's peer
    /// set changes, and at the end of the public calls that send.
    fn flush_io(&mut self) {
        let outs = self.registry.replicate();
        self.send_raft(outs);
        self.channels.commit();
        if !self.frames_out.is_empty() {
            self.transport
                .send_all(std::mem::take(&mut self.frames_out));
        }
    }

    /// Records registry Raft term and leader changes into the event
    /// journal, and fail-stops the hive if the registry node latched a
    /// storage fault. Everything here derives from already-deterministic
    /// state, so it cannot perturb simulated replay.
    fn poll_raft_events(&mut self) {
        let node = &self.registry;
        if let Some(e) = node.storage_fault() {
            let detail = format!("registry storage fault: {e}");
            self.events.record(EventKind::StorageFault, detail.clone());
            panic!("hive {}: fatal storage fault: {detail}", self.cfg.id.0);
        }
        let term = node.term();
        let leader = node.leader_hint();
        if term != self.last_raft_term {
            let detail = format!("term {} -> {}", self.last_raft_term, term);
            self.last_raft_term = term;
            self.events.record(EventKind::RaftTermChange, detail);
        }
        if leader != self.last_raft_leader {
            let peer = leader.map(HiveId::from_raft);
            let detail = match leader {
                Some(l) => format!("leader is hive-{l}"),
                None => "no known leader".to_string(),
            };
            self.last_raft_leader = leader;
            self.events
                .record_full(EventKind::RaftLeaderChange, 0, "", None, peer, detail);
        }
    }

    /// Hands a bee off to the hive `to` the mirror now places it on: the
    /// queen drops it, and its buffered mail is relayed to `to`.
    fn finish_migration_out(&mut self, ai: usize, bee: BeeId, to: HiveId) {
        let mail = self.queens[ai].finish_migration_out(bee, to);
        let app = self.apps[ai].name().to_string();
        self.events.record_full(
            EventKind::MigrationCommit,
            0,
            &app,
            Some(bee),
            Some(to),
            "source handoff complete; buffered mail forwarded",
        );
        for (h, mut env) in mail {
            env.dst = Dst::Bee {
                app: app.clone(),
                bee,
                handler: Some(h),
                fence: self.applied_seq,
            };
            self.relay(to, &env);
        }
    }

    /// Resolves this hive's pending route `seq` to `bee` on `hive` and
    /// re-routes every message that waited on it. The proposal's own message
    /// now takes the fast path; messages that queued behind it because
    /// their cells merely intersected re-evaluate their own mapping (their
    /// cell set may extend beyond this colony).
    fn release_pending_route(&mut self, seq: u64, bee: BeeId, hive: HiveId) {
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        let Some(&ai) = p.route().and_then(|(app, _)| self.app_idx.get(app)) else {
            return;
        };
        for (h, env) in p.waiting {
            match self.apps[ai].map(h, env.msg.as_ref()) {
                Mapped::Cells(cells) => {
                    self.route_cells(ai, Some(h), cells, Some(env));
                }
                // Non-cell mappings wait here only behind a re-map: they
                // go to the route's bee.
                _ => self.deliver_or_relay(ai, bee, hive, h, env),
            }
        }
    }

    /// Drains trace queries submitted through the hub ([`Hive::trace_hub`]):
    /// seeds each with the local span ring, broadcasts
    /// [`ControlMsg::TraceQuery`] to every peer, and expires queries whose
    /// deadline passed so a partitioned peer can't wedge the caller.
    fn poll_trace_queries(&mut self, now: u64) {
        for (query_id, trace_id) in self.trace_hub.take_requests() {
            let peers = self.transport.peers();
            let local = self.tracer.spans_for(trace_id);
            self.trace_hub.start(query_id, peers.len(), local);
            if peers.is_empty() {
                continue;
            }
            for peer in peers {
                self.send_control(peer, &ControlMsg::TraceQuery { query_id, trace_id });
            }
            self.trace_query_deadlines
                .push((query_id, now + TRACE_QUERY_TIMEOUT_MS));
        }
        if !self.trace_query_deadlines.is_empty() {
            let hub = self.trace_hub.clone();
            self.trace_query_deadlines.retain(|&(query_id, due)| {
                if now >= due {
                    hub.expire(query_id);
                    false
                } else {
                    true
                }
            });
        }
    }

    /// Brings this hive in line with what the registry applied since the
    /// last call: a snapshot install first, then each entry, and settles
    /// this hive's own commands among them. Returns the entries applied.
    fn drain_applied(&mut self) -> usize {
        let before = self.before_install.take();
        let installs = self.registry.snapshots_installed();
        if installs > self.last_snapshot_installs {
            self.last_snapshot_installs = installs;
            let detail = format!(
                "registry snapshot installed through index {}",
                self.registry.snapshot_index()
            );
            self.events.record(EventKind::SnapshotInstall, detail);
            self.reconcile_snapshot(before.unwrap_or_default());
        }
        let applied = self.registry.take_applied();
        // The fence is the applied LOG INDEX — durable across restarts (a
        // snapshot restores last_applied) and identical on every hive for the
        // same committed prefix.
        self.applied_seq = self.registry.last_applied();
        let n = applied.len();
        for (cmd, event) in applied.into_iter().map(|a| a.output) {
            self.reconcile_entry(&event);
            if cmd.origin == self.cfg.id {
                match event {
                    RegistryEvent::Routed { bee, hive, .. } => {
                        self.release_pending_route(cmd.seq, bee, hive)
                    }
                    _ => drop(self.pending.remove(&cmd.seq)),
                }
            }
        }
        n
    }

    /// Steps until quiescent or `max_rounds` is reached. Returns total work.
    pub fn step_until_quiescent(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let w = self.step();
            total += w;
            if w == 0 {
                break;
            }
        }
        total
    }

    /// Runs the hive on the current thread until `stop` becomes true,
    /// parking when idle. The thread is woken by [`HiveHandle`] sends and by
    /// inbound transport frames (via [`Transport::set_waker`]); the park
    /// timeout is bounded by the next timer the hive owes (Raft ticks, the
    /// platform tick, pending-op retries), so timers never slip by more than
    /// their own granularity. Production entry point.
    pub fn run(&mut self, stop: &std::sync::atomic::AtomicBool) {
        let never_drain = std::sync::atomic::AtomicBool::new(false);
        self.run_elastic(stop, &never_drain);
    }

    /// Runs like [`Hive::run`], additionally honoring a drain-request flag
    /// (typically set by a SIGTERM handler or a `--drain` CLI): the first
    /// time `drain` reads true, [`Hive::begin_drain`] starts the graceful
    /// scale-in, and the loop returns once the hive has fully departed the
    /// cluster (zero owned cells, outbox acked, configuration entry
    /// removed).
    pub fn run_elastic(
        &mut self,
        stop: &std::sync::atomic::AtomicBool,
        drain: &std::sync::atomic::AtomicBool,
    ) {
        let parker = self.parker.clone();
        self.transport.set_waker(Arc::new(move || parker.unpark()));
        while !stop.load(std::sync::atomic::Ordering::Relaxed)
            && self.lifecycle.stage() != LifecycleStage::Departed
        {
            if drain.load(std::sync::atomic::Ordering::Relaxed) && !self.lifecycle.is_leaving() {
                self.begin_drain();
            }
            if self.step() == 0 {
                let timeout = self.idle_park_ms(self.clock.now_ms());
                self.parker.park(std::time::Duration::from_millis(timeout));
            }
        }
    }

    /// How long `run` may park right now: until the nearest owed timer
    /// (Raft tick, platform tick, retry scans), capped so a stop request is
    /// honored promptly even without a wakeup.
    fn idle_park_ms(&self, now: u64) -> u64 {
        const MAX_PARK_MS: u64 = 25;
        let mut park = MAX_PARK_MS
            .min(RAFT_TICK_MS.saturating_sub(now.saturating_sub(self.last_raft_tick_ms)));
        if self.cfg.tick_interval_ms > 0 {
            let next = self
                .cfg
                .tick_interval_ms
                .saturating_sub(now.saturating_sub(self.last_app_tick_ms));
            park = park.min(next);
        }
        if !self.pending.is_empty()
            || !self.orphans.is_empty()
            || !self.retry_queue.is_empty()
            || !self.quarantine_timers.is_empty()
            || !self.trace_query_deadlines.is_empty()
            || self.channels.has_pending()
            || self.pending_membership.is_some()
            || self.lifecycle.is_leaving()
        {
            park = park.min(5);
        }
        park.max(1)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, mut env: Envelope, now: u64) {
        // First local dispatch stamps the queue-wait clock: wire arrivals
        // come in cleared (sender stamps are not comparable), relayed local
        // loops and parked orphans keep their original stamp so measured
        // wait covers the whole local residency.
        if env.trace.enqueued_ms == 0 {
            env.trace.enqueued_ms = now;
        }
        match env.dst.clone() {
            Dst::Broadcast => {
                for app_idx in 0..self.apps.len() {
                    self.offer_to_app(app_idx, &env);
                }
            }
            Dst::App(name) => {
                if let Some(&app_idx) = self.app_idx.get(&name) {
                    self.offer_to_app(app_idx, &env);
                }
            }
            Dst::Bee {
                app,
                bee,
                handler,
                fence,
            } => {
                self.deliver_direct(&app, bee, handler, fence, env, now);
            }
        }
    }

    fn offer_to_app(&mut self, app_idx: usize, env: &Envelope) {
        let msg_type = env.msg.type_name();
        for i in 0..self.apps[app_idx].handlers_for(msg_type).len() {
            let hidx = self.apps[app_idx].handlers_for(msg_type)[i];
            match self.apps[app_idx].map(hidx, env.msg.as_ref()) {
                Mapped::Skip => {}
                Mapped::LocalSingleton => {
                    let me = self.cfg.id;
                    let seq = &mut self.next_bee_seq;
                    let bee = self.queens[app_idx].ensure_singleton(|| {
                        let id = BeeId::new(me, *seq);
                        *seq += 1;
                        id
                    });
                    self.deliver_checked(app_idx, bee, hidx, env.clone());
                }
                Mapped::LocalBroadcast => {
                    let targets: Vec<BeeId> = self.queens[app_idx].active_bees().collect();
                    for bee in targets {
                        self.deliver_checked(app_idx, bee, hidx, env.clone());
                    }
                }
                Mapped::Cells(cells) => {
                    self.route_cells(app_idx, Some(hidx), cells, Some(env.clone()));
                }
            }
        }
    }

    /// Routes a message (or a pre-claim with no message) by cells. Returns
    /// the pending route it waits on, if it did not go straight to a bee.
    fn route_cells(
        &mut self,
        app_idx: usize,
        handler: Option<u16>,
        mut cells: Vec<Cell>,
        env: Option<Envelope>,
    ) -> Option<u64> {
        cells.sort();
        cells.dedup();
        let app_name = self.apps[app_idx].name().clone();
        let app_name = app_name.as_str();

        // A proposal for these exact cells is already in flight: queue behind
        // it to preserve delivery order (the mirror may already know the
        // owner, but earlier messages are still parked on the pending route).
        // Failing that, a pending route whose cells merely *intersect* ours
        // also carries messages that must run first: queue behind the
        // earliest such proposal, and re-route when it resolves. (Without
        // this, a message mapping a subset of an in-flight set could take the
        // fast path and overtake the message that created the colony.)
        let mut behind = None;
        for (&seq, p) in &self.pending {
            let Some((app, pending_cells)) = p.route() else {
                continue;
            };
            if app != app_name {
                continue;
            }
            if pending_cells == cells.as_slice() {
                behind = Some(seq);
                break;
            }
            if behind.is_none() && pending_cells.iter().any(|c| cells.contains(c)) {
                behind = Some(seq);
            }
        }
        if let Some(seq) = behind {
            if let (Some(h), Some(env)) = (handler, env) {
                if let Some(p) = self.pending.get_mut(&seq) {
                    p.waiting.push((h, env));
                }
            }
            return Some(seq);
        }

        // Fast path: a single bee already owns every cell.
        if let Some((bee, hive)) = self.registry_view().lookup_exact(app_name, &cells) {
            if let (Some(h), Some(env)) = (handler, env) {
                self.deliver_or_relay(app_idx, bee, hive, h, env);
            }
            return None;
        }
        let new_bee = BeeId::new(self.cfg.id, self.next_bee_seq);
        self.next_bee_seq += 1;
        let waiting = match (handler, env) {
            (Some(h), Some(env)) => vec![(h, env)],
            _ => Vec::new(),
        };
        let op = RegistryOp::LookupOrCreate {
            app: app_name.to_string(),
            cells,
            new_bee,
        };
        Some(self.submit_tracked(op, waiting))
    }

    fn deliver_direct(
        &mut self,
        app: &str,
        bee: BeeId,
        handler: Option<u16>,
        fence: u64,
        env: Envelope,
        now: u64,
    ) {
        let Some(&app_idx) = self.app_idx.get(app) else {
            return;
        };
        // Registry fence: don't act on a routing decision we haven't applied
        // yet — park and retry (our mirror will catch up within a heartbeat).
        if fence > self.applied_seq {
            self.orphans.push_back((env, now));
            return;
        }
        // Resolve the handler index.
        let hidx = match handler {
            Some(h) => h,
            None => {
                let hs = self.apps[app_idx].handlers_for(env.msg.type_name());
                match hs {
                    [one] => *one,
                    [] => return,
                    _ => {
                        self.counters.dropped_ambiguous += 1;
                        return;
                    }
                }
            }
        };
        // Local?
        if self.queens[app_idx].bee(bee).is_some() {
            self.deliver_checked(app_idx, bee, hidx, env);
            return;
        }
        // Otherwise the mirror says where the bee is, or which bee
        // absorbed it.
        match self.registry_view().hive_of(bee) {
            Some(h) if h == self.cfg.id => {
                // Placed here but not materialized: adopt its parked state,
                // or start it empty with its registry colony.
                self.adopt_placed(app_idx, bee);
                if self.queens[app_idx].bee(bee).is_none() {
                    let colony = self.registry_view().colony_of(bee);
                    self.queens[app_idx].ensure_bee(bee, colony);
                }
                self.deliver_checked(app_idx, bee, hidx, env);
            }
            Some(h) => {
                let mut env = env;
                env.dst = Dst::Bee {
                    app: app.to_string(),
                    bee,
                    handler: Some(hidx),
                    fence: fence.max(self.applied_seq),
                };
                self.relay(h, &env);
            }
            None => {
                let merged_into = self.registry_view().merged_into(bee);
                let mut env = env;
                env.dst = Dst::Bee {
                    app: app.to_string(),
                    bee: merged_into.unwrap_or(bee),
                    handler: Some(hidx),
                    fence,
                };
                match merged_into {
                    // Merged away: re-aimed at the bee that absorbed it.
                    Some(_) => self.dispatch_queue.push_back(env),
                    // Unknown (our mirror may lag the leader): park and retry.
                    None => self.orphans.push_back((env, now)),
                }
            }
        }
    }

    fn deliver_or_relay(
        &mut self,
        app_idx: usize,
        bee: BeeId,
        hive: HiveId,
        hidx: u16,
        env: Envelope,
    ) {
        if hive == self.cfg.id {
            // Make sure the bee exists locally with at least its registry
            // colony (it may have been created by our own LookupOrCreate).
            // Only the cells it lacks are copied.
            let queen = &mut self.queens[app_idx];
            let local = queen.ensure_bee(bee, []);
            if let Some(record) = self.registry.state_machine().bee(bee) {
                for cell in &record.colony {
                    if !local.colony.contains(cell) {
                        local.colony.insert(cell.clone());
                    }
                }
            }
            self.deliver_checked(app_idx, bee, hidx, env);
        } else {
            let mut env = env;
            env.dst = Dst::Bee {
                app: self.apps[app_idx].name().to_string(),
                bee,
                handler: Some(hidx),
                fence: self.applied_seq,
            };
            self.relay(hive, &env);
        }
    }

    fn relay(&mut self, to: HiveId, env: &Envelope) {
        if to == self.cfg.id {
            self.dispatch_queue.push_back(env.clone());
            return;
        }
        match WireEnvelope::from_envelope(env) {
            Ok(bytes) => self.send_reliable(to, bytes),
            Err(_) => self.note_decode_error(None),
        }
    }

    /// Ships bee state — a `MigrateState` or `MergeState` — to `to` on the
    /// reliable channel, exactly once like a relayed message. To this hive
    /// it goes straight to [`Hive::handle_control`], and so through the
    /// same rendezvous.
    fn ship(&mut self, to: HiveId, msg: ControlMsg) {
        if to == self.cfg.id {
            self.handle_control(to, msg);
            return;
        }
        match msg.encode_shipment(self.cfg.id) {
            Ok(bytes) => {
                self.counters.shipments_sent += 1;
                self.send_reliable(to, bytes);
            }
            Err(_) => self.note_decode_error(None),
        }
    }

    /// Sequences, journals and buffers a wire envelope toward `to`; its
    /// channel frame carries a piggybacked cumulative ack toward `to`.
    fn send_reliable(&mut self, to: HiveId, bytes: Vec<u8>) {
        let now = self.clock.now_ms();
        let framed = self.channels.wrap(to, bytes, now);
        self.frames_out.push((to, Frame::app(framed)));
    }

    /// Delivers new traffic through the queen's admission policy (quarantine
    /// fast-path, bounded mailboxes) and schedules the bee if mail queued.
    fn deliver_checked(&mut self, app_idx: usize, bee: BeeId, hidx: u16, env: Envelope) {
        let now = self.clock.now_ms();
        match self.queens[app_idx].offer(bee, hidx, env, now, self.cfg.mailbox_capacity) {
            Delivery::Delivered => self.run_queue.push_back((app_idx, bee)),
            Delivery::NoBee(_) => self.counters.lost_no_bee += 1,
            Delivery::Quarantined(env) => self.dead_letter(
                app_idx,
                bee,
                "",
                env,
                FailureKind::Quarantined,
                "bee quarantined".to_string(),
                now,
            ),
            Delivery::Rejected(env) => self.dead_letter(
                app_idx,
                bee,
                "",
                env,
                FailureKind::MailboxOverflow,
                "mailbox over capacity: message rejected".to_string(),
                now,
            ),
        }
    }

    /// Records a message in the dead-letter queue.
    #[allow(clippy::too_many_arguments)]
    fn dead_letter(
        &mut self,
        app_idx: usize,
        bee: BeeId,
        handler: &str,
        env: Envelope,
        kind: FailureKind,
        detail: String,
        now: u64,
    ) {
        self.counters.dead_letters += 1;
        self.events.record_full(
            EventKind::DeadLettered,
            env.trace.trace_id,
            self.apps[app_idx].name(),
            Some(bee),
            None,
            format!("{}: {detail}", kind.label()),
        );
        let attempts = if kind.is_handler_failure() {
            env.deliveries + 1
        } else {
            env.deliveries
        };
        self.dead_letters.record(DeadLetter {
            app: self.apps[app_idx].name().to_string(),
            bee,
            handler: handler.to_string(),
            msg_type: env.msg.type_name().to_string(),
            kind,
            detail,
            attempts,
            trace_id: env.trace.trace_id,
            recorded_ms: now,
            envelope: env,
        });
    }

    /// Supervised redelivery: a message whose handler failed either re-enters
    /// dispatch after an exponential-backoff delay, or — once its
    /// `max_redeliveries` budget is spent — lands in the dead-letter queue.
    #[allow(clippy::too_many_arguments)]
    fn handle_failed_delivery(
        &mut self,
        app_idx: usize,
        bee: BeeId,
        hidx: u16,
        handler: &str,
        mut env: Envelope,
        kind: FailureKind,
        detail: String,
        now: u64,
    ) {
        if kind == FailureKind::Panic {
            self.counters.handler_panics += 1;
        }
        if env.deliveries >= self.cfg.max_redeliveries {
            self.dead_letter(app_idx, bee, handler, env, kind, detail, now);
            return;
        }
        env.deliveries += 1;
        self.counters.redeliveries += 1;
        // Exponential backoff (capped at 64× base) with deterministic jitter
        // derived from the bee id, so colliding retries spread out without a
        // random source and the schedule replays identically across runs.
        let due = now
            + crate::supervision::backoff_delay_ms(
                self.cfg.redelivery_backoff_ms,
                env.deliveries,
                bee,
            );
        // Re-aim at the exact bee + handler that failed; if the bee migrates
        // or merges before the retry fires, direct dispatch re-routes it.
        env.dst = Dst::Bee {
            app: self.apps[app_idx].name().to_string(),
            bee,
            handler: Some(hidx),
            fence: self.applied_seq,
        };
        self.retry_queue.push_back((env, due));
    }

    /// Applies a run outcome to the bee's quarantine circuit breaker and
    /// starts the cooldown timer when it trips.
    fn apply_outcome(&mut self, app_idx: usize, bee: BeeId, outcome: Outcome, now: u64) {
        let tripped = self.queens[app_idx].record_outcome(
            bee,
            outcome,
            self.cfg.quarantine_threshold,
            QUARANTINE_COOLDOWN_MS,
            now,
        );
        if let Some(until) = tripped {
            self.counters.quarantines += 1;
            self.events.record_full(
                EventKind::QuarantineOpen,
                0,
                self.apps[app_idx].name(),
                Some(bee),
                None,
                format!("breaker tripped; cooldown until {until}ms"),
            );
            self.quarantine_timers.push((app_idx, bee, until));
        }
    }

    /// Counts an undecodable frame/payload, logging the offending peer at
    /// most once per window so a flapping peer can't flood the log.
    fn note_decode_error(&mut self, peer: Option<HiveId>) {
        const LOG_WINDOW_MS: u64 = 5_000;
        self.counters.decode_errors += 1;
        let Some(peer) = peer else {
            return;
        };
        let now = self.clock.now_ms();
        let log = match self.decode_error_logged.get(&peer) {
            Some(&last) => now.saturating_sub(last) >= LOG_WINDOW_MS,
            None => true,
        };
        if log {
            self.decode_error_logged.insert(peer, now);
            eprintln!(
                "beehive: hive {:?} received undecodable payload from peer {:?}",
                self.cfg.id, peer
            );
        }
    }

    /// Sends a control message as one lossy `Control` frame. Only messages
    /// whose protocol recovers a loss go this way (DESIGN.md §3.11); bee
    /// state goes through [`Hive::ship`].
    fn send_control(&mut self, to: HiveId, msg: &ControlMsg) {
        debug_assert!(msg.shipped_bee().is_none(), "bee state shipped lossily");
        if to == self.cfg.id {
            // Loop back through the control handler directly.
            let msg = msg.clone();
            self.handle_control(self.cfg.id, msg);
            return;
        }
        match msg.encode() {
            Ok(bytes) => self.frames_out.push((to, Frame::control(bytes))),
            Err(_) => self.note_decode_error(None),
        }
    }

    fn send_raft(&mut self, outs: Vec<beehive_raft::Outbound>) {
        for o in outs {
            let to = HiveId::from_raft(o.to);
            match beehive_wire::to_vec(&o.msg) {
                Ok(bytes) => self.frames_out.push((to, Frame::raft(bytes))),
                Err(_) => self.note_decode_error(None),
            }
        }
    }

    // ------------------------------------------------------------------
    // Registry plumbing
    // ------------------------------------------------------------------

    fn submit_cmd(&mut self, cmd: RegistryCommand) {
        if self.registry.is_leader() {
            // Sent with the rest of the step's proposals by `flush_io`.
            let _ = self.registry.propose(cmd.encode());
        } else if let Some(leader) = self.registry.leader_hint() {
            let to = HiveId::from_raft(leader);
            if to != self.cfg.id {
                self.send_control(to, &ControlMsg::RegistryForward(cmd));
            }
        }
        // No leader known: the pending-retry timer will resubmit.
    }

    /// Submits a registry op under the next seq and tracks it, with the mail
    /// `waiting` on it, until its applied event comes back. Returns the seq.
    fn submit_tracked(&mut self, op: RegistryOp, waiting: Vec<(u16, Envelope)>) -> u64 {
        let seq = self.next_cmd_seq;
        self.next_cmd_seq += 1;
        let cmd = RegistryCommand {
            origin: self.cfg.id,
            seq,
            op,
        };
        let pending = Pending {
            cmd: cmd.clone(),
            submitted_ms: self.clock.now_ms(),
            waiting,
        };
        self.pending.insert(seq, pending);
        self.submit_cmd(cmd);
        seq
    }

    fn retry_pending(&mut self, now: u64) {
        // Resubmit in original proposal order: commit order determines the
        // order buffered messages are released, and that must follow arrival
        // order (e.g. proposals parked while no registry leader existed).
        let retry_ms = self.cfg.pending_retry_ms;
        let retry: Vec<RegistryCommand> = self
            .pending
            .values_mut()
            .filter(|p| now.saturating_sub(p.submitted_ms) >= retry_ms)
            .map(|p| {
                p.submitted_ms = now;
                p.cmd.clone()
            })
            .collect();
        for cmd in retry {
            self.submit_cmd(cmd);
        }
    }

    // ------------------------------------------------------------------
    // Elastic membership (live join / drain)
    // ------------------------------------------------------------------

    /// Applies committed registry conf changes to the runtime layers:
    /// connects/disconnects transport peers, updates the hive roster,
    /// retires the reliable channel of a removed peer (dead-lettering its
    /// undelivered envelopes) and advances this hive's own join/drain
    /// lifecycle. Returns the number of changes applied.
    fn drain_conf_changes(&mut self) -> usize {
        let changes = self.registry.take_conf_changes();
        let n = changes.len();
        for cc in changes {
            self.apply_membership_change(cc);
        }
        n
    }

    fn apply_membership_change(&mut self, cc: ConfChange) {
        let peer = HiveId::from_raft(cc.node);
        let me = self.cfg.id;
        let label = match cc.kind {
            ConfChangeKind::AddLearner => "added as learner",
            ConfChangeKind::PromoteVoter => "promoted to voter",
            ConfChangeKind::DemoteLearner => "demoted to learner",
            ConfChangeKind::RemoveNode => "removed from the configuration",
        };
        self.events.record_full(
            EventKind::MembershipChange,
            0,
            "",
            None,
            Some(peer),
            format!("hive-{} {label}", peer.0),
        );
        match cc.kind {
            ConfChangeKind::AddLearner => {
                if peer == me {
                    // Our own join request committed: stop re-sending it.
                    // The promotion request fires once the learner has
                    // applied the whole committed log (`poll_membership`).
                    // Keyed on the pending op, not the lifecycle stage, so a
                    // drain ordered mid-join does not leave a stale
                    // JoinRequest blocking the drain staircase.
                    let joining = matches!(
                        self.pending_membership,
                        Some((MembershipOp::JoinRequest, _, _))
                    );
                    if joining {
                        self.pending_membership = None;
                    }
                } else {
                    self.flush_io();
                    self.transport.connect_peer(peer, &cc.addr);
                    if !self.cfg.all_hives.contains(&peer) {
                        self.cfg.all_hives.push(peer);
                        self.cfg.all_hives.sort();
                    }
                }
            }
            ConfChangeKind::PromoteVoter => {
                if peer == me {
                    self.pending_membership = None;
                    if self.lifecycle.stage() == LifecycleStage::Joining {
                        self.lifecycle.set(LifecycleStage::Active);
                    }
                }
            }
            ConfChangeKind::DemoteLearner => {
                if peer == me {
                    // Next drain step (RemoveRequest) fires from
                    // `poll_drain`.
                    self.pending_membership = None;
                }
            }
            ConfChangeKind::RemoveNode => {
                if peer == me {
                    self.pending_membership = None;
                    self.lifecycle.set(LifecycleStage::Departed);
                } else {
                    self.retire_departed_peer(peer);
                }
            }
        }
    }

    /// Removes a departed peer from every runtime layer. The leader's final
    /// `Departed` ack leaves first: it is a control frame, which bypasses
    /// the reliable channel, and the transport connection is still up at
    /// this point.
    fn retire_departed_peer(&mut self, peer: HiveId) {
        if self.is_registry_leader() {
            self.send_control(
                peer,
                &ControlMsg::MembershipChange {
                    node: peer,
                    addr: String::new(),
                    op: MembershipOp::Departed,
                },
            );
        }
        // Retire the reliable channel. A message it never managed to deliver
        // is dead-lettered (the conservation audit subtracts expired entries
        // from in-transit). A state shipment is not a message: it is
        // recorded as an event naming its bee, and counted apart.
        let undelivered = self.channels.retire_peer(peer);
        for env_bytes in undelivered {
            let Ok(we) = beehive_wire::from_slice::<WireEnvelope>(&env_bytes) else {
                self.note_decode_error(None);
                continue;
            };
            match ControlMsg::from_shipment(&we) {
                Some(shipment) => {
                    self.counters.shipments_expired += 1;
                    let msg = shipment.ok();
                    let (app, bee) = msg
                        .as_ref()
                        .and_then(ControlMsg::shipped_bee)
                        .map_or(("", None), |(app, bee)| (app, Some(bee)));
                    self.events.record_full(
                        EventKind::PeerDeparted,
                        0,
                        app,
                        bee,
                        Some(peer),
                        format!(
                            "state shipment undeliverable: hive-{} departed the cluster",
                            peer.0
                        ),
                    );
                }
                None => match we.into_envelope(&self.msg_registry) {
                    Ok(env) => self.dead_letter_departed(env, peer),
                    Err(_) => self.note_decode_error(None),
                },
            }
        }
        // Drop the connection; frames still parked in the transport's
        // deferred queue are duplicates of unacked channel entries (already
        // dead-lettered above), so they are only counted.
        self.flush_io();
        let held = self.transport.disconnect_peer(peer);
        if !held.is_empty() {
            self.events.record_full(
                EventKind::PeerDeparted,
                0,
                "",
                None,
                Some(peer),
                format!(
                    "{} deferred frame(s) dropped with the connection",
                    held.len()
                ),
            );
        }
        self.cfg.all_hives.retain(|&h| h != peer);
        self.draining_peers.remove(&peer);
        self.decode_error_logged.remove(&peer);
    }

    /// Dead-letters a message that was owed to a peer that left the cluster
    /// (instead of retrying it forever against a gone endpoint).
    fn dead_letter_departed(&mut self, env: Envelope, peer: HiveId) {
        let (app, bee) = match &env.dst {
            Dst::Bee { app, bee, .. } => (app.clone(), *bee),
            Dst::App(name) => (name.clone(), BeeId(0)),
            Dst::Broadcast => (String::new(), BeeId(0)),
        };
        self.events.record_full(
            EventKind::PeerDeparted,
            env.trace.trace_id,
            &app,
            None,
            Some(peer),
            format!("undeliverable: hive-{} departed the cluster", peer.0),
        );
        self.counters.dead_letters += 1;
        self.dead_letters.record(DeadLetter {
            app,
            bee,
            handler: String::new(),
            msg_type: env.msg.type_name().to_string(),
            kind: FailureKind::PeerDeparted,
            detail: format!("hive-{} departed the cluster", peer.0),
            attempts: env.deliveries,
            trace_id: env.trace.trace_id,
            recorded_ms: self.clock.now_ms(),
            envelope: env,
        });
    }

    /// Handles an inbound [`ControlMsg::MembershipChange`].
    fn on_membership_msg(&mut self, from: HiveId, node: HiveId, addr: String, op: MembershipOp) {
        match op {
            MembershipOp::Draining => {
                if node != self.cfg.id && self.draining_peers.insert(node) {
                    self.events.record_full(
                        EventKind::MembershipChange,
                        0,
                        "",
                        None,
                        Some(node),
                        format!("hive-{} is draining: no longer a placement target", node.0),
                    );
                }
            }
            MembershipOp::Departed => {
                if node == self.cfg.id && self.lifecycle.stage() != LifecycleStage::Departed {
                    self.pending_membership = None;
                    self.lifecycle.set(LifecycleStage::Departed);
                    self.events.record(
                        EventKind::MembershipChange,
                        "departure acknowledged by the leader".to_string(),
                    );
                }
            }
            MembershipOp::JoinRequest
            | MembershipOp::PromoteRequest
            | MembershipOp::DemoteRequest
            | MembershipOp::RemoveRequest => {
                self.propose_membership(from, node, addr, op);
            }
        }
    }

    /// Leader side of the membership request protocol: turns a request into
    /// a single-node conf change, forwards it toward the leader when this
    /// hive is not it, and answers stale retries idempotently. A dropped
    /// request (no leader known, change already in flight) is recovered by
    /// the requester's retry timer.
    fn propose_membership(&mut self, from: HiveId, node: HiveId, addr: String, op: MembershipOp) {
        enum Action {
            Forward(HiveId),
            AckDeparted,
            Propose(ConfChangeKind),
            Drop,
        }
        let raft = &self.registry;
        let action = if raft.is_leader() {
            let id = node.as_raft();
            let is_voter = raft.voters().contains(&id);
            let is_learner = raft.learners().contains(&id);
            match op {
                MembershipOp::JoinRequest if !is_voter && !is_learner => {
                    Action::Propose(ConfChangeKind::AddLearner)
                }
                MembershipOp::PromoteRequest if is_learner => {
                    Action::Propose(ConfChangeKind::PromoteVoter)
                }
                MembershipOp::DemoteRequest if is_voter => {
                    Action::Propose(ConfChangeKind::DemoteLearner)
                }
                MembershipOp::RemoveRequest if is_voter || is_learner => {
                    Action::Propose(ConfChangeKind::RemoveNode)
                }
                // A retry that outran its own commit: the node is already
                // gone from the configuration — re-ack so a lost ack cannot
                // strand the drained hive.
                MembershipOp::RemoveRequest => Action::AckDeparted,
                // Join/promote/demote retries that already applied need no
                // answer: the requester observes the committed conf change
                // through its own log.
                _ => Action::Drop,
            }
        } else {
            match raft.leader_hint() {
                Some(l) => {
                    let to = HiveId::from_raft(l);
                    if to != self.cfg.id && to != from {
                        Action::Forward(to)
                    } else {
                        Action::Drop
                    }
                }
                None => Action::Drop,
            }
        };
        match action {
            Action::Forward(to) => {
                self.send_control(to, &ControlMsg::MembershipChange { node, addr, op });
            }
            Action::AckDeparted => {
                self.send_control(
                    node,
                    &ControlMsg::MembershipChange {
                        node,
                        addr: String::new(),
                        op: MembershipOp::Departed,
                    },
                );
            }
            Action::Propose(kind) => {
                let cc = ConfChange {
                    node: node.as_raft(),
                    addr,
                    kind,
                };
                let outs = match self.registry.propose_conf_change(&cc) {
                    Ok((_token, outs)) => outs,
                    // Another change in flight (or a just-lost leadership):
                    // drop — the requester retries.
                    Err(_) => Vec::new(),
                };
                self.send_raft(outs);
            }
            Action::Drop => {}
        }
    }

    /// Drives this hive's own membership lifecycle once per step: fires the
    /// promotion request when a joiner caught up, walks the drain staircase
    /// (evacuate → flush outbox → hand off leadership → demote → remove),
    /// and re-sends the pending request toward the leader on the retry
    /// timer.
    fn poll_membership(&mut self, now: u64) {
        match self.lifecycle.stage() {
            LifecycleStage::Active | LifecycleStage::Departed => {}
            LifecycleStage::Joining => {
                if self.pending_membership.is_none() {
                    // A learner that applied the whole committed prefix is
                    // caught up (commit_index > 0 distinguishes a
                    // replicating learner from one the cluster does not
                    // know about yet): ask for promotion.
                    let node = &self.registry;
                    let caught_up =
                        node.commit_index() > 0 && node.last_applied() >= node.commit_index();
                    if caught_up {
                        self.pending_membership = Some((MembershipOp::PromoteRequest, 0, 0));
                        self.events.record(
                            EventKind::MembershipChange,
                            "caught up with the registry log: requesting promotion".to_string(),
                        );
                    }
                }
            }
            LifecycleStage::Draining => self.poll_drain(now),
        }
        self.flush_membership_request(now);
    }

    /// One tick of the drain staircase.
    fn poll_drain(&mut self, now: u64) {
        // A group of one has no survivor to take its bees or its
        // configuration entry: its cells stay in its durable registry.
        let lone = is_lone_voter(&self.registry);
        // Step 1: evacuate every registry-owned bee onto a survivor.
        let owned = self.owned_bees();
        if !lone && !owned.is_empty() {
            self.evacuate(owned);
            return;
        }
        // Step 2: the channel outbox must be fully acked — every envelope
        // this hive relayed is confirmed on a survivor.
        if self.channels.stats().outbox_depth > 0 {
            return;
        }
        if lone {
            self.lifecycle.set(LifecycleStage::Departed);
            self.events.record(
                EventKind::MembershipChange,
                "standalone drain complete".to_string(),
            );
            return;
        }
        let me = self.cfg.id.as_raft();
        let voters = self.registry.voters();
        let transfer_to = voters
            .iter()
            .copied()
            .filter(|&v| v != me)
            .find(|&v| !self.draining_peers.contains(&HiveId::from_raft(v)));
        let is_voter = voters.contains(&me);
        // Step 3: a draining leader hands leadership to a surviving voter
        // before demoting itself (a leader cannot safely leave its own
        // quorum).
        if self.registry.is_leader() {
            if let Some(to) = transfer_to {
                if now.saturating_sub(self.last_transfer_ms) >= self.cfg.pending_retry_ms
                    || self.last_transfer_ms == 0
                {
                    self.last_transfer_ms = now;
                    let outs = self.registry.transfer_leadership(to);
                    self.send_raft(outs);
                    self.events.record_full(
                        EventKind::MembershipChange,
                        0,
                        "",
                        None,
                        Some(HiveId::from_raft(to)),
                        format!("handing registry leadership to hive-{} before demotion", to),
                    );
                }
            }
            return;
        }
        if self.pending_membership.is_some() {
            return; // a demote/remove request is already in flight
        }
        // Step 4: voter → learner; step 5: learner → removed.
        let op = if is_voter {
            MembershipOp::DemoteRequest
        } else {
            MembershipOp::RemoveRequest
        };
        self.pending_membership = Some((op, 0, 0));
        let detail = if is_voter {
            "drained: requesting demotion to learner"
        } else {
            "drained: requesting removal from the configuration"
        };
        self.events
            .record(EventKind::MembershipChange, detail.to_string());
    }

    /// Registry-owned bees currently placed on this hive, in deterministic
    /// order.
    fn owned_bees(&self) -> Vec<(AppName, BeeId)> {
        let mut owned: Vec<(AppName, BeeId)> = self
            .registry_view()
            .bees()
            .filter(|(_, rec)| rec.hive == self.cfg.id)
            .map(|(b, rec)| (rec.app.clone(), *b))
            .collect();
        owned.sort();
        owned
    }

    /// Mass-migrates this draining hive's bees onto survivors through the
    /// placement optimizer's drain mode and the live-migration path.
    /// Platform-app bees (which the optimizer never touches) and bees the
    /// heuristic could not place fall back to the least-occupied survivor.
    fn evacuate(&mut self, owned: Vec<(AppName, BeeId)>) {
        let mut occupancy: BTreeMap<u32, usize> = BTreeMap::new();
        for h in &self.cfg.all_hives {
            occupancy.entry(h.0).or_insert(0);
        }
        for (_, rec) in self.registry_view().bees() {
            *occupancy.entry(rec.hive.0).or_insert(0) += 1;
        }
        let loads: Vec<BeeLoad> = owned
            .iter()
            .filter_map(|(app, bee)| {
                let &ai = self.app_idx.get(app)?;
                let b = self.queens[ai].bee(*bee)?;
                if b.status != BeeStatus::Active {
                    return None; // already mid-migration
                }
                Some(BeeLoad {
                    app: app.clone(),
                    bee: *bee,
                    hive: self.cfg.id,
                    pinned: false,
                    cells: b.colony.len() as u64,
                    in_by_hive: BTreeMap::new(),
                    p99_runtime_us: 0,
                })
            })
            .collect();
        if loads.is_empty() {
            return; // all in flight; their MoveBee commits clear `owned`
        }
        let mut draining: Vec<u32> = self.draining_peers.iter().map(|h| h.0).collect();
        draining.push(self.cfg.id.0);
        draining.sort_unstable();
        let cfg = OptimizerConfig {
            min_messages: 0,
            draining,
            ..OptimizerConfig::default()
        };
        let plans = plan_migrations(&loads, &occupancy, &cfg);
        let mut placed: HashSet<BeeId> = HashSet::new();
        for p in &plans {
            placed.insert(p.bee);
            *occupancy.entry(p.to.0).or_insert(0) += 1;
        }
        let survivors: Vec<HiveId> = self
            .cfg
            .all_hives
            .iter()
            .copied()
            .filter(|&h| h != self.cfg.id && !self.draining_peers.contains(&h))
            .collect();
        let me = self.cfg.id;
        for p in plans {
            self.request_migration(&p.app, p.bee, me, p.to);
        }
        if survivors.is_empty() {
            return; // nothing left to evacuate onto; drain stalls until a peer appears
        }
        for (app, bee) in loads
            .into_iter()
            .filter(|l| !placed.contains(&l.bee))
            .map(|l| (l.app, l.bee))
        {
            let to = survivors
                .iter()
                .copied()
                .min_by_key(|h| (occupancy.get(&h.0).copied().unwrap_or(0), h.0))
                .expect("survivors is non-empty");
            *occupancy.entry(to.0).or_insert(0) += 1;
            self.request_migration(&app, bee, me, to);
        }
    }

    /// (Re-)sends the pending membership request toward the registry
    /// leader. A joiner with no leader hint asks every configured peer —
    /// whoever leads proposes the change, the rest forward or drop it.
    fn flush_membership_request(&mut self, now: u64) {
        let Some((op, last, attempts)) = self.pending_membership else {
            return;
        };
        if last != 0 && now.saturating_sub(last) < self.cfg.pending_retry_ms {
            return;
        }
        if op == MembershipOp::RemoveRequest && attempts >= MAX_REMOVE_ATTEMPTS {
            // The cluster may already have removed (and forgotten) us and
            // the final ack was lost: assume the removal committed and
            // depart rather than retry forever.
            self.pending_membership = None;
            self.lifecycle.set(LifecycleStage::Departed);
            self.events.record(
                EventKind::MembershipChange,
                "departure assumed after unanswered remove requests".to_string(),
            );
            return;
        }
        self.pending_membership = Some((op, now.max(1), attempts + 1));
        let msg = ControlMsg::MembershipChange {
            node: self.cfg.id,
            addr: self.advertise_addr.clone(),
            op,
        };
        match self.registry.leader_hint() {
            Some(l) if HiveId::from_raft(l) != self.cfg.id => {
                self.send_control(HiveId::from_raft(l), &msg);
            }
            _ => {
                let peers: Vec<HiveId> = self
                    .cfg
                    .all_hives
                    .iter()
                    .copied()
                    .filter(|&h| h != self.cfg.id)
                    .collect();
                for p in peers {
                    self.send_control(p, &msg);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Reconciliation with the registry mirror
    // ------------------------------------------------------------------

    /// Compares the bees one applied entry touched with the mirror: the
    /// routed bee and the losers it absorbed, a moved bee, a removed bee.
    fn reconcile_entry(&mut self, event: &RegistryEvent) {
        let me = self.cfg.id;
        let (app, bee, routed, inbound, losers) = match event {
            RegistryEvent::Routed {
                app, bee, merged, ..
            } => {
                let inbound = merged.iter().filter(|(_, h)| *h != me);
                let inbound = inbound.map(|&(l, _)| l).collect();
                (app, *bee, true, inbound, merged.as_slice())
            }
            RegistryEvent::Moved { app, bee, from, to } => {
                let inbound = Vec::from_iter((*to == me && *from != me).then_some(*bee));
                (app, *bee, false, inbound, &[][..])
            }
            RegistryEvent::Removed { app, bee, .. } => (app, *bee, false, Vec::new(), &[][..]),
            RegistryEvent::Rejected { .. } => return,
        };
        let Some(&ai) = self.app_idx.get(app) else {
            return;
        };
        for &(loser, _) in losers {
            self.reconcile(ai, loser, Touch::default());
        }
        self.reconcile(ai, bee, Touch { routed, inbound });
    }

    /// A registry snapshot replaced the mirror, so no entry says what
    /// changed: release every pending route the mirror now resolves, then
    /// compare every local bee and every bee the mirror places here with
    /// it. `before`, the mirror the snapshot replaced, tells which state is
    /// on its way here: a bee's own if it placed the bee on another hive, a
    /// loser's if it placed the loser on another hive.
    fn reconcile_snapshot(&mut self, before: RegistryState) {
        let seqs: Vec<u64> = self.pending.keys().copied().collect();
        for seq in seqs {
            let resolved = self.pending.get(&seq).and_then(|p| {
                let (app, cells) = p.route()?;
                self.registry_view().lookup_exact(app, cells)
            });
            if let Some((bee, hive)) = resolved {
                self.release_pending_route(seq, bee, hive);
            }
        }
        let me = self.cfg.id;
        let elsewhere = |bee| before.hive_of(bee).is_some_and(|h| h != me);
        for ai in 0..self.queens.len() {
            let app = self.apps[ai].name().as_str();
            let local = self.queens[ai].bee_ids().into_iter();
            let mut bees: BTreeMap<BeeId, Touch> = local.map(|b| (b, Touch::default())).collect();
            let view = self.registry.state_machine().bees();
            for (&bee, rec) in view.filter(|(_, r)| r.hive == me && r.app == app) {
                let known = before.bee(bee).map(|r| &r.absorbed);
                let fresh = rec.absorbed.iter().copied();
                let fresh = fresh.filter(|l| known.is_none_or(|k| !k.contains(l)));
                let inbound = &mut bees.entry(bee).or_default().inbound;
                inbound.extend(fresh.chain([bee]).filter(|&b| elsewhere(b)));
            }
            for (bee, touch) in bees {
                self.reconcile(ai, bee, touch);
            }
        }
    }

    /// Does what the mirror implies for bee `bee` of app `ai`: a bee placed
    /// on another hive is handed off there; one placed here is hosted
    /// ([`Hive::host`]); a merged-away loser ships to the bee that absorbed
    /// it; a bee the mirror no longer has is dropped.
    fn reconcile(&mut self, ai: usize, bee: BeeId, touch: Touch) {
        let view = self.registry.state_machine();
        match view.hive_of(bee) {
            Some(at) if at != self.cfg.id => {
                if self.queens[ai].bee(bee).is_some() {
                    // Its `MoveBee`, if still pending, is settled: re-proposed
                    // it would commit a stale move.
                    self.pending.retain(
                        |_, p| !matches!(p.cmd.op, RegistryOp::MoveBee { bee: b, .. } if b == bee),
                    );
                    self.finish_migration_out(ai, bee, at);
                }
            }
            Some(_) => self.host(ai, bee, touch),
            None => match view.merged_into(bee) {
                Some(winner) => self.ship_loser(ai, bee, winner),
                None => {
                    // Hive-local singletons have no registry record.
                    if self.queens[ai].bee(bee).is_some_and(|b| !b.pinned) {
                        self.queens[ai].remove(bee);
                    }
                }
            },
        }
    }

    /// The mirror places `bee` here. Its own state, if shipped here and
    /// parked, is adopted; if this hive is recovering it, the local shadow
    /// is promoted. A bee an entry routed to is materialized with its
    /// registry colony. It then waits for each bee in `touch.inbound`
    /// whose state is not here yet, and absorbs every parked shipment the
    /// mirror places with it.
    fn host(&mut self, ai: usize, bee: BeeId, touch: Touch) {
        let name = self.apps[ai].name();
        let recovering = !self.recovering.is_empty() && !self.queens[ai].is_parked(bee, bee);
        if recovering && self.recovering.remove(&(name.to_string(), bee)) {
            let app = name.to_string();
            let shadow = self.shadows.take(&app, bee).unwrap_or_default();
            let colony = self.registry_view().colony_of(bee);
            self.queens[ai].promote_shadow(bee, shadow.state, colony, shadow.seq);
            self.counters.failovers += 1;
            self.events.record_full(
                EventKind::MigrationCommit,
                0,
                &app,
                Some(bee),
                None,
                "failover: promoted local shadow",
            );
        } else if touch.inbound.contains(&bee) {
            if let Some(applied) = self.queens[ai].expect(bee, bee) {
                self.shipment_applied(ai, applied);
                self.schedule(ai, bee);
            }
        }
        if touch.routed {
            let colony = self.registry_view().colony_of(bee);
            self.queens[ai].ensure_bee(bee, colony);
        }
        for &from in touch.inbound.iter().filter(|&&from| from != bee) {
            if let Some(applied) = self.queens[ai].expect(bee, from) {
                self.shipment_applied(ai, applied);
            }
        }
        self.adopt_placed(ai, bee);
        if touch.routed {
            self.schedule(ai, bee);
            let cells = self.queens[ai]
                .bee(bee)
                .map_or(0, |b| b.colony.len() as u64);
            self.instr.lock().bee_cells.insert(bee.0, cells);
        }
    }

    /// Absorbs every shipment parked for `bee` that the mirror places with
    /// it: its own state once the mirror places it here, a loser's once the
    /// mirror shows it absorbed by `bee`.
    fn adopt_placed(&mut self, ai: usize, bee: BeeId) {
        let view = self.registry.state_machine();
        let Some(rec) = view.bee(bee).filter(|r| r.hive == self.cfg.id) else {
            return;
        };
        let placed: Vec<BeeId> = self.queens[ai]
            .parked_for(bee)
            .filter(|from| *from == bee || rec.absorbed.contains(from))
            .collect();
        for from in placed {
            if let Some(applied) = self.queens[ai].expect(bee, from) {
                self.shipment_applied(ai, applied);
            }
        }
    }

    /// `loser` was merged into `winner`. If it lives here, its state ships
    /// to the winner's hive and its mail is re-aimed at the winner.
    fn ship_loser(&mut self, ai: usize, loser: BeeId, winner: BeeId) {
        let Some(to) = self.registry_view().hive_of(winner) else {
            return;
        };
        let Some((state, mail)) = self.queens[ai].remove_loser(loser) else {
            return;
        };
        self.counters.merges += 1;
        let app = self.apps[ai].name().to_string();
        let state = state.snapshot().expect("loser state snapshots");
        self.ship(
            to,
            ControlMsg::MergeState {
                app: app.clone(),
                winner,
                loser,
                state,
            },
        );
        for (h, mut env) in mail {
            env.dst = Dst::Bee {
                app: app.clone(),
                bee: winner,
                handler: Some(h),
                fence: self.applied_seq,
            };
            self.dispatch_queue.push_back(env);
        }
    }

    // ------------------------------------------------------------------
    // Control protocol
    // ------------------------------------------------------------------

    /// Hands `from`'s state, shipped by `sender`, to local bee `bee`'s
    /// queen; if the bee took it, books it and schedules the bee. A
    /// shipment the bee was not waiting for is parked, and absorbed at once
    /// if the mirror already places it with the bee (this hive learned so
    /// from a registry snapshot).
    fn receive(
        &mut self,
        sender: HiveId,
        app: &str,
        (bee, from): (BeeId, BeeId),
        state: &[u8],
        colony: Vec<Cell>,
        repl_seq: u64,
    ) {
        let Some(&ai) = self.app_idx.get(app) else {
            return;
        };
        let Ok(state) = BeeState::from_snapshot(state) else {
            self.note_decode_error(Some(sender));
            return;
        };
        let shipment = Shipment {
            sender,
            state,
            colony,
            repl_seq,
        };
        match self.queens[ai].receive(bee, from, shipment) {
            Some(applied) => {
                self.shipment_applied(ai, applied);
                self.schedule(ai, bee);
            }
            None => self.adopt_placed(ai, bee),
        }
    }

    /// Queues local bee `bee` on the run queue if it can run.
    fn schedule(&mut self, ai: usize, bee: BeeId) {
        if self.queens[ai].bee(bee).is_some_and(|b| b.runnable()) {
            self.run_queue.push_back((ai, bee));
        }
    }

    /// Books a shipment a queen absorbed. A migration counts in and is
    /// logged. A merge counts its key collisions, and counts as a merge
    /// this hive took part in when another hive shipped the loser.
    fn shipment_applied(&mut self, ai: usize, a: Applied) {
        if a.from == a.bee {
            self.counters.migrations_in += 1;
            self.events.record_full(
                EventKind::MigrationCommit,
                0,
                self.apps[ai].name(),
                Some(a.bee),
                Some(a.sender),
                "shipped state applied",
            );
        } else {
            self.counters.merge_collisions += a.conflicts as u64;
            if a.sender != self.cfg.id {
                self.counters.merges += 1;
            }
        }
    }

    fn handle_control(&mut self, from: HiveId, msg: ControlMsg) {
        match msg {
            ControlMsg::RegistryForward(cmd) => {
                // We may be the leader — or know who is.
                self.submit_cmd(cmd);
            }
            ControlMsg::RequestMigration { app, bee, to } => {
                let Some(&ai) = self.app_idx.get(&app) else {
                    return;
                };
                if to == self.cfg.id {
                    return; // already here (or a stale order)
                }
                if self.draining_peers.contains(&to) {
                    // A stale placement order racing the drain announcement:
                    // never migrate onto a hive that is leaving.
                    self.events.record_full(
                        EventKind::MigrationAbort,
                        0,
                        &app,
                        Some(bee),
                        Some(to),
                        "destination hive is draining",
                    );
                    return;
                }
                if let Some((state, colony, repl_seq)) = self.queens[ai].start_migration(bee, to) {
                    self.events.record_full(
                        EventKind::MigrationStart,
                        0,
                        &app,
                        Some(bee),
                        Some(to),
                        "shipping state to destination",
                    );
                    self.ship(
                        to,
                        ControlMsg::MigrateState {
                            app: app.clone(),
                            bee,
                            state,
                            colony,
                            repl_seq,
                        },
                    );
                    self.submit_tracked(RegistryOp::MoveBee { bee, to }, Vec::new());
                } else {
                    self.events.record_full(
                        EventKind::MigrationAbort,
                        0,
                        &app,
                        Some(bee),
                        Some(to),
                        "bee unknown, inactive or already migrating",
                    );
                }
            }
            ControlMsg::MigrateState {
                app,
                bee,
                state,
                colony,
                repl_seq,
            } => self.receive(from, &app, (bee, bee), &state, colony, repl_seq),
            // The merge's registry entry gave the winner the loser's cells.
            ControlMsg::MergeState {
                app,
                winner,
                loser,
                state,
            } => self.receive(from, &app, (winner, loser), &state, Vec::new(), 0),
            ControlMsg::ReplicateTx {
                app,
                bee,
                seq,
                journal,
            } => {
                let journal = match beehive_wire::from_slice::<crate::state::TxJournal>(&journal) {
                    Ok(j) => j,
                    Err(_) => {
                        self.note_decode_error(Some(from));
                        return;
                    }
                };
                match self.shadows.apply(&app, bee, seq, &journal) {
                    ApplyOutcome::Applied | ApplyOutcome::Stale => {}
                    ApplyOutcome::NeedSync => {
                        self.send_control(from, &ControlMsg::ReplicaSyncRequest { app, bee });
                    }
                }
            }
            ControlMsg::ReplicaSyncRequest { app, bee } => {
                let Some(&ai) = self.app_idx.get(&app) else {
                    return;
                };
                let Some(local) = self.queens[ai].bee(bee) else {
                    return;
                };
                let Ok(state) = local.state.snapshot() else {
                    return;
                };
                let seq = local.repl_seq;
                self.send_control(
                    from,
                    &ControlMsg::ReplicaSyncState {
                        app,
                        bee,
                        seq,
                        state,
                    },
                );
            }
            ControlMsg::ReplicaSyncState {
                app,
                bee,
                seq,
                state,
            } => {
                let Ok(state) = BeeState::from_snapshot(&state) else {
                    self.note_decode_error(Some(from));
                    return;
                };
                self.shadows.install(&app, bee, seq, state);
            }
            ControlMsg::ChannelAck { ack_epoch, upto } => {
                self.channels.on_ack(from, ack_epoch, upto);
            }
            ControlMsg::TraceQuery { query_id, trace_id } => {
                let spans = self.tracer.spans_for(trace_id);
                self.send_control(
                    from,
                    &ControlMsg::TraceReply {
                        query_id,
                        trace_id,
                        spans,
                    },
                );
            }
            ControlMsg::TraceReply {
                query_id, spans, ..
            } => {
                self.trace_hub.add_reply(query_id, spans);
            }
            ControlMsg::MembershipChange { node, addr, op } => {
                self.on_membership_msg(from, node, addr, op);
            }
        }
    }

    // ------------------------------------------------------------------
    // Bee execution
    // ------------------------------------------------------------------

    /// Runs the bee's next message through [`run_message`] and applies what
    /// it asked for. One message per run-queue turn keeps the round-robin
    /// interleaving across bees that the chaos digests pin. Returns messages
    /// processed.
    fn run_inline(&mut self, app_idx: usize, bee_id: BeeId, now: u64) -> usize {
        let Some(bee) = self.queens[app_idx].bee_mut(bee_id) else {
            return 0;
        };
        // Quarantined: leave the backlog queued; the cooldown timer
        // re-queues the bee for its half-open probe.
        if !bee.runnable() || bee.is_quarantined(now) {
            return 0;
        }
        let mail = bee.mailbox.pop_front().expect("runnable bee has mail");
        let pinned = bee.pinned;
        let mut effects = std::mem::take(&mut self.effects);
        run_message(
            &RunEnv {
                app: &self.apps[app_idx],
                hive: self.cfg.id,
                bee: bee_id,
                pinned,
                now_ms: now,
                replicate: self.cfg.replication_factor > 1,
                tracer: &self.tracer,
                faults: &self.faults,
            },
            &mut bee.state,
            &bee.colony,
            &mut bee.repl_seq,
            &mail,
            &self.instr,
            &mut effects,
        );
        self.apply_effects(app_idx, bee_id, pinned, &mut effects, now);
        self.effects = effects;
        1
    }

    /// Turns what [`run_message`] returned into hive actions — the only
    /// code that does — and leaves `effects` empty, its buffers kept for the
    /// next run. The bee is back in its queen by the time this runs.
    fn apply_effects(
        &mut self,
        app_idx: usize,
        bee: BeeId,
        pinned: bool,
        effects: &mut Effects,
        now: u64,
    ) {
        // Supervision: route a failure (redelivery or dead-letter) and feed
        // the run's outcome to the bee's circuit breaker. A re-map is
        // neither: the breaker ignores it and the failure counters never
        // see it.
        let failure = effects.failure.take();
        let remap = effects.remap.take();
        let outcome = match (&failure, &remap) {
            (Some(_), _) => Outcome::Failed,
            (None, Some(_)) => Outcome::Remapped,
            (None, None) => Outcome::Ok,
        };
        if outcome == Outcome::Ok {
            self.counters.handled_ok += 1;
        }
        if let Some(f) = failure {
            self.counters.handler_errors += 1;
            self.handle_failed_delivery(
                app_idx, bee, f.hidx, &f.handler, f.env, f.kind, f.detail, now,
            );
        }
        self.apply_outcome(app_idx, bee, outcome, now);
        if let Some(r) = remap {
            self.remap(app_idx, bee, r);
        }

        // Requeue whenever mail remains: a run takes one message.
        if self.queens[app_idx]
            .bee(bee)
            .is_some_and(|b| !b.mailbox.is_empty())
        {
            self.run_queue.push_back((app_idx, bee));
        }

        // The handler's outputs.
        self.dispatch_queue.extend(effects.outbox.drain(..));
        for (to, cmsg) in std::mem::take(&mut effects.control_out) {
            self.send_control(to, &cmsg);
        }
        if let Some((seq, journal)) = effects.replicate.take() {
            let tx = ControlMsg::ReplicateTx {
                app: self.apps[app_idx].name().to_string(),
                bee,
                seq,
                journal,
            };
            for replica in replicas_of(
                self.cfg.id,
                &self.cfg.all_hives,
                self.cfg.replication_factor,
            ) {
                self.counters.replicated_txs += 1;
                self.send_control(replica, &tx);
            }
        }
        // Colony garbage collection: a retired bee with empty state and an
        // idle mailbox is removed from the registry (the queen drops it once
        // the mirror no longer has it).
        if std::mem::take(&mut effects.retire) && !pinned {
            let empty_and_idle = self.queens[app_idx]
                .bee(bee)
                .is_some_and(|b| b.state.total_entries() == 0 && b.mailbox.is_empty());
            if empty_and_idle {
                self.submit_tracked(RegistryOp::RemoveBee { bee }, Vec::new());
            }
        }
    }

    /// Re-routes a message whose handler touched `r.cell` outside `bee`'s
    /// colony through [`Hive::route_cells`], with that cell added to the
    /// handler's mapped cells, so the registry settles who owns it (lookup,
    /// extend or merge) before anything commits. The bee's mailbox keeps
    /// its place behind it.
    fn remap(&mut self, app_idx: usize, bee: BeeId, r: Remap) {
        let app = &self.apps[app_idx];
        self.counters.remaps += 1;
        let msg_type = r.env.msg.type_name();
        let detail = format!("{msg_type} touched {} outside its map", r.cell);
        let trace = r.env.trace.trace_id;
        self.events
            .record_full(EventKind::Remap, trace, app.name(), Some(bee), None, detail);
        let mut cells = match app.map(r.hidx, r.env.msg.as_ref()) {
            Mapped::Cells(cells) => cells,
            // Broadcast and direct deliveries name no cells: they were
            // handed the bee's colony.
            _ => self.registry_view().colony_of(bee),
        };
        cells.push(if app.is_monolithic(&r.cell.dict) {
            Cell::whole(r.cell.dict)
        } else {
            r.cell
        });
        let queued: Vec<(u16, Envelope)> = self.queens[app_idx]
            .bee_mut(bee)
            .map(|b| b.mailbox.drain(..).collect())
            .unwrap_or_default();
        let parked = self
            .route_cells(app_idx, Some(r.hidx), cells, Some(r.env))
            .and_then(|seq| self.pending.get_mut(&seq));
        match parked {
            Some(p) => p.waiting.extend(queued),
            // Routed at once: the mail goes back behind it.
            None => {
                for (h, env) in queued {
                    self.queens[app_idx].deliver(bee, h, env);
                }
            }
        }
    }
}

impl std::fmt::Debug for Hive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hive")
            .field("id", &self.cfg.id)
            .field("apps", &self.apps.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}
