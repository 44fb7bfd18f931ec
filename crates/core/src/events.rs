//! Flight-recorder event journal: a typed, bounded ring of platform
//! lifecycle events.
//!
//! Causal traces ([`crate::trace`]) answer *"what happened to this
//! message?"*; the event journal answers *"what happened to this hive?"* —
//! bees spawning and retiring, migrations, quarantine transitions,
//! dead-letters, channel epoch mints, outbox compactions, registry Raft
//! term/leader changes and transport peer churn. Each event is stamped with
//! the hive id, the hive's virtual clock ([`crate::clock::Clock`]), a wall
//! clock for post-mortem correlation across machines, and the causal
//! `trace_id` when one is in scope.
//!
//! The journal holds one [`Ring`], like [`crate::trace::TraceCollector`]
//! and [`crate::supervision::DeadLetterStore`]; `seq` and `virt_ms` are
//! stamped under the ring's lock, so retained events are in `seq` order
//! and recording is O(1).
//! Recording is observation-only: it reads the clock and never schedules
//! work, so enabling it cannot perturb deterministic simulation replay (the
//! chaos digests are byte-identical with and without the recorder — and the
//! chaos harness audits the journal's own well-formedness via
//! [`EventJournal::malformed`]).
//!
//! An optional JSONL sink ([`EventJournal::set_sink`]) appends one JSON
//! object per event for post-mortems; the HTTP status server
//! ([`crate::introspect`]) serves the in-memory ring live at `/events`.
//!
//! The `wall_ms` stamp is taken from the OS clock and is deliberately
//! excluded from every determinism audit. `virt_ms` is non-decreasing in
//! `seq` order for any monotonic clock, concurrent emitters (the hive and
//! its reactor thread) included.

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::clock::Clock;
use crate::id::{BeeId, HiveId};
use crate::sync::{Mutex, Ring};

/// The lifecycle transition an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A bee was created on this hive (routed creation, singleton, or a
    /// placeholder waiting for shipped state).
    BeeSpawned,
    /// A bee was removed from this hive (retirement, merge-away or
    /// migration-out handoff).
    BeeRetired,
    /// This hive started shipping a bee to another hive.
    MigrationStart,
    /// A migrated bee's shipped state was applied here, or the source
    /// completed its handoff.
    MigrationCommit,
    /// A migration order could not proceed (bee missing or not movable).
    MigrationAbort,
    /// A bee's quarantine circuit breaker tripped open.
    QuarantineOpen,
    /// A quarantined bee's cooldown expired; its next message is the
    /// half-open probe.
    QuarantineHalfOpen,
    /// A probe succeeded and the breaker closed.
    QuarantineClose,
    /// A message was recorded in the dead-letter queue.
    DeadLettered,
    /// The reliable channel layer minted (or restored) its incarnation
    /// epoch.
    ChannelEpochMint,
    /// The durable outbox journal was rewritten from a state snapshot.
    OutboxCompaction,
    /// The registry Raft group moved to a new term.
    RaftTermChange,
    /// The registry Raft group elected (or learned of) a new leader.
    RaftLeaderChange,
    /// A transport connection to a peer was established (either direction).
    PeerConnect,
    /// A transport connection to a peer failed or was lost.
    PeerDisconnect,
    /// A frame was evicted from a full deferred queue (dropped before the
    /// wire).
    DeferredEvict,
    /// A replica detected a replication-sequence gap and requested a full
    /// state sync.
    ReplicaGap,
    /// Cluster membership changed: a hive joined as a learner, was promoted
    /// to voter, announced draining, was demoted, or was removed — the
    /// elastic scale-out/scale-in lifecycle.
    MembershipChange,
    /// A message addressed to a hive that has left the cluster was dropped
    /// to the dead-letter path instead of being retried forever, or a state
    /// shipment owed to it was abandoned (the event names the shipped bee).
    PeerDeparted,
    /// The registry Raft node installed a snapshot shipped by the leader
    /// (catch-up past the compaction horizon), or took one locally.
    SnapshotInstall,
    /// Durable storage failed (IO error or interior corruption). Recorded
    /// immediately before the hive fail-stops — the last entry a halted
    /// hive's flight recorder explains itself with.
    StorageFault,
    /// A journal recovery discarded a torn tail record (crash mid-append).
    /// Expected after a hard kill; benign, but counted.
    JournalTornTail,
    /// A handler touched a cell outside its bee's colony: the attempt was
    /// rolled back and the message re-mapped with that cell. The detail
    /// names the message type and the cell, i.e. which map to widen.
    Remap,
}

impl EventKind {
    /// Every kind, in declaration order (stable for exposition and tests).
    pub const ALL: [EventKind; 23] = [
        EventKind::BeeSpawned,
        EventKind::BeeRetired,
        EventKind::MigrationStart,
        EventKind::MigrationCommit,
        EventKind::MigrationAbort,
        EventKind::QuarantineOpen,
        EventKind::QuarantineHalfOpen,
        EventKind::QuarantineClose,
        EventKind::DeadLettered,
        EventKind::ChannelEpochMint,
        EventKind::OutboxCompaction,
        EventKind::RaftTermChange,
        EventKind::RaftLeaderChange,
        EventKind::PeerConnect,
        EventKind::PeerDisconnect,
        EventKind::DeferredEvict,
        EventKind::ReplicaGap,
        EventKind::MembershipChange,
        EventKind::PeerDeparted,
        EventKind::SnapshotInstall,
        EventKind::StorageFault,
        EventKind::JournalTornTail,
        EventKind::Remap,
    ];

    /// Stable snake_case label, used by the JSON exposition and metrics.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::BeeSpawned => "bee_spawned",
            EventKind::BeeRetired => "bee_retired",
            EventKind::MigrationStart => "migration_start",
            EventKind::MigrationCommit => "migration_commit",
            EventKind::MigrationAbort => "migration_abort",
            EventKind::QuarantineOpen => "quarantine_open",
            EventKind::QuarantineHalfOpen => "quarantine_half_open",
            EventKind::QuarantineClose => "quarantine_close",
            EventKind::DeadLettered => "dead_lettered",
            EventKind::ChannelEpochMint => "channel_epoch_mint",
            EventKind::OutboxCompaction => "outbox_compaction",
            EventKind::RaftTermChange => "raft_term_change",
            EventKind::RaftLeaderChange => "raft_leader_change",
            EventKind::PeerConnect => "peer_connect",
            EventKind::PeerDisconnect => "peer_disconnect",
            EventKind::DeferredEvict => "deferred_evict",
            EventKind::ReplicaGap => "replica_gap",
            EventKind::MembershipChange => "membership_change",
            EventKind::PeerDeparted => "peer_departed",
            EventKind::SnapshotInstall => "snapshot_install",
            EventKind::StorageFault => "storage_fault",
            EventKind::JournalTornTail => "journal_torn_tail",
            EventKind::Remap => "remap",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Journal-local sequence, strictly increasing from 1 (survives ring
    /// wrap: evicted events keep counting).
    pub seq: u64,
    /// The hive that recorded this event.
    pub hive: HiveId,
    /// The hive's [`crate::clock::Clock`] at recording time (virtual under
    /// simulation, monotonic-since-start in production).
    pub virt_ms: u64,
    /// OS wall clock (ms since the Unix epoch) for cross-machine
    /// correlation. Nondeterministic; never audited.
    pub wall_ms: u64,
    /// The causal trace in scope when the event fired, 0 when none.
    pub trace_id: u64,
    /// What happened.
    pub kind: EventKind,
    /// Owning application, empty when not app-scoped.
    pub app: String,
    /// The bee involved, if any.
    pub bee: Option<BeeId>,
    /// The peer hive involved, if any.
    pub peer: Option<HiveId>,
    /// Free-form context (kept short; panic payloads land here verbatim).
    pub detail: String,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline). The
    /// encoding is hand-rolled — the workspace deliberately has no JSON
    /// dependency — with full string escaping, so panic payloads containing
    /// quotes or newlines stay one line per event.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"seq\":");
        out.push_str(&self.seq.to_string());
        out.push_str(",\"hive\":");
        out.push_str(&self.hive.0.to_string());
        out.push_str(",\"virt_ms\":");
        out.push_str(&self.virt_ms.to_string());
        out.push_str(",\"wall_ms\":");
        out.push_str(&self.wall_ms.to_string());
        out.push_str(",\"trace_id\":");
        out.push_str(&self.trace_id.to_string());
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"app\":\"");
        escape_json(&self.app, &mut out);
        out.push_str("\",\"bee\":");
        match self.bee {
            Some(b) => out.push_str(&b.0.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"peer\":");
        match self.peer {
            Some(p) => out.push_str(&p.0.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"detail\":\"");
        escape_json(&self.detail, &mut out);
        out.push_str("\"}");
        out
    }
}

/// The platform's JSON string escaping (events, the chrome-trace export,
/// the dead-letter dump): quotes, backslashes and all control characters
/// are escaped (`\u00xx`), so newlines in panic payloads stay inside one
/// event line and the JSONL sink stays line-oriented.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Events a hive's [`EventJournal`] retains; older ones are evicted, the
/// recorded total keeps counting.
pub const EVENT_CAPACITY: usize = 4096;

/// A bounded ring of recent [`Event`]s with an optional JSONL sink.
pub struct EventJournal {
    hive: HiveId,
    clock: Arc<dyn Clock>,
    ring: Ring<Event>,
    sink: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

impl EventJournal {
    /// A journal for `hive` retaining up to `capacity` events (minimum 1),
    /// stamping virtual time from `clock`.
    pub fn new(hive: HiveId, capacity: usize, clock: Arc<dyn Clock>) -> Self {
        EventJournal {
            hive,
            clock,
            ring: Ring::new(capacity),
            sink: Mutex::new(None),
        }
    }

    /// The hive this journal records for.
    pub fn hive(&self) -> HiveId {
        self.hive
    }

    /// Number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Opens (appending) a JSONL post-mortem sink at `path`: every event
    /// recorded from now on is also written as one JSON line. Flushed per
    /// event — the sink exists for crash forensics, not throughput.
    pub fn set_sink(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        *self.sink.lock() = Some(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Records an event with no app/bee/peer/trace scope.
    pub fn record(&self, kind: EventKind, detail: impl Into<String>) {
        self.record_full(kind, 0, "", None, None, detail);
    }

    /// Records a fully scoped event. Stamps `seq`, virtual and wall time
    /// internally; emit sites only say what happened to whom.
    pub fn record_full(
        &self,
        kind: EventKind,
        trace_id: u64,
        app: &str,
        bee: Option<BeeId>,
        peer: Option<HiveId>,
        detail: impl Into<String>,
    ) {
        let (app, detail) = (app.to_string(), detail.into());
        // `seq` and `virt_ms` are read together under the ring's lock: two
        // emitting threads cannot interleave between them, so `virt_ms`
        // never regresses in `seq` order (and sink lines follow `seq`).
        self.ring.push_with(|seq| {
            let event = Event {
                seq,
                hive: self.hive,
                virt_ms: self.clock.now_ms(),
                wall_ms: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
                trace_id,
                kind,
                app,
                bee,
                peer,
                detail,
            };
            if let Some(sink) = self.sink.lock().as_mut() {
                let _ = writeln!(sink, "{}", event.to_json());
                let _ = sink.flush();
            }
            event
        });
    }

    /// All retained events in `seq` order (oldest first).
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring.snapshot()
    }

    /// The most recent `n` retained events, oldest of them first.
    pub fn recent(&self, n: usize) -> Vec<Event> {
        let mut events = self.snapshot();
        let skip = events.len().saturating_sub(n);
        events.drain(..skip);
        events
    }

    /// Retained events of one causal trace, in `seq` order.
    pub fn events_for_trace(&self, trace_id: u64) -> Vec<Event> {
        let mut events = self.snapshot();
        events.retain(|e| e.trace_id == trace_id);
        events
    }

    /// Counts well-formedness violations in the retained ring: a `seq` that
    /// is not strictly increasing, a `virt_ms` that regresses in `seq`
    /// order, a `hive` stamp that isn't this journal's owner, or a retained
    /// count exceeding `recorded`. Deterministic — never inspects
    /// `wall_ms` — so the chaos harness can audit the recorder itself under
    /// fault schedules.
    pub fn malformed(&self) -> u64 {
        let events = self.snapshot();
        let mut bad = 0u64;
        if events.len() as u64 > self.recorded() {
            bad += 1;
        }
        for pair in events.windows(2) {
            if pair[1].seq <= pair[0].seq {
                bad += 1;
            }
            if pair[1].virt_ms < pair[0].virt_ms {
                bad += 1;
            }
        }
        for e in &events {
            if e.hive != self.hive {
                bad += 1;
            }
        }
        bad
    }

    /// Renders events as a JSON array (one line per event, for the status
    /// server's `/events` endpoint).
    pub fn to_json_array(events: &[Event]) -> String {
        let mut out = String::from("[");
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            out.push_str(&e.to_json());
        }
        out.push_str("\n]\n");
        out
    }
}

impl fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventJournal")
            .field("hive", &self.hive)
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;

    fn journal(capacity: usize) -> (Arc<SimClock>, EventJournal) {
        let clock = Arc::new(SimClock::new());
        let j = EventJournal::new(HiveId(3), capacity, clock.clone());
        (clock, j)
    }

    #[test]
    fn ring_overwrites_oldest_but_seq_and_recorded_keep_counting() {
        let (clock, j) = journal(3);
        for i in 0..5u64 {
            clock.advance(10);
            j.record(EventKind::BeeSpawned, format!("bee {i}"));
        }
        assert_eq!(j.recorded(), 5);
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        // The survivors are the three newest, in strictly increasing seq
        // order with non-decreasing virtual time.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert!(events.windows(2).all(|p| p[1].virt_ms >= p[0].virt_ms));
        assert_eq!(events[0].detail, "bee 2");
        assert_eq!(j.malformed(), 0);
    }

    #[test]
    fn recent_returns_the_tail_in_order() {
        let (_, j) = journal(8);
        for i in 0..6u64 {
            j.record(EventKind::BeeSpawned, format!("e{i}"));
        }
        let tail = j.recent(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].detail, "e4");
        assert_eq!(tail[1].detail, "e5");
        assert_eq!(j.recent(100).len(), 6);
    }

    #[test]
    fn scoped_fields_roundtrip_and_filter_by_trace() {
        let (_, j) = journal(8);
        j.record_full(
            EventKind::DeadLettered,
            77,
            "te",
            Some(BeeId::new(HiveId(3), 9)),
            None,
            "poison",
        );
        j.record_full(
            EventKind::PeerConnect,
            0,
            "",
            None,
            Some(HiveId(2)),
            "dial ok",
        );
        let traced = j.events_for_trace(77);
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].kind, EventKind::DeadLettered);
        assert_eq!(traced[0].bee, Some(BeeId::new(HiveId(3), 9)));
        let all = j.snapshot();
        assert_eq!(all[1].peer, Some(HiveId(2)));
        assert_eq!(all[1].hive, HiveId(3));
    }

    #[test]
    fn json_escapes_quotes_newlines_and_control_chars() {
        // A panic payload with quotes, a newline and a tab must stay one
        // well-formed JSON line.
        let (_, j) = journal(4);
        j.record_full(
            EventKind::DeadLettered,
            5,
            "app\"x\"",
            Some(BeeId(42)),
            Some(HiveId(7)),
            "panicked at 'boom \"quoted\"'\nline2\ttabbed",
        );
        let json = j.snapshot()[0].to_json();
        assert!(!json.contains('\n'), "newline must be escaped: {json}");
        assert!(json.contains("\\u000a"), "{json}");
        assert!(json.contains("\\u0009"), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"app\":\"app\\\"x\\\"\""), "{json}");
        assert!(json.contains("\"kind\":\"dead_lettered\""), "{json}");
        assert!(json.contains("\"bee\":42"), "{json}");
        assert!(json.contains("\"peer\":7"), "{json}");
        assert!(json.contains("\"trace_id\":5"), "{json}");
        // Balanced braces and quotes — crude but dependency-free.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('"').count() % 2, 0, "{json}");
    }

    #[test]
    fn jsonl_sink_appends_one_line_per_event() {
        let dir = std::env::temp_dir().join(format!("beehive-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink-test.jsonl");
        let _ = std::fs::remove_file(&path);
        let (_, j) = journal(4);
        j.set_sink(&path).unwrap();
        j.record(EventKind::ChannelEpochMint, "epoch 1");
        j.record_full(
            EventKind::DeadLettered,
            0,
            "te",
            None,
            None,
            "multi\nline\npanic",
        );
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one JSON line per event:\n{text}");
        assert!(lines[0].contains("channel_epoch_mint"));
        assert!(lines[1].contains("multi\\u000aline"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_detects_seq_and_time_regressions() {
        let (clock, j) = journal(4);
        clock.advance(100);
        j.record(EventKind::BeeSpawned, "a");
        j.record(EventKind::BeeRetired, "b");
        assert_eq!(j.malformed(), 0);
        // `record` cannot produce a bad event, so hand-made ones go straight
        // into the ring: a repeated seq, then a regressed time, then a
        // foreign hive stamp.
        let good = j.snapshot()[1].clone();
        j.ring.push(Event {
            seq: 2,
            ..good.clone()
        });
        assert_eq!(j.malformed(), 1);
        j.ring.push(Event {
            seq: 4,
            virt_ms: 0,
            ..good.clone()
        });
        assert_eq!(j.malformed(), 2);
        j.ring.push(Event {
            seq: 5,
            hive: HiveId(99),
            ..good
        });
        assert_eq!(j.malformed(), 3);
    }

    /// A clock whose first reading stalls: it reports that it started, then
    /// waits for a release (at most 200 ms) before reading the time.
    struct StallingClock {
        now: SimClock,
        entered: Mutex<Option<std::sync::mpsc::Sender<()>>>,
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }

    impl Clock for StallingClock {
        fn now_ms(&self) -> u64 {
            let release = self.release.lock().take();
            if let Some(release) = release {
                let _ = self.entered.lock().take().map(|tx| tx.send(()));
                let _ = release.recv_timeout(std::time::Duration::from_millis(200));
            }
            self.now.now_ms()
        }
    }

    #[test]
    fn a_second_emitter_cannot_land_between_seq_and_time() {
        // One thread reads the clock for its event; meanwhile another
        // thread records and the clock moves on. Stamped apart, the first
        // event would get seq 1 but the later time.
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let clock = Arc::new(StallingClock {
            now: SimClock::new(),
            entered: Mutex::new(Some(entered_tx)),
            release: Mutex::new(Some(release_rx)),
        });
        let j = Arc::new(EventJournal::new(HiveId(3), 8, clock.clone()));
        let first = {
            let j = j.clone();
            std::thread::spawn(move || j.record(EventKind::PeerConnect, "stalled"))
        };
        entered_rx.recv().unwrap();
        j.record(EventKind::PeerDisconnect, "second");
        clock.now.advance(10);
        let _ = release_tx.send(());
        first.join().unwrap();
        assert_eq!(j.recorded(), 2);
        assert_eq!(j.malformed(), 0, "{:?}", j.snapshot());
    }

    #[test]
    fn kind_labels_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
        }
        assert_eq!(EventKind::ALL.len(), seen.len());
    }

    #[test]
    fn json_array_renders_all_events() {
        let (_, j) = journal(4);
        j.record(EventKind::PeerConnect, "a");
        j.record(EventKind::PeerDisconnect, "b");
        let arr = EventJournal::to_json_array(&j.snapshot());
        assert!(arr.starts_with('['));
        assert!(arr.trim_end().ends_with(']'));
        assert_eq!(arr.matches("\"kind\"").count(), 2);
    }
}
