//! Reliable inter-hive channels: per-peer sequencing, cumulative acks,
//! timeout-driven retransmission, and receiver-side dedup.
//!
//! The wire layer underneath ([`crate::transport`], `beehive_net`) is
//! fire-and-forget: the sim fabric injects drop/duplicate/reorder faults and
//! the TCP transport defers frames to dead peers. This module upgrades
//! what must arrive to *at-least-once with dedup* — effectively-once per
//! channel. It carries opaque [`crate::message::WireEnvelope`] bytes of two
//! kinds: relayed application messages, and state shipments
//! (`MigrateState`/`MergeState`, see
//! [`crate::control::ControlMsg::encode_shipment`]), which the hive tells
//! apart after delivery. Control messages whose protocol
//! recovers a loss bypass it (DESIGN.md §3.11).
//!
//! * Every outbound envelope toward a peer gets a monotonically increasing
//!   per-peer sequence number and sits in a resend buffer until the peer's
//!   cumulative ack covers it. Retransmission is timeout-driven, reusing the
//!   deterministic exponential backoff shape from [`crate::supervision`].
//! * Acks are cumulative (`upto` = highest contiguous delivered sequence)
//!   and piggybacked on return data traffic; when a receiver has no return
//!   traffic, a standalone ack frame is flushed after a small coalescing
//!   delay, so an N-message one-way burst produces O(1) ack frames.
//! * The receiver tracks `(last_delivered, seen_ahead)` per peer: duplicated
//!   and reordered frames are absorbed exactly once. Out-of-order frames are
//!   delivered immediately (bee handlers order on the dispatcher queue, not
//!   on sequence numbers) and the contiguous prefix advances as gaps fill.
//! * Each sender incarnation is identified by an *epoch*. A durable restart
//!   (journal present) resumes the old epoch and sequence space; an amnesiac
//!   restart mints a fresh, larger epoch, telling receivers to reset their
//!   dedup state instead of suppressing the new incarnation's low sequences.
//!
//! When the hive has a storage directory, a durable outbox journal
//! ([`crate::outbox`]) underlies the channel. The channel only *stages* its
//! records; the hive writes them with one [`ReliableChannels::commit`] before
//! a step's first handler runs and before the step's frames reach the
//! transport, so sends are on disk before they are on the wire and
//! deliveries before their handler runs. A crash-restart therefore replays
//! unacked envelopes and suppresses redeliveries of already-handled ones.
//! The only messages a crash can still lose are those sitting in the
//! dispatcher queue mid-handler at crash time — exactly what the chaos crash
//! ledger budgets for.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use beehive_raft::FsyncPolicy;

use crate::events::{EventJournal, EventKind};
use crate::id::{BeeId, HiveId};
use crate::outbox::{JournalEntry, Outbox, OutboxState, SendRef};
use crate::supervision::backoff_delay_ms;

/// Compact the journal after this many incremental appends.
const COMPACT_EVERY: u64 = 1024;

/// Strictly above every epoch this process has minted or restored. An
/// amnesiac restart must present receivers with a *larger* epoch than its
/// previous incarnation, or its low sequences are suppressed as duplicates
/// (equal epoch) or ghosted entirely (lower epoch). `now_ms` alone cannot
/// guarantee that when the restart lands in the same millisecond, the sim
/// clock has not advanced, or the wall clock regressed — so fresh epochs
/// also clear this floor. Across *processes* the guarantee still rests on a
/// monotonic wall clock; restarts faster than one tick of it need a storage
/// dir (durable restarts resume their journaled epoch and raise the floor).
static EPOCH_FLOOR: AtomicU64 = AtomicU64::new(0);

/// Mints a fresh incarnation epoch: `now_ms`, bumped past the floor.
fn mint_epoch(now_ms: u64) -> u64 {
    let prev = EPOCH_FLOOR
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
            Some(now_ms.max(1).max(cur + 1))
        })
        .expect("update closure never declines");
    now_ms.max(1).max(prev + 1)
}

/// Tuning knobs. A hive sets `resend_ms` from `HiveConfig::channel_resend_ms`
/// and takes the rest from [`ChannelTuning::default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTuning {
    /// Base retransmission timeout in ms (exponential backoff on top).
    pub resend_ms: u64,
    /// How many unacked entries per peer the retransmit scan covers.
    pub window: usize,
    /// Coalescing delay before a standalone ack frame is flushed.
    pub ack_flush_ms: u64,
}

impl Default for ChannelTuning {
    fn default() -> Self {
        ChannelTuning {
            resend_ms: 200,
            window: 1024,
            ack_flush_ms: 5,
        }
    }
}

/// The channel-layer frame wrapping a serialized
/// [`crate::message::WireEnvelope`]. Travels as `FrameKind::App` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelFrame {
    /// Sender's channel epoch (incarnation id).
    pub epoch: u64,
    /// Per-peer monotonic sequence number (starts at 1).
    pub seq: u64,
    /// Epoch the piggybacked ack refers to (0 = no ack).
    pub ack_epoch: u64,
    /// Cumulative ack: every sequence `<= ack` of `ack_epoch` was delivered.
    pub ack: u64,
    /// The serialized application envelope.
    pub env: Vec<u8>,
}

beehive_wire::wire_struct!(ChannelFrame {
    epoch,
    seq,
    ack_epoch,
    ack,
    env: bytes
});

impl ChannelFrame {
    /// The wire bytes of a frame around a borrowed envelope. A struct is the
    /// concatenation of its fields on the wire, so this is
    /// `to_vec(&ChannelFrame { .. })` without owning `env`.
    fn encode(epoch: u64, seq: u64, ack_epoch: u64, ack: u64, env: &[u8]) -> Vec<u8> {
        beehive_wire::to_vec(&(epoch, seq, ack_epoch, ack, beehive_wire::Bytes(env)))
            .expect("channel frame serializes")
    }
}

/// Outcome of feeding a received frame through the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelDelivery {
    /// First delivery of this sequence: hand the envelope to the dispatcher.
    Deliver(Vec<u8>),
    /// Duplicate (retransmission or fabric dup) — already delivered once.
    Duplicate,
    /// The payload did not decode as a [`ChannelFrame`].
    Malformed,
}

/// Retransmissions and standalone acks due now, produced by
/// [`ReliableChannels::poll`].
#[derive(Debug, Default)]
pub struct ChannelWork {
    /// Encoded [`ChannelFrame`]s to re-send as `FrameKind::App`.
    pub retransmits: Vec<(HiveId, Vec<u8>)>,
    /// Standalone cumulative acks `(peer, ack_epoch, upto)` to send as
    /// control messages.
    pub acks: Vec<(HiveId, u64, u64)>,
}

/// Cumulative channel statistics (audited by the chaos invariants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Envelopes sequenced toward peers (Σ per-peer `next_seq - 1`).
    pub sent: u64,
    /// Envelopes delivered exactly once from peers (contiguous prefix +
    /// out-of-order deliveries + deliveries retired by epoch resets).
    pub delivered: u64,
    /// Frames retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Duplicate frames suppressed by receiver dedup.
    pub dups_suppressed: u64,
    /// Standalone ack frames emitted (piggybacked acks not counted).
    pub acks_sent: u64,
    /// Unacked envelopes currently buffered for resend, across all peers.
    pub outbox_depth: u64,
    /// Unacked envelopes abandoned because their peer left the cluster
    /// ([`ReliableChannels::retire_peer`]). These were counted in `sent` but
    /// will never be delivered; the hive dead-letters them instead, and the
    /// conservation audit subtracts them from in-transit.
    pub expired: u64,
}

/// One unacked envelope in a peer's resend buffer.
#[derive(Debug)]
struct Unacked {
    seq: u64,
    env: Vec<u8>,
    /// Last transmission time; 0 for journal-replayed entries so the first
    /// poll retransmits immediately.
    sent_ms: u64,
    /// Transmission attempts so far (drives the backoff exponent).
    attempts: u32,
}

#[derive(Debug, Default)]
struct PeerSend {
    /// Next sequence to assign (starts at 1).
    next_seq: u64,
    /// Highest contiguous acked sequence.
    acked: u64,
    /// Unacked envelopes in sequence order.
    unacked: VecDeque<Unacked>,
}

#[derive(Debug, Default)]
struct PeerRecv {
    /// The sender epoch this state tracks.
    epoch: u64,
    /// Contiguous delivered prefix (cumulative ack value).
    last_delivered: u64,
    /// Out-of-order sequences already delivered.
    seen_ahead: BTreeSet<u64>,
    /// Deliveries under earlier epochs of this peer (keeps `delivered`
    /// monotonic across amnesiac sender restarts).
    retired: u64,
    /// When a pending standalone ack must flush (coalescing deadline).
    ack_due: Option<u64>,
}

/// Per-hive reliable channel state, one instance owned by the `Hive`.
#[derive(Debug)]
pub struct ReliableChannels {
    id: HiveId,
    epoch: u64,
    tuning: ChannelTuning,
    send: BTreeMap<u32, PeerSend>,
    recv: BTreeMap<u32, PeerRecv>,
    journal: Option<Outbox>,
    retransmits: u64,
    dups_suppressed: u64,
    acks_sent: u64,
    /// Sent/delivered counters of peers retired by membership removal, kept
    /// so the cumulative stats stay monotonic after their per-peer state is
    /// dropped.
    retired_sent: u64,
    retired_delivered: u64,
    /// Unacked envelopes abandoned by [`ReliableChannels::retire_peer`].
    expired: u64,
    /// Flight-recorder journal for epoch-mint and compaction events.
    /// `None` for bare channels (unit tests).
    events: Option<Arc<EventJournal>>,
    /// Whether this incarnation's epoch was freshly minted (as opposed to
    /// restored from a durable journal) — reported by the
    /// [`ReliableChannels::set_events`] mint event.
    minted_fresh: bool,
    /// Set when the outbox journal exists but failed checksum validation
    /// (interior corruption). The hive polls this right after construction
    /// and fail-stops: running in memory on top of a corrupt journal would
    /// re-deliver envelopes the old incarnation already acked.
    storage_fault: Option<String>,
    /// Torn tail records truncated during this incarnation's recovery.
    torn_truncations: u64,
}

impl ReliableChannels {
    /// Creates the channel state for hive `id`. With a `storage_dir`, the
    /// outbox journal `hive-{id}.outbox` inside it is replayed (durable
    /// restart: same epoch, unacked sends re-buffered, dedup state
    /// restored). Without one — or if the journal cannot be opened — the
    /// channel runs in memory with a fresh epoch: `now_ms`, bumped past
    /// every epoch this process has already minted or restored so a new
    /// incarnation is always strictly newer in receivers' eyes. The journal
    /// syncs every rewrite ([`FsyncPolicy::Always`]).
    pub fn new(
        id: HiveId,
        tuning: ChannelTuning,
        storage_dir: Option<&Path>,
        now_ms: u64,
    ) -> ReliableChannels {
        Self::with_fsync(id, tuning, storage_dir, now_ms, FsyncPolicy::Always)
    }

    /// [`ReliableChannels::new`] with an explicit fsync policy for the
    /// outbox journal.
    pub fn with_fsync(
        id: HiveId,
        tuning: ChannelTuning,
        storage_dir: Option<&Path>,
        now_ms: u64,
        fsync: FsyncPolicy,
    ) -> ReliableChannels {
        let mut journal = None;
        let mut restored = OutboxState::default();
        let mut storage_fault = None;
        if let Some(dir) = storage_dir {
            let path = dir.join(format!("hive-{}.outbox", id.0));
            match Outbox::open_with(&path, fsync) {
                Ok((ob, state)) => {
                    journal = Some(ob);
                    restored = state;
                }
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                    // Interior corruption: the journal exists but cannot be
                    // trusted. Falling back to memory would mint a fresh
                    // epoch and re-deliver history the old incarnation
                    // already acked — the hive must halt instead.
                    storage_fault = Some(e.to_string());
                }
                Err(e) => {
                    eprintln!(
                        "beehive: hive {} outbox unavailable ({e}); channel running in memory",
                        id.0
                    );
                }
            }
        }
        let fresh = restored.epoch.is_none();
        let epoch = match restored.epoch {
            Some(e) => {
                // Keep the floor above journaled epochs too, so a later
                // amnesiac restart of any hive in this process still mints
                // strictly higher.
                EPOCH_FLOOR.fetch_max(e, Ordering::Relaxed);
                e
            }
            None => mint_epoch(now_ms),
        };
        let mut ch = ReliableChannels {
            id,
            epoch,
            tuning,
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            journal,
            retransmits: 0,
            dups_suppressed: 0,
            acks_sent: 0,
            retired_sent: restored.retired_sent,
            retired_delivered: restored.retired_delivered,
            expired: restored.expired,
            events: None,
            minted_fresh: fresh,
            storage_fault,
            torn_truncations: restored.torn_truncations,
        };
        if fresh {
            ch.journal_stage(JournalEntry::Epoch { epoch });
            ch.commit();
        }
        for (peer, s) in restored.send {
            let mut ps = PeerSend {
                next_seq: s.next_seq.max(1),
                acked: s.acked,
                unacked: VecDeque::new(),
            };
            for (seq, env) in s.unacked {
                ps.unacked.push_back(Unacked {
                    seq,
                    env,
                    sent_ms: 0,
                    attempts: 0,
                });
            }
            ch.send.insert(peer, ps);
        }
        for (peer, r) in restored.recv {
            ch.recv.insert(
                peer,
                PeerRecv {
                    epoch: r.epoch,
                    last_delivered: r.last_delivered,
                    seen_ahead: r.seen_ahead,
                    retired: r.retired,
                    ack_due: None,
                },
            );
        }
        ch
    }

    /// This incarnation's channel epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Interior corruption detected in the outbox journal at recovery, if
    /// any. The hive treats this as fatal (fail-stop) right after wiring the
    /// event journal.
    pub fn storage_fault(&self) -> Option<&str> {
        self.storage_fault.as_deref()
    }

    /// Torn tail records truncated off the outbox journal during this
    /// incarnation's recovery.
    pub fn torn_truncations(&self) -> u64 {
        self.torn_truncations
    }

    /// Hands the channel the hive's event journal. The epoch is minted (or
    /// restored) in [`ReliableChannels::new`], before the journal exists, so
    /// the mint event is emitted here, once, on wiring.
    pub fn set_events(&mut self, events: Arc<EventJournal>) {
        events.record(
            EventKind::ChannelEpochMint,
            format!(
                "epoch {} ({})",
                self.epoch,
                if self.minted_fresh {
                    "freshly minted"
                } else {
                    "restored from outbox journal"
                }
            ),
        );
        if self.torn_truncations > 0 {
            events.record(
                EventKind::JournalTornTail,
                format!(
                    "outbox journal lost {} torn tail record(s) to a crash mid-append",
                    self.torn_truncations
                ),
            );
        }
        self.events = Some(events);
    }

    /// Sequences `env_bytes` toward `to`, stages its journal record, buffers
    /// it for resend, and returns the encoded [`ChannelFrame`] to put on the
    /// wire once the record is committed. A cumulative ack for `to` is
    /// piggybacked, cancelling any pending standalone ack toward that peer.
    pub fn wrap(&mut self, to: HiveId, env_bytes: Vec<u8>, now_ms: u64) -> Vec<u8> {
        let (ack_epoch, ack) = Self::piggyback_ack(&mut self.recv, to.0);
        let s = self.send.entry(to.0).or_insert_with(|| PeerSend {
            next_seq: 1,
            ..PeerSend::default()
        });
        let seq = s.next_seq;
        s.next_seq += 1;
        let bytes = ChannelFrame::encode(self.epoch, seq, ack_epoch, ack, &env_bytes);
        // Buffer before journaling: the record may trigger a compaction,
        // and the compaction snapshot is taken from in-memory state — it
        // must already contain this entry, or the rewritten journal keeps
        // the advanced next_seq while losing the payload. The record is
        // encoded out of the buffer, so the envelope is never cloned.
        // Journal-before-wire holds because the hive commits before it hands
        // the frame to the transport.
        s.unacked.push_back(Unacked {
            seq,
            env: env_bytes,
            sent_ms: now_ms,
            attempts: 1,
        });
        if let Some(journal) = self.journal.as_mut() {
            let env = &s.unacked.back().expect("just pushed").env;
            let staged = journal.stage_send(SendRef { to: to.0, seq, env });
            self.after_stage(staged);
        }
        bytes
    }

    /// Processes a received `FrameKind::App` payload: applies the
    /// piggybacked ack, then runs receiver dedup.
    pub fn on_frame(&mut self, from: HiveId, bytes: &[u8], now_ms: u64) -> ChannelDelivery {
        let frame: ChannelFrame = match beehive_wire::from_slice(bytes) {
            Ok(f) => f,
            Err(_) => return ChannelDelivery::Malformed,
        };
        if frame.ack_epoch != 0 {
            self.on_ack(from, frame.ack_epoch, frame.ack);
        }
        let r = self.recv.entry(from.0).or_insert_with(|| PeerRecv {
            epoch: frame.epoch,
            ..PeerRecv::default()
        });
        if frame.epoch < r.epoch {
            // Ghost from a dead incarnation (fabric delay across an
            // amnesiac restart): never deliver, never ack.
            self.dups_suppressed += 1;
            return ChannelDelivery::Duplicate;
        }
        if frame.epoch > r.epoch {
            // The sender restarted without its journal: reset dedup state
            // for the new incarnation, folding old deliveries into the
            // retired accumulator so `delivered` stays monotonic.
            let retired = r.last_delivered + r.seen_ahead.len() as u64;
            r.epoch = frame.epoch;
            r.last_delivered = 0;
            r.seen_ahead.clear();
            r.retired += retired;
            self.journal_stage(JournalEntry::RecvReset {
                from: from.0,
                epoch: frame.epoch,
                retired,
            });
        }
        let r = self.recv.get_mut(&from.0).expect("present");
        if frame.seq <= r.last_delivered || r.seen_ahead.contains(&frame.seq) {
            self.dups_suppressed += 1;
            // Re-ack so the sender stops retransmitting.
            Self::schedule_ack(r, now_ms, self.tuning.ack_flush_ms);
            return ChannelDelivery::Duplicate;
        }
        // First sighting: journal before the handler can run, then deliver
        // immediately (even out of order — dispatch order is a dispatcher
        // concern, dedup is ours) and advance the contiguous prefix.
        r.seen_ahead.insert(frame.seq);
        while r.seen_ahead.remove(&(r.last_delivered + 1)) {
            r.last_delivered += 1;
        }
        Self::schedule_ack(
            self.recv.get_mut(&from.0).expect("present"),
            now_ms,
            self.tuning.ack_flush_ms,
        );
        self.journal_stage(JournalEntry::Delivered {
            from: from.0,
            epoch: frame.epoch,
            seq: frame.seq,
        });
        ChannelDelivery::Deliver(frame.env)
    }

    /// Applies a cumulative ack from `from` (piggybacked or standalone).
    /// Acks for other epochs — a previous incarnation of *this* hive — are
    /// ignored.
    pub fn on_ack(&mut self, from: HiveId, ack_epoch: u64, upto: u64) {
        if ack_epoch != self.epoch {
            return;
        }
        let Some(s) = self.send.get_mut(&from.0) else {
            return;
        };
        if upto <= s.acked {
            return;
        }
        s.acked = upto;
        while s.unacked.front().is_some_and(|u| u.seq <= upto) {
            s.unacked.pop_front();
        }
        self.journal_stage(JournalEntry::Acked { to: from.0, upto });
    }

    /// Scans for due retransmissions (first `window` unacked entries per
    /// peer, deterministic exponential backoff per attempt) and due
    /// standalone acks. Retransmitted frames carry fresh piggybacked acks;
    /// a peer's owed standalone ack is taken only by a frame that is
    /// actually retransmitted to it, so a peer with nothing due still gets
    /// its standalone ack.
    pub fn poll(&mut self, now_ms: u64) -> ChannelWork {
        let mut work = ChannelWork::default();
        for (&peer, s) in self.send.iter_mut() {
            let bee = BeeId::new(self.id, peer);
            let mut ack = None;
            for u in s.unacked.iter_mut().take(self.tuning.window) {
                let wait = backoff_delay_ms(self.tuning.resend_ms, u.attempts.max(1), bee);
                if now_ms.saturating_sub(u.sent_ms) < wait {
                    continue;
                }
                u.sent_ms = now_ms;
                u.attempts = u.attempts.saturating_add(1);
                self.retransmits += 1;
                let (ack_epoch, upto) =
                    *ack.get_or_insert_with(|| Self::piggyback_ack(&mut self.recv, peer));
                work.retransmits.push((
                    HiveId(peer),
                    ChannelFrame::encode(self.epoch, u.seq, ack_epoch, upto, &u.env),
                ));
            }
        }
        for (&peer, r) in self.recv.iter_mut() {
            if r.ack_due.is_some_and(|due| due <= now_ms) {
                r.ack_due = None;
                self.acks_sent += 1;
                work.acks.push((HiveId(peer), r.epoch, r.last_delivered));
            }
        }
        work
    }

    /// True when retransmissions or standalone acks are outstanding — the
    /// hive must not park for long.
    pub fn has_pending(&self) -> bool {
        self.send.values().any(|s| !s.unacked.is_empty())
            || self.recv.values().any(|r| r.ack_due.is_some())
    }

    /// Cumulative statistics snapshot. Counters of retired peers stay folded
    /// in, so `sent`/`delivered` remain monotonic across membership changes.
    pub fn stats(&self) -> ChannelStats {
        ChannelStats {
            sent: self
                .send
                .values()
                .map(|s| s.next_seq.saturating_sub(1))
                .sum::<u64>()
                + self.retired_sent,
            delivered: self
                .recv
                .values()
                .map(|r| r.last_delivered + r.seen_ahead.len() as u64 + r.retired)
                .sum::<u64>()
                + self.retired_delivered,
            retransmits: self.retransmits,
            dups_suppressed: self.dups_suppressed,
            acks_sent: self.acks_sent,
            outbox_depth: self.send.values().map(|s| s.unacked.len() as u64).sum(),
            expired: self.expired,
        }
    }

    /// Retires all channel state toward and from `peer` after it departed
    /// the cluster, returning the serialized envelopes that were still
    /// unacked (the caller dead-letters them — they will never be
    /// delivered). Counters fold into the retirement accumulators so
    /// [`ReliableChannels::stats`] stays monotonic, and the retirement is
    /// journaled so a durable restart does not resurrect the peer.
    /// Idempotent: retiring an unknown peer returns an empty vec.
    pub fn retire_peer(&mut self, peer: HiveId) -> Vec<Vec<u8>> {
        let mut undelivered = Vec::new();
        let mut sent = 0;
        let mut expired = 0;
        if let Some(s) = self.send.remove(&peer.0) {
            sent = s.next_seq.saturating_sub(1);
            expired = s.unacked.len() as u64;
            undelivered.extend(s.unacked.into_iter().map(|u| u.env));
        }
        let delivered = match self.recv.remove(&peer.0) {
            Some(r) => r.last_delivered + r.seen_ahead.len() as u64 + r.retired,
            None => 0,
        };
        if sent == 0 && delivered == 0 {
            return undelivered;
        }
        self.retired_sent += sent;
        self.retired_delivered += delivered;
        self.expired += expired;
        self.journal_stage(JournalEntry::PeerRetired {
            peer: peer.0,
            sent,
            delivered,
            expired,
        });
        undelivered
    }

    /// The cumulative ack to piggyback toward `to`, clearing any pending
    /// standalone ack (the data frame carries it instead). Call it only for
    /// a frame that goes on the wire.
    fn piggyback_ack(recv: &mut BTreeMap<u32, PeerRecv>, to: u32) -> (u64, u64) {
        match recv.get_mut(&to) {
            Some(r) => {
                r.ack_due = None;
                (r.epoch, r.last_delivered)
            }
            None => (0, 0),
        }
    }

    /// Arms (or keeps) the coalescing deadline for a standalone ack. The
    /// deadline is never pushed later by new traffic — first-dirty wins.
    fn schedule_ack(r: &mut PeerRecv, now_ms: u64, flush_ms: u64) {
        let candidate = now_ms.saturating_add(flush_ms);
        r.ack_due = Some(r.ack_due.map_or(candidate, |d| d.min(candidate)));
    }

    /// Writes every journal record staged since the last commit with one
    /// `write(2)`. The hive calls this before a step's first handler runs
    /// and before it hands the step's frames to the transport. A failed
    /// write degrades the channel to in-memory operation (logged once).
    pub fn commit(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        if let Err(e) = journal.commit() {
            eprintln!(
                "beehive: hive {} outbox write failed ({e}); channel degrading to memory",
                self.id.0
            );
            self.journal = None;
        }
    }

    /// Stages a journal record if a journal is open.
    fn journal_stage(&mut self, entry: JournalEntry) {
        if let Some(journal) = self.journal.as_mut() {
            let staged = journal.stage(&entry);
            self.after_stage(staged);
        }
    }

    /// Follows up one staged record: a failure degrades the channel to
    /// in-memory operation (logged once); enough records since the last
    /// compaction rewrite the journal as a snapshot of the in-memory state,
    /// which supersedes whatever is still staged.
    fn after_stage(&mut self, staged: std::io::Result<()>) {
        if let Err(e) = staged {
            eprintln!(
                "beehive: hive {} outbox record could not be staged ({e}); channel degrading to memory",
                self.id.0
            );
            self.journal = None;
            return;
        }
        if self
            .journal
            .as_ref()
            .is_none_or(|j| j.appends_since_compact() < COMPACT_EVERY)
        {
            return;
        }
        let state = self.snapshot_state();
        let journal = self.journal.as_mut().expect("checked above");
        let unacked = self.send.iter().flat_map(|(&to, s)| {
            s.unacked.iter().map(move |u| SendRef {
                to,
                seq: u.seq,
                env: &u.env,
            })
        });
        match journal.compact(&state, unacked) {
            Ok(bytes) => {
                if let Some(events) = &self.events {
                    let entries =
                        state.len() + self.send.values().map(|s| s.unacked.len()).sum::<usize>();
                    events.record(
                        EventKind::OutboxCompaction,
                        format!("rewrote journal to {entries} entries ({bytes} bytes)"),
                    );
                }
            }
            Err(e) => {
                eprintln!(
                    "beehive: hive {} outbox compaction failed ({e}); channel degrading to memory",
                    self.id.0
                );
                self.journal = None;
            }
        }
    }

    /// The journal entries equivalent to the current in-memory state, less
    /// the unacked envelopes (compaction writes those out of the resend
    /// buffers).
    fn snapshot_state(&self) -> Vec<JournalEntry> {
        let mut out = vec![JournalEntry::Epoch { epoch: self.epoch }];
        if self.retired_sent != 0 || self.retired_delivered != 0 || self.expired != 0 {
            // Cumulative accumulator record; emitted before per-peer state so
            // its replay-side state removal cannot clobber a live peer 0.
            out.push(JournalEntry::PeerRetired {
                peer: 0,
                sent: self.retired_sent,
                delivered: self.retired_delivered,
                expired: self.expired,
            });
        }
        for (&to, s) in &self.send {
            out.push(JournalEntry::SendState {
                to,
                next_seq: s.next_seq,
                acked: s.acked,
            });
        }
        for (&from, r) in &self.recv {
            out.push(JournalEntry::RecvState {
                from,
                epoch: r.epoch,
                last_delivered: r.last_delivered,
                seen_ahead: r.seen_ahead.iter().copied().collect(),
                retired: r.retired,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(id: u32) -> ReliableChannels {
        ReliableChannels::new(HiveId(id), ChannelTuning::default(), None, 1)
    }

    fn deliver(ch: &mut ReliableChannels, from: u32, bytes: &[u8], now: u64) -> ChannelDelivery {
        ch.on_frame(HiveId(from), bytes, now)
    }

    #[test]
    fn in_order_delivery_then_duplicate_is_suppressed() {
        let mut a = mem(1);
        let mut b = mem(2);
        let f1 = a.wrap(HiveId(2), vec![10], 100);
        let f2 = a.wrap(HiveId(2), vec![20], 100);
        assert_eq!(
            deliver(&mut b, 1, &f1, 100),
            ChannelDelivery::Deliver(vec![10])
        );
        assert_eq!(
            deliver(&mut b, 1, &f2, 100),
            ChannelDelivery::Deliver(vec![20])
        );
        // Fabric duplicate of f1: absorbed, counted, re-ack scheduled.
        assert_eq!(deliver(&mut b, 1, &f1, 101), ChannelDelivery::Duplicate);
        let st = b.stats();
        assert_eq!(st.delivered, 2);
        assert_eq!(st.dups_suppressed, 1);
        assert_eq!(a.stats().sent, 2);
        assert_eq!(a.stats().outbox_depth, 2);
    }

    #[test]
    fn reordered_frames_deliver_once_and_ack_covers_both() {
        let mut a = mem(1);
        let mut b = mem(2);
        let f1 = a.wrap(HiveId(2), vec![1], 0);
        let f2 = a.wrap(HiveId(2), vec![2], 0);
        // Arrive out of order: both deliver immediately, exactly once.
        assert_eq!(
            deliver(&mut b, 1, &f2, 10),
            ChannelDelivery::Deliver(vec![2])
        );
        assert_eq!(
            deliver(&mut b, 1, &f1, 11),
            ChannelDelivery::Deliver(vec![1])
        );
        assert_eq!(deliver(&mut b, 1, &f2, 12), ChannelDelivery::Duplicate);
        // The standalone ack is cumulative over the collapsed prefix.
        let work = b.poll(11 + b.tuning.ack_flush_ms);
        assert_eq!(work.acks.len(), 1);
        let (peer, epoch, upto) = work.acks[0];
        assert_eq!(peer, HiveId(1));
        assert_eq!(upto, 2);
        a.on_ack(HiveId(2), epoch, upto);
        assert_eq!(a.stats().outbox_depth, 0);
        assert!(!a.has_pending());
    }

    #[test]
    fn unacked_frames_retransmit_with_growing_backoff_until_acked() {
        let mut a = mem(1);
        let _ = a.wrap(HiveId(2), vec![7], 0);
        // Too early: base backoff (200ms + jitter < 400ms) has not elapsed.
        assert!(a.poll(100).retransmits.is_empty());
        let w = a.poll(400);
        assert_eq!(w.retransmits.len(), 1);
        assert_eq!(w.retransmits[0].0, HiveId(2));
        assert_eq!(a.stats().retransmits, 1);
        // Second attempt backs off further: nothing due right away.
        assert!(a.poll(500).retransmits.is_empty());
        assert!(!a.poll(400 + 1200).retransmits.is_empty());
        // Ack clears the buffer; no more retransmissions ever.
        let epoch = a.epoch();
        a.on_ack(HiveId(2), epoch, 1);
        assert!(a.poll(100_000).retransmits.is_empty());
        assert_eq!(a.stats().outbox_depth, 0);
    }

    #[test]
    fn one_way_burst_coalesces_to_a_single_ack_frame() {
        let mut a = mem(1);
        let mut b = mem(2);
        let n = 50;
        let now = 1_000;
        for i in 0..n {
            let f = a.wrap(HiveId(2), vec![i as u8], now);
            assert!(matches!(
                deliver(&mut b, 1, &f, now),
                ChannelDelivery::Deliver(_)
            ));
        }
        // Before the flush delay: no ack frames at all.
        assert!(b.poll(now).acks.is_empty());
        // After it: exactly one cumulative ack for the whole burst.
        let work = b.poll(now + b.tuning.ack_flush_ms);
        assert_eq!(work.acks.len(), 1, "burst of {n} must coalesce to one ack");
        assert_eq!(work.acks[0].2, n);
        assert_eq!(b.stats().acks_sent, 1);
        // And it is not re-sent once flushed.
        assert!(b.poll(now + 10 * b.tuning.ack_flush_ms).acks.is_empty());
    }

    #[test]
    fn return_traffic_piggybacks_the_ack_and_cancels_the_standalone() {
        let mut a = mem(1);
        let mut b = mem(2);
        let f = a.wrap(HiveId(2), vec![9], 0);
        assert!(matches!(
            deliver(&mut b, 1, &f, 0),
            ChannelDelivery::Deliver(_)
        ));
        assert!(b.has_pending());
        // b sends data back before the flush delay elapses: the ack rides it.
        let back = b.wrap(HiveId(1), vec![4], 1);
        assert!(matches!(
            deliver(&mut a, 2, &back, 1),
            ChannelDelivery::Deliver(_)
        ));
        assert_eq!(
            a.stats().outbox_depth,
            0,
            "piggybacked ack cleared the resend buffer"
        );
        // The standalone ack was cancelled by the piggyback.
        assert!(b.poll(1_000).acks.is_empty());
        assert_eq!(b.stats().acks_sent, 0);
    }

    #[test]
    fn a_peer_sent_to_before_still_gets_a_standalone_ack() {
        let mut a = mem(1);
        let mut b = mem(2);
        // b has sent to a (and been acked), so b keeps send state toward a.
        let f = b.wrap(HiveId(1), vec![1], 0);
        assert!(matches!(
            deliver(&mut a, 2, &f, 0),
            ChannelDelivery::Deliver(_)
        ));
        let epoch = b.epoch();
        b.on_ack(HiveId(1), epoch, 1);
        // Now a sends to b, and b has nothing to send back.
        let now = 1_000;
        let f = a.wrap(HiveId(2), vec![2], now);
        assert!(matches!(
            deliver(&mut b, 1, &f, now),
            ChannelDelivery::Deliver(_)
        ));
        // A poll with no retransmission due must not swallow the owed ack.
        assert!(b.poll(now).acks.is_empty());
        let work = b.poll(now + b.tuning.ack_flush_ms);
        assert!(work.retransmits.is_empty());
        assert_eq!(work.acks, vec![(HiveId(1), a.epoch(), 1)]);
    }

    #[test]
    fn newer_epoch_resets_dedup_and_older_epoch_is_ghosted() {
        let mut b = mem(2);
        // Incarnation 1 of hive 1 delivers seq 1..=2.
        let mut a1 = ReliableChannels::new(HiveId(1), ChannelTuning::default(), None, 100);
        let f1 = a1.wrap(HiveId(2), vec![1], 100);
        let f2 = a1.wrap(HiveId(2), vec![2], 100);
        assert!(matches!(
            deliver(&mut b, 1, &f1, 100),
            ChannelDelivery::Deliver(_)
        ));
        assert!(matches!(
            deliver(&mut b, 1, &f2, 100),
            ChannelDelivery::Deliver(_)
        ));
        // Amnesiac restart: fresh epoch, sequences start over at 1 — must
        // NOT be suppressed.
        let mut a2 = ReliableChannels::new(HiveId(1), ChannelTuning::default(), None, 5_000);
        assert!(a2.epoch() > a1.epoch());
        let g1 = a2.wrap(HiveId(2), vec![3], 5_000);
        assert_eq!(
            deliver(&mut b, 1, &g1, 5_000),
            ChannelDelivery::Deliver(vec![3])
        );
        // Deliveries stay monotonic across the reset.
        assert_eq!(b.stats().delivered, 3);
        // A fabric-delayed ghost from the dead incarnation is suppressed.
        assert_eq!(deliver(&mut b, 1, &f1, 5_001), ChannelDelivery::Duplicate);
        assert_eq!(b.stats().delivered, 3);
    }

    #[test]
    fn retire_peer_returns_undelivered_and_keeps_stats_monotonic() {
        let mut a = mem(1);
        let e = a.epoch();
        let _ = a.wrap(HiveId(2), vec![1], 0);
        let _ = a.wrap(HiveId(2), vec![2], 0);
        let _ = a.wrap(HiveId(3), vec![9], 0);
        a.on_ack(HiveId(2), e, 1);
        // Receive something from peer 2 too, so recv state also retires.
        let mut b = mem(2);
        let f = b.wrap(HiveId(1), vec![7], 0);
        assert!(matches!(
            deliver(&mut a, 2, &f, 0),
            ChannelDelivery::Deliver(_)
        ));
        let before = a.stats();
        assert_eq!(before.sent, 3);
        assert_eq!(before.delivered, 1);
        let undelivered = a.retire_peer(HiveId(2));
        assert_eq!(undelivered, vec![vec![2]], "only the unacked env returns");
        let st = a.stats();
        assert_eq!(st.sent, 3, "sent stays monotonic after retirement");
        assert_eq!(st.delivered, 1, "delivered stays monotonic");
        assert_eq!(st.expired, 1);
        assert_eq!(st.outbox_depth, 1, "peer 3's buffer is untouched");
        // No retransmissions toward the retired peer ever again.
        assert!(a.poll(100_000).retransmits.iter().all(|(p, _)| p.0 == 3));
        // Idempotent. (The poll above retransmitted toward peer 3, so the
        // comparison is against the stats after it.)
        let st = a.stats();
        assert!(a.retire_peer(HiveId(2)).is_empty());
        assert_eq!(a.stats(), st);
    }

    #[test]
    fn retirement_survives_a_durable_restart() {
        let dir = tmp_dir("retire");
        let tuning = ChannelTuning::default();
        {
            let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 100);
            let _ = a.wrap(HiveId(2), vec![5], 100);
            let _ = a.wrap(HiveId(3), vec![6], 100);
            let dropped = a.retire_peer(HiveId(2));
            assert_eq!(dropped.len(), 1);
            a.commit();
        }
        let a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 9_000);
        let st = a.stats();
        assert_eq!(st.sent, 2, "retired sent restored from the journal");
        assert_eq!(st.expired, 1);
        assert_eq!(st.outbox_depth, 1, "retired peer's buffer not resurrected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let n = NONCE.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("beehive-channel-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn durable_restart_replays_unacked_sends_and_keeps_the_epoch() {
        let dir = tmp_dir("sender");
        let tuning = ChannelTuning::default();
        let epoch;
        {
            let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 300);
            epoch = a.epoch();
            let _ = a.wrap(HiveId(2), vec![11], 300);
            let _ = a.wrap(HiveId(2), vec![22], 300);
            let e = a.epoch();
            a.on_ack(HiveId(2), e, 1);
            a.commit();
            // Crash here: seq 2 journaled but unacked.
        }
        let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 9_000);
        assert_eq!(a.epoch(), epoch, "durable restart resumes the epoch");
        assert_eq!(a.stats().sent, 2);
        assert_eq!(a.stats().outbox_depth, 1);
        // The replayed entry retransmits on the first poll.
        let w = a.poll(9_000);
        assert_eq!(w.retransmits.len(), 1);
        let f: ChannelFrame = beehive_wire::from_slice(&w.retransmits[0].1).unwrap();
        assert_eq!(f.seq, 2);
        assert_eq!(f.env, vec![22]);
        assert_eq!(f.epoch, epoch);
        // New sends continue the sequence space.
        let g = a.wrap(HiveId(2), vec![33], 9_001);
        let g: ChannelFrame = beehive_wire::from_slice(&g).unwrap();
        assert_eq!(g.seq, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_restart_restores_dedup_and_suppresses_redelivery() {
        let dir = tmp_dir("receiver");
        let tuning = ChannelTuning::default();
        let mut a = mem(1);
        let f1 = a.wrap(HiveId(2), vec![5], 50);
        let f2 = a.wrap(HiveId(2), vec![6], 50);
        {
            let mut b = ReliableChannels::new(HiveId(2), tuning, Some(&dir), 50);
            assert!(matches!(
                deliver(&mut b, 1, &f1, 50),
                ChannelDelivery::Deliver(_)
            ));
            assert!(matches!(
                deliver(&mut b, 1, &f2, 50),
                ChannelDelivery::Deliver(_)
            ));
            b.commit();
            // Crash before any ack reaches hive 1.
        }
        let mut b = ReliableChannels::new(HiveId(2), tuning, Some(&dir), 7_000);
        assert_eq!(
            b.stats().delivered,
            2,
            "dedup state restored from the journal"
        );
        // Hive 1 retransmits both; the restarted hive must not double-apply.
        assert_eq!(deliver(&mut b, 1, &f1, 7_000), ChannelDelivery::Duplicate);
        assert_eq!(deliver(&mut b, 1, &f2, 7_000), ChannelDelivery::Duplicate);
        assert_eq!(b.stats().delivered, 2);
        assert_eq!(b.stats().dups_suppressed, 2);
        // It still acks them so the sender can drain.
        let w = b.poll(7_000 + tuning.ack_flush_ms);
        assert_eq!(w.acks.len(), 1);
        assert_eq!(w.acks[0].2, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn amnesiac_restart_in_the_same_millisecond_mints_a_larger_epoch() {
        let a1 = mem(1);
        // Restart with the clock frozen: the epoch must still advance, or
        // receivers suppress the new incarnation's low sequences.
        let a2 = ReliableChannels::new(HiveId(1), ChannelTuning::default(), None, 1);
        assert!(a2.epoch() > a1.epoch());
        // Even a clock regression cannot mint an equal or smaller epoch.
        let a3 = ReliableChannels::new(HiveId(1), ChannelTuning::default(), None, 0);
        assert!(a3.epoch() > a2.epoch());
    }

    #[test]
    fn compaction_mid_send_keeps_the_triggering_payload_durable() {
        // The wrap() whose journal append trips COMPACT_EVERY must itself
        // survive the compaction snapshot: with no acks at all, every
        // sequence — including the triggering one — must replay after a
        // crash, or the receiver's cumulative ack stalls below it forever.
        let dir = tmp_dir("compact-unacked");
        let tuning = ChannelTuning::default();
        let n = COMPACT_EVERY + 10;
        {
            let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 10);
            for i in 0..n {
                let _ = a.wrap(HiveId(2), vec![(i % 251) as u8], 10);
            }
            a.commit();
            // Crash with everything unacked.
        }
        let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 20);
        assert_eq!(a.stats().outbox_depth, n, "no payload lost to compaction");
        // Replayed entries have sent_ms = 0; poll well past the base
        // backoff so every windowed entry is due.
        let w = a.poll(10_000);
        assert_eq!(w.retransmits.len(), tuning.window.min(n as usize));
        for (i, (_, bytes)) in w.retransmits.iter().enumerate() {
            let f: ChannelFrame = beehive_wire::from_slice(bytes).unwrap();
            assert_eq!(f.seq, i as u64 + 1, "contiguous replay, no gap");
            assert_eq!(f.env, vec![(i as u64 % 251) as u8]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn staged_records_reach_the_journal_only_on_commit() {
        let dir = tmp_dir("staged");
        let tuning = ChannelTuning::default();
        let path = dir.join("hive-1.outbox");
        let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 10);
        // The epoch is committed at creation.
        let at_boot = std::fs::metadata(&path).unwrap().len();
        assert!(at_boot > 0);
        let _ = a.wrap(HiveId(2), vec![1], 10);
        let _ = a.wrap(HiveId(2), vec![2], 10);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), at_boot);
        a.commit();
        let committed = std::fs::metadata(&path).unwrap().len();
        assert!(committed > at_boot);
        // A crash before the next commit loses the staged send — whose
        // frame the hive never handed to the transport either.
        let _ = a.wrap(HiveId(2), vec![3], 10);
        drop(a);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 20);
        assert_eq!(a.stats().sent, 2);
        assert_eq!(a.stats().outbox_depth, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_compaction_keeps_channel_state_equivalent() {
        let dir = tmp_dir("compact");
        let tuning = ChannelTuning::default();
        {
            let mut a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 10);
            // Enough traffic to trip COMPACT_EVERY several times over.
            for i in 0..2_000u64 {
                let _ = a.wrap(HiveId(2), vec![(i % 251) as u8], 10 + i);
                let e = a.epoch();
                if i % 2 == 0 {
                    a.on_ack(HiveId(2), e, i / 2 + 1);
                }
                a.commit();
            }
        }
        let a = ReliableChannels::new(HiveId(1), tuning, Some(&dir), 99_999);
        let st = a.stats();
        assert_eq!(st.sent, 2_000);
        assert_eq!(st.outbox_depth, 2_000 - 1_000);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
