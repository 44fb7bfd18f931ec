//! The transport abstraction connecting hives.
//!
//! `beehive-core` defines the interface and a loopback implementation;
//! `beehive-net` provides the in-memory accounted fabric used by the
//! simulator and a TCP transport for real deployments.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::id::HiveId;
use crate::sync::Mutex;

/// Category of a frame, used by transports for control-channel bandwidth
/// accounting (Figure 4d–f of the paper break down consumption over time).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum FrameKind {
    /// Application message relays (serialized [`crate::message::WireEnvelope`]).
    App,
    /// Registry Raft traffic.
    Raft,
    /// Platform control traffic (migration, merges, forwarding).
    Control,
}

/// A unit of inter-hive transmission.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Frame {
    /// Traffic category.
    pub kind: FrameKind,
    /// Serialized payload.
    pub bytes: Vec<u8>,
}

impl Frame {
    /// An application-relay frame.
    pub fn app(bytes: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::App,
            bytes,
        }
    }

    /// A Raft frame.
    pub fn raft(bytes: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::Raft,
            bytes,
        }
    }

    /// A control frame.
    pub fn control(bytes: Vec<u8>) -> Self {
        Frame {
            kind: FrameKind::Control,
            bytes,
        }
    }

    /// Payload size plus a small fixed header estimate, for accounting.
    pub fn wire_len(&self) -> usize {
        self.bytes.len() + 8
    }
}

impl FrameKind {
    /// All frame kinds, in the order used by [`TransportCounters`].
    pub const ALL: [FrameKind; 3] = [FrameKind::App, FrameKind::Raft, FrameKind::Control];

    /// Stable lowercase label, used by metric exposition.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::App => "app",
            FrameKind::Raft => "raft",
            FrameKind::Control => "control",
        }
    }

    fn index(self) -> usize {
        match self {
            FrameKind::App => 0,
            FrameKind::Raft => 1,
            FrameKind::Control => 2,
        }
    }
}

/// Thread-safe per-[`FrameKind`] traffic counters a transport records into.
///
/// Real transports (TCP) bump these from their send path and reader threads;
/// the exposition layer snapshots them into per-kind Prometheus counters.
/// Byte counts use [`Frame::wire_len`] so they match the simulator fabric's
/// accounting.
#[derive(Debug, Default)]
pub struct TransportCounters {
    frames_out: [AtomicU64; 3],
    bytes_out: [AtomicU64; 3],
    frames_in: [AtomicU64; 3],
    bytes_in: [AtomicU64; 3],
    connect_failures: AtomicU64,
    /// Frames queued for later delivery instead of sent (dead-peer backoff
    /// window); flushed on reconnect, so deferred ≠ lost.
    deferred: AtomicU64,
    /// Frames evicted from a full deferred queue — unlike deferrals these
    /// never reach the wire; recovery is up to whatever layer retransmits
    /// the evicted kind (the reliable channel for App, Raft for Raft).
    deferred_evicted: AtomicU64,
    /// Current dead-peer backoff window per peer, ms (absent = healthy).
    peer_backoff_ms: Mutex<BTreeMap<u32, u64>>,
}

impl TransportCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one frame sent toward a peer.
    pub fn record_out(&self, kind: FrameKind, wire_len: usize) {
        let i = kind.index();
        self.frames_out[i].fetch_add(1, Ordering::Relaxed);
        self.bytes_out[i].fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Records one frame received from a peer.
    pub fn record_in(&self, kind: FrameKind, wire_len: usize) {
        let i = kind.index();
        self.frames_in[i].fetch_add(1, Ordering::Relaxed);
        self.bytes_in[i].fetch_add(wire_len as u64, Ordering::Relaxed);
    }

    /// Records one failed connect attempt toward `peer` and the backoff
    /// window the transport will now apply to it.
    pub fn record_connect_failure(&self, peer: HiveId, backoff_ms: u64) {
        self.connect_failures.fetch_add(1, Ordering::Relaxed);
        self.peer_backoff_ms.lock().insert(peer.0, backoff_ms);
    }

    /// Records a successful connect to `peer`: its backoff resets.
    pub fn record_connect_success(&self, peer: HiveId) {
        self.peer_backoff_ms.lock().remove(&peer.0);
    }

    /// Records one frame deferred (queued instead of sent) because its peer
    /// is dead or inside a backoff window.
    pub fn record_deferred(&self) {
        self.deferred.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one frame evicted from a full deferred queue (dropped
    /// without ever reaching the wire).
    pub fn record_deferred_evicted(&self) {
        self.deferred_evicted.fetch_add(1, Ordering::Relaxed);
    }

    /// The current backoff window applied to `peer`, if it is backed off.
    pub fn peer_backoff_ms(&self, peer: HiveId) -> Option<u64> {
        self.peer_backoff_ms.lock().get(&peer.0).copied()
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> TransportSnapshot {
        let read = |a: &[AtomicU64; 3]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
            ]
        };
        TransportSnapshot {
            frames_out: read(&self.frames_out),
            bytes_out: read(&self.bytes_out),
            frames_in: read(&self.frames_in),
            bytes_in: read(&self.bytes_in),
            connect_failures: self.connect_failures.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            deferred_evicted: self.deferred_evicted.load(Ordering::Relaxed),
            peer_backoff_ms: self
                .peer_backoff_ms
                .lock()
                .iter()
                .map(|(&p, &ms)| (p, ms))
                .collect(),
        }
    }
}

/// Point-in-time copy of [`TransportCounters`], indexed by
/// [`FrameKind::ALL`] order (App, Raft, Control).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TransportSnapshot {
    /// Frames sent per kind.
    pub frames_out: [u64; 3],
    /// Wire bytes sent per kind.
    pub bytes_out: [u64; 3],
    /// Frames received per kind.
    pub frames_in: [u64; 3],
    /// Wire bytes received per kind.
    pub bytes_in: [u64; 3],
    /// Total failed connect attempts to any peer.
    pub connect_failures: u64,
    /// Frames queued for retransmission on reconnect instead of sent (the
    /// peer was dead or backed off). Deferred frames are not lost.
    pub deferred: u64,
    /// Frames evicted from a full deferred queue. These *are* dropped;
    /// App/Raft evictions are recovered by retransmission above this
    /// layer, Control evictions are not.
    pub deferred_evicted: u64,
    /// Peers currently in a dead-peer backoff window: `(hive, backoff ms)`.
    pub peer_backoff_ms: Vec<(u32, u64)>,
}

impl TransportSnapshot {
    /// `(frames, bytes)` sent for `kind`.
    pub fn sent(&self, kind: FrameKind) -> (u64, u64) {
        let i = kind.index();
        (self.frames_out[i], self.bytes_out[i])
    }

    /// `(frames, bytes)` received for `kind`.
    pub fn received(&self, kind: FrameKind) -> (u64, u64) {
        let i = kind.index();
        (self.frames_in[i], self.bytes_in[i])
    }
}

/// The TCP engine `beehive_net::bind_tcp` binds: the reactor, the only one.
///
/// A one-variant enum only because the repository's benchmark harness
/// (`benchmark/src/cluster.rs`, a frozen path) calls
/// `bind_tcp(TransportPreference::Reactor, id, addr, peers)`; nothing selects
/// on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPreference {
    /// Non-blocking reactor: the caller writes what a socket takes without
    /// blocking, one event loop owns connects, reads and the backlog.
    Reactor,
}

/// A hive's endpoint into the inter-hive network.
pub trait Transport: Send {
    /// The hive this endpoint belongs to.
    fn local(&self) -> HiveId;
    /// Queues a frame toward `to`. Delivery is asynchronous and may fail
    /// silently on partition (Beehive's protocols tolerate loss by retrying
    /// above Raft or by Raft itself).
    fn send(&self, to: HiveId, frame: Frame);
    /// Queues a batch of frames, in order — what one hive step sends. The
    /// default is a [`Transport::send`] per frame; a transport that can
    /// hand the batch over more cheaply than frame by frame overrides it.
    fn send_all(&self, frames: Vec<(HiveId, Frame)>) {
        for (to, frame) in frames {
            self.send(to, frame);
        }
    }
    /// Non-blocking receive of the next inbound frame.
    fn try_recv(&self) -> Option<(HiveId, Frame)>;
    /// All other hives reachable through this transport.
    fn peers(&self) -> Vec<HiveId>;
    /// Registers a wakeup callback to invoke whenever a new inbound frame
    /// becomes available. `Hive::run` parks its thread when idle and relies
    /// on this to wake promptly; transports without background threads (the
    /// loopback, the simulator fabric) can ignore it — the caller drives
    /// them synchronously.
    fn set_waker(&mut self, _waker: std::sync::Arc<dyn Fn() + Send + Sync>) {}
    /// Hands the transport the hive's flight-recorder journal so it can
    /// record peer connect/disconnect and deferred-eviction events.
    /// Transports without connection lifecycles (the loopback, the
    /// simulator fabric) can ignore it.
    fn set_events(&mut self, _events: std::sync::Arc<crate::events::EventJournal>) {}
    /// Adds `peer` (reachable at `addr`) to the peer set at runtime — a hive
    /// that just joined the cluster. Idempotent; the address format is
    /// transport-specific (`host:port` for TCP, ignored by the in-memory
    /// fabric). Transports with a fixed peer set ignore it.
    fn connect_peer(&self, _peer: HiveId, _addr: &str) {}
    /// Removes `peer` from the peer set at runtime — a hive that left the
    /// cluster. Returns any frames the transport was still holding for it
    /// (deferred-queue contents), so the caller can dead-letter application
    /// payloads instead of silently dropping them. Idempotent.
    fn disconnect_peer(&self, _peer: HiveId) -> Vec<Frame> {
        Vec::new()
    }
}

/// Single-hive transport: sends to self loop back, sends to anyone else are
/// dropped. Useful for standalone hives and unit tests.
pub struct Loopback {
    id: HiveId,
    queue: Mutex<VecDeque<Frame>>,
}

impl Loopback {
    /// A loopback endpoint for `id`.
    pub fn new(id: HiveId) -> Self {
        Loopback {
            id,
            queue: Mutex::new(VecDeque::new()),
        }
    }
}

impl Transport for Loopback {
    fn local(&self) -> HiveId {
        self.id
    }

    fn send(&self, to: HiveId, frame: Frame) {
        if to == self.id {
            self.queue.lock().push_back(frame);
        }
        // Frames to other hives are dropped: a loopback hive has no peers.
    }

    fn try_recv(&self) -> Option<(HiveId, Frame)> {
        self.queue.lock().pop_front().map(|f| (self.id, f))
    }

    fn peers(&self) -> Vec<HiveId> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_to_self_only() {
        let t = Loopback::new(HiveId(1));
        t.send(HiveId(1), Frame::app(vec![1]));
        t.send(HiveId(2), Frame::app(vec![2]));
        let (from, f) = t.try_recv().unwrap();
        assert_eq!(from, HiveId(1));
        assert_eq!(f.bytes, vec![1]);
        assert!(t.try_recv().is_none());
    }

    #[test]
    fn frame_wire_len_includes_header() {
        assert_eq!(Frame::raft(vec![0; 10]).wire_len(), 18);
    }

    #[test]
    fn transport_counters_track_per_kind_traffic() {
        let c = TransportCounters::new();
        c.record_out(FrameKind::App, 100);
        c.record_out(FrameKind::App, 50);
        c.record_in(FrameKind::Raft, 8);
        let snap = c.snapshot();
        assert_eq!(snap.sent(FrameKind::App), (2, 150));
        assert_eq!(snap.sent(FrameKind::Raft), (0, 0));
        assert_eq!(snap.received(FrameKind::Raft), (1, 8));
        assert_eq!(snap.received(FrameKind::Control), (0, 0));
        assert_eq!(FrameKind::ALL[0].label(), "app");
    }

    #[test]
    fn connect_backoff_is_tracked_per_peer() {
        let c = TransportCounters::new();
        assert_eq!(c.peer_backoff_ms(HiveId(2)), None);
        c.record_connect_failure(HiveId(2), 500);
        c.record_connect_failure(HiveId(2), 1000);
        c.record_connect_failure(HiveId(3), 500);
        c.record_deferred();
        c.record_deferred();
        assert_eq!(c.peer_backoff_ms(HiveId(2)), Some(1000));
        let snap = c.snapshot();
        assert_eq!(snap.connect_failures, 3);
        assert_eq!(snap.deferred, 2);
        assert_eq!(snap.peer_backoff_ms, vec![(2, 1000), (3, 500)]);
        c.record_connect_success(HiveId(2));
        assert_eq!(c.peer_backoff_ms(HiveId(2)), None);
        assert_eq!(c.snapshot().peer_backoff_ms, vec![(3, 500)]);
        assert_eq!(c.snapshot().connect_failures, 3, "monotonic");
    }
}
