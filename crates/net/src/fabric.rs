//! The in-memory fabric: connects any number of hives in one process with
//! full accounting and fault injection. Drives in virtual or real time —
//! latency is expressed against the shared [`Clock`].

use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

use beehive_core::clock::Clock;
use beehive_core::sync::Mutex;
use beehive_core::transport::{Frame, FrameKind, Transport};
use beehive_core::HiveId;

use crate::matrix::TrafficMatrix;

/// Fault-injection knobs. Wire faults (`drop_rate`, `latency_ms`) are
/// applied by the fabric at send time; handler faults are forwarded to every
/// hive's [`beehive_core::HandlerFaults`] table by `SimCluster::set_faults`
/// (the fabric itself never sees handler invocations).
#[derive(Debug, Clone, Default)]
pub struct FabricFaults {
    /// Probability in `[0, 1]` that a frame is silently dropped.
    pub drop_rate: f64,
    /// Probability in `[0, 1]` that a frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability in `[0, 1]` that a frame is enqueued *before* the frame
    /// already at the back of the receiver's queue (a one-slot reorder —
    /// enough to break any accidental FIFO assumption).
    pub reorder_rate: f64,
    /// Fixed delivery latency in ms.
    pub latency_ms: u64,
    /// Additional per-frame latency: a deterministic uniform draw from
    /// `[0, jitter_ms]` added on top of `latency_ms`.
    pub jitter_ms: u64,
    /// Handler faults to arm on every hive: `(app, msg_type, times)` — the
    /// next `times` deliveries of `msg_type` (wire-name suffix match) to
    /// `app` fail with an injected error.
    pub handler_faults: Vec<(String, String, u32)>,
}

/// Running totals of every frame the fabric intentionally lost, cloned or
/// reordered, split by [`FrameKind`] where conservation audits need it. The
/// chaos harness balances `dropped_app`/`duplicated_app` against hive
/// counters to prove no message vanished *unaccounted*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// App frames dropped (drop coin, partition, or down receiver/sender).
    pub dropped_app: u64,
    /// Raft frames dropped.
    pub dropped_raft: u64,
    /// Control frames dropped.
    pub dropped_control: u64,
    /// App frames delivered twice (the extra copy is counted, not the pair).
    pub duplicated_app: u64,
    /// Raft frames delivered twice.
    pub duplicated_raft: u64,
    /// Control frames delivered twice.
    pub duplicated_control: u64,
    /// Frames enqueued out of order (any kind).
    pub reordered: u64,
}

impl FaultStats {
    fn count_drop(&mut self, kind: FrameKind) {
        match kind {
            FrameKind::App => self.dropped_app += 1,
            FrameKind::Raft => self.dropped_raft += 1,
            FrameKind::Control => self.dropped_control += 1,
        }
    }

    fn count_duplicate(&mut self, kind: FrameKind) {
        match kind {
            FrameKind::App => self.duplicated_app += 1,
            FrameKind::Raft => self.duplicated_raft += 1,
            FrameKind::Control => self.duplicated_control += 1,
        }
    }
}

/// Per-kind counts of the frames [`MemFabric::clear_queue`] discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClearedFrames {
    /// App frames discarded.
    pub app: u64,
    /// Raft frames discarded.
    pub raft: u64,
    /// Control frames discarded.
    pub control: u64,
}

impl FabricFaults {
    /// Arms a handler fault: the next `times` deliveries of `msg_type` to
    /// `app` fail (builder-style, chainable).
    pub fn fail_handler(
        mut self,
        app: impl Into<String>,
        msg_type: impl Into<String>,
        times: u32,
    ) -> Self {
        self.handler_faults
            .push((app.into(), msg_type.into(), times));
        self
    }
}

struct InFlight {
    deliver_at_ms: u64,
    from: HiveId,
    frame: Frame,
}

struct Shared {
    clock: Arc<dyn Clock>,
    queues: Mutex<std::collections::BTreeMap<u32, VecDeque<InFlight>>>,
    matrix: Mutex<TrafficMatrix>,
    partitions: Mutex<HashSet<(u32, u32)>>,
    faults: Mutex<FabricFaults>,
    rng: Mutex<u64>, // xorshift state for fault coins (deterministic)
    stats: Mutex<FaultStats>,
    down: Mutex<HashSet<u32>>, // crashed hives: frames to/from them are lost
    /// Hive roster. Behind a lock because elastic membership grows and
    /// shrinks it at runtime (join adds a queue, departure retires one).
    hives: Mutex<Vec<HiveId>>,
}

impl Shared {
    /// Adds `id` to the roster (idempotent) and ensures it has a queue.
    fn add_hive(&self, id: HiveId) {
        let mut hives = self.hives.lock();
        if !hives.contains(&id) {
            hives.push(id);
        }
        self.queues.lock().entry(id.0).or_default();
    }

    /// Next xorshift64* draw as a raw u64.
    fn rng_u64(&self) -> u64 {
        let mut rng = self.rng.lock();
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    /// Next deterministic uniform draw in `[0, 1)`.
    fn roll(&self) -> f64 {
        (self.rng_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An in-process fabric connecting a fixed set of hives.
#[derive(Clone)]
pub struct MemFabric {
    shared: Arc<Shared>,
}

impl MemFabric {
    /// A fabric for `hives`, accounting into 1-second buckets by default.
    pub fn new(hives: Vec<HiveId>, clock: Arc<dyn Clock>) -> Self {
        Self::with_bucket(hives, clock, 1000)
    }

    /// A fabric with a custom accounting bucket width.
    pub fn with_bucket(hives: Vec<HiveId>, clock: Arc<dyn Clock>, bucket_ms: u64) -> Self {
        let queues = hives.iter().map(|h| (h.0, VecDeque::new())).collect();
        MemFabric {
            shared: Arc::new(Shared {
                clock,
                queues: Mutex::new(queues),
                matrix: Mutex::new(TrafficMatrix::new(bucket_ms)),
                partitions: Mutex::new(HashSet::new()),
                faults: Mutex::new(FabricFaults::default()),
                rng: Mutex::new(0x9E3779B97F4A7C15),
                stats: Mutex::new(FaultStats::default()),
                down: Mutex::new(HashSet::new()),
                hives: Mutex::new(hives),
            }),
        }
    }

    /// The endpoint for hive `id` (panics if `id` is not in the fabric).
    pub fn endpoint(&self, id: HiveId) -> MemEndpoint {
        assert!(
            self.shared.hives.lock().contains(&id),
            "hive {id} is not part of this fabric"
        );
        MemEndpoint {
            id,
            shared: self.shared.clone(),
        }
    }

    /// Adds a hive to the fabric at runtime (idempotent) — the roster grows
    /// and the new hive gets an empty inbound queue. Call before
    /// [`MemFabric::endpoint`] for a hive joining a live cluster.
    pub fn add_hive(&self, id: HiveId) {
        self.shared.add_hive(id);
    }

    /// Retires a hive from the fabric: drops its roster entry and inbound
    /// queue, returning per-kind counts of whatever was still queued so
    /// departure bookkeeping can absorb the discarded app frames.
    pub fn remove_hive(&self, id: HiveId) -> ClearedFrames {
        let cleared = self.clear_queue(id);
        self.shared.queues.lock().remove(&id.0);
        self.shared.hives.lock().retain(|h| *h != id);
        self.shared.down.lock().remove(&id.0);
        cleared
    }

    /// Snapshot of the traffic accounting.
    pub fn matrix(&self) -> TrafficMatrix {
        self.shared.matrix.lock().clone()
    }

    /// Clears the traffic accounting (e.g. to discard warm-up noise).
    pub fn reset_matrix(&self) {
        let bucket = self.shared.matrix.lock().bucket_ms;
        *self.shared.matrix.lock() = TrafficMatrix::new(bucket);
    }

    /// Updates the fault policy.
    pub fn set_faults(&self, faults: FabricFaults) {
        *self.shared.faults.lock() = faults;
    }

    /// Severs the link between `a` and `b` (both directions).
    pub fn partition(&self, a: HiveId, b: HiveId) {
        self.shared
            .partitions
            .lock()
            .insert((a.0.min(b.0), a.0.max(b.0)));
    }

    /// Heals all partitions.
    pub fn heal(&self) {
        self.shared.partitions.lock().clear();
    }

    /// Frames currently queued (all hives) — useful for quiescence checks.
    pub fn in_flight(&self) -> usize {
        self.shared.queues.lock().values().map(VecDeque::len).sum()
    }

    /// App frames currently queued (all hives) — the in-flight term of the
    /// chaos harness's message-conservation equation.
    pub fn in_flight_app(&self) -> u64 {
        self.shared
            .queues
            .lock()
            .values()
            .flat_map(|q| q.iter())
            .filter(|m| m.frame.kind == FrameKind::App)
            .count() as u64
    }

    /// Marks a hive down (crashed) or back up. Frames sent to or from a
    /// down hive are lost on the wire (and counted in [`FaultStats`]), like
    /// a dead TCP peer.
    pub fn set_down(&self, id: HiveId, down: bool) {
        if down {
            self.shared.down.lock().insert(id.0);
        } else {
            self.shared.down.lock().remove(&id.0);
        }
    }

    /// Discards everything queued for `id` (a crashed hive's unread socket
    /// buffer) and returns per-kind counts of what was lost, so crash
    /// bookkeeping can absorb the discarded app frames.
    pub fn clear_queue(&self, id: HiveId) -> ClearedFrames {
        let mut queues = self.shared.queues.lock();
        let mut cleared = ClearedFrames::default();
        if let Some(q) = queues.get_mut(&id.0) {
            for m in q.drain(..) {
                match m.frame.kind {
                    FrameKind::App => cleared.app += 1,
                    FrameKind::Raft => cleared.raft += 1,
                    FrameKind::Control => cleared.control += 1,
                }
            }
        }
        cleared
    }

    /// Snapshot of the fault accounting.
    pub fn fault_stats(&self) -> FaultStats {
        *self.shared.stats.lock()
    }

    /// Reseeds the deterministic fault RNG (and zeroes the accounting) so a
    /// chaos run's coin flips depend only on its seed, not on whatever
    /// traffic preceded it on this fabric. Bit 0 of `seed` is ignored:
    /// `2k` and `2k + 1` give the same stream.
    pub fn reseed(&self, seed: u64) {
        // xorshift64* must never hold state 0.
        *self.shared.rng.lock() = seed | 1;
        *self.shared.stats.lock() = FaultStats::default();
    }

    /// The hives currently on this fabric.
    pub fn hives(&self) -> Vec<HiveId> {
        self.shared.hives.lock().clone()
    }
}

/// One hive's endpoint into a [`MemFabric`].
pub struct MemEndpoint {
    id: HiveId,
    shared: Arc<Shared>,
}

impl Transport for MemEndpoint {
    fn local(&self) -> HiveId {
        self.id
    }

    fn send(&self, to: HiveId, frame: Frame) {
        if to == self.id {
            // Local loopback: no accounting (it never touches the wire).
            let mut queues = self.shared.queues.lock();
            if let Some(q) = queues.get_mut(&to.0) {
                q.push_back(InFlight {
                    deliver_at_ms: 0,
                    from: self.id,
                    frame,
                });
            }
            return;
        }
        {
            let down = self.shared.down.lock();
            if down.contains(&self.id.0) || down.contains(&to.0) {
                self.shared.stats.lock().count_drop(frame.kind);
                return;
            }
        }
        {
            let partitions = self.shared.partitions.lock();
            if partitions.contains(&(self.id.0.min(to.0), self.id.0.max(to.0))) {
                self.shared.stats.lock().count_drop(frame.kind);
                return;
            }
        }
        let faults = self.shared.faults.lock().clone();
        if faults.drop_rate > 0.0 && self.shared.roll() < faults.drop_rate {
            self.shared.stats.lock().count_drop(frame.kind);
            return;
        }
        let duplicate = faults.duplicate_rate > 0.0 && self.shared.roll() < faults.duplicate_rate;
        let reorder = faults.reorder_rate > 0.0 && self.shared.roll() < faults.reorder_rate;
        let jitter = if faults.jitter_ms > 0 {
            self.shared.rng_u64() % (faults.jitter_ms + 1)
        } else {
            0
        };
        let now = self.shared.clock.now_ms();
        self.shared
            .matrix
            .lock()
            .record(self.id, to, frame.kind, frame.wire_len(), now);
        let kind = frame.kind;
        let mut queues = self.shared.queues.lock();
        if let Some(q) = queues.get_mut(&to.0) {
            let deliver_at_ms = now + faults.latency_ms + jitter;
            let did_reorder = reorder && !q.is_empty();
            let copies = if duplicate { 2 } else { 1 };
            for _ in 0..copies {
                let msg = InFlight {
                    deliver_at_ms,
                    from: self.id,
                    frame: frame.clone(),
                };
                if did_reorder {
                    // One-slot reorder: jump ahead of the current back frame.
                    q.insert(q.len() - 1, msg);
                } else {
                    q.push_back(msg);
                }
            }
            let mut stats = self.shared.stats.lock();
            if duplicate {
                stats.count_duplicate(kind);
            }
            if did_reorder {
                stats.reordered += 1;
            }
        }
    }

    fn try_recv(&self) -> Option<(HiveId, Frame)> {
        let now = self.shared.clock.now_ms();
        let mut queues = self.shared.queues.lock();
        let q = queues.get_mut(&self.id.0)?;
        // Preserve per-link FIFO: only deliver from the front; latency is
        // uniform so the front is always the earliest.
        if q.front().is_some_and(|m| m.deliver_at_ms <= now) {
            let m = q.pop_front().unwrap();
            return Some((m.from, m.frame));
        }
        None
    }

    fn peers(&self) -> Vec<HiveId> {
        self.shared
            .hives
            .lock()
            .iter()
            .copied()
            .filter(|&h| h != self.id)
            .collect()
    }

    fn connect_peer(&self, peer: HiveId, _addr: &str) {
        // In-process fabric: the "address" is the roster entry itself.
        self.shared.add_hive(peer);
    }

    fn disconnect_peer(&self, peer: HiveId) -> Vec<Frame> {
        // The fabric's queues are per-receiver and shared by every sender,
        // so a single endpoint has no private deferred frames to surrender;
        // the harness retires the departed hive's queue via
        // [`MemFabric::remove_hive`].
        let _ = peer;
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beehive_core::clock::SimClock;
    use beehive_core::transport::FrameKind;

    fn fabric2() -> (MemFabric, SimClock) {
        let clock = SimClock::new();
        let f = MemFabric::new(vec![HiveId(1), HiveId(2)], Arc::new(clock.clone()));
        (f, clock)
    }

    #[test]
    fn delivers_between_endpoints() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![1, 2, 3]));
        let (from, frame) = e2.try_recv().unwrap();
        assert_eq!(from, HiveId(1));
        assert_eq!(frame.bytes, vec![1, 2, 3]);
        assert!(e2.try_recv().is_none());
    }

    #[test]
    fn accounts_bytes_per_pair_and_kind() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        e1.send(HiveId(2), Frame::app(vec![0; 100]));
        e1.send(HiveId(2), Frame::raft(vec![0; 50]));
        let m = f.matrix();
        assert_eq!(m.get(HiveId(1), HiveId(2), FrameKind::App).bytes, 108);
        assert_eq!(m.get(HiveId(1), HiveId(2), FrameKind::Raft).bytes, 58);
    }

    #[test]
    fn loopback_is_not_accounted() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        e1.send(HiveId(1), Frame::app(vec![0; 100]));
        assert_eq!(f.matrix().total(&[FrameKind::App]), 0);
        assert!(e1.try_recv().is_some());
    }

    #[test]
    fn latency_holds_frames_until_clock_advances() {
        let (f, clock) = fabric2();
        f.set_faults(FabricFaults {
            latency_ms: 10,
            ..Default::default()
        });
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![7]));
        assert!(e2.try_recv().is_none(), "frame must be delayed");
        clock.advance(10);
        assert!(e2.try_recv().is_some());
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let (f, _clock) = fabric2();
        f.partition(HiveId(1), HiveId(2));
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![1]));
        assert!(e2.try_recv().is_none());
        f.heal();
        e1.send(HiveId(2), Frame::app(vec![2]));
        assert_eq!(e2.try_recv().unwrap().1.bytes, vec![2]);
    }

    #[test]
    fn full_drop_rate_loses_everything() {
        let (f, _clock) = fabric2();
        f.set_faults(FabricFaults {
            drop_rate: 1.0,
            ..Default::default()
        });
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        for _ in 0..10 {
            e1.send(HiveId(2), Frame::app(vec![1]));
        }
        assert!(e2.try_recv().is_none());
    }

    #[test]
    fn fail_handler_builder_accumulates() {
        let f = FabricFaults::default()
            .fail_handler("counter", "Inc", 3)
            .fail_handler("router", "PacketIn", 1);
        assert_eq!(f.handler_faults.len(), 2);
        assert_eq!(
            f.handler_faults[0],
            ("counter".to_string(), "Inc".to_string(), 3)
        );
        assert_eq!(f.drop_rate, 0.0, "wire faults unaffected");
    }

    #[test]
    #[should_panic(expected = "not part of this fabric")]
    fn unknown_endpoint_panics() {
        let (f, _clock) = fabric2();
        let _ = f.endpoint(HiveId(99));
    }

    #[test]
    fn duplicate_rate_delivers_twice_and_counts() {
        let (f, _clock) = fabric2();
        f.set_faults(FabricFaults {
            duplicate_rate: 1.0,
            ..Default::default()
        });
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![9]));
        assert_eq!(e2.try_recv().unwrap().1.bytes, vec![9]);
        assert_eq!(e2.try_recv().unwrap().1.bytes, vec![9]);
        assert!(e2.try_recv().is_none());
        assert_eq!(f.fault_stats().duplicated_app, 1);
    }

    #[test]
    fn reorder_rate_swaps_back_pair() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![1]));
        f.set_faults(FabricFaults {
            reorder_rate: 1.0,
            ..Default::default()
        });
        e1.send(HiveId(2), Frame::app(vec![2]));
        // [1] then 2 jumps ahead of the back frame: delivered 2, 1.
        assert_eq!(e2.try_recv().unwrap().1.bytes, vec![2]);
        assert_eq!(e2.try_recv().unwrap().1.bytes, vec![1]);
        assert_eq!(f.fault_stats().reordered, 1);
    }

    #[test]
    fn down_hive_loses_frames_both_ways_and_counts() {
        let (f, _clock) = fabric2();
        f.set_down(HiveId(2), true);
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![1]));
        e2.send(HiveId(1), Frame::raft(vec![2]));
        assert!(e2.try_recv().is_none());
        assert!(e1.try_recv().is_none());
        let s = f.fault_stats();
        assert_eq!((s.dropped_app, s.dropped_raft), (1, 1));
        f.set_down(HiveId(2), false);
        e1.send(HiveId(2), Frame::app(vec![3]));
        assert!(e2.try_recv().is_some());
    }

    #[test]
    fn clear_queue_counts_per_kind() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        e1.send(HiveId(2), Frame::app(vec![1]));
        e1.send(HiveId(2), Frame::raft(vec![2]));
        e1.send(HiveId(2), Frame::app(vec![3]));
        assert_eq!(f.in_flight_app(), 2);
        let cleared = f.clear_queue(HiveId(2));
        assert_eq!((cleared.app, cleared.raft, cleared.control), (2, 1, 0));
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn reseed_makes_coin_flips_reproducible() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let (f, _clock) = fabric2();
            f.reseed(seed);
            f.set_faults(FabricFaults {
                drop_rate: 0.5,
                ..Default::default()
            });
            let e1 = f.endpoint(HiveId(1));
            let e2 = f.endpoint(HiveId(2));
            (0..32)
                .map(|i| {
                    e1.send(HiveId(2), Frame::app(vec![i]));
                    e2.try_recv().is_some()
                })
                .collect()
        };
        assert_eq!(outcomes(42), outcomes(42));
        assert_eq!(outcomes(42), outcomes(43), "bit 0 is ignored");
        assert_ne!(outcomes(42), outcomes(44), "different seeds diverge");
    }

    #[test]
    fn partition_drops_are_counted() {
        let (f, _clock) = fabric2();
        f.partition(HiveId(1), HiveId(2));
        let e1 = f.endpoint(HiveId(1));
        e1.send(HiveId(2), Frame::app(vec![1]));
        assert_eq!(f.fault_stats().dropped_app, 1);
    }

    #[test]
    fn jitter_delays_within_bound() {
        let (f, clock) = fabric2();
        f.set_faults(FabricFaults {
            latency_ms: 5,
            jitter_ms: 10,
            ..Default::default()
        });
        let e1 = f.endpoint(HiveId(1));
        let e2 = f.endpoint(HiveId(2));
        e1.send(HiveId(2), Frame::app(vec![1]));
        assert!(e2.try_recv().is_none(), "latency floor holds the frame");
        clock.advance(15); // latency + max jitter
        assert!(e2.try_recv().is_some());
    }

    #[test]
    fn hives_join_and_retire_at_runtime() {
        let (f, _clock) = fabric2();
        f.add_hive(HiveId(3));
        assert!(f.hives().contains(&HiveId(3)));
        let e1 = f.endpoint(HiveId(1));
        let e3 = f.endpoint(HiveId(3));
        e1.send(HiveId(3), Frame::app(vec![5]));
        assert_eq!(e3.try_recv().unwrap().1.bytes, vec![5]);
        // Endpoints announce joins idempotently via the Transport trait.
        e1.connect_peer(HiveId(3), "ignored-in-process");
        assert_eq!(f.hives().len(), 3);
        assert!(e1.peers().contains(&HiveId(3)));
        // Retiring with a frame still queued counts it instead of leaking it.
        e1.send(HiveId(3), Frame::app(vec![6]));
        let cleared = f.remove_hive(HiveId(3));
        assert_eq!(cleared.app, 1);
        assert!(!f.hives().contains(&HiveId(3)));
    }

    #[test]
    fn reset_matrix_clears_accounting() {
        let (f, _clock) = fabric2();
        let e1 = f.endpoint(HiveId(1));
        e1.send(HiveId(2), Frame::app(vec![0; 10]));
        assert!(f.matrix().total(&[FrameKind::App]) > 0);
        f.reset_matrix();
        assert_eq!(f.matrix().total(&[FrameKind::App]), 0);
    }
}
