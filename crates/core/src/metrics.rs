//! Runtime instrumentation (paper §3): per-bee resource consumption, message
//! exchange counts, and provenance (which input types produce which output
//! types). Collected locally on each hive and periodically aggregated on one
//! hive by the platform applications in [`crate::platform`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::id::{AppName, BeeId, HiveId};
use crate::supervision::FailureKind;

/// Counters for a single bee.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BeeStats {
    /// Messages delivered to this bee.
    pub msgs_in: u64,
    /// Messages emitted by this bee.
    pub msgs_out: u64,
    /// Wire bytes of delivered messages.
    pub bytes_in: u64,
    /// Wire bytes of emitted messages.
    pub bytes_out: u64,
    /// Nanoseconds spent in rcv functions.
    pub handler_nanos: u64,
    /// Handler invocations that returned an error (rolled-back transactions).
    pub errors: u64,
    /// Deliveries *from other bees*, broken down by the hive the sender was
    /// on — the optimizer's primary signal ("the majority of messages
    /// processed by B1 are from bees deployed on H2"). External inputs
    /// (timeouts, IO) are counted in `external_in`, not here, because they
    /// say nothing about inter-bee affinity.
    pub in_by_hive: BTreeMap<u32, u64>,
    /// Deliveries broken down by source bee.
    pub in_by_bee: BTreeMap<u64, u64>,
    /// Deliveries from external sources (timers, drivers' IO threads).
    pub external_in: u64,
}

impl BeeStats {
    /// Records a delivery from `src_hive`/`src_bee` of `bytes` wire bytes.
    pub fn record_in(&mut self, src_hive: HiveId, src_bee: Option<BeeId>, bytes: usize) {
        self.msgs_in += 1;
        self.bytes_in += bytes as u64;
        match src_bee {
            Some(b) => {
                *self.in_by_hive.entry(src_hive.0).or_insert(0) += 1;
                *self.in_by_bee.entry(b.0).or_insert(0) += 1;
            }
            None => self.external_in += 1,
        }
    }

    /// Records an emission of `bytes` wire bytes.
    pub fn record_out(&mut self, bytes: usize) {
        self.msgs_out += 1;
        self.bytes_out += bytes as u64;
    }

    /// The hive sending this bee the most messages, with its count and the
    /// total over all hives.
    pub fn dominant_source_hive(&self) -> Option<(HiveId, u64, u64)> {
        let total: u64 = self.in_by_hive.values().sum();
        let (&hive, &count) = self.in_by_hive.iter().max_by_key(|(_, &c)| c)?;
        Some((HiveId(hive), count, total))
    }

    /// Folds another stats delta into this one.
    pub fn merge(&mut self, other: &BeeStats) {
        self.msgs_in += other.msgs_in;
        self.msgs_out += other.msgs_out;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.handler_nanos += other.handler_nanos;
        self.errors += other.errors;
        self.external_in += other.external_in;
        for (h, c) in &other.in_by_hive {
            *self.in_by_hive.entry(*h).or_insert(0) += c;
        }
        for (b, c) in &other.in_by_bee {
            *self.in_by_bee.entry(*b).or_insert(0) += c;
        }
    }
}

/// Per-worker counters for the parallel executor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Bee batches this worker ran.
    pub batches: u64,
    /// Messages this worker processed.
    pub messages: u64,
    /// Wall nanoseconds spent running batches (busy time).
    pub busy_nanos: u64,
}

/// Executor-level counters: round/queue-depth shape plus per-worker load.
/// Empty (and omitted from analytics) when the hive runs sequentially.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutorStats {
    /// Parallel rounds executed.
    pub rounds: u64,
    /// Total bees fanned out across all rounds (sum of round queue depths).
    pub queued_bees: u64,
    /// Largest single-round queue depth observed.
    pub max_queue_depth: u64,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl ExecutorStats {
    /// Records one parallel round that fanned out `queued` bees.
    pub fn record_round(&mut self, queued: u64) {
        self.rounds += 1;
        self.queued_bees += queued;
        self.max_queue_depth = self.max_queue_depth.max(queued);
    }

    /// Records one finished batch: `worker` processed `messages` messages in
    /// `busy_nanos` wall nanoseconds.
    pub fn record_batch(&mut self, worker: usize, messages: u64, busy_nanos: u64) {
        if self.workers.len() <= worker {
            self.workers.resize(worker + 1, WorkerStats::default());
        }
        let w = &mut self.workers[worker];
        w.batches += 1;
        w.messages += messages;
        w.busy_nanos += busy_nanos;
    }

    /// Folds another executor-stats delta into this one.
    pub fn merge(&mut self, other: &ExecutorStats) {
        self.rounds += other.rounds;
        self.queued_bees += other.queued_bees;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (i, w) in other.workers.iter().enumerate() {
            let dst = &mut self.workers[i];
            dst.batches += w.batches;
            dst.messages += w.messages;
            dst.busy_nanos += w.busy_nanos;
        }
    }

    /// Whether nothing was recorded (sequential execution).
    pub fn is_empty(&self) -> bool {
        self.rounds == 0 && self.workers.is_empty()
    }
}

/// Upper bounds (inclusive, microseconds) of the fixed latency-histogram
/// buckets, exponential from 50µs to 5s. A seventeenth overflow bucket
/// catches everything above the last bound.
pub const LATENCY_BUCKETS_US: [u64; 16] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

/// Number of buckets in a [`LatencyHistogram`] (bounds + overflow).
pub const LATENCY_BUCKET_COUNT: usize = LATENCY_BUCKETS_US.len() + 1;

/// A fixed-bucket latency histogram in microseconds. Buckets are
/// non-cumulative (each observation lands in exactly one), so bucket counts
/// always sum to `count`; the Prometheus exposition re-accumulates them into
/// `le`-style cumulative buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    /// Per-bucket observation counts; index i counts observations within
    /// `LATENCY_BUCKETS_US[i]`, the last index counts overflows.
    pub buckets: [u64; LATENCY_BUCKET_COUNT],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; LATENCY_BUCKET_COUNT],
            count: 0,
            sum_us: 0,
        }
    }
}

impl LatencyHistogram {
    /// Records one observation of `us` microseconds.
    pub fn observe(&mut self, us: u64) {
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us += us;
    }

    /// Folds another histogram delta into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The 99th-percentile latency in microseconds, as the upper bound of
    /// the bucket containing the p99 observation (overflow reports twice the
    /// largest bound). `None` when empty.
    pub fn p99_us(&self) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (self.count * 99).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Some(match LATENCY_BUCKETS_US.get(i) {
                    Some(&bound) => bound,
                    None => LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1] * 2,
                });
            }
        }
        None
    }
}

/// Queue-wait and handler-runtime histograms for one `(app, message type)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MsgLatency {
    /// Time spent in local dispatch/mailbox queues before the handler ran.
    pub queue_wait: LatencyHistogram,
    /// Time spent inside the rcv function.
    pub runtime: LatencyHistogram,
}

impl MsgLatency {
    /// Folds another delta into this one.
    pub fn merge(&mut self, other: &MsgLatency) {
        self.queue_wait.merge(&other.queue_wait);
        self.runtime.merge(&other.runtime);
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.queue_wait.is_empty() && self.runtime.is_empty()
    }
}

/// Key for provenance counters: within `app`, messages of `in_type` caused
/// emissions of `out_type`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProvenanceKey {
    /// Application.
    pub app: AppName,
    /// Triggering message type.
    pub in_type: String,
    /// Emitted message type.
    pub out_type: String,
}

/// A hive's local instrumentation store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Instrumentation {
    /// Stats per (app, bee).
    pub bees: BTreeMap<(AppName, u64), BeeStats>,
    /// Where each instrumented bee currently lives (this hive) and how many
    /// cells it owns.
    pub bee_cells: BTreeMap<u64, u64>,
    /// Provenance counters: how often `in_type` produced `out_type`.
    pub provenance: BTreeMap<ProvenanceKey, u64>,
    /// Deliveries per (app, message type) — the denominators for
    /// [`Instrumentation::provenance_ratios`].
    pub in_type_counts: BTreeMap<(AppName, String), u64>,
    /// Bees that are pinned to this hive (local singletons).
    pub pinned: std::collections::BTreeSet<u64>,
    /// Cumulative bee-to-bee message matrix: `(src_hive, dst_hive) → msgs`.
    /// Never reset by [`Instrumentation::take`]; this is what regenerates
    /// the paper's Figure 4a–c inter-hive traffic matrices (which include
    /// the diagonal: locally processed messages).
    pub msg_matrix: BTreeMap<(u32, u32), u64>,
    /// Parallel-executor counters (empty when running sequentially).
    pub executor: ExecutorStats,
    /// Queue-wait / handler-runtime histograms per (app, message type).
    pub latency: BTreeMap<(AppName, String), MsgLatency>,
    /// Handler failures by kind (delta): `[error, panic]`.
    pub handler_failures: [u64; 2],
    /// Redeliveries scheduled by the supervisor (delta).
    pub redeliveries: u64,
    /// Messages dead-lettered (delta; all [`FailureKind`]s).
    pub dead_letters: u64,
    /// Wire frames whose payload failed to decode (delta).
    pub decode_errors: u64,
    /// Bees currently quarantined on this hive (gauge; retained by
    /// [`Instrumentation::take`], it describes state, not a delta).
    pub quarantined: u64,
    /// Reliable-channel frames retransmitted after an ack timeout (delta).
    pub retransmits: u64,
    /// Duplicate frames suppressed by receiver-side dedup (delta).
    pub dups_suppressed: u64,
    /// Standalone ack frames emitted by the channel layer (delta;
    /// piggybacked acks ride data frames and are not counted).
    pub channel_acks: u64,
    /// Unacked envelopes currently buffered for resend across all peers
    /// (gauge; retained by [`Instrumentation::take`] like `quarantined`).
    pub outbox_depth: u64,
    /// Index the registry raft log has been compacted through (gauge;
    /// retained by [`Instrumentation::take`]).
    pub snapshot_index: u64,
    /// Applied entries ahead of the last durable snapshot (gauge; retained
    /// by [`Instrumentation::take`]).
    pub snapshot_lag: u64,
    /// Registry snapshots installed from a peer since the previous report
    /// (delta).
    pub snapshot_installs: u64,
    /// Torn journal tails truncated during durable-state recovery (delta).
    pub journal_torn_truncations: u64,
}

impl Instrumentation {
    /// Mutable stats for a bee.
    pub fn bee(&mut self, app: &str, bee: BeeId) -> &mut BeeStats {
        self.bees.entry((app.to_string(), bee.0)).or_default()
    }

    /// Records one bee-to-bee message for the cumulative matrix.
    pub fn record_matrix(&mut self, src_hive: HiveId, dst_hive: HiveId) {
        *self.msg_matrix.entry((src_hive.0, dst_hive.0)).or_insert(0) += 1;
    }

    /// Records a typed delivery (denominator for provenance ratios).
    pub fn record_in_type(&mut self, app: &str, in_type: &str) {
        *self
            .in_type_counts
            .entry((app.to_string(), in_type.to_string()))
            .or_insert(0) += 1;
    }

    /// Records one handler invocation's latencies for `(app, in_type)`:
    /// `wait_us` in local queues before the handler, `runtime_us` inside it.
    pub fn record_latency(&mut self, app: &str, in_type: &str, wait_us: u64, runtime_us: u64) {
        let lat = self
            .latency
            .entry((app.to_string(), in_type.to_string()))
            .or_default();
        lat.queue_wait.observe(wait_us);
        lat.runtime.observe(runtime_us);
    }

    /// Records one handler failure of `kind`. Admission failures
    /// (quarantine, mailbox overflow) don't run a handler and are visible
    /// through `dead_letters` instead.
    pub fn record_failure(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Error => self.handler_failures[0] += 1,
            FailureKind::Panic => self.handler_failures[1] += 1,
            FailureKind::Quarantined | FailureKind::MailboxOverflow | FailureKind::PeerDeparted => {
            }
        }
    }

    /// Records that processing one `in_type` message emitted one `out_type`.
    pub fn record_provenance(&mut self, app: &str, in_type: &str, out_type: &str) {
        *self
            .provenance
            .entry(ProvenanceKey {
                app: app.to_string(),
                in_type: in_type.to_string(),
                out_type: out_type.to_string(),
            })
            .or_insert(0) += 1;
    }

    /// Folds a worker-produced instrumentation delta into this store
    /// (parallel executor check-in). Counters add; metadata (bee cell
    /// counts, pinned set) overwrites with the delta's fresher view.
    pub fn merge_delta(&mut self, delta: Instrumentation) {
        for (key, stats) in delta.bees {
            self.bees.entry(key).or_default().merge(&stats);
        }
        for (bee, cells) in delta.bee_cells {
            self.bee_cells.insert(bee, cells);
        }
        for (key, count) in delta.provenance {
            *self.provenance.entry(key).or_insert(0) += count;
        }
        for (key, count) in delta.in_type_counts {
            *self.in_type_counts.entry(key).or_insert(0) += count;
        }
        for (pair, count) in delta.msg_matrix {
            *self.msg_matrix.entry(pair).or_insert(0) += count;
        }
        for (key, lat) in delta.latency {
            self.latency.entry(key).or_default().merge(&lat);
        }
        self.pinned.extend(delta.pinned);
        self.executor.merge(&delta.executor);
        self.handler_failures[0] += delta.handler_failures[0];
        self.handler_failures[1] += delta.handler_failures[1];
        self.redeliveries += delta.redeliveries;
        self.dead_letters += delta.dead_letters;
        self.decode_errors += delta.decode_errors;
        self.retransmits += delta.retransmits;
        self.dups_suppressed += delta.dups_suppressed;
        self.channel_acks += delta.channel_acks;
        self.snapshot_installs += delta.snapshot_installs;
        self.journal_torn_truncations += delta.journal_torn_truncations;
        // Gauges: worker deltas always carry 0; the hive sets them directly.
        self.quarantined = self.quarantined.max(delta.quarantined);
        self.outbox_depth = self.outbox_depth.max(delta.outbox_depth);
        self.snapshot_index = self.snapshot_index.max(delta.snapshot_index);
        self.snapshot_lag = self.snapshot_lag.max(delta.snapshot_lag);
    }

    /// Takes the counter deltas, leaving the store empty. Metadata (pinned
    /// bees, colony sizes) is retained — it describes current state, not a
    /// delta.
    pub fn take(&mut self) -> Instrumentation {
        let taken = std::mem::take(self);
        self.pinned = taken.pinned.clone();
        self.bee_cells = taken.bee_cells.clone();
        self.msg_matrix = taken.msg_matrix.clone();
        self.quarantined = taken.quarantined;
        self.outbox_depth = taken.outbox_depth;
        self.snapshot_index = taken.snapshot_index;
        self.snapshot_lag = taken.snapshot_lag;
        taken
    }

    /// Probability-style provenance summary: for each (app, in, out), the
    /// fraction of `in_type` deliveries that produced an `out_type` emission.
    /// (The paper's example: "packet out messages are emitted … upon
    /// receiving 80% of packet in's".)
    pub fn provenance_ratios(&self) -> Vec<(ProvenanceKey, f64)> {
        self.provenance
            .iter()
            .map(|(k, &count)| {
                let denom = self
                    .in_type_counts
                    .get(&(k.app.clone(), k.in_type.clone()))
                    .copied()
                    .unwrap_or(0)
                    .max(1);
                (k.clone(), count as f64 / denom as f64)
            })
            .collect()
    }
}

/// One bee's stats snapshot inside a [`HiveMetrics`] report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeeStatsSnapshot {
    /// Application.
    pub app: AppName,
    /// The bee.
    pub bee: BeeId,
    /// The hive hosting it at snapshot time.
    pub hive: HiveId,
    /// Whether the bee is pinned (local singleton — never migrated).
    pub pinned: bool,
    /// Number of cells in its colony.
    pub cells: u64,
    /// The counters.
    pub stats: BeeStats,
}

/// The periodic per-hive metrics report, emitted by the collector app and
/// aggregated by the aggregator app (both in [`crate::platform`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HiveMetrics {
    /// Reporting hive.
    pub hive: HiveId,
    /// Report sequence number.
    pub seq: u64,
    /// Virtual/real timestamp (ms).
    pub now_ms: u64,
    /// Per-bee deltas since the previous report.
    pub bees: Vec<BeeStatsSnapshot>,
    /// Provenance deltas.
    pub provenance: Vec<(ProvenanceKey, u64)>,
    /// Parallel-executor deltas (empty on sequential hives).
    pub executor: ExecutorStats,
    /// Latency-histogram deltas per (app, message type).
    pub latency: Vec<(AppName, String, MsgLatency)>,
    /// Handler failures by kind since the previous report: `[error, panic]`.
    pub handler_failures: [u64; 2],
    /// Redeliveries scheduled since the previous report.
    pub redeliveries: u64,
    /// Messages dead-lettered since the previous report.
    pub dead_letters: u64,
    /// Wire frames that failed to decode since the previous report.
    pub decode_errors: u64,
    /// Bees currently quarantined on this hive (gauge).
    pub quarantined: u64,
    /// Reliable-channel retransmissions since the previous report.
    pub retransmits: u64,
    /// Duplicate frames suppressed by dedup since the previous report.
    pub dups_suppressed: u64,
    /// Standalone channel acks emitted since the previous report.
    pub channel_acks: u64,
    /// Unacked envelopes buffered for resend on this hive (gauge).
    pub outbox_depth: u64,
    /// Index the registry raft log is compacted through (gauge).
    pub snapshot_index: u64,
    /// Applied entries ahead of the last durable snapshot (gauge).
    pub snapshot_lag: u64,
    /// Registry snapshots installed from a peer since the previous report.
    pub snapshot_installs: u64,
    /// Torn journal tails truncated during recovery since the previous
    /// report.
    pub journal_torn_truncations: u64,
}
crate::impl_message!(HiveMetrics);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dominant_hive() {
        let mut s = BeeStats::default();
        let b = |h: u32| Some(BeeId::new(HiveId(h), 1));
        s.record_in(HiveId(1), b(1), 100);
        s.record_in(HiveId(2), b(2), 50);
        s.record_in(HiveId(2), b(2), 50);
        // External inputs (timers) are not part of the affinity signal.
        s.record_in(HiveId(1), None, 10);
        assert_eq!(s.msgs_in, 4);
        assert_eq!(s.bytes_in, 210);
        assert_eq!(s.external_in, 1);
        let (hive, count, total) = s.dominant_source_hive().unwrap();
        assert_eq!(hive, HiveId(2));
        assert_eq!(count, 2);
        assert_eq!(total, 3);
    }

    #[test]
    fn merge_accumulates() {
        let src = Some(BeeId::new(HiveId(1), 9));
        let mut a = BeeStats::default();
        a.record_in(HiveId(1), src, 10);
        let mut b = BeeStats::default();
        b.record_in(HiveId(1), src, 20);
        b.record_out(5);
        a.merge(&b);
        assert_eq!(a.msgs_in, 2);
        assert_eq!(a.bytes_in, 30);
        assert_eq!(a.msgs_out, 1);
        assert_eq!(a.in_by_hive[&1], 2);
    }

    #[test]
    fn executor_stats_record_and_merge() {
        let mut a = ExecutorStats::default();
        assert!(a.is_empty());
        a.record_round(3);
        a.record_batch(1, 10, 500);
        a.record_batch(0, 4, 200);
        assert_eq!(a.rounds, 1);
        assert_eq!(a.max_queue_depth, 3);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[1].messages, 10);
        let mut b = ExecutorStats::default();
        b.record_round(7);
        b.record_batch(2, 1, 9);
        a.merge(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.queued_bees, 10);
        assert_eq!(a.max_queue_depth, 7);
        assert_eq!(a.workers.len(), 3);
        assert_eq!(a.workers[2].batches, 1);
    }

    #[test]
    fn merge_delta_accumulates_counters() {
        let bee = BeeId::new(HiveId(1), 1);
        let mut base = Instrumentation::default();
        base.bee("te", bee).record_in(HiveId(1), None, 8);
        base.record_in_type("te", "PacketIn");
        let mut delta = Instrumentation::default();
        delta.bee("te", bee).record_in(HiveId(1), None, 4);
        delta.record_in_type("te", "PacketIn");
        delta.record_provenance("te", "PacketIn", "PacketOut");
        delta.bee_cells.insert(1, 5);
        delta.executor.record_batch(0, 2, 100);
        base.merge_delta(delta);
        assert_eq!(base.bees[&("te".to_string(), bee.0)].msgs_in, 2);
        assert_eq!(
            base.in_type_counts[&("te".to_string(), "PacketIn".to_string())],
            2
        );
        assert_eq!(base.bee_cells[&1], 5);
        assert_eq!(base.executor.workers[0].messages, 2);
    }

    #[test]
    fn histogram_observe_merge_p99() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p99_us(), None);
        h.observe(0); // below the smallest bound
        h.observe(50); // exactly on a bound → that bucket
        h.observe(51); // just above → next bucket
        h.observe(10_000_000); // overflow
        assert_eq!(h.count, 4);
        assert_eq!(h.sum_us, 10_000_101);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[LATENCY_BUCKET_COUNT - 1], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        // p99 of 4 observations is the max → overflow bucket (2× last bound).
        assert_eq!(h.p99_us(), Some(10_000_000));
        let mut other = LatencyHistogram::default();
        for _ in 0..396 {
            other.observe(80);
        }
        other.merge(&h);
        assert_eq!(other.count, 400);
        assert_eq!(other.buckets.iter().sum::<u64>(), 400);
        // 396/400 = 99% of observations are ≤ 100µs: p99 lands there now.
        assert_eq!(other.p99_us(), Some(100));
    }

    #[test]
    fn latency_deltas_flow_and_reset() {
        let mut inst = Instrumentation::default();
        inst.record_latency("te", "StatReply", 200, 900);
        inst.record_latency("te", "StatReply", 70_000, 3_000);
        let taken = inst.take();
        let lat = &taken.latency[&("te".to_string(), "StatReply".to_string())];
        assert_eq!(lat.queue_wait.count, 2);
        assert_eq!(lat.runtime.count, 2);
        assert!(
            inst.latency.is_empty(),
            "take leaves an empty latency delta"
        );
        let mut agg = Instrumentation::default();
        agg.merge_delta(taken);
        assert_eq!(
            agg.latency[&("te".to_string(), "StatReply".to_string())]
                .runtime
                .count,
            2
        );
    }

    /// The collector drains with `take` and the aggregator folds with
    /// `merge_delta`; across two collection cycles every observation must be
    /// counted exactly once.
    #[test]
    fn two_collection_cycles_never_double_count() {
        let bee = BeeId::new(HiveId(1), 1);
        let mut store = Instrumentation::default();
        let mut agg = Instrumentation::default();

        // Cycle 1: 3 deliveries, one provenance emission, one latency sample.
        for _ in 0..3 {
            store.bee("te", bee).record_in(HiveId(2), Some(bee), 10);
        }
        store.record_in_type("te", "PacketIn");
        store.record_provenance("te", "PacketIn", "PacketOut");
        store.record_latency("te", "PacketIn", 100, 1_000);
        store.pinned.insert(bee.0);
        store.bee_cells.insert(bee.0, 4);
        agg.merge_delta(store.take());

        // Cycle 2: 2 more deliveries and another latency sample.
        for _ in 0..2 {
            store.bee("te", bee).record_in(HiveId(2), Some(bee), 10);
        }
        store.record_latency("te", "PacketIn", 100, 1_000);
        agg.merge_delta(store.take());

        let key = ("te".to_string(), bee.0);
        assert_eq!(agg.bees[&key].msgs_in, 5, "3 + 2, no replay of cycle 1");
        assert_eq!(agg.bees[&key].bytes_in, 50);
        assert_eq!(agg.bees[&key].in_by_hive[&2], 5);
        assert_eq!(
            agg.provenance.values().copied().sum::<u64>(),
            1,
            "provenance from cycle 1 reported exactly once"
        );
        let lat = &agg.latency[&("te".to_string(), "PacketIn".to_string())];
        assert_eq!(lat.queue_wait.count, 2, "one sample per cycle");
        assert_eq!(lat.runtime.count, 2);
        // Metadata survives in the store (it describes state, not a delta)…
        assert!(store.pinned.contains(&bee.0));
        assert_eq!(store.bee_cells[&bee.0], 4);
        // …and the second take carried no stale counters.
        assert!(store.bees.is_empty());
    }

    /// `BeeStats::merge` on its own is additive, so merging two disjoint
    /// windows equals recording them into one stats object directly.
    #[test]
    fn bee_stats_merge_equals_direct_recording() {
        let src = Some(BeeId::new(HiveId(3), 7));
        let mut w1 = BeeStats::default();
        w1.record_in(HiveId(3), src, 10);
        w1.record_out(4);
        let mut w2 = BeeStats::default();
        w2.record_in(HiveId(3), src, 20);
        w2.record_in(HiveId(1), None, 5);
        let mut merged = BeeStats::default();
        merged.merge(&w1);
        merged.merge(&w2);
        let mut direct = BeeStats::default();
        direct.record_in(HiveId(3), src, 10);
        direct.record_out(4);
        direct.record_in(HiveId(3), src, 20);
        direct.record_in(HiveId(1), None, 5);
        assert_eq!(merged, direct);
    }

    #[test]
    fn failure_counters_flow_and_the_gauge_is_retained() {
        let mut inst = Instrumentation::default();
        inst.record_failure(FailureKind::Error);
        inst.record_failure(FailureKind::Panic);
        inst.record_failure(FailureKind::Panic);
        // Admission failures never count as handler failures.
        inst.record_failure(FailureKind::Quarantined);
        inst.record_failure(FailureKind::MailboxOverflow);
        inst.redeliveries = 4;
        inst.dead_letters = 2;
        inst.decode_errors = 1;
        inst.quarantined = 3;
        let taken = inst.take();
        assert_eq!(taken.handler_failures, [1, 2]);
        assert_eq!(taken.redeliveries, 4);
        assert_eq!(taken.dead_letters, 2);
        assert_eq!(taken.decode_errors, 1);
        // Deltas reset; the quarantine gauge survives the take.
        assert_eq!(inst.handler_failures, [0, 0]);
        assert_eq!(inst.redeliveries, 0);
        assert_eq!(inst.quarantined, 3);
        let mut agg = Instrumentation::default();
        agg.merge_delta(taken);
        agg.merge_delta(Instrumentation {
            handler_failures: [0, 1],
            ..Default::default()
        });
        assert_eq!(agg.handler_failures, [1, 3]);
        assert_eq!(agg.dead_letters, 2);
        assert_eq!(agg.quarantined, 3, "gauge merges by max, not sum");
    }

    #[test]
    fn channel_counters_flow_and_the_depth_gauge_is_retained() {
        let mut inst = Instrumentation::default();
        inst.retransmits = 3;
        inst.dups_suppressed = 5;
        inst.channel_acks = 2;
        inst.outbox_depth = 7;
        let taken = inst.take();
        assert_eq!(taken.retransmits, 3);
        assert_eq!(taken.dups_suppressed, 5);
        assert_eq!(taken.channel_acks, 2);
        // Deltas reset; the depth gauge survives the take.
        assert_eq!(inst.retransmits, 0);
        assert_eq!(inst.dups_suppressed, 0);
        assert_eq!(inst.outbox_depth, 7);
        let mut agg = Instrumentation::default();
        agg.merge_delta(taken);
        agg.merge_delta(Instrumentation {
            retransmits: 1,
            outbox_depth: 4,
            ..Default::default()
        });
        assert_eq!(agg.retransmits, 4);
        assert_eq!(agg.dups_suppressed, 5);
        assert_eq!(agg.outbox_depth, 7, "gauge merges by max, not sum");
    }

    #[test]
    fn snapshot_counters_flow_and_the_gauges_are_retained() {
        let mut inst = Instrumentation::default();
        inst.snapshot_index = 40;
        inst.snapshot_lag = 3;
        inst.snapshot_installs = 2;
        inst.journal_torn_truncations = 1;
        let taken = inst.take();
        assert_eq!(taken.snapshot_installs, 2);
        assert_eq!(taken.journal_torn_truncations, 1);
        // Deltas reset; the compaction gauges survive the take.
        assert_eq!(inst.snapshot_installs, 0);
        assert_eq!(inst.journal_torn_truncations, 0);
        assert_eq!(inst.snapshot_index, 40);
        assert_eq!(inst.snapshot_lag, 3);
        let mut agg = Instrumentation::default();
        agg.merge_delta(taken);
        agg.merge_delta(Instrumentation {
            snapshot_index: 24,
            snapshot_installs: 1,
            ..Default::default()
        });
        assert_eq!(agg.snapshot_installs, 3);
        assert_eq!(agg.journal_torn_truncations, 1);
        assert_eq!(agg.snapshot_index, 40, "gauge merges by max, not sum");
    }

    #[test]
    fn take_resets_store() {
        let mut inst = Instrumentation::default();
        inst.bee("te", BeeId::new(HiveId(1), 1))
            .record_in(HiveId(1), None, 8);
        inst.record_provenance("te", "StatReply", "FlowMod");
        let taken = inst.take();
        assert_eq!(taken.bees.len(), 1);
        assert_eq!(taken.provenance.len(), 1);
        assert!(inst.bees.is_empty());
        assert!(inst.provenance.is_empty());
    }
}
