//! Runtime instrumentation (paper §3): per-bee resource consumption, message
//! exchange counts, and provenance (which input types produce which output
//! types). Collected locally on each hive and periodically aggregated on one
//! hive by the platform applications in [`crate::platform`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::id::{AppName, BeeId, HiveId, Name};

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

/// How one platform scalar behaves over time and across hives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// A count that only grows at its owner. A report carries its change
    /// since the hive's previous report, and those changes add up at every
    /// hop.
    Counter,
    /// Current state of one hive (the last report wins); the cluster figure
    /// is the sum over hives.
    GaugeSum,
    /// Current state of one hive; the cluster figure is the worst hive's.
    GaugeMax,
}

impl PlatformKind {
    /// The Prometheus `# TYPE` of a family of this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            PlatformKind::Counter => "counter",
            PlatformKind::GaugeSum | PlatformKind::GaugeMax => "gauge",
        }
    }
}

/// One row of [`PLATFORM_TABLE`]: everything the pipeline knows about one
/// [`PlatformCounters`] field.
#[derive(Debug, Clone, Copy)]
pub struct PlatformRow {
    /// The field's name.
    pub field: &'static str,
    /// How values of it fold.
    pub kind: PlatformKind,
    /// The Prometheus family it is exposed as. Adjacent rows may share one.
    pub family: &'static str,
    /// The label telling the rows of a shared family apart.
    pub label: Option<(&'static str, &'static str)>,
    /// The family's `# HELP` text.
    pub help: &'static str,
}

/// Declares the platform scalars: [`PlatformCounters`] gets one `u64` field
/// per row, in row order, and [`PLATFORM_TABLE`] the matching descriptions.
macro_rules! platform_counters {
    ($($field:ident: $kind:ident, $family:literal, $label:expr, $help:literal;)+) => {
        /// The hive-wide platform scalars: a reading of the counters and
        /// gauges the hive's components keep, carried whole from the
        /// hive's [`Instrumentation`] through [`HiveMetrics`] to the
        /// analytics store. Adding one is a row in this table, the count
        /// at the component that owns it and one line in the hive's
        /// reading; field order is wire order.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct PlatformCounters {
            $(#[doc = $help] pub $field: u64,)+
        }

        /// One row per [`PlatformCounters`] field, in field order — which is
        /// also the order of the `/metrics` exposition.
        pub const PLATFORM_TABLE: &[PlatformRow] = &[$(PlatformRow {
            field: stringify!($field),
            kind: PlatformKind::$kind,
            family: $family,
            label: $label,
            help: $help,
        },)+];

        impl PlatformCounters {
            /// Every row with this reading's value for it.
            pub fn rows(&self) -> impl Iterator<Item = (&'static PlatformRow, u64)> {
                PLATFORM_TABLE.iter().zip([$(self.$field,)+])
            }

            /// Every row with this reading's cell for it.
            pub fn rows_mut(&mut self) -> impl Iterator<Item = (&'static PlatformRow, &mut u64)> {
                PLATFORM_TABLE.iter().zip([$(&mut self.$field,)+])
            }
        }
    };
}

platform_counters! {
    handler_errors: Counter, "beehive_handler_failures_total", Some(("kind", "error")),
        "Failed handler invocations by kind.";
    handler_panics: Counter, "beehive_handler_failures_total", Some(("kind", "panic")),
        "Failed handler invocations by kind.";
    redeliveries: Counter, "beehive_redeliveries_total", None,
        "Supervised redelivery attempts.";
    dead_letters: Counter, "beehive_dead_letters_total", None,
        "Messages recorded in dead-letter queues.";
    decode_errors: Counter, "beehive_decode_errors_total", None,
        "Undecodable frames or payloads.";
    quarantined: GaugeSum, "beehive_quarantined_bees", None,
        "Bees currently quarantined.";
    retransmits: Counter, "beehive_retransmits_total", None,
        "Channel frames retransmitted after an ack timeout.";
    dups_suppressed: Counter, "beehive_dups_suppressed_total", None,
        "Duplicate frames absorbed by receiver dedup.";
    channel_acks: Counter, "beehive_channel_acks_total", None,
        "Standalone channel ack frames emitted.";
    outbox_depth: GaugeSum, "beehive_outbox_depth", None,
        "Unacked envelopes buffered for resend across hives.";
    snapshot_index: GaugeMax, "beehive_snapshot_index", None,
        "Highest registry log index covered by a durable snapshot.";
    snapshot_lag: GaugeMax, "beehive_snapshot_lag", None,
        "Applied registry entries not yet covered by a snapshot (worst hive).";
    snapshot_installs: Counter, "beehive_snapshot_installs_total", None,
        "Registry snapshots installed from peers.";
    journal_torn_truncations: Counter, "beehive_journal_torn_truncations_total", None,
        "Torn journal tails truncated during recovery.";
}

impl PlatformCounters {
    /// Whether every scalar is zero.
    pub fn is_zero(&self) -> bool {
        *self == PlatformCounters::default()
    }

    /// Folds the hive's next window into this one: counters add, gauges
    /// are replaced.
    pub fn absorb(&mut self, later: &PlatformCounters) {
        for ((row, mine), (_, theirs)) in self.rows_mut().zip(later.rows()) {
            match row.kind {
                PlatformKind::Counter => *mine += theirs,
                PlatformKind::GaugeSum | PlatformKind::GaugeMax => *mine = theirs,
            }
        }
    }

    /// What this reading reports after `earlier`, a reading of the same
    /// hive: counters by how much they grew, gauges as they are now.
    pub fn since(&self, earlier: &PlatformCounters) -> PlatformCounters {
        let mut window = *self;
        for ((row, cell), (_, before)) in window.rows_mut().zip(earlier.rows()) {
            if row.kind == PlatformKind::Counter {
                *cell = cell.saturating_sub(before);
            }
        }
        window
    }

    /// The cluster figure over one folded window per hive.
    pub fn fold<'a>(hives: impl IntoIterator<Item = &'a PlatformCounters>) -> PlatformCounters {
        let mut cluster = PlatformCounters::default();
        for hive in hives {
            for ((row, total), (_, value)) in cluster.rows_mut().zip(hive.rows()) {
                match row.kind {
                    PlatformKind::Counter | PlatformKind::GaugeSum => *total += value,
                    PlatformKind::GaugeMax => *total = (*total).max(value),
                }
            }
        }
        cluster
    }
}

/// A hive's local instrumentation store.
///
/// It is written once per handled message, so its keys clone without
/// allocating: applications by their interned [`Name`], message types by
/// the `&'static str` [`crate::message::Message::type_name`] returns. The
/// collector turns them into strings when it takes a window into a
/// [`HiveMetrics`] report.
#[derive(Debug, Clone, Default)]
pub struct Instrumentation {
    /// Stats per (app, bee).
    pub bees: BTreeMap<(Name, u64), BeeStats>,
    /// How many cells each bee instrumented in this window owns. Rewritten
    /// with every message the bee handles, so it is taken with the window.
    pub bee_cells: BTreeMap<u64, u64>,
    /// Provenance counters: how often, within an app, an input type
    /// produced an output type, keyed `(app, in_type, out_type)`.
    pub provenance: BTreeMap<(Name, &'static str, &'static str), u64>,
    /// Deliveries per (app, message type) — the denominators for
    /// [`Instrumentation::provenance_ratios`].
    pub in_type_counts: BTreeMap<(Name, &'static str), u64>,
    /// The bees instrumented in this window that are pinned to this hive
    /// (local singletons). Per window, like `bee_cells`.
    pub pinned: std::collections::BTreeSet<u64>,
    /// Cumulative bee-to-bee message matrix: `(src_hive, dst_hive) → msgs`.
    /// Never reset by [`Instrumentation::take`]; this is what regenerates
    /// the paper's Figure 4a–c inter-hive traffic matrices (which include
    /// the diagonal: locally processed messages).
    pub msg_matrix: BTreeMap<(u32, u32), u64>,
    /// Queue-wait / handler-runtime histograms per (app, message type).
    pub latency: BTreeMap<(Name, &'static str), MsgLatency>,
    /// The hive-wide scalars. In the hive's store, the latest reading the
    /// hive published (counters since boot, gauges as of the publish); in a
    /// window [`Instrumentation::take`] returned, what that window reports.
    pub platform: PlatformCounters,
    /// The reading the previous window was taken at.
    reported: PlatformCounters,
}

impl Instrumentation {
    /// Mutable stats for a bee.
    pub fn bee(&mut self, app: impl Into<Name>, bee: BeeId) -> &mut BeeStats {
        self.bees.entry((app.into(), bee.0)).or_default()
    }

    /// Records one bee-to-bee message for the cumulative matrix.
    pub fn record_matrix(&mut self, src_hive: HiveId, dst_hive: HiveId) {
        *self.msg_matrix.entry((src_hive.0, dst_hive.0)).or_insert(0) += 1;
    }

    /// Records a typed delivery (denominator for provenance ratios).
    pub fn record_in_type(&mut self, app: impl Into<Name>, in_type: &'static str) {
        *self
            .in_type_counts
            .entry((app.into(), in_type))
            .or_insert(0) += 1;
    }

    /// Records one handler invocation's latencies for `(app, in_type)`:
    /// `wait_us` in local queues before the handler, `runtime_us` inside it.
    pub fn record_latency(
        &mut self,
        app: impl Into<Name>,
        in_type: &'static str,
        wait_us: u64,
        runtime_us: u64,
    ) {
        let lat = self.latency.entry((app.into(), in_type)).or_default();
        lat.queue_wait.observe(wait_us);
        lat.runtime.observe(runtime_us);
    }

    /// Records that processing one `in_type` message emitted one `out_type`.
    pub fn record_provenance(
        &mut self,
        app: impl Into<Name>,
        in_type: &'static str,
        out_type: &'static str,
    ) {
        *self
            .provenance
            .entry((app.into(), in_type, out_type))
            .or_insert(0) += 1;
    }

    /// Takes the window, leaving the store empty but for what describes no
    /// window: the cumulative message matrix and the platform reading. The
    /// window's `platform` is the reading since the previous window's.
    pub fn take(&mut self) -> Instrumentation {
        let mut taken = std::mem::take(self);
        std::mem::swap(&mut self.msg_matrix, &mut taken.msg_matrix);
        self.platform = taken.platform;
        self.reported = taken.platform;
        taken.platform = taken.platform.since(&taken.reported);
        taken
    }

    /// Probability-style provenance summary: for each (app, in, out), the
    /// fraction of `in_type` deliveries that produced an `out_type` emission.
    /// (The paper's example: "packet out messages are emitted … upon
    /// receiving 80% of packet in's".)
    pub fn provenance_ratios(&self) -> Vec<(ProvenanceKey, f64)> {
        self.provenance
            .iter()
            .map(|((app, in_type, out_type), &count)| {
                let denom = self
                    .in_type_counts
                    .get(&(app.clone(), *in_type))
                    .copied()
                    .unwrap_or(0)
                    .max(1);
                let key = ProvenanceKey {
                    app: app.to_string(),
                    in_type: in_type.to_string(),
                    out_type: out_type.to_string(),
                };
                (key, count as f64 / denom as f64)
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
    /// Latency-histogram deltas per (app, message type).
    pub latency: Vec<(AppName, String, MsgLatency)>,
    /// The hive-wide scalars: counters since the previous report, gauges as
    /// of this one.
    pub platform: PlatformCounters,
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
        let lat = &taken.latency[&("te".into(), "StatReply")];
        assert_eq!(lat.queue_wait.count, 2);
        assert_eq!(lat.runtime.count, 2);
        assert!(
            inst.latency.is_empty(),
            "take leaves an empty latency delta"
        );
        inst.record_latency("te", "StatReply", 200, 900);
        assert_eq!(
            inst.take().latency[&("te".into(), "StatReply")]
                .runtime
                .count,
            1
        );
    }

    /// The collector drains with `take`: across two collection cycles every
    /// observation lands in exactly one window.
    #[test]
    fn two_collection_cycles_never_double_count() {
        let bee = BeeId::new(HiveId(1), 1);
        let mut store = Instrumentation::default();

        // Cycle 1: 3 deliveries, one provenance emission, one latency sample.
        for _ in 0..3 {
            store.bee("te", bee).record_in(HiveId(2), Some(bee), 10);
        }
        store.record_in_type("te", "PacketIn");
        store.record_provenance("te", "PacketIn", "PacketOut");
        store.record_latency("te", "PacketIn", 100, 1_000);
        store.pinned.insert(bee.0);
        store.bee_cells.insert(bee.0, 4);
        let first = store.take();

        // Cycle 2: 2 more deliveries and another latency sample.
        for _ in 0..2 {
            store.bee("te", bee).record_in(HiveId(2), Some(bee), 10);
        }
        store.record_latency("te", "PacketIn", 100, 1_000);
        let second = store.take();

        let key = ("te".into(), bee.0);
        let [one, two] = [&first, &second].map(|w| w.bees[&key].clone());
        assert_eq!((one.msgs_in, two.msgs_in), (3, 2), "no replay of cycle 1");
        assert_eq!(one.bytes_in + two.bytes_in, 50);
        assert_eq!(one.in_by_hive[&2] + two.in_by_hive[&2], 5);
        assert_eq!(first.provenance.values().copied().sum::<u64>(), 1);
        assert!(
            second.provenance.is_empty(),
            "provenance from cycle 1 reported exactly once"
        );
        for w in [&first, &second] {
            let lat = &w.latency[&("te".into(), "PacketIn")];
            assert_eq!(lat.queue_wait.count, 1, "one sample per cycle");
            assert_eq!(lat.runtime.count, 1);
        }
        // Metadata is rewritten with every handled message, so it leaves
        // with its window: nothing accumulates for bees that have gone.
        assert!(first.pinned.contains(&bee.0));
        assert_eq!(first.bee_cells[&bee.0], 4);
        assert!(second.pinned.is_empty() && second.bee_cells.is_empty());
        assert!(store.pinned.is_empty() && store.bee_cells.is_empty());
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

    /// Every table row gets a distinct value; the windows `take` cuts from
    /// the published readings and the per-hive and cross-hive folds must
    /// then treat each row as its kind declares.
    #[test]
    fn platform_rows_fold_as_the_table_declares() {
        let reading = |base: u64| {
            let mut p = PlatformCounters::default();
            for (i, (_, cell)) in p.rows_mut().enumerate() {
                *cell = base + i as u64;
            }
            p
        };
        // Two publishes a window apart: counters grow, gauges move.
        let first = reading(100);
        let mut second = reading(200);
        for ((row, cell), (_, was)) in second.rows_mut().zip(first.rows()) {
            if row.kind == PlatformKind::Counter {
                *cell += was;
            }
        }
        let mut inst = Instrumentation {
            platform: first,
            ..Default::default()
        };
        assert_eq!(
            inst.take().platform,
            first,
            "the first window is the reading"
        );
        inst.platform = second;
        assert_eq!(inst.take().platform, reading(200), "counters by growth");
        assert_eq!(inst.platform, second, "the store keeps the reading");

        // No publish in between: counters report nothing new, gauges stay.
        for ((row, value), (_, now)) in inst.take().platform.rows().zip(second.rows()) {
            let want = match row.kind {
                PlatformKind::Counter => 0,
                PlatformKind::GaugeSum | PlatformKind::GaugeMax => now,
            };
            assert_eq!(value, want, "{} in an idle window", row.field);
        }

        // Two windows of hive A and one of hive B.
        let mut hive_a = reading(100);
        hive_a.absorb(&reading(200));
        let cluster = PlatformCounters::fold([&hive_a, &reading(150)]);
        for (i, (row, got)) in cluster.rows().enumerate() {
            let i = i as u64;
            let want = match row.kind {
                PlatformKind::Counter => (100 + i) + (200 + i) + (150 + i),
                PlatformKind::GaugeSum => (200 + i) + (150 + i),
                PlatformKind::GaugeMax => 200 + i,
            };
            assert_eq!(got, want, "{} across hives", row.field);
        }
        assert!(PlatformCounters::default().is_zero() && !cluster.is_zero());
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
