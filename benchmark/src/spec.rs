//! Everything the benchmark freezes: the system under test, the workloads
//! with their rates, and the metric names. `--list` prints this file and
//! `check-names.sh` holds `BENCHMARK.json` to it. Nothing here is derived
//! from the machine at run time; rates are re-frozen only by a benchmark PR
//! (README "Rate calibration").

/// Emulated switches; the lower half is mastered by hive 1, the upper half
/// by hive 2.
pub const SWITCHES: usize = 16;
/// Hosts pre-learned per switch; host `h` sits on port `h + 1`.
pub const HOSTS: usize = 32;
/// Events outstanding in every closed loop — MAC learning, warm-up and the
/// closed phase (cbench's "throughput mode"): two per switch.
pub const OUTSTANDING: usize = 2 * SWITCHES;
/// Closed-loop events driven before any measurement, to fill caches and
/// finish lazy set-up. A fixed count, so work moved into set-up shows in
/// `setup_s` instead of hiding in a fixed sleep.
pub const WARMUP_EVENTS: usize = 2_000;
/// An event not complete this long after it was due is a failure.
pub const LATE_NS: u64 = 1_000_000_000;
/// Share of `--seconds` each phase takes. `hi` feeds only per-layer
/// metrics, so it gets the least.
pub const LO_SHARE: f64 = 0.4;
pub const HI_SHARE: f64 = 0.2;
pub const CLOSED_SHARE: f64 = 0.4;
/// Windows an open phase is cut into; its `*_p50_us` is the first-quartile
/// window's (README "Quartiles inside a run"). Few enough that at 45 s a
/// `pktin_remote` window still holds the 1 000 samples a p99 needs.
pub const OPEN_WINDOWS: usize = 16;
/// Slices the closed phase is cut into after its ramp; `events_per_s` is the
/// third-quartile slice's. A multiple of four, so a traced run's
/// off/on/on/off pattern gives both sides the same share.
pub const CLOSED_SLICES: usize = 32;

/// One workload: the same switches and generator, a different place for the
/// state to live.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Bytes of packet punted in each PACKET_IN.
    pub pkt_len: usize,
    pub kind: Kind,
    /// Open-loop arrival rates, events per second, frozen at about 10 % and
    /// 30 % of the calibration machine's closed-loop `events_per_s`.
    pub rate_lo: f64,
    pub rate_hi: f64,
}

impl Workload {
    /// Slots of the open loop's completion ring. An event leaves the ring
    /// when it completes or, at the latest, [`LATE_NS`] after it was due, so
    /// the ring holds twice the arrivals of that long at `rate_hi`: sized by
    /// the frozen rate, so the harness's share of `peak_rss_mb` stays small.
    pub fn open_ring(&self) -> usize {
        (2.0 * self.rate_hi * LATE_NS as f64 / 1e9) as usize
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Learning switch, each switch's `macs` cell beside its switch.
    Local,
    /// Learning switch, each switch's `macs` cell preclaimed on the far hive.
    Remote,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "pktin_local",
        why: "64 B punts, each switch's macs cell on its master hive: the whole loop stays on one hive, TCP carries Raft heartbeats only, so every wire-path optimisation is bypassed",
        pkt_len: 64,
        kind: Kind::Local,
        rate_lo: 10_000.0,
        rate_hi: 30_000.0,
    },
    Workload {
        name: "pktin_remote",
        why: "1500 B punts, every macs cell preclaimed on the far hive: each event crosses the wire out and back, so wire, channel, outbox, net and hive wake-ups dominate at identical handler work",
        pkt_len: 1500,
        kind: Kind::Remote,
        rate_lo: 990.0,
        rate_hi: 3_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What `--trace 0` prints. Failures are not a metric here (they are never
/// allowed, so the number would always be 0): they are the `failed` and
/// `correct` fields of the result line.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("events_per_s", "1/s", "higher", 0.25),
    e2e("rtt_lo_p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// What `--trace 1` prints: (A) boundary instruments around the running
/// cluster, (B) single-thread probes of each layer's public functions.
pub const PER_LAYER: &[Metric] = &[
    // The loaded round trip and the open phases' tails: too noisy on a shared
    // two-core box to gate (README "Why only the unloaded median is gated"),
    // so they are reported here.
    layer("rtt_hi_p50_us", "us", "lower"),
    layer("rtt_lo_p99_us", "us", "lower"),
    layer("rtt_hi_p99_us", "us", "lower"),
    // bench: is the harness itself trustworthy?
    layer("bench.gen_lag_p99_us", "us", "lower"),
    layer("bench.trace_overhead_frac", "ratio", "lower"),
    layer("bench.failed_frac", "ratio", "lower"),
    layer("bench.saturated", "count", "lower"),
    // core.hive
    layer("core.hive.emit_ns", "ns", "lower"),
    layer("core.hive.msgs_per_event", "count", "lower"),
    layer("core.hive.queue_wait_p50_us", "us", "lower"),
    layer("core.hive.queue_wait_p99_us", "us", "lower"),
    layer("core.hive.thread_busy_frac", "ratio", "lower"),
    layer("core.hive.runq_wait_frac", "ratio", "lower"),
    layer("core.hive.local_msg_ns", "ns", "lower"),
    layer("core.hive.handler_errors", "count", "lower"),
    // core.executor
    layer("core.executor.handler_us_per_event", "us", "lower"),
    layer("core.executor.busy_frac", "ratio", "lower"),
    // core.state
    layer("core.state.tx_rw_ns", "ns", "lower"),
    layer("core.state.commit_ns", "ns", "lower"),
    layer("core.state.rollback_ns", "ns", "lower"),
    // core.queen
    layer("core.queen.bees_end", "count", "lower"),
    layer("core.queen.spawns_per_s", "1/s", "higher"),
    // core.registry
    layer("core.registry.lookup_ns.1k", "ns", "lower"),
    layer("core.registry.lookup_ns.100k", "ns", "lower"),
    layer("core.registry.apply_ns", "ns", "lower"),
    layer("core.registry.proposals_per_event", "count", "lower"),
    // raft
    layer("raft.cpu_ns_per_commit", "ns", "lower"),
    layer("raft.storage_append_ns", "ns", "lower"),
    // core.channel
    layer("core.channel.wrap_ns.64", "ns", "lower"),
    layer("core.channel.wrap_ns.1500", "ns", "lower"),
    layer("core.channel.on_frame_ns.64", "ns", "lower"),
    layer("core.channel.on_frame_ns.1500", "ns", "lower"),
    layer("core.channel.retransmits", "count", "lower"),
    layer("core.channel.dup_drops", "count", "lower"),
    layer("core.channel.acks_per_frame", "ratio", "lower"),
    layer("core.channel.unacked_max", "count", "lower"),
    // core.outbox
    layer("core.outbox.append_ns.64", "ns", "lower"),
    layer("core.outbox.append_ns.1500", "ns", "lower"),
    layer("core.outbox.compactions", "count", "lower"),
    // wire
    layer("wire.encode_ns.64", "ns", "lower"),
    layer("wire.encode_ns.1500", "ns", "lower"),
    layer("wire.decode_ns.64", "ns", "lower"),
    layer("wire.decode_ns.1500", "ns", "lower"),
    // openflow
    layer("openflow.decode_pktin_ns.64", "ns", "lower"),
    layer("openflow.decode_pktin_ns.1500", "ns", "lower"),
    layer("openflow.encode_flowmod_ns", "ns", "lower"),
    layer("openflow.encode_pktout_ns.64", "ns", "lower"),
    layer("openflow.encode_pktout_ns.1500", "ns", "lower"),
    // net
    layer("net.send_ns", "ns", "lower"),
    layer("net.recv_ns", "ns", "lower"),
    layer("net.hop_p50_us", "us", "lower"),
    layer("net.hop_p99_us", "us", "lower"),
    layer("net.app_frames_per_event", "count", "lower"),
    layer("net.control_frames_per_event", "count", "lower"),
    layer("net.raft_frames_per_event", "count", "lower"),
    layer("net.bytes_per_event", "B", "lower"),
    layer("net.deferred", "count", "lower"),
    layer("net.reactor_busy_frac", "ratio", "lower"),
    layer("net.frame_encode_ns.64", "ns", "lower"),
    layer("net.frame_encode_ns.1500", "ns", "lower"),
    layer("net.frame_decode_ns.64", "ns", "lower"),
    layer("net.frame_decode_ns.1500", "ns", "lower"),
    layer("net.reactor_frames_per_s.64", "1/s", "higher"),
    layer("net.reactor_frames_per_s.1500", "1/s", "higher"),
    layer("net.reactor_rtt_us", "us", "lower"),
];
