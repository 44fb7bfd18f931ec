//! Boundary instruments (source A of the per-layer metrics): before/after
//! snapshots of what the running cluster publishes about itself —
//! `counters()`, `channel_stats()`, `instrumentation()`, the transports'
//! `TransportCounters`, the event journal — plus the kernel's per-thread
//! CPU times and the hops the `TracedTransport` paired. Taken around phase
//! `hi`; every `*_per_event` divides by that phase's arrivals.

use std::collections::BTreeMap;

use beehive_core::channel::ChannelStats;
use beehive_core::transport::{FrameKind, TransportSnapshot};
use beehive_core::{EventKind, HiveCounters, LatencyHistogram, LATENCY_BUCKETS_US};

use crate::clock::now_ns;
use crate::cluster::{Cluster, HiveThread};
use crate::procfs::thread_times;
use crate::stats::{quantile, sample, tail};
use crate::traced::Hop;

/// What one hive says about itself at one instant.
pub struct HiveSnap {
    pub hive: u32,
    pub counters: HiveCounters,
    pub channel: ChannelStats,
    pub applied_seq: u64,
    /// Local bees, all apps.
    pub bees: u64,
    /// Σ over bees, from `instrumentation()`.
    pub handled: u64,
    pub handler_ns: u64,
    pub queue_wait: LatencyHistogram,
    pub outbox_compactions: u64,
}

impl HiveSnap {
    pub fn take(thread: &HiveThread) -> HiveSnap {
        let id = thread.id.0;
        thread.with(move |hive| {
            let (mut handled, mut handler_ns) = (0, 0);
            let mut queue_wait = LatencyHistogram::default();
            {
                let instr = hive.instrumentation();
                let instr = instr.lock();
                for stats in instr.bees.values() {
                    handled += stats.msgs_in;
                    handler_ns += stats.handler_nanos;
                }
                for lat in instr.latency.values() {
                    queue_wait.merge(&lat.queue_wait);
                }
            }
            let apps: Vec<String> = hive.apps().iter().map(|a| a.name().to_string()).collect();
            HiveSnap {
                hive: id,
                counters: hive.counters().clone(),
                channel: hive.channel_stats(),
                applied_seq: hive.applied_seq(),
                bees: apps.iter().map(|a| hive.local_bee_count(a) as u64).sum(),
                handled,
                handler_ns,
                queue_wait,
                // The journal is a ring: once it wraps this is a lower bound.
                outbox_compactions: hive
                    .events()
                    .snapshot()
                    .iter()
                    .filter(|e| e.kind == EventKind::OutboxCompaction)
                    .count() as u64,
            }
        })
    }
}

/// The measured window around phase `hi`.
pub struct Window {
    traced: bool,
    t0_ns: u64,
    t1_ns: u64,
    events: u64,
    sent_before: Vec<TransportSnapshot>,
    sent_after: Vec<TransportSnapshot>,
    hives_before: Vec<HiveSnap>,
    hives_after: Vec<HiveSnap>,
    threads_before: BTreeMap<String, (u64, u64)>,
    threads_after: BTreeMap<String, (u64, u64)>,
}

impl Window {
    /// Untraced runs read the transport counters only (two atomic loads
    /// apiece); interrupting the hives for a snapshot is left to traced runs.
    pub fn open(cluster: &Cluster, traced: bool) -> Window {
        Window {
            traced,
            hives_before: if traced {
                cluster.hives.iter().map(HiveSnap::take).collect()
            } else {
                Vec::new()
            },
            threads_before: if traced {
                thread_times()
            } else {
                BTreeMap::new()
            },
            sent_before: cluster
                .hives
                .iter()
                .map(|h| h.counters.snapshot())
                .collect(),
            t0_ns: now_ns(),
            t1_ns: 0,
            events: 0,
            sent_after: Vec::new(),
            hives_after: Vec::new(),
            threads_after: BTreeMap::new(),
        }
    }

    pub fn close(mut self, cluster: &Cluster, events: u64) -> Window {
        self.t1_ns = now_ns();
        self.events = events;
        self.sent_after = cluster
            .hives
            .iter()
            .map(|h| h.counters.snapshot())
            .collect();
        if self.traced {
            self.threads_after = thread_times();
            self.hives_after = cluster.hives.iter().map(HiveSnap::take).collect();
        }
        self
    }

    /// Sum over both hives of a counter's growth inside the window.
    fn grew(&self, f: impl Fn(&HiveSnap) -> u64) -> f64 {
        self.hives_before
            .iter()
            .zip(&self.hives_after)
            .map(|(b, a)| f(a).saturating_sub(f(b)))
            .sum::<u64>() as f64
    }

    /// The larger of the two hives' growth of a counter inside the window.
    fn grew_most(&self, f: impl Fn(&HiveSnap) -> u64) -> u64 {
        self.hives_before
            .iter()
            .zip(&self.hives_after)
            .map(|(b, a)| f(a).saturating_sub(f(b)))
            .max()
            .unwrap_or(0)
    }

    /// Inter-hive wire bytes of every frame kind sent inside the window.
    fn bytes_sent(&self) -> f64 {
        FrameKind::ALL.iter().map(|&k| self.frames(k).1).sum()
    }

    fn frames(&self, kind: FrameKind) -> (f64, f64) {
        let (mut frames, mut bytes) = (0, 0);
        for (b, a) in self.sent_before.iter().zip(&self.sent_after) {
            frames += a.sent(kind).0 - b.sent(kind).0;
            bytes += a.sent(kind).1 - b.sent(kind).1;
        }
        (frames as f64, bytes as f64)
    }

    /// The busiest thread of a family (`bh-hive-*`, `bh-reactor-*`):
    /// (share of the window on a CPU, share runnable but waiting for one).
    fn busiest(&self, prefix: &str) -> (f64, f64) {
        let wall = (self.t1_ns - self.t0_ns) as f64;
        let mut worst = (0.0f64, 0.0f64);
        for (name, after) in &self.threads_after {
            if let (true, Some(before)) = (name.starts_with(prefix), self.threads_before.get(name))
            {
                let run = after.0.saturating_sub(before.0) as f64 / wall;
                let wait = after.1.saturating_sub(before.1) as f64 / wall;
                if run > worst.0 {
                    worst = (run, wait);
                }
            }
        }
        worst
    }

    pub fn metrics(
        &self,
        cluster: &Cluster,
        ends: &[HiveSnap],
        hops: &[Hop],
        out: &mut Vec<(&'static str, f64)>,
    ) {
        let events = self.events.max(1) as f64;
        let wall_ns = (self.t1_ns - self.t0_ns) as f64;
        let trace = &cluster.trace;
        let load =
            |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::SeqCst) as f64;

        // core.hive / core.executor: from instrumentation().
        let handled = self.grew(|s| s.handled);
        let handler_ns = self.grew(|s| s.handler_ns);
        let mut waits = LatencyHistogram::default();
        for (b, a) in self.hives_before.iter().zip(&self.hives_after) {
            waits.merge(&histogram_delta(&a.queue_wait, &b.queue_wait));
        }
        let busiest_handler = self.grew_most(|s| s.handler_ns) as f64 / wall_ns;
        let (hive_busy, hive_runq) = self.busiest("bh-hive-");
        let (reactor_busy, _) = self.busiest("bh-reactor-");
        out.extend([
            ("core.hive.msgs_per_event", handled / events),
            (
                "core.hive.queue_wait_p50_us",
                histogram_quantile(&waits, 0.5),
            ),
            (
                "core.hive.queue_wait_p99_us",
                histogram_quantile(&waits, 0.99),
            ),
            ("core.hive.thread_busy_frac", hive_busy),
            ("core.hive.runq_wait_frac", hive_runq),
            (
                "core.hive.handler_errors",
                ends.iter().map(|s| s.counters.handler_errors).sum::<u64>() as f64,
            ),
            (
                "core.executor.handler_us_per_event",
                handler_ns / events / 1e3,
            ),
            ("core.executor.busy_frac", busiest_handler),
        ]);

        // core.queen, core.registry: both stay at rest on these workloads,
        // which only read a warm registry view; a non-zero here says a change
        // made the steady state spawn bees or write the registry.
        let commits = self.grew_most(|s| s.applied_seq) as f64;
        out.extend([
            (
                "core.queen.bees_end",
                ends.iter().map(|s| s.bees).sum::<u64>() as f64,
            ),
            (
                "core.queen.spawns_per_s",
                self.grew(|s| s.bees) / (wall_ns / 1e9),
            ),
            ("core.registry.proposals_per_event", commits / events),
        ]);

        // core.channel / core.outbox: from channel_stats() and the journal.
        let sent = self.grew(|s| s.channel.sent);
        out.extend([
            (
                "core.channel.retransmits",
                self.grew(|s| s.channel.retransmits),
            ),
            (
                "core.channel.dup_drops",
                self.grew(|s| s.channel.dups_suppressed),
            ),
            (
                "core.channel.acks_per_frame",
                self.grew(|s| s.channel.acks_sent) / sent.max(1.0),
            ),
            (
                // Sampled where the run is interrupted anyway: at the
                // window's edges and at exit.
                "core.channel.unacked_max",
                self.hives_before
                    .iter()
                    .chain(&self.hives_after)
                    .chain(ends)
                    .map(|s| s.channel.outbox_depth)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            (
                "core.outbox.compactions",
                self.grew(|s| s.outbox_compactions),
            ),
        ]);

        // net: TransportCounters and the traced transport.
        let (app_frames, _) = self.frames(FrameKind::App);
        let (ctl_frames, _) = self.frames(FrameKind::Control);
        let (raft_frames, _) = self.frames(FrameKind::Raft);
        let mut hop_ns: Vec<u32> = hops
            .iter()
            .filter(|h| h.sent_ns >= self.t0_ns && h.recv_ns <= self.t1_ns)
            .map(|h| sample(h.recv_ns - h.sent_ns))
            .collect();
        hop_ns.sort_unstable();
        out.extend([
            (
                "net.send_ns",
                load(&trace.send_ns) / load(&trace.sends).max(1.0),
            ),
            (
                "net.recv_ns",
                load(&trace.recv_ns) / load(&trace.recvs).max(1.0),
            ),
            ("net.hop_p50_us", quantile(&hop_ns, 0.5) / 1e3),
            ("net.hop_p99_us", tail(&hop_ns).0 / 1e3),
            ("net.app_frames_per_event", app_frames / events),
            ("net.control_frames_per_event", ctl_frames / events),
            ("net.raft_frames_per_event", raft_frames / events),
            ("net.bytes_per_event", self.bytes_sent() / events),
            (
                "net.deferred",
                self.sent_before
                    .iter()
                    .zip(&self.sent_after)
                    .map(|(b, a)| a.deferred - b.deferred)
                    .sum::<u64>() as f64,
            ),
            ("net.reactor_busy_frac", reactor_busy),
        ]);
    }
}

fn histogram_delta(after: &LatencyHistogram, before: &LatencyHistogram) -> LatencyHistogram {
    let mut d = LatencyHistogram::default();
    for (i, slot) in d.buckets.iter_mut().enumerate() {
        *slot = after.buckets[i].saturating_sub(before.buckets[i]);
    }
    d.count = after.count.saturating_sub(before.count);
    d.sum_us = after.sum_us.saturating_sub(before.sum_us);
    d
}

/// The upper bound (µs) of the bucket holding quantile `q`; the overflow
/// bucket reports twice the largest bound, as `p99_us` does.
fn histogram_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let target = ((h.count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in h.buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return LATENCY_BUCKETS_US
                .get(i)
                .map_or(2 * LATENCY_BUCKETS_US[LATENCY_BUCKETS_US.len() - 1], |&b| b)
                as f64;
        }
    }
    0.0
}
