//! One run of a cluster workload: set-up, then the three measured phases,
//! then the output checks.
//!
//! Everything here runs on the one generator thread. It owns no sockets; it
//! talks to the system only through `HiveHandle::emit` and hears back only
//! through the bench's `SwitchIo` ([`crate::sink`]).
//!
//! Every phase is cut into windows. What a shared host does to a run is
//! one-sided (a stolen CPU makes a window slower, never faster), so the gated
//! numbers are the quiet quarter's: the first-quartile window's median round
//! trip and the third-quartile slice's rate. The tails are the median
//! window's.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use beehive_openflow::switch::SwitchModel;
use beehive_openflow::SwitchUpstream;

use crate::clock::{now_ns, wait_until};
use crate::cluster::{master_of, Cluster};
use crate::layers::{HiveSnap, Window};
use crate::packet::{PacketInTemplate, FLAG_EXPECT_FLOOD};
use crate::procfs;
use crate::schedule::{open_schedule, run_open, Arrival, Flow, Rng};
use crate::sink::Sink;
use crate::spec::{
    Workload, CLOSED_SHARE, CLOSED_SLICES, HI_SHARE, HOSTS, LATE_NS, LO_SHARE, OPEN_WINDOWS,
    OUTSTANDING, SWITCHES, WARMUP_EVENTS,
};
use crate::stats::{quantile, quantile_f64, sample, tail};
use crate::trace_out::{self, EventSpan, MAX_WRITTEN};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty on a correct run.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// What an open phase saw.
struct OpenResult {
    /// Per window of due time: due → completion, ns, ascending; completed
    /// events only.
    windows: Vec<Vec<u32>>,
    /// Due → the moment the generator actually called `emit`, ns, ascending.
    /// Kept by a traced run only.
    lag: Vec<u32>,
    issued: u64,
    failed: u64,
    saturated: bool,
    /// The first [`MAX_WRITTEN`] events, for the trace file.
    spans: Vec<EventSpan>,
}

impl OpenResult {
    /// First quartile over the windows of each window's p50 and median over
    /// them of each window's tail, µs; then the smallest window's sample
    /// count and the percentile its tail stands for.
    fn summary(&self) -> (f64, f64, usize, f64) {
        let mut p50s: Vec<f64> = self.windows.iter().map(|w| quantile(w, 0.5)).collect();
        let mut tails: Vec<f64> = self.windows.iter().map(|w| tail(w).0).collect();
        let smallest = self
            .windows
            .iter()
            .min_by_key(|w| w.len())
            .expect("OPEN_WINDOWS >= 1");
        (
            quantile_f64(&mut p50s, 0.25) / 1e3,
            quantile_f64(&mut tails, 0.5) / 1e3,
            smallest.len(),
            tail(smallest).1,
        )
    }
}

/// What a closed loop saw.
#[derive(Default, Clone, Copy)]
struct ClosedResult {
    issued: u64,
    /// Completed inside the measured window.
    completed: u64,
    failed: u64,
    window_ns: u64,
}

impl ClosedResult {
    fn per_second(&self) -> f64 {
        self.completed as f64 / (self.window_ns as f64 / 1e9)
    }
}

enum Stop {
    /// Issue exactly this many events (set-up).
    Count(usize),
    /// Issue until this instant (measurement).
    At(u64),
    /// Issue until the feeder runs dry (MAC learning).
    Drained,
}

struct Lane {
    slot: usize,
    switch: u8,
    /// When the event in flight was issued, if one is.
    in_flight: Option<u64>,
}

/// Reads an open phase's finished events off the completion ring, oldest
/// first. Generator-side memory only: what the sink cannot know.
struct Harvest {
    /// Index of the ring's first slot in the sink, and its length.
    base: usize,
    ring: usize,
    start_ns: u64,
    phase_ns: u64,
    /// Due time of the event in each ring slot.
    due: Vec<u64>,
    /// `(switch, emit called, emit returned)` of the first events, kept only
    /// for the trace file.
    emit_times: Vec<(u8, u64, u64)>,
    /// Events read so far; the next to read is this one.
    read: u64,
}

impl Harvest {
    /// Reads events `read..upto` while each is complete or late, and stops at
    /// the first that is neither — unless `give_up`, which fails it.
    fn advance(&mut self, sink: &Sink, r: &mut OpenResult, upto: u64, now: u64, give_up: bool) {
        while self.read < upto {
            let idx = (self.read % self.ring as u64) as usize;
            let (due, done) = (self.due[idx], sink.done_ns(self.base + idx));
            if done != 0 && done <= due + LATE_NS {
                let window = (due - self.start_ns) * OPEN_WINDOWS as u64 / self.phase_ns;
                r.windows[(window as usize).min(OPEN_WINDOWS - 1)]
                    .push(sample(done.saturating_sub(due)));
            } else if done != 0 || now > due + LATE_NS || give_up {
                r.failed += 1;
            } else {
                return;
            }
            if let (Some(&(switch, at, end)), true) =
                (self.emit_times.get(self.read as usize), done != 0)
            {
                r.spans.push(EventSpan {
                    switch,
                    due_ns: due,
                    emit_start_ns: at,
                    emit_end_ns: end,
                    done_ns: done,
                });
            }
            self.read += 1;
        }
    }
}

/// The generator: the cluster's two handles, the sink, the templates.
struct Generator<'a> {
    cluster: &'a Cluster,
    template: PacketInTemplate,
    rng: Rng,
    open_ring: usize,
}

impl<'a> Generator<'a> {
    fn new(cluster: &'a Cluster, w: &Workload, seed: u64) -> Self {
        cluster.sink.set_waiter();
        Generator {
            cluster,
            template: PacketInTemplate::new(w.pkt_len),
            rng: Rng::new(seed),
            open_ring: w.open_ring(),
        }
    }

    fn emit(&mut self, slot: usize, flow: Flow, flags: u8) {
        let id = self.cluster.sink.arm(slot);
        let dpid = u64::from(flow.switch);
        let bytes = self.template.event(dpid, flow.src, flow.dst, id, flags);
        self.cluster
            .hive(master_of(dpid))
            .handle
            .emit(SwitchUpstream { dpid, bytes });
    }

    /// OpenFlow handshakes: every switch says HELLO to its master hive and
    /// answers the driver's FEATURES_REQUEST, the way `crates/sim`'s fleet
    /// does it with the repo's own switch model.
    fn handshake(&mut self) -> Result<(), String> {
        let mut models: Vec<SwitchModel> = (1..=SWITCHES as u64)
            .map(|dpid| SwitchModel::new(dpid, HOSTS as u16))
            .collect();
        for m in &mut models {
            let dpid = m.dpid();
            let bytes = m.hello();
            self.cluster
                .hive(master_of(dpid))
                .handle
                .emit(SwitchUpstream { dpid, bytes });
        }
        let mut answered = 0;
        let deadline = now_ns() + 10 * LATE_NS;
        while answered < SWITCHES {
            if now_ns() > deadline {
                return Err(format!(
                    "only {answered} of {SWITCHES} switches were asked for features"
                ));
            }
            for (dpid, bytes) in self.cluster.sink.take_other() {
                let model = &mut models[dpid as usize - 1];
                let replies = model
                    .handle_bytes(&bytes)
                    .map_err(|e| format!("switch {dpid} cannot read the driver's bytes: {e:?}"))?;
                for bytes in replies {
                    answered += 1;
                    self.cluster
                        .hive(master_of(dpid))
                        .handle
                        .emit(SwitchUpstream { dpid, bytes });
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Closed loop: a lane's next event is issued when its previous one
    /// completes, or is given up as late.
    fn closed(
        &mut self,
        stop: Stop,
        mut feed: impl FnMut(&mut Rng, usize, u8) -> Option<(Flow, u8)>,
    ) -> ClosedResult {
        // Every switch has two lanes of its own.
        let mut lanes: Vec<Lane> = (0..OUTSTANDING)
            .map(|i| Lane {
                slot: i,
                switch: (i % SWITCHES) as u8 + 1,
                in_flight: None,
            })
            .collect();
        let mut r = ClosedResult::default();
        let start = now_ns();
        let sink = &self.cluster.sink;
        sink.wake_on_completion(true);
        loop {
            let now = now_ns();
            let mut progressed = false;
            let mut busy = 0;
            for (i, lane) in lanes.iter_mut().enumerate() {
                if let Some(issued_at) = lane.in_flight {
                    let done = sink.done_ns(lane.slot);
                    if done != 0 {
                        r.completed += u64::from(!matches!(stop, Stop::At(t) if done > t));
                    } else if now > issued_at + LATE_NS {
                        r.failed += 1;
                    } else {
                        busy += 1;
                        continue;
                    }
                    lane.in_flight = None;
                    progressed = true;
                }
                let may_issue = match stop {
                    Stop::Count(n) => (r.issued as usize) < n,
                    Stop::At(t) => now < t,
                    Stop::Drained => true,
                };
                if !may_issue {
                    continue;
                }
                if let Some((flow, flags)) = feed(&mut self.rng, i, lane.switch) {
                    self.emit(lane.slot, flow, flags);
                    lane.in_flight = Some(now_ns());
                    r.issued += 1;
                    busy += 1;
                    progressed = true;
                }
            }
            if busy == 0 && !progressed {
                break; // nothing in flight and nothing left to issue
            }
            if !progressed {
                std::thread::park_timeout(Duration::from_micros(500));
            }
        }
        sink.wake_on_completion(false);
        r.window_ns = match stop {
            Stop::At(t) => t - start,
            _ => now_ns() - start,
        };
        r
    }

    /// Each host sends one packet to a host nobody has seen: the learning
    /// switch learns 32 hosts per switch and floods each packet.
    fn learn_macs(&mut self) -> ClosedResult {
        // A switch's two lanes take the even and the odd hosts.
        let mut todo: Vec<VecDeque<u8>> = (0..OUTSTANDING)
            .map(|lane| {
                (0..HOSTS as u8)
                    .filter(|h| usize::from(h % 2) == lane / SWITCHES)
                    .collect()
            })
            .collect();
        self.closed(Stop::Drained, |_, lane, switch| {
            let src = todo[lane].pop_front()?;
            // Host number HOSTS never sends, so it is never learned.
            let dst = HOSTS as u8;
            Some((Flow { switch, src, dst }, FLAG_EXPECT_FLOOD))
        })
    }

    fn warm_up(&mut self) -> ClosedResult {
        self.closed(Stop::Count(WARMUP_EVENTS), |rng, _, switch| {
            Some((Flow::on_switch(switch, rng), 0))
        })
    }

    fn closed_for(&mut self, window_ns: u64) -> ClosedResult {
        let until = now_ns() + window_ns;
        self.closed(Stop::At(until), |rng, _, switch| {
            Some((Flow::on_switch(switch, rng), 0))
        })
    }

    /// Open loop: arrivals at their scheduled instants, whatever the system
    /// does; latency from the instant each was *due*.
    ///
    /// Completion slots are a ring behind the closed loop's lanes. An event's
    /// slot is read, in issue order, once it completed or is late — long
    /// before the ring comes round to it.
    fn open(
        &mut self,
        arrivals: impl Iterator<Item = Arrival>,
        phase_ns: u64,
        expected: usize,
        keep_spans: bool,
    ) -> OpenResult {
        let sink = &self.cluster.sink;
        let completed_before = sink.counts().completed;
        let kept = if keep_spans { MAX_WRITTEN } else { 0 };
        let mut r = OpenResult {
            windows: (0..OPEN_WINDOWS)
                .map(|_| Vec::with_capacity(expected / OPEN_WINDOWS * 5 / 4 + 16))
                .collect(),
            lag: Vec::with_capacity(if keep_spans { expected * 5 / 4 + 16 } else { 0 }),
            issued: 0,
            failed: 0,
            saturated: false,
            spans: Vec::with_capacity(kept),
        };
        let ring = self.open_ring;
        let mut h = Harvest {
            base: sink.slots() - ring,
            ring,
            start_ns: now_ns() + 1_000_000,
            phase_ns,
            due: vec![0; ring],
            emit_times: Vec::with_capacity(kept),
            read: 0,
        };
        let mut outstanding_mid = None;
        run_open(arrivals, h.start_ns, wait_until, |i, a, issued_ns| {
            if i >= ring {
                // The ring has come round: the event that had this slot is
                // read now, done or not (it is long late if not).
                h.advance(sink, &mut r, (i + 1 - ring) as u64, issued_ns, true);
            }
            let idx = i % ring;
            let due = h.start_ns + a.due_ns;
            h.due[idx] = due;
            self.emit(h.base + idx, a.flow, 0);
            r.issued += 1;
            if keep_spans {
                r.lag.push(sample(issued_ns.saturating_sub(due)));
            }
            if h.emit_times.len() < kept {
                h.emit_times.push((a.flow.switch, issued_ns, now_ns()));
            }
            if outstanding_mid.is_none() && a.due_ns >= phase_ns / 2 {
                let done = sink.counts().completed - completed_before;
                outstanding_mid = Some(r.issued as i64 - done as i64);
            }
            let issued = r.issued;
            h.advance(sink, &mut r, issued, issued_ns, false);
        });
        let done = sink.counts().completed - completed_before;
        let outstanding_end = r.issued as i64 - done as i64;
        // A backlog that grew over the second half by more than 5 % of the
        // arrivals (and by more than a handful of in-flight events) means the
        // rate is beyond what the system sustains.
        let grew = outstanding_end - outstanding_mid.unwrap_or(0);
        r.saturated = grew > 10 && grew as f64 > 0.05 * r.issued as f64;

        // Let the tail finish: until everything is read, done or late.
        while h.read < r.issued {
            std::thread::sleep(Duration::from_millis(1));
            let issued = r.issued;
            h.advance(sink, &mut r, issued, now_ns(), false);
        }
        for w in &mut r.windows {
            w.sort_unstable();
        }
        r.lag.sort_unstable();
        r
    }
}

/// Boots a cluster and brings it to the point where measurement can start.
/// Returns the cluster and how long that took (seconds).
fn set_up(
    w: &'static Workload,
    seed: u64,
    traced: bool,
    dir: &Path,
) -> Result<(Cluster, f64), String> {
    let t0 = now_ns();
    let sink = Arc::new(Sink::new(OUTSTANDING + w.open_ring()));
    let cluster = Cluster::boot(w.kind, sink, traced, dir.to_path_buf())?;
    let mut gen = Generator::new(&cluster, w, seed ^ 0x5E70);
    gen.handshake()?;
    let learned = gen.learn_macs();
    if learned.failed > 0 || learned.completed as usize != SWITCHES * HOSTS {
        return Err(format!(
            "MAC learning: {} of {} packets flooded back, {} late",
            learned.completed,
            SWITCHES * HOSTS,
            learned.failed
        ));
    }
    let warm = gen.warm_up();
    if warm.failed > 0 || warm.completed as usize != WARMUP_EVENTS {
        return Err(format!(
            "warm-up: {} of {WARMUP_EVENTS} events completed, {} late",
            warm.completed, warm.failed
        ));
    }
    Ok((cluster, (now_ns() - t0) as f64 / 1e9))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let w = args.workload;
    let phase_ns = |share: f64| (args.seconds * share * 1e9) as u64;
    let (lo_ns, hi_ns, closed_ns) = (
        phase_ns(LO_SHARE),
        phase_ns(HI_SHARE),
        phase_ns(CLOSED_SHARE),
    );
    let run_dir = args.out_dir.join(format!("run-{}", std::process::id()));

    let (cluster, setup_s) = set_up(w, args.seed, args.trace, &run_dir.join("storage"))?;
    // Only now, with the system's threads all started: a thread inherits its
    // creator's timer slack, as it would a scheduling policy.
    crate::clock::no_timer_slack();
    let mut out = Outcome::default();
    let mut gen = Generator::new(&cluster, w, args.seed);
    let expected = |rate: f64, phase_ns: u64| (rate * phase_ns as f64 / 1e9) as usize;

    // Phase lo.
    cluster.trace.set_enabled(args.trace);
    let lo = open_schedule(args.seed ^ 0x10, w.rate_lo, lo_ns);
    let lo_r = gen.open(lo, lo_ns, expected(w.rate_lo, lo_ns), args.trace);

    // Phase hi, bracketed by counter snapshots.
    let before = Window::open(&cluster, args.trace);
    let hi = open_schedule(args.seed ^ 0x20, w.rate_hi, hi_ns);
    let hi_r = gen.open(hi, hi_ns, expected(w.rate_hi, hi_ns), args.trace);
    let window = before.close(&cluster, hi_r.issued);
    let hops = cluster.trace.take_hops();

    // Phase closed. Its first tenth is a ramp nobody counts: after two
    // mostly idle open phases the cores, caches and the hives' run loops
    // take a moment to reach the closed loop's pace. The rest is cut into
    // slices, and `events_per_s` is the third-quartile slice. A traced run
    // alternates the wrappers off / on over the slices in an order (off on
    // on off …) that cancels drift; the two quartiles' difference is what
    // tracing costs.
    let ramp = gen.closed_for(closed_ns / 10);
    let slice_ns = (closed_ns - closed_ns / 10) / CLOSED_SLICES as u64;
    let mut slices: [Vec<ClosedResult>; 2] = [Vec::new(), Vec::new()];
    for slice in 0..CLOSED_SLICES {
        let traced = args.trace && [false, true, true, false][slice % 4];
        cluster.trace.set_enabled(traced);
        slices[usize::from(traced)].push(gen.closed_for(slice_ns));
    }
    cluster.trace.set_enabled(false);
    let quiet_rate = |slices: &[ClosedResult]| {
        quantile_f64(
            &mut slices
                .iter()
                .map(ClosedResult::per_second)
                .collect::<Vec<_>>(),
            0.75,
        )
    };
    let events_per_s = quiet_rate(&slices[0]);

    // Output checks.
    let closed_all = || slices.iter().flatten().chain([&ramp]);
    out.attempted = lo_r.issued + hi_r.issued + closed_all().map(|c| c.issued).sum::<u64>();
    out.failed = lo_r.failed + hi_r.failed + closed_all().map(|c| c.failed).sum::<u64>();
    // Stragglers: a late duplicate lands before the counts are read.
    std::thread::sleep(Duration::from_millis(50));
    let counts = cluster.sink.counts();
    if counts.duplicates > 0 {
        out.violations
            .push(format!("{} events answered twice", counts.duplicates));
    }
    if counts.wrong > 0 {
        out.violations.push(format!(
            "{} replies with a missing or wrong FLOW_MOD, port or id",
            counts.wrong
        ));
    }
    let stray = cluster.sink.take_other().len();
    if stray > 0 {
        out.violations.push(format!(
            "{stray} unexpected downstream messages after set-up"
        ));
    }
    out.failed += counts.duplicates + counts.wrong;
    let ends: Vec<HiveSnap> = cluster.hives.iter().map(HiveSnap::take).collect();
    for s in &ends {
        let c = &s.counters;
        for (what, n) in [
            ("handler_errors", c.handler_errors),
            ("handler_panics", c.handler_panics),
            ("dead_letters", c.dead_letters),
            ("decode_errors", c.decode_errors),
        ] {
            if n > 0 {
                out.violations
                    .push(format!("hive {}: {what} = {n}", s.hive));
            }
        }
    }
    let misplaced = cluster.misplaced(w.kind);
    if misplaced > 0 {
        out.violations.push(format!(
            "{misplaced} macs cells are not on the hive the workload put them on"
        ));
    }
    if lo_r.saturated || hi_r.saturated {
        out.violations.push(format!(
            "open phase saturated (lo: {}, hi: {}): the frozen rate is beyond this commit; rates are re-frozen by a benchmark PR",
            lo_r.saturated, hi_r.saturated
        ));
    }

    // Metrics.
    let (lo_p50, lo_tail, lo_n, lo_q) = lo_r.summary();
    let (hi_p50, hi_tail, hi_n, hi_q) = hi_r.summary();
    eprintln!(
        "[{}] set-up {setup_s:.3} s; lo {} events, p{} from >= {lo_n} samples a window; hi {} events, p{} from >= {hi_n} samples a window; closed {:?} events/s by slice",
        w.name,
        lo_r.issued,
        lo_q * 100.0,
        hi_r.issued,
        hi_q * 100.0,
        slices[0]
            .iter()
            .map(|s| s.per_second().round())
            .collect::<Vec<_>>(),
    );
    let by_window = |r: &OpenResult| -> Vec<f64> {
        r.windows
            .iter()
            .map(|w| (quantile(w, 0.5) / 1e3).round())
            .collect()
    };
    eprintln!(
        "[{}] p50 by window, us: lo {:?}, hi {:?}",
        w.name,
        by_window(&lo_r),
        by_window(&hi_r)
    );
    if args.trace {
        let mut lag: Vec<u32> = lo_r.lag.iter().chain(&hi_r.lag).copied().collect();
        lag.sort_unstable();
        eprintln!(
            "[{}] generator lag p50 {:.1} us over {} events",
            w.name,
            quantile(&lag, 0.5) / 1e3,
            lag.len()
        );
        let emit_ns: u64 = hi_r
            .spans
            .iter()
            .map(|s| s.emit_end_ns - s.emit_start_ns)
            .sum();
        out.metrics.extend([
            ("rtt_hi_p50_us", hi_p50),
            ("rtt_lo_p99_us", lo_tail),
            ("rtt_hi_p99_us", hi_tail),
            ("bench.gen_lag_p99_us", tail(&lag).0 / 1e3),
            (
                "bench.trace_overhead_frac",
                1.0 - quiet_rate(&slices[1]) / events_per_s,
            ),
            (
                "bench.failed_frac",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
            (
                "bench.saturated",
                f64::from(u8::from(lo_r.saturated) + u8::from(hi_r.saturated)),
            ),
            (
                "core.hive.emit_ns",
                emit_ns as f64 / hi_r.spans.len().max(1) as f64,
            ),
        ]);
        window.metrics(&cluster, &ends, &hops, &mut out.metrics);
        let path = args.out_dir.join(format!("trace-{}.json", w.name));
        trace_out::write(&path, lo_r.spans.iter().chain(&hi_r.spans), &hops)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("[{}] spans written to {}", w.name, path.display());
    } else {
        out.metrics.extend([
            ("setup_s", setup_s),
            ("events_per_s", events_per_s),
            ("rtt_lo_p50_us", lo_p50),
        ]);
    }
    drop(gen);
    cluster.shutdown();
    if args.trace {
        // With the cluster gone, nothing competes with the probes.
        crate::probes::run_all(&run_dir.join("probes"), &mut out.metrics)?;
    } else {
        // After shutdown, so the whole run's high-water mark is in.
        out.metrics.push(("peak_rss_mb", procfs::peak_rss_mb()));
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(out)
}
