//! The hive records each handler run's bookkeeping on its own thread and
//! publishes it into the shared instrumentation at the end of every step
//! and just before any local singleton runs. These tests pin what that
//! must look like from outside: a local singleton reading mid-step sees
//! every run before it, exactly; a bee that leaves the hive mid-step keeps
//! its counts; and warm bookkeeping allocates nothing per message.
//!
//! This binary installs a counting global allocator (thread-local switch,
//! as in `alloc_budget.rs`); it counts only inside [`allocations`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use beehive::core::sync::Mutex;
use beehive::core::trace::TRACE_CAPACITY;
use beehive::core::{
    App, BeeId, Hive, HiveConfig, HiveId, Instrumentation, Loopback, Mapped, SimClock,
    TraceCollector,
};
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

struct Counting;

thread_local! {
    static COUNTING: StdCell<bool> = const { StdCell::new(false) };
    static COUNT: StdCell<u64> = const { StdCell::new(0) };
}

fn note() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(|n| n.get())
}

/// An external input; the relay answers each with a [`Pong`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Ping {
    last: bool,
}
beehive::core::impl_message!(Ping);

/// Relay → sink. The sink answers the last one with a [`Probe`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pong {
    last: bool,
}
beehive::core::impl_message!(Pong);

/// Runs the reader, a local singleton.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Probe;
beehive::core::impl_message!(Probe);

fn relay() -> App {
    App::builder("relay")
        .handle::<Ping>(
            |_m| Mapped::cell("r", "k"),
            |m, ctx| {
                ctx.emit(Pong { last: m.last });
                Ok(())
            },
        )
        .build()
}

fn sink() -> App {
    App::builder("sink")
        .handle::<Pong>(
            |_m| Mapped::cell("s", "k"),
            |m, ctx| {
                if m.last {
                    ctx.emit(Probe);
                }
                Ok(())
            },
        )
        .build()
}

/// What the reader saw when it ran: the window it took, the cumulative
/// message matrix and how many spans had been recorded.
struct Seen {
    window: Instrumentation,
    matrix: BTreeMap<(u32, u32), u64>,
    spans: u64,
}

/// A local singleton that drains the instrumentation window, as the
/// collector does, and keeps what it saw.
fn reader(
    instr: Arc<Mutex<Instrumentation>>,
    tracer: Arc<TraceCollector>,
    seen: Arc<Mutex<Vec<Seen>>>,
) -> App {
    App::builder("reader")
        .handle_local::<Probe>("read", move |_m, _ctx| {
            let mut store = instr.lock();
            let matrix = store.msg_matrix.clone();
            let window = store.take();
            seen.lock().push(Seen {
                window,
                matrix,
                spans: tracer.recorded(),
            });
            Ok(())
        })
        .build()
}

/// A standalone hive whose clock stands still.
fn standalone() -> Hive {
    let mut cfg = HiveConfig::standalone(HiveId(1));
    cfg.tick_interval_ms = 0;
    Hive::new(
        cfg,
        Arc::new(SimClock::new()),
        Box::new(Loopback::new(HiveId(1))),
    )
}

fn only_bee(hive: &Hive, app: &str) -> BeeId {
    let bees = hive.local_bees(app);
    assert_eq!(bees.len(), 1, "{app} has one bee");
    bees[0].0
}

#[test]
fn a_local_singleton_sees_every_run_before_it_in_the_same_step() {
    let mut hive = standalone();
    let (instr, tracer) = (hive.instrumentation(), hive.tracer());
    let seen = Arc::new(Mutex::new(Vec::new()));
    hive.install(relay());
    hive.install(sink());
    hive.install(reader(instr.clone(), tracer.clone(), seen.clone()));
    // Warm up: the bees exist and the reader has taken a window.
    hive.emit(Ping { last: true });
    hive.step_until_quiescent(100);
    assert_eq!(seen.lock().len(), 1);
    let (relay_bee, sink_bee, reader_bee) = (
        only_bee(&hive, "relay"),
        only_bee(&hive, "sink"),
        only_bee(&hive, "reader"),
    );
    let matrix_before = instr.lock().msg_matrix.clone();
    let spans_before = tracer.recorded();

    // One step: N pings, N pongs, then the probe the last pong emits.
    const N: u64 = 25;
    for i in 0..N {
        hive.emit(Ping { last: i == N - 1 });
    }
    hive.step();
    let Seen {
        window,
        matrix,
        spans,
    } = seen.lock().pop().expect("the reader ran in this step");

    // Bees: the relay's and the sink's N runs, and the reader's previous
    // run (recorded after it took the window it read).
    let msgs_in: BTreeMap<u64, u64> = window
        .bees
        .iter()
        .map(|((_, bee), s)| (*bee, s.msgs_in))
        .collect();
    assert_eq!(
        msgs_in,
        BTreeMap::from([(relay_bee.0, N), (sink_bee.0, N), (reader_bee.0, 1)])
    );
    let sink_stats = &window.bees[&("sink".into(), sink_bee.0)];
    assert_eq!(sink_stats.in_by_bee, BTreeMap::from([(relay_bee.0, N)]));
    assert_eq!(sink_stats.msgs_out, 1, "the probe");
    assert_eq!(window.bees[&("relay".into(), relay_bee.0)].external_in, N);
    assert_eq!(window.bee_cells.get(&sink_bee.0), Some(&1));
    assert!(window.pinned.contains(&reader_bee.0) && !window.pinned.contains(&sink_bee.0));

    // Latency counts and provenance per (app, type).
    let runs = |app: &str, ty: &'static str| {
        window
            .latency
            .get(&(app.into(), ty))
            .map_or(0, |l| l.runtime.count)
    };
    let ping = std::any::type_name::<Ping>();
    let pong = std::any::type_name::<Pong>();
    let probe = std::any::type_name::<Probe>();
    assert_eq!(
        (
            runs("relay", ping),
            runs("sink", pong),
            runs("reader", probe)
        ),
        (N, N, 1)
    );
    assert_eq!(
        window.provenance,
        BTreeMap::from([
            (("relay".into(), ping, pong), N),
            (("sink".into(), pong, probe), 1),
        ])
    );
    let ratios: Vec<f64> = window.provenance_ratios().iter().map(|r| r.1).collect();
    assert_eq!(ratios, vec![1.0, 1.0 / N as f64]);

    // The matrix grew by the N relay → sink pongs; the probe has not run.
    assert_eq!(
        matrix[&(1, 1)],
        matrix_before.get(&(1, 1)).unwrap_or(&0) + N
    );
    // One span per run: the pings and the pongs.
    assert_eq!(spans, spans_before + 2 * N);

    // The step ends with the reader's own run published.
    assert_eq!(tracer.recorded(), spans_before + 2 * N + 1);
    let store = instr.lock();
    assert_eq!(store.bees[&("reader".into(), reader_bee.0)].msgs_in, 1);
    assert_eq!(store.msg_matrix[&(1, 1)], matrix[&(1, 1)] + 1);
}

#[test]
fn a_long_step_hands_every_span_to_the_ring_in_run_order() {
    let mut hive = standalone();
    let tracer = hive.tracer();
    hive.install(relay());
    hive.install(sink());
    hive.emit(Ping { last: false });
    hive.step_until_quiescent(100);
    let before = tracer.recorded();

    // One step of 2 × 700 runs, several times the tally's span batch.
    const N: u64 = 700;
    for _ in 0..N {
        hive.emit(Ping { last: false });
    }
    hive.step();
    assert_eq!(tracer.recorded(), before + 2 * N);
    let spans = tracer.snapshot();
    let step = &spans[spans.len() - 2 * N as usize..];
    // Every pong's span follows the span of the ping that caused it.
    let mut seen = std::collections::BTreeSet::new();
    for s in step {
        assert!(s.parent_span == 0 || seen.contains(&s.parent_span), "{s:?}");
        seen.insert(s.span_id);
    }
    assert_eq!(step.iter().filter(|s| s.app == "sink").count(), N as usize);
}

/// Handles its message and then leaves: `Leave::retire` retires the bee
/// (its state is empty), otherwise it orders its own migration to hive 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Leave {
    now: bool,
    retire: bool,
}
beehive::core::impl_message!(Leave);

fn leaver() -> App {
    App::builder("leaver")
        .handle::<Leave>(
            |_m| Mapped::cell("l", "k"),
            |m, ctx| {
                if m.now && m.retire {
                    ctx.retire();
                } else if m.now {
                    let (app, bee, hive) = (ctx.app().to_string(), ctx.bee(), ctx.hive());
                    ctx.order_migration(app, bee, hive, HiveId(2));
                }
                Ok(())
            },
        )
        .build()
}

/// `leaver`'s bee's handled-message count as `hive` published it.
fn leaver_msgs(hive: &Hive, bee: BeeId) -> Option<u64> {
    let instr = hive.instrumentation();
    let store = instr.lock();
    store.bees.get(&("leaver".into(), bee.0)).map(|s| s.msgs_in)
}

#[test]
fn a_bee_dropped_mid_step_keeps_its_counts() {
    let mut hive = standalone();
    hive.install(leaver());
    hive.emit(Leave {
        now: false,
        retire: false,
    });
    hive.step_until_quiescent(100);
    let bee = only_bee(&hive, "leaver");
    assert_eq!(leaver_msgs(&hive, bee), Some(1));

    // One step: two messages, the second retiring the bee, whose removal
    // the one-voter registry commits and applies within the step.
    for now in [false, true] {
        hive.emit(Leave { now, retire: true });
    }
    hive.step();
    assert_eq!(hive.local_bee_count("leaver"), 0, "dropped in the step");
    assert_eq!(leaver_msgs(&hive, bee), Some(3));
}

#[test]
fn a_bee_that_migrates_away_mid_step_keeps_its_counts() {
    // Hive 1 is the registry's only voter, so the move it proposes commits
    // and applies within the step that proposed it.
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 1,
            hive: HiveConfig {
                tick_interval_ms: 0,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(leaver()),
    );
    c.elect_registry(10_000).expect("a registry leader");
    let here = HiveId(1);
    c.hive_mut(here).emit(Leave {
        now: false,
        retire: false,
    });
    c.advance(1_000, 50);
    let bee = only_bee(c.hive(here), "leaver");
    assert_eq!(leaver_msgs(c.hive(here), bee), Some(1));

    for now in [false, false, true] {
        c.hive_mut(here).emit(Leave { now, retire: false });
    }
    c.hive_mut(here).step();
    assert_eq!(
        c.hive(here).local_bee_count("leaver"),
        0,
        "moved in the step"
    );
    assert_eq!(leaver_msgs(c.hive(here), bee), Some(4));

    c.advance(1_000, 50);
    assert_eq!(c.hive(HiveId(2)).local_bee_count("leaver"), 1);
    assert_eq!(leaver_msgs(c.hive(here), bee), Some(4), "nothing more here");
}

/// Allocations per relay → sink event on a standalone hive: the ping's
/// `Arc`, the relay's one-cell mapping (a `Vec`, a dictionary name and a
/// key), the pong's `Arc` and the sink's mapping. Eight, all the apps'
/// own: the platform's share, the two runs' bookkeeping and its publish
/// included, is none.
const CHAIN_BUDGET: u64 = 8;

#[test]
fn warm_bookkeeping_allocates_nothing_per_message() {
    let mut hive = standalone();
    hive.install(relay());
    hive.install(sink());
    // Warm up: the bees exist and two spans per event fill the ring.
    for _ in 0..TRACE_CAPACITY / 2 {
        hive.emit(Ping { last: false });
        hive.step_until_quiescent(100);
    }

    const EVENTS: u64 = 50;
    let mut counts = Vec::new();
    // The first burst grows the hive's queues to its size; it is not kept.
    for _ in 0..4 {
        let pings: Vec<Ping> = (0..EVENTS).map(|_| Ping { last: false }).collect();
        counts.push(allocations(|| {
            for p in pings {
                hive.emit(p);
            }
            hive.step_until_quiescent(100);
        }));
    }
    counts.remove(0);
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ between identical windows: {counts:?}"
    );
    let per_event = counts[0] as f64 / EVENTS as f64;
    assert!(
        per_event <= CHAIN_BUDGET as f64,
        "{per_event} allocations per relay → sink event (budget {CHAIN_BUDGET})"
    );
}
