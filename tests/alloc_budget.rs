//! Heap allocations on the hive's message path, counted: locally, and
//! across two hives.
//!
//! This binary installs a counting global allocator. A thread-local switch
//! confines the count to the calling thread and to the window between
//! `emit` and the end of `step_until_quiescent` (or the cluster's
//! `settle`); every message is built before the window opens, so what is
//! counted is the platform's work plus whatever the handlers and their
//! mapping closures allocate themselves. The hives run on a [`SimClock`]
//! that stands still inside a window, so no timer fires there, and each
//! test first runs enough messages to fill the span ring of the hive that
//! runs the handlers (its buffer grows until it holds [`TRACE_CAPACITY`]
//! spans), so the counts repeat exactly from window to window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as StdCell;
use std::sync::Arc;

use beehive::apps::learning_switch::learning_switch_app;
use beehive::core::trace::TRACE_CAPACITY;
use beehive::core::{App, Hive, HiveConfig, HiveId, Loopback, Mapped, SimClock};
use beehive::openflow::driver::{driver_app, SwitchIo};
use beehive::openflow::switch::encode_header_as_packet;
use beehive::openflow::wire::{OfMessage, PacketInReason};
use beehive::openflow::{Match, SwitchUpstream};
use beehive::sim::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

struct Counting;

thread_local! {
    static COUNTING: StdCell<bool> = const { StdCell::new(false) };
    static COUNT: StdCell<u64> = const { StdCell::new(0) };
}

fn note() {
    // `try_with`: allocations made while the thread's locals are being torn
    // down are never inside a window.
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

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Noop {
    key: String,
}
beehive::core::impl_message!(Noop);

/// At most this many allocations per message a no-op handler receives on a
/// standalone hive: the message's `Arc` and the app's own one-cell mapping
/// (a `Vec`, a dictionary name and a key). The platform's own share, the
/// run's bookkeeping included, is none: the count measured when the budget
/// was set.
const NOOP_BUDGET: u64 = 4;

fn noop_app() -> App {
    App::builder("noop")
        .handle::<Noop>(|m| Mapped::cell("n", m.key.clone()), |_m, _ctx| Ok(()))
        .build()
}

#[test]
fn a_noop_message_stays_within_its_budget() {
    let mut hive = standalone();
    hive.install(noop_app());
    let key = || Noop { key: "k".into() };
    // Warm up: the first message creates the bee through the registry, and
    // one span per message fills the ring.
    let warm = TRACE_CAPACITY as u64;
    for _ in 0..warm {
        hive.emit(key());
        hive.step_until_quiescent(100);
    }
    assert_eq!(hive.counters().handled_ok, warm);

    const MSGS: u64 = 50;
    let mut counts = Vec::new();
    // The first burst grows the hive's queues to its size; it is not kept.
    for _ in 0..4 {
        let msgs: Vec<Noop> = (0..MSGS).map(|_| key()).collect();
        counts.push(allocations(|| {
            for m in msgs {
                hive.emit(m);
            }
            hive.step_until_quiescent(100);
        }));
    }
    counts.remove(0);
    assert_eq!(hive.counters().handled_ok, warm + 4 * MSGS);
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ between identical windows: {counts:?}"
    );
    let per_msg = counts[0] as f64 / MSGS as f64;
    assert!(
        per_msg <= NOOP_BUDGET as f64,
        "{per_msg} allocations per no-op message (budget {NOOP_BUDGET})"
    );
}

/// Switch IO that drops what the driver sends, after counting it.
#[derive(Default)]
struct Discard(std::sync::atomic::AtomicU64);

impl SwitchIo for Discard {
    fn send(&self, _dpid: u64, _bytes: Vec<u8>) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// At most this many allocations per PACKET_IN event: the driver decodes
/// it and emits a `PacketInEvent`; the learning switch updates the
/// switch's MAC table and emits `InstallRule` and `PacketOutCmd`; the
/// driver encodes a FLOW_MOD and a PACKET_OUT. Four handler runs. The
/// budget is the count measured when it was set: 31. The switch's table
/// and the driver's switch record are updated where their entries keep
/// them decoded, so neither is copied.
const PKTIN_BUDGET: u64 = 31;

/// One encoded 64-byte PACKET_IN from host `src` to host `dst` of `dpid`.
fn packet_in(src: u8, dst: u8) -> Vec<u8> {
    let mac = |h: u8| [0x02, 0xBE, 0, 1, 0, h];
    let mut data = encode_header_as_packet(&Match {
        dl_src: mac(src),
        dl_dst: mac(dst),
        ..Default::default()
    });
    data.resize(64, 0);
    OfMessage::PacketIn {
        xid: 0,
        buffer_id: u32::MAX,
        total_len: 64,
        in_port: u16::from(src) + 1,
        reason: PacketInReason::NoMatch,
        data,
    }
    .encode()
}

#[test]
fn a_learned_packet_in_stays_within_its_budget() {
    let mut hive = standalone();
    let io = Arc::new(Discard::default());
    hive.install(driver_app(io.clone()));
    hive.install(learning_switch_app());
    let up = |src, dst| SwitchUpstream {
        dpid: 1,
        bytes: packet_in(src, dst),
    };
    // Learn hosts 1 and 2, so every event below installs a rule and
    // forwards (FLOW_MOD + PACKET_OUT) rather than flooding; four spans per
    // event fill the ring.
    for i in 0..TRACE_CAPACITY / 4 {
        let (src, dst) = if i % 2 == 0 { (1, 2) } else { (2, 1) };
        hive.emit(up(src, dst));
        hive.step_until_quiescent(100);
    }
    let sent = io.0.load(std::sync::atomic::Ordering::Relaxed);

    const EVENTS: u64 = 20;
    let mut counts = Vec::new();
    // The first burst grows the hive's queues to its size; it is not kept.
    for _ in 0..4 {
        let events: Vec<SwitchUpstream> = (0..EVENTS)
            .map(|i| up(1 + (i % 2) as u8, 2 - (i % 2) as u8))
            .collect();
        counts.push(allocations(|| {
            for e in events {
                hive.emit(e);
            }
            hive.step_until_quiescent(100);
        }));
    }
    counts.remove(0);
    assert_eq!(
        io.0.load(std::sync::atomic::Ordering::Relaxed) - sent,
        4 * EVENTS * 2,
        "every event installs a rule and forwards"
    );
    assert_eq!(hive.counters().handler_errors, 0);
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ between identical windows: {counts:?}"
    );
    let per_event = counts[0] as f64 / EVENTS as f64;
    assert!(
        per_event <= PKTIN_BUDGET as f64,
        "{per_event} allocations per learning-switch event (budget {PKTIN_BUDGET})"
    );
}

/// At most this many allocations per no-op message that hive 1 relays to
/// its bee on hive 2 over a [`MemFabric`](beehive::net::MemFabric): hive 1
/// maps, wraps and encodes it, the fabric carries the frame, hive 2 decodes,
/// unwraps, delivers and runs it, and each side's channel books the frame
/// and its ack. The budget is the count measured when it was set, 26.1 per
/// crossing, rounded up.
const CROSSING_BUDGET: u64 = 27;

#[test]
fn a_crossing_noop_message_stays_within_its_budget() {
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            hive: HiveConfig {
                tick_interval_ms: 0,
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(noop_app()),
    );
    c.elect_registry(10_000).expect("a registry leader");
    let (from, to) = (HiveId(1), HiveId(2));
    let key = || Noop { key: "k".into() };
    // Hive 2 creates the bee that owns the cell, then hive 1's messages
    // cross to it until its span ring is full.
    c.hive_mut(to).emit(key());
    c.advance(1_000, 50);
    const MSGS: u64 = 50;
    for _ in 0..TRACE_CAPACITY as u64 / MSGS + 1 {
        for _ in 0..MSGS {
            c.hive_mut(from).emit(key());
        }
        c.advance(50, 50);
    }
    assert_eq!(c.hive(to).local_bee_count("noop"), 1);
    assert_eq!(c.hive(from).local_bee_count("noop"), 0);

    let mut counts = Vec::new();
    // The first burst grows the hives' queues to its size; it is not kept.
    for _ in 0..4 {
        let msgs: Vec<Noop> = (0..MSGS).map(|_| key()).collect();
        let handled = c.hive(to).counters().handled_ok;
        counts.push(allocations(|| {
            for m in msgs {
                c.hive_mut(from).emit(m);
            }
            c.settle(100);
        }));
        assert_eq!(c.hive(to).counters().handled_ok, handled + MSGS);
        // Outside the window: the acks flush and hive 1 forgets the frames.
        c.advance(50, 50);
    }
    counts.remove(0);
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts differ between identical windows: {counts:?}"
    );
    let per_crossing = counts[0] as f64 / MSGS as f64;
    assert!(
        per_crossing <= CROSSING_BUDGET as f64,
        "{per_crossing} allocations per crossing no-op message (budget {CROSSING_BUDGET})"
    );
}
