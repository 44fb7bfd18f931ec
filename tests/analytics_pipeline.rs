//! The full analytics pipeline over a cluster: instrumentation → collector
//! app → HiveMetrics reports → [`beehive::core::Analytics`] — reproducing
//! the paper's provenance example: "we store that packet out messages are
//! emitted by the learning switch application upon receiving 80% of packet
//! in's" (§3).

use std::sync::Arc;

use beehive::apps::learning_switch::{learning_switch_app, LEARNING_SWITCH_APP};
use beehive::core::{
    collector_app, Analytics, Hive, HiveConfig, HiveMetrics, Instrumentation, Loopback,
    PlatformCounters, PlatformKind, SystemClock, Tick, PLATFORM_TABLE,
};
use beehive::openflow::driver::PacketInEvent;
use beehive::openflow::switch::encode_header_as_packet;
use beehive::prelude::*;
use beehive::sim::{ClusterConfig, SimCluster};
use beehive_core::sync::Mutex;

fn mac(n: u8) -> [u8; 6] {
    [0, 0, 0, 0, 0, n]
}

fn pkt(src: u8, dst: u8) -> Vec<u8> {
    encode_header_as_packet(&beehive::openflow::Match {
        dl_src: mac(src),
        dl_dst: mac(dst),
        ..Default::default()
    })
}

/// Captures the local `HiveMetrics` stream the way an aggregator would.
fn capture_app(sink: Arc<Mutex<Vec<HiveMetrics>>>) -> App {
    App::builder("capture")
        .handle::<HiveMetrics>(
            |_m| Mapped::LocalSingleton,
            move |m, _c| {
                sink.lock().push(m.clone());
                Ok(())
            },
        )
        .build()
}

#[test]
fn collector_reports_feed_analytics_with_provenance() {
    let reports: Arc<Mutex<Vec<HiveMetrics>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = reports.clone();
    let mut c = SimCluster::new(
        ClusterConfig {
            hives: 2,
            voters: 2,
            ..Default::default()
        },
        move |h| {
            h.install(learning_switch_app());
            let instr = h.instrumentation();
            h.install(collector_app(instr));
            h.install(capture_app(r2.clone()));
        },
    );
    c.elect_registry(120_000).unwrap();

    // 10 packet-ins per switch; with A↔B ping-pong, half the destinations
    // are known (→ rule + packet-out), half unknown (→ flood packet-out).
    // Every PacketIn yields exactly one PacketOutCmd either way.
    for switch in [1u64, 2] {
        let hive = HiveId(switch as u32);
        for i in 0..10u8 {
            let (src, dst) = if i % 2 == 0 { (0xA, 0xB) } else { (0xB, 0xA) };
            c.hive_mut(hive).emit(PacketInEvent {
                switch,
                in_port: 1 + (i % 2) as u16,
                data: pkt(src, dst),
            });
            c.advance(300, 50);
        }
    }
    // Let the per-second collectors run a few windows.
    c.advance(5_000, 50);

    let windows = reports.lock().clone();
    assert!(!windows.is_empty(), "collector windows were produced");

    let mut analytics = Analytics::new();
    for w in &windows {
        analytics.ingest(w);
    }
    let load = analytics.app(LEARNING_SWITCH_APP).expect("ls observed");
    assert_eq!(load.msgs, 20, "all packet-ins instrumented");
    assert_eq!(load.bees, 2, "one MAC-table bee per switch");

    let rows = analytics.provenance_rows();
    let out_row = rows
        .iter()
        .find(|r| r.app == LEARNING_SWITCH_APP && r.out_type == "PacketOutCmd")
        .expect("PacketIn→PacketOutCmd provenance recorded");
    assert_eq!(out_row.in_type, "PacketInEvent");
    assert!(
        (out_row.per_app_input_ratio - 1.0).abs() < 1e-9,
        "every packet-in produced a packet-out: {:?}",
        out_row
    );
    // Learned destinations also produce InstallRule provenance.
    assert!(rows
        .iter()
        .any(|r| r.app == LEARNING_SWITCH_APP && r.out_type == "InstallRule"));

    // The exposition carries the pipeline: one packet-out per packet-in.
    let text = analytics.render_prometheus();
    let sample = format!(
        "beehive_provenance_emissions_total{{app=\"{LEARNING_SWITCH_APP}\",\
         in_type=\"PacketInEvent\",out_type=\"PacketOutCmd\"}} 20\n"
    );
    assert!(text.contains(&sample), "exposition: {text}");
}

/// Ticks a standalone hive's collector once and returns its report as a peer
/// would decode it from the wire.
fn collect_window(hive: &mut Hive, reports: &Mutex<Vec<HiveMetrics>>, seq: u64) -> HiveMetrics {
    hive.emit(Tick {
        seq,
        now_ms: seq * 1_000,
    });
    hive.step_until_quiescent(100);
    let report = reports.lock().pop().expect("the collector reported");
    let bytes = beehive::wire::to_vec(&report).unwrap();
    beehive::wire::from_slice(&bytes).unwrap()
}

/// Stands in for the hive's end-of-step publish with scripted readings: on
/// every tick, ahead of the collector (installed after it), it publishes
/// `next` into the hive's instrumentation store.
fn reading_app(instr: Arc<Mutex<Instrumentation>>, next: Arc<Mutex<PlatformCounters>>) -> App {
    App::builder("reading")
        .handle_local::<Tick>("publish", move |_tick, _ctx| {
            instr.lock().platform = *next.lock();
            Ok(())
        })
        .build()
}

/// Every row of the platform table, end to end: a distinct cumulative
/// reading per row is published on two hives over two windows, travels
/// window → collector → wire → `Analytics::ingest`, and must come out of the
/// exposition folded the way its row declares — counters summed over every
/// window, gauges as of each hive's last window and then summed or maxed
/// over the hives.
#[test]
fn every_platform_row_reaches_the_exposition_folded_as_declared() {
    let mut analytics = Analytics::new();
    let zero = analytics.render_prometheus();
    for row in PLATFORM_TABLE {
        let (family, ty) = (row.family, row.kind.prometheus_type());
        assert_eq!(zero.matches(&format!("# TYPE {family} {ty}\n")).count(), 1);
        assert!(zero.contains(&format!("# HELP {family} {}\n", row.help)));
    }
    assert_eq!(
        sample_lines(&zero),
        sample_lines_of(&PlatformCounters::default())
    );

    // value(hive, window, row): distinct everywhere, and larger on hive 1's
    // first window than on its second, so "last" and "max" cannot pass for
    // one another. A counter's reading is the sum of its windows' values.
    let value = |hive: u64, window: u64, i: usize| 1_000 * hive + 100 * (3 - window) + i as u64;
    for hive_id in [1u32, 2] {
        let reports: Arc<Mutex<Vec<HiveMetrics>>> = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = HiveConfig::standalone(HiveId(hive_id));
        cfg.tick_interval_ms = 0;
        let mut hive = Hive::new(
            cfg,
            Arc::new(SystemClock::new()),
            Box::new(Loopback::new(HiveId(hive_id))),
        );
        let instr = hive.instrumentation();
        let next = Arc::new(Mutex::new(PlatformCounters::default()));
        hive.install(reading_app(instr.clone(), next.clone()));
        hive.install(collector_app(instr));
        hive.install(capture_app(reports.clone()));
        for window in [1u64, 2] {
            for (i, (row, cell)) in next.lock().rows_mut().enumerate() {
                let v = value(hive_id as u64, window, i);
                match row.kind {
                    PlatformKind::Counter => *cell += v,
                    PlatformKind::GaugeSum | PlatformKind::GaugeMax => *cell = v,
                }
            }
            let report = collect_window(&mut hive, &reports, window);
            assert_eq!(report.hive, HiveId(hive_id));
            analytics.ingest(&report);
        }
    }

    let mut want = PlatformCounters::default();
    for (i, (row, cell)) in want.rows_mut().enumerate() {
        let v = |hive, window| value(hive, window, i);
        *cell = match row.kind {
            PlatformKind::Counter => v(1, 1) + v(1, 2) + v(2, 1) + v(2, 2),
            PlatformKind::GaugeSum => v(1, 2) + v(2, 2),
            PlatformKind::GaugeMax => v(1, 2).max(v(2, 2)),
        };
    }
    assert_eq!(analytics.platform(), want);
    assert_eq!(
        sample_lines(&analytics.render_prometheus()),
        sample_lines_of(&want)
    );
}

/// The exposition's sample lines for the platform families.
fn sample_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| PLATFORM_TABLE.iter().any(|row| l.starts_with(row.family)))
        .collect()
}

/// The sample lines a cluster-wide reading must render as.
fn sample_lines_of(reading: &PlatformCounters) -> Vec<String> {
    reading
        .rows()
        .map(|(row, value)| match row.label {
            Some((k, v)) => format!("{}{{{k}=\"{v}\"}} {value}", row.family),
            None => format!("{} {value}", row.family),
        })
        .collect()
}
