//! Durability order at the hive: the outbox journal is group-committed once
//! per hand-off, and the two orderings the reliable channel's crash story
//! rests on must hold at every hand-off.
//!
//! * **Journal before wire.** A transport double re-reads the sender's
//!   `hive-{id}.outbox` on every `send`/`send_all` and finds the
//!   `Send { to, seq }` record of each App frame it is handed already there.
//! * **Delivered before handler.** The receiving double notes which channel
//!   frame carried each message; the handler, when it runs, finds that
//!   frame's `Delivered` record already on disk.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use beehive::core::channel::ChannelFrame;
use beehive::core::message::WireEnvelope;
use beehive::core::outbox::JournalEntry;
use beehive::core::transport::{Frame, FrameKind, Transport};
use beehive::core::FsyncPolicy;
use beehive::net::{MemEndpoint, MemFabric};
use beehive::prelude::*;
use beehive::wire::record::scan_records;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Probe {
    id: u64,
}
beehive::core::impl_message!(Probe);

/// The channel frame a message arrived in, as the receiving double saw it.
#[derive(Clone)]
struct Arrival {
    journal: PathBuf,
    from: u32,
    epoch: u64,
    seq: u64,
}

/// What the doubles and the handler share.
#[derive(Default)]
struct Ledger {
    /// Probe id → the frame that carried it across.
    arrivals: Mutex<HashMap<u64, Arrival>>,
    /// App frames whose `Send` record was found before they left.
    sends_checked: AtomicUsize,
    /// Handler runs whose `Delivered` record was found before they ran.
    deliveries_checked: AtomicUsize,
}

fn journal_entries(path: &Path) -> Vec<JournalEntry> {
    let bytes = std::fs::read(path).unwrap_or_default();
    let scan = scan_records(&bytes).expect("journal verifies");
    scan.payloads
        .iter()
        .map(|p| beehive::wire::from_slice(p).expect("journal record decodes"))
        .collect()
}

/// Whether `path` holds the delivery of `seq` from `from` in `epoch`, as a
/// `Delivered` record or inside a compaction's `RecvState`.
fn delivery_on_disk(path: &Path, a: &Arrival) -> bool {
    journal_entries(path).iter().any(|e| match e {
        JournalEntry::Delivered { from, epoch, seq } => {
            (*from, *epoch, *seq) == (a.from, a.epoch, a.seq)
        }
        JournalEntry::RecvState {
            from,
            epoch,
            last_delivered,
            seen_ahead,
            ..
        } => {
            (*from, *epoch) == (a.from, a.epoch)
                && (a.seq <= *last_delivered || seen_ahead.contains(&a.seq))
        }
        _ => false,
    })
}

/// A fabric endpoint that checks the journal-before-wire order of every
/// App frame it is handed and records which frame carried each probe.
struct Checked {
    inner: MemEndpoint,
    journal: PathBuf,
    ledger: Arc<Ledger>,
}

impl Checked {
    fn check_sends<'a>(&self, frames: impl IntoIterator<Item = (HiveId, &'a Frame)>) {
        let mut on_disk: Option<Vec<JournalEntry>> = None;
        for (to, frame) in frames {
            if frame.kind != FrameKind::App {
                continue;
            }
            let cf: ChannelFrame = beehive::wire::from_slice(&frame.bytes).expect("channel frame");
            let entries = on_disk.get_or_insert_with(|| journal_entries(&self.journal));
            let journaled = entries.iter().any(|e| {
                matches!(e, JournalEntry::Send { to: t, seq, .. } if *t == to.0 && *seq == cf.seq)
            });
            assert!(
                journaled,
                "hive {} handed frame seq {} for hive {} to the wire before its Send record \
                 reached {}",
                self.inner.local().0,
                cf.seq,
                to.0,
                self.journal.display()
            );
            self.ledger.sends_checked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Transport for Checked {
    fn local(&self) -> HiveId {
        self.inner.local()
    }

    fn send(&self, to: HiveId, frame: Frame) {
        self.check_sends([(to, &frame)]);
        self.inner.send(to, frame);
    }

    fn send_all(&self, frames: Vec<(HiveId, Frame)>) {
        self.check_sends(frames.iter().map(|(to, f)| (*to, f)));
        self.inner.send_all(frames);
    }

    fn try_recv(&self) -> Option<(HiveId, Frame)> {
        let (from, frame) = self.inner.try_recv()?;
        if frame.kind == FrameKind::App {
            let cf: ChannelFrame = beehive::wire::from_slice(&frame.bytes).expect("channel frame");
            let we: WireEnvelope = beehive::wire::from_slice(&cf.env).expect("wire envelope");
            if we.type_name.ends_with("Probe") {
                let probe: Probe = beehive::wire::from_slice(&we.payload).expect("probe");
                self.ledger.arrivals.lock().unwrap().insert(
                    probe.id,
                    Arrival {
                        journal: self.journal.clone(),
                        from: from.0,
                        epoch: cf.epoch,
                        seq: cf.seq,
                    },
                );
            }
        }
        Some((from, frame))
    }

    fn peers(&self) -> Vec<HiveId> {
        self.inner.peers()
    }
}

fn probe_app(ledger: Arc<Ledger>) -> App {
    App::builder("probe")
        .handle::<Probe>(
            |_| Mapped::cell("d", "k"),
            move |m, ctx| {
                let arrival = ledger.arrivals.lock().unwrap().get(&m.id).cloned();
                if let Some(a) = arrival {
                    assert!(
                        delivery_on_disk(&a.journal, &a),
                        "probe {} ran before the Delivered record of seq {} from hive {} \
                         reached {}",
                        m.id,
                        a.seq,
                        a.from,
                        a.journal.display()
                    );
                    ledger.deliveries_checked.fetch_add(1, Ordering::Relaxed);
                }
                let n: u64 = ctx.get("d", "n")?.unwrap_or(0);
                ctx.put("d", "n".to_string(), &(n + 1))?;
                Ok(())
            },
        )
        .build()
}

/// Steps both hives until neither has work left.
fn settle(hives: &mut [Hive]) {
    for _ in 0..10_000 {
        if hives.iter_mut().map(|h| h.step()).sum::<usize>() == 0 {
            return;
        }
    }
    panic!("hives never settled");
}

fn run() {
    const PROBES: u64 = 40;
    let dir = std::env::temp_dir().join(format!("bh-durability-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ids = vec![HiveId(1), HiveId(2)];
    let clock = SimClock::new();
    let fabric = MemFabric::new(ids.clone(), Arc::new(clock.clone()));
    let ledger = Arc::new(Ledger::default());
    let mut hives: Vec<Hive> = ids
        .iter()
        .map(|&id| {
            let cfg = HiveConfig {
                tick_interval_ms: 0,
                registry_storage_dir: Some(dir.clone()),
                fsync: FsyncPolicy::Never,
                ..HiveConfig::clustered(id, ids.clone(), 2)
            };
            let transport = Checked {
                inner: fabric.endpoint(id),
                journal: dir.join(format!("hive-{}.outbox", id.0)),
                ledger: ledger.clone(),
            };
            let mut hive = Hive::new(cfg, Arc::new(clock.clone()), Box::new(transport));
            hive.install(probe_app(ledger.clone()));
            hive
        })
        .collect();

    // Elect the registry, then let hive 2 create the bee that owns the cell.
    while !hives.iter().any(Hive::is_registry_leader) {
        clock.advance(50);
        settle(&mut hives);
    }
    hives[1].emit(Probe { id: 0 });
    for _ in 0..20 {
        clock.advance(50);
        settle(&mut hives);
    }
    assert_eq!(hives[1].local_bee_count("probe"), 1);

    // Every probe emitted on hive 1 crosses to hive 2's bee.
    for id in 1..=PROBES {
        hives[0].emit(Probe { id });
    }
    for _ in 0..40 {
        clock.advance(50);
        settle(&mut hives);
    }

    let bee = hives[1].local_bees("probe")[0].0;
    let handled: u64 = hives[1].peek_state("probe", bee, "d", "n").expect("count");
    assert_eq!(handled, PROBES + 1, "every probe handled exactly once");
    assert_eq!(
        ledger.deliveries_checked.load(Ordering::Relaxed) as u64,
        PROBES,
        "every relayed probe's handler checked its Delivered record"
    );
    assert!(ledger.sends_checked.load(Ordering::Relaxed) as u64 >= PROBES);
    drop(hives);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_leads_wire_and_handlers_sequentially() {
    run();
}
