//! Reliable channel integration tests: effectively-once delivery across
//! hive crashes. A receiver that crashes after handling but before acking
//! must suppress the redelivered envelope on replay (dedup state restored
//! from the outbox journal) with no double-apply to dictionaries; a sender
//! that crashes with unacked messages must replay them from its journal;
//! and a one-way burst must coalesce into O(1) standalone ack frames.

use beehive::prelude::*;
use beehive::sim::cluster::{ClusterConfig, SimCluster};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Add {
    key: String,
    amount: u64,
}
beehive::core::impl_message!(Add);

fn adder_app() -> App {
    App::builder("adder")
        .handle::<Add>(
            |m| Mapped::cell("d", &m.key),
            |m, ctx| {
                let n: u64 = ctx.get("d", &m.key)?.unwrap_or(0);
                ctx.put("d", m.key.clone(), &(n + m.amount))?;
                Ok(())
            },
        )
        .build()
}

fn storage_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bh-reliable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cluster(dir: &std::path::Path) -> SimCluster {
    SimCluster::new(
        ClusterConfig {
            hives: 3,
            voters: 3,
            hive: HiveConfig {
                tick_interval_ms: 0, // no platform ticks: Add is the only app traffic
                channel_resend_ms: 100,
                registry_storage_dir: Some(dir.to_path_buf()),
                ..ClusterConfig::default().hive
            },
            ..Default::default()
        },
        |h| h.install(adder_app()),
    )
}

/// Pins key `k` to a bee on hive 2 and returns its id, so later emits from
/// hive 1 are genuine cross-hive relays through the reliable channel.
fn seed_bee_on_hive2(c: &mut SimCluster) -> BeeId {
    c.hive_mut(HiveId(2)).emit(Add {
        key: "k".into(),
        amount: 1,
    });
    c.advance(3_000, 50);
    assert_eq!(c.hive(HiveId(2)).local_bee_count("adder"), 1);
    c.hive(HiveId(2)).local_bees("adder")[0].0
}

fn value_on_hive2(c: &SimCluster, bee: BeeId) -> u64 {
    c.hive(HiveId(2))
        .peek_state("adder", bee, "d", "k")
        .expect("key exists")
}

/// Receiver crash between handling and acking: hive 2 applies the message
/// and journals the delivery, then dies before its coalesced ack ever
/// flushes. The sender retransmits after the restart; the replayed dedup
/// state must suppress the redelivery — the dictionary is not doubled.
#[test]
fn receiver_crash_after_handling_does_not_double_apply() {
    let dir = storage_dir("recv-crash");
    let mut c = cluster(&dir);
    c.elect_registry(120_000).unwrap();
    let bee = seed_bee_on_hive2(&mut c);
    assert_eq!(value_on_hive2(&c, bee), 1);

    // Cross-hive message, stepped WITHOUT advancing the clock: delivery and
    // handling complete, but the receiver's ack (due in ack_flush_ms) never
    // flushes and the sender's resend timer never fires.
    c.hive_mut(HiveId(1)).emit(Add {
        key: "k".into(),
        amount: 10,
    });
    for _ in 0..100_000 {
        if c.step_all() == 0 {
            break;
        }
    }
    assert_eq!(value_on_hive2(&c, bee), 11, "handled before the crash");
    assert!(
        c.hive(HiveId(1)).channel_stats().outbox_depth >= 1,
        "the sender still holds the message unacked"
    );

    let (_dead, _cleared) = c.crash(HiveId(2));
    c.restart(HiveId(2));
    c.advance(8_000, 50);

    // The handler ran exactly once, before the crash. The retransmitted
    // envelope reaches the restarted hive but the journal-restored dedup
    // state suppresses it — the handler must NOT run again (the volatile
    // dictionary died with the process; that gap belongs to the crash
    // ledger, not the channel).
    assert_eq!(
        c.hive(HiveId(2)).counters().handled_ok,
        0,
        "the redelivered envelope must not re-run the handler"
    );
    assert!(
        c.hive(HiveId(2)).channel_stats().dups_suppressed >= 1,
        "the journal-restored dedup state suppressed the retransmit"
    );
    assert_eq!(
        c.hive(HiveId(1)).channel_stats().outbox_depth,
        0,
        "the suppressed redelivery was still acked"
    );

    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sender crash with unacked messages: hive 1 relays toward hive 2 while
/// the link is cut, so the message sits journaled-but-undelivered. The
/// restarted sender replays its outbox and the message arrives exactly once
/// after the link heals.
#[test]
fn sender_crash_replays_unacked_messages_from_the_outbox() {
    let dir = storage_dir("send-crash");
    let mut c = cluster(&dir);
    c.elect_registry(120_000).unwrap();
    let bee = seed_bee_on_hive2(&mut c);
    assert_eq!(value_on_hive2(&c, bee), 1);

    c.fabric.partition(HiveId(1), HiveId(2));
    c.hive_mut(HiveId(1)).emit(Add {
        key: "k".into(),
        amount: 10,
    });
    c.advance(500, 50);
    assert_eq!(value_on_hive2(&c, bee), 1, "cut link: nothing arrived");
    assert!(c.hive(HiveId(1)).channel_stats().outbox_depth >= 1);

    let (_dead, _cleared) = c.crash(HiveId(1));
    c.restart(HiveId(1));
    assert!(
        c.hive(HiveId(1)).channel_stats().outbox_depth >= 1,
        "the journal replay restored the unacked message"
    );
    c.fabric.heal();
    c.advance(10_000, 50);

    assert_eq!(
        value_on_hive2(&c, bee),
        11,
        "the replayed message arrived exactly once"
    );
    assert_eq!(c.hive(HiveId(1)).channel_stats().outbox_depth, 0);

    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ack coalescing end to end: a one-way burst of N cross-hive messages is
/// covered by O(1) standalone ack frames, not N.
#[test]
fn one_way_burst_is_acked_with_o1_frames() {
    let dir = storage_dir("coalesce");
    let mut c = cluster(&dir);
    c.elect_registry(120_000).unwrap();
    let bee = seed_bee_on_hive2(&mut c);

    let acks_before = c.hive(HiveId(2)).channel_stats().acks_sent;
    for _ in 0..20 {
        c.hive_mut(HiveId(1)).emit(Add {
            key: "k".into(),
            amount: 1,
        });
    }
    c.advance(2_000, 50);

    assert_eq!(value_on_hive2(&c, bee), 21, "all 20 increments applied");
    let acks = c.hive(HiveId(2)).channel_stats().acks_sent - acks_before;
    assert!(
        (1..=3).contains(&acks),
        "20 one-way messages must coalesce to O(1) ack frames, got {acks}"
    );
    assert_eq!(c.hive(HiveId(1)).channel_stats().outbox_depth, 0);

    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}
