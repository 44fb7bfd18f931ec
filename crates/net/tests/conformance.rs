//! Transport conformance suite: one harness, two transports.
//!
//! Every behavioural contract `hive.rs`, the reliable channel and
//! membership drain rely on is asserted here against the reactor (real
//! sockets) and, where it applies, the in-memory fabric the simulator runs
//! on: per-peer FIFO order (frame by frame and in `send_all` batches),
//! caller-side writes that hand a full socket to the reactor, waker
//! delivery, deferred-queue reconnect-flush ordering, eviction priorities
//! under overflow and counter monotonicity.
//! Clean shutdown without leaked threads or sockets is `leak.rs`: it counts
//! process-wide, so it is the only test of its binary.
//!
//! Tests here share one global lock and run one at a time.

#![cfg(target_os = "linux")]

mod common;

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use beehive_core::transport::{Frame, FrameKind, Transport};
use beehive_core::{HiveId, SystemClock};
use beehive_net::buffer::DEFERRED_CAP;
use beehive_net::frame::{byte_to_kind, FrameDecoder, KIND_HANDSHAKE};
use beehive_net::{MemFabric, ReactorTransport};

use common::{bind, recv_blocking, tcp_pair, wait_until};

/// Serializes every test in this file (see module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A listener's address with the listener closed: connects to it are
/// refused until someone re-binds it.
fn dead_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Contract 1: per-peer FIFO order, mixed frame kinds, across a burst.
// ---------------------------------------------------------------------------

/// How a FIFO check hands its frames to the sender.
#[derive(Clone, Copy)]
enum Feed {
    /// One `send` per frame.
    OneByOne,
    /// `send_all` batches of 1, 2, 3, ... frames, kinds mixed inside each.
    Batches,
}

/// Sends `n` frames (kinds rotating App/Raft/Control) and asserts the
/// receiver observes exactly that sequence.
fn assert_fifo(sender: &dyn Transport, receiver: &dyn Transport, to: HiveId, n: u32, feed: Feed) {
    let kinds = [FrameKind::App, FrameKind::Raft, FrameKind::Control];
    let frame = |i: u32| Frame {
        kind: kinds[(i % 3) as usize],
        bytes: i.to_le_bytes().to_vec(),
    };
    match feed {
        Feed::OneByOne => (0..n).for_each(|i| sender.send(to, frame(i))),
        Feed::Batches => {
            let (mut next, mut size) = (0, 1);
            while next < n {
                let end = (next + size).min(n);
                sender.send_all((next..end).map(|i| (to, frame(i))).collect());
                (next, size) = (end, size + 1);
            }
        }
    }
    for i in 0..n {
        let (_, f) =
            recv_blocking(receiver, 5000).unwrap_or_else(|| panic!("frame {i}/{n} never arrived"));
        assert_eq!(f.bytes, i.to_le_bytes().to_vec(), "frame {i} out of order");
        assert_eq!(f.kind, kinds[(i % 3) as usize], "frame {i} wrong kind");
    }
}

#[test]
fn fifo_order_per_peer_fabric() {
    let _guard = serial();
    let fabric = MemFabric::new(vec![HiveId(1), HiveId(2)], Arc::new(SystemClock::new()));
    let a = fabric.endpoint(HiveId(1));
    let b = fabric.endpoint(HiveId(2));
    assert_fifo(&a, &b, HiveId(2), 120, Feed::OneByOne);
    assert_fifo(&a, &b, HiveId(2), 120, Feed::Batches);
}

#[test]
fn fifo_order_per_peer_reactor() {
    let _guard = serial();
    let (a, b) = tcp_pair();
    assert_fifo(&a, &b, HiveId(2), 120, Feed::OneByOne);
    assert_fifo(&a, &b, HiveId(2), 120, Feed::Batches);
    // And the reverse direction on the same pair.
    assert_fifo(&b, &a, HiveId(1), 40, Feed::OneByOne);
    assert_fifo(&b, &a, HiveId(1), 40, Feed::Batches);
}

// ---------------------------------------------------------------------------
// Contract 1b: a batch larger than the socket buffers toward a peer that is
// not reading. `send_all` writes what the socket takes and returns without
// blocking; the reactor finishes the write once the peer drains. Nothing is
// lost or reordered, and a connected peer's backlog is not `deferred`.
// ---------------------------------------------------------------------------

/// Reads frames off a raw socket until `want` data frames (handshakes
/// skipped) arrived or `timeout_ms` elapsed.
fn read_frames(
    stream: &mut std::net::TcpStream,
    decoder: &mut FrameDecoder,
    want: usize,
    timeout_ms: u64,
) -> Vec<(FrameKind, Vec<u8>)> {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        match decoder.read_from(stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => panic!("raw peer read failed: {e}"),
        }
        while let Some(f) = decoder.next_frame().expect("well-formed stream") {
            if f.kind != KIND_HANDSHAKE {
                got.push((byte_to_kind(f.kind).expect("known kind"), f.payload));
            }
        }
    }
    got
}

#[test]
fn send_all_hands_a_full_socket_to_the_reactor() {
    let _guard = serial();
    // The peer is a raw listener the test reads from only when it wants to.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut a = bind(HiveId(1));
    a.add_peer(HiveId(2), listener.local_addr().unwrap());
    let counters = a.counters();

    // Establish the connection with one frame, so the batch below meets a
    // connected peer and the caller writes it itself.
    a.send(HiveId(2), Frame::app(vec![0xAA]));
    let (mut raw, _) = listener.accept().unwrap();
    let mut decoder = FrameDecoder::new();
    let first = read_frames(&mut raw, &mut decoder, 1, 5000);
    assert_eq!(first, vec![(FrameKind::App, vec![0xAA])]);
    let handed = || -> u64 {
        let s = counters.snapshot();
        FrameKind::ALL.iter().map(|&k| s.sent(k).0).sum()
    };
    assert!(wait_until(2000, || handed() == 1));

    // 16 MiB in one batch, kinds mixed: several times what loopback buffers
    // hold while nobody reads.
    const FRAMES: u32 = 256;
    const LEN: usize = 64 * 1024;
    let kinds = [FrameKind::App, FrameKind::Raft, FrameKind::Control];
    let payload = |i: u32| {
        let mut p = vec![(i % 251) as u8; LEN];
        p[..4].copy_from_slice(&i.to_le_bytes());
        p
    };
    let batch: Vec<(HiveId, Frame)> = (0..FRAMES)
        .map(|i| {
            (
                HiveId(2),
                Frame {
                    kind: kinds[(i % 3) as usize],
                    bytes: payload(i),
                },
            )
        })
        .collect();
    let started = Instant::now();
    a.send_all(batch);
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "send_all blocked for {:?}",
        started.elapsed()
    );
    assert!(
        handed() < 1 + u64::from(FRAMES),
        "the socket took the whole batch; nothing exercised the hand-over"
    );

    // The peer drains; the reactor writes the rest.
    let rest = read_frames(&mut raw, &mut decoder, FRAMES as usize, 20_000);
    assert_eq!(rest.len(), FRAMES as usize, "frames lost");
    for (i, (kind, bytes)) in rest.into_iter().enumerate() {
        let i = i as u32;
        assert_eq!(kind, kinds[(i % 3) as usize], "frame {i} wrong kind");
        assert!(bytes == payload(i), "frame {i} out of order or corrupt");
    }
    assert!(wait_until(2000, || handed() == 1 + u64::from(FRAMES)));
    let s = counters.snapshot();
    assert_eq!(s.deferred, 0, "a connected peer's backlog is not deferred");
    assert_eq!(s.deferred_evicted, 0);
}

// ---------------------------------------------------------------------------
// Contract 2: the waker fires when an inbound frame lands in the inbox.
// ---------------------------------------------------------------------------

#[test]
fn waker_fires_on_inbound_frame() {
    let _guard = serial();
    let (a, mut b) = tcp_pair();
    let woken = Arc::new(AtomicUsize::new(0));
    let woken2 = woken.clone();
    b.set_waker(Arc::new(move || {
        woken2.fetch_add(1, Ordering::SeqCst);
    }));
    a.send(HiveId(2), Frame::app(vec![1]));
    recv_blocking(&b, 5000).expect("frame arrives");
    assert!(
        wait_until(2000, || woken.load(Ordering::SeqCst) >= 1),
        "waker never fired"
    );
}

// ---------------------------------------------------------------------------
// Contract 3: frames to a dead peer defer and flush IN ORDER on reconnect,
// ahead of new traffic; the backoff gauge resets on success.
// ---------------------------------------------------------------------------

#[test]
fn deferred_frames_flush_in_order_on_reconnect() {
    let _guard = serial();
    let addr = dead_addr();
    let mut a = bind(HiveId(1));
    a.add_peer(HiveId(2), addr);
    a.send(HiveId(2), Frame::app(vec![1]));
    a.send(HiveId(2), Frame::app(vec![2]));
    let counters = a.counters();
    assert!(
        wait_until(3000, || counters.snapshot().deferred >= 2),
        "both frames should defer while the peer is dead"
    );
    assert!(counters.snapshot().connect_failures >= 1);
    // Revive the peer on the very same address, wait out the window,
    // then send one more frame: 1, 2, 3 must arrive in that order.
    let b = ReactorTransport::bind(HiveId(2), addr, HashMap::new()).unwrap();
    let window = counters.peer_backoff_ms(HiveId(2)).expect("backed off");
    std::thread::sleep(Duration::from_millis(window + 50));
    a.send(HiveId(2), Frame::app(vec![3]));
    for expect in 1..=3u8 {
        let (from, f) = recv_blocking(&b, 5000).expect("deferred frame arrives");
        assert_eq!(from, HiveId(1));
        assert_eq!(f.bytes, vec![expect], "deferred flush out of order");
    }
    assert!(
        wait_until(2000, || counters.peer_backoff_ms(HiveId(2)).is_none()),
        "backoff gauge resets after a successful connect"
    );
    assert!(
        wait_until(2000, || counters.snapshot().sent(FrameKind::App).0 == 3),
        "all three frames eventually count as sent"
    );
}

// ---------------------------------------------------------------------------
// Contract 4: a full deferred queue evicts App before Raft before Control,
// never grows past DEFERRED_CAP, and surrenders its contents on disconnect.
// ---------------------------------------------------------------------------

#[test]
fn eviction_priorities_under_overflow() {
    let _guard = serial();
    let addr = dead_addr();
    let mut a = bind(HiveId(1));
    a.add_peer(HiveId(9), addr);
    // Oldest queued frame is Control — the kind with no retransmission
    // layer above the transport.
    a.send(HiveId(9), Frame::control(vec![0xC0]));
    for i in 0..DEFERRED_CAP as u32 {
        a.send(HiveId(9), Frame::app(i.to_le_bytes().to_vec()));
    }
    let counters = a.counters();
    assert!(
        wait_until(3000, || counters.snapshot().deferred_evicted >= 1),
        "overflow must evict"
    );
    assert_eq!(
        counters.snapshot().deferred_evicted,
        1,
        "exactly one over cap"
    );
    // The surrendered queue tells us who the victim was: the Control
    // frame survives at the front, App frame #0 is gone.
    let held = a.disconnect_peer(HiveId(9));
    assert_eq!(held.len(), DEFERRED_CAP);
    assert_eq!(held[0].kind, FrameKind::Control);
    assert_eq!(held[0].bytes, vec![0xC0]);
    assert_eq!(
        held[1].bytes,
        1u32.to_le_bytes().to_vec(),
        "oldest App frame was the victim"
    );
}

// ---------------------------------------------------------------------------
// Contract 5: counters only ever move up, and in/out totals agree across a
// connected pair once traffic settles.
// ---------------------------------------------------------------------------

#[test]
fn counters_are_monotone_and_agree() {
    let _guard = serial();
    let (a, b) = tcp_pair();
    let ca = a.counters();
    let cb = b.counters();
    let mut last_out = 0u64;
    let mut last_in = 0u64;
    for round in 0..5u8 {
        for i in 0..20u8 {
            a.send(HiveId(2), Frame::app(vec![round, i]));
        }
        for _ in 0..20 {
            recv_blocking(&b, 5000).expect("frame arrives");
        }
        let out = ca.snapshot().sent(FrameKind::App);
        let inn = cb.snapshot().received(FrameKind::App);
        assert!(out.0 >= last_out, "sent counter went backwards");
        assert!(inn.0 >= last_in, "recv counter went backwards");
        last_out = out.0;
        last_in = inn.0;
    }
    // Everything received was counted on both ends with the same
    // wire_len accounting (payload + 8).
    assert!(
        wait_until(2000, || {
            ca.snapshot().sent(FrameKind::App) == cb.snapshot().received(FrameKind::App)
        }),
        "sender and receiver accounting disagree: {:?} vs {:?}",
        ca.snapshot().sent(FrameKind::App),
        cb.snapshot().received(FrameKind::App)
    );
    assert_eq!(ca.snapshot().sent(FrameKind::App), (100, 100 * 10));
}

// ---------------------------------------------------------------------------
// Contract 7: connect_peer / disconnect_peer membership behaviour.
// ---------------------------------------------------------------------------

#[test]
fn runtime_membership_add_and_remove() {
    let _guard = serial();
    let a = bind(HiveId(1));
    let b = bind(HiveId(2));
    // Neither knew the other at bind time; announce like a live join.
    a.connect_peer(HiveId(2), &b.local_addr().to_string());
    assert!(a.peers().contains(&HiveId(2)));
    a.send(HiveId(2), Frame::app(vec![7]));
    let (from, f) = recv_blocking(&b, 5000).expect("frame reaches the added peer");
    assert_eq!(from, HiveId(1));
    assert_eq!(f.bytes, vec![7]);
    // A garbage address never touches the address book.
    a.connect_peer(HiveId(3), "not-an-address");
    assert!(!a.peers().contains(&HiveId(3)));
    // Removal forgets the peer and is idempotent.
    a.disconnect_peer(HiveId(2));
    assert!(!a.peers().contains(&HiveId(2)));
    assert!(a.disconnect_peer(HiveId(2)).is_empty());
}
