//! `TracedTransport`: a boundary instrument around the boxed reactor
//! transport.
//!
//! It times and counts `send` and `try_recv`, and measures the hop: the
//! k-th frame hive A sends to B is the k-th B receives from A (the wire is
//! per-peer FIFO), so a queue of send stamps per direction pairs each
//! receive with its send. Frames can vanish on a reconnect; each stamp
//! therefore carries a fingerprint of its frame, and a receive that does not
//! match the head of the queue resynchronises (skips the stamps of lost
//! frames, or ignores a frame that was never stamped) instead of pairing
//! with the wrong send. Switched off, it is a plain forwarder.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use beehive_core::events::EventJournal;
use beehive_core::transport::{Frame, FrameKind, Transport};
use beehive_core::HiveId;

use crate::clock::now_ns;

/// Hives are numbered 1 and 2; index 0 is unused.
const IDS: usize = 3;

#[derive(Clone, Copy)]
struct Stamp {
    sent_ns: u64,
    fingerprint: u64,
}

/// One completed hop, kept for the histogram and the trace file.
#[derive(Clone, Copy, Debug)]
pub struct Hop {
    pub from: u32,
    pub to: u32,
    pub sent_ns: u64,
    pub recv_ns: u64,
}

#[derive(Default)]
pub struct TraceShared {
    enabled: AtomicBool,
    /// `links[from][to]`: stamps of frames sent and not yet seen arriving.
    links: [[Mutex<VecDeque<Stamp>>; IDS]; IDS],
    hops: Mutex<Vec<Hop>>,
    pub send_ns: AtomicU64,
    pub sends: AtomicU64,
    pub recv_ns: AtomicU64,
    pub recvs: AtomicU64,
    /// Stamps skipped because their frames never arrived.
    pub skipped: AtomicU64,
    /// Frames received that no stamp matched.
    pub unmatched: AtomicU64,
}

impl TraceShared {
    pub fn new() -> Arc<Self> {
        Arc::new(TraceShared::default())
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn take_hops(&self) -> Vec<Hop> {
        std::mem::take(&mut *self.hops.lock().expect("hop list lock"))
    }

    fn link(&self, from: HiveId, to: HiveId) -> Option<&Mutex<VecDeque<Stamp>>> {
        self.links.get(from.0 as usize)?.get(to.0 as usize)
    }

    fn on_send(&self, from: HiveId, to: HiveId, frame: &Frame, now: u64) {
        if let Some(link) = self.link(from, to) {
            link.lock().expect("link lock").push_back(Stamp {
                sent_ns: now,
                fingerprint: fingerprint(frame),
            });
        }
    }

    fn on_recv(&self, from: HiveId, to: HiveId, frame: &Frame, now: u64) {
        let Some(link) = self.link(from, to) else {
            return;
        };
        let want = fingerprint(frame);
        let mut q = link.lock().expect("link lock");
        match q.iter().position(|s| s.fingerprint == want) {
            Some(at) => {
                self.skipped.fetch_add(at as u64, Ordering::Relaxed);
                let stamp = q.drain(..=at).next_back().expect("drained at least one");
                drop(q);
                self.hops.lock().expect("hop list lock").push(Hop {
                    from: from.0,
                    to: to.0,
                    sent_ns: stamp.sent_ns,
                    recv_ns: now,
                });
            }
            None => {
                self.unmatched.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// FNV-1a over the frame's kind, length and first bytes. Channel sequence
/// numbers and Raft indices sit at the front, so consecutive frames differ.
fn fingerprint(frame: &Frame) -> u64 {
    let kind = match frame.kind {
        FrameKind::App => 1u8,
        FrameKind::Raft => 2,
        FrameKind::Control => 3,
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(kind);
    (frame.bytes.len() as u64)
        .to_le_bytes()
        .into_iter()
        .for_each(&mut eat);
    frame.bytes.iter().take(48).copied().for_each(&mut eat);
    h
}

pub struct TracedTransport {
    inner: Box<dyn Transport>,
    shared: Arc<TraceShared>,
}

impl TracedTransport {
    pub fn new(inner: Box<dyn Transport>, shared: Arc<TraceShared>) -> Self {
        TracedTransport { inner, shared }
    }
}

impl Transport for TracedTransport {
    fn local(&self) -> HiveId {
        self.inner.local()
    }

    fn send(&self, to: HiveId, frame: Frame) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return self.inner.send(to, frame);
        }
        let t0 = now_ns();
        self.shared.on_send(self.inner.local(), to, &frame, t0);
        self.inner.send(to, frame);
        self.shared
            .send_ns
            .fetch_add(now_ns() - t0, Ordering::Relaxed);
        self.shared.sends.fetch_add(1, Ordering::Relaxed);
    }

    fn try_recv(&self) -> Option<(HiveId, Frame)> {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return self.inner.try_recv();
        }
        let t0 = now_ns();
        let got = self.inner.try_recv();
        let t1 = now_ns();
        // Empty polls are counted too: they are what an idle hive pays.
        self.shared.recv_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        self.shared.recvs.fetch_add(1, Ordering::Relaxed);
        if let Some((from, frame)) = &got {
            self.shared.on_recv(*from, self.inner.local(), frame, t1);
        }
        got
    }

    fn peers(&self) -> Vec<HiveId> {
        self.inner.peers()
    }

    fn set_waker(&mut self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.inner.set_waker(waker);
    }

    fn set_events(&mut self, events: Arc<EventJournal>) {
        self.inner.set_events(events);
    }

    fn connect_peer(&self, peer: HiveId, addr: &str) {
        self.inner.connect_peer(peer, addr);
    }

    fn disconnect_peer(&self, peer: HiveId) -> Vec<Frame> {
        self.inner.disconnect_peer(peer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A wire the test controls: frames sent by one end can be dropped
    /// before the other end sees them, as a reconnect does.
    struct Pipe {
        id: HiveId,
        tx: mpsc::Sender<(HiveId, Frame)>,
        rx: Mutex<mpsc::Receiver<(HiveId, Frame)>>,
    }

    impl Transport for Pipe {
        fn local(&self) -> HiveId {
            self.id
        }
        fn send(&self, _to: HiveId, frame: Frame) {
            let _ = self.tx.send((self.id, frame));
        }
        fn try_recv(&self) -> Option<(HiveId, Frame)> {
            self.rx.lock().unwrap().try_recv().ok()
        }
        fn peers(&self) -> Vec<HiveId> {
            Vec::new()
        }
    }

    fn app(seq: u8) -> Frame {
        Frame::app(vec![seq, 0, 0, 0, 9, 9, 9])
    }

    #[test]
    fn hop_matching_resynchronises_after_lost_frames() {
        let shared = TraceShared::new();
        shared.set_enabled(true);
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        let a = TracedTransport::new(
            Box::new(Pipe {
                id: HiveId(1),
                tx: a_tx,
                rx: Mutex::new(a_rx),
            }),
            shared.clone(),
        );
        // B's raw end stays in the test's hands so it can lose frames.
        let b_inner = Pipe {
            id: HiveId(2),
            tx: b_tx,
            rx: Mutex::new(b_rx),
        };

        // Frames 1..=5 leave A; the reconnect loses 2 and 3.
        for seq in 1..=5 {
            a.send(HiveId(2), app(seq));
        }
        let mut wire: Vec<(HiveId, Frame)> = std::iter::from_fn(|| b_inner.try_recv()).collect();
        wire.retain(|(_, f)| f.bytes[0] != 2 && f.bytes[0] != 3);
        let sent: Vec<u64> = shared.links[1][2]
            .lock()
            .unwrap()
            .iter()
            .map(|s| s.sent_ns)
            .collect();

        // B sees 1, 4, 5 — and one frame nobody stamped.
        for (from, frame) in wire {
            shared.on_recv(from, HiveId(2), &frame, now_ns());
        }
        shared.on_recv(HiveId(1), HiveId(2), &app(77), now_ns());

        let hops = shared.take_hops();
        let paired: Vec<u64> = hops.iter().map(|h| h.sent_ns).collect();
        assert_eq!(
            paired,
            vec![sent[0], sent[3], sent[4]],
            "each arrival pairs with its own send, not with a lost frame's"
        );
        assert_eq!(shared.skipped.load(Ordering::Relaxed), 2);
        assert_eq!(shared.unmatched.load(Ordering::Relaxed), 1);
        assert!(shared.links[1][2].lock().unwrap().is_empty());
        assert!(hops.iter().all(|h| h.recv_ns >= h.sent_ns));
    }

    #[test]
    fn disabled_wrapper_only_forwards() {
        let shared = TraceShared::new();
        let (tx, rx) = mpsc::channel();
        let t = TracedTransport::new(
            Box::new(Pipe {
                id: HiveId(1),
                tx,
                rx: Mutex::new(mpsc::channel().1),
            }),
            shared.clone(),
        );
        t.send(HiveId(2), app(1));
        assert!(rx.try_recv().is_ok());
        assert!(t.try_recv().is_none());
        assert_eq!(shared.sends.load(Ordering::Relaxed), 0);
        assert_eq!(shared.recvs.load(Ordering::Relaxed), 0);
    }
}
