//! Per-peer outbound machinery of the reactor transport: the encoded
//! frame ring with vectored batched flushes ([`SendRing`]) and the
//! dead-peer connect backoff schedule ([`ConnectBackoff`]).
//!
//! The ring is the reactor's whole send path: a hive's `send_all()` encodes
//! its frames, pushes them under a briefly-held lock and flushes the ring
//! itself, coalescing up to [`FLUSH_BATCH`] queued frames into a single
//! non-blocking `writev`-style syscall; whatever the socket does not take
//! waits for the reactor. While a peer is down the same ring doubles as
//! the deferred queue, bounded at [`DEFERRED_CAP`] with the eviction
//! priorities the reliable-delivery layer depends on (App first — the
//! channel retransmits those — then Raft, Control only as a last resort).

use std::collections::VecDeque;
use std::io::{IoSlice, Write};

use beehive_core::transport::{Frame, FrameKind};
use beehive_core::HiveId;

use crate::frame::HEADER_LEN;

/// First dead-peer backoff window after a failed connect.
pub const BACKOFF_BASE_MS: u64 = 500;
/// Dead-peer backoff cap: a long-dead peer is probed at least this often.
pub const BACKOFF_CAP_MS: u64 = 10_000;
/// Jitter range added to each window so restarting clusters don't reconnect
/// in lockstep.
pub const BACKOFF_JITTER_MS: u64 = 250;
/// Per-peer cap on frames queued while the peer is down; past it one queued
/// frame is evicted (everything above this layer retransmits App and Raft).
pub const DEFERRED_CAP: usize = 1024;
/// Maximum frames one vectored flush hands the kernel per syscall.
pub const FLUSH_BATCH: usize = 64;

/// Per-peer reconnect state: consecutive failures and the current window.
#[derive(Debug, Clone, Copy)]
pub struct ConnectBackoff {
    /// Consecutive failed connect attempts.
    pub failures: u32,
    /// When the last attempt failed.
    pub last_fail: std::time::Instant,
    /// How long sends are deferred without probing.
    pub window: std::time::Duration,
}

impl ConnectBackoff {
    /// Records one more failure against `peer` and returns the new window
    /// in milliseconds.
    pub fn bump(entry: &mut Option<ConnectBackoff>, peer: HiveId) -> u64 {
        let failures = entry.map(|b| b.failures).unwrap_or(0).saturating_add(1);
        let window_ms = backoff_window_ms(peer, failures);
        *entry = Some(ConnectBackoff {
            failures,
            last_fail: std::time::Instant::now(),
            window: std::time::Duration::from_millis(window_ms),
        });
        window_ms
    }

    /// Whether the window is still open (sends should defer, not probe).
    pub fn active(&self) -> bool {
        self.last_fail.elapsed() < self.window
    }

    /// Time until the window closes (zero if it already has).
    pub fn remaining(&self) -> std::time::Duration {
        self.window.saturating_sub(self.last_fail.elapsed())
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^(failures-1)`,
/// capped, plus a per-peer/attempt offset (no RNG dependency — spread, not
/// unpredictability, is what matters here).
pub fn backoff_window_ms(peer: HiveId, failures: u32) -> u64 {
    let exp = BACKOFF_BASE_MS << u64::from(failures.saturating_sub(1).min(5));
    let jitter = (u64::from(peer.0) * 31 + u64::from(failures) * 17) % BACKOFF_JITTER_MS;
    exp.min(BACKOFF_CAP_MS) + jitter
}

/// One encoded frame queued for a peer: the full wire bytes (header +
/// payload) plus what the accounting layer needs.
#[derive(Debug)]
pub struct EncodedFrame {
    /// `None` for the connection handshake, which is neither accounted in
    /// [`beehive_core::transport::TransportCounters`] nor surrendered to
    /// callers on disconnect.
    pub kind: Option<FrameKind>,
    /// Encoded wire bytes (header + payload).
    pub bytes: Vec<u8>,
    /// The [`Frame::wire_len`] accounting size (payload + 8) the ring
    /// counters use.
    pub acct_len: usize,
}

impl EncodedFrame {
    /// Recovers the transport-level [`Frame`] (payload without the wire
    /// header) for surrender on [`disconnect`]; `None` for handshakes.
    ///
    /// [`disconnect`]: beehive_core::transport::Transport::disconnect_peer
    pub fn into_frame(self) -> Option<Frame> {
        let kind = self.kind?;
        Some(Frame {
            kind,
            bytes: self.bytes[HEADER_LEN..].to_vec(),
        })
    }
}

/// What one [`SendRing::flush`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Every queued frame reached the kernel.
    Drained,
    /// The socket stopped accepting bytes (`WouldBlock`); the rest stays
    /// queued and the caller should poll for writability.
    WouldBlock,
}

/// Outbound byte ring for one peer: FIFO of encoded frames with a byte
/// offset into the head frame, flushed with vectored writes.
#[derive(Debug, Default)]
pub struct SendRing {
    frames: VecDeque<EncodedFrame>,
    /// Bytes of the head frame already handed to the kernel on the current
    /// connection. Reset when the connection dies: the remote discards a
    /// torn frame with its socket, so the head retransmits from byte 0.
    head_offset: usize,
    queued_bytes: usize,
}

impl SendRing {
    /// An empty ring.
    pub fn new() -> Self {
        SendRing::default()
    }

    /// Queued frame count.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total encoded bytes still to be written.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Appends a frame to the back of the ring.
    pub fn push(&mut self, frame: EncodedFrame) {
        self.queued_bytes += frame.bytes.len();
        self.frames.push_back(frame);
    }

    /// Puts a frame at the *front* of the ring — used for the handshake a
    /// freshly established connection must emit before any queued traffic.
    /// Only legal while the head is unwritten (a fresh connection).
    pub fn push_front(&mut self, frame: EncodedFrame) {
        debug_assert_eq!(self.head_offset, 0, "cannot preempt a torn frame");
        self.queued_bytes += frame.bytes.len();
        self.frames.push_front(frame);
    }

    /// Forgets partial-write progress after a connection died (see
    /// [`SendRing::head_offset`]).
    pub fn reset_progress(&mut self) {
        self.head_offset = 0;
    }

    /// Evicts one queued frame to make room, preferring the oldest App
    /// frame (the reliable channel retransmits those), then the oldest Raft
    /// frame (Raft retransmits its own traffic), and only as a last resort
    /// a Control frame — Control has no retransmission layer above TCP, so
    /// dropping it is real loss. The partially-written head (if any) is
    /// never evicted. Returns the victim's ring index and kind, or `None`
    /// if the ring held nothing evictable.
    pub fn evict_lowest(&mut self) -> Option<(usize, FrameKind)> {
        let first = usize::from(self.head_offset > 0);
        let pick = |want: FrameKind, frames: &VecDeque<EncodedFrame>| {
            frames
                .iter()
                .enumerate()
                .skip(first)
                .find(|(_, f)| f.kind == Some(want))
                .map(|(i, _)| i)
        };
        let victim = pick(FrameKind::App, &self.frames)
            .or_else(|| pick(FrameKind::Raft, &self.frames))
            .or_else(|| pick(FrameKind::Control, &self.frames))?;
        let frame = self.frames.remove(victim).expect("index in bounds");
        self.queued_bytes -= frame.bytes.len();
        frame.kind.map(|k| (victim, k))
    }

    /// Surrenders every queued frame (for
    /// [`beehive_core::transport::Transport::disconnect_peer`]).
    pub fn drain_frames(&mut self) -> Vec<EncodedFrame> {
        self.head_offset = 0;
        self.queued_bytes = 0;
        self.frames.drain(..).collect()
    }

    /// Flushes queued frames down `w` with vectored writes, coalescing up
    /// to [`FLUSH_BATCH`] frames per syscall, until the ring drains or the
    /// socket pushes back. `on_frame(kind, acct_len)` fires once per frame
    /// fully handed to the kernel (skipping handshakes), which is where the
    /// transport counters tick.
    pub fn flush<W: Write>(
        &mut self,
        w: &mut W,
        mut on_frame: impl FnMut(FrameKind, usize),
    ) -> std::io::Result<FlushOutcome> {
        while !self.frames.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(FLUSH_BATCH.min(self.frames.len()));
            for (i, f) in self.frames.iter().take(FLUSH_BATCH).enumerate() {
                let bytes = if i == 0 {
                    &f.bytes[self.head_offset..]
                } else {
                    &f.bytes[..]
                };
                slices.push(IoSlice::new(bytes));
            }
            let mut written = match w.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(FlushOutcome::WouldBlock)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.queued_bytes -= written;
            // Retire fully-written frames; stash partial progress on the head.
            while written > 0 {
                let remaining = self.frames[0].bytes.len() - self.head_offset;
                if written >= remaining {
                    written -= remaining;
                    self.head_offset = 0;
                    let done = self.frames.pop_front().expect("non-empty");
                    if let Some(kind) = done.kind {
                        on_frame(kind, done.acct_len);
                    }
                } else {
                    self.head_offset += written;
                    written = 0;
                }
            }
        }
        Ok(FlushOutcome::Drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, KIND_APP, KIND_CONTROL, KIND_HANDSHAKE, KIND_RAFT};

    fn app_frame(b: u8) -> EncodedFrame {
        let payload = vec![b];
        EncodedFrame {
            kind: Some(FrameKind::App),
            bytes: encode_frame(HiveId(1), KIND_APP, &payload),
            acct_len: payload.len() + 8,
        }
    }

    fn kind_frame(kind: FrameKind, wire_kind: u8, b: u8) -> EncodedFrame {
        EncodedFrame {
            kind: Some(kind),
            bytes: encode_frame(HiveId(1), wire_kind, &[b]),
            acct_len: 9,
        }
    }

    /// A writer that accepts at most `cap` bytes per call — exercises the
    /// partial-write bookkeeping the way a full socket buffer would.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        block_after: Option<usize>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.block_after == Some(0) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            if let Some(n) = self.block_after.as_mut() {
                *n -= 1;
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            // Flatten so the cap applies across slices, like a socket.
            let mut budget = self.cap;
            if self.block_after == Some(0) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            if let Some(n) = self.block_after.as_mut() {
                *n -= 1;
            }
            let mut total = 0;
            for b in bufs {
                if budget == 0 {
                    break;
                }
                let n = b.len().min(budget);
                self.out.extend_from_slice(&b[..n]);
                budget -= n;
                total += n;
            }
            Ok(total)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_coalesces_and_preserves_order() {
        let mut ring = SendRing::new();
        let mut expect = Vec::new();
        for b in 0..10u8 {
            let f = app_frame(b);
            expect.extend_from_slice(&f.bytes);
            ring.push(f);
        }
        let mut w = Throttled {
            out: Vec::new(),
            cap: usize::MAX,
            block_after: None,
        };
        let mut flushed = 0;
        let outcome = ring.flush(&mut w, |_, _| flushed += 1).unwrap();
        assert_eq!(outcome, FlushOutcome::Drained);
        assert_eq!(flushed, 10);
        assert_eq!(w.out, expect, "wire bytes are the frames in FIFO order");
        assert!(ring.is_empty());
        assert_eq!(ring.queued_bytes(), 0);
    }

    #[test]
    fn partial_writes_resume_mid_frame() {
        let mut ring = SendRing::new();
        let mut expect = Vec::new();
        for b in 0..5u8 {
            let f = app_frame(b);
            expect.extend_from_slice(&f.bytes);
            ring.push(f);
        }
        // 7 bytes per syscall: every frame (10 bytes) is torn across calls.
        let mut w = Throttled {
            out: Vec::new(),
            cap: 7,
            block_after: None,
        };
        let outcome = ring.flush(&mut w, |_, _| {}).unwrap();
        assert_eq!(outcome, FlushOutcome::Drained);
        assert_eq!(w.out, expect);
    }

    #[test]
    fn would_block_keeps_the_tail_queued() {
        let mut ring = SendRing::new();
        for b in 0..4u8 {
            ring.push(app_frame(b));
        }
        let mut w = Throttled {
            out: Vec::new(),
            cap: 10, // exactly one frame per call
            block_after: Some(2),
        };
        let mut flushed = 0;
        let outcome = ring.flush(&mut w, |_, _| flushed += 1).unwrap();
        assert_eq!(outcome, FlushOutcome::WouldBlock);
        assert_eq!(flushed, 2);
        assert_eq!(ring.len(), 2);
        // A later flush continues where the socket stopped.
        let mut w2 = Throttled {
            out: Vec::new(),
            cap: usize::MAX,
            block_after: None,
        };
        ring.flush(&mut w2, |_, _| flushed += 1).unwrap();
        assert_eq!(flushed, 4);
    }

    #[test]
    fn eviction_prefers_app_then_raft_then_control() {
        let mut ring = SendRing::new();
        ring.push(kind_frame(FrameKind::Control, KIND_CONTROL, 0));
        ring.push(kind_frame(FrameKind::Raft, KIND_RAFT, 1));
        ring.push(kind_frame(FrameKind::App, KIND_APP, 2));
        ring.push(kind_frame(FrameKind::App, KIND_APP, 3));
        assert_eq!(ring.evict_lowest(), Some((2, FrameKind::App)));
        assert_eq!(ring.evict_lowest(), Some((2, FrameKind::App)));
        assert_eq!(ring.evict_lowest(), Some((1, FrameKind::Raft)));
        assert_eq!(ring.evict_lowest(), Some((0, FrameKind::Control)));
        assert_eq!(ring.evict_lowest(), None);
        assert_eq!(ring.queued_bytes(), 0);
    }

    #[test]
    fn handshakes_are_unaccounted_and_not_surrendered() {
        let mut ring = SendRing::new();
        ring.push(app_frame(1));
        ring.push_front(EncodedFrame {
            kind: None,
            bytes: encode_frame(HiveId(1), KIND_HANDSHAKE, &[]),
            acct_len: 0,
        });
        let mut w = Throttled {
            out: Vec::new(),
            cap: usize::MAX,
            block_after: None,
        };
        let mut accounted = 0;
        ring.flush(&mut w, |_, _| accounted += 1).unwrap();
        assert_eq!(accounted, 1, "the handshake is not accounted");
        // The handshake bytes still went first on the wire.
        assert_eq!(
            &w.out[..9],
            &encode_frame(HiveId(1), KIND_HANDSHAKE, &[])[..]
        );

        let mut ring2 = SendRing::new();
        ring2.push(EncodedFrame {
            kind: None,
            bytes: encode_frame(HiveId(1), KIND_HANDSHAKE, &[]),
            acct_len: 0,
        });
        ring2.push(app_frame(9));
        let surrendered: Vec<Frame> = ring2
            .drain_frames()
            .into_iter()
            .filter_map(EncodedFrame::into_frame)
            .collect();
        assert_eq!(surrendered.len(), 1);
        assert_eq!(surrendered[0].kind, FrameKind::App);
        assert_eq!(surrendered[0].bytes, vec![9]);
    }

    #[test]
    fn backoff_window_grows_and_caps() {
        let p = HiveId(3);
        let jitter = |f: u32| (u64::from(p.0) * 31 + u64::from(f) * 17) % BACKOFF_JITTER_MS;
        assert_eq!(backoff_window_ms(p, 1), 500 + jitter(1));
        assert_eq!(backoff_window_ms(p, 2), 1000 + jitter(2));
        assert_eq!(backoff_window_ms(p, 5), 8000 + jitter(5));
        // 500 << 5 = 16s exceeds the cap; deeper failure counts stay capped.
        assert_eq!(backoff_window_ms(p, 6), 10_000 + jitter(6));
        assert_eq!(backoff_window_ms(p, 60), 10_000 + jitter(60));
    }

    #[test]
    fn connect_backoff_bump_tracks_consecutive_failures() {
        let mut entry = None;
        let w1 = ConnectBackoff::bump(&mut entry, HiveId(2));
        assert!(w1 >= BACKOFF_BASE_MS);
        assert!(entry.unwrap().active());
        let w2 = ConnectBackoff::bump(&mut entry, HiveId(2));
        assert!(w2 > w1, "window grows with consecutive failures");
        assert_eq!(entry.unwrap().failures, 2);
        assert!(entry.unwrap().remaining() <= entry.unwrap().window);
    }
}
