//! Wire framing of the TCP transport ([`crate::ReactorTransport`]):
//!
//! ```text
//! [u32 len][u32 src_hive][u8 kind][payload]      (all integers little-endian)
//! ```
//!
//! `len` counts everything after the length word (`src + kind + payload`,
//! i.e. `payload.len() + 5`). On connect the dialer immediately sends a
//! handshake frame (`kind = 0xFF`, empty payload) naming itself; every
//! later frame's embedded `src` is ignored in favour of the handshake
//! identity.
//!
//! [`FrameDecoder`] is the streaming half: it reads into one reusable
//! per-connection buffer and slices complete frames out of it, so arbitrary
//! TCP segmentation (frames split at any byte boundary, many frames per
//! read) decodes to the identical frame sequence without a per-read
//! allocation. The fuzz suite (`tests/proptest_decoder.rs`) pins that
//! equivalence.

use std::io::Read;

use beehive_core::transport::FrameKind;
use beehive_core::HiveId;

/// Wire kind byte for application frames.
pub const KIND_APP: u8 = 0;
/// Wire kind byte for registry-Raft frames.
pub const KIND_RAFT: u8 = 1;
/// Wire kind byte for platform-control frames.
pub const KIND_CONTROL: u8 = 2;
/// Wire kind byte of the connection handshake (first frame on every dialed
/// connection; empty payload, `src` names the dialer).
pub const KIND_HANDSHAKE: u8 = 0xFF;

/// Bytes of `[u32 len][u32 src][u8 kind]` preceding every payload.
pub const HEADER_LEN: usize = 9;

/// Upper bound on the wire `len` field (`payload + 5`): one frame may not
/// exceed 64 MiB. A peer announcing more is declared malformed and its
/// connection dropped — this is what caps decoder buffer growth.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Maps a [`FrameKind`] to its wire byte.
pub fn kind_to_byte(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::App => KIND_APP,
        FrameKind::Raft => KIND_RAFT,
        FrameKind::Control => KIND_CONTROL,
    }
}

/// Maps a wire byte back to its [`FrameKind`] (`None` for the handshake and
/// anything unknown).
pub fn byte_to_kind(b: u8) -> Option<FrameKind> {
    match b {
        KIND_APP => Some(FrameKind::App),
        KIND_RAFT => Some(FrameKind::Raft),
        KIND_CONTROL => Some(FrameKind::Control),
        _ => None,
    }
}

/// Appends one encoded frame (header + payload) to `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, src: HiveId, kind: u8, payload: &[u8]) {
    let len = (payload.len() + 5) as u32;
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&src.0.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
}

/// Encodes one frame into a fresh buffer.
pub fn encode_frame(src: HiveId, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(&mut out, src, kind, payload);
    out
}

/// One frame sliced out of a [`FrameDecoder`]'s stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// The `src` hive id embedded in the frame header.
    pub src: HiveId,
    /// The raw wire kind byte (see [`byte_to_kind`]).
    pub kind: u8,
    /// The frame payload. This is the only per-frame allocation the decoder
    /// makes — everything upstream of it reuses one per-connection buffer.
    pub payload: Vec<u8>,
}

/// The decoder rejected the stream: the peer is speaking garbage and its
/// connection must be dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// The offending wire `len` field.
    pub len: usize,
    /// The decoder's frame-size cap at the time.
    pub max: usize,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame length {} (valid: 5..={})", self.len, self.max)
    }
}

impl std::error::Error for FrameError {}

/// How many bytes one [`FrameDecoder::read_from`] call asks the socket for.
const READ_CHUNK: usize = 64 * 1024;

/// Streaming frame decoder over one reusable buffer.
///
/// Feed it bytes ([`FrameDecoder::extend`] or [`FrameDecoder::read_from`])
/// and drain complete frames with [`FrameDecoder::next_frame`] until it
/// returns `Ok(None)`. Incomplete tails (torn length prefixes, half
/// payloads) are held until the rest arrives; a `len` outside
/// `5..=max_frame` is an unrecoverable [`FrameError`]. Consumed bytes are
/// compacted away so the buffer never grows past one maximum frame plus one
/// read chunk.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the unparsed region in `buf`.
    start: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder with the wire-default frame cap ([`MAX_FRAME_LEN`]).
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_LEN)
    }

    /// A decoder capping frames at `max_frame` wire-`len` bytes (tests use
    /// small caps to pin the buffer-growth bound).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Bytes buffered but not yet sliced into frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Capacity of the internal buffer — bounded by
    /// `max_frame + 4 + READ_CHUNK` as long as frames are drained after
    /// each feed (the fuzz suite asserts this).
    pub fn buffered_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Drops already-parsed bytes once they dominate the buffer, keeping the
    /// unparsed tail at the front. Amortized O(1) per byte.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= READ_CHUNK.max(self.buf.len() / 2) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Appends raw bytes to the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads once from `r` into the reusable buffer. Returns the byte count
    /// (0 = EOF); `WouldBlock` and friends surface as errors for the caller
    /// to interpret.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        self.compact();
        let old_len = self.buf.len();
        self.buf.resize(old_len + READ_CHUNK, 0);
        match r.read(&mut self.buf[old_len..]) {
            Ok(n) => {
                self.buf.truncate(old_len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old_len);
                Err(e)
            }
        }
    }

    /// Slices the next complete frame out of the stream. `Ok(None)` means
    /// "need more bytes"; `Err` means the stream is malformed and the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<DecodedFrame>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if !(5..=self.max_frame).contains(&len) {
            return Err(FrameError {
                len,
                max: self.max_frame,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let src = HiveId(u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]));
        let kind = avail[8];
        let payload = avail[HEADER_LEN..4 + len].to_vec();
        self.start += 4 + len;
        self.compact();
        Ok(Some(DecodedFrame { src, kind, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(HiveId(7), KIND_CONTROL, &[5, 6, 7]));
        let f = dec.next_frame().unwrap().expect("one frame");
        assert_eq!(f.src, HiveId(7));
        assert_eq!(f.kind, KIND_CONTROL);
        assert_eq!(f.payload, vec![5, 6, 7]);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn split_feeds_reassemble() {
        let bytes = encode_frame(HiveId(1), KIND_APP, &[9; 100]);
        let mut dec = FrameDecoder::new();
        for b in &bytes[..bytes.len() - 1] {
            dec.extend(&[*b]);
            assert!(dec.next_frame().unwrap().is_none());
        }
        dec.extend(&bytes[bytes.len() - 1..]);
        let f = dec.next_frame().unwrap().expect("completed frame");
        assert_eq!(f.payload, vec![9; 100]);
    }

    #[test]
    fn many_frames_per_feed() {
        let mut stream = Vec::new();
        for i in 0..10u8 {
            encode_frame_into(&mut stream, HiveId(2), KIND_APP, &[i]);
        }
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        for i in 0..10u8 {
            assert_eq!(dec.next_frame().unwrap().unwrap().payload, vec![i]);
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_length_is_an_error_not_a_buffer() {
        let mut dec = FrameDecoder::with_max_frame(1024);
        // A header declaring a 2 GiB frame: rejected before any payload is
        // buffered, which is what bounds memory against hostile peers.
        dec.extend(&(2u32 << 30).to_le_bytes());
        let err = dec.next_frame().expect_err("oversized frame rejected");
        assert_eq!(err.len, 2 << 30);
        assert!(dec.buffered_capacity() < 4096);
    }

    #[test]
    fn undersized_length_is_an_error() {
        let mut dec = FrameDecoder::new();
        dec.extend(&3u32.to_le_bytes());
        assert!(dec.next_frame().is_err(), "len < 5 is malformed");
    }

    #[test]
    fn wire_bytes_are_len_src_kind_payload() {
        assert_eq!(
            encode_frame(HiveId(3), KIND_RAFT, &[1, 2, 3, 4]),
            [9, 0, 0, 0, 3, 0, 0, 0, KIND_RAFT, 1, 2, 3, 4]
        );
    }
}
