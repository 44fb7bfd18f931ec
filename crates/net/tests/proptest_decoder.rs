//! Property/fuzz tests for the streaming frame decoder.
//!
//! The decoder sits on the untrusted side of every TCP connection, so the
//! contracts here are adversarial: for *any* byte stream — frames split at
//! arbitrary boundaries, one byte at a time, torn length prefixes, pure
//! junk — it must never panic, must reproduce well-formed frames
//! byte-identically, must reject malformed length prefixes without
//! buffering their payloads, and must keep its internal buffer bounded by
//! a constant independent of how many bytes flow through it.

use std::io::Read;

use beehive_core::HiveId;
use beehive_net::frame::{
    encode_frame, encode_frame_into, DecodedFrame, FrameDecoder, HEADER_LEN, MAX_FRAME_LEN,
};
use beehive_raft::prop::{for_all, Gen};

/// Cases per property.
const CASES: u64 = 256;

/// One logical frame an adversary-controlled peer might send: any src id,
/// any kind byte (the decoder does not interpret kinds), payload up to a
/// few hundred bytes.
fn arb_frame(g: &mut Gen) -> (u32, u8, Vec<u8>) {
    (g.range(..), g.range(..), g.vec(0..300, |g| g.range(..)))
}

fn encode_all(frames: &[(u32, u8, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (src, kind, payload) in frames {
        encode_frame_into(&mut wire, HiveId(*src), *kind, payload);
    }
    wire
}

/// Drains every currently-complete frame; panics on decode error (these
/// streams are well-formed by construction).
fn drain(dec: &mut FrameDecoder, out: &mut Vec<DecodedFrame>) {
    while let Some(f) = dec.next_frame().expect("well-formed stream") {
        out.push(f);
    }
}

fn assert_identical(decoded: &[DecodedFrame], sent: &[(u32, u8, Vec<u8>)]) {
    assert_eq!(decoded.len(), sent.len());
    for (got, (src, kind, payload)) in decoded.iter().zip(sent) {
        assert_eq!(got.src, HiveId(*src));
        assert_eq!(got.kind, *kind);
        assert_eq!(&got.payload, payload, "payload must be byte-identical");
    }
}

/// Frames split at arbitrary byte boundaries reassemble byte-identically,
/// regardless of where the cuts land (mid-prefix, mid-header, mid-payload).
#[test]
fn frames_survive_arbitrary_splits() {
    for_all(
        CASES,
        |g| {
            (
                g.vec(0..20, arb_frame),
                g.vec(1..64, |g| g.range(1usize..200)),
            )
        },
        |(frames, cuts)| {
            let wire = encode_all(&frames);
            let mut dec = FrameDecoder::new();
            let mut decoded = Vec::new();
            let mut pos = 0;
            let mut cut_iter = cuts.iter().cycle();
            while pos < wire.len() {
                let take = (*cut_iter.next().unwrap()).min(wire.len() - pos);
                dec.extend(&wire[pos..pos + take]);
                pos += take;
                drain(&mut dec, &mut decoded);
            }
            drain(&mut dec, &mut decoded);
            assert_identical(&decoded, &frames);
            assert_eq!(dec.buffered(), 0, "no leftover bytes after a clean stream");
        },
    );
}

/// The degenerate split: one byte per feed. Every length prefix and
/// header is torn across feeds.
#[test]
fn one_byte_at_a_time() {
    for_all(
        CASES,
        |g| g.vec(1..8, arb_frame),
        |frames| {
            let wire = encode_all(&frames);
            let mut dec = FrameDecoder::new();
            let mut decoded = Vec::new();
            for b in &wire {
                dec.extend(std::slice::from_ref(b));
                drain(&mut dec, &mut decoded);
            }
            assert_identical(&decoded, &frames);
        },
    );
}

/// The `read_from` socket path behaves exactly like `extend`: a reader
/// that returns arbitrary short counts still yields identical frames.
#[test]
fn read_from_with_short_reads() {
    struct Stutter<'a> {
        data: &'a [u8],
        pos: usize,
        chunks: Vec<usize>,
        i: usize,
    }
    impl Read for Stutter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let want = self.chunks[self.i % self.chunks.len()];
            self.i += 1;
            let n = want.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    for_all(
        CASES,
        |g| {
            (
                g.vec(0..12, arb_frame),
                g.vec(1..32, |g| g.range(1usize..97)),
            )
        },
        |(frames, chunks)| {
            let wire = encode_all(&frames);
            let mut r = Stutter {
                data: &wire,
                pos: 0,
                chunks,
                i: 0,
            };
            let mut dec = FrameDecoder::new();
            let mut decoded = Vec::new();
            loop {
                let n = dec.read_from(&mut r).expect("in-memory reader");
                drain(&mut dec, &mut decoded);
                if n == 0 {
                    break;
                }
            }
            assert_identical(&decoded, &frames);
        },
    );
}

/// Pure junk never panics: every outcome is `Ok(None)` (starved),
/// `Ok(Some)` (junk that happens to parse — fine, the frame's `len` was
/// in range), or `Err` (malformed prefix). After the first `Err` the
/// connection would be dropped, so the test stops there too.
#[test]
fn arbitrary_junk_never_panics() {
    for_all(
        CASES,
        |g| {
            (
                g.vec(0..4096, |g| g.range(..)),
                g.vec(1..32, |g| g.range(1usize..64)),
            )
        },
        |(junk, cuts): (Vec<u8>, Vec<usize>)| {
            let mut dec = FrameDecoder::with_max_frame(1024);
            let mut pos = 0;
            let mut cut_iter = cuts.iter().cycle();
            'outer: while pos < junk.len() {
                let take = (*cut_iter.next().unwrap()).min(junk.len() - pos);
                dec.extend(&junk[pos..pos + take]);
                pos += take;
                loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => assert!(f.payload.len() + 5 <= 1024),
                        Ok(None) => break,
                        Err(e) => {
                            // Malformed prefix: the offending len really is out
                            // of the decoder's accepted range.
                            assert!(!(5..=1024).contains(&e.len));
                            break 'outer;
                        }
                    }
                }
            }
        },
    );
}

/// Valid frames followed by a corrupted length prefix: every frame
/// before the corruption decodes intact, then the stream errors —
/// never panics, never yields a phantom frame past the corruption.
#[test]
fn valid_prefix_decodes_before_corruption() {
    for_all(
        CASES,
        |g| {
            let bad_len = match g.range(0..3u8) {
                0 => 0u32,
                1 => 4,
                _ => g.range(1025..u32::MAX),
            };
            (g.vec(1..6, arb_frame), bad_len)
        },
        |(frames, bad_len)| {
            let mut wire = encode_all(&frames);
            wire.extend_from_slice(&bad_len.to_le_bytes());
            wire.extend_from_slice(&[0xAB; 16]);
            let mut dec = FrameDecoder::with_max_frame(1024);
            dec.extend(&wire);
            let mut decoded = Vec::new();
            let err = loop {
                match dec.next_frame() {
                    Ok(Some(f)) => decoded.push(f),
                    Ok(None) => panic!("corruption must surface as an error"),
                    Err(e) => break e,
                }
            };
            assert_identical(&decoded, &frames);
            assert_eq!(err.len, bad_len as usize);
            assert_eq!(err.max, 1024);
        },
    );
}

/// An oversized length prefix is rejected from the prefix alone —
/// the decoder never waits for (or buffers) the announced payload.
#[test]
fn oversize_len_rejected_from_prefix_alone() {
    for_all(
        CASES,
        |g| g.range(1u64..u32::MAX as u64),
        |extra| {
            let bad = (MAX_FRAME_LEN as u64 + extra).min(u32::MAX as u64) as u32;
            let mut dec = FrameDecoder::new();
            dec.extend(&bad.to_le_bytes());
            assert!(dec.next_frame().is_err());
            assert!(
                dec.buffered_capacity() < 4096,
                "no payload-sized allocation"
            );
        },
    );
}

/// Buffer growth is capped: with a 1 KiB frame cap, pushing hundreds of
/// kilobytes through the decoder in arbitrary chunks never grows the
/// internal buffer past a constant (one read chunk + one max frame,
/// doubled for Vec growth slack) — it is independent of stream volume.
#[test]
fn buffer_growth_is_bounded() {
    // Each case pushes ~a quarter megabyte through the decoder, so run
    // fewer, bigger cases than the other properties.
    for_all(
        24,
        |g| (g.range(1usize..512), g.range(0usize..1019)),
        |(chunk, payload_len)| {
            const CAP: usize = 1024;
            const READ_CHUNK: usize = 64 * 1024;
            let mut dec = FrameDecoder::with_max_frame(CAP);
            let frame = encode_frame(HiveId(1), 0, &vec![0x5A; payload_len]);
            // Several multiples of the compaction threshold worth of traffic.
            let total_frames = (4 * READ_CHUNK) / frame.len() + 1;
            let mut wire = Vec::new();
            let mut fed = 0usize;
            let mut decoded = 0usize;
            for _ in 0..total_frames {
                wire.extend_from_slice(&frame);
                while wire.len() - fed >= chunk {
                    dec.extend(&wire[fed..fed + chunk]);
                    fed += chunk;
                    while dec.next_frame().expect("well-formed").is_some() {
                        decoded += 1;
                    }
                    assert!(
                        dec.buffered_capacity() <= 2 * (READ_CHUNK + CAP + 4 + chunk),
                        "buffer capacity {} escaped its bound",
                        dec.buffered_capacity()
                    );
                }
                // Keep the staging vec itself from growing without bound.
                if fed > 0 {
                    wire.drain(..fed);
                    fed = 0;
                }
            }
            // Whole chunks only went in above; the tail is under one chunk.
            dec.extend(&wire);
            while dec.next_frame().expect("well-formed").is_some() {
                decoded += 1;
            }
            assert_eq!(decoded, total_frames);
        },
    );
}

/// `HEADER_LEN` bytes of header plus payload is exactly what lands on the
/// wire — pinned here so the bench's bytes/sec math and the counters'
/// `wire_len` accounting can't silently drift from the codec.
#[test]
fn header_len_matches_wire_layout() {
    let wire = encode_frame(HiveId(9), 2, &[1, 2, 3]);
    assert_eq!(wire.len(), HEADER_LEN + 3);
    assert_eq!(&wire[..4], &(3u32 + 5).to_le_bytes());
}
