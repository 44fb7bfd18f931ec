//! Checksummed record framing for durable journals.
//!
//! Every append-only or whole-state file Beehive persists (the raft
//! registry state, the reliable-channel outbox journal) frames its payloads
//! as:
//!
//! ```text
//! [u32 LE payload length][u64 LE record_checksum(payload)][payload]
//! ```
//!
//! Writers that serialize a payload straight into their output buffer
//! reserve the header with [`begin_record`], write, and backfill it with
//! [`seal_record`]; [`encode_record`] is that sequence around a copy.
//!
//! The checksum turns "trust the length prefix" recovery into a verifiable
//! scan with three distinguishable outcomes, which is the whole durability
//! contract (DESIGN.md §3.15):
//!
//! * **clean end** — every record verified, nothing lost;
//! * **torn tail** — the *final* record is incomplete or fails its
//!   checksum: a crash mid-append. The valid prefix is recovered and the
//!   tail is reported so the caller can truncate it and count the loss;
//! * **interior corruption** — a record that verifies as *complete* (its
//!   declared length fits and more bytes follow) fails its checksum: a
//!   flipped bit, not a torn write. [`scan_records`] fails loudly instead
//!   of resynchronizing, because guessing a frame boundary after silent
//!   corruption is how replicas diverge.
//!
//! A corrupted length prefix can never over-read: a declared length that
//! runs past the buffer is classified as a torn tail and the scan stops at
//! the last verified record (the longest valid prefix).

use std::fmt;

/// Bytes of framing before each payload: `u32` length + `u64` checksum.
pub const RECORD_HEADER_LEN: usize = 12;

/// FNV-1a 64-bit hash, one byte per step — the dependency-free digest the
/// registry and chaos digests and the wire goldens use; byte-stable across
/// platforms. Records use the faster [`record_checksum`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The record checksum: FNV-style xor-then-multiply over little-endian
/// `u64` words (the tail zero-padded to a word), then the length, then a
/// bijective finalizer.
///
/// Each step `h -> (h ^ w) * K` with `K` odd is a bijection of `h` for a
/// fixed word and of `w` for a fixed state, so two inputs of equal length
/// that differ in one word — any single-bit flip — end in different states,
/// and the finalizer keeps them apart. One multiply per 8 bytes instead of
/// one per byte.
pub fn record_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(K);
    }
    h = (h ^ bytes.len() as u64).wrapping_mul(K);
    // murmur3's fmix64: xor-shifts and odd multiplies, each invertible.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Reserves a record header at the end of `out` and returns where the
/// record starts; append the payload, then [`seal_record`] it.
pub fn begin_record(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    start
}

/// Backfills the header of the record begun at `start`: its payload is
/// everything after the header.
pub fn seal_record(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(RECORD_HEADER_LEN);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&record_checksum(payload).to_le_bytes());
}

/// Appends one framed record (`len`, `checksum`, `payload`) to `out`.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(RECORD_HEADER_LEN + payload.len());
    let start = begin_record(out);
    out.extend_from_slice(payload);
    seal_record(out, start);
}

/// One framed record as a standalone buffer.
pub fn record_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    encode_record(payload, &mut out);
    out
}

/// A torn tail discarded by [`scan_records`]: a crash mid-append left an
/// incomplete (or checksum-failing) final record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the valid prefix ends (truncate the file here).
    pub valid_len: usize,
    /// Why the tail was rejected.
    pub reason: &'static str,
}

/// Interior corruption detected by [`scan_records`]: a complete record —
/// not the file's tail — failed its checksum. Recovery must fail-stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptRecord {
    /// Byte offset of the corrupt record's header.
    pub offset: usize,
    /// What failed.
    pub detail: String,
}

impl fmt::Display for CorruptRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interior corruption at byte {}: {}",
            self.offset, self.detail
        )
    }
}

impl std::error::Error for CorruptRecord {}

/// The result of a successful [`scan_records`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordScan {
    /// Verified payloads, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// The torn tail, if the buffer did not end cleanly. `valid_len` is the
    /// length of the verified prefix; callers truncate the file to it.
    pub torn: Option<TornTail>,
}

impl RecordScan {
    /// Bytes covered by the verified records (where a torn tail starts).
    pub fn valid_len(&self) -> usize {
        self.torn.as_ref().map_or_else(
            || {
                self.payloads
                    .iter()
                    .map(|p| RECORD_HEADER_LEN + p.len())
                    .sum()
            },
            |t| t.valid_len,
        )
    }
}

/// Walks `bytes` as a sequence of framed records.
///
/// Returns `Ok` with every verified payload and an optional torn tail, or
/// `Err` on interior corruption (see the module docs for the contract).
/// Never panics and never reads past the buffer, whatever the input.
pub fn scan_records(bytes: &[u8]) -> Result<RecordScan, CorruptRecord> {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rem = &bytes[offset..];
        if rem.len() < RECORD_HEADER_LEN {
            return Ok(RecordScan {
                payloads,
                torn: Some(TornTail {
                    valid_len: offset,
                    reason: "truncated record header",
                }),
            });
        }
        let len = u32::from_le_bytes(rem[0..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(rem[4..12].try_into().unwrap());
        let body = &rem[RECORD_HEADER_LEN..];
        if body.len() < len {
            // The declared length runs past the buffer: a torn append (or a
            // corrupted prefix — indistinguishable, and truncation is the
            // safe answer for both: we keep the verified prefix only).
            return Ok(RecordScan {
                payloads,
                torn: Some(TornTail {
                    valid_len: offset,
                    reason: "truncated record payload",
                }),
            });
        }
        let payload = &body[..len];
        if record_checksum(payload) != sum {
            let end = offset + RECORD_HEADER_LEN + len;
            if end == bytes.len() {
                // The failing record is the file's tail: a crash between
                // the header write and the payload landing. Torn, not
                // corrupt.
                return Ok(RecordScan {
                    payloads,
                    torn: Some(TornTail {
                        valid_len: offset,
                        reason: "checksum mismatch in final record",
                    }),
                });
            }
            return Err(CorruptRecord {
                offset,
                detail: format!(
                    "checksum mismatch in record of {len} bytes ({} bytes follow)",
                    bytes.len() - end
                ),
            });
        }
        payloads.push(payload.to_vec());
        offset += RECORD_HEADER_LEN + len;
    }
    Ok(RecordScan {
        payloads,
        torn: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            encode_record(p, &mut out);
        }
        out
    }

    #[test]
    fn roundtrip_and_clean_end() {
        let buf = journal(&[b"alpha", b"", b"gamma-gamma"]);
        let scan = scan_records(&buf).unwrap();
        assert_eq!(
            scan.payloads,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert!(scan.torn.is_none());
        assert_eq!(scan.valid_len(), buf.len());
        assert!(scan_records(&[]).unwrap().payloads.is_empty());
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let buf = journal(&[b"one", b"two", b"three"]);
        // Cut mid-payload of the last record.
        let cut = buf.len() - 2;
        let scan = scan_records(&buf[..cut]).unwrap();
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
        let torn = scan.torn.unwrap();
        assert_eq!(torn.valid_len, journal(&[b"one", b"two"]).len());
        // Cut mid-header of the second record.
        let cut = journal(&[b"one"]).len() + 3;
        let scan = scan_records(&buf[..cut]).unwrap();
        assert_eq!(scan.payloads, vec![b"one".to_vec()]);
        assert_eq!(scan.torn.unwrap().reason, "truncated record header");
    }

    #[test]
    fn final_record_bitflip_is_torn_not_corrupt() {
        let mut buf = journal(&[b"keep", b"mangle-me"]);
        let n = buf.len();
        buf[n - 1] ^= 0x10;
        let scan = scan_records(&buf).unwrap();
        assert_eq!(scan.payloads, vec![b"keep".to_vec()]);
        assert_eq!(
            scan.torn.unwrap().reason,
            "checksum mismatch in final record"
        );
    }

    #[test]
    fn interior_bitflip_fails_stop() {
        let mut buf = journal(&[b"first-record", b"second"]);
        // Flip a payload bit of the FIRST record (bytes follow it).
        buf[RECORD_HEADER_LEN] ^= 0x01;
        let err = scan_records(&buf).unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.to_string().contains("interior corruption"), "{err}");
    }

    #[test]
    fn record_checksum_tells_trailing_zeros_apart() {
        // The tail is zero-padded to a word, so only the folded-in length
        // separates these.
        let sums: Vec<u64> = (0..=16).map(|n| record_checksum(&vec![0; n])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(!sums[i + 1..].contains(a), "length {i} collides");
        }
        assert_ne!(record_checksum(b"ab"), record_checksum(b"ab\0"));
    }

    #[test]
    fn sealed_in_place_records_match_encoded_ones() {
        let mut in_place = Vec::new();
        let start = begin_record(&mut in_place);
        in_place.extend_from_slice(b"payload");
        seal_record(&mut in_place, start);
        assert_eq!(in_place, journal(&[b"payload"]));
    }

    #[test]
    fn oversized_length_prefix_cannot_over_read() {
        let mut buf = journal(&[b"ok"]);
        let mut tail = Vec::new();
        tail.extend_from_slice(&u32::MAX.to_le_bytes());
        tail.extend_from_slice(&0u64.to_le_bytes());
        tail.extend_from_slice(b"short");
        buf.extend_from_slice(&tail);
        let scan = scan_records(&buf).unwrap();
        assert_eq!(scan.payloads, vec![b"ok".to_vec()]);
        assert_eq!(
            scan.torn.as_ref().unwrap().reason,
            "truncated record payload"
        );
        assert_eq!(scan.valid_len(), journal(&[b"ok"]).len());
    }
}
