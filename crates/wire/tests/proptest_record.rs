//! Property tests for the checksummed record codec: whatever bytes recovery
//! is handed — truncated journals, bit flips at any offset, pure garbage —
//! the scan must never panic, never over-read, and must recover exactly the
//! longest valid prefix when the damage is a torn tail.

use beehive_raft::prop::{for_all, Gen};
use beehive_wire::record::{encode_record, record_checksum, scan_records, RECORD_HEADER_LEN};

/// Cases per property.
const CASES: u64 = 256;

fn journal(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        encode_record(p, &mut out);
    }
    out
}

/// Byte length of the first `n` framed records.
fn prefix_len(payloads: &[Vec<u8>], n: usize) -> usize {
    payloads[..n]
        .iter()
        .map(|p| RECORD_HEADER_LEN + p.len())
        .sum()
}

/// `least..8` payloads of up to 47 bytes each.
fn payloads(g: &mut Gen, least: usize) -> Vec<Vec<u8>> {
    g.vec(least..8, |g| g.vec(0..48, |g| g.range(..)))
}

/// Encoding then scanning recovers every payload with no torn tail.
#[test]
fn roundtrip() {
    for_all(
        CASES,
        |g| payloads(g, 0),
        |payloads| {
            let buf = journal(&payloads);
            let scan = scan_records(&buf).unwrap();
            assert_eq!(&scan.payloads, &payloads);
            assert!(scan.torn.is_none());
            assert_eq!(scan.valid_len(), buf.len());
        },
    );
}

/// Truncating a valid journal at ANY byte recovers exactly the records
/// that fit wholly within the cut (the longest valid prefix), reports a
/// torn tail iff the cut landed mid-record, and never errors: a
/// truncated valid journal has no interior corruption.
#[test]
fn truncation_recovers_longest_valid_prefix() {
    for_all(
        CASES,
        |g| {
            let payloads = payloads(g, 0);
            let cut = g.range(0..=prefix_len(&payloads, payloads.len()));
            (payloads, cut)
        },
        |(payloads, cut)| {
            let buf = journal(&payloads);
            let scan = scan_records(&buf[..cut]).unwrap();
            let whole = (0..=payloads.len())
                .rev()
                .find(|&n| prefix_len(&payloads, n) <= cut)
                .unwrap();
            assert_eq!(&scan.payloads[..], &payloads[..whole]);
            let at_boundary = prefix_len(&payloads, whole) == cut;
            assert_eq!(scan.torn.is_none(), at_boundary);
            if let Some(torn) = scan.torn {
                assert_eq!(torn.valid_len, prefix_len(&payloads, whole));
            }
        },
    );
}

/// Flipping one bit anywhere in a valid journal never panics, and every
/// successful scan still yields an unmodified prefix of the original
/// payloads — damage is either truncated (tail) or rejected (interior),
/// never silently decoded into different data.
#[test]
fn single_bit_flip_never_panics_or_diverges() {
    for_all(
        CASES,
        |g| {
            // At least one record, so there is a byte to damage.
            let payloads = payloads(g, 1);
            let pos = g.range(0..prefix_len(&payloads, payloads.len()));
            (payloads, pos, g.range(0u8..8))
        },
        |(payloads, pos, bit)| {
            let mut buf = journal(&payloads);
            buf[pos] ^= 1 << bit;
            if let Ok(scan) = scan_records(&buf) {
                assert!(scan.payloads.len() <= payloads.len());
                for (got, want) in scan.payloads.iter().zip(payloads.iter()) {
                    // The record checksum is not cryptographic, but a single-bit
                    // flip always changes it, so a surviving record is untouched.
                    assert_eq!(got, want);
                }
                assert!(scan.valid_len() <= buf.len());
            }
        },
    );
}

/// Arbitrary garbage: the scan terminates without panicking and never
/// claims more valid bytes than exist.
#[test]
fn arbitrary_bytes_never_panic() {
    for_all(
        CASES,
        |g| g.vec(0..256, |g| g.range::<u8>(..)),
        |bytes| {
            if let Ok(scan) = scan_records(&bytes) {
                assert!(scan.valid_len() <= bytes.len());
            }
        },
    );
}

/// The record checksum changes under any single-bit flip of the summed
/// bytes (the property the bit-flip test above leans on), whether the flip
/// lands in a whole word or in the zero-padded tail.
#[test]
fn record_checksum_detects_single_bit_flips() {
    for_all(
        CASES,
        |g| {
            let bytes: Vec<u8> = g.vec(1..200, |g| g.range(..));
            let pos = g.range(0..bytes.len());
            (bytes, pos, g.range(0u8..8))
        },
        |(bytes, pos, bit)| {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 1 << bit;
            assert_ne!(record_checksum(&bytes), record_checksum(&flipped));
        },
    );
}
