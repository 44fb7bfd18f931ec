//! LEB128 variable-length integer encoding for lengths and variant indices.

use crate::error::{Error, Result};

/// `value` as an LEB128 varint: the buffer and how many of its bytes are used.
pub(crate) fn varint_bytes(mut value: u64) -> ([u8; 10], usize) {
    let mut buf = [0u8; 10];
    let mut used = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf[used] = byte;
            return (buf, used + 1);
        }
        buf[used] = byte | 0x80;
        used += 1;
    }
}

/// Appends `value` to `out` as an LEB128 varint (1–10 bytes).
pub fn encode_varint(value: u64, out: &mut Vec<u8>) {
    let (buf, used) = varint_bytes(value);
    out.extend_from_slice(&buf[..used]);
}

/// Number of bytes `encode_varint` would emit for `value`.
pub fn varint_len(value: u64) -> usize {
    // 1 byte per 7 significant bits, minimum 1.
    let bits = 64 - value.leading_zeros() as usize;
    std::cmp::max(1, bits.div_ceil(7))
}

/// Decodes an LEB128 varint from the front of `input`, returning the value
/// and the number of bytes consumed.
pub fn decode_varint(input: &[u8]) -> Result<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if i >= 10 {
            return Err(Error::VarintOverflow);
        }
        let low = (byte & 0x7F) as u64;
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(Error::VarintOverflow);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(Error::Eof)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let (back, used) = decode_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn single_byte_values() {
        for v in 0..=127u64 {
            let mut buf = Vec::new();
            encode_varint(v, &mut buf);
            assert_eq!(buf, vec![v as u8]);
        }
    }

    #[test]
    fn empty_input_is_eof() {
        assert!(matches!(decode_varint(&[]), Err(Error::Eof)));
    }

    #[test]
    fn unterminated_is_eof() {
        assert!(matches!(decode_varint(&[0x80, 0x80]), Err(Error::Eof)));
    }

    #[test]
    fn overlong_is_rejected() {
        // 11 continuation bytes
        let buf = [0x80u8; 11];
        assert!(matches!(decode_varint(&buf), Err(Error::VarintOverflow)));
    }

    #[test]
    fn max_u64_is_ten_bytes() {
        let mut buf = Vec::new();
        encode_varint(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn overflow_bits_rejected() {
        // 10th byte with more than 1 significant bit overflows u64
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(matches!(decode_varint(&buf), Err(Error::VarintOverflow)));
    }
}
