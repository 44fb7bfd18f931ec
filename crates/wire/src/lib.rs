#![warn(missing_docs)]

//! `beehive-wire` — the compact binary serialization format used throughout
//! Beehive for inter-hive framing, cell snapshots, and Raft log persistence.
//!
//! The format is schema-less and non-self-describing (like bincode): the
//! reader must know the type it is decoding. Encoding rules:
//!
//! * fixed-width integers and floats are little-endian;
//! * `usize` lengths (sequences, maps, strings, bytes) are LEB128 varints;
//! * enum variants are encoded by their `u32` variant index as a varint;
//! * `Option` is a one-byte tag (0 = `None`, 1 = `Some`) followed by the value;
//! * structs and tuples are field concatenations with no framing;
//! * opaque byte payloads are a varint length and the raw bytes, written and
//!   read in one copy through [`Bytes`] / [`ByteBuf`] — the same bytes a
//!   sequence of `u8` would produce, without one serde call per byte.
//!
//! The format guarantees round-tripping for every type in the serde data
//! model except `deserialize_any` (unsupported by design, as in bincode).
//!
//! # Example
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct FlowStat { switch: u64, packets: u64, bytes: u64 }
//!
//! let stat = FlowStat { switch: 7, packets: 1000, bytes: 64_000 };
//! let buf = beehive_wire::to_vec(&stat).unwrap();
//! let back: FlowStat = beehive_wire::from_slice(&buf).unwrap();
//! assert_eq!(stat, back);
//! ```

mod bulk;
mod de;
mod error;
pub mod record;
mod ser;
mod varint;

pub use bulk::{ByteBuf, Bytes};
pub use de::{from_slice, Deserializer};
pub use error::{Error, Result};
pub use ser::{to_vec, to_writer, Serializer, Sink};
pub use varint::{decode_varint, encode_varint, varint_len};

/// The byte length `to_vec(value)` would have. Used for bandwidth accounting
/// of messages that are delivered locally. Walks the value like a
/// serialization pass but only adds up sizes: nothing is allocated or
/// copied, and a bulk byte payload costs one addition whatever its length.
pub fn encoded_len<T: serde::Serialize + ?Sized>(value: &T) -> Result<usize> {
    struct ByteCount(usize);
    impl Sink for ByteCount {
        #[inline]
        fn put(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
    }
    let mut ser = Serializer::with_sink(ByteCount(0));
    value.serialize(&mut ser)?;
    Ok(ser.into_inner().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let buf = to_vec(v).expect("serialize");
        from_slice(&buf).expect("deserialize")
    }

    #[test]
    fn primitives_roundtrip() {
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&42u8), 42u8);
        assert_eq!(roundtrip(&-7i8), -7i8);
        assert_eq!(roundtrip(&0xBEEFu16), 0xBEEFu16);
        assert_eq!(roundtrip(&-30_000i16), -30_000i16);
        assert_eq!(roundtrip(&0xDEAD_BEEFu32), 0xDEAD_BEEFu32);
        assert_eq!(roundtrip(&i32::MIN), i32::MIN);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&i64::MIN), i64::MIN);
        assert_eq!(roundtrip(&u128::MAX), u128::MAX);
        assert_eq!(roundtrip(&i128::MIN), i128::MIN);
        assert_eq!(roundtrip(&3.25f32), 3.25f32);
        assert_eq!(roundtrip(&-1234.5e300f64), -1234.5e300f64);
        assert_eq!(roundtrip(&'🐝'), '🐝');
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        assert_eq!(roundtrip(&String::new()), String::new());
        assert_eq!(roundtrip(&"beehive".to_string()), "beehive");
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(roundtrip(&bytes), bytes);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(roundtrip(&Some(5u32)), Some(5u32));
        assert_eq!(roundtrip(&None::<u32>), None);
        assert_eq!(
            roundtrip(&Some(Some("x".to_string()))),
            Some(Some("x".to_string()))
        );
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u64, 2, 3, u64::MAX];
        assert_eq!(roundtrip(&v), v);
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), vec![1u8, 2]);
        m.insert("bb".to_string(), vec![]);
        assert_eq!(roundtrip(&m), m);
        let t = (1u8, "two".to_string(), 3.0f64);
        assert_eq!(roundtrip(&t), t);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
    enum TestEnum {
        Unit,
        NewType(u32),
        Tuple(u8, String),
        Struct { x: i64, y: Option<bool> },
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        name: String,
        items: Vec<TestEnum>,
        inner: Option<Box<Nested>>,
    }

    #[test]
    fn enums_roundtrip() {
        for e in [
            TestEnum::Unit,
            TestEnum::NewType(9),
            TestEnum::Tuple(1, "t".into()),
            TestEnum::Struct {
                x: -5,
                y: Some(true),
            },
            TestEnum::Struct { x: 0, y: None },
        ] {
            assert_eq!(roundtrip(&e), e);
        }
    }

    #[test]
    fn nested_struct_roundtrip() {
        let n = Nested {
            name: "root".into(),
            items: vec![TestEnum::Unit, TestEnum::NewType(1)],
            inner: Some(Box::new(Nested {
                name: "child".into(),
                items: vec![],
                inner: None,
            })),
        };
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn unit_types_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct UnitS;
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct NewT(u16);
        assert_eq!(roundtrip(&()), ());
        assert_eq!(roundtrip(&UnitS), UnitS);
        assert_eq!(roundtrip(&NewT(77)), NewT(77));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = to_vec(&5u32).unwrap();
        buf.push(0);
        let err = from_slice::<u32>(&buf).unwrap_err();
        assert!(matches!(err, Error::TrailingBytes(_)));
    }

    #[test]
    fn truncated_input_rejected() {
        let buf = to_vec(&"hello".to_string()).unwrap();
        let err = from_slice::<String>(&buf[..buf.len() - 1]).unwrap_err();
        assert!(matches!(err, Error::Eof));
    }

    #[test]
    fn invalid_bool_rejected() {
        let err = from_slice::<bool>(&[2]).unwrap_err();
        assert!(matches!(err, Error::InvalidBool(2)));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // length 2, bytes [0xFF, 0xFF]
        let err = from_slice::<String>(&[2, 0xFF, 0xFF]).unwrap_err();
        assert!(matches!(err, Error::InvalidUtf8));
    }

    #[test]
    fn invalid_option_tag_rejected() {
        let err = from_slice::<Option<u8>>(&[9, 1]).unwrap_err();
        assert!(matches!(err, Error::InvalidOptionTag(9)));
    }

    #[test]
    fn encoded_len_matches_to_vec() {
        let n = Nested {
            name: "abc".into(),
            items: vec![TestEnum::Tuple(3, "xyz".into())],
            inner: None,
        };
        assert_eq!(encoded_len(&n).unwrap(), to_vec(&n).unwrap().len());
    }

    #[test]
    fn bulk_bytes_are_the_bytes_of_a_u8_sequence() {
        for n in [0usize, 1, 127, 128, 16_383, 16_384] {
            let v: Vec<u8> = (0..n).map(|i| i as u8).collect();
            let bulk = to_vec(&Bytes(&v)).unwrap();
            assert_eq!(bulk, to_vec(&v).unwrap(), "length {n}");
            assert_eq!(from_slice::<ByteBuf>(&bulk).unwrap().into_vec(), v);
            assert_eq!(from_slice::<Vec<u8>>(&bulk).unwrap(), v);
            assert_eq!(encoded_len(&Bytes(&v)).unwrap(), bulk.len());
        }
    }

    #[test]
    fn bulk_bytes_reject_bad_lengths() {
        let buf = to_vec(&Bytes(&[9; 200])).unwrap();
        for cut in 0..buf.len() {
            let err = from_slice::<ByteBuf>(&buf[..cut]).unwrap_err();
            assert!(matches!(err, Error::Eof), "cut at {cut}: {err}");
        }
        let mut huge = Vec::new();
        encode_varint(u64::MAX, &mut huge);
        let err = from_slice::<ByteBuf>(&huge).unwrap_err();
        assert!(matches!(err, Error::Eof | Error::LengthOverflow(_)));
    }

    #[test]
    fn length_prefix_is_varint() {
        // a 300-byte string: prefix must be 2 varint bytes (300 = 0xAC 0x02)
        let s = "x".repeat(300);
        let buf = to_vec(&s).unwrap();
        assert_eq!(buf.len(), 302);
        assert_eq!(&buf[..2], &[0xAC, 0x02]);
    }

    #[test]
    fn oversized_length_rejected() {
        // claims a u64::MAX-length string
        let mut buf = Vec::new();
        encode_varint(u64::MAX, &mut buf);
        let err = from_slice::<String>(&buf).unwrap_err();
        assert!(matches!(err, Error::Eof | Error::LengthOverflow(_)));
    }

    #[test]
    fn char_rejects_invalid_scalar() {
        // 0xD800 is a surrogate, not a valid char
        let buf = to_vec(&0xD800u32).unwrap();
        let err = from_slice::<char>(&buf).unwrap_err();
        assert!(matches!(err, Error::InvalidChar(0xD800)));
    }

    #[test]
    fn map_of_struct_values() {
        #[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
        struct V {
            a: u8,
            b: Vec<String>,
        }
        let mut m = BTreeMap::new();
        m.insert(
            1u64,
            V {
                a: 1,
                b: vec!["p".into()],
            },
        );
        m.insert(2u64, V { a: 2, b: vec![] });
        assert_eq!(roundtrip(&m), m);
    }
}
