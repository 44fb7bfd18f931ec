//! Serializer: serde data model → Beehive wire bytes.

use serde::ser::{self, Serialize};

use crate::error::{Error, Result};
use crate::varint::varint_bytes;

/// Serializes `value` into a freshly allocated `Vec<u8>`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut ser = Serializer::new();
    value.serialize(&mut ser)?;
    Ok(ser.into_inner())
}

/// Serializes `value` into any `std::io::Write`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(
    writer: &mut W,
    value: &T,
) -> Result<()> {
    let buf = to_vec(value)?;
    writer.write_all(&buf)?;
    Ok(())
}

/// Where a [`Serializer`] puts its output. One `put` per primitive the
/// format writes (an integer, a length prefix, a whole string or byte
/// payload), so a sink can also count bytes ([`crate::encoded_len`]) or
/// calls (the tests that pin bulk payloads to O(1) visits).
pub trait Sink {
    /// Appends `bytes` to the output.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A borrowed sink: serialize onto the end of a buffer the caller keeps.
impl<S: Sink + ?Sized> Sink for &mut S {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        (**self).put(bytes);
    }
}

/// The wire-format serializer, writing into a [`Sink`] (a `Vec<u8>` unless
/// built by [`Serializer::with_sink`]).
pub struct Serializer<W = Vec<u8>> {
    out: W,
}

impl Serializer {
    /// Creates a serializer with an empty output buffer.
    pub fn new() -> Self {
        Serializer { out: Vec::new() }
    }

    /// Creates a serializer with a pre-allocated buffer of `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Serializer {
            out: Vec::with_capacity(cap),
        }
    }
}

impl<W: Sink> Serializer<W> {
    /// Creates a serializer writing into `sink`.
    pub fn with_sink(sink: W) -> Self {
        Serializer { out: sink }
    }

    /// Consumes the serializer, returning its sink (the encoded bytes, for
    /// a `Vec<u8>`).
    pub fn into_inner(self) -> W {
        self.out
    }

    fn put_varint(&mut self, v: u64) {
        let (buf, used) = varint_bytes(v);
        self.out.put(&buf[..used]);
    }
}

impl Default for Serializer {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! ser_int {
    ($name:ident, $ty:ty) => {
        fn $name(self, v: $ty) -> Result<()> {
            self.out.put(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl<'a, W: Sink> ser::Serializer for &'a mut Serializer<W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a, W>;
    type SerializeTuple = Compound<'a, W>;
    type SerializeTupleStruct = Compound<'a, W>;
    type SerializeTupleVariant = Compound<'a, W>;
    type SerializeMap = Compound<'a, W>;
    type SerializeStruct = Compound<'a, W>;
    type SerializeStructVariant = Compound<'a, W>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.put(&[v as u8]);
        Ok(())
    }

    ser_int!(serialize_i8, i8);
    ser_int!(serialize_i16, i16);
    ser_int!(serialize_i32, i32);
    ser_int!(serialize_i64, i64);
    ser_int!(serialize_i128, i128);
    ser_int!(serialize_u8, u8);
    ser_int!(serialize_u16, u16);
    ser_int!(serialize_u32, u32);
    ser_int!(serialize_u64, u64);
    ser_int!(serialize_u128, u128);
    ser_int!(serialize_f32, f32);
    ser_int!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.serialize_bytes(v.as_bytes())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.put_varint(v.len() as u64);
        self.out.put(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.out.put(&[0]);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.put(&[1]);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.put_varint(variant_index as u64);
        Ok(())
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        self.put_varint(variant_index as u64);
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Compound<'a, W>> {
        let len = len.ok_or_else(|| {
            Error::Custom("beehive-wire requires sequence lengths up front".into())
        })?;
        self.put_varint(len as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a, W>> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a, W>> {
        Ok(Compound { ser: self })
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, W>> {
        self.put_varint(variant_index as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Compound<'a, W>> {
        let len =
            len.ok_or_else(|| Error::Custom("beehive-wire requires map lengths up front".into()))?;
        self.put_varint(len as u64);
        Ok(Compound { ser: self })
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Compound<'a, W>> {
        Ok(Compound { ser: self })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, W>> {
        self.put_varint(variant_index as u64);
        Ok(Compound { ser: self })
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Serializer state for compound types (seqs, tuples, maps, structs).
pub struct Compound<'a, W> {
    ser: &'a mut Serializer<W>,
}

impl<W: Sink> ser::SerializeSeq for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeTuple for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeTupleStruct for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeTupleVariant for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeMap for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        key.serialize(&mut *self.ser)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeStruct for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> ser::SerializeStructVariant for Compound<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}
