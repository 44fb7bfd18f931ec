//! Deserialization half of the data model.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

/// What a visitor was handed when it wanted something else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Unexpected<'a> {
    Bool(bool),
    Unsigned(u64),
    Signed(i64),
    Float(f64),
    Char(char),
    Str(&'a str),
    Bytes(&'a [u8]),
    Unit,
    Option,
    NewtypeStruct,
    Seq,
    Map,
    Enum,
    Other(&'a str),
}

impl Display for Unexpected<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unexpected::Bool(b) => write!(f, "boolean `{b}`"),
            Unexpected::Unsigned(v) => write!(f, "integer `{v}`"),
            Unexpected::Signed(v) => write!(f, "integer `{v}`"),
            Unexpected::Float(v) => write!(f, "floating point `{v}`"),
            Unexpected::Char(c) => write!(f, "character `{c}`"),
            Unexpected::Str(s) => write!(f, "string {s:?}"),
            Unexpected::Bytes(_) => f.write_str("byte array"),
            Unexpected::Unit => f.write_str("unit value"),
            Unexpected::Option => f.write_str("Option value"),
            Unexpected::NewtypeStruct => f.write_str("newtype struct"),
            Unexpected::Seq => f.write_str("sequence"),
            Unexpected::Map => f.write_str("map"),
            Unexpected::Enum => f.write_str("enum"),
            Unexpected::Other(s) => f.write_str(s),
        }
    }
}

/// What a visitor wanted; every `Visitor` is one through `expecting`.
pub trait Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, T: Visitor<'de>> Expected for T {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(f)
    }
}

impl Expected for &str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, f)
    }
}

pub trait Error: Sized + std::error::Error {
    fn custom<T: Display>(msg: T) -> Self;

    fn invalid_type(unexp: Unexpected<'_>, exp: &dyn Expected) -> Self {
        Self::custom(format_args!("invalid type: {unexp}, expected {exp}"))
    }
    fn invalid_value(unexp: Unexpected<'_>, exp: &dyn Expected) -> Self {
        Self::custom(format_args!("invalid value: {unexp}, expected {exp}"))
    }
    fn invalid_length(len: usize, exp: &dyn Expected) -> Self {
        Self::custom(format_args!("invalid length {len}, expected {exp}"))
    }
    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }
    fn unknown_field(field: &str, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "unknown field `{field}`, expected one of {expected:?}"
        ))
    }
    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }
    fn duplicate_field(field: &'static str) -> Self {
        Self::custom(format_args!("duplicate field `{field}`"))
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

pub trait DeserializeSeed<'de>: Sized {
    type Value;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    #[inline]
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

pub trait Deserializer<'de>: Sized {
    type Error: Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("i128 is not supported"))
    }
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        let _ = visitor;
        Err(Error::custom("u128 is not supported"))
    }
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_forward {
    ($($name:ident($ty:ty) => $to:ident as $wide:ty;)*) => {$(
        #[inline]
        fn $name<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            self.$to(v as $wide)
        }
    )*};
}

macro_rules! visit_reject {
    ($($name:ident($ty:ty) => $unexp:expr;)*) => {$(
        fn $name<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            #[allow(clippy::redundant_closure_call)]
            Err(Error::invalid_type(($unexp)(v), &self))
        }
    )*};
}

pub trait Visitor<'de>: Sized {
    type Value;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_forward! {
        visit_i8(i8) => visit_i64 as i64;
        visit_i16(i16) => visit_i64 as i64;
        visit_i32(i32) => visit_i64 as i64;
        visit_u8(u8) => visit_u64 as u64;
        visit_u16(u16) => visit_u64 as u64;
        visit_u32(u32) => visit_u64 as u64;
        visit_f32(f32) => visit_f64 as f64;
    }

    visit_reject! {
        visit_bool(bool) => Unexpected::Bool;
        visit_i64(i64) => Unexpected::Signed;
        visit_u64(u64) => Unexpected::Unsigned;
        visit_f64(f64) => Unexpected::Float;
        visit_str(&str) => Unexpected::Str;
        visit_bytes(&[u8]) => Unexpected::Bytes;
        visit_i128(i128) => |_| Unexpected::Other("i128");
        visit_u128(u128) => |_| Unexpected::Other("u128");
    }

    #[inline]
    fn visit_char<E: Error>(self, v: char) -> Result<Self::Value, E> {
        self.visit_str(v.encode_utf8(&mut [0u8; 4]))
    }
    #[inline]
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }
    #[inline]
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    #[inline]
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    #[inline]
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Option, &self))
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::Option, &self))
    }
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::invalid_type(Unexpected::Unit, &self))
    }
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type(Unexpected::NewtypeStruct, &self))
    }
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type(Unexpected::Seq, &self))
    }
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type(Unexpected::Map, &self))
    }
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::invalid_type(Unexpected::Enum, &self))
    }
}

pub trait SeqAccess<'de> {
    type Error: Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    #[inline]
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }
    #[inline]
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

impl<'de, A: SeqAccess<'de> + ?Sized> SeqAccess<'de> for &mut A {
    type Error = A::Error;
    #[inline]
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error> {
        (**self).next_element_seed(seed)
    }
    #[inline]
    fn size_hint(&self) -> Option<usize> {
        (**self).size_hint()
    }
}

pub trait MapAccess<'de> {
    type Error: Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    #[inline]
    fn next_entry_seed<K: DeserializeSeed<'de>, V: DeserializeSeed<'de>>(
        &mut self,
        kseed: K,
        vseed: V,
    ) -> Result<Option<(K::Value, V::Value)>, Self::Error> {
        match self.next_key_seed(kseed)? {
            Some(key) => Ok(Some((key, self.next_value_seed(vseed)?))),
            None => Ok(None),
        }
    }
    #[inline]
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }
    #[inline]
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }
    #[inline]
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        self.next_entry_seed(PhantomData, PhantomData)
    }
    #[inline]
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

pub trait EnumAccess<'de>: Sized {
    type Error: Error;
    type Variant: VariantAccess<'de, Error = Self::Error>;

    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    #[inline]
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

pub trait VariantAccess<'de>: Sized {
    type Error: Error;

    fn unit_variant(self) -> Result<(), Self::Error>;
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;
    #[inline]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

pub mod value {
    //! Deserializers that hold one already-decoded value.

    use super::{Deserializer, Visitor};
    use std::marker::PhantomData;

    macro_rules! forward_all {
        ($visit:ident; $($method:ident)*) => {$(
            #[inline]
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
                visitor.$visit(self.value)
            }
        )*};
    }

    macro_rules! primitive_deserializer {
        ($name:ident, $ty:ty, $visit:ident) => {
            /// Hands its value to whichever `visit_*` matches its type,
            /// whatever the caller asked for.
            #[derive(Debug, Clone, Copy)]
            pub struct $name<E> {
                value: $ty,
                marker: PhantomData<E>,
            }

            impl<E> $name<E> {
                pub fn new(value: $ty) -> Self {
                    $name {
                        value,
                        marker: PhantomData,
                    }
                }
            }

            impl<'de, E: super::Error> Deserializer<'de> for $name<E> {
                type Error = E;

                forward_all! { $visit;
                    deserialize_any deserialize_bool deserialize_i8 deserialize_i16
                    deserialize_i32 deserialize_i64 deserialize_i128 deserialize_u8
                    deserialize_u16 deserialize_u32 deserialize_u64 deserialize_u128
                    deserialize_f32 deserialize_f64 deserialize_char deserialize_str
                    deserialize_string deserialize_bytes deserialize_byte_buf
                    deserialize_option deserialize_unit deserialize_seq deserialize_map
                    deserialize_identifier deserialize_ignored_any
                }

                fn deserialize_unit_struct<V: Visitor<'de>>(
                    self,
                    _name: &'static str,
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
                fn deserialize_newtype_struct<V: Visitor<'de>>(
                    self,
                    _name: &'static str,
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
                fn deserialize_tuple<V: Visitor<'de>>(
                    self,
                    _len: usize,
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
                fn deserialize_tuple_struct<V: Visitor<'de>>(
                    self,
                    _name: &'static str,
                    _len: usize,
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
                fn deserialize_struct<V: Visitor<'de>>(
                    self,
                    _name: &'static str,
                    _fields: &'static [&'static str],
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
                fn deserialize_enum<V: Visitor<'de>>(
                    self,
                    _name: &'static str,
                    _variants: &'static [&'static str],
                    visitor: V,
                ) -> Result<V::Value, E> {
                    visitor.$visit(self.value)
                }
            }
        };
    }

    primitive_deserializer!(U32Deserializer, u32, visit_u32);
}

// ---- impls for std types -------------------------------------------------

/// Capacity to reserve from an untrusted length: at most about a megabyte,
/// so a forged length cannot make the reader allocate before it runs out of
/// input.
fn cautious<T>(hint: Option<usize>) -> usize {
    const MAX_PREALLOC_BYTES: usize = 1024 * 1024;
    let per = std::mem::size_of::<T>().max(1);
    hint.unwrap_or(0).min(MAX_PREALLOC_BYTES / per)
}

macro_rules! int_visit {
    ($ty:ty; $($method:ident($from:ty) $unexp:ident as $wide:ty;)*) => {$(
        #[inline]
        fn $method<E: Error>(self, v: $from) -> Result<$ty, E> {
            <$ty>::try_from(v)
                .map_err(|_| Error::invalid_value(Unexpected::$unexp(v as $wide), &self))
        }
    )*};
}

macro_rules! int_impl {
    ($($ty:ty => $method:ident),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    int_visit! { $ty;
                        visit_i8(i8) Signed as i64;
                        visit_i16(i16) Signed as i64;
                        visit_i32(i32) Signed as i64;
                        visit_i64(i64) Signed as i64;
                        visit_u8(u8) Unsigned as u64;
                        visit_u16(u16) Unsigned as u64;
                        visit_u32(u32) Unsigned as u64;
                        visit_u64(u64) Unsigned as u64;
                    }
                    #[inline]
                    fn visit_i128<E: Error>(self, v: i128) -> Result<$ty, E> {
                        <$ty>::try_from(v)
                            .map_err(|_| Error::invalid_value(Unexpected::Other("i128"), &self))
                    }
                    #[inline]
                    fn visit_u128<E: Error>(self, v: u128) -> Result<$ty, E> {
                        <$ty>::try_from(v)
                            .map_err(|_| Error::invalid_value(Unexpected::Other("u128"), &self))
                    }
                }
                d.$method(V)
            }
        }
    )*};
}

int_impl!(i8 => deserialize_i8, i16 => deserialize_i16, i32 => deserialize_i32,
          i64 => deserialize_i64, i128 => deserialize_i128, isize => deserialize_i64,
          u8 => deserialize_u8, u16 => deserialize_u16, u32 => deserialize_u32,
          u64 => deserialize_u64, u128 => deserialize_u128, usize => deserialize_u64);

macro_rules! float_impl {
    ($($ty:ty => $method:ident),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V;
                impl<'de> Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    #[inline]
                    fn visit_f32<E: Error>(self, v: f32) -> Result<$ty, E> { Ok(v as $ty) }
                    #[inline]
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$ty, E> { Ok(v as $ty) }
                    #[inline]
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> { Ok(v as $ty) }
                    #[inline]
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> { Ok(v as $ty) }
                }
                d.$method(V)
            }
        }
    )*};
}

float_impl!(f32 => deserialize_f32, f64 => deserialize_f64);

impl<'de> Deserialize<'de> for bool {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = bool;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            #[inline]
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }
        d.deserialize_bool(V)
    }
}

impl<'de> Deserialize<'de> for char {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = char;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a character")
            }
            #[inline]
            fn visit_char<E: Error>(self, v: char) -> Result<char, E> {
                Ok(v)
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<char, E> {
                let mut it = v.chars();
                match (it.next(), it.next()) {
                    (Some(c), None) => Ok(c),
                    _ => Err(Error::invalid_value(Unexpected::Str(v), &self)),
                }
            }
        }
        d.deserialize_char(V)
    }
}

impl<'de> Deserialize<'de> for String {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            #[inline]
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            #[inline]
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
            fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<String, E> {
                std::str::from_utf8(v)
                    .map(str::to_owned)
                    .map_err(|_| Error::invalid_value(Unexpected::Bytes(v), &self))
            }
        }
        d.deserialize_string(V)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = &'de str;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed string")
            }
            #[inline]
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<&'de str, E> {
                Ok(v)
            }
        }
        d.deserialize_str(V)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a [u8] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = &'de [u8];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a borrowed byte array")
            }
            #[inline]
            fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<&'de [u8], E> {
                Ok(v)
            }
            #[inline]
            fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<&'de [u8], E> {
                Ok(v.as_bytes())
            }
        }
        d.deserialize_bytes(V)
    }
}

impl<'de> Deserialize<'de> for () {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        d.deserialize_unit(V)
    }
}

impl<'de, T: ?Sized> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T: ?Sized>(PhantomData<T>);
        impl<'de, T: ?Sized> Visitor<'de> for V<T> {
            type Value = PhantomData<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<PhantomData<T>, E> {
                Ok(PhantomData)
            }
        }
        d.deserialize_unit_struct("PhantomData", V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    #[inline]
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for V<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            #[inline]
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            #[inline]
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        d.deserialize_option(V(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>, F: Deserialize<'de>> Deserialize<'de> for Result<T, F> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T, F>(PhantomData<(T, F)>);
        impl<'de, T: Deserialize<'de>, F: Deserialize<'de>> Visitor<'de> for V<T, F> {
            type Value = Result<T, F>;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("enum Result")
            }
            fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
                match data.variant::<u32>()? {
                    (0, v) => v.newtype_variant().map(Ok),
                    (1, v) => v.newtype_variant().map(Err),
                    (n, _) => Err(Error::invalid_value(
                        Unexpected::Unsigned(n as u64),
                        &"variant index 0 <= i < 2",
                    )),
                }
            }
        }
        d.deserialize_enum("Result", &["Ok", "Err"], V(PhantomData))
    }
}

macro_rules! box_impl {
    ($($ty:ident)::+) => {
        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $($ty)::+<T> {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                T::deserialize(d).map($($ty)::+::new)
            }
        }
    };
}

box_impl!(Box);
box_impl!(std::sync::Arc);
box_impl!(std::rc::Rc);

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<[T]> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(d).map(Vec::into_boxed_slice)
    }
}

impl<'de> Deserialize<'de> for Box<str> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        String::deserialize(d).map(String::into_boxed_str)
    }
}

impl<'de, 'a, T: ToOwned + ?Sized> Deserialize<'de> for std::borrow::Cow<'a, T>
where
    T::Owned: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        T::Owned::deserialize(d).map(std::borrow::Cow::Owned)
    }
}

macro_rules! seq_impl {
    ($ty:ident <T $(: $b1:ident $(+ $b2:ident)*)? $(, $h:ident : $hb1:ident $(+ $hb2:ident)*)?>,
     $access:ident, $new:expr, $push:ident) => {
        impl<'de, T $(, $h)?> Deserialize<'de> for $ty<T $(, $h)?>
        where
            T: Deserialize<'de> $(+ $b1 $(+ $b2)*)?,
            $($h: $hb1 $(+ $hb2)*,)?
        {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V<T $(, $h)?>(PhantomData<T> $(, PhantomData<$h>)?);
                impl<'de, T $(, $h)?> Visitor<'de> for V<T $(, $h)?>
                where
                    T: Deserialize<'de> $(+ $b1 $(+ $b2)*)?,
                    $($h: $hb1 $(+ $hb2)*,)?
                {
                    type Value = $ty<T $(, $h)?>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a sequence")
                    }
                    #[inline]
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut $access: A,
                    ) -> Result<Self::Value, A::Error> {
                        let mut out = $new;
                        while let Some(item) = $access.next_element()? {
                            out.$push(item);
                        }
                        Ok(out)
                    }
                }
                d.deserialize_seq(V(PhantomData $(, PhantomData::<$h>)?))
            }
        }
    };
}

seq_impl!(
    Vec<T>,
    seq,
    Vec::with_capacity(cautious::<T>(seq.size_hint())),
    push
);
seq_impl!(
    VecDeque<T>,
    seq,
    VecDeque::with_capacity(cautious::<T>(seq.size_hint())),
    push_back
);
seq_impl!(BTreeSet<T: Ord>, seq, BTreeSet::new(), insert);
seq_impl!(HashSet<T: Eq + Hash, H: BuildHasher + Default>, seq,
          HashSet::with_capacity_and_hasher(cautious::<T>(seq.size_hint()), H::default()), insert);

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V<T, const N: usize>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>, const N: usize> Visitor<'de> for V<T, N> {
            type Value = [T; N];
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "an array of length {N}")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<[T; N], A::Error> {
                let mut items = Vec::with_capacity(N);
                for i in 0..N {
                    match seq.next_element()? {
                        Some(v) => items.push(v),
                        None => return Err(Error::invalid_length(i, &self)),
                    }
                }
                items
                    .try_into()
                    .map_err(|_| Error::custom("array length changed while reading"))
            }
        }
        d.deserialize_tuple(N, V::<T, N>(PhantomData))
    }
}

macro_rules! map_impl {
    ($ty:ident <K: $kb1:ident $(+ $kb2:ident)*, V $(, $h:ident : $hb1:ident $(+ $hb2:ident)*)?>,
     $access:ident, $new:expr) => {
        impl<'de, K, V $(, $h)?> Deserialize<'de> for $ty<K, V $(, $h)?>
        where
            K: Deserialize<'de> + $kb1 $(+ $kb2)*,
            V: Deserialize<'de>,
            $($h: $hb1 $(+ $hb2)*,)?
        {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct Vis<K, V $(, $h)?>(PhantomData<(K, V $(, $h)?)>);
                impl<'de, K, V $(, $h)?> Visitor<'de> for Vis<K, V $(, $h)?>
                where
                    K: Deserialize<'de> + $kb1 $(+ $kb2)*,
                    V: Deserialize<'de>,
                    $($h: $hb1 $(+ $hb2)*,)?
                {
                    type Value = $ty<K, V $(, $h)?>;
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str("a map")
                    }
                    #[inline]
                    fn visit_map<A: MapAccess<'de>>(
                        self,
                        mut $access: A,
                    ) -> Result<Self::Value, A::Error> {
                        let mut out = $new;
                        while let Some((k, v)) = $access.next_entry()? {
                            out.insert(k, v);
                        }
                        Ok(out)
                    }
                }
                d.deserialize_map(Vis(PhantomData))
            }
        }
    };
}

map_impl!(BTreeMap<K: Ord, V>, map, BTreeMap::new());
map_impl!(HashMap<K: Eq + Hash, V, H: BuildHasher + Default>, map,
          HashMap::with_capacity_and_hasher(cautious::<(K, V)>(map.size_hint()), H::default()));

macro_rules! tuple_impls {
    ($($len:expr => ($($n:tt $name:ident)+))+) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            #[inline]
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                struct V<$($name,)+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for V<$($name,)+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of size {}", $len)
                    }
                    #[inline]
                    #[allow(non_snake_case)]
                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        $(
                            let $name = match seq.next_element()? {
                                Some(v) => v,
                                None => return Err(Error::invalid_length($n, &self)),
                            };
                        )+
                        Ok(($($name,)+))
                    }
                }
                d.deserialize_tuple($len, V(PhantomData))
            }
        }
    )+};
}

tuple_impls! {
    1 => (0 T0)
    2 => (0 T0 1 T1)
    3 => (0 T0 1 T1 2 T2)
    4 => (0 T0 1 T1 2 T2 3 T3)
    5 => (0 T0 1 T1 2 T2 3 T3 4 T4)
    6 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5)
    7 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5 6 T6)
    8 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5 6 T6 7 T7)
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl<'de> Visitor<'de> for V {
            type Value = std::time::Duration;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Duration")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let secs: u64 = seq
                    .next_element()?
                    .ok_or_else(|| Error::invalid_length(0, &self))?;
                let nanos: u32 = seq
                    .next_element()?
                    .ok_or_else(|| Error::invalid_length(1, &self))?;
                if nanos >= 1_000_000_000 {
                    return Err(Error::custom("Duration nanos out of range"));
                }
                Ok(std::time::Duration::new(secs, nanos))
            }
        }
        d.deserialize_struct("Duration", &["secs", "nanos"], V)
    }
}
