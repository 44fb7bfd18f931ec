//! Opaque byte payloads: `varint len + raw bytes`, moved with one copy.
//!
//! serde's blanket impls walk a `Vec<u8>` as a sequence of `u8` — one
//! serializer call per byte. The bytes that yields are identical to
//! `serialize_bytes` in this format (a length varint, then the elements),
//! so every type that reaches a socket or a durable file hands its payload
//! fields to [`Bytes`] / [`ByteBuf`] instead, through [`wire_struct!`] and
//! [`wire_enum!`] (or a hand-written impl). `#[derive]` on such a type would
//! bring the per-byte walk back; `tests/wire_golden.rs` fails if it does.
//!
//! [`wire_struct!`]: crate::wire_struct
//! [`wire_enum!`]: crate::wire_enum

use std::fmt;

use serde::de::{Deserialize, Deserializer, Error, Visitor};
use serde::ser::{Serialize, Serializer};

/// Borrowed opaque bytes, serialized in one `serialize_bytes` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bytes<'a>(pub &'a [u8]);

impl Serialize for Bytes<'_> {
    #[inline]
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(self.0)
    }
}

/// Owned opaque bytes, deserialized with one copy out of the input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ByteBuf(pub Vec<u8>);

impl ByteBuf {
    /// The bytes.
    #[inline]
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

impl<'de> Deserialize<'de> for ByteBuf {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct V;
        impl Visitor<'_> for V {
            type Value = ByteBuf;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a byte payload")
            }
            #[inline]
            fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v.to_vec()))
            }
            #[inline]
            fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<ByteBuf, E> {
                Ok(ByteBuf(v))
            }
        }
        d.deserialize_byte_buf(V)
    }
}

/// Implements `Serialize` and `Deserialize` for a struct with named fields,
/// positionally and with the same serde calls `#[derive]` makes, except
/// that a field marked `: bytes` (a `Vec<u8>`) goes through [`Bytes`] /
/// [`ByteBuf`]. List every field, in declaration order.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// struct Punt { port: u16, data: Vec<u8> }
/// beehive_wire::wire_struct!(Punt { port, data: bytes });
///
/// let p = Punt { port: 3, data: vec![0xAA; 300] };
/// let buf = beehive_wire::to_vec(&p).unwrap();
/// assert_eq!(buf.len(), 2 + 2 + 300);
/// assert_eq!(beehive_wire::from_slice::<Punt>(&buf).unwrap(), p);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(: $kind:ident)?),+ $(,)? }) => {
        impl ::serde::Serialize for $ty {
            fn serialize<S: ::serde::Serializer>(
                &self,
                s: S,
            ) -> ::core::result::Result<S::Ok, S::Error> {
                use ::serde::ser::SerializeStruct as _;
                let mut st =
                    s.serialize_struct(stringify!($ty), <[&str]>::len(&[$(stringify!($field)),+]))?;
                $(st.serialize_field(
                    stringify!($field),
                    $crate::__wire_field!(ser &self.$field $(, $kind)?),
                )?;)+
                st.end()
            }
        }

        impl<'de> ::serde::Deserialize<'de> for $ty {
            fn deserialize<D: ::serde::Deserializer<'de>>(
                d: D,
            ) -> ::core::result::Result<Self, D::Error> {
                $crate::__wire_seq_visitor!(
                    V, $ty, concat!("struct ", stringify!($ty)), ($ty) { $($field $(: $kind)?),+ }
                );
                d.deserialize_struct(stringify!($ty), &[$(stringify!($field)),+], V)
            }
        }
    };
}

/// [`wire_struct!`] for an enum of struct variants and newtype variants
/// (`Name(_)`). Each variant names its wire index, so reordering the
/// declaration cannot change the format; a variant left out does not
/// compile.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// enum Rec { Mark { epoch: u64 }, Blob { seq: u64, body: Vec<u8> }, Note(String) }
/// beehive_wire::wire_enum!(Rec {
///     0 => Mark { epoch },
///     1 => Blob { seq, body: bytes },
///     2 => Note(_),
/// });
///
/// let r = Rec::Blob { seq: 9, body: vec![1, 2, 3] };
/// let buf = beehive_wire::to_vec(&r).unwrap();
/// assert_eq!(buf, [1, 9, 0, 0, 0, 0, 0, 0, 0, 3, 1, 2, 3]);
/// assert_eq!(beehive_wire::from_slice::<Rec>(&buf).unwrap(), r);
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($idx:literal => $variant:ident $body:tt),+ $(,)? }) => {
        impl ::serde::Serialize for $ty {
            fn serialize<S: ::serde::Serializer>(
                &self,
                s: S,
            ) -> ::core::result::Result<S::Ok, S::Error> {
                let this = self;
                $($crate::__wire_variant!(ser s, this, $ty, $idx, $variant $body);)+
                // Every arm above returns; this match is the compile-time
                // check that none is missing.
                match this {
                    $($ty::$variant { .. } => unreachable!("serialized above"),)+
                }
            }
        }

        impl<'de> ::serde::Deserialize<'de> for $ty {
            fn deserialize<D: ::serde::Deserializer<'de>>(
                d: D,
            ) -> ::core::result::Result<Self, D::Error> {
                struct V;
                impl<'de> ::serde::de::Visitor<'de> for V {
                    type Value = $ty;
                    fn expecting(
                        &self,
                        f: &mut ::core::fmt::Formatter<'_>,
                    ) -> ::core::fmt::Result {
                        f.write_str(concat!("enum ", stringify!($ty)))
                    }
                    fn visit_enum<A: ::serde::de::EnumAccess<'de>>(
                        self,
                        data: A,
                    ) -> ::core::result::Result<$ty, A::Error> {
                        let (idx, var): (u32, A::Variant) =
                            ::serde::de::EnumAccess::variant(data)?;
                        $(if idx == $idx {
                            return $crate::__wire_variant!(de var, $ty, $variant $body);
                        })+
                        Err(::serde::de::Error::invalid_value(
                            ::serde::de::Unexpected::Unsigned(u64::from(idx)),
                            &self,
                        ))
                    }
                }
                d.deserialize_enum(stringify!($ty), &[$(stringify!($variant)),+], V)
            }
        }
    };
}

/// One field's value as the serializer / out of the deserializer.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (ser $value:expr) => {
        $value
    };
    (ser $value:expr, bytes) => {
        &$crate::Bytes($value)
    };
    (de $value:expr) => {
        $value
    };
    (de $value:expr, bytes) => {
        $crate::ByteBuf::into_vec($value)
    };
}

/// A visitor `$vis` that reads `$ctor`'s fields positionally.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_seq_visitor {
    ($vis:ident, $ty:ty, $what:expr, ($($ctor:tt)+) { $($field:ident $(: $kind:ident)?),* }) => {
        struct $vis;
        impl<'de> ::serde::de::Visitor<'de> for $vis {
            type Value = $ty;
            fn expecting(&self, f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {
                f.write_str($what)
            }
            #[allow(unused_mut, unused_variables, unused_assignments)]
            fn visit_seq<A: ::serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> ::core::result::Result<$ty, A::Error> {
                let mut read = 0usize;
                $(let $field = match ::serde::de::SeqAccess::next_element(&mut seq)? {
                    ::core::option::Option::Some(v) => {
                        read += 1;
                        $crate::__wire_field!(de v $(, $kind)?)
                    }
                    ::core::option::Option::None => {
                        return Err(::serde::de::Error::invalid_length(read, &self));
                    }
                };)*
                Ok($($ctor)+ { $($field),* })
            }
        }
    };
}

/// One enum variant's `Serialize` arm (an `if let` that returns) or its
/// `Deserialize` expression.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_variant {
    (ser $s:ident, $this:ident, $ty:ident, $idx:literal, $variant:ident
     { $($field:ident $(: $kind:ident)?),* $(,)? }) => {
        if let $ty::$variant { $($field),* } = $this {
            use ::serde::ser::SerializeStructVariant as _;
            let mut sv = $s.serialize_struct_variant(
                stringify!($ty),
                $idx,
                stringify!($variant),
                <[&str]>::len(&[$(stringify!($field)),*]),
            )?;
            $(sv.serialize_field(
                stringify!($field),
                $crate::__wire_field!(ser $field $(, $kind)?),
            )?;)*
            return sv.end();
        }
    };
    (ser $s:ident, $this:ident, $ty:ident, $idx:literal, $variant:ident (_)) => {
        if let $ty::$variant(inner) = $this {
            return $s.serialize_newtype_variant(
                stringify!($ty),
                $idx,
                stringify!($variant),
                inner,
            );
        }
    };
    (de $var:ident, $ty:ident, $variant:ident
     { $($field:ident $(: $kind:ident)?),* $(,)? }) => {{
        $crate::__wire_seq_visitor!(
            VV,
            $ty,
            concat!("struct variant ", stringify!($ty), "::", stringify!($variant)),
            ($ty::$variant) { $($field $(: $kind)?),* }
        );
        ::serde::de::VariantAccess::struct_variant($var, &[$(stringify!($field)),*], VV)
    }};
    (de $var:ident, $ty:ident, $variant:ident (_)) => {
        ::serde::de::VariantAccess::newtype_variant($var).map($ty::$variant)
    };
}
