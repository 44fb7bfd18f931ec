//! Offline stand-in for the `serde` crate.
//!
//! It keeps serde's data model and trait signatures — `Serialize`,
//! `Serializer` and its seven compound traits, `Deserialize`,
//! `Deserializer`, `Visitor` and the four access traits — so a format
//! written against crates.io serde (here: `beehive-wire`) and hand-written
//! impls (`beehive-core`'s `Dict`) compile unchanged, and the impls for std
//! types walk the model the way serde's do (a `Vec<u8>` is a sequence of
//! `u8`, a `String` is a `str`, a map is length-prefixed pairs), so the bytes
//! a non-self-describing format produces are the same.
//!
//! Left out: everything only self-describing formats need (`Content`
//! buffering, untagged/flattened enums, field identifiers — derived structs
//! are read positionally through `visit_seq`), and every `#[serde(..)]`
//! attribute except `skip`.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
