//! Identifiers: hives, bees and applications.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Identifier of a hive (a controller instance / physical machine).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct HiveId(pub u32);

impl HiveId {
    /// The corresponding Raft node id (hives double as registry Raft members).
    pub fn as_raft(self) -> u64 {
        self.0 as u64
    }

    /// Inverse of [`HiveId::as_raft`].
    pub fn from_raft(id: u64) -> Self {
        HiveId(id as u32)
    }
}

impl fmt::Display for HiveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hive-{}", self.0)
    }
}

/// Identifier of a bee: globally unique without coordination, because it
/// embeds the id of the hive that created it plus a per-hive sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BeeId(pub u64);

impl BeeId {
    /// Packs a creator hive and a local sequence number.
    pub fn new(creator: HiveId, seq: u32) -> Self {
        BeeId(((creator.0 as u64) << 32) | seq as u64)
    }

    /// The hive that allocated this id (not necessarily where the bee now
    /// lives — bees migrate).
    pub fn creator(self) -> HiveId {
        HiveId((self.0 >> 32) as u32)
    }

    /// The per-creator sequence number.
    pub fn seq(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for BeeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bee-{}.{}", self.creator().0, self.seq())
    }
}

/// Application name. Applications are identified by name cluster-wide.
pub type AppName = String;

/// An interned name: cloning it bumps a reference count instead of copying
/// the string. An [`crate::app::App`] interns its name once, when it is
/// built, and the per-message bookkeeping (instrumentation keys, trace
/// spans, the handler context) shares that one copy; a state dictionary
/// does the same for its own name and its keys.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<&Name> for Name {
    fn from(n: &Name) -> Self {
        n.clone()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> Self {
        n.0.to_string()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

/// On the wire a name is a string, byte for byte.
impl Serialize for Name {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&self.0)
    }
}

/// Decoding allocates once: a borrowed string goes straight into the
/// shared buffer, with no intermediate `String`.
impl<'de> Deserialize<'de> for Name {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct NameVisitor;
        impl serde::de::Visitor<'_> for NameVisitor {
            type Value = Name;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<Name, E> {
                Ok(Name::from(v))
            }
            fn visit_string<E: serde::de::Error>(self, v: String) -> Result<Name, E> {
                Ok(Name::from(v))
            }
        }
        d.deserialize_str(NameVisitor)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bee_id_packs_and_unpacks() {
        let id = BeeId::new(HiveId(7), 42);
        assert_eq!(id.creator(), HiveId(7));
        assert_eq!(id.seq(), 42);
    }

    #[test]
    fn bee_ids_from_different_hives_never_collide() {
        assert_ne!(BeeId::new(HiveId(1), 5), BeeId::new(HiveId(2), 5));
        assert_ne!(BeeId::new(HiveId(1), 5), BeeId::new(HiveId(1), 6));
    }

    #[test]
    fn hive_raft_mapping_roundtrips() {
        let h = HiveId(39);
        assert_eq!(HiveId::from_raft(h.as_raft()), h);
    }

    #[test]
    fn names_share_one_copy_and_order_like_strings() {
        let a = Name::from("beta");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let mut names = vec![Name::from("gamma"), a.clone(), Name::from("alpha")];
        names.sort();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
        assert_eq!(a, "beta");
        assert_eq!(String::from(a.clone()), "beta");
        assert_eq!(Name::from(&"beta".to_string()), a);
        assert_eq!(format!("{a} {a:?}"), "beta \"beta\"");
        let bytes = beehive_wire::to_vec(&a).unwrap();
        assert_eq!(bytes, beehive_wire::to_vec("beta").unwrap());
        assert_eq!(beehive_wire::from_slice::<Name>(&bytes).unwrap(), a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(HiveId(3).to_string(), "hive-3");
        assert_eq!(BeeId::new(HiveId(3), 9).to_string(), "bee-3.9");
    }
}
