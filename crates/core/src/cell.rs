//! Cells and mapped cells — the unit of state ownership and the routing key.
//!
//! A **cell** is one `(dictionary, key)` pair of an application's state. The
//! set of cells a message needs (its **mapped cells**) is what the platform
//! uses to route the message: messages whose mapped cells intersect are
//! guaranteed to be processed by the same bee (paper §3).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// Reserved key representing "the whole dictionary". Produced only by the
/// platform when an application statically declares whole-dictionary access;
/// applications cannot use it as an ordinary key.
pub const WHOLE_DICT_KEY: &str = "*";

/// A single `(dict, key)` cell.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cell {
    /// Dictionary name.
    pub dict: String,
    /// Entry key ([`WHOLE_DICT_KEY`] for whole-dictionary cells).
    pub key: String,
}

impl Cell {
    /// A per-key cell. Panics if `key` is the reserved whole-dict marker —
    /// whole-dictionary access must be declared statically via
    /// [`crate::app::MapSpec::WholeDicts`] so the platform can canonicalize
    /// consistently from the first message on.
    pub fn new(dict: impl Into<String>, key: impl Into<String>) -> Self {
        let key = key.into();
        assert_ne!(
            key, WHOLE_DICT_KEY,
            "the key {WHOLE_DICT_KEY:?} is reserved; declare whole-dict access with MapSpec::WholeDicts"
        );
        Cell {
            dict: dict.into(),
            key,
        }
    }

    /// The whole-dictionary cell for `dict` (platform use).
    pub fn whole(dict: impl Into<String>) -> Self {
        Cell {
            dict: dict.into(),
            key: WHOLE_DICT_KEY.to_string(),
        }
    }

    /// Whether this is a whole-dictionary cell.
    pub fn is_whole(&self) -> bool {
        self.key == WHOLE_DICT_KEY
    }
}

/// A cell seen through borrowed strings. A `BTreeSet<Cell>` (or a map keyed
/// by cells) can be searched for a `(dict, key)` pair of `&str`s through it
/// without building a [`Cell`]: `set.contains(&("S", "sw1") as &dyn CellRef)`.
pub trait CellRef {
    /// Dictionary name.
    fn dict(&self) -> &str;
    /// Entry key.
    fn key(&self) -> &str;
}

impl CellRef for Cell {
    fn dict(&self) -> &str {
        &self.dict
    }
    fn key(&self) -> &str {
        &self.key
    }
}

impl CellRef for (&str, &str) {
    fn dict(&self) -> &str {
        self.0
    }
    fn key(&self) -> &str {
        self.1
    }
}

impl<'a> Borrow<dyn CellRef + 'a> for Cell {
    fn borrow(&self) -> &(dyn CellRef + 'a) {
        self
    }
}

/// Orders like [`Cell`]'s derived `Ord`: by dictionary, then key.
impl Ord for dyn CellRef + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.dict(), self.key()).cmp(&(other.dict(), other.key()))
    }
}

impl PartialOrd for dyn CellRef + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn CellRef + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.dict() == other.dict() && self.key() == other.key()
    }
}

impl Eq for dyn CellRef + '_ {}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.dict, self.key)
    }
}

/// The routing decision of a handler's `map` for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mapped {
    /// This handler is not interested in the message.
    Skip,
    /// Process on a hive-local singleton bee. The bee is pinned to its hive
    /// and never migrated (used by drivers and per-hive platform functions).
    LocalSingleton,
    /// Deliver a copy to every *existing local* bee of the application —
    /// the `foreach` clause of the abstraction (e.g. a timer tick that makes
    /// each bee iterate its own keys).
    LocalBroadcast,
    /// Route by cells: all messages with intersecting cells reach the same
    /// bee, wherever it lives.
    Cells(Vec<Cell>),
}

impl Mapped {
    /// Convenience constructor from an iterator of cells. An empty set is
    /// treated as [`Mapped::Skip`].
    pub fn cells<I: IntoIterator<Item = Cell>>(cells: I) -> Self {
        let v: Vec<Cell> = cells.into_iter().collect();
        if v.is_empty() {
            Mapped::Skip
        } else {
            Mapped::Cells(v)
        }
    }

    /// A single-cell mapping.
    pub fn cell(dict: impl Into<String>, key: impl Into<String>) -> Self {
        Mapped::Cells(vec![Cell::new(dict, key)])
    }

    /// Canonicalizes cells: any cell in a monolithic dictionary collapses to
    /// the whole-dictionary cell, and duplicates are removed (order-stable).
    /// Works in place: a mapping that is already canonical allocates
    /// nothing.
    pub fn canonicalize(self, is_monolithic: impl Fn(&str) -> bool) -> Mapped {
        match self {
            Mapped::Cells(mut cells) => {
                for c in cells.iter_mut() {
                    if !c.is_whole() && is_monolithic(&c.dict) {
                        *c = Cell::whole(std::mem::take(&mut c.dict));
                    }
                }
                // Keep each cell's first occurrence. Mappings are a few
                // cells, so a scan of the kept prefix beats building a set.
                let mut kept = 0;
                for i in 0..cells.len() {
                    if !cells[..kept].contains(&cells[i]) {
                        cells.swap(kept, i);
                        kept += 1;
                    }
                }
                cells.truncate(kept);
                if cells.is_empty() {
                    Mapped::Skip
                } else {
                    Mapped::Cells(cells)
                }
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_constructors() {
        let c = Cell::new("S", "sw1");
        assert!(!c.is_whole());
        let w = Cell::whole("S");
        assert!(w.is_whole());
        assert_eq!(w.to_string(), "(S, *)");
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn star_key_is_rejected() {
        let _ = Cell::new("S", "*");
    }

    #[test]
    fn empty_cells_become_skip() {
        assert_eq!(Mapped::cells(Vec::new()), Mapped::Skip);
    }

    #[test]
    fn canonicalize_collapses_monolithic_dicts() {
        let m = Mapped::Cells(vec![
            Cell::new("S", "sw1"),
            Cell::new("S", "sw2"),
            Cell::new("T", "l1"),
        ]);
        let canon = m.canonicalize(|d| d == "S");
        match canon {
            Mapped::Cells(cells) => {
                assert_eq!(cells, vec![Cell::whole("S"), Cell::new("T", "l1")]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn canonicalize_dedups_but_keeps_order() {
        let m = Mapped::Cells(vec![
            Cell::new("T", "b"),
            Cell::new("T", "a"),
            Cell::new("T", "b"),
        ]);
        match m.canonicalize(|_| false) {
            Mapped::Cells(cells) => {
                assert_eq!(cells, vec![Cell::new("T", "b"), Cell::new("T", "a")]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_set_of_cells_is_searched_by_borrowed_strings() {
        let set: std::collections::BTreeSet<Cell> = [Cell::new("S", "sw1"), Cell::whole("T")]
            .into_iter()
            .collect();
        assert!(set.contains(&("S", "sw1") as &dyn CellRef));
        assert!(set.contains(&("T", WHOLE_DICT_KEY) as &dyn CellRef));
        assert!(!set.contains(&("S", "sw2") as &dyn CellRef));
        assert!(!set.contains(&("T", "x") as &dyn CellRef));
    }

    #[test]
    fn canonicalize_passes_through_other_variants() {
        assert_eq!(Mapped::Skip.canonicalize(|_| true), Mapped::Skip);
        assert_eq!(
            Mapped::LocalSingleton.canonicalize(|_| true),
            Mapped::LocalSingleton
        );
        assert_eq!(
            Mapped::LocalBroadcast.canonicalize(|_| true),
            Mapped::LocalBroadcast
        );
    }
}
